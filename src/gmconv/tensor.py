"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: a Tensor wraps a contiguous float64
numpy array plus a gradient slot, and a GradTape keeps an ordered log of
executed ops. Each op appends one record holding the output, the input
tensors, and a closure that maps the output adjoint to input adjoints.
``GradTape.backward`` replays the log in exact reverse execution order and
consumes it: a tape serves one backward pass. Adjoint contributions of a
tensor that feeds several ops are summed out of place, never copied, so a
``.grad`` array is read-only and may share memory with another.

Every op is a module-level function taking an optional ``tape`` keyword;
with ``tape=None`` it is a pure forward evaluation. Every op publishes its
output through one helper, ``_result``, which records the op's own backward
closure on a tape; work only the backward needs runs inside that closure,
so a tape-free call does none of it. Tensors carry no trainable flag.
Activity lives on the tape instead: ``GradTape(wrt=...)`` names the
leaves whose adjoints the caller reads, the tape keeps only the ops that
depend on them, and those ops skip the adjoints of inputs that do not (a
probe wants the input's adjoint and no weight's; a training step wants
the parameters' and not the image's). ``GradTape()`` keeps every op and
gives every input an adjoint.

Convolution is flat-shift: the input is padded onto flat per-sample
grids, and each kernel tap is a zero-copy slice of them, so the forward is
K*K GEMMs ``out += W_t @ slice_t`` and no column matrix is built; the
backward adds ``W_t^T @ g`` into the same slices. The whole conv, forward
and gradients, runs one batch chunk at a time: a chunk holds as many
samples as keep the output accumulator and the phase grids within
``_BLOCK_BYTES`` (about an L2 cache), so all K*K taps reuse data that is
already in cache, and nothing full-batch is built but the input, the
output adjoint and the results. Every value is summed in the same order
whatever the chunks; dW carries its running sum over the batch from chunk
to chunk. ``conv2d`` takes one O x C x K x K weight and an optional mask
over its taps: a K x K mask scales each tap matrix once, W_t * M[t], for
the whole batch, and an N x K x K mask scales sample n's, W_t * M[n, t], a
chunk at a time. The test suite holds direct-loop oracles of both, which
the conv matches to near machine precision.

``relu`` clamps with one ``np.maximum`` and selects its adjoint bit for
bit by the output it kept (``_relu_adjoint``). ``conv2d`` and ``add`` take
``relu=True`` to do the same to their own output, so a pre-activation that
only a ReLU reads is never stored: the conv clamps each batch chunk right
after its bias add, while the chunk is still in cache, the add clamps its
fresh sum in place, and either backward first selects its adjoint with
``_relu_adjoint``. The output is relu of the plain op's, bit for bit.
A plain conv's backward reads nothing of its output, so ``add`` can take
``inplace=True`` to write the sum over a fresh output that only a tape
record still holds: a residual block stores its conv2 output and its
block output as one buffer.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "GradTape",
    "conv2d",
    "global_pool",
    "dense",
    "relu",
    "softplus",
    "softmax_cross_entropy",
    "add",
    "mul",
    "concat_cols",
    "take_column",
    "reshape",
    "tsum",
    "downsample_pad",
]


class Tensor:
    """A shaped buffer of float64 values plus a gradient slot.

    `data` is always a C-contiguous float64 ndarray. `grad` starts as None;
    `GradTape.backward` leaves a same-shape array there on each tensor no
    op on its tape produced. It is read-only and may share memory.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data):
        # asarray with order="C" copies into C layout when needed but,
        # unlike ascontiguousarray, keeps 0-d scalars 0-d
        arr = np.asarray(data, dtype=np.float64, order="C")
        self.data = arr
        self.grad: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


class GradTape:
    """Ordered log of executed ops for one forward pass; single-use.

    Each record is (out, inputs, backward_fn). backward_fn receives the
    adjoint of `out` and returns one adjoint (or None) per input, in
    order; it must not write into the adjoint it receives. An absent input
    (a bias, a plain conv's mask) is None and gets no adjoint. `backward`
    pops the records newest-first, so it leaves the tape empty.

    `wrt` lists the leaf tensors whose adjoints the caller will read; None
    (the default) means every input. Activity is fixed while recording: a
    tensor is needed if it is a `wrt` tensor (by identity) or the output of
    a kept record, `record` drops an op none of whose inputs is needed, and
    an op may read `needs` when it records to skip the adjoints it would
    only throw away. `backward` gives a `.grad` only to needed tensors.
    """

    def __init__(self, wrt=None) -> None:
        self.records: list[tuple[Tensor, tuple[Tensor, ...], object]] = []
        # the wrt tensors stay referenced, so their ids cannot be reused
        self._wrt = None if wrt is None else tuple(wrt)
        self._active = None if wrt is None else {id(t) for t in self._wrt}

    def needs(self, t: Tensor | None) -> bool:
        """Whether `t` depends on `wrt`, so that its adjoint is wanted."""
        return t is not None and (self._active is None or id(t) in self._active)

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> None:
        if self._active is not None:
            if not any(map(self.needs, inputs)):
                return
            self._active.add(id(out))
        self.records.append((out, inputs, backward_fn))

    def backward(self, out: Tensor, seed: np.ndarray | None = None) -> None:
        """Propagate adjoints from `out` back through every kept op,
        freeing each op output's adjoint once its record is replayed. Needed
        record inputs start at `.grad = None`, so a parameter shared across
        tapes carries no stale adjoint; other tensors' `.grad` is left
        alone. The seed defaults to ones (for a scalar loss: adjoint 1). A
        second call on the emptied tape raises.
        """
        if not self.records:
            raise RuntimeError("backward needs a recorded tape; each tape is used up by one call")
        for _, rec_inputs, _ in self.records:
            for t in rec_inputs:
                if self.needs(t):
                    t.grad = None
        if seed is None:
            out.grad = np.ones_like(out.data)
        else:
            seed = np.asarray(seed, dtype=np.float64)
            if seed.shape != out.data.shape:
                raise ValueError(
                    f"seed shape {seed.shape} does not match output shape {out.data.shape}"
                )
            out.grad = seed.copy()

        while self.records:
            rec_out, rec_inputs, backward_fn = self.records.pop()
            g, rec_out.grad = rec_out.grad, None
            if g is None:
                continue
            for t, ig in zip(rec_inputs, backward_fn(g)):
                # out of place, as `add` hands one array to both of its inputs;
                # asarray, as numpy makes a 0-d sum a scalar, not an array
                if ig is not None and self.needs(t):
                    t.grad = np.asarray(ig if t.grad is None else t.grad + ig)


def _result(data, tape: GradTape | None, inputs: tuple, backward) -> Tensor:
    """An op's output as a Tensor, recorded on `tape` (if any) with the
    op's own `backward` closure: tracing tools name a backward after the
    function that defines its closure."""
    out = Tensor(data)
    if tape is not None:
        tape.record(out, inputs, backward)
    return out


# ---------------------------------------------------------------------------
# convolution


def check_kernel(w: np.ndarray, b: np.ndarray | None, stride: int, padding: int) -> None:
    """The rule on a conv's own parameters: a non-empty square O x C x K x K
    weight, an O-vector bias or None, stride >= 1 and padding >= 0."""
    if w.ndim != 4 or 0 in w.shape or w.shape[2] != w.shape[3]:
        raise ValueError(f"conv weight must be a non-empty O x C x K x K, got shape {w.shape}")
    if b is not None and b.shape != (w.shape[0],):
        raise ValueError(f"bias shape {b.shape} does not match {w.shape[0]} output channels")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")


def conv_extent(h: int, w: int, k: int, stride: int, padding: int) -> tuple[int, int]:
    """(Ho, Wo) of a K x K conv over H x W, each floor((H + 2p - K) / stride)
    + 1; a kernel larger than the padded input raises ValueError."""
    if k > h + 2 * padding or k > w + 2 * padding:
        raise ValueError(f"kernel {k} exceeds padded input {h + 2 * padding} x {w + 2 * padding}")
    return (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1


def _conv_checks(x: np.ndarray, w: np.ndarray, b, stride: int, padding: int):
    if x.ndim != 4 or 0 in x.shape:
        raise ValueError(f"conv2d input must be a non-empty N x C x H x W, got shape {x.shape}")
    check_kernel(w, b, stride, padding)
    n, c, h, wdt = x.shape
    o, c2, k, _ = w.shape
    if c != c2:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {c2}")
    return n, c, h, wdt, o, k, *conv_extent(h, wdt, k, stride, padding)


# Bytes of per-sample conv state (output accumulator and phase grids) that
# one batch chunk may hold, so that it stays in a core's L2 cache
_BLOCK_BYTES = 1 << 20


def _conv_plan(x_shape, o: int, k: int, s: int, padding: int, ho: int, wo: int):
    """The flat-shift plan of a conv; see `_to_grids`. Returns the rows hg
    and width wg of each phase grid, each tap's (i, j, phase, flat offset),
    each phase's (index, input slice, grid slice), and the batch chunk size:
    as many samples as keep (O + C*s*s)*hg*wg floats each within
    `_BLOCK_BYTES`, and at least one."""
    n, c, h, w = x_shape
    hg, wg = ho + (k - 1) // s + 1, max(wo + (k - 1) // s, -(-(w + padding) // s))
    taps = [(i, j, i % s * s + j % s, i // s * wg + j // s) for i in range(k) for j in range(k)]

    def lanes(extent, a):
        # input lines r0::s sit at phase a of the padded extent, from grid line y0
        r0 = (a - padding) % s
        y0 = (r0 + padding) // s
        return slice(r0, extent, s), slice(y0, y0 + len(range(r0, extent, s)))

    rows, cols = [lanes(h, a) for a in range(s)], [lanes(w, b) for b in range(s)]
    phases = [(a * s + b, (..., ri, ci), (..., ry, cy))
              for a, (ri, ry) in enumerate(rows) for b, (ci, cy) in enumerate(cols)]
    chunk = min(n, max(1, _BLOCK_BYTES // (8 * (o + c * s * s) * hg * wg)))
    return hg, wg, taps, phases, chunk


def _to_grids(x: np.ndarray, grids: np.ndarray, phases) -> None:
    """Copy x (m x C x H x W) into the interiors of its s*s phase grids,
    s*s x m x C x hg x wg, whose zero padding is left untouched. Phase
    (a, b) holds padded rows a::s and columns b::s, flattened at width wg.
    Output (y, x) of tap (i, j) is element y*wg + x + (i//s)*wg + j//s of
    phase (i%s, j%s), so a tap over all outputs is one contiguous Ho*wg
    slice (a spare last row keeps it in bounds); the wg - Wo extra columns
    are dropped."""
    for ph, src, dst in phases:
        grids[ph][dst] = x[src]


def _weight_taps(wd: np.ndarray, md):
    """C-contiguous K x K x O x C tap matrices of an O x C x K x K weight,
    and the K x K x N tap-major view of an N x K x K mask (else None). A
    K x K mask scales the tap matrices here, once for the whole batch."""
    wt = np.moveaxis(wd, (-2, -1), (0, 1))
    if md is not None and md.ndim == 2:
        # the product would keep wd's strides, and a strided GEMM operand is slow
        return np.multiply(wt, md[:, :, None, None], order="C"), None
    return wt.copy(), None if md is None else np.moveaxis(md, 0, -1)


def _conv_forward(xd, wd, md, bdat, stride: int, padding: int, ho: int, wo: int,
                  relu: bool = False) -> np.ndarray:
    """Sum of `W_t @ slice_t` over taps, one batch chunk at a time; W_t is
    O x C, scaled by a K x K mask md[t], or m x O x C under an N x K x K
    mask: W_t * md[n, t]. With `relu`, each chunk's output is clamped at 0
    right after its bias add, while it is still in cache."""
    (n, c), (o, _, k, _), s = xd.shape[:2], wd.shape, stride
    hg, wg, taps, phases, chunk = _conv_plan(xd.shape, o, k, s, padding, ho, wo)
    span = ho * wg
    grids = np.zeros((s * s, chunk, c, hg, wg))
    acc, prod = np.empty((2, chunk, o, span))
    out = np.empty((n, o, ho, wo))
    wt, mt = _weight_taps(wd, md)
    for a in range(0, n, chunk):
        m = min(chunk, n - a)
        _to_grids(xd[a : a + m], grids[:, :m], phases)
        flat = grids[:, :m].reshape(s * s, m, c, hg * wg)
        w_taps = wt if mt is None else wt[:, :, None] * mt[:, :, a : a + m, None, None]
        acc[:m] = 0
        for i, j, ph, off in taps:
            np.matmul(w_taps[i, j], flat[ph, :, :, off : off + span], out=prod[:m])
            acc[:m] += prod[:m]
        res = acc[:m].reshape(m, o, ho, wg)[..., :wo]
        if bdat is None:
            out[a : a + m] = res
        else:
            np.add(res, bdat[:, None, None], out=out[a : a + m])
        if relu:
            np.maximum(out[a : a + m], 0.0, out=out[a : a + m])
    return out


def _conv_grads(g: np.ndarray, xd, wd, md, stride: int, padding: int,
                need_x: bool, need_w: bool, need_m: bool, need_b: bool):
    """(dx, dw, dm, db) of `_conv_forward` for the output adjoint g, one
    batch chunk at a time. An adjoint that is not needed (dm or db always,
    without a mask or a bias) is not computed and comes back as None. The
    grids are rebuilt, not kept alive by the closure. The tap products
    P_n = g_n @ slice_t^T are summed in sample order whatever the chunks,
    carried in slot 0 of their buffer. Under an N x K x K mask,
    dm[n, t] = <P_n, W_t> and each P_n is scaled by md[n, t] before the sum;
    under a K x K mask, dm[t] = <sum_n P_n, W_t> and the sum is scaled by
    md[t] into dw."""
    db = g.sum(axis=(0, 2, 3)) if need_b else None
    dx = dw = dm = None
    if not (need_x or need_w or need_m):
        return dx, dw, dm, db
    (n, o, ho, wo), c, s, k = g.shape, xd.shape[1], stride, wd.shape[-1]
    per_sample = md is not None and md.ndim == 3
    hg, wg, taps, phases, chunk = _conv_plan(xd.shape, o, k, s, padding, ho, wo)
    span = ho * wg
    gpad = np.zeros((chunk, o, ho, wg))
    if need_w or need_m:
        grids = np.zeros((s * s, chunk, c, hg, wg))
        prods = np.empty((chunk + 1, k, k, o, c))
        dm = np.empty((n, k, k)) if need_m and per_sample else None
    if need_x:
        dx = np.empty(xd.shape)
        dgrids = np.empty((s * s, chunk, c, hg * wg))
        # tap products at the grid's row pitch; the zero tail of each row
        # lets a tap's add run over one contiguous range
        prod = np.zeros((chunk, c, hg * wg))
        wt, mt = _weight_taps(wd, md)
    for a in range(0, n, chunk):
        m = min(chunk, n - a)
        gpad[:m, :, :, :wo] = g[a : a + m]
        gg = gpad[:m].reshape(m, o, span)
        if need_w or need_m:
            _to_grids(xd[a : a + m], grids[:, :m], phases)
            flat = grids[:, :m].reshape(s * s, m, c, hg * wg)
            # the batch's first product starts the carry in slot 0
            lo = 1 if a else 0
            for i, j, ph, off in taps:
                np.matmul(gg, flat[ph, :, :, off : off + span].swapaxes(-1, -2),
                          out=prods[lo : lo + m, i, j])
            if per_sample:
                if need_m:
                    dm[a : a + m] = np.einsum("nkloc,ockl->nkl", prods[lo : lo + m], wd)
                prods[lo : lo + m] *= md[a : a + m, :, :, None, None]
            for r in range(1, lo + m):
                prods[0] += prods[r]
        if need_x:
            w_taps = wt if mt is None else wt[:, :, None] * mt[:, :, a : a + m, None, None]
            dg = dgrids[:, :m].reshape(s * s, -1)
            dg[...] = 0
            lines = (m * c - 1) * hg * wg + span
            tail = prod[:m].reshape(-1)[:lines]
            for i, j, ph, off in taps:
                np.matmul(w_taps[i, j].swapaxes(-1, -2), gg, out=prod[:m, :, :span])
                dg[ph, off : off + lines] += tail
            # each phase's interior goes back to the input lines it came from
            dg = dg.reshape(s * s, m, c, hg, wg)
            for ph, src, dst in phases:
                dx[a : a + m][src] = dg[ph][dst]
    if md is not None and not per_sample:
        if need_m:
            dm = np.einsum("kloc,ockl->kl", prods[0], wd)
        if need_w:
            prods[0] *= md[:, :, None, None]
    if need_w:
        dw = np.moveaxis(prods[0], (0, 1), (-2, -1)).copy()
    return dx, dw, dm, db


def conv2d(
    x: Tensor,
    w: Tensor,
    b: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    tape: GradTape | None = None,
    mask: Tensor | None = None,
    relu: bool = False,
) -> Tensor:
    """2D cross-correlation of N x C x H x W input with O x C x K x K weights.

    Output spatial extent is floor((H + 2p - K)/stride) + 1. Each output
    value is the dot product of the flattened kernel with the flattened
    zero-padded receptive field, plus the per-channel bias. A K x K `mask`
    scales each kernel's taps for the whole batch, so the conv is that of
    w * mask; an N x K x K mask convolves sample n with w * mask[n].
    With `relu`, the output is relu(conv) bit for bit, clamped one batch
    chunk at a time, and the backward first masks its adjoint with
    `relu`'s select; the raw conv output is never stored.
    """
    xd, wd = x.data, w.data
    bdat, md = None if b is None else b.data, None if mask is None else mask.data
    n, *_, k, ho, wo = _conv_checks(xd, wd, bdat, stride, padding)
    if md is not None and md.shape not in ((k, k), (n, k, k)):
        raise ValueError(f"a conv mask must be K x K = {(k, k)} or N x K x K = {(n, k, k)}, "
                         f"got {md.shape}")
    need = None if tape is None else (tape.needs(x), tape.needs(w), tape.needs(mask), tape.needs(b))
    y = _conv_forward(xd, wd, md, bdat, stride, padding, ho, wo, relu)
    # only the ReLU select reads the output, so a plain conv's closure keeps none of it
    clamped = y if relu else None

    def backward(g: np.ndarray):
        g = g if clamped is None else _relu_adjoint(g, clamped)
        return _conv_grads(g, xd, wd, md, stride, padding, *need)

    return _result(y, tape, (x, w, mask, b), backward)


def conv2d_per_sample(x, w, m, b=None, stride=1, padding=0, tape=None) -> Tensor:
    """`conv2d` under the mask `m`; the benchmark's tracer still binds this name."""
    return conv2d(x, w, b, stride, padding, tape, m)


# ---------------------------------------------------------------------------
# pooling, dense, activations


def global_pool(x: Tensor, mode: str, tape: GradTape | None = None) -> Tensor:
    """Collapse spatial dims of N x C x H x W to N x C by max or mean.

    The max adjoint is routed to the first argmax position in row-major
    scan order; the avg adjoint spreads uniformly as 1/(H*W).
    """
    if x.data.ndim != 4:
        raise ValueError(f"global_pool expects N x C x H x W, got {x.data.shape}")
    n, c, h, w = x.data.shape
    if h < 1 or w < 1:
        raise ValueError("global_pool needs at least one spatial position")
    flat = x.data.reshape(n, c, h * w)
    if mode == "max":
        idx = np.argmax(flat, axis=2)

        def backward(g: np.ndarray):
            dflat = np.zeros((n, c, h * w))
            np.put_along_axis(dflat, idx[:, :, None], g[:, :, None], axis=2)
            return (dflat.reshape(n, c, h, w),)

        return _result(np.take_along_axis(flat, idx[:, :, None], axis=2)[:, :, 0], tape, (x,),
                       backward)
    if mode == "avg":
        return _result(flat.mean(axis=2), tape, (x,), lambda g: (
            np.broadcast_to(g[:, :, None, None] / (h * w), (n, c, h, w)).copy(),))
    raise ValueError(f"unknown pool mode {mode!r} (expected 'max' or 'avg')")


def dense(x: Tensor, w: Tensor, b: Tensor | None = None, tape: GradTape | None = None) -> Tensor:
    """Affine map per row: out[n] = w @ x[n] + b, shapes N x F -> N x G.

    The forward and dX run as N stacked one-row products, so row n of
    either does not depend on its batch-mates: a batch gives each row the
    same bits as a batch of one (a single N x F GEMM rounds a row one way
    at N = 1 and another at N > 1). dW stays one GEMM."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ValueError(
            f"dense expects 2D input and weight, got {x.data.shape} and {w.data.shape}"
        )
    if x.data.shape[1] != w.data.shape[1]:
        raise ValueError(
            f"inner dims disagree: input {x.data.shape[1]} vs weight {w.data.shape[1]}"
        )
    if b is not None and b.data.shape != (w.data.shape[0],):
        raise ValueError(f"bias shape {b.data.shape} does not match {w.data.shape[0]} outputs")
    y = np.matmul(x.data[:, None, :], w.data.T)[:, 0]
    if b is not None:
        y = y + b.data

    def backward(g: np.ndarray):
        dx = np.matmul(g[:, None, :], w.data)[:, 0]
        return dx, g.T @ x.data, None if b is None else g.sum(axis=0)

    return _result(y, tape, (x, w, b), backward)


def _relu_adjoint(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The adjoint of x for the adjoint g of y = max(x, 0): g where y != 0,
    +0.0 elsewhere, as a fresh C-contiguous array. It reads its mask off the
    output, which is +0.0 exactly where x <= 0, so no mask array is kept.
    `relu`, `conv2d(relu=True)` and `add(relu=True)` all select with it."""
    u64 = np.uint64
    # g's bits times 1 or 0: g's own bits, or +0.0's all-zero bits
    return np.multiply(g.view(u64), y != 0.0, out=np.empty(y.shape, u64)).view(np.float64)


def relu(x: Tensor, tape: GradTape | None = None) -> Tensor:
    """Elementwise max(0, x); the subgradient at exactly 0 is 0. NaN is not
    clamped: it passes forward, and its adjoint passes backward, so an
    overflowed activation cannot vanish into a zero output or map.
    Bit for bit, the output is np.where(x <= 0, 0.0, x) and the adjoint
    np.where(x <= 0, 0.0, g), the select of `_relu_adjoint`. `conv2d` and
    `add` take `relu=True` to apply the same clamp and select to their own
    output, so a residual block tapes no pre-activation."""
    y = np.maximum(x.data, 0.0)
    return _result(y, tape, (x,), lambda g: (_relu_adjoint(g, y),))


def softplus(x: Tensor, tape: GradTape | None = None) -> Tensor:
    """log(1 + exp(x)) via logaddexp; derivative is the logistic sigmoid."""
    # sigmoid(x) = exp(-softplus(-x)), stable at both tails
    return _result(np.logaddexp(0.0, x.data), tape, (x,),
                   lambda g: (g * np.exp(-np.logaddexp(0.0, -x.data)),))


def check_labels(labels, n: int, classes: int) -> np.ndarray:
    """The label rule: one integer label per sample, an (n,) array with
    every label in [0, classes). Returns `labels` as an array; raises
    ValueError."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match {n} samples")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("labels must be integers")
    if np.any((labels < 0) | (labels >= classes)):
        raise ValueError(f"labels must lie in [0, {classes}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    return labels


def softmax_cross_entropy(
    logits: Tensor, labels: np.ndarray, tape: GradTape | None = None
) -> Tensor:
    """Mean negative log-softmax at the label index, max-stabilized.

    The gradient with respect to the logits is (softmax - onehot)/N.
    """
    z = logits.data
    if z.ndim != 2:
        raise ValueError(f"logits must be N x L, got {z.shape}")
    n, l = z.shape
    labels = check_labels(labels, n, l)
    shifted = z - z.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logsum
    loss = -float(logp[np.arange(n), labels].mean())

    def backward(g: np.ndarray):
        grad = np.exp(logp)
        grad[np.arange(n), labels] -= 1.0
        return (grad * (float(g) / n),)

    return _result(np.float64(loss), tape, (logits,), backward)


# ---------------------------------------------------------------------------
# structural ops


def add(a: Tensor, b: Tensor, tape: GradTape | None = None, relu: bool = False,
        inplace: bool = False) -> Tensor:
    """Elementwise a + b. With `relu`, the sum is clamped in place to
    relu(a + b), bit for bit, and the backward hands both inputs `relu`'s
    select of its adjoint; the raw sum is never stored. With `inplace`, the
    sum and any clamp are written over a's own buffer, which the output
    shares (a one-element sum excepted); bits and backward are unchanged.
    The caller keeps its precondition: `a` is a fresh op output that no
    backward closure reads and no caller reads again."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    # numpy runs a one-element in-place add as a reduction, which gives a sum
    # of two NaNs b's sign bit, not a's, so that size keeps a fresh buffer;
    # out= keeps a 0-d sum an array, which the in-place clamp writes to
    into = a.data if inplace and a.data.size > 1 else np.empty(a.data.shape)
    y = np.add(a.data, b.data, out=into)
    if relu:
        np.maximum(y, 0.0, out=y)

    def backward(g: np.ndarray):
        if relu:
            g = _relu_adjoint(g, y)
        return g, g

    return _result(y, tape, (a, b), backward)


def mul(a: Tensor, b: Tensor, tape: GradTape | None = None) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}")
    return _result(a.data * b.data, tape, (a, b), lambda g: (g * b.data, g * a.data))


def concat_cols(a: Tensor, b: Tensor, tape: GradTape | None = None) -> Tensor:
    """Concatenate two N x F tensors along the feature axis."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[0] != b.data.shape[0]:
        raise ValueError(f"concat_cols needs matching 2D rows: {a.data.shape}, {b.data.shape}")
    split = a.data.shape[1]
    return _result(np.concatenate([a.data, b.data], axis=1), tape, (a, b),
                   lambda g: (g[:, :split], g[:, split:]))


def take_column(x: Tensor, j: int, tape: GradTape | None = None) -> Tensor:
    """Select column j of an N x F tensor as an N-vector."""
    if x.data.ndim != 2:
        raise ValueError(f"take_column expects 2D, got {x.data.shape}")

    def backward(g: np.ndarray):
        dx = np.zeros(x.data.shape)
        dx[:, j] = g
        return (dx,)

    return _result(x.data[:, j].copy(), tape, (x,), backward)


def reshape(x: Tensor, new_shape, tape: GradTape | None = None) -> Tensor:
    return _result(x.data.reshape(new_shape), tape, (x,), lambda g: (g.reshape(x.data.shape),))


def tsum(x: Tensor, tape: GradTape | None = None) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    return _result(np.float64(x.data.sum()), tape, (x,),
                   lambda g: (np.full(x.data.shape, float(g)),))


def downsample_pad(
    x: Tensor, out_channels: int, tape: GradTape | None = None
) -> Tensor:
    """Identity shortcut for stride-2 blocks: take every other pixel and
    zero-pad new channels. Parameter-free by construction."""
    n, c, h, w = x.data.shape
    if out_channels < c:
        raise ValueError(f"cannot shrink channels: {c} -> {out_channels}")
    sub = x.data[:, :, ::2, ::2]
    ho, wo = sub.shape[2], sub.shape[3]
    y = np.zeros((n, out_channels, ho, wo))
    y[:, :c] = sub

    def backward(g: np.ndarray):
        dx = np.zeros((n, c, h, w))
        dx[:, :, ::2, ::2] = g[:, :c]
        return (dx,)

    return _result(y, tape, (x,), backward)
