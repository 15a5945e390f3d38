"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: a Tensor wraps a contiguous float64
numpy array plus a gradient slot, and a GradTape keeps an ordered log of
executed ops. Each op appends one record holding the output, the input
tensors, and a closure that maps the output adjoint to input adjoints.
``GradTape.backward`` replays the log in exact reverse execution order and
sums adjoint contributions when a tensor feeds several ops.

Every op is a module-level function taking an optional ``tape`` keyword;
with ``tape=None`` it is a pure forward evaluation. ``requires_grad`` is a
marker used by optimizers to select trainable parameters; adjoints are
propagated to every input regardless, since intermediates need them.

Convolution runs through im2col (window unfold then matrix multiply), with
one forward and one gradient routine for ``conv2d`` and ``conv2d_per_sample``.
The direct-loop references are kept as internal oracles; the two paths must
agree to near machine precision.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "GradTape",
    "conv2d",
    "conv2d_reference",
    "conv2d_per_sample",
    "conv2d_per_sample_reference",
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

    `data` is always a C-contiguous float64 ndarray. `grad` starts as None
    and is filled by `GradTape.backward` with an array of the same shape.
    """

    __slots__ = ("data", "grad", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        # asarray with order="C" copies into C layout when needed but,
        # unlike ascontiguousarray, keeps 0-d scalars 0-d
        arr = np.asarray(data, dtype=np.float64, order="C")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor{tag}(shape={self.data.shape}, requires_grad={self.requires_grad})"


class GradTape:
    """Ordered log of executed ops for one forward pass.

    Each record is (out, inputs, backward_fn). backward_fn receives the
    adjoint of `out` and returns one adjoint (or None) per input, in
    order. An absent bias is recorded as a None input and gets no adjoint.
    Records are replayed newest-first by `backward`.
    """

    def __init__(self) -> None:
        self.records: list[tuple[Tensor, tuple[Tensor, ...], object]] = []

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> None:
        self.records.append((out, inputs, backward_fn))

    def backward(self, out: Tensor, seed: np.ndarray | None = None) -> None:
        """Propagate adjoints from `out` back through every recorded op.

        All gradient slots of tensors touched by this tape are reset
        first, so repeated backward calls do not leak stale adjoints.
        The seed defaults to ones (for a scalar loss: adjoint 1).
        """
        touched: dict[int, Tensor] = {}
        for rec_out, rec_inputs, _ in self.records:
            touched[id(rec_out)] = rec_out
            for t in rec_inputs:
                if t is not None:
                    touched[id(t)] = t
        for t in touched.values():
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

        for rec_out, rec_inputs, backward_fn in reversed(self.records):
            g = rec_out.grad
            if g is None:
                continue
            input_grads = backward_fn(g)
            for t, ig in zip(rec_inputs, input_grads):
                if ig is None:
                    continue
                if t.grad is None:
                    t.grad = np.array(ig, dtype=np.float64)
                else:
                    t.grad += ig


# ---------------------------------------------------------------------------
# convolution


def _conv_checks(x: np.ndarray, w: np.ndarray, b, stride: int, padding: int):
    if x.ndim != 4:
        raise ValueError(f"conv2d input must be N x C x H x W, got shape {x.shape}")
    if w.ndim != 4:
        raise ValueError(f"conv2d weight must be O x C x K x K, got shape {w.shape}")
    if 0 in x.shape or 0 in w.shape:
        raise ValueError("conv2d rejects zero-extent dimensions")
    n, c, h, wdt = x.shape
    o, c2, k, k2 = w.shape
    if k != k2:
        raise ValueError(f"conv2d kernels must be square, got {k} x {k2}")
    if c != c2:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {c2}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    if k > h + 2 * padding or k > wdt + 2 * padding:
        raise ValueError(
            f"kernel {k} exceeds padded input {h + 2 * padding} x {wdt + 2 * padding}"
        )
    if b is not None:
        if b.shape != (o,):
            raise ValueError(f"bias shape {b.shape} does not match {o} output channels")
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wdt + 2 * padding - k) // stride + 1
    return n, c, h, wdt, o, k, ho, wo


def _im2col(x: np.ndarray, k: int, stride: int, padding: int, ho: int, wo: int):
    """Unfold padded input into a (N*Ho*Wo, C*K*K) matrix of receptive fields."""
    n, c = x.shape[0], x.shape[1]
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, c * k * k)
    return np.ascontiguousarray(cols)


def _col2im(dcols: np.ndarray, x_shape, k: int, stride: int, padding: int, ho: int, wo: int):
    """Scatter column adjoints back onto the (padded) input grid."""
    n, c, h, w = x_shape
    dxp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    dwin = dcols.reshape(n, ho, wo, c, k, k).transpose(0, 3, 1, 2, 4, 5)
    for ki in range(k):
        for kj in range(k):
            dxp[:, :, ki : ki + stride * ho : stride, kj : kj + stride * wo : stride] += dwin[
                :, :, :, :, ki, kj
            ]
    return dxp[:, :, padding : padding + h, padding : padding + w]


def _conv_forward(xd, wd, bdat, stride: int, padding: int, ho: int, wo: int) -> np.ndarray:
    """im2col then one GEMM for an O x C x K x K weight, or a batched GEMM
    (one per sample) for an N x O x C x K x K weight."""
    lead, (o, c, k, _) = wd.shape[:-4], wd.shape[-4:]
    cols = _im2col(xd, k, stride, padding, ho, wo).reshape(*lead, -1, c * k * k)
    flat = cols @ wd.reshape(*lead, o, c * k * k).swapaxes(-1, -2)
    if bdat is not None:
        flat += bdat
    return flat.reshape(-1, ho, wo, o).transpose(0, 3, 1, 2)


def _conv_grads(g: np.ndarray, xd, wd, has_bias: bool, stride: int, padding: int):
    """(dx, dw, db) of `_conv_forward` for the output adjoint g; db is None
    without a bias."""
    _, o, ho, wo = g.shape
    lead, (c, k) = wd.shape[:-4], wd.shape[-3:-1]
    gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(*lead, -1, o)
    # columns are recomputed here rather than kept alive in the closure;
    # trades one unfold for a much smaller live set
    cols = _im2col(xd, k, stride, padding, ho, wo).reshape(*lead, -1, c * k * k)
    dw = (gmat.swapaxes(-1, -2) @ cols).reshape(wd.shape)
    dcols = (gmat @ wd.reshape(*lead, o, c * k * k)).reshape(-1, c * k * k)
    dx = _col2im(dcols, xd.shape, k, stride, padding, ho, wo)
    db = gmat.reshape(-1, o).sum(axis=0) if has_bias else None
    return dx, dw, db


def conv2d(
    x: Tensor,
    w: Tensor,
    b: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    tape: GradTape | None = None,
) -> Tensor:
    """2D cross-correlation of N x C x H x W input with O x C x K x K weights.

    Output spatial extent is floor((H + 2p - K)/stride) + 1. Each output
    value is the dot product of the flattened kernel with the flattened
    zero-padded receptive field, plus the per-channel bias.
    """
    bdat = None if b is None else b.data
    *_, ho, wo = _conv_checks(x.data, w.data, bdat, stride, padding)
    out = Tensor(_conv_forward(x.data, w.data, bdat, stride, padding, ho, wo))

    if tape is not None:
        xd, wd = x.data, w.data

        def backward(g: np.ndarray):
            return _conv_grads(g, xd, wd, b is not None, stride, padding)

        tape.record(out, (x, w, b), backward)
    return out


def conv2d_reference(
    x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Direct-loop convolution on raw arrays; the internal oracle path.

    Same contract as conv2d's forward, written with explicit loops and no
    shared helper code, so a bug in the fast path cannot hide here.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    bdat = None if b is None else np.asarray(b, dtype=np.float64)
    n, c, h, wdt, o, k, ho, wo = _conv_checks(x, w, bdat, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, o, ho, wo))
    for ni in range(n):
        for oi in range(o):
            for yi in range(ho):
                for xi in range(wo):
                    patch = xp[ni, :, yi * stride : yi * stride + k, xi * stride : xi * stride + k]
                    acc = float(np.sum(patch * w[oi]))
                    if bdat is not None:
                        acc += bdat[oi]
                    out[ni, oi, yi, xi] = acc
    return out


def conv2d_per_sample(
    x: Tensor,
    wb: Tensor,
    b: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    tape: GradTape | None = None,
) -> Tensor:
    """Convolution where every batch element has its own weight tensor.

    `wb` has shape N x O x C x K x K; sample n is convolved with wb[n].
    This is the primitive behind dynamic masking, where each input
    produces its own mask and therefore its own effective kernel.
    """
    if wb.data.ndim != 5:
        raise ValueError(f"per-sample weights must be N x O x C x K x K, got {wb.data.shape}")
    if wb.data.shape[0] != x.data.shape[0]:
        raise ValueError(
            f"weight batch {wb.data.shape[0]} does not match input batch {x.data.shape[0]}"
        )
    bdat = None if b is None else b.data
    *_, ho, wo = _conv_checks(x.data, wb.data[0], bdat, stride, padding)
    out = Tensor(_conv_forward(x.data, wb.data, bdat, stride, padding, ho, wo))

    if tape is not None:
        xd, wd = x.data, wb.data

        def backward(g: np.ndarray):
            return _conv_grads(g, xd, wd, b is not None, stride, padding)

        tape.record(out, (x, wb, b), backward)
    return out


def conv2d_per_sample_reference(
    x: np.ndarray, wb: np.ndarray, b: np.ndarray | None = None, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Normative per-sample loop: convolve each sample with its own kernel."""
    x = np.asarray(x, dtype=np.float64)
    wb = np.asarray(wb, dtype=np.float64)
    outs = []
    for ni in range(x.shape[0]):
        outs.append(conv2d_reference(x[ni : ni + 1], wb[ni], b, stride, padding))
    return np.concatenate(outs, axis=0)


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
        out = Tensor(np.take_along_axis(flat, idx[:, :, None], axis=2)[:, :, 0])

        if tape is not None:

            def backward(g: np.ndarray):
                dflat = np.zeros((n, c, h * w))
                np.put_along_axis(dflat, idx[:, :, None], g[:, :, None], axis=2)
                return (dflat.reshape(n, c, h, w),)

            tape.record(out, (x,), backward)
        return out
    if mode == "avg":
        out = Tensor(flat.mean(axis=2))

        if tape is not None:

            def backward(g: np.ndarray):
                return (np.broadcast_to(g[:, :, None, None] / (h * w), (n, c, h, w)).copy(),)

            tape.record(out, (x,), backward)
        return out
    raise ValueError(f"unknown pool mode {mode!r} (expected 'max' or 'avg')")


def dense(x: Tensor, w: Tensor, b: Tensor | None = None, tape: GradTape | None = None) -> Tensor:
    """Affine map per row: out[n] = w @ x[n] + b, shapes N x F -> N x G."""
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
    y = x.data @ w.data.T
    if b is not None:
        y = y + b.data
    out = Tensor(y)

    if tape is not None:

        def backward(g: np.ndarray):
            return g @ w.data, g.T @ x.data, None if b is None else g.sum(axis=0)

        tape.record(out, (x, w, b), backward)
    return out


def relu(x: Tensor, tape: GradTape | None = None) -> Tensor:
    """Elementwise max(0, x); the subgradient at exactly 0 is 0."""
    gate = x.data > 0.0
    out = Tensor(np.where(gate, x.data, 0.0))
    if tape is not None:
        tape.record(out, (x,), lambda g: (np.where(gate, g, 0.0),))
    return out


def softplus(x: Tensor, tape: GradTape | None = None) -> Tensor:
    """log(1 + exp(x)) via logaddexp; derivative is the logistic sigmoid."""
    out = Tensor(np.logaddexp(0.0, x.data))
    if tape is not None:
        # sigmoid(x) = exp(-softplus(-x)), stable at both tails
        sig = np.exp(-np.logaddexp(0.0, -x.data))
        tape.record(out, (x,), lambda g: (g * sig,))
    return out


def softmax_cross_entropy(
    logits: Tensor, labels: np.ndarray, tape: GradTape | None = None
) -> Tensor:
    """Mean negative log-softmax at the label index, max-stabilized.

    The gradient with respect to the logits is (softmax - onehot)/N.
    """
    z = logits.data
    if z.ndim != 2:
        raise ValueError(f"logits must be N x L, got {z.shape}")
    labels = np.asarray(labels)
    if labels.shape != (z.shape[0],):
        raise ValueError(f"labels shape {labels.shape} does not match batch {z.shape[0]}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("labels must be integers")
    n, l = z.shape
    if labels.min() < 0 or labels.max() >= l:
        raise ValueError(f"labels must lie in [0, {l}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    shifted = z - z.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logsum
    loss = -float(logp[np.arange(n), labels].mean())
    out = Tensor(np.float64(loss))

    if tape is not None:
        probs = np.exp(logp)

        def backward(g: np.ndarray):
            grad = probs.copy()
            grad[np.arange(n), labels] -= 1.0
            return (grad * (float(g) / n),)

        tape.record(out, (logits,), backward)
    return out


# ---------------------------------------------------------------------------
# structural ops


def add(a: Tensor, b: Tensor, tape: GradTape | None = None) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data + b.data)
    if tape is not None:
        tape.record(out, (a, b), lambda g: (g, g))
    return out


def mul(a: Tensor, b: Tensor, tape: GradTape | None = None) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data * b.data)
    if tape is not None:
        ad, bd = a.data, b.data
        tape.record(out, (a, b), lambda g: (g * bd, g * ad))
    return out


def concat_cols(a: Tensor, b: Tensor, tape: GradTape | None = None) -> Tensor:
    """Concatenate two N x F tensors along the feature axis."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[0] != b.data.shape[0]:
        raise ValueError(f"concat_cols needs matching 2D rows: {a.data.shape}, {b.data.shape}")
    out = Tensor(np.concatenate([a.data, b.data], axis=1))
    if tape is not None:
        split = a.data.shape[1]
        tape.record(out, (a, b), lambda g: (g[:, :split], g[:, split:]))
    return out


def take_column(x: Tensor, j: int, tape: GradTape | None = None) -> Tensor:
    """Select column j of an N x F tensor as an N-vector."""
    if x.data.ndim != 2:
        raise ValueError(f"take_column expects 2D, got {x.data.shape}")
    out = Tensor(x.data[:, j].copy())
    if tape is not None:
        shape = x.data.shape

        def backward(g: np.ndarray):
            dx = np.zeros(shape)
            dx[:, j] = g
            return (dx,)

        tape.record(out, (x,), backward)
    return out


def reshape(x: Tensor, new_shape, tape: GradTape | None = None) -> Tensor:
    out = Tensor(x.data.reshape(new_shape))
    if tape is not None:
        old = x.data.shape
        tape.record(out, (x,), lambda g: (g.reshape(old),))
    return out


def tsum(x: Tensor, tape: GradTape | None = None) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    out = Tensor(np.float64(x.data.sum()))
    if tape is not None:
        shape = x.data.shape
        tape.record(out, (x,), lambda g: (np.full(shape, float(g)),))
    return out


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
    out = Tensor(y)

    if tape is not None:

        def backward(g: np.ndarray):
            dx = np.zeros((n, c, h, w))
            dx[:, :, ::2, ::2] = g[:, :c]
            return (dx,)

        tape.record(out, (x,), backward)
    return out
