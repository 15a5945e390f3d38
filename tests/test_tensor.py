"""Forward values and reverse-mode gradients of the tensor engine."""

import inspect
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmconv import layers, tensor
from gmconv.tensor import (
    GradTape,
    Tensor,
    add,
    concat_cols,
    conv2d,
    conv2d_per_sample,
    dense,
    downsample_pad,
    global_pool,
    mul,
    relu,
    reshape,
    softmax_cross_entropy,
    softplus,
    take_column,
    tsum,
)
from util import conv2d_per_sample_reference, conv2d_reference, num_grad


# (N, C, H, W, O, K, stride, padding) of the fast-vs-direct-loop oracle
CONV_GEOMETRIES = [
    (1, 1, 5, 5, 1, 3, 1, 0),
    (2, 3, 8, 8, 4, 3, 1, 1),
    (2, 3, 9, 9, 4, 3, 2, 1),
    (1, 2, 11, 11, 3, 5, 2, 2),
    (3, 1, 7, 12, 2, 3, 3, 0),
    (1, 3, 16, 16, 2, 11, 1, 5),
]


def conv_grads_match_fd(x, w, b, m, s, p, rng):
    """Tape adjoints of every tensor input of `conv2d` against central
    differences; b and the mask m may be None."""
    out_shape = conv2d(x, w, b, s, p, mask=m).data.shape
    r = rng.normal(size=out_shape)

    def loss_value(_arr=None):
        return float(np.sum(conv2d(x, w, b, s, p, mask=m).data * r))

    tape = GradTape()
    out = conv2d(x, w, b, s, p, tape, mask=m)
    loss = tsum(mul(out, Tensor(r), tape), tape)
    tape.backward(loss)
    for t in (x, w, b, m):
        if t is not None:
            want = num_grad(loss_value, t.data, h=1e-5)
            np.testing.assert_allclose(t.grad, want, rtol=1e-4, atol=1e-6)


class TestConvForward:
    def test_identity_1x1_kernel(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        b = Tensor(np.zeros(1))
        out = conv2d(x, w, b)
        np.testing.assert_array_equal(out.data, np.ones((1, 1, 3, 3)))

    def test_full_kernel_sums_input(self):
        x = Tensor(np.arange(1.0, 10.0).reshape(1, 1, 3, 3))
        w = Tensor(np.ones((1, 1, 3, 3)))
        b = Tensor(np.zeros(1))
        out = conv2d(x, w, b)
        assert out.data.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 45.0

    def test_shape_arithmetic_with_padding(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 32, 32)))
        w = Tensor(rng.normal(size=(16, 3, 3, 3)))
        out = conv2d(x, w, Tensor(np.zeros(16)), stride=1, padding=1)
        assert out.data.shape == (2, 16, 32, 32)

    def test_matches_direct_loop_reference(self):
        """Flat-shift path vs. independent nested-loop path, near machine eps."""
        rng = np.random.default_rng(42)
        for n, c, h, wdt, o, k, s, p in CONV_GEOMETRIES:
            x = rng.normal(size=(n, c, h, wdt))
            w = rng.normal(size=(o, c, k, k))
            b = rng.normal(size=o)
            fast = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=s, padding=p).data
            slow = conv2d_reference(x, w, b, stride=s, padding=p)
            assert np.max(np.abs(fast - slow)) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 8, 8))
        y = rng.normal(size=(2, 3, 8, 8))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        a, bb = 1.7, -0.4
        lhs = conv2d(Tensor(a * x + bb * y), w, stride=1, padding=1).data
        rhs = a * conv2d(Tensor(x), w, stride=1, padding=1).data + bb * conv2d(
            Tensor(y), w, stride=1, padding=1
        ).data
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 3, 10, 10)))
        w = Tensor(rng.normal(size=(5, 3, 3, 3)))
        b = Tensor(rng.normal(size=5))
        a = conv2d(x, w, b, stride=2, padding=1).data
        c = conv2d(x, w, b, stride=2, padding=1).data
        np.testing.assert_array_equal(a, c)

    def test_rejects_bad_shapes(self):
        x = Tensor(np.zeros((1, 3, 8, 8)))
        with pytest.raises(ValueError):
            conv2d(x, Tensor(np.zeros((4, 2, 3, 3))))  # channel mismatch
        with pytest.raises(ValueError):
            conv2d(x, Tensor(np.zeros((4, 3, 3, 5))))  # non-square
        with pytest.raises(ValueError):
            conv2d(x, Tensor(np.zeros((4, 3, 9, 9))))  # kernel exceeds input
        with pytest.raises(ValueError):
            conv2d(x, Tensor(np.zeros((4, 3, 3, 3))), stride=0)
        with pytest.raises(ValueError):
            conv2d(x, Tensor(np.zeros((4, 3, 3, 3))), padding=-1)
        with pytest.raises(ValueError):
            conv2d(Tensor(np.zeros((1, 0, 8, 8))), Tensor(np.zeros((4, 0, 3, 3))))

    def test_bias_shape_checked(self):
        x = Tensor(np.zeros((1, 3, 8, 8)))
        w = Tensor(np.zeros((4, 3, 3, 3)))
        with pytest.raises(ValueError):
            conv2d(x, w, Tensor(np.zeros(5)))


class TestConvGrad:
    def test_matches_finite_differences(self):
        """Analytic adjoints for input, weight, and bias against central
        differences, over stride/padding combinations."""
        rng = np.random.default_rng(3)
        for n, c, h, wdt, o, k, s, p in [
            (2, 2, 6, 6, 3, 3, 1, 1),
            (1, 3, 7, 7, 2, 3, 2, 0),
            (2, 1, 8, 5, 2, 5, 2, 2),
        ]:
            x = Tensor(rng.normal(size=(n, c, h, wdt)))
            w = Tensor(rng.normal(size=(o, c, k, k)))
            for b in (Tensor(rng.normal(size=o)), None):
                conv_grads_match_fd(x, w, b, None, s, p, rng)

    def test_per_sample_grads(self):
        """The same check for masked kernels, the mask's adjoint included,
        over the oracle's geometries: an N x K x K mask per sample, and one
        K x K mask shared by the batch."""
        rng = np.random.default_rng(4)
        for n, c, h, wdt, o, k, s, p in CONV_GEOMETRIES:
            x = Tensor(rng.normal(size=(n, c, h, wdt)))
            w = Tensor(rng.normal(size=(o, c, k, k)))
            for shape in ((n, k, k), (k, k)):
                m = Tensor(rng.uniform(0.2, 1.0, size=shape))
                for b in (Tensor(rng.normal(size=o)), None):
                    conv_grads_match_fd(x, w, b, m, s, p, rng)


class TestPerSampleConv:
    def test_batched_equals_per_sample_loop(self):
        """Internal oracle: tap-scaled shared kernel vs. the normative loop
        over the per-sample kernels w * m[n]."""
        rng = np.random.default_rng(5)
        for n, c, h, wdt, o, k, s, p in CONV_GEOMETRIES:
            x = rng.normal(size=(n, c, h, wdt))
            w = rng.normal(size=(o, c, k, k))
            m = rng.uniform(0.0, 1.0, size=(n, k, k))
            for b in (rng.normal(size=o), None):
                bt = None if b is None else Tensor(b)
                fast = conv2d(Tensor(x), Tensor(w), bt, s, p, mask=Tensor(m))
                slow = conv2d_per_sample_reference(x, w[None] * m[:, None, None], b, s, p)
                assert np.max(np.abs(fast.data - slow)) < 1e-12
                wrapped = conv2d_per_sample(Tensor(x), Tensor(w), Tensor(m), bt, s, p)
                assert np.array_equal(wrapped.data, fast.data)

    def test_identical_weights_match_plain_conv(self):
        """Unit masks give every sample the shared kernel itself."""
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 2, 6, 6))
        w = rng.normal(size=(4, 2, 3, 3))
        a = conv2d(Tensor(x), Tensor(w), padding=1, mask=Tensor(np.ones((3, 3, 3)))).data
        c = conv2d(Tensor(x), Tensor(w), stride=1, padding=1).data
        np.testing.assert_allclose(a, c, rtol=0, atol=1e-13)

    def test_batch_mismatch_rejected(self):
        """A mask shared by the batch or one per sample, and one value per
        kernel tap: a one-sample mask does not broadcast over N = 2."""
        x, w = Tensor(np.zeros((2, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3)))
        for shape in ((3, 3, 3), (2, 2, 2), (2, 9), (1, 3, 3), (3,), (2, 3), (9,)):
            with pytest.raises(ValueError, match="N x K x K"):
                conv2d(x, w, mask=Tensor(np.zeros(shape)))


def test_conv_builds_no_column_matrix():
    """Stride-1 conv at N=8, C=O=8, 16x16, K=3, p=1: the forward peak stays
    below the bytes of an N x C*K*K x Ho*Wo column matrix, and the backward
    peak below 1.25 times them. tracemalloc sees numpy's buffers."""
    n, c, o, hw, k = 8, 8, 8, 16, 3
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(n, c, hw, hw)))
    w = Tensor(rng.normal(size=(o, c, k, k)))
    seed = rng.normal(size=(n, o, hw, hw))
    col_bytes = n * c * k * k * hw * hw * 8
    tracemalloc.start()
    try:
        tape = GradTape()
        y = conv2d(x, w, stride=1, padding=1, tape=tape)
        forward_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        tape.backward(y, seed)
        backward_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert forward_peak < col_bytes
    assert backward_peak < 1.25 * col_bytes


def test_relu_builds_and_keeps_no_mask():
    """A tape-free relu allocates only its output, and a taped one leaves
    nothing alive but its output and the few hundred bytes of its record:
    neither builds an x.size-byte bool mask."""
    x = Tensor(np.random.default_rng(0).normal(size=(16, 8, 16, 16)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = relu(x)
        free_peak = tracemalloc.get_traced_memory()[1] - before
        del out
        tape = GradTape()
        before = tracemalloc.get_traced_memory()[0]
        out = relu(x, tape)
        kept = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert free_peak < out.data.nbytes + x.data.size // 2
    assert kept < 4096


def test_conv_working_set_stays_chunk_sized():
    """A batch-64 conv at C=O=8, 32x32, K=3, p=1 runs in several batch
    chunks, so neither pass builds a full-batch buffer: the forward peak net
    of the output, and the backward peak net of the output adjoint and the
    input and weight adjoints, stay below the bytes of the full-batch phase
    grids (s*s*N*C*hg*wg floats, with hg = 35 and wg = 34 here)."""
    n, c, o, hw, k = 64, 8, 8, 32, 3
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(n, c, hw, hw)))
    w = Tensor(rng.normal(size=(o, c, k, k)))
    seed = rng.normal(size=(n, o, hw, hw))
    grid_bytes = n * c * 35 * 34 * 8
    tracemalloc.start()
    try:
        tape = GradTape()
        before = tracemalloc.get_traced_memory()[0]
        y = conv2d(x, w, stride=1, padding=1, tape=tape)
        forward_peak = tracemalloc.get_traced_memory()[1] - before - y.data.nbytes
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        tape.backward(y, seed)
        adjoints = seed.nbytes + x.grad.nbytes + w.grad.nbytes
        backward_peak = tracemalloc.get_traced_memory()[1] - before - adjoints
    finally:
        tracemalloc.stop()
    assert forward_peak < grid_bytes
    assert backward_peak < grid_bytes


@st.composite
def conv_cases(draw, max_batch=3):
    """A random conv geometry (H != W allowed; K even or odd, up to the
    padded extent), its mask kind (None, "shared" or "per_sample"), whether
    it has a bias, whether it ends in the ReLU epilogue, and a seed for its
    arrays."""
    n, c, o = draw(st.integers(1, max_batch)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h, wdt = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    s, p = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    k = draw(st.integers(1, min(5, h + 2 * p, wdt + 2 * p)))
    geometry = (n, c, h, wdt, o, k, s, p)
    mask = draw(st.sampled_from((None, "shared", "per_sample")))
    return geometry, mask, draw(st.booleans()), draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


def conv_arrays(case):
    """x, w, the mask (K x K shared, N x K x K per sample, or None) and the
    bias of a `conv_cases` draw."""
    (n, c, h, wdt, o, k, s, p), mask, has_bias, _, seed = case
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c, h, wdt))
    w = rng.normal(size=(o, c, k, k))
    shape = {None: None, "shared": (k, k), "per_sample": (n, k, k)}[mask]
    m = None if shape is None else rng.uniform(0.0, 1.0, size=shape)
    b = rng.normal(size=o) if has_bias else None
    return rng, x, w, m, b


@given(conv_cases(max_batch=5))
def test_batch_chunks_change_no_value(case):
    """Forward and every (need_x, need_w, need_m, need_b) gradient are
    bit-identical whether the batch runs as one chunk, as one-sample
    chunks, or as chunks of 2 or 3 samples with a ragged last one; so is
    the dm of a mask shared by the batch, which sums over every chunk. An
    unmasked kernel has no mask, so need_m stays False for it. A forward
    with the ReLU epilogue is max(forward, 0) bit for bit, chunk by chunk."""
    (n, c, h, wdt, o, k, s, p), *_ = case
    rng, x, w, m, b = conv_arrays(case)
    ho, wo = (h + 2 * p - k) // s + 1, (wdt + 2 * p - k) // s + 1
    g = rng.normal(size=(n, o, ho, wo))
    hg, wg, *_, chunk = tensor._conv_plan(x.shape, o, k, s, p, ho, wo)
    assert chunk == n
    needs = [need for need in itertools.product((False, True), repeat=4)
             if m is not None or not need[2]]

    def run():
        grads = [tensor._conv_grads(g, x, w, m, s, p, *need) for need in needs]
        forwards = [tensor._conv_forward(x, w, m, b, s, p, ho, wo, relu) for relu in (False, True)]
        return forwards + [a for gs in grads for a in gs]

    want = run()
    assert want[1].tobytes() == np.maximum(want[0], 0.0).tobytes()
    for per_chunk in (1, 2, 3):
        block = per_chunk * 8 * (o + c * s * s) * hg * wg
        with mock.patch.object(tensor, "_BLOCK_BYTES", block):
            assert tensor._conv_plan(x.shape, o, k, s, p, ho, wo)[-1] == min(per_chunk, n)
            got = run()
        for value, expected in zip(got, want):
            assert (value is None) == (expected is None)
            if value is not None:
                assert np.array_equal(value, expected)


@given(conv_cases())
def test_random_conv_geometry_matches_the_oracle(case):
    """Forward against the direct loop to 1e-12: an unmasked kernel
    against conv(x, w), a shared mask against conv(x, w * m), and a
    per-sample mask against the loop over the kernels w * m[n]; backward
    through the adjoint identities <g, conv(x, w, m)> = <dx, x> = <dw, w> =
    <dm, m> to 1e-12 of <|g|, conv(|x|, |w|, |m|)>, which bounds every term
    of the four sums, and db = g.sum((0, 2, 3)). With the ReLU epilogue,
    the forward is against relu of the direct loop, equals relu of the
    plain fast path bit for bit, and g in the identities is relu's select
    of the seed. Every mask kind, with and without a bias, under every set
    of inputs the tape needs: exactly the needed inputs get an adjoint."""
    rng, x, w, m, b = conv_arrays(case)
    s, p = case[0][6:]
    relu_epilogue = case[3]
    if m is None or m.ndim == 2:
        ref, wb = conv2d_reference, (w if m is None else w * m)
        wabs = np.abs(wb)
    else:
        ref = conv2d_per_sample_reference
        wb, wabs = w[None] * m[:, None, None], np.abs(w)[None] * m[:, None, None]
    xt, wt, mt, bt = (None if a is None else Tensor(a) for a in (x, w, m, b))
    leaves = [t for t in (xt, wt, mt, bt) if t is not None]

    def op(tape=None, relu_out=relu_epilogue):
        return conv2d(xt, wt, bt, s, p, tape, mask=mt, relu=relu_out)

    want = ref(x, wb, b, stride=s, padding=p)
    pre, out = op(relu_out=False).data, op().data
    if relu_epilogue:
        want = np.maximum(want, 0.0)
        assert out.tobytes() == np.maximum(pre, 0.0).tobytes()
    assert np.max(np.abs(out - want)) < 1e-12

    seed = rng.normal(size=out.shape)
    g = np.where(out == 0.0, 0.0, seed) if relu_epilogue else seed
    conv_part = pre if b is None else pre - b[:, None, None]
    lhs = float(np.sum(g * conv_part))
    scale = float(np.sum(np.abs(g) * ref(np.abs(x), wabs, None, stride=s, padding=p)))
    for r in range(1, len(leaves) + 1):
        for wrt in itertools.combinations(leaves, r):
            for t in leaves:
                t.grad = None
            tape = GradTape(wrt=wrt)
            y = op(tape)
            tape.backward(y, seed=seed)
            assert np.array_equal(y.data, out)
            assert [t.grad is not None for t in leaves] == [t in wrt for t in leaves]
            for t in wrt:
                if t is bt:
                    np.testing.assert_allclose(t.grad, g.sum(axis=(0, 2, 3)), rtol=1e-12, atol=1e-12)
                else:
                    assert abs(float(np.sum(t.grad * t.data)) - lhs) <= 1e-12 * scale


class TestGlobalPool:
    def test_hand_values(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert global_pool(x, "max").data[0, 0] == 4.0
        assert global_pool(x, "avg").data[0, 0] == 2.5

    def test_constant_input(self):
        x = Tensor(np.full((2, 3, 4, 4), 7.25))
        np.testing.assert_array_equal(global_pool(x, "max").data, np.full((2, 3), 7.25))
        np.testing.assert_array_equal(global_pool(x, "avg").data, np.full((2, 3), 7.25))

    def test_singleton_spatial(self):
        x = Tensor(np.array([5.0, -3.0]).reshape(1, 2, 1, 1))
        np.testing.assert_array_equal(global_pool(x, "max").data, [[5.0, -3.0]])

    def test_max_adjoint_routes_to_first_argmax(self):
        """Tie at two spatial positions: the whole adjoint goes to the
        earlier one in row-major scan order, nothing to the later."""
        x = Tensor(np.array([[[[1.0, 9.0], [9.0, 0.0]]]]))
        tape = GradTape()
        out = global_pool(x, "max", tape)
        tape.backward(out, seed=np.array([[1.0]]))
        np.testing.assert_array_equal(x.grad, [[[[0.0, 1.0], [0.0, 0.0]]]])

    def test_avg_adjoint_uniform(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        tape = GradTape()
        out = global_pool(x, "avg", tape)
        tape.backward(out, seed=np.array([[8.0]]))
        np.testing.assert_array_equal(x.grad, np.full((1, 1, 2, 2), 2.0))

    def test_grads_match_fd(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(2, 3, 4, 5)))
        r = rng.normal(size=(2, 3))
        for mode in ("max", "avg"):

            def loss_value(_arr=None, mode=mode):
                return float(np.sum(global_pool(x, mode).data * r))

            tape = GradTape()
            loss = tsum(mul(global_pool(x, mode, tape), Tensor(r), tape), tape)
            tape.backward(loss)
            want = num_grad(loss_value, x.data, h=1e-6)
            np.testing.assert_allclose(x.grad, want, rtol=1e-4, atol=1e-7)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            global_pool(Tensor(np.zeros((1, 1, 2, 2))), "median")


class TestDense:
    def test_identity_weight(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = dense(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_value(self):
        out = dense(Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]]), Tensor([5.0]))
        np.testing.assert_array_equal(out.data, [[16.0]])

    def test_absent_bias_is_zero_bias(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(2, 4)))
        np.testing.assert_array_equal(
            dense(x, w).data, dense(x, w, Tensor(np.zeros(2))).data
        )

    def test_grads_match_fd(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(2, 4)))
        b = Tensor(rng.normal(size=2))
        r = rng.normal(size=(3, 2))

        for bias in (b, None):

            def loss_value(_arr=None):
                return float(np.sum(dense(x, w, bias).data * r))

            tape = GradTape()
            loss = tsum(mul(dense(x, w, bias, tape), Tensor(r), tape), tape)
            tape.backward(loss)
            for t in (x, w) if bias is None else (x, w, b):
                want = num_grad(loss_value, t.data, h=1e-6)
                np.testing.assert_allclose(t.grad, want, rtol=1e-4, atol=1e-7)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dense(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    @pytest.mark.parametrize("f, g", [(1, 1), (7, 3), (16, 10), (33, 65), (128, 100)])
    def test_rows_do_not_depend_on_the_batch(self, f, g):
        """Each row's output and dX are a batch-of-one call's, bit for bit."""
        rng = np.random.default_rng(f * g)
        x = Tensor(rng.normal(size=(9, f)))
        w, b = Tensor(rng.normal(size=(g, f))), Tensor(rng.normal(size=g))
        r = rng.normal(size=(9, g))
        tape = GradTape()
        tape.backward(dense(x, w, b, tape), r)
        for i in range(9):
            row = Tensor(x.data[i : i + 1])
            tape = GradTape()
            out = dense(row, w, b, tape)
            tape.backward(out, r[i : i + 1])
            np.testing.assert_array_equal(out.data[0], dense(x, w, b).data[i])
            np.testing.assert_array_equal(row.grad[0], x.grad[i])


class TestActivations:
    def test_relu_values(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])
        x = Tensor([0.5, 3.0])
        np.testing.assert_array_equal(relu(x).data, x.data)

    def test_relu_gate_adjoint(self):
        x = Tensor([-1.0, 2.0])
        tape = GradTape()
        out = relu(x, tape)
        tape.backward(out, seed=np.array([1.0, 1.0]))
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])

    def test_relu_subgradient_zero_at_zero(self):
        x = Tensor([0.0])
        tape = GradTape()
        tape.backward(relu(x, tape), seed=np.array([5.0]))
        np.testing.assert_array_equal(x.grad, [0.0])

    def test_relu_passes_nan_and_keeps_every_other_value(self):
        """NaN of either sign passes with its sign; every x <= 0, -0.0 and
        -5e-324 included, gives +0.0 and an adjoint of +0.0, even where the
        seed is negative, -0.0, NaN or -inf."""
        neg_nan = np.copysign(np.nan, -1.0)
        x = Tensor([np.nan, -np.inf, -1.0, -0.0, 0.0, 5e-324, np.inf, neg_nan, -5e-324])
        tape = GradTape()
        out = relu(x, tape)
        np.testing.assert_array_equal(
            out.data, [np.nan, 0.0, 0.0, 0.0, 0.0, 5e-324, np.inf, np.nan, 0.0]
        )
        assert np.signbit(out.data).tolist() == [False] * 7 + [True, False]
        tape.backward(out, seed=np.array([2.0, -3.0, -0.0, np.nan, -np.inf, 2.0, 2.0, 2.0, -1.0]))
        np.testing.assert_array_equal(x.grad, [2.0, 0.0, 0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 0.0])
        assert not np.signbit(x.grad).any()

    def test_relu_matches_the_where_formulas_bit_for_bit(self):
        """Forward and adjoint equal np.where(x <= 0, 0.0, x) and
        np.where(x <= 0, 0.0, g) byte for byte, on every pairing of special
        x and g values (signed zeros and NaNs, infinities, subnormals) mixed
        with random ones, at 2-D and 0-d. The adjoint of a read-only,
        transposed g is C-contiguous, and g is left as it was. add(a, b,
        relu=True) is relu(add(a, b)) byte for byte, output and both
        adjoints, on the same pairings with b drawn from the same values."""
        special = [0.0, -0.0, np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf,
                   5e-324, -5e-324, 1e-310, -1e-310, 1.5, -1.5]
        rng = np.random.default_rng(16)
        xs = np.concatenate([np.repeat(special, len(special)), rng.normal(size=156)])
        gs = np.concatenate([np.tile(special, len(special)), rng.normal(size=156)])
        order = rng.permutation(xs.size)
        x = xs[order].reshape(15, 20)
        h = np.ascontiguousarray(gs[order].reshape(15, 20).T)
        h.flags.writeable = False
        g, before = h.T, h.tobytes()
        assert not g.flags.c_contiguous and not g.flags.writeable

        tape = GradTape()
        out = relu(Tensor(x), tape)
        assert out.data.tobytes() == np.where(x <= 0, 0.0, x).tobytes()
        (dx,) = tape.records[-1][2](g)
        assert dx.dtype == np.float64 and dx.flags.c_contiguous
        assert dx.tobytes() == np.where(x <= 0, 0.0, g).tobytes()
        assert not np.signbit(dx[x <= 0]).any()
        assert h.tobytes() == before

        def fused_add_is_relu_of_add(a, b, g):
            fused_tape, tape = GradTape(), GradTape()
            with np.errstate(invalid="ignore"):  # inf + -inf is NaN on both paths
                fused = add(Tensor(a), Tensor(b), fused_tape, relu=True)
                out = relu(add(Tensor(a), Tensor(b), tape), tape)
            assert fused.data.shape == out.data.shape
            assert fused.data.tobytes() == out.data.tobytes()
            (dsum,) = tape.records[-1][2](g)
            for da in fused_tape.records[-1][2](g):
                assert da.tobytes() == tape.records[-2][2](dsum)[0].tobytes()

        fused_add_is_relu_of_add(x, rng.permutation(xs).reshape(15, 20), g)
        assert h.tobytes() == before

        for xv in special:
            for gv in special:
                tape = GradTape()
                out = relu(Tensor(xv), tape)
                assert out.data.shape == ()
                assert out.data.tobytes() == np.where(xv <= 0, 0.0, xv).tobytes()
                (dx,) = tape.records[-1][2](np.array(gv))
                assert dx.shape == ()
                assert dx.tobytes() == np.where(xv <= 0, 0.0, gv).tobytes()
                fused_add_is_relu_of_add(xv, gv, np.array(xv))

    def test_softplus_value_and_grad(self):
        x = Tensor([-700.0, -1.0, 0.0, 1.0, 700.0])
        out = softplus(x)
        np.testing.assert_allclose(out.data, np.logaddexp(0.0, x.data), rtol=1e-15)
        assert 0.0 < out.data[0] < 1e-300  # deep negative tail, no NaN
        assert out.data[4] == 700.0  # deep positive tail is the identity
        y = Tensor(np.array([-2.0, 0.3, 4.0]))
        tape = GradTape()
        loss = tsum(softplus(y, tape), tape)
        tape.backward(loss)

        def loss_value(_arr=None):
            return float(np.sum(softplus(y).data))

        want = num_grad(loss_value, y.data, h=1e-6)
        np.testing.assert_allclose(y.grad, want, rtol=1e-6, atol=1e-10)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_loss_is_log_classes(self):
        z = Tensor(np.zeros((4, 10)))
        loss = softmax_cross_entropy(z, np.zeros(4, dtype=np.int64))
        np.testing.assert_allclose(float(loss.data), math.log(10.0), rtol=1e-12)

    def test_extreme_logits_stable(self):
        z = Tensor(np.array([[1000.0, 0.0]]))
        loss = softmax_cross_entropy(z, np.array([0]))
        assert np.isfinite(float(loss.data))
        assert float(loss.data) < 1e-300

    def test_gradient_hand_value(self):
        """Two equal logits, label 1: softmax is (0.5, 0.5), so the
        gradient is (0.5, -0.5) for a batch of one. Cross-checked by
        finite differences below."""
        z = Tensor(np.zeros((1, 2)))
        tape = GradTape()
        loss = softmax_cross_entropy(z, np.array([1]), tape)
        tape.backward(loss)
        np.testing.assert_allclose(z.grad, [[0.5, -0.5]], rtol=1e-12)

        def loss_value(_arr=None):
            return float(softmax_cross_entropy(z, np.array([1])).data)

        want = num_grad(loss_value, z.data, h=1e-6)
        np.testing.assert_allclose(z.grad, want, rtol=1e-8, atol=1e-10)

    def test_gradient_random_batch_fd(self):
        rng = np.random.default_rng(10)
        z = Tensor(rng.normal(size=(5, 7)))
        labels = rng.integers(0, 7, size=5)
        tape = GradTape()
        loss = softmax_cross_entropy(z, labels, tape)
        tape.backward(loss)

        def loss_value(_arr=None):
            return float(softmax_cross_entropy(z, labels).data)

        want = num_grad(loss_value, z.data, h=1e-6)
        np.testing.assert_allclose(z.grad, want, rtol=1e-6, atol=1e-10)

    def test_mean_over_batch(self):
        z = Tensor(np.zeros((3, 4)))
        loss = softmax_cross_entropy(z, np.array([0, 1, 2]))
        np.testing.assert_allclose(float(loss.data), math.log(4.0), rtol=1e-12)

    def test_label_out_of_range_rejected(self):
        z = Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            softmax_cross_entropy(z, np.array([0, 3]))
        with pytest.raises(ValueError):
            softmax_cross_entropy(z, np.array([-1, 0]))


class TestStructuralOps:
    def test_add_mul_values(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 5.0])
        np.testing.assert_array_equal(add(a, b).data, [4.0, 7.0])
        np.testing.assert_array_equal(mul(a, b).data, [3.0, 10.0])

    @pytest.mark.parametrize("clamp", [False, True], ids=["plain", "relu"])
    def test_inplace_add_matches_the_out_of_place_add_bit_for_bit(self, clamp):
        """add(a, b, inplace=True) writes its sum over a's buffer, and its
        output shares that buffer, tape-free and taped; a one-element sum,
        which numpy would run as a reduction, gets a fresh buffer. Its
        output and both adjoints equal the out-of-place add's byte for
        byte, with and without the ReLU clamp, on every pairing of special
        values (signed zeros and NaNs, infinities, a subnormal), in a 2-D
        array and at 0-d."""
        special = [0.0, -0.0, np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf,
                   5e-324, 1.5, -1.5]
        rng = np.random.default_rng(24)
        pairs = [(np.concatenate([np.repeat(special, 9), rng.normal(size=19)]).reshape(10, 10),
                  np.concatenate([np.tile(special, 9), rng.normal(size=19)]).reshape(10, 10))]
        pairs += [(np.array(u), np.array(v)) for u in special for v in special]
        for a, b in pairs:
            g = rng.permutation(np.concatenate([a.reshape(-1), b.reshape(-1)]))[: a.size]
            g = g.reshape(a.shape)
            with np.errstate(invalid="ignore"):  # inf + -inf is NaN on both paths
                want_tape = GradTape()
                want = add(Tensor(a), Tensor(b), want_tape, relu=clamp)
                for tape in (None, GradTape()):
                    into = Tensor(a.copy())
                    out = add(into, Tensor(b), tape, relu=clamp, inplace=True)
                    assert (out.data is into.data) == (a.size > 1)
                    assert out.data.shape == a.shape
                    assert out.data.tobytes() == want.data.tobytes()
            adjoints = zip(tape.records[-1][2](g), want_tape.records[-1][2](g), strict=True)
            for got, expected in adjoints:
                assert got.tobytes() == expected.tobytes()

    def test_concat_and_take_column(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Tensor(np.array([[5.0], [6.0]]))
        cat = concat_cols(a, b)
        np.testing.assert_array_equal(cat.data, [[1, 2, 5], [3, 4, 6]])
        np.testing.assert_array_equal(take_column(cat, 2).data, [5.0, 6.0])

    def test_structural_grads_fd(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(2, 3)))
        r = rng.normal(size=(2, 6))

        def loss_value(_arr=None):
            cat = concat_cols(add(a, b), mul(a, b))
            return float(np.sum(cat.data * r))

        tape = GradTape()
        cat = concat_cols(add(a, b, tape), mul(a, b, tape), tape)
        loss = tsum(mul(cat, Tensor(r), tape), tape)
        tape.backward(loss)
        for t in (a, b):
            want = num_grad(loss_value, t.data, h=1e-6)
            np.testing.assert_allclose(t.grad, want, rtol=1e-5, atol=1e-9)

    def test_reshape_roundtrip_grad(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        tape = GradTape()
        flat = reshape(x, (12,), tape)
        loss = tsum(flat, tape)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_downsample_pad(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = downsample_pad(x, 3)
        assert out.data.shape == (1, 3, 2, 2)
        np.testing.assert_array_equal(out.data[0, 0], [[0.0, 2.0], [8.0, 10.0]])
        np.testing.assert_array_equal(out.data[0, 1], np.zeros((2, 2)))
        tape = GradTape()
        out = downsample_pad(x, 3, tape)
        tape.backward(tsum(out, tape))
        want = np.zeros((1, 1, 4, 4))
        want[0, 0, ::2, ::2] = 1.0
        np.testing.assert_array_equal(x.grad, want)


class TestTapeMechanics:
    def test_accumulation_across_branches(self):
        """x feeds two branches whose sum is x*x + 3x; the adjoint must be
        2x + 3, i.e. the two branch contributions added together."""
        x = Tensor(np.array([1.5, -2.0, 0.5]))
        three = Tensor(np.full(3, 3.0))
        tape = GradTape()
        sq = mul(x, x, tape)
        lin = mul(x, three, tape)
        loss = tsum(add(sq, lin, tape), tape)
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * x.data + 3.0, rtol=1e-15)

    def test_self_consumption_accumulates(self):
        # mul(x, x): both input slots are the same tensor
        x = Tensor(np.array([3.0]))
        tape = GradTape()
        tape.backward(mul(x, x, tape))
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_unreached_records_are_skipped(self):
        """Backward from one head leaves an unrelated branch untouched."""
        x = Tensor(np.array([1.0, 2.0]))
        y = Tensor(np.array([4.0, 5.0]))
        tape = GradTape()
        keep = tsum(mul(x, x, tape), tape)
        tsum(mul(y, y, tape), tape)  # recorded but not backward target
        tape.backward(keep)
        np.testing.assert_array_equal(x.grad, 2.0 * x.data)
        assert y.grad is None

    def test_backward_consumes_the_tape(self):
        """One backward empties the tape and frees every op output's
        adjoint; leaves keep theirs, and the tape cannot be replayed."""
        x = Tensor(np.array([2.0, -1.0]))
        tape = GradTape()
        sq = mul(x, x, tape)
        out = tsum(sq, tape)
        tape.backward(out)
        assert tape.records == []
        assert sq.grad is None and out.grad is None
        np.testing.assert_array_equal(x.grad, 2.0 * x.data)
        with pytest.raises(RuntimeError):
            tape.backward(out)

    def test_each_tape_starts_from_zero_adjoints(self):
        """A leaf shared by two tapes gets the second tape's adjoint alone,
        not the sum of both."""
        x = Tensor(np.array([2.0, -1.0]))
        grads = []
        for _ in range(2):
            tape = GradTape()
            tape.backward(tsum(mul(x, x, tape), tape))
            grads.append(x.grad)
        np.testing.assert_array_equal(grads[1], grads[0])

    def test_accumulation_into_a_shared_adjoint(self):
        """add hands one array to both inputs, so a's first adjoint is b's
        too; adding c into it in place would corrupt b's adjoint."""
        a = Tensor(np.array([1.0, 2.0]))
        b = Tensor(np.array([3.0, 4.0]))
        c = Tensor(np.array([5.0, -6.0]))
        tape = GradTape()
        z = mul(a, c, tape)
        y = add(a, b, tape)
        tape.backward(tsum(add(z, y, tape), tape))
        np.testing.assert_array_equal(b.grad, np.ones(2))
        np.testing.assert_array_equal(a.grad, 1.0 + c.data)

    def test_seed_shape_checked(self):
        x = Tensor(np.array([1.0, 2.0]))
        tape = GradTape()
        out = relu(x, tape)
        with pytest.raises(ValueError):
            tape.backward(out, seed=np.zeros(3))

    def test_forward_ops_preserve_finiteness(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)) * 100.0)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)) * 100.0)
        out = conv2d(x, w, Tensor(rng.normal(size=4)), padding=1)
        assert np.all(np.isfinite(out.data))
        assert np.all(np.isfinite(softplus(Tensor(np.array([1e6, -1e6]))).data))


class TestActivity:
    """GradTape(wrt=...) keeps only the ops that depend on wrt."""

    def test_needs_follows_kept_records(self):
        x, c = Tensor(np.array([1.0, 2.0])), Tensor(np.array([3.0, 4.0]))
        tape = GradTape(wrt=(x,))
        const = mul(c, c, tape)
        live = mul(x, const, tape)
        assert tape.needs(x) and tape.needs(live)
        assert not tape.needs(c) and not tape.needs(const) and not tape.needs(None)
        assert [rec[0] for rec in tape.records] == [live]
        assert GradTape().needs(c) and not GradTape().needs(None)

    def test_backward_leaves_unneeded_adjoints_alone(self):
        x, c = Tensor(np.array([1.0, 2.0])), Tensor(np.array([3.0, 4.0]))
        tape = GradTape(wrt=(x,))
        tape.backward(tsum(mul(x, c, tape), tape))
        np.testing.assert_array_equal(x.grad, c.data)
        assert c.grad is None

    @pytest.mark.parametrize("per_sample", [False, True])
    def test_conv_grads_skip_what_is_not_needed(self, per_sample):
        rng = np.random.default_rng(31)
        xd = rng.normal(size=(2, 3, 9, 9))
        wd = rng.normal(size=(4, 3, 3, 3))
        md = rng.uniform(size=(2, 3, 3)) if per_sample else None
        g = rng.normal(size=(2, 4, 5, 5))
        full = tensor._conv_grads(g, xd, wd, md, 2, 1, True, True, per_sample, True)
        no_w = tensor._conv_grads(g, xd, wd, md, 2, 1, True, False, False, False)
        no_x = tensor._conv_grads(g, xd, wd, md, 2, 1, False, True, per_sample, True)
        assert no_w[1:] == (None, None, None) and no_x[0] is None
        assert (full[2] is None) == (not per_sample)
        np.testing.assert_array_equal(no_w[0], full[0])
        for i in (1, 2, 3):
            np.testing.assert_array_equal(no_x[i], full[i])

    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    def test_train_step_grads_match_the_full_tape(self, mode):
        """One batch-8 step: every parameter adjoint is bit-identical with
        wrt=params, and the image gets none."""
        from gmconv.models import ConvPolicy, Model, apply_policy, build_model

        spec = apply_policy(build_model("resnet20-slim", 10, width=0.25), ConvPolicy(mode, mode))
        model = Model(spec, np.random.default_rng(32))
        params = [t for _, t in model.named_parameters()]
        rng = np.random.default_rng(33)
        images, labels = rng.normal(size=(8, 3, 32, 32)), rng.integers(0, 10, size=8)

        def step(tape):
            x = Tensor(images)
            tape.backward(softmax_cross_entropy(model.forward(x, tape), labels, tape))
            return x.grad, [t.grad for t in params]

        image_grad, want = step(GradTape())
        assert image_grad is not None
        image_grad, got = step(GradTape(wrt=params))
        assert image_grad is None
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


def taped_calls():
    """One taped call per (op name, mode) of the closure-naming test."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 3, 5, 5)))
    w = Tensor(rng.normal(size=(4, 3, 3, 3)))
    b = Tensor(rng.normal(size=4))
    z = Tensor(rng.normal(size=(2, 3)))
    s = Tensor(rng.uniform(0.5, 2.0, size=2))
    return {
        ("conv2d", None): lambda t: conv2d(x, w, b, 1, 1, t),
        ("conv2d", "relu"): lambda t: conv2d(x, w, b, 1, 1, t, relu=True),
        ("conv2d", "shared"): lambda t: conv2d(x, w, b, 1, 1, t, Tensor(rng.uniform(size=(3, 3)))),
        ("conv2d", "per_sample"): lambda t: conv2d(
            x, w, b, 1, 1, t, Tensor(rng.uniform(size=(2, 3, 3)))),
        ("global_pool", "max"): lambda t: global_pool(x, "max", t),
        ("global_pool", "avg"): lambda t: global_pool(x, "avg", t),
        ("dense", None): lambda t: dense(z, Tensor(rng.normal(size=(4, 3))), b, t),
        ("relu", None): lambda t: relu(z, t),
        ("softplus", None): lambda t: softplus(z, t),
        ("softmax_cross_entropy", None): lambda t: softmax_cross_entropy(z, np.array([0, 2]), t),
        ("add", None): lambda t: add(z, z, t),
        ("add", "relu"): lambda t: add(z, Tensor(rng.normal(size=(2, 3))), t, relu=True),
        ("mul", None): lambda t: mul(z, z, t),
        ("concat_cols", None): lambda t: concat_cols(z, z, t),
        ("take_column", None): lambda t: take_column(z, 1, t),
        ("reshape", None): lambda t: reshape(z, (3, 2), t),
        ("tsum", None): lambda t: tsum(z, t),
        ("downsample_pad", None): lambda t: downsample_pad(x, 4, t),
        ("_per_sample_masked_weights", None): lambda t: layers._per_sample_masked_weights(
            s, s, 3, t),
    }


OP_MODES = {
    "global_pool": ("max", "avg"),
    "conv2d": (None, "shared", "per_sample", "relu"),
    "add": (None, "relu"),
}
NAMED_OPS = [
    (tensor, name, mode)
    for name in tensor.__all__
    if "tape" in inspect.signature(getattr(tensor, name)).parameters
    for mode in OP_MODES.get(name, (None,))
] + [(layers, "_per_sample_masked_weights", None)]


each_named_op = pytest.mark.parametrize(
    "module,name,mode",
    NAMED_OPS,
    ids=[f"{m.__name__.rsplit('.', 1)[-1]}.{n}" + (f"-{mode}" if mode else "")
         for m, n, mode in NAMED_OPS],
)


@each_named_op
def test_backward_closures_are_named_after_their_op(module, name, mode):
    """Tracing tools name a backward `<module>.<op>` from its closure's
    __module__ and the __qualname__ before `.<locals>`; a closure built in
    a helper would be timed under the helper's name. A public op that takes
    a tape and has no case in `taped_calls` fails here with a KeyError."""
    op = getattr(module, name)
    tape = GradTape()
    taped_calls()[name, mode](tape)
    assert tape.records
    for _, _, backward in tape.records:
        assert backward.__module__ == op.__module__
        assert backward.__qualname__.split(".<locals>")[0] == op.__qualname__


@each_named_op
def test_tape_changes_no_output_and_records_only_needed_ops(module, name, mode):
    """Every op publishes through one helper: a tape-free call's output is
    the taped call's bit for bit, and a tape whose only `wrt` leaf feeds no
    input of the op records nothing. Each call draws its inputs afresh from
    the same seed."""
    free = taped_calls()[name, mode](None).data
    taped = taped_calls()[name, mode](GradTape()).data
    assert free.shape == taped.shape and free.tobytes() == taped.tobytes()
    tape = GradTape(wrt=(Tensor(np.zeros(1)),))
    taped_calls()[name, mode](tape)
    assert tape.records == []
