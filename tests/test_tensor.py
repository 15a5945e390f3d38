"""Forward values and reverse-mode gradients of the tensor engine."""

import math

import numpy as np
import pytest

from gmconv.tensor import (
    GradTape,
    Tensor,
    add,
    concat_cols,
    conv2d,
    conv2d_per_sample,
    conv2d_per_sample_reference,
    conv2d_reference,
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
from util import num_grad


# (N, C, H, W, O, K, stride, padding) of the im2col-vs-direct-loop oracle
CONV_GEOMETRIES = [
    (1, 1, 5, 5, 1, 3, 1, 0),
    (2, 3, 8, 8, 4, 3, 1, 1),
    (2, 3, 9, 9, 4, 3, 2, 1),
    (1, 2, 11, 11, 3, 5, 2, 2),
    (3, 1, 7, 12, 2, 3, 3, 0),
    (1, 3, 16, 16, 2, 11, 1, 5),
]


def conv_grads_match_fd(op, x, w, b, s, p, rng):
    """Tape adjoints of every input of `op` against central differences."""
    out_shape = op(x, w, b, stride=s, padding=p).data.shape
    r = rng.normal(size=out_shape)

    def loss_value(_arr=None):
        return float(np.sum(op(x, w, b, stride=s, padding=p).data * r))

    tape = GradTape()
    out = op(x, w, b, stride=s, padding=p, tape=tape)
    loss = tsum(mul(out, Tensor(r), tape), tape)
    tape.backward(loss)
    for t in (x, w) if b is None else (x, w, b):
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
        """im2col path vs. independent nested-loop path, near machine eps."""
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
                conv_grads_match_fd(conv2d, x, w, b, s, p, rng)

    def test_per_sample_grads(self):
        """The same check for per-sample kernels, over the oracle's geometries."""
        rng = np.random.default_rng(4)
        for n, c, h, wdt, o, k, s, p in CONV_GEOMETRIES:
            x = Tensor(rng.normal(size=(n, c, h, wdt)))
            wb = Tensor(rng.normal(size=(n, o, c, k, k)))
            for b in (Tensor(rng.normal(size=o)), None):
                conv_grads_match_fd(conv2d_per_sample, x, wb, b, s, p, rng)


class TestPerSampleConv:
    def test_batched_equals_per_sample_loop(self):
        """Internal oracle: grouped matmul path vs. the normative loop."""
        rng = np.random.default_rng(5)
        for n, c, h, wdt, o, k, s, p in CONV_GEOMETRIES:
            x = rng.normal(size=(n, c, h, wdt))
            wb = rng.normal(size=(n, o, c, k, k))
            for b in (rng.normal(size=o), None):
                bt = None if b is None else Tensor(b)
                fast = conv2d_per_sample(Tensor(x), Tensor(wb), bt, stride=s, padding=p).data
                slow = conv2d_per_sample_reference(x, wb, b, stride=s, padding=p)
                assert np.max(np.abs(fast - slow)) < 1e-12

    def test_identical_weights_match_plain_conv(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 2, 6, 6))
        w = rng.normal(size=(4, 2, 3, 3))
        wb = np.broadcast_to(w, (3, 4, 2, 3, 3)).copy()
        a = conv2d_per_sample(Tensor(x), Tensor(wb), stride=1, padding=1).data
        c = conv2d(Tensor(x), Tensor(w), stride=1, padding=1).data
        np.testing.assert_allclose(a, c, rtol=0, atol=1e-13)

    def test_batch_mismatch_rejected(self):
        with pytest.raises(ValueError):
            conv2d_per_sample(Tensor(np.zeros((2, 1, 4, 4))), Tensor(np.zeros((3, 1, 1, 3, 3))))


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

    def test_backward_resets_stale_grads(self):
        x = Tensor(np.array([2.0]))
        tape = GradTape()
        out = mul(x, x, tape)
        tape.backward(out)
        first = x.grad.copy()
        tape.backward(out)
        np.testing.assert_array_equal(x.grad, first)

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
