"""Static and dynamic masked convolution layers, and mask folding."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from gmconv import masks, tensor
from gmconv.layers import (
    G_FLOOR,
    Conv2dLayer,
    DynamicGMConvLayer,
    DynamicSigmaModule,
    StaticGMConvLayer,
    fold_mask,
    softplus_inverse,
)
from gmconv.models import ConvPolicy, LayerSpec, Model, apply_policy, build_model
from gmconv.tensor import (
    GradTape,
    Tensor,
    conv2d,
    conv2d_reference,
    mul,
    softmax_cross_entropy,
    tsum,
)
from util import num_grad


def make_static(rng, o=2, c=3, k=3, sigma=5.0, stride=1, padding=1):
    w = Tensor(rng.normal(size=(o, c, k, k)))
    b = Tensor(rng.normal(size=o))
    return StaticGMConvLayer(w, b, sigma=sigma, stride=stride, padding=padding)


def make_dynamic(rng, o=2, c=3, k=3, pattern="sigma_pair", stride=1, padding=1):
    w = Tensor(rng.normal(size=(o, c, k, k)))
    b = Tensor(rng.normal(size=o))
    mod = DynamicSigmaModule(c, pattern=pattern, rng=rng)
    return DynamicGMConvLayer(w, b, mod, stride=stride, padding=padding)


class TestMaskedKernelIdentity:
    def test_mask_commutes_between_kernel_and_patch(self):
        """Dotting a kernel with a masked patch equals dotting the masked
        kernel with the raw patch, for random vectors."""
        rng = np.random.default_rng(0)
        for _ in range(20):
            size = int(rng.integers(1, 60))
            w = rng.normal(size=size)
            m = rng.uniform(0.01, 1.0, size=size)
            i = rng.normal(size=size)
            lhs = np.dot(w, m * i)
            rhs = np.dot(w * m, i)
            assert abs(lhs - rhs) < 1e-12


class TestStaticForward:
    def test_all_ones_case_sums_the_mask(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        layer = StaticGMConvLayer(
            Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1)), sigma=1.0, padding=0
        )
        out = layer.forward(x)
        want = 1.0 + 4.0 * math.exp(-0.5) + 4.0 * math.exp(-1.0)
        np.testing.assert_allclose(out.data[0, 0, 0, 0], want, rtol=1e-12)
        np.testing.assert_allclose(out.data[0, 0, 0, 0], 4.8976404, rtol=1e-7)

    def test_flat_limit_equals_plain_conv(self):
        rng = np.random.default_rng(1)
        layer = make_static(rng, sigma=masks.SIGMA_MAX)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        got = layer.forward(x).data
        want = conv2d(x, layer.weight, layer.bias, 1, 1).data
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_delta_limit_equals_center_only_conv(self):
        """At the lower clamp with odd K only the center tap survives, so
        the layer behaves as a 1x1 convolution built from each kernel's
        center coefficient."""
        rng = np.random.default_rng(2)
        layer = make_static(rng, o=4, c=2, k=3, sigma=masks.SIGMA_MIN)
        x = Tensor(rng.normal(size=(2, 2, 6, 6)))
        got = layer.forward(x).data
        center = layer.weight.data[:, :, 1:2, 1:2]
        # the center tap never reads the padding ring, so the equality
        # holds at every output position, borders included
        want = conv2d(x, Tensor(center), layer.bias, 1, 0).data
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_sigma_stored_raw_evaluated_clamped_and_signless(self):
        rng = np.random.default_rng(3)
        layer = make_static(rng, sigma=-2.5)
        assert float(layer.sigma.data) == -2.5
        x = Tensor(rng.normal(size=(1, 3, 5, 5)))
        twin = StaticGMConvLayer(layer.weight, layer.bias, sigma=2.5, padding=1)
        np.testing.assert_array_equal(layer.forward(x).data, twin.forward(x).data)

    def test_matches_reference_conv_of_masked_weights(self):
        rng = np.random.default_rng(4)
        layer = make_static(rng, o=3, c=2, k=5, sigma=1.7, stride=2, padding=2)
        x = Tensor(rng.normal(size=(2, 2, 9, 9)))
        got = layer.forward(x).data
        wm = layer.weight.data * masks.circular_values(1.7, 5)
        want = conv2d_reference(x.data, wm, layer.bias.data, stride=2, padding=2)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_parameter_accounting_plus_one(self):
        rng = np.random.default_rng(5)
        layer = make_static(rng, o=4, c=3, k=3)
        plain = Conv2dLayer(layer.weight, layer.bias, 1, 1)
        n_static = sum(t.data.size for _, t in layer.param_items())
        n_plain = sum(t.data.size for _, t in plain.param_items())
        assert n_static == n_plain + 1


class TestStaticGradients:
    def test_all_params_match_finite_differences(self):
        rng = np.random.default_rng(6)
        layer = make_static(rng, o=2, c=2, k=3, sigma=1.3)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)))
        r = rng.normal(size=(2, 2, 5, 5))

        def loss_value(_arr=None):
            return float(np.sum(layer.forward(x).data * r))

        tape = GradTape()
        loss = tsum(mul(layer.forward(x, tape), Tensor(r), tape), tape)
        tape.backward(loss)
        for name, t in layer.param_items():
            want = num_grad(loss_value, t.data, h=1e-5)
            np.testing.assert_allclose(
                t.grad, want, rtol=1e-4, atol=1e-6, err_msg=f"param {name}"
            )

    def test_sigma_grad_zero_for_zero_weights(self):
        layer = StaticGMConvLayer(
            Tensor(np.zeros((2, 3, 3, 3))), Tensor(np.zeros(2)), sigma=1.0, padding=1
        )
        x = Tensor(np.random.default_rng(7).normal(size=(1, 3, 5, 5)))
        tape = GradTape()
        loss = tsum(layer.forward(x, tape), tape)
        tape.backward(loss)
        assert float(layer.sigma.grad) == 0.0

    def test_sigma_grad_zero_at_clamp_boundary(self):
        rng = np.random.default_rng(8)
        for sigma in (masks.SIGMA_MIN, masks.SIGMA_MAX, 1e9):
            layer = make_static(rng, sigma=sigma)
            x = Tensor(rng.normal(size=(1, 3, 5, 5)))
            tape = GradTape()
            loss = tsum(layer.forward(x, tape), tape)
            tape.backward(loss)
            assert float(layer.sigma.grad) == 0.0

    def test_sigma_grad_random_case_fd(self):
        rng = np.random.default_rng(9)
        layer = StaticGMConvLayer(
            Tensor(rng.normal(size=(1, 1, 3, 3))), Tensor(np.zeros(1)), sigma=0.9, padding=0
        )
        x = Tensor(rng.normal(size=(1, 1, 3, 3)))

        def loss_at(sig):
            twin = StaticGMConvLayer(layer.weight, layer.bias, sigma=float(sig), padding=0)
            return float(twin.forward(x).data.sum())

        tape = GradTape()
        tape.backward(tsum(layer.forward(x, tape), tape))
        h = 1e-5
        want = (loss_at(0.9 + h) - loss_at(0.9 - h)) / (2 * h)
        np.testing.assert_allclose(float(layer.sigma.grad), want, rtol=1e-4)


    @pytest.mark.parametrize("sigma", [0.7, 1.0, 2.5, 5.0])
    def test_matches_a_plain_conv_of_the_folded_weight(self, sigma):
        """The mask scales the kernel's taps, so the forward, dX and db are
        bit-identical to a plain conv of fold_mask's weight W * M, and dW
        to that conv's weight adjoint dW' times M. The sigma adjoint,
        <dM, dM/dsigma> with dM[t] = <dW'[t], W[t]> per tap, matches the
        full-array sum(dW' * W * dM/dsigma) to 1e-12 relative."""
        rng = np.random.default_rng(10)
        layer = make_static(rng, o=4, c=3, k=5, sigma=sigma, stride=2, padding=2)
        xd, g = rng.normal(size=(3, 3, 11, 11)), rng.normal(size=(3, 4, 6, 6))
        x, xf = Tensor(xd), Tensor(xd)
        tape = GradTape()
        out = layer.forward(x, tape)
        tape.backward(out, g)
        db = layer.bias.grad
        plain = fold_mask(StaticGMConvLayer(layer.weight, layer.bias, sigma, 2, 2))
        tape = GradTape()
        want = plain.forward(xf, tape)
        tape.backward(want, g)
        assert np.array_equal(out.data, want.data)
        assert np.array_equal(x.grad, xf.grad) and np.array_equal(db, layer.bias.grad)
        m, dm = masks.circular_grad_values(sigma, 5)
        assert np.array_equal(plain.weight.data, layer.weight.data * m)
        assert np.array_equal(layer.weight.grad, plain.weight.grad * m)
        full = float(np.sum(plain.weight.grad * layer.weight.data * dm))
        assert abs(float(layer.sigma.grad) - full) <= 1e-12 * abs(full)


class TestDynamicSigmaModule:
    def test_dimensions_for_c64(self):
        mod = DynamicSigmaModule(64, pattern="sigma_pair", rng=np.random.default_rng(0))
        assert mod.hidden == 96
        assert mod.w0.data.shape == (96, 128)
        assert mod.w1.data.shape == (2, 96)
        assert mod.b1.data.shape == (2,)

    def test_output_arity_per_pattern(self):
        rng = np.random.default_rng(1)
        for pattern, arity in (("sigma", 1), ("sigma_pair", 2), ("sigma_ratio", 2)):
            mod = DynamicSigmaModule(8, pattern=pattern, rng=rng)
            assert mod.arity == arity
            assert mod.w1.data.shape[0] == arity
            assert mod.b1.data.shape == (arity,)

    def test_bias_only_init_predicts_sigma_init(self):
        """Zeroed bottleneck weights leave only B1, which is initialized
        to hit (sigma_init, ratio 1) exactly; every input then maps to
        sigma1 = sigma2 = sigma_init."""
        rng = np.random.default_rng(2)
        for pattern in ("sigma", "sigma_pair", "sigma_ratio"):
            mod = DynamicSigmaModule(3, pattern=pattern, sigma_init=5.0, rng=rng)
            mod.w0.data[:] = 0.0
            mod.w1.data[:] = 0.0
            x = Tensor(rng.normal(size=(4, 3, 6, 6)))
            s1, s2 = mod.predict(x)
            np.testing.assert_allclose(s1.data, np.full(4, 5.0), rtol=1e-12)
            np.testing.assert_allclose(s2.data, np.full(4, 5.0), rtol=1e-12)

    def test_zero_descriptor_hits_init_without_zeroing(self):
        mod = DynamicSigmaModule(3, pattern="sigma_ratio", sigma_init=7.0,
                                 rng=np.random.default_rng(3))
        x = Tensor(np.zeros((2, 3, 4, 4)))
        s1, s2 = mod.predict(x)
        np.testing.assert_allclose(s1.data, np.full(2, 7.0), rtol=1e-12)
        np.testing.assert_allclose(s2.data, np.full(2, 7.0), rtol=1e-12)

    def test_distinct_samples_get_distinct_sigmas(self):
        rng = np.random.default_rng(4)
        mod = DynamicSigmaModule(3, pattern="sigma_pair", rng=rng)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)) * np.array([1.0, 10.0])[:, None, None, None])
        s1, _ = mod.predict(x)
        assert s1.data[0] != s1.data[1]

    def test_predictions_always_positive(self):
        rng = np.random.default_rng(5)
        mod = DynamicSigmaModule(2, pattern="sigma_pair", rng=rng)
        x = Tensor(rng.normal(size=(8, 2, 5, 5)) * 50.0)
        s1, s2 = mod.predict(x)
        assert np.all(s1.data > 0.0)
        assert np.all(s2.data > 0.0)

    def test_softplus_inverse_roundtrip(self):
        for y in (0.9, 1.0, 4.9, 9.9):
            np.testing.assert_allclose(
                np.logaddexp(0.0, softplus_inverse(y)), y, rtol=1e-12
            )
        with pytest.raises(ValueError):
            softplus_inverse(0.0)

    def test_validation(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            DynamicSigmaModule(3, pattern="sigmas", rng=rng)
        with pytest.raises(ValueError):
            DynamicSigmaModule(0, rng=rng)
        assert DynamicSigmaModule(1, rng=rng).hidden == 1  # the fixed ratio always leaves a unit
        mod = DynamicSigmaModule(3, rng=rng)
        with pytest.raises(ValueError):
            mod.predict(Tensor(np.zeros((1, 4, 5, 5))))


def refusal(make) -> str:
    with pytest.raises(ValueError) as err:
        make()
    return str(err.value)


@pytest.mark.parametrize(
    "sigma_init, pattern", [(G_FLOOR, "sigma_pair"), (5.0, "sigmas")], ids=["floor", "pattern"]
)
def test_every_boundary_refuses_a_mask_start_alike(sigma_init, pattern):
    """A dynamic layer's spec, a policy that makes one, and its sigma
    module share one rule on sigma_init and pattern, so they refuse a
    width at the floor or an unknown pattern with the same message."""
    rng = np.random.default_rng(0)
    messages = {
        refusal(lambda: LayerSpec("gmconv-dynamic", "body", 3, 4, 3, sigma_init=sigma_init,
                                  pattern=pattern)),
        refusal(lambda: ConvPolicy("dynamic", "static", sigma_init=sigma_init, pattern=pattern)),
        refusal(lambda: DynamicSigmaModule(3, rng, pattern=pattern, sigma_init=sigma_init)),
    }
    assert len(messages) == 1, messages


@pytest.mark.parametrize("shape, bias, stride, padding", [
    ((4, 3, 3, 5), 4, 1, 0),
    ((4, 3, 3), 4, 1, 0),
    ((0, 3, 3, 3), 0, 1, 0),
    ((4, 3, 3, 3), 5, 1, 0),
    ((4, 3, 3, 3), 4, 0, 0),
    ((4, 3, 3, 3), 4, 1, -1),
], ids=["not-square", "3d", "empty", "bias-width", "stride", "padding"])
def test_conv_layer_and_op_refuse_a_kernel_alike(shape, bias, stride, padding):
    """Conv2dLayer and conv2d share one rule on weight, bias, stride and
    padding, so they refuse each malformed one with the same message."""
    w, b = Tensor(np.zeros(shape)), Tensor(np.zeros(bias))
    x = Tensor(np.zeros((1, 3, 8, 8)))
    layer = refusal(lambda: Conv2dLayer(w, b, stride, padding))
    assert layer == refusal(lambda: conv2d(x, w, b, stride, padding))


class TestDynamicForward:
    def test_repeated_sample_gives_identical_slices(self):
        rng = np.random.default_rng(7)
        layer = make_dynamic(rng)
        one = rng.normal(size=(1, 3, 6, 6))
        x = Tensor(np.repeat(one, 5, axis=0))
        out = layer.forward(x).data
        for n in range(1, 5):
            np.testing.assert_array_equal(out[n], out[0])

    def test_forced_flat_limit_equals_plain_conv(self):
        """Zero the bottleneck and push B1 so softplus lands at the upper
        clamp: the elliptic mask flattens to ones and the layer matches
        an ordinary convolution."""
        rng = np.random.default_rng(8)
        layer = make_dynamic(rng, pattern="sigma_pair")
        layer.sigma_module.w0.data[:] = 0.0
        layer.sigma_module.w1.data[:] = 0.0
        layer.sigma_module.b1.data[:] = 2e6  # softplus(2e6) = 2e6 in f64
        x = Tensor(rng.normal(size=(3, 3, 7, 7)))
        got = layer.forward(x).data
        want = conv2d(x, layer.weight, layer.bias, 1, 1).data
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_batched_equals_per_sample_loop(self):
        """Normative semantics: loop over samples, mask each one's kernel,
        run the direct-loop convolution. The batched layer must agree to
        1e-12."""
        rng = np.random.default_rng(9)
        layer = make_dynamic(rng, o=5, c=3, k=3)
        x = Tensor(rng.normal(size=(4, 3, 8, 8)))
        got = layer.forward(x).data
        s1, s2 = layer.sigma_module.predict(x)
        for n in range(4):
            m = masks.elliptic_values(float(s1.data[n]), float(s2.data[n]), 3)
            want = conv2d_reference(
                x.data[n : n + 1], layer.weight.data * m, layer.bias.data, 1, 1
            )
            assert np.max(np.abs(got[n] - want[0])) < 1e-12

    def test_pattern_sigma_gives_circular_masks(self):
        rng = np.random.default_rng(10)
        layer = make_dynamic(rng, pattern="sigma")
        x = Tensor(rng.normal(size=(2, 3, 5, 5)))
        s1, s2 = layer.sigma_module.predict(x)
        np.testing.assert_array_equal(s1.data, s2.data)

    def test_sigma_ratio_composes(self):
        rng = np.random.default_rng(11)
        mod = DynamicSigmaModule(3, pattern="sigma_ratio", rng=rng)
        x = Tensor(rng.normal(size=(3, 3, 5, 5)))
        s1, s2 = mod.predict(x)
        # ratio path: sigma2 / sigma1 equals the positivity-mapped second head
        ratios = s2.data / s1.data
        assert np.all(ratios > 0.0)
        assert not np.allclose(ratios, 1.0)


class TestDynamicGradients:
    @pytest.mark.parametrize("pattern", ["sigma", "sigma_pair", "sigma_ratio"])
    def test_all_params_match_finite_differences(self, pattern):
        rng = np.random.default_rng(12)
        layer = make_dynamic(rng, o=2, c=2, k=3, pattern=pattern)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)))
        r = rng.normal(size=(2, 2, 5, 5))

        def loss_value(_arr=None):
            return float(np.sum(layer.forward(x).data * r))

        tape = GradTape()
        loss = tsum(mul(layer.forward(x, tape), Tensor(r), tape), tape)
        tape.backward(loss)
        for name, t in layer.param_items():
            want = num_grad(loss_value, t.data, h=1e-5)
            np.testing.assert_allclose(
                t.grad, want, rtol=1e-4, atol=1e-6, err_msg=f"param {name} ({pattern})"
            )

    def test_input_grad_matches_fd(self):
        """The input feeds both the descriptor branch and the convolution;
        its adjoint must be the sum of the two paths."""
        rng = np.random.default_rng(13)
        layer = make_dynamic(rng, o=2, c=2, k=3, pattern="sigma_pair")
        x = Tensor(rng.normal(size=(1, 2, 4, 4)))
        r = rng.normal(size=(1, 2, 4, 4))

        def loss_value(_arr=None):
            return float(np.sum(layer.forward(x).data * r))

        tape = GradTape()
        loss = tsum(mul(layer.forward(x, tape), Tensor(r), tape), tape)
        tape.backward(loss)
        want = num_grad(loss_value, x.data, h=1e-5)
        np.testing.assert_allclose(x.grad, want, rtol=1e-3, atol=1e-6)

    def test_trains_against_loss(self):
        rng = np.random.default_rng(14)
        layer = make_dynamic(rng, o=3, c=2, k=3)
        x = Tensor(rng.normal(size=(4, 2, 6, 6)))
        labels = np.array([0, 1, 2, 0])
        tape = GradTape()
        out = layer.forward(x, tape)
        pooled_data = out.data.mean(axis=(2, 3))
        # direct head: ensure gradients reach every parameter
        from gmconv.tensor import global_pool

        logits = global_pool(out, "avg", tape)
        loss = softmax_cross_entropy(logits, labels, tape)
        tape.backward(loss)
        assert logits.data.shape == pooled_data.shape
        for name, t in layer.param_items():
            assert t.grad is not None, name
            assert np.all(np.isfinite(t.grad)), name

    def test_builds_no_per_sample_weights(self):
        """A taped forward and backward at N=64, C=O=16, 16x16, K=3 build
        no N x O x C x K x K weight or weight adjoint: the forward peak net
        of the output, and the backward peak net of the output adjoint,
        stay below that tensor's bytes. The conv runs one sample per chunk,
        so its own working set is a sample's worth, and the image needs no
        adjoint, as in a training step."""
        n, c, o, hw, k = 64, 16, 16, 16, 3
        rng = np.random.default_rng(15)
        layer = make_dynamic(rng, o=o, c=c, k=k)
        x = Tensor(rng.normal(size=(n, c, hw, hw)))
        seed = rng.normal(size=(n, o, hw, hw))
        tape = GradTape(wrt=[t for _, t in layer.param_items()])
        with mock.patch.object(tensor, "_BLOCK_BYTES", 1):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                y = layer.forward(x, tape)
                forward_peak = tracemalloc.get_traced_memory()[1] - before - y.data.nbytes
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                tape.backward(y, seed)
                backward_peak = tracemalloc.get_traced_memory()[1] - before - seed.nbytes
            finally:
                tracemalloc.stop()
        weight_bytes = n * o * c * k * k * 8
        assert forward_peak < weight_bytes
        assert backward_peak < weight_bytes


class TestFolding:
    def test_fold_reproduces_outputs_exactly(self):
        rng = np.random.default_rng(15)
        for k in (3, 5, 11):
            layer = make_static(rng, o=2, c=2, k=k, sigma=float(rng.uniform(0.5, 8.0)),
                                padding=k // 2)
            x = Tensor(rng.normal(size=(2, 2, 12, 12)))
            live = layer.forward(x).data
            layer.folded = False  # reuse the same layer for the fold
            plain = fold_mask(layer)
            np.testing.assert_array_equal(plain.forward(x).data, live)

    def test_fold_at_flat_limit_keeps_weights(self):
        rng = np.random.default_rng(16)
        layer = make_static(rng, sigma=masks.SIGMA_MAX)
        plain = fold_mask(layer)
        np.testing.assert_allclose(plain.weight.data, layer.weight.data, rtol=1e-9)

    def test_fold_consumes_sigma(self):
        rng = np.random.default_rng(17)
        layer = make_static(rng)
        fold_mask(layer)
        with pytest.raises(RuntimeError):
            fold_mask(layer)
        with pytest.raises(RuntimeError):
            layer.forward(Tensor(np.zeros((1, 3, 5, 5))))

    def test_fold_rejects_dynamic(self):
        rng = np.random.default_rng(18)
        layer = make_dynamic(rng)
        with pytest.raises(TypeError):
            fold_mask(layer)

    def test_fold_rejects_plain(self):
        rng = np.random.default_rng(19)
        plain = Conv2dLayer(Tensor(rng.normal(size=(2, 3, 3, 3))), Tensor(np.zeros(2)))
        with pytest.raises(TypeError):
            fold_mask(plain)


class TestParameterAccounting:
    def test_dynamic_adds_module_params(self):
        rng = np.random.default_rng(20)
        layer = make_dynamic(rng, o=4, c=8, k=3)
        plain_count = layer.weight.data.size + layer.bias.data.size
        mod = layer.sigma_module
        extra = mod.w0.data.size + mod.w1.data.size + mod.b1.data.size
        total = sum(t.data.size for _, t in layer.param_items())
        assert total == plain_count + extra

    def test_decay_sets_exclude_geometry(self):
        """Only conv and dense weights decay; sigma, the sigma predictor
        and biases are left to the loss, blocks included."""
        spec = apply_policy(
            build_model("resnet20-slim", 10, width=0.25), ConvPolicy("dynamic", "static")
        )
        model = Model(spec, np.random.default_rng(21))
        params = dict(model.named_parameters())
        geometry = {"layer0.sigma_module.w0", "layer2.conv1.sigma", "layer10.conv2.sigma"}
        assert geometry <= set(params)
        blocks = {f"layer{i}.conv{j}.weight" for i in range(2, 11) for j in (1, 2)}
        assert model.decay_parameter_names() == {"layer0.weight", "layer12.weight"} | blocks
