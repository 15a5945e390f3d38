"""Model specs, policy rewriting, accounting, and the runtime network."""

import hashlib

import numpy as np
import pytest

from gmconv.layers import DynamicGMConvLayer, StaticGMConvLayer
from gmconv.models import (
    CONV_OPS,
    ConvPolicy,
    LayerSpec,
    Model,
    ModelSpec,
    apply_policy,
    build_model,
    count_flops,
    count_params,
    spec_from_json,
    spec_to_json,
)
from gmconv.tensor import GradTape, Tensor, softmax_cross_entropy
from util import copy_shared_params, force_flat_masks


def conv_kinds(spec):
    """Flat list of conv ops in network order, blocks expanded."""
    kinds = []
    for layer in spec.layers:
        if layer.op in CONV_OPS:
            kinds.append(layer.op)
        elif layer.op == "block":
            kinds.extend(c.op for c in layer.inner)
    return kinds


class TestBuilders:
    def test_resnet20_parameter_count(self):
        """Hand count at full width: conv weights 432 + 13824 + 50688 +
        202752 = 267696, conv biases 688, head 650; total 269034, which
        is 0.36% away from the 0.27M reference."""
        spec = build_model("resnet20-slim", 10)
        p = count_params(spec)
        assert p == 269_034
        assert abs(p - 270_000) / 270_000 < 0.02

    def test_resnet20_flop_count(self):
        """One multiply-accumulate per weight use: 442368 (stem) +
        14155776 + 12976128 + 12976128 (stages) + 640 (head) =
        40551040, within 5% of the 42M reference."""
        spec = build_model("resnet20-slim", 10)
        f = count_flops(spec)
        assert f == 40_551_040
        assert abs(f - 42_000_000) / 42_000_000 < 0.05

    def test_resnet20_topology(self):
        spec = build_model("resnet20-slim", 10)
        assert len(conv_kinds(spec)) == 19
        blocks = [l for l in spec.layers if l.op == "block"]
        assert len(blocks) == 9
        assert [b.stride for b in blocks] == [1, 1, 1, 2, 1, 1, 2, 1, 1]

    def test_resnet20_width_multiplier(self):
        spec = build_model("resnet20-slim", 10, width=0.5)
        dense_layers = [l for l in spec.layers if l.op == "dense"]
        assert dense_layers[0].in_features == 32
        assert count_params(spec) < count_params(build_model("resnet20-slim", 10))

    @pytest.mark.parametrize("name, features", [("cnn-small", 32), ("alexnet-lite", 16)])
    def test_width_scales_the_fixed_nets(self, name, features):
        """`width` scales every net, not only resnet20-slim: at 0.5 the
        last conv, and so the dense head, has half its width-1.0 channels."""
        spec = build_model(name, 10, width=0.5)
        assert spec.layers[-1].in_features == features
        assert count_params(spec) < count_params(build_model(name, 10, width=1.0))

    @pytest.mark.parametrize("width", [0.0, -3.0, float("nan"), float("inf"), True, "0.5", None])
    @pytest.mark.parametrize("name", ["resnet20-slim", "cnn-small"])
    def test_bad_width_rejected(self, name, width):
        """A width that is not a finite number > 0 is an error, not a net
        of 1-channel layers."""
        with pytest.raises(ValueError, match="width"):
            build_model(name, 10, width)

    def test_cnn_small_output_shape(self):
        model = Model(build_model("cnn-small", 10), np.random.default_rng(0))
        out = model.forward(Tensor(np.random.default_rng(1).normal(size=(1, 3, 32, 32))))
        assert out.data.shape == (1, 10)

    def test_alexnet_lite_stem_kernel(self):
        spec = build_model("alexnet-lite", 10)
        stem = [l for l in spec.layers if l.op in CONV_OPS and l.role == "stem"]
        assert stem[0].kernel_size == 11

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_model("resnet50", 10)

    @pytest.mark.parametrize(
        "name, width, digest",
        [
            ("resnet20-slim", 0.25, "c91e8959c1bc6b13f4412d8bc47a376fe21e3b499a31ab648ed710d2a403f83b"),
            ("resnet20-slim", 0.5, "3da23a29059644de6cb14b2c15eb9887e09f709ad87a80a22e7da3684ceede2c"),
            ("resnet20-slim", 1.0, "1c52992f695e69de7e8b0fceff0fcf2ae9b58a28edc01b354b6060f3e1f317aa"),
            ("resnet20-slim", 2.0, "236ce7bd2358c289403aa672b5114e439ef0471896777e7dca6c5081db0b7ac6"),
            ("cnn-small", 1.0, "2f3b85c3a4d5bcaf10b5415f80d3d7bd202c8e4d43c5b97516ab73640f5b58e0"),
            ("alexnet-lite", 1.0, "6ce63859f3a9231a9b69c71f1051291e4ac6c27a98d97e8eba08dca11fd86917"),
        ],
    )
    def test_spec_is_pinned(self, name, width, digest):
        """The shipped nets' JSON specs, sha256-pinned: a change to how the
        zoo is written down must build the same nets."""
        text = spec_to_json(build_model(name, 10, width))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_single_conv_param_arithmetic(self):
        layers = (
            LayerSpec(op="conv", role="body", in_channels=16, out_channels=16,
                      kernel_size=3, stride=1, padding=1),
            LayerSpec(op="pool", role="head", pool_mode="avg"),
            LayerSpec(op="dense", role="head", in_features=16, out_features=10),
        )
        spec = ModelSpec("one-conv", 10, (16, 8, 8), layers)
        assert count_params(spec) == 16 * 16 * 9 + 16 + (16 * 10 + 10)
        twin = apply_policy(spec, ConvPolicy("static", "static"))
        assert count_params(twin) == count_params(spec) + 1


class TestSpecValidation:
    def test_channel_mismatch_rejected(self):
        layers = (
            LayerSpec(op="conv", role="stem", in_channels=4, out_channels=8,
                      kernel_size=3, padding=1),
            LayerSpec(op="pool", role="head"),
            LayerSpec(op="dense", role="head", in_features=8, out_features=2),
        )
        with pytest.raises(ValueError):
            ModelSpec("bad", 2, (3, 8, 8), layers)

    def test_dense_feature_mismatch_rejected(self):
        layers = (
            LayerSpec(op="pool", role="head"),
            LayerSpec(op="dense", role="head", in_features=5, out_features=2),
        )
        with pytest.raises(ValueError):
            ModelSpec("bad", 2, (3, 8, 8), layers)

    def test_exactly_one_head_required(self):
        layers = (
            LayerSpec(op="pool", role="head"),
            LayerSpec(op="dense", role="head", in_features=3, out_features=3),
            LayerSpec(op="dense", role="head", in_features=3, out_features=2),
        )
        with pytest.raises(ValueError):
            ModelSpec("bad", 2, (3, 8, 8), layers)

    def test_head_count_matches_classes(self):
        layers = (
            LayerSpec(op="pool", role="head"),
            LayerSpec(op="dense", role="head", in_features=3, out_features=7),
        )
        with pytest.raises(ValueError):
            ModelSpec("bad", 10, (3, 8, 8), layers)

    def test_block_composition_checked(self):
        inner = (
            LayerSpec(op="conv", role="body", in_channels=8, out_channels=16,
                      kernel_size=3, stride=2, padding=1),
            LayerSpec(op="conv", role="body", in_channels=16, out_channels=8,
                      kernel_size=3, stride=1, padding=1),
        )
        layers = (
            LayerSpec(op="block", role="body", stride=2, inner=inner),
            LayerSpec(op="pool", role="head"),
            LayerSpec(op="dense", role="head", in_features=16, out_features=2),
        )
        with pytest.raises(ValueError):
            ModelSpec("bad", 2, (8, 8, 8), layers)

    @staticmethod
    def _one_block(c, hw, width, stride, k, padding):
        inner = (
            LayerSpec(op="conv", role="body", in_channels=c, out_channels=width,
                      kernel_size=k, stride=stride, padding=padding),
            LayerSpec(op="conv", role="body", in_channels=width, out_channels=width,
                      kernel_size=3, stride=1, padding=1),
        )
        layers = (
            LayerSpec(op="block", role="body", stride=stride, inner=inner),
            LayerSpec(op="pool", role="head"),
            LayerSpec(op="dense", role="head", in_features=width, out_features=2),
        )
        return ModelSpec("block", 2, (c, *hw), layers)

    @pytest.mark.parametrize(
        "width,stride,k,padding",
        [(8, 1, 3, 1), (4, 1, 3, 2), (4, 1, 2, 0), (8, 2, 3, 0)],
        ids=["stride1-widens", "padding-grows", "even-kernel-shrinks", "stride2-unpadded"],
    )
    def test_block_branch_must_match_its_shortcut(self, width, stride, k, padding):
        with pytest.raises(ValueError, match="shortcut"):
            self._one_block(4, (8, 8), width, stride, k, padding)

    @pytest.mark.parametrize("hw", [(7, 9), (8, 5)])
    def test_stride2_block_on_odd_sizes_runs(self, hw):
        """downsample_pad keeps ceil(H/2) x ceil(W/2), as a padded stride-2 conv does."""
        model = Model(self._one_block(4, hw, 8, 2, 3, 1), np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).standard_normal((2, 4, *hw)))
        assert model.forward(x).data.shape == (2, 2)


class TestPolicy:
    def test_identity_policy_keeps_spec(self):
        spec = build_model("resnet20-slim", 10)
        assert apply_policy(spec, ConvPolicy("std", "std")) == spec

    def test_default_policy_counts(self):
        """Dynamic stem plus static body: 1 dynamic conv, 18 static convs,
        untouched head."""
        spec = apply_policy(build_model("resnet20-slim", 10), ConvPolicy())
        kinds = conv_kinds(spec)
        assert kinds.count("gmconv-dynamic") == 1
        assert kinds.count("gmconv-static") == 18
        assert kinds[0] == "gmconv-dynamic"
        dense_layers = [l for l in spec.layers if l.op == "dense"]
        assert dense_layers[0].role == "head"

    def test_sigma_init_propagates(self):
        spec = apply_policy(
            build_model("cnn-small", 10), ConvPolicy("static", "static", sigma_init=10.0)
        )
        for layer in spec.layers:
            if layer.op == "gmconv-static":
                assert layer.sigma_init == 10.0

    def test_idempotent(self):
        spec = build_model("resnet20-slim", 10)
        pol = ConvPolicy("dynamic", "static", sigma_init=5.0)
        once = apply_policy(spec, pol)
        twice = apply_policy(once, pol)
        assert once == twice

    def test_all_static_adds_19_params(self):
        std = build_model("resnet20-slim", 10)
        gm = apply_policy(std, ConvPolicy("static", "static"))
        assert count_params(gm) == count_params(std) + 19

    def test_dynamic_param_delta(self):
        """The dynamic stem (C=3, pattern sigma_pair) adds a bottleneck of
        floor(6/(4/3)) = 4 hidden units: |W0| = 4*6 = 24, |W1| = 2*4 = 8,
        |B1| = 2, so 34 extra parameters."""
        std = build_model("resnet20-slim", 10)
        gm = apply_policy(std, ConvPolicy("dynamic", "std"))
        assert count_params(gm) == count_params(std) + 34

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvPolicy("weird", "static")
        with pytest.raises(ValueError):
            ConvPolicy(sigma_init=0.0)


class TestJsonRoundTrip:
    @pytest.mark.parametrize("name", ["resnet20-slim", "cnn-small", "alexnet-lite"])
    def test_roundtrip_identity(self, name):
        spec = apply_policy(build_model(name, 10), ConvPolicy())
        back = spec_from_json(spec_to_json(spec))
        assert back == spec

    def test_json_is_stable(self):
        spec = build_model("cnn-small", 10)
        assert spec_to_json(spec) == spec_to_json(spec_from_json(spec_to_json(spec)))

    def test_bad_document_rejected(self):
        with pytest.raises(ValueError):
            spec_from_json("{\"name\": \"x\"}")


class TestRuntimeModel:
    def test_param_count_matches_spec_accounting(self):
        """The runtime tensor sizes must add up to the spec-level count,
        for every architecture and policy combination."""
        rng = np.random.default_rng(0)
        for name in ("resnet20-slim", "cnn-small", "alexnet-lite"):
            for pol in (
                ConvPolicy("std", "std"),
                ConvPolicy("static", "static"),
                ConvPolicy("dynamic", "static"),
                ConvPolicy("dynamic", "dynamic", pattern="sigma"),
            ):
                spec = apply_policy(build_model(name, 10, width=0.5), pol)
                model = Model(spec, rng)
                runtime = sum(t.data.size for _, t in model.named_parameters())
                assert runtime == count_params(spec), (name, pol)

    def test_seeded_init_is_deterministic(self):
        spec = apply_policy(build_model("cnn-small", 10), ConvPolicy())
        a = Model(spec, np.random.default_rng(7))
        b = Model(spec, np.random.default_rng(7))
        for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_resnet_forward_shape_and_finite(self):
        spec = apply_policy(build_model("resnet20-slim", 10, width=0.25), ConvPolicy())
        model = Model(spec, np.random.default_rng(1))
        x = Tensor(np.random.default_rng(2).normal(size=(2, 3, 32, 32)))
        out = model.forward(x)
        assert out.data.shape == (2, 10)
        assert np.all(np.isfinite(out.data))

    def test_full_backward_reaches_all_params(self):
        spec = apply_policy(build_model("resnet20-slim", 10, width=0.25), ConvPolicy())
        model = Model(spec, np.random.default_rng(3))
        x = Tensor(np.random.default_rng(4).normal(size=(2, 3, 32, 32)))
        tape = GradTape()
        loss = softmax_cross_entropy(model.forward(x, tape), np.array([3, 7]), tape)
        tape.backward(loss)
        for name, t in model.named_parameters():
            assert t.grad is not None, name
            assert np.all(np.isfinite(t.grad)), name

    @pytest.mark.parametrize("policy", [
        ConvPolicy("static", "static"),
        ConvPolicy("dynamic", "static"),
        ConvPolicy("dynamic", "dynamic"),
    ], ids=["static", "dynamic-stem", "all-dynamic"])
    def test_every_grad_is_an_array_of_its_shape(self, policy):
        """A 0-d parameter, such as a static layer's sigma, gets a 0-d
        array adjoint, not a numpy scalar."""
        model = Model(apply_policy(build_model("cnn-small", 10), policy), np.random.default_rng(5))
        x = Tensor(np.random.default_rng(6).normal(size=(2, 3, 32, 32)))
        tape = GradTape()
        tape.backward(softmax_cross_entropy(model.forward(x, tape), np.array([3, 7]), tape))
        for name, t in model.named_parameters():
            assert type(t.grad) is np.ndarray and t.grad.shape == t.data.shape, name

    def test_flat_limit_matches_std_twin(self):
        """Masked model with shared weights and every sigma at the upper
        clamp: logits match the plain twin closely and argmax exactly."""
        rng = np.random.default_rng(5)
        std_spec = build_model("cnn-small", 10)
        std = Model(std_spec, np.random.default_rng(6))
        for pol in (ConvPolicy("static", "static"), ConvPolicy("dynamic", "static")):
            gm = Model(apply_policy(std_spec, pol), np.random.default_rng(6))
            copy_shared_params(std, gm)
            force_flat_masks(gm)
            x = Tensor(rng.normal(size=(8, 3, 32, 32)))
            a = std.forward(x).data
            b = gm.forward(x).data
            np.testing.assert_allclose(b, a, rtol=1e-6, atol=1e-6)
            np.testing.assert_array_equal(np.argmax(a, axis=1), np.argmax(b, axis=1))

    def test_sigma_items_enumerated_in_order(self):
        spec = apply_policy(build_model("resnet20-slim", 10, width=0.25),
                            ConvPolicy("dynamic", "static"))
        model = Model(spec, np.random.default_rng(8))
        sigmas = model.static_sigma_items()
        assert len(sigmas) == 18
        assert all(float(t.data) == 5.0 for _, t in sigmas)
        assert len(model.masked_layer_items()) == 19

    def test_fold_whole_model(self):
        spec = apply_policy(build_model("cnn-small", 10), ConvPolicy("static", "static"))
        model = Model(spec, np.random.default_rng(9))
        for _, t in model.static_sigma_items():
            t.data[...] = 1.4  # make the masks non-trivial
        x = Tensor(np.random.default_rng(10).normal(size=(4, 3, 32, 32)))
        before = model.forward(x).data
        folded = model.fold()
        assert folded == 4
        np.testing.assert_array_equal(model.forward(x).data, before)
        assert all(l.op != "gmconv-static" for l in model.spec.layers)
        assert model.fold() == 0  # nothing left to fold

    def test_fold_leaves_dynamic_layers(self):
        spec = apply_policy(build_model("cnn-small", 10), ConvPolicy("dynamic", "static"))
        model = Model(spec, np.random.default_rng(11))
        x = Tensor(np.random.default_rng(12).normal(size=(2, 3, 32, 32)))
        before = model.forward(x).data
        assert model.fold() == 3
        np.testing.assert_array_equal(model.forward(x).data, before)
        assert isinstance(model.modules[0], DynamicGMConvLayer)
        assert not any(isinstance(m, StaticGMConvLayer) for m in model.modules)
