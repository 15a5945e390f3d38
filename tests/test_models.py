"""Model specs, policy rewriting, accounting, and the runtime network."""

import hashlib
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmconv import tensor
from gmconv.checkpoint import checkpoint_from_model, load_checkpoint, restore_model, save_checkpoint
from gmconv.layers import PATTERNS, DynamicGMConvLayer, StaticGMConvLayer
from gmconv.models import (
    CONV_OPS,
    MODES,
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
from gmconv.tensor import GradTape, Tensor, downsample_pad, softmax_cross_entropy
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

    @pytest.mark.parametrize("net", ["resnet20-slim", "cnn-small", "alexnet-lite"])
    def test_policy_twins_draw_the_same_weights(self, net):
        """Std and static twins built from one seed hold bit-identical
        weights and biases, name by name, so parameter streams stay aligned
        across conv policies; the static twin adds exactly one sigma per
        conv."""
        spec = build_model(net, 10, width=0.25)
        std, static = (
            dict(Model(apply_policy(spec, ConvPolicy(m, m)), np.random.default_rng(3)).named_parameters())
            for m in ("std", "static")
        )
        sigmas = [n.removesuffix(".sigma") for n in static if n.endswith(".sigma")]
        convs = [n.removesuffix(".weight") for n, t in std.items() if t.data.ndim == 4]
        assert sigmas == convs and len(convs) == len(conv_kinds(spec))
        assert list(std) == [n for n in static if not n.endswith(".sigma")]
        for name, t in std.items():
            assert t.data.tobytes() == static[name].data.tobytes(), name

    @pytest.mark.parametrize("mode", MODES)
    def test_fresh_blocks_start_as_the_identity(self, mode):
        """Every fresh residual block maps x >= 0 to x bit for bit at
        stride 1 and to downsample_pad(x) at stride 2: its conv2 weight is
        all zero."""
        spec = apply_policy(build_model("resnet20-slim", 10, width=0.25), ConvPolicy(mode, mode))
        model = Model(spec, np.random.default_rng(4))
        blocks = [m for m, layer in zip(model.modules, spec.layers) if layer.op == "block"]
        rng = np.random.default_rng(5)
        assert len(blocks) == 9
        for block in blocks:
            assert not block.conv2.weight.data.any()
            out_c, in_c = block.conv1.weight.data.shape[:2]
            x = Tensor(np.abs(rng.normal(size=(2, in_c, 7, 7))))
            want = x if block.conv1.stride == 1 else downsample_pad(x, out_c)
            assert block.forward(x).data.tobytes() == want.data.tobytes()

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

    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    def test_block_tape_holds_no_pre_activation(self, mode):
        """A taped forward of a residual block keeps no raw conv1 output,
        raw conv2 output or raw residual sum alive: at the block's
        activation shape its records hold three arrays (the input, conv1's
        output after its ReLU, and the block's output, which the shortcut
        add wrote over conv2's output), none of them a pre-activation, and
        the output is relu of the residual sum bit for bit. The
        pre-activations are recomputed tape-free, conv1's with its ReLU
        epilogue switched off."""
        inner = tuple(LayerSpec(op="conv", role="body", in_channels=4, out_channels=4,
                                kernel_size=3, padding=1) for _ in range(2))
        spec = ModelSpec("block", 3, (4, 6, 6), (
            LayerSpec(op="block", role="body", inner=inner),
            LayerSpec(op="pool", role="head"),
            LayerSpec(op="dense", role="head", in_features=4, out_features=3),
        ))
        model = Model(apply_policy(spec, ConvPolicy(mode, mode)), np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for name, t in model.named_parameters():
            if name.endswith(".weight"):  # conv2 starts at zero
                t.data[...] = rng.normal(size=t.data.shape)
        block, x = model.modules[0], Tensor(rng.normal(size=(2, 4, 6, 6)))
        tape = GradTape()
        out = block.forward(x, tape).data
        conv2_out = next(rec_out for rec_out, inputs, _ in tape.records
                         if len(inputs) > 1 and inputs[1] is block.conv2.weight)
        assert conv2_out.data is out

        block.conv1.relu = False
        pre_conv1 = block.conv1.forward(x).data
        block.conv1.relu = True
        pre_sum = block.conv2.forward(Tensor(np.maximum(pre_conv1, 0.0))).data + x.data
        assert (pre_conv1 < 0).any() and (pre_sum < 0).any()
        assert out.tobytes() == np.maximum(pre_sum, 0.0).tobytes()
        held = {id(t.data): t.data for rec_out, inputs, _ in tape.records
                for t in (rec_out, *inputs) if t is not None and t.data.shape == x.data.shape}
        assert len(held) == 3
        for a in held.values():
            assert not np.array_equal(a, pre_conv1) and not np.array_equal(a, pre_sum)

    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    def test_taped_forward_live_bytes_stay_bounded(self, mode):
        """After a taped resnet20-slim forward (width 0.25, batch 32), the
        bytes left live are at most 14.5 stage-1 activations (32 x 4 x 32 x
        32 floats, 1 MiB each). By shape the tape holds 13.25 of them: the
        stem conv's output and its ReLU, each block's clamped conv1 output
        and its output (conv2's, overwritten by the shortcut sum), and the
        two shortcut pads; parameters, masks and the sigma heads take the
        rest. Keeping each block's raw conv2 output as well adds 5.25."""
        spec = apply_policy(build_model("resnet20-slim", 10, width=0.25), ConvPolicy(mode, mode))
        model = Model(spec, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(32, 3, 32, 32)))
        tracemalloc.start()
        try:
            tape = GradTape(wrt=[t for _, t in model.named_parameters()])
            model.forward(x, tape)
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        activation = 32 * 4 * 32 * 32 * 8
        assert model.modules[0].weight.data.shape[0] == 4
        assert live <= 14.5 * activation

    def test_sigma_items_enumerated_in_order(self):
        spec = apply_policy(build_model("resnet20-slim", 10, width=0.25),
                            ConvPolicy("dynamic", "static"))
        model = Model(spec, np.random.default_rng(8))
        sigmas = model.static_sigma_items()
        assert len(sigmas) == 18
        assert all(float(t.data) == 5.0 for _, t in sigmas)
        assert len(model.masked_layer_items()) == 19

    def test_fold_whole_model(self):
        """Folding keeps the logits bit for bit, in cnn-small and in a
        resnet20-slim whose block convs end in the ReLU epilogue; there the
        weights are redrawn, as each block's second conv starts at zero."""
        for net, width, count in (("cnn-small", 1.0, 4), ("resnet20-slim", 0.25, 19)):
            spec = apply_policy(build_model(net, 10, width), ConvPolicy("static", "static"))
            model = Model(spec, np.random.default_rng(9))
            for _, t in model.static_sigma_items():
                t.data[...] = 1.4  # make the masks non-trivial
            rng = np.random.default_rng(10)
            if net == "resnet20-slim":
                for name, t in model.named_parameters():
                    if name.endswith(".weight"):
                        scale = np.sqrt(1.0 / t.data[0].size)
                        t.data[...] = rng.normal(0.0, scale, size=t.data.shape)
            x = Tensor(rng.normal(size=(4, 3, 32, 32)))
            before = model.forward(x).data
            folded = model.fold()
            assert folded == count
            np.testing.assert_array_equal(model.forward(x).data, before)
            convs = [c for l in model.spec.layers for c in (l, *l.inner)]
            assert all(c.op != "gmconv-static" for c in convs)
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


@st.composite
def model_specs(draw):
    """A valid ModelSpec under any ConvPolicy: a stem conv (K 1-5, stride
    1-2, padding 0-2) and its relu on a C 1-3, H and W 4-12 input, then
    0-3 residual blocks of stride 1 or 2, each optionally followed by a
    body conv and relu, then an avg or max pool and a dense head."""
    k, stride, pad = draw(st.integers(1, 5)), draw(st.integers(1, 2)), draw(st.integers(0, 2))
    side = st.integers(max(4, k - 2 * pad), 12)
    c_in, c = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    layers = [LayerSpec("conv", "stem", c_in, c, k, stride, pad), LayerSpec("relu", "stem")]
    for _ in range(draw(st.integers(0, 3))):
        stride = draw(st.integers(1, 2))
        out = c if stride == 1 else c + draw(st.integers(0, 2))
        inner = (LayerSpec("conv", "body", c, out, 3, stride, 1), LayerSpec("conv", "body", out, out, 3, 1, 1))
        layers.append(LayerSpec("block", "body", stride=stride, inner=inner))
        c = out
        if draw(st.booleans()):
            k, out = draw(st.integers(1, 3)), draw(st.integers(1, 4))
            layers += [LayerSpec("conv", "body", c, out, k, 1, k // 2), LayerSpec("relu", "body")]
            c = out
    classes = draw(st.integers(2, 4))
    layers += [
        LayerSpec("pool", "head", pool_mode=draw(st.sampled_from(["avg", "max"]))),
        LayerSpec("dense", "head", in_features=c, out_features=classes),
    ]
    spec = ModelSpec("drawn", classes, (c_in, draw(side), draw(side)), tuple(layers))
    policy = ConvPolicy(
        draw(st.sampled_from(MODES)), draw(st.sampled_from(MODES)),
        draw(st.floats(0.5, 8.0)), draw(st.sampled_from(PATTERNS)),
    )
    return apply_policy(spec, policy)


def draw_zero_parameters(model, rng):
    """Biases and each block's conv2 start at zero: draw them, so every
    parameter shapes the logits and a restore that skipped one would show."""
    for _, t in model.named_parameters():
        if not t.data.any():
            scale = (1.0 / t.data[0].size) ** 0.5 if t.data.ndim > 1 else 0.1
            t.data[...] = rng.normal(0.0, scale, size=t.data.shape)


@given(spec=model_specs(), batch=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_any_valid_spec_round_trips_counts_and_folds(spec, batch, seed):
    """Every drawn spec: its JSON round-trips exactly, `count_params` is
    its model's parameter count, a saved and reloaded checkpoint restores
    every parameter bit for bit, and folding keeps the logits bit for bit
    and leaves no static masked conv."""
    text = spec_to_json(spec)
    assert spec_to_json(spec_from_json(text)) == text
    rng = np.random.default_rng(seed)
    model = Model(spec, rng)
    params = model.named_parameters()
    assert count_params(spec) == sum(t.data.size for _, t in params)
    draw_zero_parameters(model, rng)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        save_checkpoint(checkpoint_from_model(model), path)
        restored = restore_model(load_checkpoint(path))
    assert spec_to_json(restored.spec) == text
    assert [(n, t.data.tobytes()) for n, t in restored.named_parameters()] == [
        (n, t.data.tobytes()) for n, t in params
    ]
    x = Tensor(rng.normal(size=(batch, *spec.input_shape)))
    before = model.forward(x).data
    model.fold()
    assert not any(isinstance(m, StaticGMConvLayer) for _, m in model.masked_layer_items())
    assert model.forward(x).data.tobytes() == before.tobytes()


@given(spec=model_specs(), batch=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
def test_a_sample_gets_the_same_bits_alone_and_in_a_batch(spec, batch, seed):
    """Every drawn spec: each sample's logits and input adjoint (a tape
    with wrt = the input, seeded with that sample's row of one seed) are
    bit-identical run alone and inside a batch, and again with every conv
    cut into one-sample chunks. ERF maps read input adjoints off batches."""
    rng = np.random.default_rng(seed)
    model = Model(spec, rng)
    draw_zero_parameters(model, rng)
    x = rng.normal(size=(batch, *spec.input_shape))
    out_seed = rng.normal(size=(batch, spec.num_classes))

    def run(rows):
        xt = Tensor(x[rows])
        tape = GradTape(wrt=(xt,))
        y = model.forward(xt, tape)
        tape.backward(y, seed=out_seed[rows])
        return y.data, xt.grad

    alone = [run(slice(i, i + 1)) for i in range(batch)]
    together = [run(slice(0, batch))]
    with mock.patch.object(tensor, "_BLOCK_BYTES", 1):
        together.append(run(slice(0, batch)))
    for logits, dx in together:
        for i, (want_logits, want_dx) in enumerate(alone):
            assert logits[i : i + 1].tobytes() == want_logits.tobytes()
            assert dx[i : i + 1].tobytes() == want_dx.tobytes()
