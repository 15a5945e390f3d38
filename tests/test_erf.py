"""Effective-receptive-field estimation, radius, and mask dumps."""

import json
import math

import numpy as np
import pytest

from gmconv import erf as erf_module
from gmconv import masks, tensor
from gmconv.erf import ErfMap, dump_layer_masks, erf_radius, estimate_erf
from gmconv.layers import _per_sample_masked_weights
from gmconv.models import ConvPolicy, LayerSpec, Model, ModelSpec, apply_policy, build_model
from gmconv.tensor import GradTape, Tensor
from util import copy_shared_params


def linear_stack_spec(depth, hw=15):
    """depth 3x3 single-channel convs with no activations, then a head."""
    layers = [
        LayerSpec(op="conv", role="stem" if i == 0 else "body", in_channels=1,
                  out_channels=1, kernel_size=3, stride=1, padding=1)
        for i in range(depth)
    ]
    layers += [
        LayerSpec(op="pool", role="head", pool_mode="avg"),
        LayerSpec(op="dense", role="head", in_features=1, out_features=2),
    ]
    return ModelSpec("linear-stack", 2, (1, hw, hw), tuple(layers))


def all_ones_model(depth, hw=15):
    model = Model(linear_stack_spec(depth, hw), np.random.default_rng(0))
    for i in range(depth):
        model.modules[i].weight.data[:] = 1.0
        model.modules[i].bias.data[:] = 0.0
    return model


def boxes_convolved(times):
    """1D [1,1,1] convolved with itself `times`-fold, as a 2D outer map."""
    line = np.array([1.0])
    for _ in range(times):
        line = np.convolve(line, np.array([1.0, 1.0, 1.0]))
    return np.outer(line, line)


class TestEstimate:
    def test_single_conv_support_is_center_patch(self):
        """One 3x3 conv: the ERF is exactly the 3x3 patch around the
        central unit, zero elsewhere."""
        model = all_ones_model(1, hw=9)
        erf = estimate_erf(model, 0, 4, np.random.default_rng(1))
        support = erf.values > 0
        want = np.zeros((9, 9), dtype=bool)
        want[3:6, 3:6] = True
        np.testing.assert_array_equal(support, want)
        assert erf.unit == (4, 4)

    def test_single_layer_erf_is_analytic(self):
        """For a linear one-conv net the ERF is input-independent: cell
        (dy, dx) gets sum_c |sum_o W[o, c, dy, dx]|, so random weights
        give an exact closed-form oracle."""
        spec = ModelSpec(
            "probe",
            2,
            (3, 9, 9),
            (
                LayerSpec(op="conv", role="stem", in_channels=3, out_channels=4,
                          kernel_size=3, stride=1, padding=1),
                LayerSpec(op="pool", role="head", pool_mode="avg"),
                LayerSpec(op="dense", role="head", in_features=4, out_features=2),
            ),
        )
        model = Model(spec, np.random.default_rng(2))
        erf = estimate_erf(model, 0, 3, np.random.default_rng(3))
        w = model.modules[0].weight.data
        cell = np.abs(w.sum(axis=0)).sum(axis=0)  # over out channels, then in
        want = np.zeros((9, 9))
        want[3:6, 3:6] = cell / cell.max()
        np.testing.assert_allclose(erf.values, want, rtol=1e-12, atol=1e-15)

    def test_five_layer_stack_matches_box_convolution(self):
        """Linear all-ones stack: the influence of input pixels on the
        central unit is the depth-fold self-convolution of the 3x3 box."""
        model = all_ones_model(5, hw=15)
        erf = estimate_erf(model, 4, 2, np.random.default_rng(4))
        box5 = boxes_convolved(5)
        want = np.zeros((15, 15))
        want[2:13, 2:13] = box5 / box5.max()
        np.testing.assert_allclose(erf.values, want, rtol=1e-9, atol=1e-12)

    def test_support_inside_theoretical_rf(self):
        """cnn-small probed at its last conv: strides 1,2,1,2 give a
        theoretical receptive field of 13x13 around the mapped center."""
        model = Model(build_model("cnn-small", 10), np.random.default_rng(5))
        erf = estimate_erf(model, 6, 6, np.random.default_rng(6))
        nz = np.argwhere(erf.values > 0)
        assert nz.size > 0
        spans = nz.max(axis=0) - nz.min(axis=0) + 1
        assert spans[0] <= 13 and spans[1] <= 13

    def test_deterministic_given_seed(self):
        model = Model(build_model("cnn-small", 10), np.random.default_rng(7))
        a = estimate_erf(model, 4, 5, np.random.default_rng(11))
        b = estimate_erf(model, 4, 5, np.random.default_rng(11))
        np.testing.assert_array_equal(a.values, b.values)

    def test_dataset_images_accepted(self):
        model = all_ones_model(1, hw=9)
        imgs = np.random.default_rng(8).normal(size=(3, 1, 9, 9))
        erf = estimate_erf(model, 0, 3, images=imgs)
        assert erf.values.max() == 1.0
        with pytest.raises(ValueError):
            estimate_erf(model, 0, 1, images=np.zeros((1, 1, 4, 4)))

    @pytest.mark.parametrize("shape", [(0, 1, 9, 9), (1, 9, 9)], ids=["empty", "3-D"])
    def test_rejects_empty_or_unstacked_images(self, shape):
        model = all_ones_model(1, hw=9)
        with pytest.raises(ValueError, match="non-empty"):
            estimate_erf(model, 0, 1, images=np.zeros(shape))

    def test_needs_exactly_one_probe_source(self):
        model = all_ones_model(1, hw=9)
        imgs = np.zeros((1, 1, 9, 9))
        with pytest.raises(ValueError, match="exactly one"):
            estimate_erf(model, 0, 1)
        with pytest.raises(ValueError, match="exactly one"):
            estimate_erf(model, 0, 1, np.random.default_rng(0), images=imgs)

    def test_rejects_non_spatial_layer(self):
        model = Model(build_model("cnn-small", 10), np.random.default_rng(9))
        pool_index = next(i for i, layer in enumerate(model.spec.layers) if layer.op == "pool")
        with pytest.raises(ValueError):
            estimate_erf(model, pool_index, 1, np.random.default_rng(10))

    def test_rejects_bad_index(self):
        model = all_ones_model(1)
        with pytest.raises(ValueError):
            estimate_erf(model, 99, 1, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "layer, n",
        [(2.0, 3), (2, 2.5), (2, 3.0), (True, 3), (2, True), (2, False), ("2", 3), (None, 3)],
    )
    def test_index_and_count_must_be_integers(self, layer, n):
        model = Model(build_model("cnn-small", 10), np.random.default_rng(9))
        with pytest.raises(ValueError, match="must be an integer"):
            estimate_erf(model, layer, n, np.random.default_rng(0))

    def test_numpy_integers_accepted(self):
        model = all_ones_model(2)
        erf = estimate_erf(model, np.int64(1), np.int32(2), np.random.default_rng(0))
        assert type(erf.layer_index) is int and type(erf.num_samples) is int
        assert (erf.layer_index, erf.num_samples) == (1, 2)

    def test_non_finite_map_raises(self):
        """Weights near 1e300 overflow every forward; their NaN map must not
        be normalized and returned as if it were valid."""
        model = Model(build_model("cnn-small", 10), np.random.default_rng(12))
        for _, t in model.named_parameters():
            t.data *= 1e300
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="not finite"):
                estimate_erf(model, 6, 2, np.random.default_rng(13))

    @pytest.mark.parametrize("index", [3, 7])
    def test_overflow_past_a_relu_raises(self, index):
        """A NaN activation must survive the ReLU that follows it: zeroed
        there, the probe would report an all-zero map instead."""
        spec = apply_policy(build_model("cnn-small", 10), ConvPolicy("static", "static"))
        model = Model(spec, np.random.default_rng(12))
        for _, t in model.named_parameters():
            t.data *= 1e300
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="not finite"):
                estimate_erf(model, index, 2, np.random.default_rng(13))

    def test_normalized_to_unit_peak(self):
        model = Model(build_model("cnn-small", 10), np.random.default_rng(12))
        erf = estimate_erf(model, 2, 4, np.random.default_rng(13))
        assert erf.values.max() == 1.0
        assert np.all(erf.values >= 0.0)


class TestPrunedProbe:
    """estimate_erf records with wrt=(x,): only the input's adjoint is built."""

    @staticmethod
    def masked_model():
        spec = apply_policy(build_model("cnn-small", 10), ConvPolicy("dynamic", "static"))
        return Model(spec, np.random.default_rng(21))

    def test_map_matches_an_unpruned_probe_loop(self):
        model = self.masked_model()
        layer, probes = 6, 3
        got = estimate_erf(model, layer, probes, np.random.default_rng(22))
        rng, acc = np.random.default_rng(22), np.zeros((32, 32))
        for _ in range(probes):
            x = Tensor(rng.normal(size=(1, 3, 32, 32)))
            tape = GradTape()
            out = x
            for mod in model.modules[: layer + 1]:
                out = mod.forward(out, tape)
            seed = np.zeros_like(out.data)
            seed[0, :, out.data.shape[2] // 2, out.data.shape[3] // 2] = 1.0
            tape.backward(out, seed)
            acc += np.abs(x.grad[0]).sum(axis=0)
        mean = acc / probes
        np.testing.assert_array_equal(got.values, mean / mean.max())

    def test_no_width_slope_or_mask_record(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("a probe evaluated static mask slopes")

        kept = []

        class SpyTape(GradTape):
            def backward(self, out, seed=None):
                kept.extend(fn.__qualname__ for _, _, fn in self.records)
                super().backward(out, seed)

        monkeypatch.setattr(masks, "circular_grad_values", refuse)
        monkeypatch.setattr(erf_module, "GradTape", SpyTape)
        estimate_erf(self.masked_model(), 6, 2, np.random.default_rng(23))
        assert kept and not any(q.startswith("_mask_scale") for q in kept)


def batch_one_probe_map(model, layer, num_samples, rng=None, images=None):
    """The normalized map of `num_samples` probes run one at a time, each
    on its own unpruned tape."""
    acc = np.zeros(model.spec.input_shape[1:])
    for s in range(num_samples):
        if images is None:
            x = Tensor(rng.normal(size=(1, *model.spec.input_shape)))
        else:
            x = Tensor(images[s % len(images)][None])
        tape = GradTape()
        out = x
        for mod in model.modules[: layer + 1]:
            out = mod.forward(out, tape)
        seed = np.zeros_like(out.data)
        seed[0, :, out.data.shape[2] // 2, out.data.shape[3] // 2] = 1.0
        tape.backward(out, seed)
        acc += np.abs(x.grad[0]).sum(axis=0)
    mean = acc / num_samples
    return mean / mean.max()


POLICIES = {
    "static": ConvPolicy("static", "static"),
    "dynamic-stem": ConvPolicy("dynamic", "static"),
    "all-dynamic": ConvPolicy("dynamic", "dynamic"),
}


class TestBatchedProbe:
    """estimate_erf runs one taped forward and backward per batch of probes,
    and every map is bit for bit the map of one probe at a time."""

    @staticmethod
    def model(policy):
        return Model(apply_policy(build_model("cnn-small", 10), POLICIES[policy]),
                     np.random.default_rng(31))

    @staticmethod
    def force_batch(monkeypatch, model, batch):
        # cnn-small's widest conv output is its stem's, 16 x 32 x 32 floats
        monkeypatch.setattr(tensor, "_BLOCK_BYTES", batch * 2 * 8 * 16 * 32 * 32)
        assert erf_module._probe_batch(model.spec) == batch

    @pytest.mark.parametrize("batch", [2, 3])
    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_map_matches_a_batch_one_loop(self, monkeypatch, policy, batch):
        model = self.model(policy)
        self.force_batch(monkeypatch, model, batch)
        n = 2 * batch + 1
        got = estimate_erf(model, 6, n, np.random.default_rng(32))
        want = batch_one_probe_map(model, 6, n, rng=np.random.default_rng(32))
        np.testing.assert_array_equal(got.values, want)
        assert got.num_samples == n and got.unit == (4, 4)

    @pytest.mark.parametrize("policy", ["static", "all-dynamic"])
    def test_images_cycle_across_batches(self, monkeypatch, policy):
        """Three images over five probes in batches of two: the stack's
        size divides neither the probe count nor the batch."""
        model = self.model(policy)
        self.force_batch(monkeypatch, model, 2)
        imgs = np.random.default_rng(33).normal(size=(3, 3, 32, 32))
        got = estimate_erf(model, 4, 5, images=imgs)
        np.testing.assert_array_equal(got.values, batch_one_probe_map(model, 4, 5, images=imgs))

    @pytest.mark.parametrize("n", [1, 3, 4, 7])
    def test_one_tape_per_batch(self, monkeypatch, n):
        model = self.model("dynamic-stem")
        self.force_batch(monkeypatch, model, 3)
        sizes = []

        class SpyTape(GradTape):
            def __init__(self, wrt=None):
                sizes.append(len(wrt[0].data))
                super().__init__(wrt)

        monkeypatch.setattr(erf_module, "GradTape", SpyTape)
        estimate_erf(model, 2, n, np.random.default_rng(34))
        assert len(sizes) == math.ceil(n / 3)
        assert sizes == [3] * (n // 3) + [n % 3] * (n % 3 > 0)

    def test_batch_is_bounded_by_bytes(self, monkeypatch):
        """The widest output of resnet20-slim at width 0.5 (8 x 32 x 32) and
        its adjoint take 128 KiB a probe."""
        spec = build_model("resnet20-slim", 10, 0.5)
        assert erf_module._probe_batch(spec) == tensor._BLOCK_BYTES // (128 << 10)
        monkeypatch.setattr(tensor, "_BLOCK_BYTES", 3 * (128 << 10) - 1)
        assert erf_module._probe_batch(spec) == 2
        monkeypatch.setattr(tensor, "_BLOCK_BYTES", 1)
        assert erf_module._probe_batch(spec) == 1

    @pytest.mark.parametrize("policy", ["static", "all-dynamic"])
    def test_dense_rows_do_not_depend_on_the_batch(self, policy):
        """The logits of a batch of five are the five batch-1 logits, bit
        for bit, through the head and the width predictors' dense layers."""
        model = self.model(policy)
        x = np.random.default_rng(35).normal(size=(5, 3, 32, 32))
        batched = model.forward(Tensor(x)).data
        for i in range(5):
            np.testing.assert_array_equal(model.forward(Tensor(x[i : i + 1])).data[0], batched[i])


class TestMaskedVsPlainErf:
    def test_one_layer_corner_ratio_shrinks(self):
        """A sigma=1 mask scales corner taps by exp(-1) relative to the
        center, so the corner-to-center influence ratio must drop below
        the unmasked twin's."""
        spec = ModelSpec(
            "probe",
            2,
            (3, 9, 9),
            (
                LayerSpec(op="conv", role="stem", in_channels=3, out_channels=4,
                          kernel_size=3, stride=1, padding=1),
                LayerSpec(op="pool", role="head", pool_mode="avg"),
                LayerSpec(op="dense", role="head", in_features=4, out_features=2),
            ),
        )
        std = Model(spec, np.random.default_rng(14))
        gm = Model(apply_policy(spec, ConvPolicy("static", "std")), np.random.default_rng(14))
        copy_shared_params(std, gm)
        gm.modules[0].sigma.data[...] = 1.0
        e_std = estimate_erf(std, 0, 2, np.random.default_rng(15)).values
        e_gm = estimate_erf(gm, 0, 2, np.random.default_rng(15)).values
        c = 4
        ratio_std = e_std[c - 1, c - 1] / e_std[c, c]
        ratio_gm = e_gm[c - 1, c - 1] / e_gm[c, c]
        assert ratio_gm < ratio_std

    def test_cnn_small_radius_shrinks(self):
        """First layer masked at sigma=1, all other weights shared: the
        measured receptive-field radius at the last conv must shrink."""
        spec = build_model("cnn-small", 10)
        std = Model(spec, np.random.default_rng(16))
        gm = Model(apply_policy(spec, ConvPolicy("static", "std")), np.random.default_rng(16))
        copy_shared_params(std, gm)
        gm.modules[0].sigma.data[...] = 1.0
        r_std = erf_radius(estimate_erf(std, 6, 8, np.random.default_rng(17)))
        r_gm = erf_radius(estimate_erf(gm, 6, 8, np.random.default_rng(17)))
        assert r_gm < r_std


class TestRadius:
    def test_point_mass_radius_zero(self):
        v = np.zeros((7, 7))
        v[2, 5] = 1.0
        assert erf_radius(v) == 0.0

    def test_uniform_3x3_patch(self):
        v = np.zeros((9, 9))
        v[3:6, 3:6] = 1.0
        np.testing.assert_allclose(erf_radius(v), math.sqrt(4.0 / 3.0), rtol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(18)
        v = rng.uniform(0.0, 1.0, size=(11, 11))
        np.testing.assert_allclose(erf_radius(v), erf_radius(123.456 * v), rtol=1e-12)

    def test_offcenter_mass_uses_centroid(self):
        v = np.zeros((9, 9))
        v[0, 0] = 1.0
        v[0, 2] = 1.0
        np.testing.assert_allclose(erf_radius(v), 1.0, rtol=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            erf_radius(np.zeros((5, 5)))

    def test_non_finite_rejected(self):
        v = np.zeros((5, 5))
        v[2, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            erf_radius(v)

    def test_accepts_erf_map_objects(self):
        v = np.zeros((5, 5))
        v[2, 2] = 1.0
        m = ErfMap(v, "m", 0, (2, 2), 1)
        assert erf_radius(m) == 0.0


class TestMaskDump:
    def test_static_mask_passthrough(self, tmp_path):
        spec = apply_policy(build_model("cnn-small", 10), ConvPolicy("static", "std"))
        model = Model(spec, np.random.default_rng(19))
        manifest = dump_layer_masks(model, str(tmp_path))
        assert len(manifest["layers"]) == 1
        entry = manifest["layers"][0]
        assert entry["kind"] == "static"
        assert entry["sigma_raw"] == 5.0
        got = np.loadtxt(str(tmp_path / entry["csv"]), delimiter=",", ndmin=2)
        np.testing.assert_array_equal(got, masks.circular_values(5.0, 3))
        assert (tmp_path / entry["pgm"]).exists()

    def test_manifest_json_written(self, tmp_path):
        spec = apply_policy(build_model("cnn-small", 10), ConvPolicy("dynamic", "static"))
        model = Model(spec, np.random.default_rng(20))
        dump_layer_masks(model, str(tmp_path))
        doc = json.loads((tmp_path / "manifest.json").read_text())
        kinds = [e["kind"] for e in doc["layers"]]
        assert kinds.count("dynamic") == 1
        assert kinds.count("static") == 3
        dyn = next(e for e in doc["layers"] if e["kind"] == "dynamic")
        np.testing.assert_allclose(dyn["sigma1_zero_input"], 5.0, rtol=1e-12)
        np.testing.assert_allclose(dyn["sigma2_zero_input"], 5.0, rtol=1e-12)

    def test_dynamic_grid_is_the_applied_mask(self, tmp_path):
        """The dumped dynamic grid is bit for bit the mask the layer
        applies to the zero descriptor, on wide grids too."""
        spec = apply_policy(build_model("alexnet-lite", 10), ConvPolicy("dynamic", "dynamic"))
        model = Model(spec, np.random.default_rng(22))
        rng = np.random.default_rng(23)
        for draw in range(5):
            for _, layer in model.masked_layer_items():
                layer.sigma_module.b1.data[:] = rng.uniform(-3.0, 3.0, size=2)
            out = tmp_path / str(draw)
            manifest = dump_layer_masks(model, str(out))
            for entry, (_, layer) in zip(manifest["layers"], model.masked_layer_items()):
                mod = layer.sigma_module
                s1, s2 = mod.predict(Tensor(np.zeros((1, mod.in_channels, 1, 1))))
                applied = _per_sample_masked_weights(s1, s2, layer.kernel_size, None).data[0]
                got = np.loadtxt(str(out / entry["csv"]), delimiter=",", ndmin=2)
                np.testing.assert_array_equal(got, applied)

    def test_no_masked_layers_gives_empty_manifest(self, tmp_path):
        model = Model(build_model("cnn-small", 10), np.random.default_rng(21))
        manifest = dump_layer_masks(model, str(tmp_path))
        assert manifest["layers"] == []
        assert json.loads((tmp_path / "manifest.json").read_text())["layers"] == []
