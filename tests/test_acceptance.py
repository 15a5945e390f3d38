"""Acceptance gate: one test per shipped guarantee.

Each test is numbered; tests/conftest.py prints a PASS/FAIL/SKIP line per
number at the end of the run. The two desk-scale CIFAR-10 tests skip with
an explanatory message when the binary batches are not on disk.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gmconv import masks
from gmconv.data import find_cifar10_root
from gmconv.erf import erf_radius, estimate_erf
from gmconv.layers import DynamicSigmaModule, StaticGMConvLayer, fold_mask
from gmconv.models import (
    ConvPolicy,
    LayerSpec,
    Model,
    ModelSpec,
    apply_policy,
    build_model,
    count_flops,
    count_params,
)
from gmconv.tensor import GradTape, Tensor, mul, tsum
from gmconv.train import load_config, metrics_to_csv, train
from util import copy_shared_params, force_flat_masks, num_grad, rel_err

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

CIFAR_SKIP = (
    "CIFAR-10 binary batches not found; set GMCONV_CIFAR10_DIR or place "
    "them in data/cifar-10-batches-bin"
)

# completed desk runs, shared between the CIFAR criteria so the
# determinism check can reuse the seed-0 baseline
_DESK_RUNS: dict = {}


# ---------------------------------------------------------------- oracles

def literal_circular(sigma, k):
    """Two-step reference: raw Gaussian of the center distance, then
    divide by the grid maximum. Plain loops, no shared code with the
    shipped implementation."""
    center = (k - 1) / 2.0
    raw = [[math.exp(-((col - center) ** 2 + (row - center) ** 2) / (2.0 * sigma**2))
            for col in range(k)] for row in range(k)]
    peak = max(max(r) for r in raw)
    return np.array([[v / peak for v in r] for r in raw])


def literal_elliptic(s1, s2, k):
    """Same two-step scheme with per-axis widths; s1 scales the
    horizontal (column) offsets, s2 the vertical ones."""
    center = (k - 1) / 2.0
    raw = [[math.exp(-((col - center) ** 2 / (2.0 * s1**2)
                       + (row - center) ** 2 / (2.0 * s2**2)))
            for col in range(k)] for row in range(k)]
    peak = max(max(r) for r in raw)
    return np.array([[v / peak for v in r] for r in raw])


def linear_stack_spec(depth, hw=15):
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
    line = np.array([1.0])
    for _ in range(times):
        line = np.convolve(line, np.array([1.0, 1.0, 1.0]))
    return np.outer(line, line)


def _desk_history(config_name, seed, root):
    key = (config_name, seed)
    if key not in _DESK_RUNS:
        cfg = replace(load_config(str(CONFIG_DIR / config_name)),
                      data_root=root, seed=seed)
        history, _ = train(cfg)
        _DESK_RUNS[key] = history
    return _DESK_RUNS[key]


# --------------------------------------------------------------- criteria

def test_criterion_01():
    """200 random mask configurations match the literal two-step oracle
    within 1e-12, odd-size centers are exactly 1, and the sweep stays
    under a second."""
    rng = np.random.default_rng(20260815)
    start = time.perf_counter()
    for _ in range(100):
        k = int(rng.integers(1, 13))
        sigma = float(rng.uniform(0.3, 30.0))
        got = masks.circular_values(sigma, k)
        assert np.max(np.abs(got - literal_circular(sigma, k))) <= 1e-12
        if k % 2 == 1:
            assert got[k // 2, k // 2] == 1.0
    for _ in range(100):
        k = int(rng.integers(1, 13))
        s1 = float(rng.uniform(0.3, 30.0))
        s2 = float(rng.uniform(0.3, 30.0))
        got = masks.elliptic_values(s1, s2, k)
        assert np.max(np.abs(got - literal_elliptic(s1, s2, k))) <= 1e-12
        if k % 2 == 1:
            assert got[k // 2, k // 2] == 1.0
    assert time.perf_counter() - start < 1.0


def test_criterion_02():
    """Hand-checked 3x3 grids: circular sigma=1 and elliptic (1, 2)."""
    e = math.exp
    want_circ = np.array([
        [0.3678794, 0.6065307, 0.3678794],
        [0.6065307, 1.0, 0.6065307],
        [0.3678794, 0.6065307, 0.3678794],
    ])
    np.testing.assert_allclose(masks.circular_values(1.0, 3), want_circ,
                               rtol=0.0, atol=1e-6)
    got = masks.elliptic_values(1.0, 2.0, 3)
    # horizontal neighbours feel sigma1=1, vertical ones sigma2=2
    assert abs(got[1, 0] - 0.6065307) <= 1e-6
    assert abs(got[1, 2] - 0.6065307) <= 1e-6
    assert abs(got[0, 1] - 0.8824969) <= 1e-6
    assert abs(got[2, 1] - 0.8824969) <= 1e-6
    for corner in (got[0, 0], got[0, 2], got[2, 0], got[2, 2]):
        assert abs(corner - 0.5352614) <= 1e-6
    assert got[1, 1] == 1.0
    assert abs(want_circ[0, 1] - e(-0.5)) <= 1e-6  # literals match closed form
    assert abs(want_circ[0, 0] - e(-1.0)) <= 1e-6


def test_criterion_03():
    """Flat limit: with every mask forced to ones, the masked twins of a
    plain network reproduce its logits within 1e-6 and its argmax exactly
    on 1000 random inputs."""
    spec = build_model("cnn-small", 10)
    std = Model(spec, np.random.default_rng(100))
    rng = np.random.default_rng(101)
    chunks = [rng.normal(size=(200, 3, 32, 32)) for _ in range(5)]
    std_logits = [std.forward(Tensor(c)).data for c in chunks]
    for policy in (ConvPolicy("static", "static"), ConvPolicy("dynamic", "static")):
        twin = Model(apply_policy(spec, policy), np.random.default_rng(100))
        copy_shared_params(std, twin)
        force_flat_masks(twin)
        for chunk, want in zip(chunks, std_logits):
            got = twin.forward(Tensor(chunk)).data
            assert np.max(np.abs(got - want)) <= 1e-6
            np.testing.assert_array_equal(
                np.argmax(got, axis=1), np.argmax(want, axis=1)
            )


def test_criterion_04():
    """Folding bakes the mask into the weights: live and folded layers
    agree within 1e-12 on 100 random inputs for each kernel size."""
    rng = np.random.default_rng(200)
    for k in (3, 5, 11):
        w = Tensor(rng.normal(size=(4, 3, k, k)))
        b = Tensor(rng.normal(size=4))
        layer = StaticGMConvLayer(w, b, sigma=float(rng.uniform(0.5, 8.0)),
                                  padding=k // 2)
        x = Tensor(rng.normal(size=(100, 3, 12, 12)))
        live = layer.forward(x).data
        plain = fold_mask(layer)
        assert np.max(np.abs(plain.forward(x).data - live)) <= 1e-12


def test_criterion_05():
    """Every learnable parameter of the masked layers matches central
    finite differences to a relative error below 1e-4: weight, bias and
    sigma of the static layer, and weight, bias, W0, W1, B1 of the
    dynamic layer under all three prediction patterns. The whole suite
    stays under ten seconds."""
    from gmconv.layers import DynamicGMConvLayer

    start = time.perf_counter()
    rng = np.random.default_rng(300)

    def check_layer(layer, x, r):
        def loss_value(_arr=None):
            return float(np.sum(layer.forward(x).data * r))

        tape = GradTape()
        loss = tsum(mul(layer.forward(x, tape), Tensor(r), tape), tape)
        tape.backward(loss)
        for name, t in layer.param_items():
            want = num_grad(loss_value, t.data, h=1e-5)
            assert rel_err(t.grad, want) < 1e-4, name

    w = Tensor(rng.normal(size=(3, 2, 3, 3)))
    b = Tensor(rng.normal(size=3))
    static = StaticGMConvLayer(w, b, sigma=1.3, padding=1)
    check_layer(static, Tensor(rng.normal(size=(2, 2, 6, 6))),
                rng.normal(size=(2, 3, 6, 6)))

    for pattern in ("sigma", "sigma_pair", "sigma_ratio"):
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        b = Tensor(rng.normal(size=3))
        mod = DynamicSigmaModule(2, pattern=pattern, rng=rng)
        layer = DynamicGMConvLayer(w, b, mod, padding=1)
        check_layer(layer, Tensor(rng.normal(size=(2, 2, 5, 5))),
                    rng.normal(size=(2, 3, 5, 5)))

    assert time.perf_counter() - start < 10.0


def test_criterion_06():
    """Width-predictor dimensions: 64 channels at reduction 4/3 give a
    96-unit hidden layer; the head emits 1, 2, 2 values for the three
    patterns."""
    for pattern, arity in (("sigma", 1), ("sigma_pair", 2), ("sigma_ratio", 2)):
        mod = DynamicSigmaModule(64, pattern=pattern, rng=np.random.default_rng(0))
        assert mod.hidden == 96
        assert mod.arity == arity
        assert mod.w0.data.shape == (96, 128)
        assert mod.w1.data.shape == (arity, 96)
        assert mod.b1.data.shape == (arity,)


def test_criterion_07():
    """Cost accounting at full width: parameters within 2% of 270k, FLOPs
    within 5% of 42M, and the fully static twin costs exactly 19 extra
    parameters (one sigma per masked conv)."""
    spec = build_model("resnet20-slim", 10, width=1.0)
    params = count_params(spec)
    flops = count_flops(spec)
    assert abs(params - 270_000) / 270_000 <= 0.02
    assert abs(flops - 42_000_000) / 42_000_000 <= 0.05
    twin = apply_policy(spec, ConvPolicy("static", "static"))
    assert count_params(twin) == params + 19


def test_criterion_08():
    """Receptive-field analysis: the measured map of a 5-deep all-ones
    linear stack equals the 5-fold box self-convolution within 1e-9, and
    masking a shared-weight stem at sigma=1 strictly shrinks the measured
    radius of the deepest conv."""
    stack = all_ones_model(5, hw=15)
    erf = estimate_erf(stack, 4, 2, np.random.default_rng(400))
    box5 = boxes_convolved(5)
    want = np.zeros((15, 15))
    want[2:13, 2:13] = box5 / box5.max()
    assert np.max(np.abs(erf.values - want)) <= 1e-9

    spec = build_model("cnn-small", 10)
    std = Model(spec, np.random.default_rng(401))
    gm = Model(apply_policy(spec, ConvPolicy("static", "std")),
               np.random.default_rng(401))
    copy_shared_params(std, gm)
    gm.modules[0].sigma.data[...] = 1.0
    r_std = erf_radius(estimate_erf(std, 6, 8, np.random.default_rng(402)))
    r_gm = erf_radius(estimate_erf(gm, 6, 8, np.random.default_rng(402)))
    assert r_gm < r_std


def test_criterion_09():
    """Desk-scale CIFAR-10 subset, three seeds: the plain baseline
    reaches 45% test accuracy every run, the masked twin's mean best
    accuracy lands within two points of the baseline's, and at least one
    body-layer sigma ends at least 0.5 away from its 5.0 init."""
    root = find_cifar10_root()
    if root is None:
        pytest.skip(CIFAR_SKIP)
    std_best, gm_best = [], []
    sigma_moved = False
    for seed in (0, 1, 2):
        h_std = _desk_history("cifar10-resnet20-std.json", seed, root)
        h_gm = _desk_history("cifar10-resnet20-gmconv.json", seed, root)
        std_best.append(max(m.test_acc for m in h_std))
        gm_best.append(max(m.test_acc for m in h_gm))
        body = np.array([m.sigmas[1:] for m in h_gm])  # sigmas[0] is the stem
        if np.any(np.abs(body[-1] - 5.0) >= 0.5):
            sigma_moved = True
    assert min(std_best) >= 0.45, f"baseline best accuracies {std_best}"
    gap = abs(float(np.mean(gm_best)) - float(np.mean(std_best)))
    assert gap <= 0.02, f"masked {gm_best} vs plain {std_best}"
    assert sigma_moved, "no body sigma moved by 0.5 from its init"


def test_criterion_10():
    """Desk-scale determinism: two independent seed-0 baseline runs
    produce byte-identical metric CSVs."""
    root = find_cifar10_root()
    if root is None:
        pytest.skip(CIFAR_SKIP)
    first = _desk_history("cifar10-resnet20-std.json", 0, root)
    cfg = replace(load_config(str(CONFIG_DIR / "cifar10-resnet20-std.json")),
                  data_root=root, seed=0)
    second, _ = train(cfg)
    assert metrics_to_csv(first) == metrics_to_csv(second)


def test_criterion_11():
    """Ablation surface: the shipped sigma-init (1, 5, 10) and prediction
    pattern (all three) configs train end-to-end on the small synthetic
    recipe in under five minutes combined. Only execution is asserted,
    not any accuracy ordering."""
    start = time.perf_counter()
    names = [f"ablation-sigma-init-{s}.json" for s in (1, 5, 10)]
    names += [f"ablation-pattern-{p}.json"
              for p in ("sigma", "sigma_pair", "sigma_ratio")]
    inits, patterns = set(), set()
    for name in names:
        cfg = load_config(str(CONFIG_DIR / name))
        inits.add(cfg.policy.sigma_init)
        patterns.add(cfg.policy.pattern)
        history, ckpt = train(cfg)
        assert len(history) == cfg.epochs
        assert all(np.isfinite(m.train_loss) for m in history)
        assert ckpt.epoch == cfg.epochs
    assert {1.0, 5.0, 10.0} <= inits
    assert patterns >= {"sigma", "sigma_pair", "sigma_ratio"}
    assert time.perf_counter() - start < 300.0
