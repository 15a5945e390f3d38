"""Package surface: the shipped configs and the exported names."""

import glob
import os

import numpy as np
import pytest

import gmconv
import gmconv.tensor
from gmconv.train import build_run_model, load_config, split_source

CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.json")))


def test_configs_are_shipped():
    assert CONFIGS


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_shipped_config_builds_its_model(path):
    """Every shipped config loads, builds its model, and sources both
    splits at the model's input shape."""
    config = load_config(path)
    model = build_run_model(config, np.random.default_rng(0))
    for split in ("train", "test"):
        assert split_source(config, split).image_shape == model.spec.input_shape
    if config.normalization is not None:
        assert all(len(stats) == model.spec.input_shape[0] for stats in config.normalization)


@pytest.mark.parametrize("module", [gmconv, gmconv.tensor], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_package_exports_exactly_its_public_surface():
    assert sorted(gmconv.__all__) == sorted([
        "Checkpoint", "checkpoint_from_model", "load_checkpoint", "restore_model",
        "save_checkpoint",
        "DataError", "DatasetSource", "augment_batch", "find_cifar10_root", "load_dataset",
        "make_synthetic",
        "ErfMap", "dump_layer_masks", "erf_radius", "estimate_erf",
        "Conv2dLayer", "DynamicGMConvLayer", "DynamicSigmaModule", "PATTERNS",
        "StaticGMConvLayer", "fold_mask",
        "GaussianMask", "SIGMA_MAX", "SIGMA_MIN", "circular_mask", "circular_values",
        "clamp_sigma", "elliptic_mask", "elliptic_values",
        "ConvPolicy", "LayerSpec", "Model", "ModelSpec", "apply_policy", "build_model",
        "count_flops", "count_params", "spec_from_json", "spec_to_json",
        "GradTape", "Tensor", "conv2d", "dense", "global_pool", "relu",
        "softmax_cross_entropy", "softplus",
        "ConfigError", "EpochMetrics", "TrainConfig", "config_from_json", "config_to_json",
        "evaluate", "evaluate_model", "load_config", "metrics_to_csv",
        "__version__",
    ])
