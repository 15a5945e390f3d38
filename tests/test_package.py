"""Package surface: the shipped configs and the exported names."""

import dataclasses
import glob
import os
import re

import numpy as np
import pytest

import gmconv
import gmconv.tensor
from gmconv.data import DATASET_IDS
from gmconv.models import _NETS
from gmconv.train import TrainConfig, build_run_model, load_config, split_source

ROOT = os.path.join(os.path.dirname(__file__), "..")
CONFIGS = sorted(glob.glob(os.path.join(ROOT, "configs", "*.json")))


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


def test_readme_documents_exactly_the_config_fields_and_dataset_ids():
    """README's config table lists every TrainConfig field once, in order,
    both its `dataset` row and the `eval --dataset` list name exactly
    the dataset ids, and its `model` row names exactly the zoo's nets, so
    a removed option cannot stay documented."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    table = readme.split("| key ", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines()[2:]:
        key, *cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows[key.strip("`")] = cells
    assert list(rows) == [f.name for f in dataclasses.fields(TrainConfig)]
    assert re.findall(r"`([^`]+)`", rows["model"][-1]) == list(_NETS)
    assert re.findall(r"`([^`]+)`", rows["dataset"][-1]) == list(DATASET_IDS)
    listed = re.search(r"`--dataset`\s*\(([^)]*)\)", readme).group(1)
    assert re.findall(r"`([^`]+)`", listed) == list(DATASET_IDS)
