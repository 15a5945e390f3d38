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
