"""Command-line interface: exit codes, outputs, cross-command agreement."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import gmconv.train as train_module
from gmconv.checkpoint import checkpoint_from_model, load_checkpoint, restore_model, save_checkpoint
from gmconv.cli import main
from gmconv.data import load_dataset
from gmconv.models import ConvPolicy, Model, apply_policy, build_model
from gmconv.tensor import Tensor
from gmconv.train import TrainConfig, config_to_json, split_source
from util import DELETE, mutated_header

SMOKE_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "synthetic-smoke.json")

TINY = TrainConfig(
    model="cnn-small",
    num_classes=10,
    width=1.0,
    policy=ConvPolicy("static", "static"),
    dataset="synthetic",
    train_subset=64,
    test_subset=32,
    epochs=1,
    batch_size=32,
    lr=0.05,
    momentum=0.9,
    weight_decay=1e-4,
    seed=3,
)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny CLI training run shared by the checkpoint-consuming tests."""
    root = tmp_path_factory.mktemp("run")
    cfg_path = root / "config.json"
    cfg_path.write_text(config_to_json(TINY))
    out_dir = root / "out"
    rc = main(["train", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 0
    return {"config": str(cfg_path), "out": str(out_dir), "ckpt": str(out_dir / "last.ckpt")}


class TestMaskGen:
    def test_stdout_matches_literal_gaussian(self, capsys):
        """sigma=1, k=3: independent two-step evaluation of the normalized
        Gaussian, compared against the emitted CSV."""
        assert main(["mask-gen", "--sigma", "1", "--k", "3"]) == 0
        got = np.array([
            [float(v) for v in line.split(",")]
            for line in capsys.readouterr().out.strip().split("\n")
        ])
        lit = np.empty((3, 3))
        for r in range(3):
            for c in range(3):
                d2 = (r - 1.0) ** 2 + (c - 1.0) ** 2
                lit[r, c] = math.exp(-d2 / 2.0)
        lit /= lit.max()
        np.testing.assert_allclose(got, lit, rtol=0, atol=1e-12)
        assert got[1, 1] == 1.0

    def test_csv_file_roundtrip(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["mask-gen", "--sigma", "2", "--k", "5", "--out", str(out)]) == 0
        grid = np.loadtxt(str(out), delimiter=",", ndmin=2)
        assert grid.shape == (5, 5)
        assert grid[2, 2] == 1.0

    def test_pgm_by_extension(self, tmp_path):
        out = tmp_path / "m.pgm"
        assert main(["mask-gen", "--sigma", "1", "--k", "3", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("P2")
        assert "65535" in text

    def test_elliptic_when_sigma2_given(self, capsys):
        assert main(["mask-gen", "--sigma", "1", "--sigma2", "2", "--k", "3"]) == 0
        grid = np.array([
            [float(v) for v in line.split(",")]
            for line in capsys.readouterr().out.strip().split("\n")
        ])
        assert grid[1, 0] != grid[0, 1]  # anisotropic axes

    def test_bad_kernel_size(self, capsys):
        assert main(["mask-gen", "--sigma", "1", "--k", "0"]) == 2

    def test_unwritable_out_exits_3(self, tmp_path, capsys):
        out = tmp_path / "missing" / "m.csv"
        assert main(["mask-gen", "--sigma", "1", "--k", "3", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: ")


class TestUsageErrors:
    def test_unknown_flag_exits_2_with_usage(self, capsys):
        rc = main(["mask-gen", "--sigma", "1", "--k", "3", "--frobnicate"])
        assert rc == 2
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "train" in capsys.readouterr().out

    def test_console_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gmconv.cli", "mask-gen", "--sigma", "1", "--k", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert len(proc.stdout.strip().split("\n")) == 3


class TestTrainCommand:
    def test_writes_metrics_and_checkpoint(self, trained, capsys):
        out = trained["out"]
        metrics = open(out + "/metrics.csv").read()
        assert metrics.startswith("epoch,train_loss,test_acc,sigma_0")
        assert load_checkpoint(trained["ckpt"]).epoch == 1

    def test_stdout_is_the_metrics_csv(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(config_to_json(TINY))
        assert main(["train", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].startswith("epoch,train_loss,test_acc")
        assert len(lines) == 2  # header + 1 epoch

    def test_seed_override_changes_the_run(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(config_to_json(TINY))
        assert main(["train", "--config", str(cfg), "--seed", "99"]) == 0
        with_99 = capsys.readouterr().out
        assert main(["train", "--config", str(cfg)]) == 0
        with_cfg_seed = capsys.readouterr().out
        assert with_99 != with_cfg_seed

    def test_missing_dataset_exits_3(self, tmp_path, capsys):
        cfg_obj = TrainConfig(
            dataset="cifar10-bin", data_root=str(tmp_path / "nowhere"),
            model="cnn-small", width=1.0, train_subset=8, test_subset=8,
            epochs=1, batch_size=8,
        )
        cfg = tmp_path / "c.json"
        cfg.write_text(config_to_json(cfg_obj))
        assert main(["train", "--config", str(cfg)]) == 3
        assert "error" in capsys.readouterr().err

    def test_unallocatable_sample_count_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(config_to_json(replace(TINY, train_subset=10**12)))
        assert main(["train", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_diverged_sigma_exits_1_with_crash_checkpoint(self, tmp_path, monkeypatch, capsys):
        real_step = train_module.sgd_step

        def nan_sigma(params, *args):
            real_step(params, *args)
            dict(params)["layer0.sigma"].data[...] = np.nan

        monkeypatch.setattr(train_module, "sgd_step", nan_sigma)
        cfg = tmp_path / "c.json"
        cfg.write_text(config_to_json(TINY))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "layer0.sigma nan" in capsys.readouterr().err
        assert load_checkpoint(str(tmp_path / "out" / "crash.ckpt")).epoch == 0

    def test_overflowing_last_step_exits_1(self, tmp_path, capsys):
        """One step at lr 1e300 leaves finite weights whose every forward
        overflows; the run fails at its evaluation instead of logging the
        class-0 share as an accuracy."""
        cfg = tmp_path / "c.json"
        cfg.write_text(config_to_json(replace(
            TINY, lr=1e300, train_subset=64, batch_size=64, policy=ConvPolicy("std", "std"))))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "diverged: evaluation after epoch 1" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path / "out")) == ["crash.ckpt"]

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "none.json")]) == 2

    def test_invalid_config_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{broken")
        assert main(["train", "--config", str(cfg)]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"optimzer": "sgd"}')
        assert main(["train", "--config", str(cfg)]) == 2
        assert "optimzer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [
            ("milestones", 5),
            ("milestones", [1.5]),
            ("epochs", "3"),
            ("batch_size", 1.5),
            ("num_classes", 2.5),
            ("image_shape", 5),
            ("lr", None),
            ("seed", "a"),
            ("normalization", [1, 2]),
            ("width", True),
            ("policy.sigma_init", "5"),
            ("policy.pattern", "bogus"),
            ("normalization", [[0, 0, 0], [0, 1, 1]]),
            ("normalization", [[0, 0], [1, 1]]),
            ("normalization", [[math.nan, 0, 0], [1, 1, 1]]),
            ("normalization", [[math.inf, 0, 0], [1, 1, 1]]),
            ("lr", math.nan),
            ("lr", math.inf),
            ("lr", 10**400),
            ("weight_decay", math.nan),
            ("lr_decay", math.nan),
            ("width", math.nan),
            ("seed", -1),
            ("dataset", "mnist-idx"),
        ],
    )
    def test_mistyped_config_value_exits_2(self, tmp_path, capsys, key, value):
        """One field of the shipped smoke config set to a value of the
        wrong type, outside its choices or range: a config error (not a
        data error), no traceback."""
        with open(SMOKE_CONFIG, encoding="utf-8") as fh:
            doc = json.load(fh)
        owner, _, field = key.rpartition(".")
        (doc[owner] if owner else doc)[field] = value
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(config_to_json(TINY))
        assert main(["train", "--config", str(cfg), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err


class TestEvalCommand:
    def test_accuracy_matches_training_log(self, trained, capsys):
        rc = main([
            "eval", "--ckpt", trained["ckpt"], "--dataset", "synthetic",
            "--split", "test", "--subset", str(TINY.test_subset),
            "--seed", str(TINY.seed),
        ])
        assert rc == 0
        printed = capsys.readouterr().out.strip()
        assert printed.startswith("accuracy ")
        acc = float(printed.split()[1])
        last_row = open(trained["out"] + "/metrics.csv").read().strip().split("\n")[-1]
        assert acc == float(last_row.split(",")[2])

    def test_missing_checkpoint_exits_3(self, tmp_path, capsys):
        assert main(["eval", "--ckpt", str(tmp_path / "no.ckpt")]) == 3

    @pytest.mark.parametrize("command", [
        ["eval", "--dataset", "synthetic", "--subset", "32"],
        ["erf", "--layer", "2", "--samples", "2"],
    ])
    def test_overflowing_model_exits_1(self, trained, tmp_path, capsys, command):
        """A checkpoint whose forward overflows has no accuracy and no ERF."""
        ckpt = load_checkpoint(trained["ckpt"])
        for arr in ckpt.params.values():
            arr *= 1e300
        path = str(tmp_path / "big.ckpt")
        save_checkpoint(ckpt, path)
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main([command[0], "--ckpt", path, *command[1:]]
                      + (["--out", str(out)] if command[0] == "erf" else []))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "mean,std",
        [
            ("0,0", "1,1"),
            ("0,0,0", "0,1,1"),
            ("0,0,0", "nan,1,1"),
            ("0,0,0", "inf,1,1"),
            ("nan,0,0", "1,1,1"),
        ],
    )
    def test_bad_normalization_exits_3(self, trained, capsys, mean, std):
        """Stats with the wrong count, a zero std or a non-finite entry are
        a data error, not an accuracy."""
        rc = main([
            "eval", "--ckpt", trained["ckpt"], "--dataset", "synthetic",
            "--mean", mean, "--std", std,
        ])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_seed_exits_2(self, trained, capsys):
        rc = main(["eval", "--ckpt", trained["ckpt"], "--dataset", "synthetic", "--seed", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err

    def test_mean_without_std_exits_2(self, trained, capsys):
        rc = main([
            "eval", "--ckpt", trained["ckpt"], "--dataset", "synthetic",
            "--mean", "0.5,0.5,0.5",
        ])
        assert rc == 2

    def test_unreadable_data_file_exits_3(self, trained, tmp_path, capsys):
        (tmp_path / "test_batch.bin").mkdir()
        rc = main(["eval", "--ckpt", trained["ckpt"], "--data", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: ")


class TestFoldCommand:
    def test_fold_then_eval_is_bit_identical(self, trained, tmp_path, capsys):
        folded_path = str(tmp_path / "folded.ckpt")
        assert main(["fold", "--ckpt", trained["ckpt"], "--out", folded_path]) == 0
        assert "folded 4" in capsys.readouterr().out

        args = ["--dataset", "synthetic", "--split", "test",
                "--subset", str(TINY.test_subset), "--seed", str(TINY.seed)]
        assert main(["eval", "--ckpt", trained["ckpt"]] + args) == 0
        live_line = capsys.readouterr().out
        assert main(["eval", "--ckpt", folded_path] + args) == 0
        folded_line = capsys.readouterr().out
        assert live_line == folded_line

        # prediction labels, not just the accuracy, agree bit for bit
        live = restore_model(load_checkpoint(trained["ckpt"]))
        cold = restore_model(load_checkpoint(folded_path))
        images, _ = load_dataset(split_source(TINY, "test"))
        np.testing.assert_array_equal(
            live.predict(Tensor(images)), cold.predict(Tensor(images))
        )

    def test_fold_of_plain_model_folds_nothing(self, tmp_path, capsys):
        spec = apply_policy(build_model("cnn-small", 10), ConvPolicy("std", "std"))
        model = Model(spec, np.random.default_rng(0))
        src = str(tmp_path / "plain.ckpt")
        save_checkpoint(checkpoint_from_model(model), src)
        assert main(["fold", "--ckpt", src, "--out", str(tmp_path / "f.ckpt")]) == 0
        assert "folded 0" in capsys.readouterr().out

    def test_missing_checkpoint_exits_3(self, tmp_path):
        rc = main(["fold", "--ckpt", str(tmp_path / "no.ckpt"),
                   "--out", str(tmp_path / "o.ckpt")])
        assert rc == 3

    def test_directory_out_exits_3(self, trained, tmp_path, capsys):
        assert main(["fold", "--ckpt", trained["ckpt"], "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("error: ")


class TestErfCommand:
    def test_writes_map_and_radius(self, trained, tmp_path, capsys):
        out = tmp_path / "erf"
        rc = main(["erf", "--ckpt", trained["ckpt"], "--layer", "6",
                   "--samples", "4", "--out", str(out), "--seed", "1"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert printed.startswith("erf_radius ")
        radius = float(printed.split()[1])
        assert radius > 0
        grid = np.loadtxt(str(out / "erf_layer6.csv"), delimiter=",", ndmin=2)
        assert grid.shape == (32, 32)
        assert grid.max() == 1.0
        meta = json.loads((out / "erf_layer6.json").read_text())
        assert meta["radius"] == radius
        assert (out / "erf_layer6.pgm").exists()

    def test_bad_layer_index_exits_2(self, trained, tmp_path, capsys):
        rc = main(["erf", "--ckpt", trained["ckpt"], "--layer", "99",
                   "--samples", "2", "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_negative_seed_exits_2(self, trained, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main(["erf", "--ckpt", trained["ckpt"], "--layer", "2",
                   "--samples", "2", "--out", str(out), "--seed", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err
        assert not out.exists()

    def test_file_as_out_dir_exits_3(self, trained, tmp_path, capsys):
        out = tmp_path / "file"
        out.write_text("")
        rc = main(["erf", "--ckpt", trained["ckpt"], "--layer", "0",
                   "--samples", "1", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: ")


class TestMaskDumpCommand:
    def test_dumps_every_masked_layer(self, trained, tmp_path, capsys):
        out = tmp_path / "masks"
        assert main(["mask-dump", "--ckpt", trained["ckpt"], "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["layers"]) == 4
        for entry in manifest["layers"]:
            assert (out / entry["csv"]).exists()
            assert (out / entry["pgm"]).exists()

    def test_file_as_out_dir_exits_3(self, trained, tmp_path, capsys):
        out = tmp_path / "file"
        out.write_text("")
        assert main(["mask-dump", "--ckpt", trained["ckpt"], "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: ")


# (path into the header, new value); DELETE removes the key
HEADER_MUTATIONS = [
    ((), []),
    (("tensors",), DELETE),
    (("spec",), DELETE),
    (("epoch",), DELETE),
    (("rng_state",), DELETE),
    (("rng_state",), {}),
    (("rng_state", "state"), 5),
    (("rng_state", "uinteger"), -1),
    (("epoch",), "1"),
    (("tensors",), {}),
    (("tensors", 0), "param:x"),
    (("tensors", 0, "name"), 7),
    (("tensors", 0, "offset"), DELETE),
    (("tensors", 0, "offset"), 10**9),
    (("tensors", 0, "offset"), -8),
    (("tensors", 0, "offset"), 0.0),
    (("tensors", 0, "shape"), [-1]),
    (("tensors", 0, "shape"), [2.5]),
    (("tensors", 0, "shape"), 4),
    (("spec", "layers", 0, "op"), "warp"),
    (("spec", "layers", 0, "op"), DELETE),
    (("spec", "layers"), DELETE),
    (("spec", "input_shape"), 7),
    (("spec", "layers", 0, "kernel_size"), 3.0),
    (("spec", "layers", 0, "padding"), -1),
    (("spec", "layers", 0, "sigma_init"), "5"),
    (("spec", "layers", 0, "sigma_init"), -1),
    (("spec", "layers", 9, "out_features"), 10.0),
]

# mutations of a saved resnet20-slim, whose spec has residual blocks, each
# a list of header edits: a block whose stride is not its first conv's
# stride, and branches that keep every parameter shape but cannot be added
# to their shortcut (a padding that moves the identity's or the subsampled
# size; a stride-1 block that widens 4 -> 8 channels)
BLOCK_MUTATIONS = [
    [(("spec", "layers", 2, "stride"), 2)],
    [(("spec", "layers", 5, "inner", 0, "stride"), 1)],
    [(("spec", "layers", 3, "inner", 1, "padding"), 2)],
    [(("spec", "layers", 8, "inner", 0, "padding"), 0)],
    [(("spec", "layers", 5, "stride"), 1), (("spec", "layers", 5, "inner", 0, "stride"), 1)],
]


def _mutation_id(path, value):
    return ("/".join(map(str, path)) or "header") + ("=del" if value is DELETE else f"={value!r}")


@pytest.fixture(scope="module")
def resnet(tmp_path_factory):
    spec = apply_policy(build_model("resnet20-slim", 10, width=0.25), ConvPolicy("static", "static"))
    path = tmp_path_factory.mktemp("resnet") / "last.ckpt"
    save_checkpoint(checkpoint_from_model(Model(spec, np.random.default_rng(0))), str(path))
    return {"ckpt": str(path)}


@pytest.mark.parametrize(
    "source,edits",
    [("trained", [m]) for m in HEADER_MUTATIONS] + [("resnet", m) for m in BLOCK_MUTATIONS],
    ids=[_mutation_id(*m) for m in HEADER_MUTATIONS]
    + ["resnet:" + "&".join(_mutation_id(*e) for e in m) for m in BLOCK_MUTATIONS],
)
def test_malformed_checkpoint_header_exits_3(request, tmp_path, capsys, source, edits):
    with open(request.getfixturevalue(source)["ckpt"], "rb") as fh:
        raw = fh.read()
    capsys.readouterr()  # drop what the fixture's training run printed
    for path, value in edits:
        raw = mutated_header(raw, path, value)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw)
    rc = main(["mask-dump", "--ckpt", str(bad), "--out", str(tmp_path / "masks")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: ")
