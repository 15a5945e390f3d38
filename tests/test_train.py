"""Training loop, schedules, metrics, and evaluation."""

import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import gmconv
import gmconv.train as train_module
from gmconv.checkpoint import load_checkpoint, restore_model
from gmconv.data import CIFAR_TEST_FILES, CIFAR_TRAIN_FILES, DATASET_IDS, DataError, load_dataset
from gmconv.masks import SIGMA_MAX, SIGMA_MIN
from gmconv.models import ConvPolicy, LayerSpec, Model, ModelSpec, build_model
from gmconv.tensor import Tensor
from gmconv.train import (
    ConfigError,
    EpochMetrics,
    TrainConfig,
    build_run_model,
    config_from_json,
    config_to_json,
    effective_lr,
    evaluate,
    evaluate_model,
    load_config,
    metrics_to_csv,
    split_source,
    train,
)

SMOKE = TrainConfig(
    model="cnn-small",
    num_classes=10,
    width=1.0,
    policy=ConvPolicy("static", "static", sigma_init=5.0),
    dataset="synthetic",
    train_subset=256,
    test_subset=128,
    augment="none",
    epochs=20,
    batch_size=64,
    lr=0.1,
    milestones=(12, 16),
    lr_decay=0.1,
    momentum=0.9,
    weight_decay=1e-4,
    seed=0,
)

TINY = replace(SMOKE, train_subset=64, test_subset=32, epochs=3, batch_size=32, milestones=())


@pytest.fixture(scope="module")
def smoke_run():
    return train(SMOKE)


class TestConfig:
    def test_json_roundtrip(self):
        cfg = replace(
            SMOKE,
            policy=ConvPolicy("dynamic", "static", sigma_init=2.0, pattern="sigma_ratio"),
            normalization=((0.5, 0.5, 0.5), (0.2, 0.2, 0.2)),
            milestones=(4, 9),
        )
        assert config_from_json(config_to_json(cfg)) == cfg

    def test_defaults_are_desk_scale(self):
        cfg = TrainConfig()
        assert (cfg.train_subset, cfg.test_subset) == (5000, 1000)
        assert cfg.epochs == 20
        assert cfg.width == 0.5
        assert cfg.model == "resnet20-slim"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            config_from_json('{"learning_rate": 0.1}')
        assert "learning_rate" in str(err.value)

    def test_unknown_policy_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_json('{"policy": {"mode": "static"}}')

    def test_invalid_json(self):
        with pytest.raises(ConfigError):
            config_from_json("{not json")
        with pytest.raises(ConfigError):
            config_from_json("[1, 2]")

    def test_milestone_validation(self):
        with pytest.raises(ConfigError):
            replace(TINY, milestones=(2, 2))
        with pytest.raises(ConfigError):
            replace(TINY, milestones=(3,))  # must stay below epochs
        with pytest.raises(ConfigError):
            replace(TINY, milestones=(0,))

    def test_rate_validation(self):
        with pytest.raises(ConfigError):
            replace(TINY, lr=-0.1)
        with pytest.raises(ConfigError):
            replace(TINY, momentum=1.0)
        with pytest.raises(ConfigError):
            replace(TINY, weight_decay=-1e-4)
        with pytest.raises(ConfigError):
            replace(TINY, lr_decay=0.0)
        replace(TINY, lr=0.0)  # zero rate is a legal null update

    def test_dataset_validation(self):
        with pytest.raises(ConfigError):
            replace(TINY, dataset="imagenet")
        with pytest.raises(ConfigError):
            replace(TINY, dataset="synthetic", train_subset=0)
        with pytest.raises(ConfigError):
            replace(TINY, augment="mixup")

    def test_unknown_model_rejected_at_load(self):
        with pytest.raises(ConfigError) as err:
            config_from_json('{"model": "resnet-50"}')
        assert all(name in str(err.value) for name in ("cnn-small", "resnet20-slim", "alexnet-lite"))

    def test_dynamic_policy_width_must_clear_the_layer_floor(self):
        """A policy that makes dynamic layers takes only the widths they
        take, so the config fails when it loads, not when it trains."""
        with pytest.raises(ValueError, match="sigma_init"):
            config_from_json('{"policy": {"stem_mode": "dynamic", "sigma_init": 0.05}}')
        cfg = config_from_json('{"policy": {"stem_mode": "static", "sigma_init": 0.05}}')
        assert cfg.policy == ConvPolicy("static", "static", sigma_init=0.05)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "none.json"))

    def test_load_config_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(config_to_json(TINY))
        assert load_config(str(p)) == TINY

    def test_normalization_shape_rejected(self):
        with pytest.raises(ConfigError):
            config_from_json('{"normalization": [[0.5, 0.5, 0.5]]}')
        # well typed, but two stats for three channels: refused at load, not in train()
        with pytest.raises(ConfigError, match="normalization"):
            config_from_json('{"normalization": [[0.5, 0.5], [0.2, 0.2]]}')


def test_a_run_builds_its_spec_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_model(*args, **kwargs)

    monkeypatch.setattr(train_module, "build_model", counted)
    train(replace(TINY, epochs=1))
    assert len(calls) == 1


class TestSchedule:
    def test_step_decay_at_milestones(self):
        cfg = replace(SMOKE, epochs=6, milestones=(2, 4), lr=0.1, lr_decay=0.1)
        got = [effective_lr(cfg, e) for e in range(1, 7)]
        np.testing.assert_allclose(got, [0.1, 0.01, 0.01, 0.001, 0.001, 0.001])

    def test_no_milestones_is_constant(self):
        cfg = replace(SMOKE, milestones=())
        assert {effective_lr(cfg, e) for e in range(1, 21)} == {0.1}

    def test_custom_decay_factor(self):
        cfg = replace(SMOKE, epochs=4, milestones=(2,), lr=1.0, lr_decay=0.5)
        assert effective_lr(cfg, 3) == 0.5


class TestMetricsCsv:
    def test_format(self):
        history = [
            EpochMetrics(1, 2.5, 0.125, (5.0, 4.75)),
            EpochMetrics(2, 1.25, 0.25, (4.5, 4.25)),
        ]
        text = metrics_to_csv(history)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,train_loss,test_acc,sigma_0,sigma_1"
        assert lines[1] == "1,2.5,0.125,5,4.75"
        assert len(lines) == 3

    def test_17_digit_floats_roundtrip(self):
        loss = 1.0 / 3.0
        text = metrics_to_csv([EpochMetrics(1, loss, 0.5, ())])
        cell = text.strip().split("\n")[1].split(",")[1]
        assert float(cell) == loss

    def test_no_sigma_columns_for_plain_model(self):
        text = metrics_to_csv([EpochMetrics(1, 1.0, 0.5, ())])
        assert text.startswith("epoch,train_loss,test_acc\n")


class TestNullUpdate:
    def test_lr_zero_leaves_parameters_at_init(self):
        cfg = replace(TINY, lr=0.0, epochs=1)
        rng = np.random.default_rng(cfg.seed)
        init = {
            n: t.data.copy()
            for n, t in build_run_model(cfg, rng).named_parameters()
        }
        history, ckpt = train(cfg)
        for name, arr in ckpt.params.items():
            np.testing.assert_array_equal(arr, init[name])

    def test_lr_zero_accuracy_equals_init_accuracy(self):
        cfg = replace(TINY, lr=0.0, epochs=1)
        model = build_run_model(cfg, np.random.default_rng(cfg.seed))
        images, labels = load_dataset(split_source(cfg, "test"))
        init_acc = evaluate_model(model, images, labels)
        history, _ = train(cfg)
        assert history[0].test_acc == init_acc


class TestDeterminism:
    def test_same_seed_same_logs(self):
        cfg = replace(TINY, epochs=2, augment="cifar-standard")
        h1, c1 = train(cfg)
        h2, c2 = train(cfg)
        assert metrics_to_csv(h1) == metrics_to_csv(h2)
        for name in c1.params:
            np.testing.assert_array_equal(c1.params[name], c2.params[name])

    def test_different_seeds_differ(self):
        h1, _ = train(replace(TINY, epochs=1))
        h2, _ = train(replace(TINY, epochs=1, seed=1))
        assert h1[0].train_loss != h2[0].train_loss


class TestResume:
    def test_resume_matches_straight_run_bitwise(self):
        cfg = replace(TINY, epochs=3, augment="cifar-standard")
        straight, final = train(cfg)
        _, mid = train(replace(cfg, epochs=2))
        resumed, final2 = train(cfg, resume=mid)

        assert len(resumed) == 1
        assert resumed[0] == straight[2]  # bit-identical floats and sigmas
        for name in final.params:
            np.testing.assert_array_equal(final.params[name], final2.params[name])
        assert final.rng_state == final2.rng_state

    def test_resume_roundtrips_through_disk(self, tmp_path):
        cfg = replace(TINY, epochs=3)
        straight, _ = train(cfg)
        train(replace(cfg, epochs=2), out_dir=str(tmp_path))
        mid = load_checkpoint(str(tmp_path / "last.ckpt"))
        resumed, _ = train(cfg, resume=mid)
        assert resumed[0] == straight[2]

    def test_resume_spec_mismatch_rejected(self):
        _, ckpt = train(replace(TINY, epochs=1))
        with pytest.raises(ConfigError):
            train(replace(TINY, epochs=2, policy=ConvPolicy("std", "std")), resume=ckpt)

    @pytest.mark.parametrize(
        "mutate, culprit",
        [
            (lambda c: c.params.pop("layer0.bias"), "layer0.bias"),
            (lambda c: c.params.update({"layer9.extra": np.zeros(1)}), "layer9.extra"),
            (lambda c: c.momentum.update({"layer9.extra": np.zeros(1)}), "layer9.extra"),
            (lambda c: c.params.update({"layer0.bias": np.zeros(99)}), "layer0.bias"),
        ],
        ids=["missing-param", "extra-param", "extra-momentum", "wrong-shape"],
    )
    def test_resume_rejects_mismatched_tensors(self, mutate, culprit):
        _, ckpt = train(replace(TINY, epochs=1))
        mutate(ckpt)
        with pytest.raises(DataError, match=re.escape(culprit)):
            train(replace(TINY, epochs=2), resume=ckpt)

    def test_resume_beyond_config_rejected(self):
        _, ckpt = train(replace(TINY, epochs=1))
        with pytest.raises(ConfigError):
            train(replace(TINY, epochs=1), resume=ckpt)


class TestOutputs:
    def test_out_dir_has_metrics_and_checkpoint(self, tmp_path):
        cfg = replace(TINY, epochs=2)
        history, final = train(cfg, out_dir=str(tmp_path))
        assert (tmp_path / "metrics.csv").read_text() == metrics_to_csv(history)
        saved = load_checkpoint(str(tmp_path / "last.ckpt"))
        assert saved.epoch == 2
        for name in final.params:
            np.testing.assert_array_equal(saved.params[name], final.params[name])

    def test_history_covers_every_epoch(self):
        history, _ = train(replace(TINY, epochs=3))
        assert [m.epoch for m in history] == [1, 2, 3]

    def test_blas_thread_count_changes_no_byte(self, tmp_path):
        """One epoch of a synthetic resnet20-slim at width 0.25, static and
        all-dynamic, trained by `gmconv train` in child processes under one
        and under two OpenBLAS threads: each pair writes byte-identical
        metrics.csv and last.ckpt."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(gmconv.__file__)))
        for mode in ("static", "dynamic"):
            cfg = replace(TINY, model="resnet20-slim", width=0.25, epochs=1,
                          policy=ConvPolicy(mode, mode))
            config = tmp_path / f"{mode}.json"
            config.write_text(config_to_json(cfg))
            outs = []
            for threads in ("1", "2"):
                outs.append(tmp_path / f"{mode}-{threads}")
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                           PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
                proc = subprocess.run(
                    [sys.executable, "-m", "gmconv.cli", "train", "--config", str(config),
                     "--out", str(outs[-1])],
                    env=env, capture_output=True, text=True, timeout=120,
                )
                assert proc.returncode == 0, proc.stderr
            for name in ("metrics.csv", "last.ckpt"):
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (mode, name)


class TestDivergenceAbort:
    def test_nan_loss_aborts_with_diagnostic(self):
        cfg = replace(TINY, lr=1e12, epochs=2, weight_decay=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError) as err:
                train(cfg)
        msg = str(err.value)
        assert "diverged" in msg
        assert "epoch" in msg

    @pytest.mark.parametrize("culprit", ["loss", "layer0.sigma"])
    def test_crash_checkpoint_is_the_epoch_start_state(self, culprit, tmp_path, monkeypatch):
        """A NaN loss at epoch 2, batch 1, or a NaN sigma after the step of
        epoch 2, batch 0, aborts at that step; crash.ckpt then equals the
        last.ckpt written at the end of epoch 1 byte for byte."""
        calls = []
        real_loss, real_step = train_module.softmax_cross_entropy, train_module.sgd_step

        def nan_loss(*args, **kwargs):
            calls.append(None)
            loss = real_loss(*args, **kwargs)
            return Tensor(np.nan) if len(calls) == 4 else loss

        def nan_sigma(params, *args):
            real_step(params, *args)
            calls.append(None)
            if len(calls) == 3:
                dict(params)["layer0.sigma"].data[...] = np.nan

        if culprit == "loss":
            monkeypatch.setattr(train_module, "softmax_cross_entropy", nan_loss)
        else:
            monkeypatch.setattr(train_module, "sgd_step", nan_sigma)
        with pytest.raises(FloatingPointError) as err:
            train(TINY, out_dir=str(tmp_path))
        batch = 1 if culprit == "loss" else 0
        assert f"diverged: {culprit} nan at epoch 2, batch {batch}" in str(err.value)
        assert (tmp_path / "crash.ckpt").read_bytes() == (tmp_path / "last.ckpt").read_bytes()
        assert load_checkpoint(str(tmp_path / "crash.ckpt")).epoch == 1


    def test_non_finite_evaluation_aborts(self, tmp_path):
        """One step at lr 1e300 leaves finite weights near 1e300 and a finite
        loss, but every forward then overflows: the end-of-epoch evaluation
        aborts the run, which keeps the epoch-start state as crash.ckpt."""
        cfg = replace(SMOKE, lr=1e300, epochs=1, milestones=(), train_subset=64,
                      batch_size=64, policy=ConvPolicy("std", "std"))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="diverged: evaluation after epoch 1"):
                train(cfg, out_dir=str(tmp_path))
        assert not (tmp_path / "last.ckpt").exists()
        ckpt = load_checkpoint(str(tmp_path / "crash.ckpt"))
        assert ckpt.epoch == 0
        initial = build_run_model(cfg, np.random.default_rng(cfg.seed))
        for name, t in restore_model(ckpt).named_parameters():
            np.testing.assert_array_equal(t.data, dict(initial.named_parameters())[name].data)


class TestSmokeRun:
    """One real 20-epoch run on separable synthetic data, shared below."""

    def test_memorizes_separable_data(self, smoke_run):
        history, ckpt = smoke_run
        model = restore_model(ckpt)
        images, labels = load_dataset(split_source(SMOKE, "train"))
        assert evaluate_model(model, images, labels) >= 0.99

    def test_sigma_trajectory_logged_and_clamped(self, smoke_run):
        history, _ = smoke_run
        assert all(len(m.sigmas) == 4 for m in history)  # 4 static convs
        for m in history:
            for s in m.sigmas:
                assert SIGMA_MIN <= s <= SIGMA_MAX
                assert np.isfinite(s)

    def test_sigma_actually_moves(self, smoke_run):
        history, _ = smoke_run
        first = np.array(history[0].sigmas)
        last = np.array(history[-1].sigmas)
        assert np.any(last != first)

    def test_loss_decreases_overall(self, smoke_run):
        history, _ = smoke_run
        assert history[-1].train_loss < history[0].train_loss

    def test_evaluate_checkpoint_matches_logged_accuracy(self, smoke_run):
        history, ckpt = smoke_run
        acc = evaluate(ckpt, split_source(SMOKE, "test"))
        assert acc == history[-1].test_acc


def tiny_eval_model(seed=0):
    spec = ModelSpec(
        "tiny",
        10,
        (3, 16, 16),
        (
            LayerSpec(op="conv", role="stem", in_channels=3, out_channels=8,
                      kernel_size=3, stride=2, padding=1),
            LayerSpec(op="pool", role="head", pool_mode="avg"),
            LayerSpec(op="dense", role="head", in_features=8, out_features=10),
        ),
    )
    return Model(spec, np.random.default_rng(seed))


class TestEvaluate:
    def test_perfect_memorization_is_100_percent(self):
        model = tiny_eval_model()
        images = np.random.default_rng(0).normal(size=(40, 3, 16, 16))
        labels = model.predict(Tensor(images))
        assert evaluate_model(model, images, labels) == 1.0

    def test_random_predictor_near_chance(self):
        """Labels drawn independently of the model make every prediction a
        1-in-10 bet, so accuracy concentrates near 10% over 5000 samples."""
        model = tiny_eval_model(seed=3)
        rng = np.random.default_rng(11)
        images = rng.normal(size=(5000, 3, 16, 16))
        labels = rng.integers(0, 10, size=5000)
        acc = evaluate_model(model, images, labels)
        assert 0.08 <= acc <= 0.12

    def test_fold_keeps_predictions_bit_for_bit(self):
        cfg = replace(TINY, epochs=1)
        _, ckpt = train(cfg)
        model = restore_model(ckpt)
        images, labels = load_dataset(split_source(cfg, "test"))
        before = model.predict(Tensor(images))
        acc_before = evaluate_model(model, images, labels)
        assert model.fold() == 4
        after = model.predict(Tensor(images))
        np.testing.assert_array_equal(before, after)
        assert evaluate_model(model, images, labels) == acc_before

    def test_label_space_mismatch_rejected(self):
        model = tiny_eval_model()
        images = np.zeros((4, 3, 16, 16))
        with pytest.raises(ValueError):
            evaluate_model(model, images, np.array([0, 1, 2, 17]))

    @pytest.mark.parametrize(
        "labels",
        [[0, 1, -1, 2, 3], [0], [[0]] * 5, [0.0] * 5],
        ids=["negative", "one-for-five", "column", "float"],
    )
    def test_label_rule_violations_rejected(self, labels):
        """One integer label per image, each below the head width: a
        single label or an N x 1 column must not broadcast against the
        predictions."""
        with pytest.raises(ValueError, match="labels"):
            evaluate_model(tiny_eval_model(), np.zeros((5, 3, 16, 16)), np.array(labels))

    def test_batching_does_not_change_the_answer(self):
        model = tiny_eval_model()
        rng = np.random.default_rng(5)
        images = rng.normal(size=(30, 3, 16, 16))
        labels = rng.integers(0, 10, size=30)
        a = evaluate_model(model, images, labels, batch_size=7)
        b = evaluate_model(model, images, labels, batch_size=256)
        assert a == b

    def test_non_finite_logits_raise(self):
        """Overflowing logits have an all-NaN or inf argmax of 0; they must
        not count as class-0 predictions."""
        model = tiny_eval_model()
        for _, t in model.named_parameters():
            t.data *= 1e300
        images = np.random.default_rng(0).normal(size=(4, 3, 16, 16))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="logits are not finite"):
                evaluate_model(model, images, np.zeros(4, dtype=int))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            evaluate_model(tiny_eval_model(), np.zeros((0, 3, 16, 16)), np.zeros(0, dtype=int))


class TestCompatibilityChecks:
    def test_label_overflow_rejected(self, tmp_path):
        """A dataset whose labels exceed the configured head width is a
        config problem (for example CIFAR-100 files with num_classes=10)."""
        from test_data import write_cifar_batch

        for name in ("train.bin", "test.bin"):
            write_cifar_batch(str(tmp_path / name), 4, label_bytes=2, label_fn=[0, 5, 99, 1].__getitem__)
        cfg = replace(TINY, width=0.25, dataset="cifar100-bin", data_root=str(tmp_path), num_classes=10)
        with pytest.raises(ConfigError) as err:
            train(cfg)
        assert "99" in str(err.value)

    def test_cifar_root_missing_raises_data_error(self, tmp_path):
        from gmconv.data import DataError

        cfg = replace(TINY, dataset="cifar10-bin", data_root=str(tmp_path))
        with pytest.raises(DataError):
            train(cfg)

    @pytest.mark.parametrize("dataset", DATASET_IDS)
    def test_every_dataset_id_trains(self, tmp_path, dataset):
        """Every listed dataset feeds a zoo model: one epoch of cnn-small
        over tiny fixture files (none for the synthetic generator)."""
        from test_data import write_cifar_batch

        if dataset == "cifar10-bin":
            for name in CIFAR_TRAIN_FILES + CIFAR_TEST_FILES:
                write_cifar_batch(str(tmp_path / name), 4)
        elif dataset == "cifar100-bin":
            for name in ("train.bin", "test.bin"):
                write_cifar_batch(str(tmp_path / name), 4, label_bytes=2)
        cfg = replace(TINY, width=0.25, dataset=dataset, data_root=str(tmp_path), epochs=1)
        history, ckpt = train(cfg)
        assert len(history) == 1 and ckpt.epoch == 1
        assert np.isfinite(history[0].train_loss)

    def test_trains_on_cifar_format_files(self, tmp_path):
        """End-to-end run over a miniature directory in the CIFAR-10
        binary layout, through normalization and cropping augmentation."""
        from test_data import write_cifar_batch

        for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
            write_cifar_batch(str(tmp_path / name), 8)
        cfg = TrainConfig(
            model="cnn-small",
            policy=ConvPolicy("static", "static"),
            dataset="cifar10-bin",
            data_root=str(tmp_path),
            normalization=((0.49, 0.48, 0.45), (0.25, 0.24, 0.26)),
            train_subset=0,
            test_subset=0,
            augment="cifar-standard",
            epochs=1,
            batch_size=16,
            lr=0.05,
            seed=0,
        )
        history, ckpt = train(cfg)
        assert len(history) == 1
        assert np.isfinite(history[0].train_loss)
        assert 0.0 <= history[0].test_acc <= 1.0
        assert ckpt.epoch == 1
