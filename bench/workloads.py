"""The benchmark's workloads, each a set-up plus a repeatable timed op.

Every workload is closed loop with one caller: the runner starts the next
op only when the last one has returned. Inputs are synthetic and come
from the workload seed alone. Each op times only calls into gmconv's
public API and checks the outputs; a failed check raises `CheckFailed`.

Why these four:

* train-static: `train()` on a static-masked resnet20-slim. conv2d forward
  and backward are most of a step, so a conv-engine change shows here.
* train-dynamic: the same trainer on the all-dynamic model, which runs
  `conv2d_per_sample`, the per-sample weight tensor, batched elliptic
  masks and the sigma predictor instead. A gain on `conv2d` alone should
  mostly miss it.
* infer-fold: tape-free forward of a static model and of its folded twin
  on the same batch. No tape and no backward, so a backward or tape change
  should leave it unchanged; folded against unfolded throughput is the
  paper's "a folded mask costs nothing at inference" claim.
* erf-probe: `estimate_erf` with batch-1 probes, where per-op fixed cost
  outweighs FLOPs, and the only workload that covers `erf`.
"""

from __future__ import annotations

import importlib
import math
import os
import shutil
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

import gmconv
from gmconv.data import DatasetSource
from gmconv.models import ConvPolicy, Model, apply_policy, build_model
from gmconv.train import TrainConfig

# gmconv.train is shadowed on the package by the train() function, and the
# tracer patches module attributes, so traced calls go through these.
gm_train = importlib.import_module("gmconv.train")
gm_data = importlib.import_module("gmconv.data")
gm_ckpt = importlib.import_module("gmconv.checkpoint")
gm_erf = importlib.import_module("gmconv.erf")

# Inputs depend on the seed modulo this, so every seed has a value in
# reference.json to check against.
REFERENCE_SEEDS = 64
REL_TOL = 1e-9


@dataclass(frozen=True)
class Shapes:
    width: float
    batch: int
    train_samples: int
    test_samples: int
    infer_batch: int
    probes: int
    dgemm_n: int


FULL = Shapes(width=0.5, batch=128, train_samples=256, test_samples=128, infer_batch=256, probes=32, dgemm_n=1024)
SMOKE = Shapes(width=0.25, batch=4, train_samples=8, test_samples=4, infer_batch=4, probes=2, dgemm_n=64)


class CheckFailed(Exception):
    """An op returned an output that breaks one of its contracts."""


class Timing(NamedTuple):
    kind: str  # "main" or "folded"
    seconds: float
    samples: int


def _timed(fn, *args, **kwargs):
    t = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t


class Workload:
    """Base: `setup()` may run several times; `op(i)` returns its timings.

    `reference` maps a seed (as a string) to the recorded value of the
    workload's reference quantity; with `reference=None` the op records
    the value in `recorded` instead of checking it.
    """

    entry = ""  # span name of the timed public call, for trace coverage
    cycle = 1  # ops after which the workload repeats its kind of op

    def __init__(self, name: str, shapes: Shapes, seed: int, work_dir: str, reference: dict | None):
        self.name = name
        self.shapes = shapes
        self.seed = seed % REFERENCE_SEEDS
        self.work_dir = work_dir
        self.reference = reference
        self.recorded: float | None = None

    def check_reference(self, what: str, value: float) -> None:
        if self.reference is None:
            self.recorded = value
            return
        want = self.reference.get(str(self.seed))
        if want is None:
            raise CheckFailed(f"no recorded {what} for seed {self.seed}")
        if not abs(value - want) <= REL_TOL * abs(want):
            raise CheckFailed(f"{what} {value!r} differs from the recorded {want!r}")

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> list[Timing]:
        raise NotImplementedError


class TrainWorkload(Workload):
    """One op is one `train()` call of one epoch with an `out_dir`, then
    the checkpoint checks and a folded evaluation of the written model."""

    entry = "train.train"

    def __init__(self, name, shapes, seed, work_dir, reference, mode: str):
        super().__init__(name, shapes, seed, work_dir, reference)
        self.mode = mode

    def setup(self) -> None:
        s = self.shapes
        # optimiser recipe of configs/cifar10-resnet20-gmconv.json; its
        # milestones lie beyond the single epoch and are dropped
        self.config = TrainConfig(
            model="resnet20-slim",
            width=s.width,
            policy=ConvPolicy(stem_mode=self.mode, body_mode=self.mode, sigma_init=5.0, pattern="sigma_pair"),
            dataset="synthetic",
            normalization=((0.4914, 0.4822, 0.4465), (0.247, 0.2435, 0.2616)),
            train_subset=s.train_samples,
            test_subset=s.test_samples,
            augment="cifar-standard",
            epochs=1,
            batch_size=s.batch,
            lr=0.02,
            lr_decay=0.1,
            momentum=0.9,
            weight_decay=1e-4,
            seed=self.seed,
        )
        self.test_images, self.test_labels = gm_data.load_dataset(gm_train.split_source(self.config, "test"))
        self.out_dir = os.path.join(self.work_dir, f"{self.name}-{os.getpid()}")

    def op(self, i: int) -> list[Timing]:
        try:
            return self._train_and_check()
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)

    def _train_and_check(self) -> list[Timing]:
        (history, final), seconds = _timed(gm_train.train, self.config, out_dir=self.out_dir)
        timings = [Timing("main", seconds, self.config.epochs * self.config.train_subset)]

        for m in history:
            if not math.isfinite(m.train_loss):
                raise CheckFailed(f"epoch {m.epoch} train_loss is {m.train_loss!r}")
        self.check_reference("epoch-1 train_loss", history[0].train_loss)

        ckpt = gm_ckpt.load_checkpoint(os.path.join(self.out_dir, "last.ckpt"))
        model = gm_ckpt.restore_model(ckpt)
        restored = {n: t.data for n, t in model.named_parameters()}
        for got, what in ((ckpt.params, "last.ckpt"), (restored, "restored model")):
            if got.keys() != final.params.keys() or not all(
                np.array_equal(got[n], final.params[n]) for n in final.params
            ):
                raise CheckFailed(f"{what} params differ from the final checkpoint")

        # deploy the written model as users would: fold, then evaluate
        model.fold()
        acc, seconds = _timed(gm_train.evaluate_model, model, self.test_images, self.test_labels)
        if acc != history[-1].test_acc:
            raise CheckFailed(f"folded test accuracy {acc} differs from the trainer's {history[-1].test_acc}")
        timings.append(Timing("folded", seconds, len(self.test_images)))
        return timings


def probe_model(width: float, seed: int) -> Model:
    """A static resnet20-slim whose every weight is drawn from the seed.

    The identity-start zeros of each block's second conv are replaced by
    draws at the scale of the block's first conv, so every layer shapes
    the logits and the receptive field.
    """
    spec = apply_policy(build_model("resnet20-slim", 10, width), ConvPolicy(stem_mode="static", body_mode="static"))
    rng = np.random.default_rng(seed)
    model = Model(spec, rng)
    blocks = sum(1 for layer in spec.layers if layer.op == "block")
    for name, t in model.named_parameters():
        if name.endswith("weight") and not t.data.any():
            fan_in = math.prod(t.data.shape[1:])
            t.data[...] = rng.normal(0.0, math.sqrt(2.0 / fan_in / blocks), size=t.data.shape)
    return model


class TwinWorkload(Workload):
    """Even ops use a static model from `probe_model`, odd ops its
    `Model.fold()` twin; the two must give bit-identical outputs."""

    cycle = 2

    def setup(self) -> None:
        self.model = probe_model(self.shapes.width, self.seed)
        self.twin = probe_model(self.shapes.width, self.seed)
        if self.twin.fold() < 1:
            raise CheckFailed("the static model folded no layers")

    def pick(self, i: int):
        folded = i % 2 == 1
        return folded, self.twin if folded else self.model


class InferFoldWorkload(TwinWorkload):
    """Tape-free forward of one batch; folded logits must equal unfolded."""

    entry = "models.Model.forward"
    logits: np.ndarray | None = None  # of the last unfolded op, kept across set-ups

    def setup(self) -> None:
        super().setup()
        src = DatasetSource("synthetic", split="test", num_samples=self.shapes.infer_batch, seed=self.seed)
        self.batch, _ = gm_data.load_dataset(src)

    def op(self, i: int) -> list[Timing]:
        folded, model = self.pick(i)
        out, seconds = _timed(model.forward, gmconv.Tensor(self.batch))
        logits = out.data
        if not np.isfinite(logits).all():
            raise CheckFailed("non-finite logits")
        if folded or self.logits is not None:
            if not np.array_equal(logits, self.logits):
                what = "folded" if folded else "repeated unfolded"
                raise CheckFailed(f"{what} logits differ from the unfolded logits")
        self.logits = logits
        return [Timing("folded" if folded else "main", seconds, len(self.batch))]


class ErfProbeWorkload(TwinWorkload):
    """`estimate_erf` with the same noise probes on every op; the folded
    map must equal the unfolded one."""

    entry = "erf.estimate_erf"
    values: np.ndarray | None = None  # of the last unfolded op, kept across set-ups

    def setup(self) -> None:
        super().setup()
        # the central unit of the last residual block
        self.layer = [i for i, layer in enumerate(self.model.spec.layers) if layer.op == "block"][-1]

    def op(self, i: int) -> list[Timing]:
        folded, model = self.pick(i)
        rng = np.random.default_rng([self.seed, 1])
        erf, seconds = _timed(gm_erf.estimate_erf, model, self.layer, self.shapes.probes, rng=rng)
        v = erf.values
        if not (np.isfinite(v).all() and (v >= 0).all() and v.max() == 1.0):
            raise CheckFailed("ERF map is not finite, non-negative and peaked at exactly 1")
        if folded:
            if not np.array_equal(v, self.values):
                raise CheckFailed("folded ERF map differs from the unfolded map")
        else:
            self.check_reference("erf_radius", gm_erf.erf_radius(erf))
            self.values = v
        return [Timing("folded" if folded else "main", seconds, self.shapes.probes)]


WORKLOADS = ("train-static", "train-dynamic", "infer-fold", "erf-probe")
REFERENCED = ("train-static", "train-dynamic", "erf-probe")


def make(name: str, shapes: Shapes, seed: int, work_dir: str, reference: dict | None) -> Workload:
    if name == "train-static":
        return TrainWorkload(name, shapes, seed, work_dir, reference, "static")
    if name == "train-dynamic":
        return TrainWorkload(name, shapes, seed, work_dir, reference, "dynamic")
    if name == "infer-fold":
        return InferFoldWorkload(name, shapes, seed, work_dir, reference)
    if name == "erf-probe":
        return ErfProbeWorkload(name, shapes, seed, work_dir, reference)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
