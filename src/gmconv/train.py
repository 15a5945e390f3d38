"""Minibatch SGD training, evaluation, and run configuration.

The recipe is classical heavy-ball momentum with step-decayed learning
rate: v <- momentum * v + g, theta <- theta - lr * v. Weight decay is
added to the gradient of convolution and dense weights only; sigma
values, sigma-predictor weights, and biases are left undecayed so the
receptive-field parameters follow the loss alone.

Determinism contract: one generator is seeded from config.seed and owns
model initialization, epoch shuffling, and augmentation draws, in that
order. Its state is stored in every checkpoint, so a resumed run
consumes exactly the stream a straight-through run would have.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .checkpoint import (
    Checkpoint,
    checkpoint_from_model,
    load_arrays,
    restore_model,
    save_checkpoint,
)
from .data import DataError, DatasetSource, augment_batch, load_dataset
from .masks import clamp_sigma
from .models import (
    INPUT_SHAPE,
    ConvPolicy,
    Model,
    apply_policy,
    build_model,
    check_field_types,
    check_net,
    known_keys,
    spec_to_json,
)
from .tensor import GradTape, Tensor, check_labels, softmax_cross_entropy

AUGMENT_MODES = ("none", "cifar-standard")


class ConfigError(ValueError):
    """A run configuration that cannot be executed as written."""


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run depends on, JSON-serializable.

    `train_subset`/`test_subset` cap the split sizes (0 keeps every
    record of a file dataset); for the synthetic dataset they are the
    generated sample counts. Images take the model's input shape.
    Milestones are 1-based epoch numbers; an epoch equal to a milestone
    already runs at the decayed rate.
    """

    model: str = "resnet20-slim"
    num_classes: int = 10
    width: float = 0.5
    policy: ConvPolicy = ConvPolicy()
    dataset: str = "cifar10-bin"
    data_root: str = ""
    normalization: tuple[tuple[float, ...], tuple[float, ...]] | None = None
    train_subset: int = 5000
    test_subset: int = 1000
    augment: str = "none"
    epochs: int = 20
    batch_size: int = 128
    lr: float = 0.1
    milestones: tuple[int, ...] = ()
    lr_decay: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self, ConfigError)
        try:
            check_net(self.model, self.width)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        if self.augment not in AUGMENT_MODES:
            raise ConfigError(f"augment must be one of {AUGMENT_MODES}, got {self.augment!r}")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.lr < 0:
            raise ConfigError("lr must be >= 0")
        if self.lr_decay <= 0:
            raise ConfigError("lr_decay must be > 0")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        ms = self.milestones
        if any(ms[i] >= ms[i + 1] for i in range(len(ms) - 1)):
            raise ConfigError(f"milestones must be strictly increasing, got {ms}")
        if any(m < 1 or m >= self.epochs for m in ms):
            raise ConfigError(f"milestones must lie in [1, epochs), got {ms}")
        # the data source owns the dataset id, seed, subset and stats rules
        try:
            for split in ("train", "test"):
                split_source(self, split)
        except (ValueError, DataError) as err:
            raise ConfigError(f"{split} split: {err}") from err
        if self.dataset == "synthetic" and (self.train_subset < 1 or self.test_subset < 1):
            raise ConfigError("synthetic dataset needs positive subset sizes")


def config_to_json(config: TrainConfig) -> str:
    return json.dumps(asdict(config), indent=2, sort_keys=True)


def config_from_json(text: str) -> TrainConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    names = [f.name for f in fields(TrainConfig)]
    kwargs = {k: _tuples(v) for k, v in known_keys(raw, names, "config", ConfigError).items()}
    if "policy" in kwargs:
        names = [f.name for f in fields(ConvPolicy)]
        kwargs["policy"] = ConvPolicy(**known_keys(kwargs["policy"], names, "policy", ConfigError))
    return TrainConfig(**kwargs)


def _tuples(value):
    """A JSON value with every list, nested ones included, as a tuple."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def load_config(path: str) -> TrainConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return config_from_json(text)


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    train_loss: float
    test_acc: float
    sigmas: tuple[float, ...] = ()


def metrics_to_csv(history: list[EpochMetrics]) -> str:
    """CSV with one row per epoch: epoch, train_loss, test_acc, then the
    clamped sigma of every static masked layer in network order."""
    n_sigma = len(history[0].sigmas) if history else 0
    header = ["epoch", "train_loss", "test_acc"] + [f"sigma_{i}" for i in range(n_sigma)]
    lines = [",".join(header)]
    for m in history:
        row = [str(m.epoch), "%.17g" % m.train_loss, "%.17g" % m.test_acc]
        row += ["%.17g" % s for s in m.sigmas]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def effective_lr(config: TrainConfig, epoch: int) -> float:
    """Step-decayed rate for a 1-based epoch number."""
    passed = sum(1 for m in config.milestones if m <= epoch)
    return config.lr * config.lr_decay**passed


# ---------------------------------------------------------------------------
# data plumbing


def split_source(config: TrainConfig, split: str) -> DatasetSource:
    """The split's source at ``INPUT_SHAPE``, the input of every zoo net;
    its count is the subset cap of a file dataset and the sample count of
    the synthetic one."""
    return DatasetSource(
        config.dataset,
        root=config.data_root,
        split=split,
        normalization=config.normalization,
        num_samples=config.train_subset if split == "train" else config.test_subset,
        num_classes=config.num_classes,
        image_shape=INPUT_SHAPE,
        seed=config.seed,
    )


# ---------------------------------------------------------------------------
# optimization


def sgd_step(
    params: list[tuple[str, Tensor]],
    momentum_buffers: dict[str, np.ndarray],
    decay_names: set[str],
    lr: float,
    momentum: float,
    weight_decay: float,
) -> None:
    """One heavy-ball update over every parameter, in place."""
    for name, t in params:
        g = t.grad
        if g is None:
            g = np.zeros_like(t.data)
        if weight_decay and name in decay_names:
            g = g + weight_decay * t.data
        buf = momentum_buffers[name]
        buf *= momentum
        buf += g
        t.data -= lr * buf


def build_run_model(config: TrainConfig, rng: np.random.Generator) -> Model:
    spec = build_model(config.model, config.num_classes, config.width)
    spec = apply_policy(spec, config.policy)
    return Model(spec, rng)


def train(
    config: TrainConfig,
    out_dir: str | None = None,
    resume: Checkpoint | None = None,
) -> tuple[list[EpochMetrics], Checkpoint]:
    """Run the full recipe; returns per-epoch metrics and the final state.

    With `out_dir`, metrics.csv and last.ckpt are rewritten after every
    epoch. A non-finite loss or static sigma raises FloatingPointError at
    the step where it appears, and so does a model whose end-of-epoch test
    logits are not finite; with `out_dir` it first writes crash.ckpt,
    the state at the start of that epoch (byte-identical to the previous
    epoch's last.ckpt). With `resume`, training continues from the
    checkpoint's epoch and generator state; the config must build the
    same spec.
    """
    rng = np.random.default_rng(config.seed)
    model = build_run_model(config, rng)

    train_images, train_labels = load_dataset(split_source(config, "train"))
    test_images, test_labels = load_dataset(split_source(config, "test"))
    # labels must fit the head, which CIFAR-100 files under num_classes=10 do not
    for split, images, labels in (("train", train_images, train_labels),
                                  ("test", test_images, test_labels)):
        try:
            check_labels(labels, len(images), config.num_classes)
        except ValueError as err:
            raise ConfigError(f"{split} split: {err}") from err

    params = model.named_parameters()
    param_tensors = [t for _, t in params]
    momentum_buffers = {n: np.zeros_like(t.data) for n, t in params}
    start_epoch = 0
    if resume is not None:
        if spec_to_json(resume.spec) != spec_to_json(model.spec):
            raise ConfigError("checkpoint spec does not match the configured model")
        load_arrays({n: t.data for n, t in params}, resume.params, "parameters")
        load_arrays(momentum_buffers, resume.momentum, "momentum buffers")
        rng.bit_generator.state = resume.rng_state
        start_epoch = resume.epoch
        if start_epoch >= config.epochs:
            raise ConfigError(
                f"checkpoint is already at epoch {start_epoch} of {config.epochs}"
            )

    decay_names = model.decay_parameter_names()
    sigma_items = model.static_sigma_items()
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    history: list[EpochMetrics] = []
    n = len(train_images)
    last_finite = float("nan")
    # the state at the start of the current epoch: what last.ckpt holds,
    # and what crash.ckpt gets if the epoch diverges
    saved = checkpoint_from_model(model, momentum_buffers, start_epoch, rng.bit_generator.state)
    for epoch in range(start_epoch + 1, config.epochs + 1):
        lr = effective_lr(config, epoch)
        perm = rng.permutation(n)
        loss_sum = 0.0
        for batch_index, start in enumerate(range(0, n, config.batch_size)):
            idx = perm[start : start + config.batch_size]
            batch = train_images[idx]
            if config.augment != "none":
                batch = augment_batch(batch, config.augment, rng)
            tape = GradTape(wrt=param_tensors)
            logits = model.forward(Tensor(batch), tape)
            loss = softmax_cross_entropy(logits, train_labels[idx], tape)
            if np.isfinite(loss.data):
                last_finite = float(loss.data)
                tape.backward(loss)
                sgd_step(params, momentum_buffers, decay_names, lr, config.momentum, config.weight_decay)
                loss_sum += float(loss.data) * len(idx)
            # a non-finite loss skips the step; a finite one may still push a sigma off
            for name, t in [("loss", loss), *sigma_items]:
                if not np.isfinite(t.data):
                    _diverged(saved, out_dir, f"{name} {float(t.data)!r} at epoch {epoch}, "
                              f"batch {batch_index} (lr={lr:g}, last finite loss {last_finite:g})")

        try:
            test_acc = evaluate_model(model, test_images, test_labels)
        except FloatingPointError as err:
            _diverged(saved, out_dir, f"evaluation after epoch {epoch} failed: {err} (lr={lr:g})")
        metrics = EpochMetrics(
            epoch=epoch,
            train_loss=loss_sum / n,
            test_acc=test_acc,
            sigmas=tuple(clamp_sigma(float(t.data)) for _, t in sigma_items),
        )
        history.append(metrics)
        saved = checkpoint_from_model(model, momentum_buffers, epoch, rng.bit_generator.state)
        if out_dir:
            save_checkpoint(saved, os.path.join(out_dir, "last.ckpt"))
            with open(os.path.join(out_dir, "metrics.csv"), "w", encoding="utf-8") as fh:
                fh.write(metrics_to_csv(history))

    return history, saved


def _diverged(saved: Checkpoint, out_dir: str | None, what: str):
    """Write the epoch-start state to crash.ckpt (with `out_dir`) and raise."""
    if out_dir:
        save_checkpoint(saved, os.path.join(out_dir, "crash.ckpt"))
    raise FloatingPointError(f"training diverged: {what}")


# ---------------------------------------------------------------------------
# evaluation


def evaluate_model(
    model: Model, images: np.ndarray, labels: np.ndarray, batch_size: int = 256
) -> float:
    """Top-1 accuracy over the whole array, batched, tape-free; non-finite
    logits raise FloatingPointError (see `Model.predict`)."""
    if len(images) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    labels = check_labels(labels, len(images), model.spec.num_classes)
    correct = 0
    for start in range(0, len(images), batch_size):
        pred = model.predict(Tensor(images[start : start + batch_size]))
        correct += int(np.sum(pred == labels[start : start + batch_size]))
    return correct / len(images)


def evaluate(ckpt: Checkpoint, src: DatasetSource) -> float:
    """Accuracy of a checkpointed model on a dataset split."""
    model = restore_model(ckpt)
    images, labels = load_dataset(src)
    return evaluate_model(model, images, labels)
