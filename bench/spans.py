"""Span tracing of gmconv from outside the package.

`Tracer.install` replaces gmconv's public entry points with timing
wrappers and `Tracer.uninstall` puts the originals back; nothing under
`src/` changes. Three kinds of wrapper are used:

* module functions are patched wherever a caller looks them up, so
  `gmconv.layers.conv2d` is replaced along with `gmconv.tensor.conv2d`
  (every gmconv module is scanned for the original function object);
* class methods (`Model.forward`, the masked layers' `forward`, ...) are
  patched on the class;
* `GradTape.record` wraps each backward closure in a span named after the
  op that recorded it (`conv2d.<locals>.backward` becomes
  `tensor.conv2d.bwd`), and `GradTape.backward` notes how many records
  and live output bytes the tape holds when it starts.

Every model built while the tracer is installed also gets per-instance
`forward` wrappers that set the current model layer name (`layer7`,
`layer7.conv1`); spans opened underneath carry that name, and backward
spans carry the name that was current when their op was recorded.

A span is `[name, start, end, parent, op, layer, extra]`: `parent` is the
index of the enclosing span (-1 at top level), `op` the benchmark op id
(-1 during set-up) and `extra` an op-specific number (multiply-accumulates
for convolutions, bytes for checkpoints). Spans stay in memory until the
benchmark writes them out once at the end.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import time

MODULES = ("tensor", "masks", "layers", "models", "train", "data", "checkpoint", "erf")

FUNCTIONS = {
    "tensor": (
        "conv2d",
        "conv2d_per_sample",
        "dense",
        "global_pool",
        "softmax_cross_entropy",
        "relu",
        "add",
        "mul",
        "softplus",
        "downsample_pad",
        "take_column",
        "concat_cols",
        "reshape",
        "tsum",
    ),
    "masks": (
        "circular_values",
        "circular_grad_values",
        "elliptic_values",
        "elliptic_grad_values",
        "elliptic_values_batch",
        "elliptic_grad_batch",
        "circular_mask",
        "elliptic_mask",
    ),
    "train": ("train", "sgd_step", "evaluate_model"),
    "data": ("load_dataset", "augment_batch"),
    "checkpoint": ("save_checkpoint", "load_checkpoint", "restore_model"),
    "erf": ("estimate_erf",),
}

METHODS = {
    ("layers", "StaticGMConvLayer"): ("forward",),
    ("layers", "DynamicGMConvLayer"): ("forward",),
    ("layers", "DynamicSigmaModule"): ("predict",),
    ("models", "Model"): ("__init__", "forward", "fold"),
}

POINTWISE = (
    "relu",
    "add",
    "mul",
    "softplus",
    "downsample_pad",
    "take_column",
    "concat_cols",
    "reshape",
    "tsum",
)

NAME, START, END, PARENT, OP, LAYER, EXTRA = range(7)


def _conv_macs(out, weight) -> int:
    """Multiply-accumulates of a convolution: output size times C*K*K."""
    return int(out.data.size) * math.prod(weight.data.shape[-3:])


def _call_arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


_EXTRA = {
    "tensor.conv2d": lambda a, kw, out: _conv_macs(out, _call_arg(a, kw, 1, "w")),
    "tensor.conv2d_per_sample": lambda a, kw, out: _conv_macs(out, _call_arg(a, kw, 1, "wb")),
    "checkpoint.save_checkpoint": lambda a, kw, out: os.path.getsize(_call_arg(a, kw, 1, "path")),
}


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self.layer = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str, extra=None, layer: str | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, time.perf_counter(), 0.0, parent, self.op, self.layer if layer is None else layer, extra]
        )
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _function(self, name: str, fn):
        tracer = self
        extra_of = _EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
                if extra_of is not None:
                    tracer.spans[idx][EXTRA] = extra_of(args, kwargs, out)
                return out
            finally:
                tracer.close(idx)

        return traced

    def _model_method(self, name: str, fn):
        """Model.__init__ / Model.fold: a span, then name the model's layers."""
        tracer = self

        @functools.wraps(fn)
        def traced(model, *args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(model, *args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.name_layers(model)
            return out

        return traced

    def _record(self, record):
        tracer = self

        @functools.wraps(record)
        def traced_record(tape, out, inputs, backward_fn):
            module = backward_fn.__module__.rsplit(".", 1)[-1]
            name = f"{module}.{backward_fn.__qualname__.split('.<locals>')[0]}.bwd"
            extra = None
            if name in ("tensor.conv2d.bwd", "tensor.conv2d_per_sample.bwd"):
                extra = _conv_macs(out, inputs[1])
            layer = tracer.layer

            def timed_backward(g):
                idx = tracer.open(name, extra, layer)
                try:
                    return backward_fn(g)
                finally:
                    tracer.close(idx)

            return record(tape, out, inputs, timed_backward)

        return traced_record

    def _backward(self, backward):
        tracer = self

        @functools.wraps(backward)
        def traced_backward(tape, *args, **kwargs):
            live = sum(rec[0].data.nbytes for rec in tape.records)
            idx = tracer.open("tensor.GradTape.backward", (len(tape.records), live))
            try:
                return backward(tape, *args, **kwargs)
            finally:
                tracer.close(idx)

        return traced_backward

    def name_layers(self, model) -> None:
        """Give each module of `model` an instance `forward` that sets the
        current layer name; blocks name their two convs as well."""
        for i, mod in enumerate(model.modules):
            self._name_module(mod, f"layer{i}")
            for attr in ("conv1", "conv2"):
                sub = getattr(mod, attr, None)
                if sub is not None:
                    self._name_module(sub, f"layer{i}.{attr}")

    def _name_module(self, mod, layer: str) -> None:
        tracer = self
        cls = type(mod)

        def forward(x, tape=None):
            outer = tracer.layer
            tracer.layer = layer
            try:
                return cls.forward(mod, x, tape)
            finally:
                tracer.layer = outer

        mod.forward = forward

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        owners = [importlib.import_module("gmconv")]
        owners += [importlib.import_module(f"gmconv.{m}") for m in MODULES]
        for module, names in FUNCTIONS.items():
            src = importlib.import_module(f"gmconv.{module}")
            for fn_name in names:
                orig = getattr(src, fn_name)
                traced = self._function(f"{module}.{fn_name}", orig)
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is orig:
                            self._patch(owner, attr, traced)
        for (module, cls_name), methods in METHODS.items():
            cls = getattr(importlib.import_module(f"gmconv.{module}"), cls_name)
            for meth in methods:
                name = f"{module}.{cls_name}.{meth.strip('_')}"
                orig = cls.__dict__[meth]
                if cls_name == "Model" and meth != "forward":
                    self._patch(cls, meth, self._model_method(name, orig))
                else:
                    self._patch(cls, meth, self._function(name, orig))
        tape_cls = importlib.import_module("gmconv.tensor").GradTape
        self._patch(tape_cls, "record", self._record(tape_cls.__dict__["record"]))
        self._patch(tape_cls, "backward", self._backward(tape_cls.__dict__["backward"]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def coverage(self, first: int, entry: str) -> tuple[float, float]:
        """(seconds covered by direct child spans, seconds) of the `entry`
        spans from index `first` on."""
        covered: dict[int, float] = {}
        for idx in range(first, len(self.spans)):
            s = self.spans[idx]
            if s[NAME] == entry:
                covered.setdefault(idx, 0.0)
            elif s[PARENT] in covered:
                covered[s[PARENT]] += s[END] - s[START]
        total = sum(self.spans[i][END] - self.spans[i][START] for i in covered)
        return sum(covered.values()), total

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics over the timed ops (spans with op id >= 0).

        `*_ms` and `*.calls` are per timed op, except `models.Model.init_ms`
        and `models.Model.fold_ms`, which are per call and include set-up.
        """
        own = self.self_times()
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        selft: dict[str, float] = {}
        extra: dict[str, float] = {}
        per_call: dict[str, list[float]] = {}
        steps: list[float] = []
        records = 0
        live = 0
        step_start: dict[int, float] = {}
        for idx, s in enumerate(self.spans):
            name, dur = s[NAME], s[END] - s[START]
            if name in ("models.Model.init", "models.Model.fold"):
                per_call.setdefault(name, []).append(dur)
            if s[OP] < 0:
                continue
            parent = self.spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
            if name.startswith("masks.") and parent.startswith("masks."):
                continue  # nested mask helpers are counted by their caller
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            selft[name] = selft.get(name, 0.0) + own[idx]
            if s[EXTRA] is not None and name != "tensor.GradTape.backward":
                extra[name] = extra.get(name, 0.0) + s[EXTRA]
            if name == "tensor.GradTape.backward":
                records += s[EXTRA][0]
                live = max(live, s[EXTRA][1])
            if parent == "train.train":
                # a step runs augment -> forward -> loss -> backward -> sgd_step
                if name in ("data.augment_batch", "models.Model.forward"):
                    step_start.setdefault(s[PARENT], s[START])
                elif name == "train.sgd_step" and s[PARENT] in step_start:
                    steps.append(s[END] - step_start.pop(s[PARENT]))

        n = max(ops, 1)

        def ms(*names):
            return 1e3 * sum(total.get(x, 0.0) for x in names) / n

        def self_ms(*names):
            return 1e3 * sum(selft.get(x, 0.0) for x in names) / n

        def per_op(*names):
            return sum(calls.get(x, 0) for x in names) / n

        def gflops(name, flops_per_mac):
            t = total.get(name, 0.0)
            return flops_per_mac * extra.get(name, 0.0) / t / 1e9 if t else 0.0

        def mean_ms(name):
            vals = per_call.get(name, [])
            return 1e3 * statistics.fmean(vals) if vals else 0.0

        pw_fwd = [f"tensor.{p}" for p in POINTWISE]
        pw_bwd = [f"tensor.{p}.bwd" for p in POINTWISE]
        masks = [x for x in total if x.startswith("masks.")]
        saves = calls.get("checkpoint.save_checkpoint", 0)
        return {
            "tensor.conv2d.fwd_ms": ms("tensor.conv2d"),
            "tensor.conv2d.bwd_ms": ms("tensor.conv2d.bwd"),
            "tensor.conv2d.calls": per_op("tensor.conv2d"),
            # forward is one GEMM of 2*MACs flops; backward is two (dW, dX)
            "tensor.conv2d.fwd_gflops": gflops("tensor.conv2d", 2),
            "tensor.conv2d.bwd_gflops": gflops("tensor.conv2d.bwd", 4),
            "tensor.conv2d_per_sample.fwd_ms": ms("tensor.conv2d_per_sample"),
            "tensor.conv2d_per_sample.bwd_ms": ms("tensor.conv2d_per_sample.bwd"),
            "tensor.conv2d_per_sample.calls": per_op("tensor.conv2d_per_sample"),
            "tensor.dense.fwd_ms": ms("tensor.dense"),
            "tensor.dense.bwd_ms": ms("tensor.dense.bwd"),
            "tensor.global_pool.fwd_ms": ms("tensor.global_pool"),
            "tensor.global_pool.bwd_ms": ms("tensor.global_pool.bwd"),
            "tensor.softmax_cross_entropy.fwd_ms": ms("tensor.softmax_cross_entropy"),
            "tensor.softmax_cross_entropy.bwd_ms": ms("tensor.softmax_cross_entropy.bwd"),
            "tensor.pointwise.fwd_ms": ms(*pw_fwd),
            "tensor.pointwise.bwd_ms": ms(*pw_bwd),
            "tensor.GradTape.backward_ms": ms("tensor.GradTape.backward"),
            "tensor.GradTape.self_ms": self_ms("tensor.GradTape.backward"),
            "tensor.GradTape.records": records / n,
            "tensor.GradTape.live_mb": live / 2**20,
            "masks.eval_ms": ms(*masks),
            "masks.calls": per_op(*masks),
            "layers.static.self_ms": self_ms("layers.StaticGMConvLayer.forward"),
            "layers.dynamic.self_ms": self_ms("layers.DynamicGMConvLayer.forward"),
            "layers.dynamic.predict_ms": ms("layers.DynamicSigmaModule.predict"),
            "layers.dynamic.masked_weights_bwd_ms": ms("layers._per_sample_masked_weights.bwd"),
            "models.Model.init_ms": mean_ms("models.Model.init"),
            "models.Model.fold_ms": mean_ms("models.Model.fold"),
            "models.Model.forward_ms": ms("models.Model.forward"),
            "train.step_ms_p50": 1e3 * statistics.median(steps) if steps else 0.0,
            "train.steps": len(steps) / n,
            "train.sgd_step_ms": ms("train.sgd_step"),
            "train.evaluate_model_ms": ms("train.evaluate_model"),
            "data.augment_batch_ms": ms("data.augment_batch"),
            "data.load_dataset_ms": ms("data.load_dataset"),
            "checkpoint.save_ms": ms("checkpoint.save_checkpoint"),
            "checkpoint.load_ms": ms("checkpoint.load_checkpoint"),
            "checkpoint.bytes": extra.get("checkpoint.save_checkpoint", 0.0) / saves if saves else 0.0,
            "erf.estimate_erf_ms": ms("erf.estimate_erf"),
        }

    def by_layer(self, ops: int) -> dict[str, dict[str, float]]:
        """Self ms per timed op and calls per op, keyed by model layer name
        and then by span name."""
        own = self.self_times()
        out: dict[str, dict[str, list]] = {}
        for idx, s in enumerate(self.spans):
            if s[OP] < 0 or not s[LAYER]:
                continue
            cell = out.setdefault(s[LAYER], {}).setdefault(s[NAME], [0.0, 0])
            cell[0] += own[idx]
            cell[1] += 1
        n = max(ops, 1)
        return {
            layer: {name: {"self_ms": 1e3 * t / n, "calls": c / n} for name, (t, c) in sorted(names.items())}
            for layer, names in sorted(out.items())
        }

    def dump(self, origin: float) -> dict:
        """Spans as rows of integers (microseconds from `origin`)."""
        rows = [
            [s[NAME], round(1e6 * (s[START] - origin)), round(1e6 * (s[END] - origin)), s[PARENT], s[OP], s[LAYER], s[EXTRA]]
            for s in self.spans
        ]
        return {"fields": ["name", "start_us", "end_us", "parent", "op", "layer", "extra"], "rows": rows}
