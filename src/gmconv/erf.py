"""Empirical receptive-field estimation and mask inspection.

The effective receptive field of a unit is measured the standard way: seed
the adjoint of the spatially central output unit (summed over channels)
with one, backpropagate to the input, and accumulate the absolute input
gradient over random probe images. Averaging and max-normalizing gives an
H x W influence map whose support always sits inside the theoretical
receptive field and whose spread is summarized by an intensity-weighted
radius.

Probe inputs are unit-Gaussian noise drawn from the caller's generator, or
a supplied stack of dataset images. Absolute values are accumulated (not signed
gradients) so maps stay comparable across nets with ReLUs.

Probes run in batches: one taped forward and backward per batch, seeded at
the central unit of every sample. No op mixes the samples of a batch (there
are no batch statistics, and conv and dense rows do not depend on their
batch-mates), so each probe's input adjoint is bit for bit the one it gets
alone. The noise of a batch is one draw of the same generator stream, and
each probe's map is added in probe order, so the map does not depend on
the batch size. That size is derived from the spec: as many probes as keep
the widest conv output and its adjoint within the conv's cache block.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import masks, tensor
from .layers import StaticGMConvLayer
from .models import _walk_spec
from .tensor import GradTape, Tensor


@dataclass(frozen=True)
class ErfMap:
    """Normalized influence map plus the probe's provenance."""

    values: np.ndarray
    model_id: str
    layer_index: int
    unit: tuple[int, int]
    num_samples: int


def _probe_batch(spec) -> int:
    """Probes per batch: as many samples as keep the widest per-sample conv
    output of `spec` and its adjoint within `tensor._BLOCK_BYTES`, and at
    least one."""
    widest = max(layer.out_channels * positions for layer, positions in _walk_spec(spec))
    return max(1, tensor._BLOCK_BYTES // (2 * 8 * max(widest, 1)))


def estimate_erf(
    model,
    layer_index: int,
    num_samples: int,
    rng: np.random.Generator | None = None,
    images: np.ndarray | None = None,
) -> ErfMap:
    """Measure the ERF of the central unit of one module's output.

    `layer_index` indexes `model.modules`; the probed module must produce
    a spatial (4D) output. Both it and `num_samples` must be integers (a
    float or a bool raises ValueError). Pass exactly one probe source:
    `rng`, which draws fresh unit-Gaussian noise for every probe, or
    `images`, an S x C x H x W stack cycled through for the probes. The
    probes run in batches, one taped forward and backward per batch; the
    map is the same, bit for bit, as from one probe at a time. A map that
    is not finite (a model whose outputs overflow) raises
    FloatingPointError.
    """
    layer_index = masks.integer_arg("layer index", layer_index, 0)
    num_samples = masks.integer_arg("num_samples", num_samples, 1)
    if layer_index >= len(model.modules):
        raise ValueError(f"layer index {layer_index} out of range")
    if (rng is None) == (images is None):
        raise ValueError("estimate_erf needs exactly one probe source: rng or images")
    c, h, w = model.spec.input_shape
    if images is not None and (np.ndim(images) != 4 or len(images) == 0
                               or np.shape(images)[1:] != (c, h, w)):
        raise ValueError(
            f"probe images must be a non-empty S x {c} x {h} x {w} stack, "
            f"got shape {np.shape(images)}"
        )

    batch = _probe_batch(model.spec)
    acc = np.zeros((h, w))
    unit = (0, 0)
    for s in range(0, num_samples, batch):
        b = min(batch, num_samples - s)
        if images is not None:
            x = Tensor(np.take(images, [(s + i) % len(images) for i in range(b)], axis=0))
        else:
            # the same stream, in the same order, as b draws of one probe
            x = Tensor(rng.normal(size=(b, c, h, w)))
        # only the input's adjoint is read: no weight or width adjoint is built
        tape = GradTape(wrt=(x,))
        out = x
        for mod in model.modules[: layer_index + 1]:
            out = mod.forward(out, tape)
        if out.data.ndim != 4:
            raise ValueError(
                f"module {layer_index} has no spatial output (shape {out.data.shape})"
            )
        cy, cx = out.data.shape[2] // 2, out.data.shape[3] // 2
        unit = (cy, cx)
        # no op mixes samples, so each probe's input adjoint is its own
        seed = np.zeros_like(out.data)
        seed[:, :, cy, cx] = 1.0
        tape.backward(out, seed)
        for grad in x.grad:  # in probe order, as one probe at a time would
            acc += np.abs(grad).sum(axis=0)

    mean = acc / num_samples
    if not np.all(np.isfinite(mean)):
        raise FloatingPointError("influence map is not finite; the model's outputs overflow")
    peak = mean.max()
    if peak == 0.0:
        raise ValueError("influence map is identically zero; nothing to normalize")
    return ErfMap(mean / peak, model.spec.name, layer_index, unit, num_samples)


def erf_radius(erf) -> float:
    """Root of the intensity-weighted second moment about the centroid.

    Accepts an ErfMap or a bare finite, non-negative grid. Scaling the map
    by any positive constant leaves the radius unchanged.
    """
    v = np.asarray(getattr(erf, "values", erf), dtype=np.float64)
    if v.ndim != 2:
        raise ValueError(f"expected a 2D map, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("influence values must be finite")
    if np.any(v < 0):
        raise ValueError("influence values must be non-negative")
    total = v.sum()
    if total == 0.0:
        raise ValueError("all-zero map has no radius")
    ys, xs = np.indices(v.shape)
    cy = float((v * ys).sum() / total)
    cx = float((v * xs).sum() / total)
    second = float((v * ((ys - cy) ** 2 + (xs - cx) ** 2)).sum() / total)
    return float(np.sqrt(second))


def dump_layer_masks(model, out_dir: str) -> dict:
    """Write each masked layer's current mask grid (CSV + PGM) plus a JSON
    manifest of widths.

    Static layers record their raw and effective (clamped) sigma. Dynamic
    layers have no single mask; the dumped grid is their zero-descriptor
    prediction, and the manifest carries the module's shape and that
    baseline (sigma1, sigma2). A model with no masked layers yields an
    empty manifest.
    """
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for name, layer in model.masked_layer_items():
        k = layer.kernel_size
        entry = {"layer": name, "kernel_size": k, "csv": f"{name}.csv", "pgm": f"{name}.pgm"}
        if isinstance(layer, StaticGMConvLayer):
            raw = float(layer.sigma.data)
            mask = masks.circular_mask(raw, k)
            entry.update(kind="static", sigma_raw=raw, sigma_effective=mask.sigma1)
        else:
            mod = layer.sigma_module
            zero = Tensor(np.zeros((1, mod.in_channels, 1, 1)))
            s1, s2 = mod.predict(zero)
            sig1, sig2 = float(s1.data[0]), float(s2.data[0])
            mask = masks.elliptic_mask(sig1, sig2, k)
            entry.update(
                kind="dynamic",
                pattern=mod.pattern,
                hidden_width=mod.hidden,
                sigma1_zero_input=sig1,
                sigma2_zero_input=sig2,
            )
        masks.write_grid_csv(mask.values, os.path.join(out_dir, entry["csv"]))
        masks.write_grid_pgm(mask.values, os.path.join(out_dir, entry["pgm"]))
        entries.append(entry)
    manifest = {"model": model.spec.name, "layers": entries}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
