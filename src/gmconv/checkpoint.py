"""Binary checkpoints with a JSON index.

Byte layout, designed so any language can read it:

    offset 0   4 bytes   magic ``GMC1``
    offset 4   4 bytes   uint32 little-endian header length L
    offset 8   L bytes   UTF-8 JSON header (sorted keys, no whitespace)
    offset 8+L           tensor payloads, concatenated in header order

Every tensor is stored as little-endian float64 in C (row-major) order.
The header's ``tensors`` list gives, per tensor, its namespaced name
(``param:`` or ``momentum:`` prefix), shape, and byte offset relative to
the start of the payload section. The header also embeds the model spec,
the epoch counter, and the training generator's state, so a run can be
resumed exactly. Writing is canonical: the same state always produces
byte-identical files, and atomic: the file is written to ``<path>.tmp``,
synced, then renamed over ``path``.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .data import DataError
from .models import Model, ModelSpec, spec_from_json, spec_to_json

MAGIC = b"GMC1"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    """Full training state: parameters, optimizer buffers, and RNG."""

    spec: ModelSpec
    params: dict[str, np.ndarray]
    momentum: dict[str, np.ndarray] = field(default_factory=dict)
    epoch: int = 0
    rng_state: dict = field(default_factory=dict)


def checkpoint_from_model(
    model: Model,
    momentum: dict[str, np.ndarray] | None = None,
    epoch: int = 0,
    rng_state: dict | None = None,
) -> Checkpoint:
    """Snapshot a model (and optionally optimizer state) into a Checkpoint.

    Arrays are copied, so later training steps do not mutate the snapshot.
    """
    params = {n: np.array(t.data, dtype=np.float64) for n, t in model.named_parameters()}
    mom = {n: np.array(v, dtype=np.float64) for n, v in (momentum or {}).items()}
    state = rng_state if rng_state is not None else np.random.default_rng(0).bit_generator.state
    return Checkpoint(model.spec, params, mom, epoch, state)


def load_arrays(targets: dict[str, np.ndarray], arrays: dict[str, np.ndarray], what: str) -> None:
    """Copy checkpoint `arrays` into the same-named `targets` in place.

    The names must match exactly and every shape must agree; otherwise a
    DataError names the offending tensors.
    """
    missing = sorted(set(targets) - set(arrays))
    extra = sorted(set(arrays) - set(targets))
    if missing or extra:
        raise DataError(
            f"checkpoint {what} do not match the spec: missing {missing}, unexpected {extra}"
        )
    for name, arr in arrays.items():
        if targets[name].shape != arr.shape:
            raise DataError(
                f"checkpoint tensor {name!r} has shape {arr.shape}, model expects {targets[name].shape}"
            )
        targets[name][...] = arr


def restore_model(ckpt: Checkpoint) -> Model:
    """Build a model from the checkpoint's spec and load its parameters."""
    model = Model(ckpt.spec, np.random.default_rng(0))
    load_arrays({n: t.data for n, t in model.named_parameters()}, ckpt.params, "parameters")
    return model


def _payload_entries(ckpt: Checkpoint) -> list[tuple[str, np.ndarray]]:
    entries = [(f"param:{n}", a) for n, a in ckpt.params.items()]
    entries += [(f"momentum:{n}", a) for n, a in ckpt.momentum.items()]
    entries.sort(key=lambda e: e[0])
    return entries


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    entries = _payload_entries(ckpt)
    index = []
    offset = 0
    blobs = []
    for name, arr in entries:
        arr = np.asarray(arr, dtype="<f8", order="C")
        blob = arr.tobytes(order="C")
        index.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(blob)
        offset += len(blob)
    header = {
        "epoch": int(ckpt.epoch),
        "format": FORMAT_VERSION,
        "rng_state": ckpt.rng_state,
        "spec": json.loads(spec_to_json(ckpt.spec)),
        "tensors": index,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # written beside the target and renamed over it, so a crash mid-write
    # leaves the previous checkpoint intact
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(header_bytes)))
            fh.write(header_bytes)
            for blob in blobs:
                fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path: str) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise DataError(f"cannot read checkpoint {path}: {err}") from err
    if len(raw) < 8 or raw[:4] != MAGIC:
        raise DataError(
            f"{path}: not a checkpoint (expected magic {MAGIC!r} at byte offset 0, "
            f"found {raw[:4]!r})"
        )
    (header_len,) = struct.unpack("<I", raw[4:8])
    if 8 + header_len > len(raw):
        raise DataError(
            f"{path}: header claims {header_len} bytes but only "
            f"{len(raw) - 8} follow the length field"
        )
    try:
        header = json.loads(raw[8 : 8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise DataError(f"{path}: malformed checkpoint header: {err}") from err
    if not isinstance(header, dict):
        raise DataError(f"{path}: checkpoint header must be a JSON object")
    if header.get("format") != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint format {header.get('format')!r}")
    if not _is_count(header.get("epoch")):
        raise DataError(f"{path}: checkpoint epoch must be a non-negative integer")
    for key, kind in (("rng_state", dict), ("spec", dict), ("tensors", list)):
        if not isinstance(header.get(key), kind):
            raise DataError(f"{path}: checkpoint header needs {key!r} as a JSON {kind.__name__}")
    try:
        np.random.PCG64(0).state = header["rng_state"]
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise DataError(f"{path}: rng_state is not a PCG64 generator state: {err}") from err

    payload = raw[8 + header_len :]
    params: dict[str, np.ndarray] = {}
    momentum: dict[str, np.ndarray] = {}
    expected = 0
    for i, rec in enumerate(header["tensors"]):
        if not (
            isinstance(rec, dict)
            and isinstance(rec.get("name"), str)
            and isinstance(rec.get("shape"), list)
            and all(_is_count(d) for d in rec["shape"])
            and _is_count(rec.get("offset"))
        ):
            raise DataError(
                f"{path}: tensor record {i} needs a string name, a shape of "
                f"non-negative integers and a non-negative integer offset"
            )
        if rec["offset"] != expected:
            raise DataError(
                f"{path}: tensor {rec['name']!r} starts at payload byte {rec['offset']}, "
                f"but payloads are concatenated in header order, so it must start at {expected}"
            )
        count = math.prod(rec["shape"])
        end = expected + 8 * count
        if end > len(payload):
            raise DataError(
                f"{path}: tensor {rec['name']!r} ends at byte {end} of a "
                f"{len(payload)}-byte payload"
            )
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=expected)
        expected = end
        arr = np.array(arr.reshape(rec["shape"]), dtype=np.float64)
        kind, _, name = rec["name"].partition(":")
        target = {"param": params, "momentum": momentum}.get(kind)
        if target is None:
            raise DataError(f"{path}: unknown tensor namespace in {rec['name']!r}")
        if name in target:
            raise DataError(f"{path}: tensor {rec['name']!r} is listed twice")
        # train() stops before it saves one, so such a file is damaged or hand-made
        if kind == "param" and not np.all(np.isfinite(arr)):
            raise DataError(f"{path}: parameter {rec['name']!r} is not finite")
        target[name] = arr
    if len(payload) != expected:
        raise DataError(
            f"{path}: tensor payload has {len(payload)} bytes, index expects {expected}"
        )

    try:
        spec = spec_from_json(json.dumps(header["spec"]))
    except (TypeError, ValueError) as err:
        raise DataError(f"{path}: invalid model spec: {err}") from err
    return Checkpoint(spec, params, momentum, header["epoch"], header["rng_state"])


def _is_count(value) -> bool:
    """A non-negative JSON integer (JSON booleans excluded)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0
