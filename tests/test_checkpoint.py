"""Checkpoint serialization round-trips."""

import json
import math
import struct

import numpy as np
import pytest

from gmconv.checkpoint import (
    Checkpoint,
    checkpoint_from_model,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)
from gmconv.data import DataError
from gmconv.models import ConvPolicy, Model, apply_policy, build_model, spec_to_json
from gmconv.tensor import Tensor


def small_model(policy=None, seed=11):
    spec = build_model("cnn-small", num_classes=4)
    if policy is not None:
        spec = apply_policy(spec, policy)
    return Model(spec, np.random.default_rng(seed))


def test_save_load_save_is_byte_identical(tmp_path):
    model = small_model(ConvPolicy("dynamic", "static"))
    momentum = {
        n: np.random.default_rng(5).normal(size=t.data.shape)
        for n, t in model.named_parameters()
    }
    rng = np.random.default_rng(99)
    rng.random(17)  # advance so the state is not pristine
    ckpt = checkpoint_from_model(model, momentum, epoch=6, rng_state=rng.bit_generator.state)

    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(ckpt, str(p1))
    loaded = load_checkpoint(str(p1))
    save_checkpoint(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_roundtrip_preserves_everything(tmp_path):
    model = small_model(ConvPolicy("dynamic", "static", sigma_init=2.5, pattern="sigma_ratio"))
    momentum = {n: np.full(t.data.shape, 0.25) for n, t in model.named_parameters()}
    rng = np.random.default_rng(3)
    ckpt = checkpoint_from_model(model, momentum, epoch=13, rng_state=rng.bit_generator.state)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(ckpt, path)
    got = load_checkpoint(path)

    assert got.epoch == 13
    assert got.rng_state == rng.bit_generator.state
    assert spec_to_json(got.spec) == spec_to_json(model.spec)
    assert set(got.params) == set(ckpt.params)
    for name, arr in ckpt.params.items():
        np.testing.assert_array_equal(got.params[name], arr)
        assert got.params[name].shape == arr.shape  # 0-d sigma stays 0-d
    for name, arr in ckpt.momentum.items():
        np.testing.assert_array_equal(got.momentum[name], arr)


def test_restore_model_reproduces_forward(tmp_path):
    model = small_model(ConvPolicy("static", "static"))
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(checkpoint_from_model(model), path)
    twin = restore_model(load_checkpoint(path))

    x = Tensor(np.random.default_rng(7).normal(size=(2, 3, 32, 32)))
    np.testing.assert_array_equal(model.forward(x).data, twin.forward(x).data)


def test_restore_rejects_name_mismatch(tmp_path):
    model = small_model()
    ckpt = checkpoint_from_model(model)
    del ckpt.params["layer0.bias"]
    with pytest.raises(DataError) as err:
        restore_model(ckpt)
    assert "layer0.bias" in str(err.value)


def test_restore_rejects_shape_mismatch():
    model = small_model()
    ckpt = checkpoint_from_model(model)
    ckpt.params["layer0.bias"] = np.zeros(99)
    with pytest.raises(DataError) as err:
        restore_model(ckpt)
    assert "layer0.bias" in str(err.value)


def test_snapshot_is_detached():
    model = small_model()
    ckpt = checkpoint_from_model(model)
    before = ckpt.params["layer0.weight"].copy()
    dict(model.named_parameters())["layer0.weight"].data += 1.0
    np.testing.assert_array_equal(ckpt.params["layer0.weight"], before)


def test_bad_magic(tmp_path):
    p = tmp_path / "x.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError) as err:
        load_checkpoint(str(p))
    assert "GMC1" in str(err.value)


def test_truncated_header(tmp_path):
    p = tmp_path / "x.ckpt"
    p.write_bytes(b"GMC1" + struct.pack("<I", 5000) + b"{}")
    with pytest.raises(DataError) as err:
        load_checkpoint(str(p))
    assert "5000" in str(err.value)


def test_truncated_payload(tmp_path):
    model = small_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(checkpoint_from_model(model), str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[:-40])
    with pytest.raises(DataError) as err:
        load_checkpoint(str(path))
    assert "payload" in str(err.value)


def test_duplicate_tensor_name(tmp_path):
    """A second record under one name would silently replace the first."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(checkpoint_from_model(small_model()), str(path))
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + hlen])
    payload = raw[8 + hlen :]
    first = header["tensors"][0]
    header["tensors"].append(dict(first, offset=len(payload)))
    payload += payload[first["offset"] : first["offset"] + 8 * math.prod(first["shape"])]
    text = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:4] + struct.pack("<I", len(text)) + text + payload)
    with pytest.raises(DataError, match="twice"):
        load_checkpoint(str(path))


def test_missing_file():
    with pytest.raises(DataError):
        load_checkpoint("/no/such/file.ckpt")


def test_header_is_canonical_json(tmp_path):
    """The embedded header parses as JSON and carries the documented keys."""
    model = small_model(ConvPolicy("dynamic", "static"))
    path = tmp_path / "m.ckpt"
    save_checkpoint(checkpoint_from_model(model, epoch=2), str(path))
    raw = path.read_bytes()
    assert raw[:4] == b"GMC1"
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + hlen])
    assert header["format"] == 1
    assert header["epoch"] == 2
    names = [rec["name"] for rec in header["tensors"]]
    assert names == sorted(names)
    assert all(n.startswith(("param:", "momentum:")) for n in names)
    # offsets are contiguous: each tensor starts where the previous ended
    running = 0
    for rec in header["tensors"]:
        assert rec["offset"] == running
        running += 8 * int(np.prod(rec["shape"], dtype=np.int64)) if rec["shape"] else 8
