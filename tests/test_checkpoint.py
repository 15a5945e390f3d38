"""Checkpoint serialization round-trips."""

import json
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmconv.checkpoint import (
    Checkpoint,
    checkpoint_from_model,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)
from gmconv.data import DataError
from gmconv.layers import PATTERNS
from gmconv.models import (
    ALL_OPS,
    ROLES,
    ConvPolicy,
    LayerSpec,
    Model,
    ModelSpec,
    apply_policy,
    build_model,
    spec_to_json,
)
from gmconv.tensor import Tensor
from util import mutated_header


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


def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch):
    model = small_model()
    path = tmp_path / "last.ckpt"
    save_checkpoint(checkpoint_from_model(model, epoch=1), str(path))
    before = path.read_bytes()

    def fail(fd):
        raise OSError("device lost")

    monkeypatch.setattr(os, "fsync", fail)
    dict(model.named_parameters())["layer0.weight"].data += 1.0
    with pytest.raises(OSError, match="device lost"):
        save_checkpoint(checkpoint_from_model(model, epoch=2), str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["last.ckpt"]


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


@pytest.mark.parametrize("edit", ["alias", "swap"])
def test_offsets_must_follow_header_order(tmp_path, edit):
    """Two same-shape tensors read from one offset, or from each other's,
    keep every record inside the payload; both must still be rejected."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(checkpoint_from_model(small_model()), str(path))
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + hlen])
    where = {rec["name"]: (i, rec["offset"]) for i, rec in enumerate(header["tensors"])}
    (i2, o2), (i4, o4) = where["param:layer2.bias"], where["param:layer4.bias"]
    for i, offset in [(i4, o2)] if edit == "alias" else [(i2, o4), (i4, o2)]:
        raw = mutated_header(raw, ("tensors", i, "offset"), offset)
    path.write_bytes(raw)
    with pytest.raises(DataError, match="concatenated in header order"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameter_is_a_data_error(tmp_path, bad):
    """A parameter that is not finite is refused at load, and the error
    names the first such tensor in header order."""
    ckpt = checkpoint_from_model(small_model(ConvPolicy("static", "static")))
    ckpt.params["layer2.sigma"][...] = bad
    ckpt.params["layer0.weight"].flat[5] = bad
    path = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, str(path))
    with pytest.raises(DataError, match=r"parameter 'param:layer0\.weight' is not finite"):
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


@pytest.fixture(scope="module")
def every_op_checkpoint(tmp_path_factory):
    """A saved model whose spec holds every op: a dynamic stem, relu, a
    stride-2 block of a static and a plain conv, max pool and a dense head.
    Returns its bytes, the key path of every spec and layer field in its
    header, and a scratch path."""
    layers = (
        LayerSpec(op="gmconv-dynamic", role="stem", in_channels=3, out_channels=4,
                  kernel_size=3, padding=1, pattern="sigma_ratio"),
        LayerSpec(op="relu", role="stem"),
        LayerSpec(op="block", role="body", stride=2, inner=(
            LayerSpec(op="gmconv-static", role="body", in_channels=4, out_channels=6,
                      kernel_size=3, stride=2, padding=1),
            LayerSpec(op="conv", role="body", in_channels=6, out_channels=6,
                      kernel_size=3, padding=1),
        )),
        LayerSpec(op="pool", role="head", pool_mode="max"),
        LayerSpec(op="dense", role="head", in_features=6, out_features=3),
    )
    model = Model(ModelSpec("every-op", 3, (3, 8, 8), layers), np.random.default_rng(0))
    root = tmp_path_factory.mktemp("every-op")
    path = root / "model.ckpt"
    save_checkpoint(checkpoint_from_model(model), str(path))
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])

    def field_paths(layers, prefix):
        for i, layer in enumerate(layers):
            yield from (prefix + (i, key) for key in layer)
            yield from field_paths(layer.get("inner", []), prefix + (i, "inner"))

    spec = json.loads(raw[8 : 8 + hlen])["spec"]
    paths = [("spec", key) for key in spec] + list(field_paths(spec["layers"], ("spec", "layers")))
    return raw, paths, root / "bad.ckpt"


SUBSTITUTES = st.one_of(
    st.integers(-3, 12),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.sampled_from(ALL_OPS + ROLES + PATTERNS + ("avg", "max")),
)


@given(data=st.data())
def test_any_spec_field_substitution_restores_or_is_a_data_error(every_op_checkpoint, data):
    """Any one field of a saved spec or of one of its layers replaced by
    an int, float, bool, string or null (negatives included): the
    checkpoint either loads and restores, or is refused with a DataError."""
    raw, paths, bad = every_op_checkpoint
    where = data.draw(st.sampled_from(paths), label="field")
    value = data.draw(SUBSTITUTES, label="value")
    bad.write_bytes(mutated_header(raw, where, value))
    try:
        restore_model(load_checkpoint(str(bad)))
    except DataError:
        pass
