"""Shared numeric and checkpoint helpers for the test suite."""

import json
import struct

import numpy as np

from gmconv.tensor import _conv_checks


def conv2d_reference(x, w, b=None, stride=1, padding=0):
    """Direct-loop convolution on raw arrays: the oracle of `conv2d`.

    Same contract as conv2d's forward, written with explicit loops; it
    shares only the input checks with the fast path and computes its own
    output extent, so a bug in the fast path cannot hide here.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    bdat = None if b is None else np.asarray(b, dtype=np.float64)
    n, _, h, wdt, o, k, _, _ = _conv_checks(x, w, bdat, stride, padding)
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wdt + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, o, ho, wo))
    for ni in range(n):
        for oi in range(o):
            for yi in range(ho):
                for xi in range(wo):
                    patch = xp[ni, :, yi * stride : yi * stride + k, xi * stride : xi * stride + k]
                    acc = float(np.sum(patch * w[oi]))
                    if bdat is not None:
                        acc += bdat[oi]
                    out[ni, oi, yi, xi] = acc
    return out


def conv2d_per_sample_reference(x, wb, b=None, stride=1, padding=0):
    """Normative per-sample loop: convolve each sample with its own kernel."""
    x = np.asarray(x, dtype=np.float64)
    wb = np.asarray(wb, dtype=np.float64)
    outs = []
    for ni in range(x.shape[0]):
        outs.append(conv2d_reference(x[ni : ni + 1], wb[ni], b, stride, padding))
    return np.concatenate(outs, axis=0)


def central_diff_scalar(f, x, h=1e-6):
    """Central difference of f at scalar x; f may return an array."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def num_grad(f, x, h=1e-6):
    """Numerical gradient of a scalar-valued f with respect to array x.

    Perturbs one element at a time with a central difference. Mutates x
    in place during probing but restores every element before returning.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f(x)
        flat[i] = old - h
        fm = f(x)
        flat[i] = old
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / denom


def force_flat_masks(model):
    """Push every masked layer to the flat limit: static sigmas to the
    upper clamp, dynamic modules to bias-only outputs that clamp high."""
    from gmconv import masks
    from gmconv.layers import StaticGMConvLayer

    for _, layer in model.masked_layer_items():
        if isinstance(layer, StaticGMConvLayer):
            layer.sigma.data[...] = masks.SIGMA_MAX
        else:
            layer.sigma_module.w0.data[:] = 0.0
            layer.sigma_module.w1.data[:] = 0.0
            layer.sigma_module.b1.data[:] = 2e6  # softplus(2e6) = 2e6, clamps to max


def copy_shared_params(src_model, dst_model):
    """Copy every parameter whose name exists in both models (the conv
    and dense weights a masked model shares with its plain twin)."""
    src = dict(src_model.named_parameters())
    for name, t in dst_model.named_parameters():
        if name in src:
            t.data[...] = src[name].data


DELETE = object()


def mutated_header(raw, path, value):
    """Checkpoint bytes `raw` with the header entry at `path` (a key path
    into the JSON header; empty for the whole header) set to `value`, or
    removed when `value` is DELETE."""
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + hlen])
    if path:
        owner = header
        for key in path[:-1]:
            owner = owner[key]
        if value is DELETE:
            del owner[path[-1]]
        else:
            owner[path[-1]] = value
    else:
        header = value
    text = json.dumps(header).encode("utf-8")
    return raw[:4] + struct.pack("<I", len(text)) + text + raw[8 + hlen :]
