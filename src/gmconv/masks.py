"""Gaussian receptive-field masks over square kernel grids.

A mask is a K x K array of values in (0, 1] obtained by evaluating a
Gaussian at each cell's offset from the kernel center and dividing by the
largest cell value. Multiplying a convolution kernel by such a mask shrinks
its effective footprint smoothly; the mask never zeroes a cell outright, so
gradients keep flowing to every tap.

Every mask comes from one batched evaluator, ``_gaussian``: elliptic masks
with per-sample horizontal (sigma1) and vertical (sigma2) widths and, on
request, their derivatives in both widths. A circular mask is the elliptic
one with sigma1 = sigma2, and a scalar call is a batch of one, so all paths
agree bit for bit. Scalar functions reject non-finite widths with
ValueError; the ``*_batch`` functions let NaN through, so a diverging run
fails where its loss is checked. The evaluator works in the exponent
domain, exp(-(q - q_min) / 2) with q the per-cell quadratic form, so the
normalization never divides by a denormal even at the smallest sigma.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

SIGMA_MIN = 1e-3
SIGMA_MAX = 1e6


def _clamp(sigma: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(np.abs(sigma), SIGMA_MIN), SIGMA_MAX)


def _one(sigma: float) -> np.ndarray:
    """A scalar width as a batch of one; scalar entry points reject
    non-finite widths."""
    s = float(sigma)
    if not math.isfinite(s):
        raise ValueError(f"sigma must be finite, got {sigma!r}")
    return np.array([s])


def clamp_sigma(sigma: float) -> float:
    """Clamp |sigma| into [SIGMA_MIN, SIGMA_MAX], boundaries included.

    The mask is an even function of sigma, so the sign is dropped before
    clamping. Gradients with respect to sigma are defined to be zero while
    the clamp is active (see ``_gaussian``).
    """
    return float(_clamp(_one(sigma))[0])


@dataclass(frozen=True)
class GaussianMask:
    """A realized mask: the K x K value grid, its kind ("circular" or
    "elliptic") and the clamped widths behind it."""

    values: np.ndarray
    kind: str
    sigma1: float
    sigma2: float

    @property
    def kernel_size(self) -> int:
        return self.values.shape[0]


def _offsets(kernel_size: int) -> np.ndarray:
    """1D cell offsets from the center at (K-1)/2; half-integers for even K."""
    try:
        k = operator.index(kernel_size)  # not int(): 3.9 is no kernel size
    except TypeError:
        k = 0  # rejected below, with every size under 1
    if k < 1 or isinstance(kernel_size, bool):
        raise ValueError(f"kernel_size must be an integer >= 1, got {kernel_size!r}")
    return np.arange(k, dtype=np.float64) - (k - 1) / 2.0


def _gaussian(sigma1, sigma2, kernel_size: int, grad: bool = False):
    """Masks of shape (N, K, K) for raw width vectors of shape (N,).

    Cell (i, j) of mask n is exp(-(q - q_min) / 2) with
    q = x_j^2 / s1_n^2 + y_i^2 / s2_n^2, s = clamp(|sigma|) and q_min the
    sum of the per-axis minima, so the largest cell is 1. With ``grad``,
    returns (M, dM/dsigma1, dM/dsigma2) at the raw sigma, so the sign
    carries through (M is even in sigma); the slope is zero wherever the
    clamp is active, boundaries included, so a clamped width stays put.
    """
    raw1 = np.asarray(sigma1, dtype=np.float64)
    raw2 = np.asarray(sigma2, dtype=np.float64)
    if raw1.shape != raw2.shape or raw1.ndim != 1:
        raise ValueError("sigma arrays must be 1D and the same length")
    offsets = _offsets(kernel_size)
    qx = offsets / np.square(_clamp(raw1))[:, None] * offsets
    qy = offsets / np.square(_clamp(raw2))[:, None] * offsets
    qx_min = qx.min(axis=1)[:, None, None]
    qy_min = qy.min(axis=1)[:, None, None]
    m = qx[:, None, :] + qy[:, :, None]
    m -= qx_min
    m -= qy_min
    m *= -0.5
    np.exp(m, out=m)
    if not grad:
        return m

    sq = offsets * offsets
    sq -= sq.min()

    def slope(raw, sq_axis):
        size = np.abs(raw)
        active = (size > SIGMA_MIN) & (size < SIGMA_MAX)
        g = m * sq_axis / (np.where(active, raw, 1.0) ** 3)[:, None, None]
        g[~active] = 0.0
        return g

    return m, slope(raw1, sq[None, None, :]), slope(raw2, sq[None, :, None])


def circular_values(sigma: float, kernel_size: int) -> np.ndarray:
    """Isotropic mask, shape (K, K): exp(-(d^2 - d_min^2) / (2 s^2)) with d
    a cell's distance from the center and s the clamped sigma."""
    s = _one(sigma)
    return _gaussian(s, s, kernel_size)[0]


def circular_grad_values(sigma: float, kernel_size: int) -> tuple[np.ndarray, np.ndarray]:
    """(mask, d(mask)/d(sigma)) for the circular mask, each shape (K, K)."""
    s = _one(sigma)
    m, g1, g2 = _gaussian(s, s, kernel_size, grad=True)
    return m[0], g1[0] + g2[0]


def elliptic_values(sigma1: float, sigma2: float, kernel_size: int) -> np.ndarray:
    """Anisotropic mask, shape (K, K): sigma1 is the width along columns
    (the x offset), sigma2 the width along rows (the y offset)."""
    return _gaussian(_one(sigma1), _one(sigma2), kernel_size)[0]


def elliptic_grad_values(
    sigma1: float, sigma2: float, kernel_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mask, d(mask)/d(sigma1), d(mask)/d(sigma2)) for the elliptic mask."""
    m, g1, g2 = _gaussian(_one(sigma1), _one(sigma2), kernel_size, grad=True)
    return m[0], g1[0], g2[0]


def elliptic_values_batch(
    sigma1: np.ndarray, sigma2: np.ndarray, kernel_size: int
) -> np.ndarray:
    """Elliptic masks for equal-length 1D width arrays, shape (N, K, K)."""
    return _gaussian(sigma1, sigma2, kernel_size)


def elliptic_grad_batch(
    sigma1: np.ndarray, sigma2: np.ndarray, kernel_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample (M, dM/dsigma1, dM/dsigma2), each shape (N, K, K)."""
    return _gaussian(sigma1, sigma2, kernel_size, grad=True)


def circular_mask(sigma: float, kernel_size: int) -> GaussianMask:
    """Build a circular mask object; sigma is recorded after clamping."""
    s = clamp_sigma(sigma)
    return GaussianMask(circular_values(sigma, kernel_size), "circular", s, s)


def elliptic_mask(sigma1: float, sigma2: float, kernel_size: int) -> GaussianMask:
    """Build an elliptic mask object; sigmas are recorded after clamping."""
    vals = elliptic_values(sigma1, sigma2, kernel_size)
    return GaussianMask(vals, "elliptic", clamp_sigma(sigma1), clamp_sigma(sigma2))


def write_grid_csv(grid: np.ndarray, path: str) -> None:
    """Write a 2D grid as CSV; cells use the %.17g format, so values
    round-trip bit-exactly through text."""
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError(f"expected a 2D grid, got shape {g.shape}")
    with open(path, "w", encoding="ascii") as fh:
        for row in g:
            fh.write(",".join("%.17g" % v for v in row))
            fh.write("\n")


def write_grid_pgm(grid: np.ndarray, path: str) -> None:
    """Write a [0, 1] grid as 16-bit ASCII PGM (P2, maxval 65535); each
    cell is round(value * 65535), lossy by design (a preview format)."""
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError(f"expected a 2D grid, got shape {g.shape}")
    # negated, so that NaN cells fail the range check too
    if not (g.min() >= 0.0 and g.max() <= 1.0):
        raise ValueError("PGM export expects values in [0, 1]")
    levels = np.rint(g * 65535.0).astype(np.int64)
    h, w = g.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write("P2\n")
        fh.write(f"{w} {h}\n")
        fh.write("65535\n")
        for row in levels:
            fh.write(" ".join(str(int(v)) for v in row))
            fh.write("\n")
