"""Convolution layers: plain, static Gaussian-masked, dynamic Gaussian-masked.

A static layer owns one learnable width parameter sigma; its forward pass
multiplies the kernel by circular_mask(sigma, K), broadcast over both
channel dimensions, and convolves as usual. Gradients reach sigma through
the analytic mask derivative.

A dynamic layer predicts per-sample widths (sigma1, sigma2) from a pooled
descriptor of its own input through a small two-layer bottleneck, builds a
per-sample elliptic mask, and convolves each sample with its own masked
kernel.

After training, a static layer's mask can be folded into the weights,
yielding a plain convolution with identical outputs and zero mask cost.
"""

from __future__ import annotations

import math

import numpy as np

from . import masks
from .tensor import (
    GradTape,
    Tensor,
    add,
    concat_cols,
    conv2d,
    conv2d_per_sample,
    dense,
    global_pool,
    mul,
    relu,
    softplus,
    take_column,
)

PATTERNS = ("sigma", "sigma_pair", "sigma_ratio")

# floor of the positivity map g(t) = softplus(t) + GMIN; keeps predicted
# widths strictly positive and the map smooth everywhere
G_FLOOR = 0.1


def softplus_inverse(y: float) -> float:
    """Solve softplus(t) = y for t > 0 targets: log(expm1(y))."""
    if y <= 0:
        raise ValueError(f"softplus only reaches positive values, got target {y}")
    return float(np.log(np.expm1(y)))


class _ConvLayer:
    """What every conv layer holds: an O x C x K x K weight, a bias per
    filter, stride and padding."""

    def __init__(self, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0):
        if weight.data.ndim != 4 or weight.data.shape[2] != weight.data.shape[3]:
            raise ValueError(f"weight must be O x C x K x K, got {weight.data.shape}")
        if bias.data.shape != (weight.data.shape[0],):
            raise ValueError(
                f"bias shape {bias.data.shape} does not match {weight.data.shape[0]} filters"
            )
        if stride < 1 or padding < 0:
            raise ValueError(f"bad geometry: stride={stride}, padding={padding}")
        self.weight = weight
        self.bias = bias
        self.stride = stride
        self.padding = padding

    @property
    def kernel_size(self) -> int:
        return self.weight.data.shape[2]

    def param_items(self):
        return [("weight", self.weight), ("bias", self.bias)]


class Conv2dLayer(_ConvLayer):
    """Ordinary convolution; also the result of folding a static layer."""

    def forward(self, x: Tensor, tape: GradTape | None = None) -> Tensor:
        return conv2d(x, self.weight, self.bias, self.stride, self.padding, tape)


def _mask_scale(weight: Tensor, sigma: Tensor, tape: GradTape | None) -> Tensor:
    """Tape op: W' = W * circular_mask(sigma, K), mask broadcast over O, C.

    The sigma input is the raw learnable scalar; clamping happens inside
    the mask evaluation, and the backward pass returns zero for sigma
    whenever the clamp is active.
    """
    if sigma.data.shape != ():
        raise ValueError(f"sigma must be a scalar tensor, got shape {sigma.data.shape}")
    k = weight.data.shape[2]
    raw = float(sigma.data)
    if tape is None:
        return Tensor(weight.data * masks.circular_values(raw, k))
    m, dm = masks._circular_with_grad(raw, k)
    out = Tensor(weight.data * m)
    wd = weight.data

    def backward(g: np.ndarray):
        dw = g * m
        dsig = np.float64(np.sum(g * wd * dm))
        return dw, dsig

    tape.record(out, (weight, sigma), backward)
    return out


def _elliptic_mask_batch(s1: Tensor, s2: Tensor, k: int, tape: GradTape | None) -> Tensor:
    """Tape op: per-sample elliptic masks, N x K x K from two N-vectors."""
    if s1.data.shape != s2.data.shape or s1.data.ndim != 1:
        raise ValueError("sigma vectors must be 1D and the same length")
    if tape is None:
        return Tensor(masks.elliptic_values_batch(s1.data, s2.data, k))
    m, g1, g2 = masks._gaussian(s1.data, s2.data, k, grad=True)
    out = Tensor(m)

    def backward(g: np.ndarray):
        return np.sum(g * g1, axis=(1, 2)), np.sum(g * g2, axis=(1, 2))

    tape.record(out, (s1, s2), backward)
    return out


def _per_sample_masked_weights(weight: Tensor, mb: Tensor, tape: GradTape | None) -> Tensor:
    """Tape op: W'(n) = W * M_n, giving N x O x C x K x K."""
    out = Tensor(weight.data[None] * mb.data[:, None, None])

    if tape is not None:
        wd = weight.data

        def backward(g: np.ndarray):
            dw = np.einsum("nockl,nkl->ockl", g, mb.data)
            dm = np.einsum("nockl,ockl->nkl", g, wd)
            return dw, dm

        tape.record(out, (weight, mb), backward)
    return out


class StaticGMConvLayer(_ConvLayer):
    """Convolution with a learnable circular Gaussian mask width.

    Adds exactly one parameter (sigma) on top of a plain convolution.
    sigma is stored raw; evaluation clamps |sigma| into the admissible
    range and training sees a zero gradient while the clamp is active.
    """

    def __init__(
        self,
        weight: Tensor,
        bias: Tensor,
        sigma: float = 5.0,
        stride: int = 1,
        padding: int = 0,
    ):
        super().__init__(weight, bias, stride, padding)
        self.sigma = Tensor(np.float64(sigma), requires_grad=True, name="sigma")
        self.folded = False

    def current_mask(self) -> masks.GaussianMask:
        return masks.circular_mask(float(self.sigma.data), self.kernel_size)

    def forward(self, x: Tensor, tape: GradTape | None = None) -> Tensor:
        if self.folded:
            raise RuntimeError("layer was folded; its sigma has been consumed")
        masked = _mask_scale(self.weight, self.sigma, tape)
        return conv2d(x, masked, self.bias, self.stride, self.padding, tape)

    def param_items(self):
        return super().param_items() + [("sigma", self.sigma)]


def fold_mask(layer: StaticGMConvLayer) -> Conv2dLayer:
    """Bake the current mask into the weights, returning a plain layer.

    conv2d(x, W * M, b) is computed by the static forward pass in exactly
    this order, so the folded layer reproduces its outputs bit for bit.
    Folding consumes the layer: a second fold (or further forward calls
    on the original) is rejected. Dynamic layers cannot be folded because
    their mask depends on the input.
    """
    if isinstance(layer, DynamicGMConvLayer):
        raise TypeError("dynamic layers have input-dependent masks and cannot be folded")
    if not isinstance(layer, StaticGMConvLayer):
        raise TypeError(f"fold_mask expects a static layer, got {type(layer).__name__}")
    if layer.folded:
        raise RuntimeError("layer is already folded")
    m = masks.circular_values(float(layer.sigma.data), layer.kernel_size)
    folded_w = Tensor(layer.weight.data * m, requires_grad=True)
    layer.folded = True
    return Conv2dLayer(folded_w, layer.bias, layer.stride, layer.padding)


class DynamicSigmaModule:
    """Two-layer bottleneck that maps a pooled descriptor to mask widths.

    The descriptor z is the concatenation of global max and average pools,
    length 2C. The head is raw = W1 @ relu(W0 @ z) + B1 with hidden width
    floor(2C / r). Three prediction patterns:

    * "sigma": one output, sigma1 = sigma2 = g(raw[0])
    * "sigma_pair": sigma1 = g(raw[0]), sigma2 = g(raw[1])
    * "sigma_ratio": sigma1 = g(raw[0]), sigma2 = sigma1 * g(raw[1])

    where g(t) = softplus(t) + 0.1 keeps every width strictly positive.
    B1 is initialized so a zero descriptor predicts (sigma_init, ratio 1),
    matching the static default.
    """

    def __init__(
        self,
        in_channels: int,
        r: float = 4.0 / 3.0,
        pattern: str = "sigma_pair",
        sigma_init: float = 5.0,
        rng: np.random.Generator | None = None,
    ):
        if pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {pattern!r}, expected one of {PATTERNS}")
        if in_channels < 1:
            raise ValueError(f"in_channels must be positive, got {in_channels}")
        if r <= 0:
            raise ValueError(f"reduction ratio must be positive, got {r}")
        if sigma_init <= G_FLOOR:
            raise ValueError(f"sigma_init must exceed {G_FLOOR}, got {sigma_init}")
        self.in_channels = in_channels
        self.r = float(r)
        self.pattern = pattern
        hidden = math.floor(2 * in_channels / r)
        if hidden < 1:
            raise ValueError(f"reduction ratio {r} leaves no hidden units for C={in_channels}")
        self.hidden = hidden
        arity = 1 if pattern == "sigma" else 2
        self.arity = arity

        rng = rng if rng is not None else np.random.default_rng()
        lim0 = 1.0 / math.sqrt(2 * in_channels)
        lim1 = 1.0 / math.sqrt(hidden)
        self.w0 = Tensor(
            rng.uniform(-lim0, lim0, size=(hidden, 2 * in_channels)),
            requires_grad=True,
            name="w0",
        )
        self.w1 = Tensor(
            rng.uniform(-lim1, lim1, size=(arity, hidden)), requires_grad=True, name="w1"
        )
        b1 = np.empty(arity)
        b1[0] = softplus_inverse(sigma_init - G_FLOOR)
        if arity == 2:
            if pattern == "sigma_pair":
                b1[1] = b1[0]
            else:  # sigma_ratio: unit ratio
                b1[1] = softplus_inverse(1.0 - G_FLOOR)
        self.b1 = Tensor(b1, requires_grad=True, name="b1")

    def descriptor(self, x: Tensor, tape: GradTape | None = None) -> Tensor:
        zmax = global_pool(x, "max", tape)
        zavg = global_pool(x, "avg", tape)
        return concat_cols(zmax, zavg, tape)

    def predict(self, x: Tensor, tape: GradTape | None = None) -> tuple[Tensor, Tensor]:
        """Per-sample (sigma1, sigma2) as N-vectors, fully on the tape."""
        if x.data.shape[1] != self.in_channels:
            raise ValueError(
                f"module built for {self.in_channels} channels, input has {x.data.shape[1]}"
            )
        z = self.descriptor(x, tape)
        h = relu(dense(z, self.w0, None, tape), tape)
        raw = dense(h, self.w1, self.b1, tape)
        n = x.data.shape[0]
        floor_vec = Tensor(np.full(n, G_FLOOR))

        def g(col: Tensor) -> Tensor:
            return add(softplus(col, tape), floor_vec, tape)

        first = g(take_column(raw, 0, tape))
        if self.pattern == "sigma":
            return first, first
        second = g(take_column(raw, 1, tape))
        if self.pattern == "sigma_pair":
            return first, second
        return first, mul(first, second, tape)

    def param_items(self):
        return [("w0", self.w0), ("w1", self.w1), ("b1", self.b1)]


class DynamicGMConvLayer(_ConvLayer):
    """Convolution whose elliptic mask is predicted per input sample."""

    def __init__(
        self,
        weight: Tensor,
        bias: Tensor,
        sigma_module: DynamicSigmaModule,
        stride: int = 1,
        padding: int = 0,
    ):
        super().__init__(weight, bias, stride, padding)
        if sigma_module.in_channels != weight.data.shape[1]:
            raise ValueError(
                f"sigma module expects {sigma_module.in_channels} channels, "
                f"weight has {weight.data.shape[1]}"
            )
        self.sigma_module = sigma_module

    def forward(self, x: Tensor, tape: GradTape | None = None) -> Tensor:
        s1, s2 = self.sigma_module.predict(x, tape)
        mb = _elliptic_mask_batch(s1, s2, self.kernel_size, tape)
        wb = _per_sample_masked_weights(self.weight, mb, tape)
        return conv2d_per_sample(x, wb, self.bias, self.stride, self.padding, tape)

    def param_items(self):
        module = [(f"sigma_module.{n}", t) for n, t in self.sigma_module.param_items()]
        return super().param_items() + module
