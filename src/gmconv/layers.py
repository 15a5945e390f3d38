"""Convolution layers: plain, static Gaussian-masked, dynamic Gaussian-masked.

A static layer owns one learnable width parameter sigma; its mask is the
K x K grid circular_values(sigma, K), which scales every kernel's taps.
Gradients reach sigma through the analytic mask derivative.

A dynamic layer predicts per-sample widths (sigma1, sigma2) from a pooled
descriptor of its own input through a small two-layer bottleneck, and
each sample gets its own elliptic mask. Either masked layer is two tape
ops: the mask op, which maps widths to masks (two 0-d widths give one
K x K mask, two N-vectors give N x K x K masks), then ``conv2d`` with that
mask as tap scales of the shared kernel. The mask op evaluates the slope
view ``masks.elliptic_grad_batch``, which returns the masks too, only if
the tape needs a width adjoint.

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
    _result,
    add,
    check_kernel,
    concat_cols,
    conv2d,
    dense,
    global_pool,
    mul,
    relu,
    softplus,
    take_column,
)

PATTERNS = ("sigma", "sigma_pair", "sigma_ratio")

# floor of the positivity map g(t) = softplus(t) + G_FLOOR; keeps predicted
# widths strictly positive and the map smooth everywhere
G_FLOOR = 0.1
REDUCTION_RATIO = 4.0 / 3.0


def check_mask_start(sigma_init: float, pattern: str, dynamic: bool) -> None:
    """A masked layer's start: `sigma_init` above 0, or above G_FLOOR (the
    floor of every predicted width) when dynamic; a `pattern` of PATTERNS."""
    floor = G_FLOOR if dynamic else 0.0
    if sigma_init <= floor:
        raise ValueError(f"sigma_init must be a number > {floor}, got {sigma_init}")
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}, expected one of {PATTERNS}")


def softplus_inverse(y: float) -> float:
    """Solve softplus(t) = y for t > 0 targets: log(expm1(y))."""
    if y <= 0:
        raise ValueError(f"softplus only reaches positive values, got target {y}")
    return float(np.log(np.expm1(y)))


class _ConvLayer:
    """What every conv layer holds: an O x C x K x K weight, a bias per
    filter, stride and padding, and whether its conv ends in a ReLU
    (`conv2d(relu=True)`), as a residual block's first conv does."""

    def __init__(self, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0,
                 relu: bool = False):
        check_kernel(weight.data, bias.data, stride, padding)
        self.weight = weight
        self.bias = bias
        self.stride = stride
        self.padding = padding
        self.relu = relu

    @property
    def kernel_size(self) -> int:
        return self.weight.data.shape[2]

    def param_items(self):
        return [("weight", self.weight), ("bias", self.bias)]


class Conv2dLayer(_ConvLayer):
    """Ordinary convolution; also the result of folding a static layer."""

    def forward(self, x: Tensor, tape: GradTape | None = None) -> Tensor:
        return conv2d(x, self.weight, self.bias, self.stride, self.padding, tape, relu=self.relu)


def _per_sample_masked_weights(
    s1: Tensor, s2: Tensor, kernel_size: int, tape: GradTape | None
) -> Tensor:
    """Tape op: the elliptic masks of widths s1 and s2, one K x K mask for
    two 0-d widths or N x K x K masks for two N-vectors; its backward maps
    the masks' adjoint to the widths'."""
    shape = s1.data.shape + (kernel_size, kernel_size)
    w1, w2 = s1.data.reshape(-1), s2.data.reshape(-1)
    if tape is None or not (tape.needs(s1) or tape.needs(s2)):
        return Tensor(masks.elliptic_values_batch(w1, w2, kernel_size).reshape(shape))
    m, g1, g2 = (a.reshape(shape) for a in masks.elliptic_grad_batch(w1, w2, kernel_size))

    def backward(dm: np.ndarray):
        return np.sum(dm * g1, axis=(-2, -1)), np.sum(dm * g2, axis=(-2, -1))

    return _result(m, tape, (s1, s2), backward)


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
        relu: bool = False,
    ):
        super().__init__(weight, bias, stride, padding, relu)
        self.sigma = Tensor(np.float64(sigma))
        self.folded = False

    def forward(self, x: Tensor, tape: GradTape | None = None) -> Tensor:
        if self.folded:
            raise RuntimeError("layer was folded; its sigma has been consumed")
        m = _per_sample_masked_weights(self.sigma, self.sigma, self.kernel_size, tape)
        return conv2d(x, self.weight, self.bias, self.stride, self.padding, tape, m, self.relu)

    def param_items(self):
        return super().param_items() + [("sigma", self.sigma)]


def fold_mask(layer: StaticGMConvLayer) -> Conv2dLayer:
    """Bake the current mask into the weights, returning a plain layer.

    The folded weight is W * circular_values(sigma, K), the same products
    the static forward forms when its mask scales the kernel's taps, so the
    folded layer reproduces its outputs bit for bit; it keeps the layer's
    ReLU epilogue.
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
    mask = masks.circular_values(float(layer.sigma.data), layer.kernel_size)
    layer.folded = True
    return Conv2dLayer(Tensor(layer.weight.data * mask), layer.bias, layer.stride, layer.padding,
                       layer.relu)


class DynamicSigmaModule:
    """Two-layer bottleneck that maps a pooled descriptor to mask widths.

    The descriptor z is the concatenation of global max and average pools,
    length 2C. The head is raw = W1 @ relu(W0 @ z) + B1 with hidden width
    floor(2C / REDUCTION_RATIO). Three prediction patterns:

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
        rng: np.random.Generator,
        pattern: str = "sigma_pair",
        sigma_init: float = 5.0,
    ):
        check_mask_start(sigma_init, pattern, dynamic=True)
        if in_channels < 1:
            raise ValueError(f"in_channels must be positive, got {in_channels}")
        self.in_channels = in_channels
        self.pattern = pattern
        # 2C / REDUCTION_RATIO = 1.5 C, so C >= 1 leaves at least one unit
        hidden = math.floor(2 * in_channels / REDUCTION_RATIO)
        self.hidden = hidden
        arity = 1 if pattern == "sigma" else 2
        self.arity = arity

        lim0 = 1.0 / math.sqrt(2 * in_channels)
        lim1 = 1.0 / math.sqrt(hidden)
        self.w0 = Tensor(rng.uniform(-lim0, lim0, size=(hidden, 2 * in_channels)))
        self.w1 = Tensor(rng.uniform(-lim1, lim1, size=(arity, hidden)))
        b1 = np.empty(arity)
        b1[0] = softplus_inverse(sigma_init - G_FLOOR)
        if arity == 2:
            if pattern == "sigma_pair":
                b1[1] = b1[0]
            else:  # sigma_ratio: unit ratio
                b1[1] = softplus_inverse(1.0 - G_FLOOR)
        self.b1 = Tensor(b1)

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
        floor = Tensor(np.full(raw.data.shape, G_FLOOR))
        widths = add(softplus(raw, tape), floor, tape)
        first = take_column(widths, 0, tape)
        if self.pattern == "sigma":
            return first, first
        second = take_column(widths, 1, tape)
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
        relu: bool = False,
    ):
        super().__init__(weight, bias, stride, padding, relu)
        if sigma_module.in_channels != weight.data.shape[1]:
            raise ValueError(
                f"sigma module expects {sigma_module.in_channels} channels, "
                f"weight has {weight.data.shape[1]}"
            )
        self.sigma_module = sigma_module

    def forward(self, x: Tensor, tape: GradTape | None = None) -> Tensor:
        s1, s2 = self.sigma_module.predict(x, tape)
        m = _per_sample_masked_weights(s1, s2, self.kernel_size, tape)
        return conv2d(x, self.weight, self.bias, self.stride, self.padding, tape, m, self.relu)

    def param_items(self):
        module = [(f"sigma_module.{n}", t) for n, t in self.sigma_module.param_items()]
        return super().param_items() + module
