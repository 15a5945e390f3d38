"""Declarative model specs, masked-conv application policy, and runtime nets.

A ModelSpec is an ordered list of layer descriptors (conv variants, relu,
global pool, dense, residual block) with stem/body/head role tags. Specs
are pure values: they can be built by name, rewritten by a ConvPolicy
(which decides where masked convolutions go), serialized to JSON, and
instantiated into a runtime Model with He-initialized parameters. One
spec-level rewrite, ``_map_convs``, reaches every conv descriptor (block
convs included) for both policy application and folding.

A Model is a list of modules; a residual block names its two convs as
children. ``Model._walk`` visits every module once, children after their
block, and parameter naming, weight-decay selection, masked-layer listing
and folding are all built on it.

There is no batch normalization anywhere; He-style weight scales stand in
for it so the op set stays small and every gradient stays checkable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .layers import (
    Conv2dLayer,
    DynamicGMConvLayer,
    DynamicSigmaModule,
    StaticGMConvLayer,
    fold_mask,
)
from .tensor import GradTape, Tensor, add, dense, downsample_pad, global_pool, relu

CONV_OPS = ("conv", "gmconv-static", "gmconv-dynamic")
ALL_OPS = CONV_OPS + ("relu", "pool", "dense", "block")
ROLES = ("stem", "body", "head")
MODES = ("std", "static", "dynamic")
REDUCTION_RATIO = 4.0 / 3.0


@dataclass(frozen=True)
class LayerSpec:
    """One layer descriptor. Fields are meaningful per op:

    conv kinds: in_channels, out_channels, kernel_size, stride, padding,
    plus sigma_init / pattern for the masked variants. pool: pool_mode
    (collapses spatial dims to N x C). dense: in_features, out_features.
    block: inner holds exactly two conv descriptors; stride is the first
    conv's stride and decides the shortcut form.
    """

    op: str
    role: str
    in_channels: int = 0
    out_channels: int = 0
    kernel_size: int = 0
    stride: int = 1
    padding: int = 0
    in_features: int = 0
    out_features: int = 0
    pool_mode: str = "avg"
    sigma_init: float = 5.0
    pattern: str = "sigma_pair"
    inner: tuple["LayerSpec", ...] = ()

    def __post_init__(self) -> None:
        if self.op not in ALL_OPS:
            raise ValueError(f"unknown layer op {self.op!r}")
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if self.op == "block" and len(self.inner) != 2:
            raise ValueError("a block holds exactly two conv descriptors")


@dataclass(frozen=True)
class ModelSpec:
    name: str
    num_classes: int
    input_shape: tuple[int, int, int]
    layers: tuple[LayerSpec, ...]

    def __post_init__(self) -> None:
        check_spec(self)


@dataclass(frozen=True)
class ConvPolicy:
    """Where masked convolution goes: one mode for the stem, one for the
    body. Head layers are never rewritten."""

    stem_mode: str = "dynamic"
    body_mode: str = "static"
    sigma_init: float = 5.0
    pattern: str = "sigma_pair"

    def __post_init__(self) -> None:
        if self.stem_mode not in MODES or self.body_mode not in MODES:
            raise ValueError(f"modes must be one of {MODES}")
        if self.sigma_init <= 0:
            raise ValueError(f"sigma_init must be positive, got {self.sigma_init}")


def _conv_out(hw: tuple[int, int], k: int, stride: int, padding: int) -> tuple[int, int]:
    h, w = hw
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    if ho < 1 or wo < 1:
        raise ValueError(f"layer collapses spatial extent: {hw} with k={k}")
    return ho, wo


def check_spec(spec: ModelSpec) -> None:
    """Statically verify that consecutive layer shapes compose and the
    spec ends in exactly one dense head."""
    c, h, w = spec.input_shape
    spatial: tuple[int, int] | None = (h, w)
    features: int | None = None
    heads = 0
    for i, layer in enumerate(spec.layers):
        where = f"layer {i} ({layer.op})"
        if layer.op in CONV_OPS:
            if spatial is None:
                raise ValueError(f"{where}: convolution after spatial collapse")
            if layer.in_channels != c:
                raise ValueError(f"{where}: expects {layer.in_channels} channels, has {c}")
            spatial = _conv_out(spatial, layer.kernel_size, layer.stride, layer.padding)
            c = layer.out_channels
        elif layer.op == "block":
            if spatial is None:
                raise ValueError(f"{where}: block after spatial collapse")
            c1, c2 = layer.inner
            if c1.op not in CONV_OPS or c2.op not in CONV_OPS:
                raise ValueError(f"{where}: block inner ops must be convs")
            if c1.in_channels != c or c2.in_channels != c1.out_channels:
                raise ValueError(f"{where}: block channels do not compose")
            if c2.out_channels != c1.out_channels:
                raise ValueError(f"{where}: block convs must share output width")
            if c1.stride not in (1, 2) or c2.stride != 1:
                raise ValueError(f"{where}: block strides must be (1|2, 1)")
            if c1.out_channels < c:
                raise ValueError(f"{where}: shortcut cannot shrink channels")
            spatial = _conv_out(spatial, c1.kernel_size, c1.stride, c1.padding)
            spatial = _conv_out(spatial, c2.kernel_size, c2.stride, c2.padding)
            c = c1.out_channels
        elif layer.op == "relu":
            pass
        elif layer.op == "pool":
            if spatial is None:
                raise ValueError(f"{where}: pool after spatial collapse")
            if layer.pool_mode not in ("avg", "max"):
                raise ValueError(f"{where}: unknown pool mode {layer.pool_mode!r}")
            spatial = None
            features = c
        elif layer.op == "dense":
            if features is None:
                raise ValueError(f"{where}: dense requires pooled features")
            if layer.in_features != features:
                raise ValueError(
                    f"{where}: expects {layer.in_features} features, has {features}"
                )
            features = layer.out_features
            if layer.role == "head":
                heads += 1
    if heads != 1:
        raise ValueError(f"spec must contain exactly one head dense layer, found {heads}")
    if features != spec.num_classes:
        raise ValueError(
            f"final feature count {features} does not match num_classes {spec.num_classes}"
        )


# ---------------------------------------------------------------------------
# builders


def _ch(base: int, width: float) -> int:
    return max(1, round(base * width))


def build_model(name: str, num_classes: int, width: float = 1.0) -> ModelSpec:
    """Construct one of the shipped architectures as an all-plain spec.

    resnet20-slim honors the width multiplier (1.0 reproduces the full
    channel plan 16/32/64); the other two are fixed-size.
    """
    if name == "resnet20-slim":
        return _build_resnet20(num_classes, width)
    if name == "cnn-small":
        return _build_cnn_small(num_classes)
    if name == "alexnet-lite":
        return _build_alexnet_lite(num_classes)
    raise ValueError(f"unknown model {name!r}")


def _conv(cin, cout, k, stride, padding, role) -> LayerSpec:
    return LayerSpec(
        op="conv",
        role=role,
        in_channels=cin,
        out_channels=cout,
        kernel_size=k,
        stride=stride,
        padding=padding,
    )


def _build_resnet20(num_classes: int, width: float) -> ModelSpec:
    c1, c2, c3 = _ch(16, width), _ch(32, width), _ch(64, width)
    layers: list[LayerSpec] = [
        _conv(3, c1, 3, 1, 1, "stem"),
        LayerSpec(op="relu", role="stem"),
    ]

    def block(cin, cout, stride):
        inner = (
            _conv(cin, cout, 3, stride, 1, "body"),
            _conv(cout, cout, 3, 1, 1, "body"),
        )
        return LayerSpec(op="block", role="body", stride=stride, inner=inner)

    plan = [(c1, c1, 1)] * 3 + [(c1, c2, 2), (c2, c2, 1), (c2, c2, 1)] + [
        (c2, c3, 2),
        (c3, c3, 1),
        (c3, c3, 1),
    ]
    for cin, cout, stride in plan:
        layers.append(block(cin, cout, stride))
    layers += [
        LayerSpec(op="pool", role="head", pool_mode="avg"),
        LayerSpec(op="dense", role="head", in_features=c3, out_features=num_classes),
    ]
    return ModelSpec("resnet20-slim", num_classes, (3, 32, 32), tuple(layers))


def _build_cnn_small(num_classes: int) -> ModelSpec:
    layers = (
        _conv(3, 16, 3, 1, 1, "stem"),
        LayerSpec(op="relu", role="stem"),
        _conv(16, 32, 3, 2, 1, "body"),
        LayerSpec(op="relu", role="body"),
        _conv(32, 32, 3, 1, 1, "body"),
        LayerSpec(op="relu", role="body"),
        _conv(32, 64, 3, 2, 1, "body"),
        LayerSpec(op="relu", role="body"),
        LayerSpec(op="pool", role="head", pool_mode="avg"),
        LayerSpec(op="dense", role="head", in_features=64, out_features=num_classes),
    )
    return ModelSpec("cnn-small", num_classes, (3, 32, 32), layers)


def _build_alexnet_lite(num_classes: int) -> ModelSpec:
    # two oversized kernels to exercise masking on wide grids
    layers = (
        _conv(3, 16, 11, 2, 5, "stem"),
        LayerSpec(op="relu", role="stem"),
        _conv(16, 32, 5, 2, 2, "body"),
        LayerSpec(op="relu", role="body"),
        LayerSpec(op="pool", role="head", pool_mode="avg"),
        LayerSpec(op="dense", role="head", in_features=32, out_features=num_classes),
    )
    return ModelSpec("alexnet-lite", num_classes, (3, 32, 32), layers)


# ---------------------------------------------------------------------------
# policy application


_MODE_TO_OP = {"std": "conv", "static": "gmconv-static", "dynamic": "gmconv-dynamic"}


def _map_convs(spec: ModelSpec, fn) -> ModelSpec:
    """Replace every conv descriptor, blocks included, by fn(descriptor)."""

    def rewrite(layer: LayerSpec) -> LayerSpec:
        if layer.op == "block":
            return replace(layer, inner=tuple(rewrite(c) for c in layer.inner))
        return fn(layer) if layer.op in CONV_OPS else layer

    return replace(spec, layers=tuple(rewrite(l) for l in spec.layers))


def apply_policy(spec: ModelSpec, policy: ConvPolicy) -> ModelSpec:
    """Rewrite every stem/body convolution per the policy; head untouched.

    Applying the same policy twice equals applying it once: the rewrite
    depends only on each conv's role, not on its current kind.
    """

    def rewrite(layer: LayerSpec) -> LayerSpec:
        if layer.role == "head":
            return layer
        mode = policy.stem_mode if layer.role == "stem" else policy.body_mode
        new_op = _MODE_TO_OP[mode]
        if new_op == "gmconv-dynamic" and layer.in_channels < 1:
            raise ValueError("dynamic mode needs at least one input channel")
        return replace(
            layer,
            op=new_op,
            sigma_init=policy.sigma_init,
            pattern=policy.pattern,
        )

    return _map_convs(spec, rewrite)


# ---------------------------------------------------------------------------
# accounting


def _dynamic_module_sizes(c: int, pattern: str) -> tuple[int, int, int]:
    hidden = math.floor(2 * c / REDUCTION_RATIO)
    arity = 1 if pattern == "sigma" else 2
    return hidden * 2 * c, arity * hidden, arity


def _conv_params(layer: LayerSpec) -> int:
    base = layer.out_channels * layer.in_channels * layer.kernel_size**2 + layer.out_channels
    if layer.op == "gmconv-static":
        return base + 1
    if layer.op == "gmconv-dynamic":
        return base + sum(_dynamic_module_sizes(layer.in_channels, layer.pattern))
    return base


def _unblocked(spec: ModelSpec):
    """The spec's layers in execution order with each block replaced by its
    two convs; its shortcut carries no parameters and no MACs."""
    for layer in spec.layers:
        yield from layer.inner if layer.op == "block" else (layer,)


def count_params(spec: ModelSpec) -> int:
    """Exact learnable-parameter count of a spec."""
    total = 0
    for layer in _unblocked(spec):
        if layer.op in CONV_OPS:
            total += _conv_params(layer)
        elif layer.op == "dense":
            total += layer.out_features * layer.in_features + layer.out_features
    return total


def count_flops(spec: ModelSpec, input_shape: tuple[int, int, int] | None = None) -> int:
    """Multiply-accumulate count for one sample through conv and dense
    layers (mask application, pooling, and activations are not counted)."""
    _, h, w = spec.input_shape if input_shape is None else input_shape
    spatial: tuple[int, int] | None = (h, w)
    total = 0
    for layer in _unblocked(spec):
        if layer.op in CONV_OPS:
            spatial = _conv_out(spatial, layer.kernel_size, layer.stride, layer.padding)
            taps = layer.in_channels * layer.kernel_size**2
            total += layer.out_channels * taps * spatial[0] * spatial[1]
        elif layer.op == "pool":
            spatial = None
        elif layer.op == "dense":
            total += layer.out_features * layer.in_features
    return total


# ---------------------------------------------------------------------------
# JSON round-trip


_CONV_FIELDS = ("in_channels", "out_channels", "kernel_size", "stride", "padding")
_LAYER_FIELDS = {
    "conv": _CONV_FIELDS,
    "gmconv-static": _CONV_FIELDS + ("sigma_init",),
    "gmconv-dynamic": _CONV_FIELDS + ("sigma_init", "pattern"),
    "relu": (),
    "pool": ("pool_mode",),
    "dense": ("in_features", "out_features"),
    "block": ("stride",),
}


def _layer_to_dict(layer: LayerSpec) -> dict:
    d = {"op": layer.op, "role": layer.role}
    for f in _LAYER_FIELDS[layer.op]:
        d[f] = getattr(layer, f)
    if layer.op == "block":
        d["inner"] = [_layer_to_dict(c) for c in layer.inner]
    return d


def _layer_from_dict(d: dict) -> LayerSpec:
    d = dict(d)
    op = d.pop("op")
    role = d.pop("role")
    inner = tuple(_layer_from_dict(c) for c in d.pop("inner", []))
    allowed = set(_LAYER_FIELDS.get(op, ()))
    bad = set(d) - allowed
    if bad:
        raise ValueError(f"unknown fields for op {op!r}: {sorted(bad)}")
    return LayerSpec(op=op, role=role, inner=inner, **d)


def spec_to_json(spec: ModelSpec) -> str:
    doc = {
        "name": spec.name,
        "num_classes": spec.num_classes,
        "input_shape": list(spec.input_shape),
        "layers": [_layer_to_dict(l) for l in spec.layers],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def spec_from_json(text: str) -> ModelSpec:
    doc = json.loads(text)
    try:
        return ModelSpec(
            name=doc["name"],
            num_classes=int(doc["num_classes"]),
            input_shape=tuple(doc["input_shape"]),
            layers=tuple(_layer_from_dict(l) for l in doc["layers"]),
        )
    except KeyError as exc:
        raise ValueError(f"model spec document is missing field {exc}") from exc


# ---------------------------------------------------------------------------
# runtime model


class _ReluOp:
    def forward(self, x, tape=None):
        return relu(x, tape)

    def param_items(self):
        return []


class _GlobalPoolOp:
    def __init__(self, mode: str):
        self.mode = mode

    def forward(self, x, tape=None):
        return global_pool(x, self.mode, tape)

    def param_items(self):
        return []


class _DenseOp:
    def __init__(self, weight: Tensor, bias: Tensor):
        self.weight = weight
        self.bias = bias

    def forward(self, x, tape=None):
        return dense(x, self.weight, self.bias, tape)

    def param_items(self):
        return [("weight", self.weight), ("bias", self.bias)]


class _ResidualBlock:
    """Two 3x3 convs with an identity shortcut. A stride-2 first conv
    pairs with a parameter-free subsample-and-zero-pad shortcut."""

    children = ("conv1", "conv2")

    def __init__(self, conv1, conv2, in_channels: int, out_channels: int, stride: int):
        self.conv1 = conv1
        self.conv2 = conv2
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride

    def forward(self, x, tape=None):
        h = relu(self.conv1.forward(x, tape), tape)
        h = self.conv2.forward(h, tape)
        if self.stride == 1 and self.in_channels == self.out_channels:
            shortcut = x
        else:
            shortcut = downsample_pad(x, self.out_channels, tape)
        return relu(add(h, shortcut, tape), tape)

    def param_items(self):
        return []


def _he_conv_weight(rng: np.random.Generator, o: int, c: int, k: int) -> Tensor:
    std = math.sqrt(2.0 / (c * k * k))
    return Tensor(rng.normal(0.0, std, size=(o, c, k, k)), requires_grad=True)


def _build_conv_module(layer: LayerSpec, rng: np.random.Generator):
    o, c, k = layer.out_channels, layer.in_channels, layer.kernel_size
    w = _he_conv_weight(rng, o, c, k)
    b = Tensor(np.zeros(o), requires_grad=True)
    if layer.op == "conv":
        return Conv2dLayer(w, b, layer.stride, layer.padding)
    if layer.op == "gmconv-static":
        return StaticGMConvLayer(w, b, layer.sigma_init, layer.stride, layer.padding)
    if layer.op == "gmconv-dynamic":
        module = DynamicSigmaModule(
            c,
            r=REDUCTION_RATIO,
            pattern=layer.pattern,
            sigma_init=layer.sigma_init,
            rng=rng,
        )
        return DynamicGMConvLayer(w, b, module, layer.stride, layer.padding)
    raise ValueError(f"not a conv op: {layer.op}")


class Model:
    """A runtime network instantiated from a ModelSpec.

    Parameters are drawn from the supplied generator in spec order, so a
    fixed seed fully determines the initialization.
    """

    def __init__(self, spec: ModelSpec, rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng()
        self.spec = spec
        self.modules: list = []
        num_blocks = max(1, sum(1 for l in spec.layers if l.op == "block"))
        for layer in spec.layers:
            if layer.op in CONV_OPS:
                self.modules.append(_build_conv_module(layer, rng))
            elif layer.op == "block":
                c1 = _build_conv_module(layer.inner[0], rng)
                c2 = _build_conv_module(layer.inner[1], rng)
                # Blocks start as identities: with no normalization layers,
                # zeroing the branch's last conv and shrinking the first by
                # 1/sqrt(#blocks) keeps activation variance bounded at any
                # depth. The draws above are kept so parameter streams stay
                # aligned across conv policies.
                c1.weight.data *= num_blocks**-0.5
                c2.weight.data[:] = 0.0
                self.modules.append(
                    _ResidualBlock(
                        c1,
                        c2,
                        layer.inner[0].in_channels,
                        layer.inner[0].out_channels,
                        layer.inner[0].stride,
                    )
                )
            elif layer.op == "relu":
                self.modules.append(_ReluOp())
            elif layer.op == "pool":
                self.modules.append(_GlobalPoolOp(layer.pool_mode))
            elif layer.op == "dense":
                std = math.sqrt(2.0 / layer.in_features)
                w = Tensor(
                    rng.normal(0.0, std, size=(layer.out_features, layer.in_features)),
                    requires_grad=True,
                )
                b = Tensor(np.zeros(layer.out_features), requires_grad=True)
                self.modules.append(_DenseOp(w, b))
            else:
                raise ValueError(f"unknown layer op {layer.op!r}")

    def forward(self, x: Tensor, tape: GradTape | None = None) -> Tensor:
        h = x
        for mod in self.modules:
            h = mod.forward(h, tape)
        return h

    def _walk(self):
        """(name, module, put) for every module in network order, each
        block followed by its children (layer7, layer7.conv1,
        layer7.conv2); put(new) swaps the module in its owner."""

        def walk(name, mod, put):
            yield name, mod, put
            for attr in getattr(mod, "children", ()):
                yield from walk(f"{name}.{attr}", getattr(mod, attr), partial(setattr, mod, attr))

        for i, mod in enumerate(self.modules):
            yield from walk(f"layer{i}", mod, partial(self.modules.__setitem__, i))

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [(f"{name}.{p}", t) for name, mod, _ in self._walk() for p, t in mod.param_items()]

    def decay_parameter_names(self) -> set[str]:
        """Conv and dense weights; sigma, the sigma predictor and biases
        are never decayed."""
        return {name for name, _ in self.named_parameters() if name.endswith(".weight")}

    def static_sigma_items(self) -> list[tuple[str, Tensor]]:
        """Raw sigma tensors of static masked layers, in network order."""
        return [(n, t) for n, t in self.named_parameters() if n.endswith(".sigma")]

    def masked_layer_items(self) -> list[tuple[str, object]]:
        """(name, layer) for every masked conv, blocks included."""
        masked = (StaticGMConvLayer, DynamicGMConvLayer)
        return [(name, mod) for name, mod, _ in self._walk() if isinstance(mod, masked)]

    def fold(self) -> int:
        """Fold every static masked layer's mask into its weights in
        place, rewriting the spec to plain convs. Dynamic layers are left
        untouched (their mask depends on the input). Returns the number
        of layers folded."""
        static = [(mod, put) for _, mod, put in self._walk() if isinstance(mod, StaticGMConvLayer)]
        for mod, put in static:
            put(fold_mask(mod))
        self.spec = _map_convs(
            self.spec, lambda l: replace(l, op="conv") if l.op == "gmconv-static" else l
        )
        return len(static)

    def predict(self, x: Tensor) -> np.ndarray:
        """Argmax class per sample, tape-free."""
        return np.argmax(self.forward(x).data, axis=1)
