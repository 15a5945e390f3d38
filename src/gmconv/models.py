"""Declarative model specs, masked-conv application policy, and runtime nets.

A ModelSpec is an ordered list of layer descriptors (conv variants, relu,
global pool, dense, residual block) with stem/body/head role tags. Specs
are pure values: they can be built by name from one table (``_NETS``,
every net scaled by ``width``), rewritten by a ConvPolicy (which decides
where masked convolutions go), serialized to JSON, and instantiated into a
runtime Model with He-initialized parameters. One spec-level rewrite,
``_map_convs``, reaches every conv descriptor (block convs included) for
both policy application and folding.

Each structural fact is stated once, by the module that owns it. A
LayerSpec checks its own fields, a masked one's start with the layers'
``check_mask_start``; one walk over a spec (``_walk_spec``) checks that
the layers compose, each conv's extent by ``tensor.conv_extent``, and
yields every conv and dense descriptor with its output size; a ModelSpec
runs it to the end when built, and ``count_flops`` sums over it.
``count_params`` is the parameter size of the Model a spec builds, so the
layers' own shape rules (the sigma predictor's hidden width and arity
included) are the only copy.

A Model is a list of modules, one per spec layer, made by one recursive
builder (``_build_module``). A conv descriptor becomes its conv layer; a
relu, pool or dense descriptor becomes a ``_TapeOp``, one tape op with its
fixed arguments and named parameters; a block builds its two convs
through the same builder, then sets them to start as the identity, and
names them as children. ``Model._walk`` visits every module once,
children after their block, and parameter naming, weight-decay
selection, masked-layer listing and folding are all built on it.

There is no batch normalization anywhere; He-style weight scales stand in
for it so the op set stays small and every gradient stays checkable.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass, fields, replace
from functools import cache, partial

import numpy as np

from .layers import (
    Conv2dLayer,
    DynamicGMConvLayer,
    DynamicSigmaModule,
    StaticGMConvLayer,
    check_mask_start,
    fold_mask,
)
# dense, global_pool and relu are called by name, through _TapeOp
from .tensor import GradTape, Tensor, add, conv_extent, dense, downsample_pad, global_pool, relu

ROLES = ("stem", "body", "head")

_CONV_FIELDS = ("in_channels", "out_channels", "kernel_size", "stride", "padding")
# the fields each op reads, and the only ones its JSON form carries
_LAYER_FIELDS = {
    "conv": _CONV_FIELDS,
    "gmconv-static": _CONV_FIELDS + ("sigma_init",),
    "gmconv-dynamic": _CONV_FIELDS + ("sigma_init", "pattern"),
    "relu": (),
    "pool": ("pool_mode",),
    "dense": ("in_features", "out_features"),
    "block": ("stride",),
}
# the conv op each policy mode writes
_MODE_TO_OP = {"std": "conv", "static": "gmconv-static", "dynamic": "gmconv-dynamic"}
ALL_OPS = tuple(_LAYER_FIELDS)
MODES = tuple(_MODE_TO_OP)
CONV_OPS = tuple(_MODE_TO_OP.values())


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
        check_field_types(self)
        if self.op not in ALL_OPS:
            raise ValueError(f"unknown layer op {self.op!r}")
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if len(self.inner) != (2 if self.op == "block" else 0):
            raise ValueError("a block holds exactly two conv descriptors; no other op holds any")
        if self.op in ("gmconv-static", "gmconv-dynamic"):
            check_mask_start(self.sigma_init, self.pattern, self.op == "gmconv-dynamic")
        for name in _LAYER_FIELDS[self.op]:
            value = getattr(self, name)
            if name == "pool_mode":
                if value not in ("avg", "max"):
                    raise ValueError(f"unknown pool mode {value!r}")
            elif name not in ("sigma_init", "pattern"):
                low = 0 if name == "padding" else 1
                if value < low:
                    raise ValueError(f"{self.op} {name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class ModelSpec:
    name: str
    num_classes: int
    input_shape: tuple[int, int, int]
    layers: tuple[LayerSpec, ...]

    def __post_init__(self) -> None:
        check_field_types(self)
        for _ in _walk_spec(self):
            pass


def check_field_types(obj, error: type[Exception] = ValueError) -> None:
    """Raise `error` unless every field of the dataclass `obj` holds its
    annotated type. An int field takes no float and a float field takes
    ints, but neither takes a bool; a float field takes only values that
    convert to a finite float; tuples are checked item by item."""
    for name, hint in _type_hints(type(obj)).items():
        value = getattr(obj, name)
        if not _conforms(value, hint):
            kind = hint.__name__ if isinstance(hint, type) else str(hint)
            raise error(f"{name} must be {kind}, got {value!r}")


def known_keys(obj, names, what: str, error: type[Exception] = ValueError) -> dict:
    """`obj` itself, if it is a JSON object whose keys are all among
    `names`; else raise `error` naming the unknown keys."""
    if not isinstance(obj, dict):
        raise error(f"{what} must be a JSON object")
    names = sorted(names)
    unknown = sorted(set(obj) - set(names))
    if unknown:
        raise error(f"unknown {what} keys {unknown}; known keys are {names}")
    return obj


@cache  # get_type_hints takes ~0.3 ms, and every LayerSpec is checked
def _type_hints(cls) -> dict:
    return typing.get_type_hints(cls)


@cache  # uncached, typing.get_origin and get_args are half of every spec check
def _hint_parts(hint) -> tuple:
    return typing.get_origin(hint), typing.get_args(hint)


def _conforms(value, hint) -> bool:
    origin, args = _hint_parts(hint)
    if hint in (int, float):
        if isinstance(value, bool) or not isinstance(value, (int, hint)):
            return False
        try:
            return hint is int or math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            return False
    if origin is tuple:
        if not isinstance(value, tuple):
            return False
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return len(value) == len(args) and all(map(_conforms, value, args))
    if args:  # a union such as `X | None`
        return any(_conforms(value, a) for a in args)
    return isinstance(value, hint)


@dataclass(frozen=True)
class ConvPolicy:
    """Where masked convolution goes: one mode for the stem, one for the
    body. Head layers are never rewritten."""

    stem_mode: str = "dynamic"
    body_mode: str = "static"
    sigma_init: float = 5.0
    pattern: str = "sigma_pair"

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.stem_mode not in MODES or self.body_mode not in MODES:
            raise ValueError(f"modes must be one of {MODES}")
        # the start of the masked layers the policy would make
        dynamic = "dynamic" in (self.stem_mode, self.body_mode)
        check_mask_start(self.sigma_init, self.pattern, dynamic)


def _walk_spec(spec: ModelSpec):
    """Check that consecutive layer shapes compose and that the spec ends
    in exactly one dense head, yielding (descriptor, output positions) for
    every conv and dense descriptor in execution order, blocks expanded.
    A conv's output positions are Ho * Wo; a dense layer's are 1."""
    c, h, w = spec.input_shape
    spatial: tuple[int, int] | None = (h, w)
    features: int | None = None
    heads = 0
    for i, layer in enumerate(spec.layers):
        where = f"layer {i} ({layer.op})"
        if layer.op == "relu":
            continue
        if layer.op == "dense":
            if features is None:
                raise ValueError(f"{where}: dense requires pooled features")
            if layer.in_features != features:
                raise ValueError(
                    f"{where}: expects {layer.in_features} features, has {features}"
                )
            features = layer.out_features
            heads += layer.role == "head"
            yield layer, 1
            continue
        if spatial is None:
            raise ValueError(f"{where}: {layer.op} after spatial collapse")
        if layer.op == "pool":
            spatial, features = None, c
            continue
        if layer.op == "block":
            c1, c2 = layer.inner
            if c1.op not in CONV_OPS or c2.op not in CONV_OPS:
                raise ValueError(f"{where}: block inner ops must be convs")
            if c2.out_channels != c1.out_channels:
                raise ValueError(f"{where}: block convs must share output width")
            if c1.stride not in (1, 2) or c2.stride != 1:
                raise ValueError(f"{where}: block strides must be (1|2, 1)")
            if layer.stride != c1.stride:
                raise ValueError(
                    f"{where}: block stride {layer.stride} is not its first conv's stride {c1.stride}"
                )
            if c1.out_channels < c or (c1.stride == 1 and c1.out_channels != c):
                raise ValueError(f"{where}: shortcut cannot map {c} to {c1.out_channels} channels")
            # the identity keeps (H, W); downsample_pad keeps every other pixel
            shortcut = spatial if c1.stride == 1 else ((spatial[0] + 1) // 2, (spatial[1] + 1) // 2)
        for conv in layer.inner if layer.op == "block" else (layer,):
            if conv.in_channels != c:
                raise ValueError(f"{where}: expects {conv.in_channels} channels, has {c}")
            spatial = conv_extent(*spatial, conv.kernel_size, conv.stride, conv.padding)
            c = conv.out_channels
            yield conv, spatial[0] * spatial[1]
        if layer.op == "block" and spatial != shortcut:
            raise ValueError(f"{where}: branch output {spatial} does not match shortcut {shortcut}")
    if heads != 1:
        raise ValueError(f"spec must contain exactly one head dense layer, found {heads}")
    if features != spec.num_classes:
        raise ValueError(
            f"final feature count {features} does not match num_classes {spec.num_classes}"
        )


# ---------------------------------------------------------------------------
# builders

# the (C, H, W) input of every zoo net
INPUT_SHAPE = (3, 32, 32)

# Each net's stem and body items at width 1.0, in order; the first is the
# stem. ("conv", out, kernel, stride, padding) is a conv followed by a relu;
# ("block", out, stride) is a residual block of two 3x3, padding-1 convs.
_NETS = {
    "resnet20-slim": (("conv", 16, 3, 1, 1),)
    + (("block", 16, 1),) * 3
    + (("block", 32, 2),) + (("block", 32, 1),) * 2
    + (("block", 64, 2),) + (("block", 64, 1),) * 2,
    "cnn-small": (
        ("conv", 16, 3, 1, 1), ("conv", 32, 3, 2, 1), ("conv", 32, 3, 1, 1), ("conv", 64, 3, 2, 1)
    ),
    # two oversized kernels to exercise masking on wide grids
    "alexnet-lite": (("conv", 16, 11, 2, 5), ("conv", 32, 5, 2, 2)),
}


def check_net(name: str, width: float) -> None:
    """The zoo's rule on a net request: `name` names a net of ``_NETS``
    and `width` is a finite number > 0. Raises ValueError."""
    if name not in _NETS:
        raise ValueError(f"unknown model {name!r}, expected one of {tuple(_NETS)}")
    if not (_conforms(width, float) and width > 0):
        raise ValueError(f"width must be a finite number > 0, got {width!r}")


def build_model(name: str, num_classes: int, width: float = 1.0) -> ModelSpec:
    """Construct the net `name` of ``_NETS`` as an all-plain spec on
    ``INPUT_SHAPE`` inputs with an avg-pool + dense head. `width` scales every
    channel count of every net (rounded, at least 1); see ``check_net``."""
    check_net(name, width)
    layers: list[LayerSpec] = []
    c = INPUT_SHAPE[0]
    for i, (op, base, *geometry) in enumerate(_NETS[name]):
        role = "body" if i else "stem"
        out = max(1, round(base * width))
        # conv descriptors take their fields in _CONV_FIELDS order
        if op == "conv":
            layers += [LayerSpec("conv", role, c, out, *geometry), LayerSpec("relu", role)]
        else:
            (stride,) = geometry
            c1 = LayerSpec("conv", role, c, out, 3, stride, 1)
            c2 = LayerSpec("conv", role, out, out, 3, 1, 1)
            layers.append(LayerSpec("block", role, stride=stride, inner=(c1, c2)))
        c = out
    layers += [
        LayerSpec("pool", "head", pool_mode="avg"),
        LayerSpec("dense", "head", in_features=c, out_features=num_classes),
    ]
    return ModelSpec(name, num_classes, INPUT_SHAPE, tuple(layers))


# ---------------------------------------------------------------------------
# policy application


def _map_convs(spec: ModelSpec, fn) -> ModelSpec:
    """Replace every conv descriptor, blocks included, by fn(descriptor)."""

    def rewrite(layer: LayerSpec) -> LayerSpec:
        if layer.op == "block":
            return replace(layer, inner=tuple(rewrite(c) for c in layer.inner))
        return fn(layer) if layer.op in CONV_OPS else layer

    return replace(spec, layers=tuple(rewrite(l) for l in spec.layers))


def _as_op(layer: LayerSpec, op: str, **values) -> LayerSpec:
    """`layer` as an `op` descriptor: each field `op` reads comes from
    `values`, else from `layer`, and every other field holds its default,
    so the descriptor equals its own JSON round trip."""
    kept = {f: values.get(f, getattr(layer, f)) for f in _LAYER_FIELDS[op]}
    return LayerSpec(op, layer.role, inner=layer.inner, **kept)


def apply_policy(spec: ModelSpec, policy: ConvPolicy) -> ModelSpec:
    """Rewrite every stem/body convolution per the policy; head untouched.

    Applying the same policy twice equals applying it once: the rewrite
    depends only on each conv's role, not on its current kind.
    """

    def rewrite(layer: LayerSpec) -> LayerSpec:
        if layer.role == "head":
            return layer
        mode = policy.stem_mode if layer.role == "stem" else policy.body_mode
        return _as_op(layer, _MODE_TO_OP[mode], sigma_init=policy.sigma_init,
                      pattern=policy.pattern)

    return _map_convs(spec, rewrite)


# ---------------------------------------------------------------------------
# accounting


def count_params(spec: ModelSpec) -> int:
    """Exact learnable-parameter count of a spec: the parameter size of
    the model it builds."""
    model = Model(spec, np.random.default_rng(0))
    return sum(t.data.size for _, t in model.named_parameters())


def count_flops(spec: ModelSpec) -> int:
    """Multiply-accumulate count for one sample through conv and dense
    layers (mask application, pooling, and activations are not counted)."""
    total = 0
    for layer, positions in _walk_spec(spec):
        if layer.op == "dense":
            total += layer.out_features * layer.in_features
        else:
            total += layer.out_channels * layer.in_channels * layer.kernel_size**2 * positions
    return total


# ---------------------------------------------------------------------------
# JSON round-trip


def _layer_to_dict(layer: LayerSpec) -> dict:
    d = {"op": layer.op, "role": layer.role}
    for f in _LAYER_FIELDS[layer.op]:
        d[f] = getattr(layer, f)
    if layer.op == "block":
        d["inner"] = [_layer_to_dict(c) for c in layer.inner]
    return d


def _json_list(value, what: str) -> list:
    """`value` itself, if it is a JSON list; else a ValueError."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, got {value!r}")
    return value


def _layer_from_dict(d: dict) -> LayerSpec:
    op = d.get("op") if isinstance(d, dict) else None
    # `in`, not a dict lookup: an op read from JSON may be an unhashable list
    if isinstance(d, dict) and op not in ALL_OPS:
        raise ValueError(f"unknown layer op {op!r}")
    d = dict(known_keys(d, ("op", "role", "inner", *_LAYER_FIELDS.get(op, ())), "spec layer"))
    op, role = d.pop("op"), d.pop("role")
    inner = tuple(_layer_from_dict(c) for c in _json_list(d.pop("inner", []), "spec layer inner"))
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
    doc = known_keys(json.loads(text), [f.name for f in fields(ModelSpec)], "model spec")
    try:
        return ModelSpec(
            name=doc["name"],
            num_classes=doc["num_classes"],
            input_shape=tuple(_json_list(doc["input_shape"], "input_shape")),
            layers=tuple(_layer_from_dict(l) for l in _json_list(doc["layers"], "layers")),
        )
    except KeyError as exc:
        raise ValueError(f"model spec document is missing field {exc}") from exc


# ---------------------------------------------------------------------------
# runtime model


class _TapeOp:
    """A spec layer that is one tape op: relu, a global pool or a dense
    layer. `forward` calls the op on the input, its fixed `args` (a pool's
    mode), its named `params` (a dense layer's weight and bias) and the
    tape. The op is held by name and looked up in this module at each
    call, so a wrapper patched over the module's function (a profiler's)
    runs for models built before the patch and stops with it."""

    def __init__(self, op: str, *args, **params: Tensor):
        self.op, self.args, self.params = op, args, params

    def forward(self, x, tape=None):
        return globals()[self.op](x, *self.args, *self.params.values(), tape)

    def param_items(self):
        return list(self.params.items())


class _ResidualBlock:
    """Two 3x3 convs with an identity shortcut: relu(conv2(relu(conv1(x)))
    + shortcut). A stride-2 first conv pairs with a parameter-free
    subsample-and-zero-pad shortcut. Stride and widths are read from the
    convs and the input. Both ReLUs run inside the op before them: conv1
    is built with the ReLU epilogue and the shortcut add takes
    `relu=True`, so the block records no relu op and no raw conv1 output
    or residual sum is ever stored. The add writes its clamped sum over
    conv2's fresh output (`inplace=True`), which no backward reads, so the
    raw conv2 output is never stored either: it becomes the block's
    output."""

    children = ("conv1", "conv2")

    def __init__(self, conv1, conv2):
        self.conv1 = conv1
        self.conv2 = conv2

    def forward(self, x, tape=None):
        y = self.conv2.forward(self.conv1.forward(x, tape), tape)
        if self.conv1.stride == 1:  # the spec check keeps a stride-1 block's width
            shortcut = x
        else:
            shortcut = downsample_pad(x, self.conv1.weight.data.shape[0], tape)
        return add(y, shortcut, tape, relu=True, inplace=True)

    def param_items(self):
        return []


def _he_normal(rng: np.random.Generator, *shape: int) -> Tensor:
    """He-normal weights: fan-in is the product of all but the first dim."""
    return Tensor(rng.normal(0.0, math.sqrt(2.0 / math.prod(shape[1:])), size=shape))


def _build_module(layer: LayerSpec, rng: np.random.Generator, num_blocks: int, relu: bool = False):
    """The runtime module of one spec layer, its parameters drawn from
    `rng` in spec order. `num_blocks` is the spec's residual block count;
    `relu` builds a conv with the ReLU epilogue."""
    if layer.op == "block":
        conv1 = _build_module(layer.inner[0], rng, num_blocks, relu=True)
        conv2 = _build_module(layer.inner[1], rng, num_blocks)
        # Blocks start as identities: with no normalization layers, zeroing
        # the branch's last conv and shrinking the first by 1/sqrt(#blocks)
        # keeps activation variance bounded at any depth. The draws above
        # are kept so parameter streams stay aligned across conv policies.
        conv1.weight.data *= num_blocks**-0.5
        conv2.weight.data[:] = 0.0
        return _ResidualBlock(conv1, conv2)
    if layer.op == "relu":
        return _TapeOp("relu")
    if layer.op == "pool":
        return _TapeOp("global_pool", layer.pool_mode)
    if layer.op == "dense":
        w = _he_normal(rng, layer.out_features, layer.in_features)
        return _TapeOp("dense", weight=w, bias=Tensor(np.zeros(layer.out_features)))
    o, c, k = layer.out_channels, layer.in_channels, layer.kernel_size
    w = _he_normal(rng, o, c, k, k)
    b = Tensor(np.zeros(o))
    if layer.op == "conv":
        return Conv2dLayer(w, b, layer.stride, layer.padding, relu)
    if layer.op == "gmconv-static":
        return StaticGMConvLayer(w, b, layer.sigma_init, layer.stride, layer.padding, relu)
    module = DynamicSigmaModule(c, rng, pattern=layer.pattern, sigma_init=layer.sigma_init)
    return DynamicGMConvLayer(w, b, module, layer.stride, layer.padding, relu)


class Model:
    """A runtime network instantiated from a ModelSpec.

    Parameters are drawn from the supplied generator in spec order, so a
    fixed seed fully determines the initialization.
    """

    def __init__(self, spec: ModelSpec, rng: np.random.Generator):
        self.spec = spec
        num_blocks = sum(layer.op == "block" for layer in spec.layers)
        self.modules = [_build_module(layer, rng, num_blocks) for layer in spec.layers]

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
            self.spec, lambda l: _as_op(l, "conv") if l.op == "gmconv-static" else l
        )
        return len(static)

    def predict(self, x: Tensor) -> np.ndarray:
        """Argmax class per sample, tape-free. Raises FloatingPointError if
        a logit is NaN or infinite: the argmax of a NaN row is class 0."""
        logits = self.forward(x).data
        if not np.all(np.isfinite(logits)):
            raise FloatingPointError("the model's logits are not finite")
        return np.argmax(logits, axis=1)
