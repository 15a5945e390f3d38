"""Gaussian-masked convolution: differentiable receptive-field shaping.

Square conv kernels are modulated elementwise by a Gaussian grid whose
width is either a learnable per-layer scalar (static, circular) or
predicted per input by a small pooling module (dynamic, elliptic). After
training, static masks fold into the weights so inference is a plain
convolution. The package is self-contained on numpy: tensor autodiff,
model zoo, receptive-field probing, dataset ingestion, SGD training, and
a command-line surface.
"""

from types import ModuleType as _ModuleType

from .checkpoint import (
    Checkpoint,
    checkpoint_from_model,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)
from .data import (
    DataError,
    DatasetSource,
    augment_batch,
    find_cifar10_root,
    load_dataset,
    make_synthetic,
)
from .erf import ErfMap, dump_layer_masks, erf_radius, estimate_erf
from .layers import (
    Conv2dLayer,
    DynamicGMConvLayer,
    DynamicSigmaModule,
    PATTERNS,
    StaticGMConvLayer,
    fold_mask,
)
from .masks import (
    GaussianMask,
    SIGMA_MAX,
    SIGMA_MIN,
    circular_mask,
    circular_values,
    clamp_sigma,
    elliptic_mask,
    elliptic_values,
)
from .models import (
    ConvPolicy,
    LayerSpec,
    Model,
    ModelSpec,
    apply_policy,
    build_model,
    count_flops,
    count_params,
    spec_from_json,
    spec_to_json,
)
from .tensor import (
    GradTape,
    Tensor,
    conv2d,
    dense,
    global_pool,
    relu,
    softmax_cross_entropy,
    softplus,
)
from .train import (
    ConfigError,
    EpochMetrics,
    TrainConfig,
    config_from_json,
    config_to_json,
    evaluate,
    evaluate_model,
    load_config,
    metrics_to_csv,
)

__version__ = "0.1.0"

# the public names imported above, in import order; submodules are not exports
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
