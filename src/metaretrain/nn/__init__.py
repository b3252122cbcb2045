from .tensor import Tensor, no_grad
from . import functional
from .layers import (
    Conv2d,
    Dense,
    Flatten,
    MaxPool2d,
    Model,
    ModelSnapshot,
    ModelSpec,
    ReLU,
    backward,
    model_spec,
)
from .optim import SGD
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "Tensor",
    "no_grad",
    "functional",
    "Conv2d",
    "Dense",
    "Flatten",
    "MaxPool2d",
    "Model",
    "ModelSnapshot",
    "ModelSpec",
    "ReLU",
    "backward",
    "model_spec",
    "SGD",
    "load_checkpoint",
    "save_checkpoint",
]
