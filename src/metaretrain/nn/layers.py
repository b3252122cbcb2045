"""Model descriptions and the parameterized model itself.

A ModelSpec is a declarative layer list that validates shape chaining up
front; a Model binds a spec to parameter tensors. Snapshots are immutable
copies of the parameters, written to checkpoints and loaded back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, ValidationError
from . import functional as F
from .tensor import Tensor, no_grad


@dataclass(frozen=True)
class Conv2d:
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0


@dataclass(frozen=True)
class Dense:
    out_features: int


@dataclass(frozen=True)
class ReLU:
    pass


@dataclass(frozen=True)
class MaxPool2d:
    kernel: int = 2


@dataclass(frozen=True)
class Flatten:
    pass


_LAYER_TYPES = {"conv2d": Conv2d, "dense": Dense, "relu": ReLU, "maxpool2d": MaxPool2d, "flatten": Flatten}


def _layer_to_dict(layer) -> dict:
    for name, cls in _LAYER_TYPES.items():
        if isinstance(layer, cls):
            d = {"type": name}
            d.update({k: getattr(layer, k) for k in layer.__dataclass_fields__})
            return d
    raise ConfigurationError(f"unknown layer {layer!r}")


def _layer_from_dict(d, index: int):
    where = f"layer {index}"
    if not isinstance(d, dict):
        raise ConfigurationError(f"{where}: expected an object, got {type(d).__name__}")
    kind = d.get("type")
    if kind not in _LAYER_TYPES:
        raise ConfigurationError(f"{where}: unknown layer type {kind!r}")
    cls = _LAYER_TYPES[kind]
    kwargs = {k: v for k, v in d.items() if k != "type"}
    for key, value in kwargs.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigurationError(f"{where} ({cls.__name__}): {key} must be an integer, got {value!r}")
    try:
        return cls(**kwargs)
    except TypeError as exc:  # an unknown or a missing field
        raise ConfigurationError(f"{where} ({cls.__name__}): {exc}") from exc


@dataclass(frozen=True)
class ModelSpec:
    """Input shape [C,H,W], class count, and an ordered layer list."""

    input_shape: tuple
    num_classes: int
    layers: tuple

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.num_classes < 2:
            raise ConfigurationError("num_classes must be at least 2")
        if len(self.input_shape) != 3:
            raise ConfigurationError("input_shape must be [channels, height, width]")
        out = self.output_shape()
        if out != (self.num_classes,):
            raise ConfigurationError(f"layers produce shape {out}, expected ({self.num_classes},)")

    def output_shape(self) -> tuple:
        shape = tuple(self.input_shape)
        for i, layer in enumerate(self.layers):
            shape = _propagate(shape, layer, i)
        return shape

    def to_dict(self) -> dict:
        return {
            "input_shape": list(self.input_shape),
            "num_classes": self.num_classes,
            "layers": [_layer_to_dict(l) for l in self.layers],
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        for key in ("input_shape", "num_classes", "layers"):
            if key not in d:
                raise ConfigurationError(f"model spec is missing field {key!r}")
        return ModelSpec(
            input_shape=tuple(d["input_shape"]),
            num_classes=int(d["num_classes"]),
            layers=tuple(_layer_from_dict(l, i) for i, l in enumerate(d["layers"])),
        )


def _check_at_least(where: str, layer, **floors) -> None:
    for key, floor in floors.items():
        if getattr(layer, key) < floor:
            raise ConfigurationError(f"{where}: {key} must be at least {floor}, got {getattr(layer, key)}")


def _propagate(shape: tuple, layer, index: int) -> tuple:
    where = f"layer {index} ({type(layer).__name__})"
    if isinstance(layer, Conv2d):
        if len(shape) != 3:
            raise ConfigurationError(f"{where}: expects [C,H,W], got {shape}")
        _check_at_least(where, layer, out_channels=1, kernel=1, stride=1, padding=0)
        c, h, w = shape
        hp, wp = h + 2 * layer.padding, w + 2 * layer.padding
        if hp < layer.kernel or wp < layer.kernel:
            raise ConfigurationError(f"{where}: kernel {layer.kernel} exceeds padded input {hp}x{wp}")
        return (
            layer.out_channels,
            (hp - layer.kernel) // layer.stride + 1,
            (wp - layer.kernel) // layer.stride + 1,
        )
    if isinstance(layer, MaxPool2d):
        if len(shape) != 3:
            raise ConfigurationError(f"{where}: expects [C,H,W], got {shape}")
        _check_at_least(where, layer, kernel=1)
        c, h, w = shape
        if h % layer.kernel or w % layer.kernel:
            raise ConfigurationError(f"{where}: {h}x{w} not divisible by kernel {layer.kernel}")
        return (c, h // layer.kernel, w // layer.kernel)
    if isinstance(layer, Flatten):
        return (int(np.prod(shape)),)
    if isinstance(layer, Dense):
        if len(shape) != 1:
            raise ConfigurationError(f"{where}: expects flattened input, got {shape}")
        _check_at_least(where, layer, out_features=1)
        return (layer.out_features,)
    if isinstance(layer, ReLU):
        return shape
    raise ConfigurationError(f"{where}: unsupported layer")


def _param_shapes(spec: ModelSpec):
    """Yield (name, shape, fan_in) for each parameter of `spec`, in model order."""
    shape = tuple(spec.input_shape)
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, Conv2d):
            yield f"{i}.weight", (layer.out_channels, shape[0], layer.kernel, layer.kernel), shape[0] * layer.kernel**2
            yield f"{i}.bias", (layer.out_channels,), None
        elif isinstance(layer, Dense):
            yield f"{i}.weight", (layer.out_features, shape[0]), shape[0]
            yield f"{i}.bias", (layer.out_features,), None
        shape = _propagate(shape, layer, i)


@dataclass(frozen=True)
class ModelSnapshot:
    """Frozen parameter state; equal version ids imply bitwise-equal params."""

    spec: ModelSpec
    params: tuple  # ((name, readonly ndarray), ...)
    version: int

    def param_dict(self) -> dict:
        return dict(self.params)


class Model:
    """A ModelSpec bound to parameter tensors, with forward and snapshotting."""

    def __init__(self, spec: ModelSpec, seed: int = 0, dtype=np.float32):
        self.spec = spec
        self.version = 0
        self._params: dict[str, Tensor] = {}
        self._init_params(seed, dtype)

    def _init_params(self, seed: int, dtype) -> None:
        # Kaiming-uniform weights (bound sqrt(6/fan_in)), zero biases.
        rng = np.random.default_rng(seed)
        for name, shape, fan_in in _param_shapes(self.spec):
            if name.endswith(".weight"):
                bound = float(np.sqrt(6.0 / fan_in))
                arr = rng.uniform(-bound, bound, size=shape)
            else:
                arr = np.zeros(shape)
            self._params[name] = Tensor(arr.astype(dtype), requires_grad=True, name=name)

    # -- parameter access --------------------------------------------------

    def parameters(self) -> list[Tensor]:
        return list(self._params.values())

    def named_parameters(self) -> list[tuple]:
        return list(self._params.items())

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.zero_grad()

    def set_trainable_last(self, k: int | None) -> None:
        """Freeze all but the last `k` parameterized layers (None = all trainable)."""
        param_layers = sorted({name.split(".")[0] for name in self._params}, key=int)
        trainable = set(param_layers if k is None else param_layers[len(param_layers) - min(k, len(param_layers)) :])
        for name, p in self._params.items():
            p.requires_grad = name.split(".")[0] in trainable

    # -- forward -------------------------------------------------------------

    def forward(self, x: Tensor) -> Tensor:
        if x.data.ndim != 4 or x.data.shape[1:] != tuple(self.spec.input_shape):
            raise ConfigurationError(
                f"input shape {x.data.shape} does not match model input {self.spec.input_shape}"
            )
        out = x
        for i, layer in enumerate(self.spec.layers):
            if isinstance(layer, Conv2d):
                out = F.conv2d(out, self._params[f"{i}.weight"], self._params[f"{i}.bias"], layer.stride, layer.padding)
            elif isinstance(layer, MaxPool2d):
                out = F.maxpool2d(out, layer.kernel)
            elif isinstance(layer, Flatten):
                out = out.reshape(out.data.shape[0], -1)
            elif isinstance(layer, Dense):
                out = F.dense(out, self._params[f"{i}.weight"], self._params[f"{i}.bias"])
            elif isinstance(layer, ReLU):
                out = out.relu()
        return out

    def predict_logits(self, images: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Graph-free forward over an ndarray [N,C,H,W]; returns [N,num_classes].

        Every forward has `batch_size` rows, the last chunk padded with zero
        images whose rows are dropped: a float32 GEMM rounds by its shapes, so
        only a fixed shape makes each row depend on its own image alone. The
        chunk also bounds the largest transient, a conv layer's im2col matrix.
        """
        images = np.asarray(images)
        if images.ndim != 4:
            raise ValidationError("predict_logits expects [N,C,H,W]")
        outs = [np.zeros((0, self.spec.num_classes), dtype=np.float32)]
        with no_grad():
            for start in range(0, images.shape[0], batch_size):
                part = images[start : start + batch_size]
                chunk = np.zeros((batch_size, *images.shape[1:]), dtype=np.float32)
                chunk[: len(part)] = part
                outs.append(self.forward(Tensor(chunk)).data[: len(part)])
        return np.concatenate(outs, axis=0)

    # -- snapshots & versioning ----------------------------------------------

    def bump_version(self) -> None:
        self.version += 1

    def snapshot(self) -> ModelSnapshot:
        frozen = []
        for name, p in self._params.items():
            arr = p.data.copy()
            arr.flags.writeable = False
            frozen.append((name, arr))
        return ModelSnapshot(spec=self.spec, params=tuple(frozen), version=self.version)

    @staticmethod
    def from_snapshot(snap: ModelSnapshot) -> "Model":
        """A model holding copies of `snap`'s parameters, dtype kept; no init is drawn."""
        arrays = snap.param_dict()
        model = Model.__new__(Model)
        model.spec = snap.spec
        model.version = snap.version
        model._params = {}
        for name, shape, _ in _param_shapes(snap.spec):
            if name not in arrays:
                raise ConfigurationError(f"missing parameter {name!r}")
            if arrays[name].shape != shape:
                raise ConfigurationError(f"parameter {name!r} shape {arrays[name].shape} != {shape}")
            model._params[name] = Tensor(arrays[name].copy(), requires_grad=True, name=name)
        return model


def backward(model: Model, loss: Tensor) -> None:
    """Backpropagate `loss` and materialize zero grads for untouched params."""
    loss.backward()
    for p in model.parameters():
        if p.requires_grad and p.grad is None:
            p.grad = np.zeros_like(p.data)


# -- model registry ------------------------------------------------------------


def model_spec(name: str, input_shape, num_classes: int) -> ModelSpec:
    """Named desk-scale architectures; `name` is the config-facing identifier."""
    c, h, w = input_shape
    if name == "cnn_small":
        layers = (
            Conv2d(8, 3, padding=1),
            ReLU(),
            MaxPool2d(2),
            Conv2d(16, 3, padding=1),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Dense(num_classes),
        )
    elif name == "mlp_small":
        layers = (Flatten(), Dense(64), ReLU(), Dense(num_classes))
    elif name == "linear":
        layers = (Flatten(), Dense(num_classes))
    else:
        raise ValidationError(f"unknown model name {name!r} (choose cnn_small, mlp_small, linear)")
    return ModelSpec(input_shape=tuple(input_shape), num_classes=num_classes, layers=layers)
