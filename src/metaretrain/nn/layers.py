"""Model descriptions and the parameterized model itself.

A ModelSpec is a declarative layer list that validates shape chaining up
front; a Model binds a spec to parameter tensors. Snapshots are immutable
copies of the parameters, written to checkpoints and loaded back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from . import functional as F
from .tensor import Tensor, no_grad

# rows of every Model.predict_logits forward; see its docstring
PREDICT_CHUNK = 32


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
    raise ValidationError(f"unknown layer {layer!r}")


def _layer_from_dict(d, index: int):
    where = f"layer {index}"
    if not isinstance(d, dict):
        raise ValidationError(f"{where}: expected an object, got {type(d).__name__}")
    kind = d.get("type")
    if kind not in _LAYER_TYPES:
        raise ValidationError(f"{where}: unknown layer type {kind!r}")
    cls = _LAYER_TYPES[kind]
    kwargs = {k: v for k, v in d.items() if k != "type"}
    for key, value in kwargs.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError(f"{where} ({cls.__name__}): {key} must be an integer, got {value!r}")
    try:
        return cls(**kwargs)
    except TypeError as exc:  # an unknown or a missing field
        raise ValidationError(f"{where} ({cls.__name__}): {exc}") from exc


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
            raise ValidationError("num_classes must be at least 2")
        if len(self.input_shape) != 3:
            raise ValidationError("input_shape must be [channels, height, width]")
        out = self.output_shape()
        if out != (self.num_classes,):
            raise ValidationError(f"layers produce shape {out}, expected ({self.num_classes},)")

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
                raise ValidationError(f"model spec is missing field {key!r}")
        return ModelSpec(
            input_shape=tuple(d["input_shape"]),
            num_classes=int(d["num_classes"]),
            layers=tuple(_layer_from_dict(l, i) for i, l in enumerate(d["layers"])),
        )


def _check_at_least(where: str, layer, **floors) -> None:
    for key, floor in floors.items():
        if getattr(layer, key) < floor:
            raise ValidationError(f"{where}: {key} must be at least {floor}, got {getattr(layer, key)}")


def _propagate(shape: tuple, layer, index: int) -> tuple:
    where = f"layer {index} ({type(layer).__name__})"
    if isinstance(layer, Conv2d):
        if len(shape) != 3:
            raise ValidationError(f"{where}: expects [C,H,W], got {shape}")
        _check_at_least(where, layer, out_channels=1, kernel=1, stride=1, padding=0)
        c, h, w = shape
        hp, wp = h + 2 * layer.padding, w + 2 * layer.padding
        if hp < layer.kernel or wp < layer.kernel:
            raise ValidationError(f"{where}: kernel {layer.kernel} exceeds padded input {hp}x{wp}")
        return (
            layer.out_channels,
            (hp - layer.kernel) // layer.stride + 1,
            (wp - layer.kernel) // layer.stride + 1,
        )
    if isinstance(layer, MaxPool2d):
        if len(shape) != 3:
            raise ValidationError(f"{where}: expects [C,H,W], got {shape}")
        _check_at_least(where, layer, kernel=1)
        c, h, w = shape
        if h % layer.kernel or w % layer.kernel:
            raise ValidationError(f"{where}: {h}x{w} not divisible by kernel {layer.kernel}")
        return (c, h // layer.kernel, w // layer.kernel)
    if isinstance(layer, Flatten):
        return (int(np.prod(shape)),)
    if isinstance(layer, Dense):
        if len(shape) != 1:
            raise ValidationError(f"{where}: expects flattened input, got {shape}")
        _check_at_least(where, layer, out_features=1)
        return (layer.out_features,)
    if isinstance(layer, ReLU):
        return shape
    raise ValidationError(f"{where}: unsupported layer")


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


def _forward_order(layers: tuple) -> list:
    """Indices of `layers` in the order Model.forward runs them: a ReLU between
    a Conv2d and a MaxPool2d runs after the pool, on a quarter of the elements
    for a 2x2 kernel. relu(max) equals max(relu) bit for bit on finite input,
    and the conv's output is checked finite. The two orders' backward passes
    differ only in where a -0.0 gradient lands inside a tile; the conv's
    backward sums such zeros into +0.0, so every gradient keeps its bits too.
    At the model input, which is not checked, the order is kept."""
    order = list(range(len(layers)))
    for i in range(1, len(layers) - 1):
        if (isinstance(layers[i - 1], Conv2d) and isinstance(layers[i], ReLU)
                and isinstance(layers[i + 1], MaxPool2d)):
            order[i], order[i + 1] = i + 1, i
    return order


@dataclass(frozen=True)
class ModelSnapshot:
    """Frozen parameter state; equal version ids imply bitwise-equal params.
    A snapshot loaded from a cycle checkpoint also holds the SGD velocities
    written with it; no other snapshot has any."""

    spec: ModelSpec
    params: tuple  # ((name, readonly ndarray), ...)
    version: int
    velocities: dict | None = None  # name -> readonly ndarray

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
            self._params[name] = Tensor(arr.astype(dtype), requires_grad=True)

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
            raise ValidationError(
                f"input shape {x.data.shape} does not match model input {self.spec.input_shape}"
            )
        out = x
        for i in _forward_order(self.spec.layers):
            layer = self.spec.layers[i]
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

    def predict_logits(self, images: np.ndarray) -> np.ndarray:
        """Graph-free forward over an ndarray [N,C,H,W]; returns [N,num_classes].

        Every forward has PREDICT_CHUNK rows: a float32 GEMM rounds by its
        shapes, so only a fixed shape makes each row depend on its own image
        alone. A full float32 chunk is forwarded as the caller's contiguous
        slice, which no op writes to; only a short last chunk, or an input of
        another dtype, is copied into a float32 block padded with zero images
        whose rows are dropped. The chunk also bounds the largest transient, a
        conv layer's im2col matrix.
        """
        images = np.asarray(images)
        if images.ndim != 4:
            raise ValidationError("predict_logits expects [N,C,H,W]")
        outs = [np.zeros((0, self.spec.num_classes), dtype=np.float32)]
        with no_grad():
            for start in range(0, images.shape[0], PREDICT_CHUNK):
                part = images[start : start + PREDICT_CHUNK]
                if len(part) == PREDICT_CHUNK and part.dtype == np.float32:
                    chunk = np.ascontiguousarray(part)
                else:
                    chunk = np.zeros((PREDICT_CHUNK, *images.shape[1:]), dtype=np.float32)
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
                raise ValidationError(f"missing parameter {name!r}")
            if arrays[name].shape != shape:
                raise ValidationError(f"parameter {name!r} shape {arrays[name].shape} != {shape}")
            model._params[name] = Tensor(arrays[name].copy(), requires_grad=True)
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
