"""Array-valued reverse-mode autodiff.

A Tensor wraps a float32/float64 ndarray plus an optional gradient buffer.
Ops record closures on the output node; Tensor.backward() walks the graph in
reverse topological order and drops each interior node's gradient once its
closure has consumed it, so only leaves (parameters and inputs created with
requires_grad) hold a gradient afterwards. matmul computes in float32 unless
an operand is float64; reductions accumulate in float64 and cast back to the
storage dtype. An op's result carries a `finite` flag: an op checks its result
for NaN/Inf and raises NonFiniteError on the spot, unless it cannot turn finite
input non-finite (maxpool2d, relu, reshape) and every input already carries the
flag. A leaf (a parameter or a model input) never carries it, so an op on a leaf
always checks. relu is branch-free: np.fmax against 0, with -0.0 turned into
+0.0.
"""

from __future__ import annotations

import numpy as np

from ..errors import NonFiniteError, ValidationError

DEFAULT_DTYPE = np.float32

_grad_enabled = True


class no_grad:
    """Context manager disabling graph recording (used for pseudo-labeling)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def grad_enabled() -> bool:
    return _grad_enabled


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite value produced by op '{op}'")


def _as_array(value, dtype) -> np.ndarray:
    arr = np.asarray(value)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(dtype)
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad over the axes that were broadcast to reach `grad.shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)), dtype=np.float64)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True, dtype=np.float64)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "finite", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data, DEFAULT_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.finite = False  # a leaf is never known finite; see the module docstring
        self._parents: tuple = ()
        self._backward = None

    # -- graph plumbing -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=self.data.dtype)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValidationError("backward() requires a scalar loss")
        if not self.requires_grad or self._backward is None and not self._parents:
            raise ValidationError("backward() without a recorded forward pass")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # an interior node's gradient is spent once its closure ran
                node.grad = None

    def item(self) -> float:
        return float(self.data.reshape(()))

    # -- op construction -------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, op: str, parents: tuple, backward, keeps_finite: bool = False) -> "Tensor":
        # `keeps_finite`: the op cannot turn finite input non-finite
        if not (keeps_finite and all(p.finite for p in parents)):
            _check_finite(data, op)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.finite = True
        needs = grad_enabled() and any(p.requires_grad for p in parents)
        out.requires_grad = needs
        if needs:
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    @staticmethod
    def _coerce(other, like: "Tensor") -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=like.data.dtype))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = Tensor._coerce(other, self)
        data = np.add(self.data, other.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.data.shape))

        return Tensor._make(data, "add", (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = Tensor._coerce(other, self)
        data = np.multiply(self.data, other.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.data.shape))

        return Tensor._make(data, "mul", (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-Tensor._coerce(other, self))

    def __rsub__(self, other):
        return Tensor._coerce(other, self) + (-self)

    def clamp_min(self, floor: float) -> "Tensor":
        """Elementwise max(x, floor); gradient is zero where clamped."""
        mask = self.data > floor
        data = np.where(mask, self.data, floor).astype(self.data.dtype)

        def backward(grad):
            self._accumulate(grad * mask)

        return Tensor._make(data, "clamp_min", (self,), backward)

    def matmul(self, other: "Tensor") -> "Tensor":
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ValidationError("matmul expects 2-D operands")
        with np.errstate(over="ignore"):
            data = self.data @ other.data  # a float64 operand makes it float64

        def backward(grad):
            with np.errstate(over="ignore"):
                if self.requires_grad:
                    self._accumulate(grad @ other.data.T)
                if other.requires_grad:
                    other._accumulate(self.data.T @ grad)

        return Tensor._make(data, "matmul", (self, other), backward)

    __matmul__ = matmul

    # -- elementwise nonlinearities ----------------------------------------

    def relu(self) -> "Tensor":
        # fmax has no data-dependent branch; it returns 0 for NaN and may keep
        # -0.0, which `+= 0` turns into +0.0, so the result equals
        # np.where(x > 0, x, 0) bit for bit
        data = np.fmax(self.data, 0)
        data += 0

        def backward(grad):
            # the mask is built here, so a graph-free forward never makes it
            self._accumulate(grad * (self.data > 0))

        return Tensor._make(data, "relu", (self,), backward, keeps_finite=True)

    def exp(self) -> "Tensor":
        with np.errstate(over="ignore"):
            data = np.exp(self.data)

        def backward(grad):
            self._accumulate(grad * data)

        return Tensor._make(data, "exp", (self,), backward)

    def log(self) -> "Tensor":
        with np.errstate(divide="ignore", invalid="ignore"):
            data = np.log(self.data)

        def backward(grad):
            self._accumulate(grad / self.data)

        return Tensor._make(data, "log", (self,), backward)

    # -- reductions / shape ------------------------------------------------

    def sum(self, axis=None) -> "Tensor":
        data = self.data.sum(axis=axis, dtype=np.float64).astype(self.data.dtype)

        def backward(grad):
            if axis is None:
                self._accumulate(np.broadcast_to(grad, self.data.shape))
            else:
                self._accumulate(np.broadcast_to(np.expand_dims(grad, axis), self.data.shape))

        return Tensor._make(np.asarray(data), "sum", (self,), backward)

    def transpose(self) -> "Tensor":
        if self.data.ndim != 2:
            raise ValidationError("transpose expects a 2-D tensor")
        data = self.data.T

        def backward(grad):
            self._accumulate(grad.T)

        return Tensor._make(np.ascontiguousarray(data), "transpose", (self,), backward)

    def reshape(self, *shape) -> "Tensor":
        data = self.data.reshape(shape)
        src_shape = self.data.shape

        def backward(grad):
            self._accumulate(grad.reshape(src_shape))

        return Tensor._make(data, "reshape", (self,), backward, keeps_finite=True)

    def log_softmax(self) -> "Tensor":
        """Row-wise log softmax over axis 1, computed via stable log-sum-exp."""
        if self.data.ndim != 2:
            raise ValidationError("log_softmax expects a [batch, classes] tensor")
        z = self.data.astype(np.float64)
        z = z - z.max(axis=1, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
        data = (z - lse).astype(self.data.dtype)

        def backward(grad):
            softmax = np.exp(data.astype(np.float64))
            g64 = grad.astype(np.float64)
            gx = g64 - softmax * g64.sum(axis=1, keepdims=True)
            self._accumulate(gx.astype(self.data.dtype))

        return Tensor._make(data, "log_softmax", (self,), backward)
