"""Autodiff ops for image networks: convolution, pooling, and classifier losses.

conv2d is one GEMM over an im2col matrix, in float32 unless the input or the
weight is float64: the input is written into a zero-bordered buffer, and its
sliding windows unrolled into one column per output pixel (Chellapilla et al.
2006). The weight gradient is a GEMM against the same windows, rebuilt in the
backward pass so the graph holds only a view; the input gradient is scattered
back one kernel offset at a time into a [Cin, B, Hp, Wp] buffer and transposed
once. A float32 GEMM rounds by its shapes, so predict chunks have one shape.

maxpool2d takes np.maximum over the kernel**2 strided views of each tile, in
row-major offset order. On ties the first offset in that order holds the max
and receives the gradient. The backward pass routes without a branch: each
offset's gradient is the incoming one, viewed as unsigned integers of the
storage width, times its 0/1 hit mask.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ConfigurationError, ValidationError
from .tensor import Tensor


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of x[B,Cin,H,W] with weight[Cout,Cin,KH,KW] plus bias[Cout]."""
    B, Cin, H, W = x.data.shape
    Cout, Cin_w, KH, KW = weight.data.shape
    if Cin != Cin_w:
        raise ConfigurationError(f"conv2d channel mismatch: input {Cin}, weight {Cin_w}")
    Hp, Wp = H + 2 * padding, W + 2 * padding
    if Hp < KH or Wp < KW:
        raise ConfigurationError("conv2d kernel larger than padded input")
    Ho = (Hp - KH) // stride + 1
    Wo = (Wp - KW) // stride + 1

    dtype = np.result_type(x.data, weight.data)  # float32 unless either is float64
    # one copy: the zero border and the input written into its interior
    xp = np.zeros((B, Cin, Hp, Wp), dtype=dtype)
    xp[:, :, padding : padding + H, padding : padding + W] = x.data
    # windows: [B, Cin, Ho, Wo, KH, KW], a view of xp
    win = sliding_window_view(xp, (KH, KW), axis=(2, 3))[:, :, ::stride, ::stride]
    # im2col: one column per output pixel, [Cin*KH*KW, B*Ho*Wo]
    cols = win.transpose(1, 4, 5, 0, 2, 3).reshape(Cin * KH * KW, B * Ho * Wo)
    with np.errstate(over="ignore"):  # Tensor._make reports an overflow, naming the op
        out = (weight.data.reshape(Cout, -1) @ cols).reshape(Cout, B, Ho, Wo).transpose(1, 0, 2, 3)
        del cols  # freed before the output copy; backward rebuilds it from `win`
        data = np.add(out, bias.data[None, :, None, None], dtype=dtype, order="C")

    def backward(grad):
        if bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3), dtype=np.float64).astype(bias.data.dtype))
        g2 = grad.transpose(1, 0, 2, 3).reshape(Cout, B * Ho * Wo)
        with np.errstate(over="ignore"):
            if weight.requires_grad:
                rows = win.transpose(0, 2, 3, 1, 4, 5).reshape(B * Ho * Wo, Cin * KH * KW)
                weight._accumulate((g2 @ rows).reshape(Cout, Cin, KH, KW))
            if x.requires_grad:
                # col2im: scatter-add one kernel offset at a time into a
                # channel-major buffer, so no patch is transposed
                gxp = np.zeros((Cin, B, Hp, Wp), dtype=dtype)
                for kh in range(KH):
                    for kw in range(KW):
                        patch = (weight.data[:, :, kh, kw].T @ g2).reshape(Cin, B, Ho, Wo)
                        gxp[:, :, kh : kh + Ho * stride : stride, kw : kw + Wo * stride : stride] += patch
                x._accumulate(gxp[:, :, padding : padding + H, padding : padding + W].transpose(1, 0, 2, 3))

    return Tensor._make(data, "conv2d", (x, weight, bias), backward)


def maxpool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Non-overlapping max pooling; H and W must be divisible by kernel."""
    B, C, H, W = x.data.shape
    if H % kernel or W % kernel:
        raise ConfigurationError(f"maxpool2d: input {H}x{W} not divisible by kernel {kernel}")
    # the kernel**2 strided views x[:, :, i::k, j::k], in row-major offset order
    offsets = [(i, j) for i in range(kernel) for j in range(kernel)]
    data = x.data[:, :, ::kernel, ::kernel].copy()
    for i, j in offsets[1:]:
        # on ties np.maximum returns its second operand, so the earlier value
        # (and its sign, for -0.0 against 0.0) stays
        np.maximum(x.data[:, :, i::kernel, j::kernel], data, out=data)

    def backward(grad):
        # each gradient goes to the first offset that holds the max; the
        # offsets tile x, so every element of gx is written once
        bits = np.dtype(f"u{x.data.itemsize}")
        g = np.asarray(grad, dtype=x.data.dtype).view(bits)
        gx = np.empty_like(x.data)
        hit = np.empty(data.shape, dtype=bool)
        free = np.ones(data.shape, dtype=bool)  # tiles whose max is not yet routed
        for i, j in offsets:
            np.equal(x.data[:, :, i::kernel, j::kernel], data, out=hit)
            hit &= free
            free ^= hit
            # an integer multiply by 0 or 1 copies the gradient's bits (-0.0,
            # inf and NaN too) or writes +0.0: np.where(hit, grad, 0) unbranched
            np.multiply(g, hit, out=gx.view(bits)[:, :, i::kernel, j::kernel])
        x._accumulate(gx)

    return Tensor._make(data, "maxpool2d", (x,), backward)


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map x[B,D] @ weight[F,D].T + bias[F]."""
    if x.data.ndim != 2:
        raise ConfigurationError("dense expects a flattened [batch, features] input")
    if x.data.shape[1] != weight.data.shape[1]:
        raise ConfigurationError(
            f"dense feature mismatch: input {x.data.shape[1]}, weight expects {weight.data.shape[1]}"
        )
    return x.matmul(weight.transpose()) + bias


def softmax(logits: np.ndarray) -> np.ndarray:
    """Plain ndarray softmax over axis 1 (stable); used outside the graph."""
    z = logits.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _check_targets(targets: np.ndarray, n_classes: int) -> np.ndarray:
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 2 or targets.shape[1] != n_classes:
        raise ValidationError(f"targets must be [batch, {n_classes}] probability rows")
    if not np.allclose(targets.sum(axis=1), 1.0, atol=1e-6):
        raise ValidationError("target rows must sum to 1 within 1e-6")
    return targets


def softmax_cross_entropy(logits: Tensor, targets, weights=None, normalizer=None) -> Tensor:
    """Mean cross-entropy between softmax(logits) and probability-row targets.

    `weights`, when given, scales each sample's contribution (mask or class
    weight); the sum is divided by `normalizer` (defaults to the batch size,
    the FixMatch convention for masked batches).
    """
    targets = _check_targets(targets, logits.data.shape[1])
    ls = logits.log_softmax()
    per_sample = -(ls * Tensor(targets.astype(ls.data.dtype))).sum(axis=1)
    if weights is not None:
        per_sample = per_sample * Tensor(np.asarray(weights, dtype=ls.data.dtype))
    denom = float(normalizer) if normalizer is not None else float(logits.data.shape[0])
    if denom <= 0:
        raise ValidationError("cross-entropy normalizer must be positive")
    return per_sample.sum() * (1.0 / denom)


def soft_mse(logits: Tensor, targets) -> Tensor:
    """Mean squared error between softmax(logits) and probability-row targets."""
    targets = _check_targets(targets, logits.data.shape[1])
    p = logits.log_softmax().exp()
    diff = p - Tensor(targets.astype(p.data.dtype))
    n = logits.data.shape[0] * logits.data.shape[1]
    return (diff * diff).sum() * (1.0 / n)


def one_hot(labels, n_classes: int, dtype=np.float32) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValidationError(f"labels out of range for {n_classes} classes")
    out = np.zeros((labels.size, n_classes), dtype=dtype)
    out[np.arange(labels.size), labels] = 1.0
    return out
