"""Shared test oracles: central finite differences, error metrics, reference
kernels, the per-object split, and the `table` fixture builder."""

import numpy as np

from metaretrain.data import DatasetSplit, Samples
from metaretrain.errors import ValidationError
from metaretrain.nn import Tensor


def table(rows, shape=(1, 28, 28)) -> Samples:
    """A `Samples` table of `rows` in order: anything with `.pixels`, `.label`
    and `.source_id`, such as `ImageSample`s. No rows give an empty table of
    images of `shape`."""
    rows = list(rows)
    pixels = np.stack([r.pixels for r in rows]) if rows else np.zeros((0, *shape), dtype=np.uint8)
    return Samples(pixels, [r.label for r in rows], [r.source_id for r in rows])


def finite_diff_grad(loss_fn, arr, eps=1e-4):
    """Central-difference gradient of loss_fn() w.r.t. arr, perturbed in place."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = loss_fn()
        flat[i] = orig - eps
        down = loss_fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return grad


def max_rel_error(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0:
        return 0.0
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / scale))


def gradcheck(build_loss, params, eps=1e-4):
    """Compare autodiff grads against finite differences for each named array.

    `params` maps name -> float64 ndarray. `build_loss` receives
    {name: Tensor(requires_grad=True)} and returns a scalar Tensor. Returns the
    worst relative error across all parameters.
    """
    tensors = {k: Tensor(v, requires_grad=True) for k, v in params.items()}
    loss = build_loss(tensors)
    loss.backward()
    worst = 0.0
    for name, arr in params.items():
        def loss_value():
            fresh = {k: Tensor(v, requires_grad=False) for k, v in params.items()}
            return build_loss(fresh).item()

        fd = finite_diff_grad(loss_value, arr, eps=eps)
        ad = tensors[name].grad
        assert ad is not None, f"no gradient for {name}"
        worst = max(worst, max_rel_error(ad, fd))
    return worst


# -- reference kernels ---------------------------------------------------------
# The einsum conv2d and argmax maxpool2d that metaretrain.nn.functional used
# before its im2col GEMM and strided-slice rewrite, kept as oracles: the
# production kernels must match them bit for bit (the float32 GEMM to within
# its rounding, and bit for bit against reference_conv2d_forward).


def reference_conv2d(x, weight, bias, stride=1, padding=0):
    """Returns (out, backward); backward(grad) -> (gx, gw, gb), all in the input dtypes."""
    from numpy.lib.stride_tricks import sliding_window_view

    B, Cin, H, W = x.shape
    Cout, _, KH, KW = weight.shape
    Hp, Wp = H + 2 * padding, W + 2 * padding
    Ho = (Hp - KH) // stride + 1
    Wo = (Wp - KW) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x
    win = sliding_window_view(xp, (KH, KW), axis=(2, 3))[:, :, ::stride, ::stride]
    w64 = weight.astype(np.float64)
    out = np.einsum("bchwkl,ockl->bohw", win.astype(np.float64), w64, optimize=True)
    out += bias.astype(np.float64)[None, :, None, None]
    dtype = np.float64 if np.float64 in (x.dtype, weight.dtype) else np.float32

    def backward(grad):
        g64 = grad.astype(np.float64)
        gb = g64.sum(axis=(0, 2, 3)).astype(bias.dtype)
        gw = np.einsum("bchwkl,bohw->ockl", win.astype(np.float64), g64, optimize=True).astype(weight.dtype)
        gxp = np.zeros((B, Cin, Hp, Wp), dtype=np.float64)
        for kh in range(KH):
            for kw in range(KW):
                patch = np.einsum("bohw,oc->bchw", g64, w64[:, :, kh, kw], optimize=True)
                gxp[:, :, kh : kh + Ho * stride : stride, kw : kw + Wo * stride : stride] += patch
        gx = gxp[:, :, padding : padding + H, padding : padding + W].astype(x.dtype)
        return gx, gw, gb

    return out.astype(dtype), backward


def reference_conv2d_forward(x, weight, bias, stride=1, padding=0):
    """The im2col GEMM forward as it was before the bias moved ahead of the
    layout copy: the same GEMM, then one broadcast, transposing add. Its bytes
    are the production forward's, in float32 too."""
    from numpy.lib.stride_tricks import sliding_window_view

    B, Cin, H, W = x.shape
    Cout, _, KH, KW = weight.shape
    Ho = (H + 2 * padding - KH) // stride + 1
    Wo = (W + 2 * padding - KW) // stride + 1
    dtype = np.result_type(x, weight)
    xp = np.zeros((B, Cin, H + 2 * padding, W + 2 * padding), dtype=dtype)
    xp[:, :, padding : padding + H, padding : padding + W] = x
    win = sliding_window_view(xp, (KH, KW), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = win.transpose(1, 4, 5, 0, 2, 3).reshape(Cin * KH * KW, B * Ho * Wo)
    out = (weight.reshape(Cout, -1) @ cols).reshape(Cout, B, Ho, Wo).transpose(1, 0, 2, 3)
    return np.add(out, bias[None, :, None, None], dtype=dtype, order="C")


def reference_maxpool2d(x, kernel=2):
    """Returns (out, backward); backward(grad) -> gx."""
    B, C, H, W = x.shape
    Ho, Wo = H // kernel, W // kernel
    tiles = x.reshape(B, C, Ho, kernel, Wo, kernel).transpose(0, 1, 2, 4, 3, 5)
    flat = tiles.reshape(B, C, Ho, Wo, kernel * kernel)
    arg = flat.argmax(axis=4)  # first max wins on ties
    out = np.take_along_axis(flat, arg[..., None], axis=4)[..., 0]

    def backward(grad):
        gflat = np.zeros_like(flat)
        np.put_along_axis(gflat, arg[..., None], grad[..., None].astype(x.dtype), axis=4)
        return gflat.reshape(B, C, Ho, Wo, kernel, kernel).transpose(0, 1, 2, 4, 3, 5).reshape(B, C, H, W)

    return np.ascontiguousarray(out), backward


# -- reference split -----------------------------------------------------------
# subsample_and_split and largest_remainder as they were when the split took a
# list of per-image objects, kept as the oracle for the table version's draws.


def reference_largest_remainder(total: int, weights) -> list:
    weights = np.asarray(weights, dtype=np.float64)
    quotas = weights / weights.sum() * total
    base = np.floor(quotas).astype(int)
    short = total - int(base.sum())
    order = sorted(range(len(weights)), key=lambda i: (-(quotas[i] - base[i]), i))
    for i in order[:short]:
        base[i] += 1
    return base.tolist()


def reference_subsample_and_split(samples, fraction, ratios, seed) -> DatasetSplit:
    """The per-object split: `samples` is a list of rows with `.label`; the
    parts are tuples of those rows."""
    if not 0 < fraction <= 1:
        raise ValidationError("fraction must be in (0, 1]")
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or min(ratios) < 0:
        raise ValidationError("ratios must be three non-negative numbers")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValidationError(f"ratios must sum to 1 within 1e-9, got {sum(ratios)}")
    n_total = len(samples)
    n_sub = round(fraction * n_total)
    if n_sub < 1:
        raise ValidationError(f"fraction {fraction} of {n_total} samples is empty")
    sizes = reference_largest_remainder(n_sub, ratios) if sum(ratios) else [0, 0, 0]
    for name, size, ratio in zip(("labeled", "unlabeled", "test"), sizes, ratios):
        if ratio > 0 and size < 1:
            raise ValidationError(f"subset of {n_sub} gives no samples for the {name} split")
    rng = np.random.default_rng(seed)
    by_class = {}
    for idx, s in enumerate(samples):
        by_class.setdefault(s.label, []).append(idx)
    class_order = sorted(by_class)
    per_class = reference_largest_remainder(n_sub, [len(by_class[c]) for c in class_order])
    chosen = []
    for c, take in zip(class_order, per_class):
        pool = np.array(by_class[c])
        chosen.extend(pool[rng.choice(len(pool), size=take, replace=False)])
    chosen = np.array(sorted(chosen))
    chosen = chosen[rng.permutation(len(chosen))]
    picked = [samples[i] for i in chosen]
    n_lab, n_unl, _ = sizes
    return DatasetSplit(labeled=tuple(picked[:n_lab]), unlabeled=tuple(picked[n_lab : n_lab + n_unl]),
                        test=tuple(picked[n_lab + n_unl :]))
