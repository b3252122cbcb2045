import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from metaretrain.errors import NonFiniteError, ValidationError
from metaretrain.nn import (
    SGD,
    Conv2d,
    Dense,
    Flatten,
    MaxPool2d,
    Model,
    ModelSpec,
    ReLU,
    Tensor,
    backward,
    load_checkpoint,
    model_spec,
    no_grad,
    save_checkpoint,
)
from metaretrain.nn import functional as F
from metaretrain.nn import tensor as tensor_module

from util import (
    finite_diff_grad,
    gradcheck,
    max_rel_error,
    reference_conv2d,
    reference_conv2d_forward,
    reference_maxpool2d,
)


def mlp_spec(din=4, hidden=5, classes=3):
    return ModelSpec(input_shape=(1, 1, din), num_classes=classes,
                     layers=(Flatten(), Dense(hidden), ReLU(), Dense(classes)))


def save_with(snap, path, with_velocities: bool):
    """Save `snap`, with velocities for all but its first parameter (a frozen
    layer takes no step) when `with_velocities`; returns those velocities."""
    rng = np.random.default_rng(1)
    velocities = {name: rng.normal(size=arr.shape).astype(np.float32) for name, arr in snap.params[1:]}
    save_checkpoint(snap, path, velocities=velocities if with_velocities else None)
    return velocities if with_velocities else None


class TestForward:
    def test_zero_weight_dense_gives_zero_logits(self):
        model = Model(mlp_spec(), seed=0)
        for p in model.parameters():
            p.data = np.zeros_like(p.data)
        x = np.random.default_rng(1).normal(size=(3, 1, 1, 4)).astype(np.float32)
        logits = model.predict_logits(x)
        assert np.all(logits == 0.0)

    def test_identity_1x1_conv_reproduces_input(self):
        spec = ModelSpec(input_shape=(1, 4, 4), num_classes=16,
                         layers=(Conv2d(1, 1), Flatten(), Dense(16)))
        model = Model(spec, seed=0)
        model._params["0.weight"].data = np.ones((1, 1, 1, 1), dtype=np.float32)
        model._params["0.bias"].data = np.zeros(1, dtype=np.float32)
        x = np.random.default_rng(2).normal(size=(2, 1, 4, 4)).astype(np.float32)
        out = F.conv2d(Tensor(x), model._params["0.weight"], model._params["0.bias"])
        assert np.array_equal(out.data, x)

    def test_mlp_matches_hand_matrix_arithmetic(self):
        # 2-layer MLP on seeded weights; oracle is plain numpy matmul.
        model = Model(mlp_spec(din=2, hidden=2, classes=2), seed=0)
        w1 = model._params["1.weight"].data.astype(np.float64)
        b1 = model._params["1.bias"].data.astype(np.float64)
        w2 = model._params["3.weight"].data.astype(np.float64)
        b2 = model._params["3.bias"].data.astype(np.float64)
        x = np.array([[0.5, -1.0], [2.0, 0.25]], dtype=np.float32)
        hidden = np.maximum(x.astype(np.float64) @ w1.T + b1, 0.0)
        expected = hidden @ w2.T + b2
        got = model.predict_logits(x.reshape(2, 1, 1, 2))
        assert np.allclose(got, expected, atol=1e-5)

    def test_shape_mismatch_is_configuration_error(self):
        model = Model(mlp_spec(), seed=0)
        with pytest.raises(ValidationError, match=r"input shape \(\d+, 1, 1, 5\) does not match model input"):
            model.predict_logits(np.zeros((1, 1, 1, 5), dtype=np.float32))

    @pytest.mark.parametrize("kh,kw", [(6, 3), (3, 6)])
    def test_conv2d_kernel_larger_than_padded_input_on_one_axis_rejected(self, kh, kw):
        # a 3x3 input padded by 1 is 5x5: a kernel of 6 on either axis does not fit
        x = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
        w, b = Tensor(np.zeros((2, 1, kh, kw), dtype=np.float32)), Tensor(np.zeros(2, dtype=np.float32))
        with pytest.raises(ValidationError, match="kernel larger than padded input"):
            F.conv2d(x, w, b, padding=1)

    def test_illegal_layer_chain_rejected(self):
        with pytest.raises(ValidationError, match=re.escape("layer 0 (MaxPool2d): 5x5 not divisible by kernel 2")):
            ModelSpec(input_shape=(1, 5, 5), num_classes=4,
                      layers=(MaxPool2d(2), Flatten(), Dense(4)))
        with pytest.raises(ValidationError, match="num_classes must be at least 2"):
            ModelSpec(input_shape=(1, 4, 4), num_classes=1, layers=(Flatten(), Dense(1)))

    @pytest.mark.parametrize("layer, field", [
        (Conv2d(4, 0), "kernel"), (Conv2d(4, 3, stride=0), "stride"), (Conv2d(4, 3, padding=-1), "padding"),
        (Conv2d(0, 3), "out_channels"), (MaxPool2d(0), "kernel"), (Dense(0), "out_features"),
    ])
    def test_out_of_range_layer_sizes_rejected_naming_layer(self, layer, field):
        layers = (Flatten(), layer, Dense(2)) if isinstance(layer, Dense) else (layer, Flatten(), Dense(2))
        where = f"layer {layers.index(layer)} ({type(layer).__name__})"
        with pytest.raises(ValidationError, match=re.escape(f"{where}: {field} must be")):
            ModelSpec(input_shape=(1, 4, 4), num_classes=2, layers=layers)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 200), k=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    @example(n=31, k=31, seed=0)
    @example(n=32, k=1, seed=0)
    @example(n=33, k=33, seed=0)
    @example(n=63, k=63, seed=0)
    @example(n=64, k=1, seed=0)
    @example(n=65, k=65, seed=0)
    @example(n=128, k=100, seed=0)
    @example(n=129, k=129, seed=0)
    def test_each_predicted_row_depends_on_its_image_alone(self, n, k, seed):
        # a float32 GEMM rounds by shape, so a row's logits may change with
        # the batch around it unless every forward has the same shape
        model = Model(model_spec("cnn_small", (1, 12, 12), 10), seed=seed % 1000)
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 256, size=(n, 1, 12, 12)).astype(np.float32) / 255
        idx = rng.permutation(n)[:k]  # a random subset in random order; all of x when k >= n
        assert model.predict_logits(x[idx]).tobytes() == model.predict_logits(x)[idx].tobytes()

    def test_full_chunks_forward_the_callers_rows_unchanged(self, monkeypatch):
        model = Model(model_spec("cnn_small", (1, 12, 12), 10), seed=3)
        x = np.random.default_rng(3).random((65, 1, 12, 12)).astype(np.float32)
        x[0, 0, 0, :2] = -0.0
        before = x.tobytes()
        shared = []
        forward = Model.forward

        def recording(self, xt):
            shared.append(np.shares_memory(xt.data, x))
            return forward(self, xt)

        monkeypatch.setattr(Model, "forward", recording)
        logits = model.predict_logits(x)
        assert x.tobytes() == before
        assert shared == [True, True, False]  # two full chunks as views, the 1-row tail padded
        # a float64 copy of the same values takes the padded path, with the same bytes
        assert model.predict_logits(x.astype(np.float64)).tobytes() == logits.tobytes()
        assert model.predict_logits(x[:64]).tobytes() == logits[:64].tobytes()

    @settings(max_examples=150, deadline=None)
    @given(blocks=st.lists(st.tuples(st.integers(1, 3), st.sampled_from([1, 3]), st.integers(1, 3)),
                           min_size=1, max_size=2),
           relu_first=st.booleans(), batch=st.integers(1, 3), channels=st.integers(1, 2),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
    @example(blocks=[(2, 3, 2)], relu_first=True, batch=2, channels=1, dtype=np.float32, seed=0)
    def test_pool_before_relu_equals_layer_order_bytewise(self, blocks, relu_first, batch, channels,
                                                          dtype, seed):
        # integer values in [-2, 2] with -0.0 mixed in: ties, all-nonpositive
        # tiles and signed zeros in the activations and in the gradients. A
        # ReLU at the model input keeps its place, so it must match as well.
        layers, side = [ReLU(), MaxPool2d(2)] if relu_first else [], 1
        for out_channels, kernel, pool in blocks:
            layers += [Conv2d(out_channels, kernel, padding=kernel // 2), ReLU(), MaxPool2d(pool)]
            side *= pool
        side *= 2 if relu_first else 1
        spec = ModelSpec(input_shape=(channels, side, side), num_classes=3, layers=(*layers, Flatten(), Dense(3)))
        rng = np.random.default_rng(seed)

        def integers(shape):
            a = rng.integers(-2, 3, size=shape).astype(dtype)
            a[(a == 0) & (rng.random(shape) < 0.5)] = -0.0
            return a

        model = Model(spec, seed=seed % 1000, dtype=dtype)
        for _, p in model.named_parameters():
            p.data = integers(p.data.shape)
        x, grad = integers((batch, channels, side, side)), integers((batch, 3))

        def layer_order(xt):
            out = xt
            for i, layer in enumerate(spec.layers):
                if isinstance(layer, Conv2d):
                    out = F.conv2d(out, model._params[f"{i}.weight"], model._params[f"{i}.bias"],
                                   layer.stride, layer.padding)
                elif isinstance(layer, MaxPool2d):
                    out = F.maxpool2d(out, layer.kernel)
                elif isinstance(layer, ReLU):
                    out = out.relu()
                elif isinstance(layer, Flatten):
                    out = out.reshape(out.data.shape[0], -1)
                else:
                    out = F.dense(out, model._params[f"{i}.weight"], model._params[f"{i}.bias"])
            return out

        results = []
        for forward in (model.forward, layer_order):
            model.zero_grads()
            xt = Tensor(x.copy(), requires_grad=True)
            out = forward(xt)
            (out * Tensor(grad)).sum().backward()
            results.append([out.data, xt.grad] + [p.grad for p in model.parameters()])
        for got, want in zip(*results):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_relu_after_conv_runs_on_pooled_elements(self, monkeypatch):
        seen = []
        relu = Tensor.relu

        def recording(self):
            seen.append(self.data.shape)
            return relu(self)

        monkeypatch.setattr(Tensor, "relu", recording)
        model = Model(model_spec("cnn_small", (1, 28, 28), 10), seed=0)
        model.forward(Tensor(np.zeros((2, 1, 28, 28), np.float32)))
        assert seen == [(2, 8, 14, 14), (2, 16, 7, 7)]

    def test_init_is_seed_deterministic(self):
        a = Model(model_spec("cnn_small", (1, 28, 28), 10), seed=7)
        b = Model(model_spec("cnn_small", (1, 28, 28), 10), seed=7)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb and np.array_equal(pa.data, pb.data)


class TestSoftmaxCrossEntropy:
    def test_uniform_case_is_ln2(self):
        loss = F.softmax_cross_entropy(Tensor(np.array([[0.0, 0.0]])), np.array([[0.5, 0.5]]))
        assert abs(loss.item() - np.log(2.0)) < 1e-6

    def test_saturated_correct_does_not_overflow(self):
        loss = F.softmax_cross_entropy(Tensor(np.array([[1e3, -1e3]])), np.array([[1.0, 0.0]]))
        assert 0.0 <= loss.item() < 1e-6

    def test_matches_direct_definition_in_extended_precision(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(scale=3.0, size=(8, 3))
        targets = rng.dirichlet(np.ones(3), size=8)
        z = logits.astype(np.longdouble)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        expected = float((-targets.astype(np.longdouble) * np.log(p)).sum(axis=1).mean())
        got = F.softmax_cross_entropy(Tensor(logits), targets).item()
        assert abs(got - expected) < 1e-9

    def test_non_normalized_targets_rejected(self):
        with pytest.raises(ValidationError):
            F.softmax_cross_entropy(Tensor(np.zeros((1, 2))), np.array([[0.7, 0.7]]))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(scale=20.0, size=(32, 10)).astype(np.float32)
        probs = F.softmax(logits)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_cross_entropy_non_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            logits = Tensor(rng.normal(scale=5.0, size=(4, 6)))
            targets = rng.dirichlet(np.ones(6), size=4)
            assert F.softmax_cross_entropy(logits, targets).item() >= 0.0


class TestBackward:
    def test_constant_loss_gives_zero_grads(self):
        model = Model(mlp_spec(), seed=0)
        w = model._params["1.weight"]
        loss = (w * 0.0).sum()
        backward(model, loss)
        for p in model.parameters():
            assert p.grad is not None and np.all(p.grad == 0.0)

    def test_backward_without_forward_is_usage_error(self):
        with pytest.raises(ValidationError, match=re.escape("backward() without a recorded forward pass")):
            Tensor(np.array([1.0]), requires_grad=True).backward()

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValidationError, match=re.escape("backward() requires a scalar loss")):
            (t * 2.0).backward()

    def test_only_leaves_hold_gradients_after_backward(self):
        model = Model(model_spec("cnn_small", (1, 8, 8), 3), seed=0)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 1, 8, 8)), requires_grad=True)
        logits = model.forward(x)
        loss = F.softmax_cross_entropy(logits, F.one_hot([0, 2], 3))
        interior, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if node._backward is not None and id(node) not in interior:
                interior[id(node)] = node
                stack.extend(node._parents)
        assert id(logits) in interior and len(interior) > 10
        loss.backward()
        assert all(node.grad is None for node in interior.values())
        assert x.grad is not None and x.grad.shape == x.shape
        for name, p in model.named_parameters():
            assert p.grad is not None and p.grad.shape == p.shape, name

    def test_dense_squared_error_matches_hand_calculus(self):
        # loss = sum((x W^T - y)^2) on a 2x2 case; dL/dW = 2 (out-y)^T x
        rng = np.random.default_rng(6)
        w = rng.normal(size=(2, 2))
        x = rng.normal(size=(2, 2))
        y = rng.normal(size=(2, 2))
        wt = Tensor(w, requires_grad=True)
        out = Tensor(x).matmul(wt.transpose())
        diff = out - Tensor(y)
        (diff * diff).sum().backward()
        expected = 2.0 * (x @ w.T - y).T @ x
        assert max_rel_error(wt.grad, expected) < 1e-9

    @pytest.mark.parametrize("layer", ["dense", "conv", "relu", "maxpool", "log_softmax", "clamp"])
    def test_layer_gradients_match_finite_differences(self, layer):
        rng = np.random.default_rng(hash(layer) % 2**31)
        if layer == "dense":
            params = {"x": rng.normal(size=(3, 4)), "w": rng.normal(size=(2, 4)), "b": rng.normal(size=2)}
            build = lambda t: (F.dense(t["x"], t["w"], t["b"]) * rng_const((3, 2))).sum()
        elif layer == "conv":
            params = {"x": rng.normal(size=(2, 2, 5, 5)), "w": rng.normal(size=(3, 2, 3, 3)), "b": rng.normal(size=3)}
            build = lambda t: (F.conv2d(t["x"], t["w"], t["b"], stride=2, padding=1) * rng_const((2, 3, 3, 3))).sum()
        elif layer == "relu":
            base = rng.normal(size=(4, 4))
            base[np.abs(base) < 0.05] = 0.1  # keep clear of the kink
            params = {"x": base}
            build = lambda t: (t["x"].relu() * rng_const((4, 4))).sum()
        elif layer == "maxpool":
            params = {"x": rng.normal(size=(2, 1, 4, 4))}
            build = lambda t: (F.maxpool2d(t["x"], 2) * rng_const((2, 1, 2, 2))).sum()
        elif layer == "log_softmax":
            params = {"x": rng.normal(size=(3, 5))}
            build = lambda t: (t["x"].log_softmax() * rng_const((3, 5))).sum()
        else:
            base = rng.normal(size=(4, 4))
            base[np.abs(base - 0.2) < 0.05] += 0.2
            params = {"x": base}
            build = lambda t: (t["x"].clamp_min(0.2) * rng_const((4, 4))).sum()

        def rng_const(shape):
            return Tensor(np.random.default_rng(99).normal(size=shape))

        assert gradcheck(build, params) < 1e-4

    def test_full_model_gradcheck(self):
        spec = ModelSpec(input_shape=(1, 6, 6), num_classes=3,
                         layers=(Conv2d(2, 3, padding=1), ReLU(), MaxPool2d(2), Flatten(), Dense(3)))
        model = Model(spec, seed=11, dtype=np.float64)
        x = np.random.default_rng(12).normal(size=(2, 1, 6, 6))
        targets = F.one_hot([0, 2], 3)

        def loss_value():
            return F.softmax_cross_entropy(model.forward(Tensor(x)), targets).item()

        model.zero_grads()
        loss = F.softmax_cross_entropy(model.forward(Tensor(x)), targets)
        backward(model, loss)
        for name, p in model.named_parameters():
            fd = finite_diff_grad(loss_value, p.data)
            assert max_rel_error(p.grad, fd) < 1e-4, name

    def test_non_finite_op_raises(self):
        with pytest.raises(NonFiniteError):
            Tensor(np.array([1000.0]), requires_grad=True).exp()


class TestFiniteChecks:
    """Where Tensor._make runs its finite check: on every op's result, except
    for ops that keep finite input finite when every input is an op result."""

    @pytest.mark.parametrize("grad", [False, True])
    def test_cnn_small_forward_checks_conv_and_dense_only(self, monkeypatch, grad):
        model = Model(model_spec("cnn_small", (1, 28, 28), 10), seed=0)
        x = Tensor(np.random.default_rng(0).random((2, 1, 28, 28)).astype(np.float32))
        ops = []
        check = tensor_module._check_finite

        def recording(arr, op):
            ops.append(op)
            check(arr, op)

        monkeypatch.setattr(tensor_module, "_check_finite", recording)
        if grad:
            out = model.forward(x)
        else:
            with no_grad():
                out = model.forward(x)
        assert ops == ["conv2d", "conv2d", "transpose", "matmul", "add"]
        assert out.finite and not x.finite

    @pytest.mark.parametrize("op,bad", [("maxpool2d", np.nan), ("reshape", np.nan), ("relu", np.inf)])
    def test_a_leaf_is_checked_and_named(self, op, bad):
        x = np.ones((1, 1, 2, 2))
        x[0, 0, 1, 1] = bad
        run = {"maxpool2d": lambda t: F.maxpool2d(t, 2), "reshape": lambda t: t.reshape(1, -1),
               "relu": lambda t: t.relu()}[op]
        for leaf in (Tensor(x), Tensor(x, requires_grad=True)):
            with pytest.raises(NonFiniteError, match=f"op '{op}'"):
                run(leaf)


def conv_case(data, batch=4, cin=4, cout=8):
    """Draw (x, w, b, stride, padding) with a valid output size and at most the given sizes."""
    k = data.draw(st.integers(1, 4), "kernel")
    pad = data.draw(st.integers(0, 2), "padding")
    h, w = (data.draw(st.integers(max(1, k - 2 * pad), 9), axis) for axis in ("H", "W"))
    shape_x = (data.draw(st.integers(1, batch), "B"), data.draw(st.integers(1, cin), "Cin"), h, w)
    shape_w = (data.draw(st.integers(1, cout), "Cout"), shape_x[1], k, k)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
    return (rng.normal(size=shape_x), rng.normal(size=shape_w), rng.normal(size=shape_w[0]),
            data.draw(st.integers(1, 2), "stride"), pad)


def relu_case(dtype):
    """(x, grad) of one dtype and length, with signed zeros, subnormals, infinities and NaN mixed in."""
    info = np.finfo(dtype)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, info.smallest_subnormal, -info.smallest_subnormal,
               info.tiny / 2, -info.tiny / 2]
    elements = st.one_of(st.sampled_from(special), st.floats(width=info.bits))
    return st.integers(1, 40).flatmap(
        lambda n: st.tuples(arrays(dtype, n, elements=elements), arrays(dtype, n, elements=elements)))


class TestKernelsMatchReference:
    """conv2d, maxpool2d and relu against the einsum, argmax and np.where forms they replaced (tests/util.py)."""

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from([np.float32, np.float64]))
    def test_conv2d_equals_einsum_reference(self, data, dtype):
        x, w, b, stride, pad = (a.astype(dtype) if isinstance(a, np.ndarray) else a for a in conv_case(data))
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = F.conv2d(xt, wt, bt, stride=stride, padding=pad)
        ref, ref_backward = reference_conv2d(x, w, b, stride=stride, padding=pad)
        grad = np.random.default_rng(0).normal(size=ref.shape).astype(dtype)
        (out * Tensor(grad)).sum().backward()
        assert out.data.flags.c_contiguous
        # numpy's einsum drops size-1 axes before its GEMM, which can change
        # the BLAS call and so the last bit of a float64 result
        exact = 1 not in (*x.shape[:2], *ref.shape[1:])
        for got, want in zip((out.data, xt.grad, wt.grad, bt.grad), (ref, *ref_backward(grad))):
            assert got.dtype == want.dtype == dtype
            if dtype == np.float32:
                # float32 GEMMs against the float64 oracle; the worst
                # max_rel_error measured over 80,000 random draws of conv_case
                # was 4.9e-6 (output), 3.4e-6 (input gradient), 1.7e-5 (weight
                # gradient) and 0 (bias gradient, summed in float64)
                assert max_rel_error(got, want) < 5e-5
            elif exact:
                # value for value: with B*Ho*Wo == 1 the reference multiplied
                # instead of summing, so a zero weight gradient may differ in sign
                np.testing.assert_array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("cin,cout,size", [(1, 8, 28), (8, 16, 14)])  # cnn_small's two conv layers
    @pytest.mark.parametrize("batch", [1, 32, 64])
    def test_conv2d_equals_reference_at_cnn_small_shapes(self, batch, cin, cout, size, stride):
        # conv_case stops at B <= 4 and H <= 9; these are the shapes the model trains and predicts at
        rng = np.random.default_rng((batch, cin, stride))
        x, w, b = (rng.normal(size=shape) for shape in ((batch, cin, size, size), (cout, cin, 3, 3), (cout,)))
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = F.conv2d(xt, wt, bt, stride=stride, padding=1)
        ref, ref_backward = reference_conv2d(x, w, b, stride=stride, padding=1)
        grad = rng.normal(size=ref.shape)
        (out * Tensor(grad)).sum().backward()
        ref_gx, ref_gw, _ = ref_backward(grad)
        for got, want in ((out.data, ref), (xt.grad, ref_gx), (wt.grad, ref_gw)):
            assert got.dtype == want.dtype == np.float64
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype,bias_dtype", [(np.float32, np.float32), (np.float32, np.float64),
                                                  (np.float64, np.float64)])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("cin,cout,size", [(1, 8, 28), (8, 16, 14)])
    @pytest.mark.parametrize("batch", [1, 32, 64])
    def test_conv2d_forward_equals_transposing_add_bytewise(self, batch, cin, cout, size, stride, dtype,
                                                             bias_dtype):
        # the bias added before the layout copy, not in it: the same GEMM and
        # the same float adds, so every output byte stays, float32 included;
        # a float64 bias still rounds to the compute dtype first
        rng = np.random.default_rng((batch, cin, stride))
        x, w = (rng.normal(size=shape).astype(dtype) for shape in ((batch, cin, size, size), (cout, cin, 3, 3)))
        b = rng.normal(size=cout).astype(bias_dtype)
        with no_grad():
            out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=1).data
        want = reference_conv2d_forward(x, w, b, stride=stride, padding=1)
        assert out.dtype == want.dtype == dtype and out.shape == want.shape and out.flags.c_contiguous
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kernel,stride,padding", [((3, 3), 1, 1), ((3, 2), 2, 0), ((2, 5), 3, 2)])
    def test_conv2d_windows_do_not_use_stride_tricks(self, monkeypatch, kernel, stride, padding):
        # numpy's stride_tricks build views through `__array_interface__`,
        # whose dict interns a key that dies with the view: one dead entry in
        # the interpreter's interned-string table per conv2d call, until the
        # table resizes on the heap mid-run. The windows come from the ndarray
        # constructor instead, with the same bytes.
        from numpy.lib import _stride_tricks_impl

        rng = np.random.default_rng(60)
        x, w = rng.normal(size=(2, 3, 9, 8)), rng.normal(size=(4, 3, *kernel))
        x, w, b = x.astype(np.float32), w.astype(np.float32), rng.normal(size=4).astype(np.float32)
        want = reference_conv2d_forward(x, w, b, stride=stride, padding=padding)

        def refuse(*args, **kwargs):
            raise AssertionError("conv2d built a view with numpy.lib.stride_tricks")

        monkeypatch.setattr(_stride_tricks_impl, "as_strided", refuse)
        xt, wt, bt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
        out = F.conv2d(xt, wt, bt, stride=stride, padding=padding)
        out.sum().backward()
        assert out.data.tobytes() == want.tobytes()
        assert xt.grad.shape == x.shape and wt.grad.shape == w.shape

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 70), k=st.integers(1, 70), n=st.integers(1, 70),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
    def test_matmul_equals_numpy_in_storage_dtype(self, m, k, n, dtype, seed):
        rng = np.random.default_rng(seed)
        a, b, grad = (rng.normal(size=shape).astype(dtype) for shape in ((m, k), (k, n), (m, n)))
        at, bt = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        out = at.matmul(bt)
        (out * Tensor(grad)).sum().backward()
        for got, want in ((out.data, a @ b), (at.grad, grad @ b.T), (bt.grad, a.T @ grad)):
            assert got.dtype == dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(kernel=st.integers(1, 3), batch=st.integers(1, 3), channels=st.integers(1, 3),
           ho=st.integers(1, 5), wo=st.integers(1, 5), values=st.sampled_from(["integers", "relu", "signed_zeros"]),
           special_grad=st.booleans(), dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    @example(kernel=2, batch=1, channels=1, ho=2, wo=2, values="relu", special_grad=False,
             dtype=np.float32, seed=0)
    @example(kernel=2, batch=1, channels=1, ho=2, wo=2, values="integers", special_grad=True,
             dtype=np.float32, seed=0)
    @example(kernel=3, batch=1, channels=1, ho=2, wo=2, values="signed_zeros", special_grad=False,
             dtype=np.float64, seed=0)
    def test_maxpool2d_equals_argmax_reference_on_ties(self, kernel, batch, channels, ho, wo, values,
                                                       special_grad, dtype, seed):
        rng = np.random.default_rng(seed)
        shape = (batch, channels, ho * kernel, wo * kernel)
        if values == "signed_zeros":
            # a max of zero often ties across signs; the first zero in
            # row-major order, sign and all, is the max
            x = rng.choice(np.array([-0.0, 0.0, -1.0], dtype=dtype), size=shape, p=[0.4, 0.4, 0.2])
            x[0, 0, :kernel, :kernel] = 0.0  # at least one tile holds both zeros, -0.0 first
            x[0, 0, 0, 0] = -0.0
        else:
            x = rng.integers(-2, 3, size=shape).astype(dtype)
        if values == "relu":  # many all-zero tiles
            x = Tensor(x).relu().data
        xt = Tensor(x, requires_grad=True)
        out = F.maxpool2d(xt, kernel)
        ref, ref_backward = reference_maxpool2d(x, kernel)
        grad = rng.normal(size=ref.shape).astype(dtype)
        if special_grad:
            # signed zeros and infinities: routing must copy each gradient's
            # bits and write +0.0 everywhere else
            spots = rng.random(ref.shape) < 0.5
            grad[spots] = rng.choice(np.array([-0.0, 0.0, np.inf, -np.inf], dtype=dtype), size=int(spots.sum()))
            out._backward(grad)  # directly: a non-finite gradient cannot pass through a checked loss
        else:
            (out * Tensor(grad)).sum().backward()
        for got, want in ((out.data, ref), (xt.grad, ref_backward(grad))):
            assert got.dtype == want.dtype and got.shape == want.shape and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(case=st.one_of(relu_case(np.float32), relu_case(np.float64)))
    @example(case=(np.array([-0.0, 1.0, -0.0]), np.array([-0.0, np.inf, 1.0])))
    @example(case=(np.array([-0.0, np.nan, 2e-45], np.float32), np.array([np.inf, -0.0, -0.0], np.float32)))
    def test_relu_equals_where_reference_bytewise(self, case):
        x, grad = case
        dtype, info = x.dtype.type, np.finfo(x.dtype)
        if np.isposinf(x).any():
            # +inf survives relu, and every op rejects a non-finite result
            with pytest.raises(NonFiniteError):
                Tensor(x).relu()
            x[np.isposinf(x)] = info.max
        xt = Tensor(x, requires_grad=True)
        out = xt.relu()
        want = np.where(x > 0, x, dtype(0))
        assert out.data.dtype == want.dtype and out.data.tobytes() == want.tobytes()
        with np.errstate(invalid="ignore"):  # inf * 0 is NaN on both sides
            out._backward(grad)  # directly: a non-finite gradient cannot pass through a checked loss
            want_grad = grad * (x > 0)
        assert xt.grad.dtype == want_grad.dtype and xt.grad.tobytes() == want_grad.tobytes()

    def test_maxpool2d_first_offset_takes_tied_gradient(self):
        xt = Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
        (F.maxpool2d(xt, 2) * Tensor(np.full((1, 1, 1, 1), 5.0))).sum().backward()
        np.testing.assert_array_equal(xt.grad[0, 0], [[5.0, 0.0], [0.0, 0.0]])

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_conv2d_gradcheck_on_random_shapes(self, data):
        x, w, b, stride, pad = conv_case(data, batch=2, cin=2, cout=3)
        weights = Tensor(np.random.default_rng(1).normal(size=reference_conv2d(x, w, b, stride, pad)[0].shape))
        build = lambda t: (F.conv2d(t["x"], t["w"], t["b"], stride=stride, padding=pad) * weights).sum()
        assert gradcheck(build, {"x": x, "w": w, "b": b}) < 1e-4

    @settings(max_examples=25, deadline=None)
    @given(kernel=st.integers(1, 3), ho=st.integers(1, 3), wo=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_maxpool2d_gradcheck_on_random_shapes(self, kernel, ho, wo, seed):
        rng = np.random.default_rng(seed)
        n = 2 * ho * kernel * wo * kernel
        # distinct values 0.1 apart, so no finite-difference step changes a max
        x = (rng.permutation(n) * 0.1 + rng.uniform(0, 0.01, size=n)).reshape(2, 1, ho * kernel, wo * kernel)
        weights = Tensor(rng.normal(size=(2, 1, ho, wo)))
        assert gradcheck(lambda t: (F.maxpool2d(t["x"], kernel) * weights).sum(), {"x": x}) < 1e-4


class TestSGD:
    def make_model(self):
        model = Model(mlp_spec(din=2, hidden=2, classes=2), seed=0)
        return model

    def set_grads(self, model, value):
        for p in model.parameters():
            p.grad = np.full_like(p.data, value)

    def test_zero_learning_rate_leaves_params_unchanged(self):
        model = self.make_model()
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        self.set_grads(model, 3.0)
        SGD(0.0, momentum=0.9).step(model)
        for n, p in model.named_parameters():
            assert np.array_equal(p.data, before[n])

    def test_plain_gradient_descent_step(self):
        model = self.make_model()
        p = model._params["1.weight"]
        p.data = np.zeros_like(p.data)
        self.set_grads(model, 0.0)
        p.grad = np.ones_like(p.data)
        SGD(1.0, momentum=0.0).step(model)
        assert np.all(p.data == -1.0)

    def test_two_momentum_steps_match_hand_recurrence(self):
        model = self.make_model()
        p = model._params["1.weight"]
        p0 = p.data.copy().astype(np.float64)
        opt = SGD(0.1, momentum=0.9)
        g1 = np.full_like(p0, 2.0)
        g2 = np.full_like(p0, -1.0)
        self.set_grads(model, 0.0)
        p.grad = g1.astype(p.data.dtype)
        opt.step(model)
        p.grad = g2.astype(p.data.dtype)
        opt.step(model)
        v1 = -0.1 * g1
        v2 = 0.9 * v1 - 0.1 * g2
        assert np.allclose(p.data, (p0 + v1 + v2), atol=1e-6)

    def test_missing_grads_is_usage_error(self):
        model = self.make_model()
        with pytest.raises(ValidationError, match="sgd step without gradient for parameter"):
            SGD(0.1).step(model)

    def test_negative_learning_rate_rejected(self):
        with pytest.raises(ValidationError):
            SGD(-0.1)

    def test_training_is_bitwise_deterministic(self):
        def run():
            model = Model(mlp_spec(din=3, hidden=4, classes=2), seed=5)
            opt = SGD(0.05, momentum=0.9)
            rng = np.random.default_rng(8)
            x = rng.normal(size=(6, 1, 1, 3)).astype(np.float32)
            y = F.one_hot(rng.integers(0, 2, size=6), 2)
            for _ in range(5):
                model.zero_grads()
                loss = F.softmax_cross_entropy(model.forward(Tensor(x)), y)
                backward(model, loss)
                opt.step(model)
            return {n: p.data.copy() for n, p in model.named_parameters()}

        a, b = run(), run()
        for n in a:
            assert np.array_equal(a[n], b[n])


class TestSnapshotsAndCheckpoints:
    def test_snapshot_is_immutable_and_versioned(self):
        model = Model(mlp_spec(), seed=0)
        snap = model.snapshot()
        assert snap.version == 0
        with pytest.raises(ValueError):
            snap.params[0][1][0] = 1.0
        self_grads = [np.full_like(p.data, 1.0) for p in model.parameters()]
        for p, g in zip(model.parameters(), self_grads):
            p.grad = g
        SGD(0.1).step(model)
        assert model.snapshot().version == 1

    @pytest.mark.parametrize("with_velocities", [False, True])
    def test_checkpoint_roundtrip_is_bitwise(self, tmp_path, with_velocities):
        model = Model(model_spec("cnn_small", (1, 28, 28), 10), seed=3)
        snap = model.snapshot()
        path = tmp_path / "model.ckpt"
        velocities = save_with(snap, path, with_velocities)
        loaded = load_checkpoint(path)
        assert loaded.version == snap.version
        assert loaded.spec == snap.spec
        for (na, a), (nb, b) in zip(snap.params, loaded.params):
            assert na == nb
            assert a.tobytes() == b.tobytes()
        if velocities is None:  # no key at all: the bytes of a file that predates it
            assert loaded.velocities is None and b"velocities" not in path.read_bytes()
        else:
            assert list(loaded.velocities) == list(velocities)
            for name, v in velocities.items():
                assert loaded.velocities[name].tobytes() == v.tobytes()

    def test_from_snapshot_copies_params_and_draws_no_init(self, monkeypatch):
        snap = Model(model_spec("cnn_small", (1, 28, 28), 10), seed=3).snapshot()

        def no_draw(*args, **kwargs):
            raise AssertionError("from_snapshot drew a random init")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        model = Model.from_snapshot(snap)
        assert model.version == snap.version and model.spec == snap.spec
        assert [n for n, _ in model.named_parameters()] == [n for n, _ in snap.params]
        for (_, p), (_, arr) in zip(model.named_parameters(), snap.params):
            assert p.requires_grad and p.data.flags.writeable
            assert p.data.dtype == arr.dtype and p.data.tobytes() == arr.tobytes()

    @pytest.mark.parametrize("with_velocities", [False, True])
    def test_corrupt_checkpoint_rejected(self, tmp_path, with_velocities):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ValidationError, match=re.escape(f"bad checkpoint magic in {path}")):
            load_checkpoint(path)
        model = Model(mlp_spec(), seed=0)
        good = tmp_path / "good.ckpt"
        save_with(model.snapshot(), good, with_velocities)
        truncated = good.read_bytes()[:-3]
        bad2 = tmp_path / "trunc.ckpt"
        bad2.write_bytes(truncated)
        with pytest.raises(ValidationError, match=f"truncated blob '[^']+' in {re.escape(str(bad2))}"):
            load_checkpoint(bad2)

    @pytest.mark.parametrize("with_velocities", [False, True])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_header_bit_flips_and_truncations_raise_checkpoint_error_or_load(self, tmp_path_factory, data,
                                                                             with_velocities):
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        save_with(Model(model_spec("cnn_small", (1, 8, 8), 10), seed=0).snapshot(), path, with_velocities)
        raw = bytearray(path.read_bytes())
        header_end = 12 + int.from_bytes(raw[8:12], "little")
        for _ in range(data.draw(st.integers(0, 3), "flips")):
            byte = data.draw(st.integers(8, header_end - 1), "byte")
            raw[byte] ^= 1 << data.draw(st.integers(0, 7), "bit")
        raw = raw[: data.draw(st.one_of(st.just(len(raw)), st.integers(0, len(raw) - 1)), "length")]
        path.write_bytes(bytes(raw))
        try:
            snap = load_checkpoint(path)
        except ValidationError as exc:  # every load error names the file
            assert str(path) in str(exc)
            return
        try:  # a header that loads may still disagree with its spec
            Model.from_snapshot(snap)
        except ValidationError as exc:
            assert re.match(r"(missing )?parameter '", str(exc))

    @pytest.mark.parametrize("with_velocities", [False, True])
    def test_blob_bit_flips_fail_crc32(self, tmp_path, with_velocities):
        path = tmp_path / "model.ckpt"
        save_with(Model(model_spec("cnn_small", (1, 28, 28), 10), seed=0).snapshot(), path, with_velocities)
        raw = path.read_bytes()
        blob_start = 12 + int.from_bytes(raw[8:12], "little")
        rng = np.random.default_rng(0)
        bad = tmp_path / "flipped.ckpt"
        for bit in rng.integers(blob_start * 8, len(raw) * 8, size=1000):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << int(bit % 8)
            bad.write_bytes(bytes(flipped))
            with pytest.raises(ValidationError, match="crc32"):
                load_checkpoint(bad)

    def test_checkpoint_without_crc32_or_with_malformed_crc32_is_named(self, tmp_path):
        path = tmp_path / "model.ckpt"
        snap = Model(mlp_spec(), seed=0).snapshot()
        save_checkpoint(snap, path)
        raw = path.read_bytes()
        header_end = 12 + int.from_bytes(raw[8:12], "little")
        header = json.loads(raw[12:header_end])

        def rewrite(name, new_header):
            encoded = json.dumps(new_header).encode("utf-8")
            target = tmp_path / name
            target.write_bytes(raw[:8] + len(encoded).to_bytes(4, "little") + encoded + raw[header_end:])
            return target

        assert [(n, a.tobytes()) for n, a in load_checkpoint(rewrite("same.ckpt", header)).params] == \
            [(n, a.tobytes()) for n, a in snap.params]
        for name, new_header in (("without.ckpt", {k: v for k, v in header.items() if k != "crc32"}),
                                 ("mistyped.ckpt", {**header, "crc32": str(header["crc32"])})):
            target = rewrite(name, new_header)
            with pytest.raises(ValidationError, match=re.escape(f"{target}: field 'crc32'")):
                load_checkpoint(target)

    def test_flipped_param_field_names_it(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(Model(mlp_spec(), seed=0).snapshot(), path)
        for field, flipped in ((b'"name"', b'"n`me"'), (b'"shape"', b'"sh`pe"')):
            path.with_name("bad.ckpt").write_bytes(path.read_bytes().replace(field, flipped, 1))
            with pytest.raises(ValidationError, match=re.escape(f"params[0].{field.decode()[1:-1]!r}")):
                load_checkpoint(path.with_name("bad.ckpt"))

    def test_missing_checkpoint_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match=re.escape(f"checkpoint not found: {tmp_path / 'absent.ckpt'}")):
            load_checkpoint(tmp_path / "absent.ckpt")
