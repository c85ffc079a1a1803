import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noah import tensor as T

from gradcheck import check_grads


def t64(arr, requires_grad=False):
    return T.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


class TestMatmul:
    def test_identity(self):
        a = T.Tensor(np.eye(2))
        b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(a, b).data, b.data)

    def test_projector(self):
        p = T.Tensor([[1.0, 0.0], [0.0, 0.0]])
        b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(T.matmul(p, b).data, [[5.0, 6.0], [0.0, 0.0]])

    def test_shape_mismatch_names_both_shapes(self):
        a = T.Tensor(np.zeros((3, 4)))
        b = T.Tensor(np.zeros((5, 2)))
        with pytest.raises(T.GradientError, match=r"\(3, 4\).*\(5, 2\)"):
            T.matmul(a, b)

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        a = t64(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        b = t64(rng.uniform(-2, 2, (4, 2)), requires_grad=True)
        check_grads(lambda: T.sum_all(T.matmul(a, b)), [a, b])

    def test_batched_gradients(self):
        rng = np.random.default_rng(1)
        a = t64(rng.uniform(-2, 2, (2, 3, 4)), requires_grad=True)
        w = t64(rng.uniform(-2, 2, (4, 5)), requires_grad=True)
        check_grads(lambda: T.mean_all(T.matmul(a, w)), [a, w])


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(T.Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-7)

    def test_stabilized_large_inputs(self):
        out = T.softmax(T.Tensor([1000.0, 1000.0, 1000.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-6)

    def test_closed_form(self):
        out = T.softmax(T.Tensor([0.0, math.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-6)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_sum_to_one_and_shift_invariant(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-5, 5, (4, 6)).astype(np.float32)
        y = T.softmax(T.Tensor(x)).data
        assert np.all(y > 0)
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)
        shifted = T.softmax(T.Tensor(x + 3.7)).data
        np.testing.assert_allclose(y, shifted, atol=1e-6)

    def test_gradients(self):
        rng = np.random.default_rng(2)
        x = t64(rng.uniform(-2, 2, (3, 5)), requires_grad=True)
        w = t64(rng.uniform(-2, 2, (3, 5)))
        check_grads(lambda: T.sum_all(T.mul(T.softmax(x), w)), [x])


class TestLinear:
    def test_one_node_gradients_on_3d_input(self):
        rng = np.random.default_rng(20)
        x = t64(rng.uniform(-2, 2, (2, 3, 4)), requires_grad=True)
        w = t64(rng.uniform(-2, 2, (4, 5)), requires_grad=True)
        b = t64(rng.uniform(-2, 2, 5), requires_grad=True)
        mix = t64(rng.uniform(-1, 1, (2, 3, 5)))
        out = T.linear(x, w, b)
        assert out.shape == (2, 3, 5) and out._parents == (x, w, b)
        check_grads(lambda: T.sum_all(T.mul(T.linear(x, w, b), mix)), [x, w, b])

    def test_frozen_weight_gets_no_grad(self):
        rng = np.random.default_rng(21)
        x = t64(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        w = t64(rng.uniform(-2, 2, (4, 2)))
        T.backward(T.sum_all(T.linear(x, w)))
        assert w.grad is None
        np.testing.assert_allclose(x.grad, np.tile(w.data.sum(axis=1), (3, 1)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(T.GradientError, match=r"\(2, 3, 4\).*\(5, 2\)"):
            T.linear(T.Tensor(np.zeros((2, 3, 4))), T.Tensor(np.zeros((5, 2))))


def split_heads(a, heads):
    b, n, d = a.shape
    return a.reshape(b, n, heads, d // heads).transpose(0, 2, 1, 3)


def reference_attention(qkv, heads, dq=0.0, dk=0.0):
    """Float64 attention from plain numpy, one head at a time."""
    d = qkv.shape[-1] // 3
    q, k, v = (
        split_heads(a, heads) for a in (qkv[..., :d] + dq, qkv[..., d:2 * d] + dk, qkv[..., 2 * d:])
    )
    out = np.zeros_like(q)
    for bi in range(q.shape[0]):
        for h in range(heads):
            s = q[bi, h] @ k[bi, h].T / math.sqrt(q.shape[-1])
            e = np.exp(s - s.max(axis=1, keepdims=True))
            out[bi, h] = (e / e.sum(axis=1, keepdims=True)) @ v[bi, h]
    return out.transpose(0, 2, 1, 3).reshape(qkv.shape[0], qkv.shape[1], d)


class TestAttention:
    # 2 heads of width 4 over 5 tokens: tokens != head_dim
    B, N, HEADS, D = 2, 5, 2, 8

    def packed(self, seed, scale=1.0):
        rng = np.random.default_rng(seed)
        return t64(rng.uniform(-scale, scale, (self.B, self.N, 3 * self.D)), requires_grad=True)

    def test_matches_per_head_reference(self):
        qkv = self.packed(30)
        out = T.attention(qkv, self.HEADS)
        assert out.shape == (self.B, self.N, self.D) and out._parents == (qkv,)
        np.testing.assert_allclose(out.data, reference_attention(qkv.data, self.HEADS), atol=1e-12)

    @pytest.mark.parametrize("lora", [False, True], ids=["plain", "qk_delta"])
    def test_gradients(self, lora):
        rng = np.random.default_rng(31)
        qkv = self.packed(32, scale=2.0)
        mix = t64(rng.uniform(-1, 1, (self.B, self.N, self.D)))
        params = [qkv]
        dq = dk = None
        if lora:
            dq = t64(rng.uniform(-1, 1, (self.B, self.N, self.D)), requires_grad=True)
            dk = t64(rng.uniform(-1, 1, (self.B, self.N, self.D)), requires_grad=True)
            params += [dq, dk]
            out = T.attention(qkv, self.HEADS, dq, dk)
            np.testing.assert_allclose(
                out.data, reference_attention(qkv.data, self.HEADS, dq.data, dk.data), atol=1e-12
            )
        check_grads(lambda: T.sum_all(T.mul(T.attention(qkv, self.HEADS, dq, dk), mix)), params)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariant(self, seed):
        # adding u to every key adds q_i.u to the whole score row i
        rng = np.random.default_rng(seed)
        qkv = rng.uniform(-3, 3, (self.B, self.N, 3 * self.D)).astype(np.float32)
        shifted = qkv.copy()
        shifted[..., self.D:2 * self.D] += rng.uniform(-3, 3, self.D).astype(np.float32)
        out = T.attention(T.Tensor(qkv), self.HEADS).data
        np.testing.assert_allclose(out, T.attention(T.Tensor(shifted), self.HEADS).data, atol=1e-4)

    def test_stable_with_large_logits(self):
        # equal keys with scores ~1e6: exp overflows unless each row is shifted by its max
        qkv = np.zeros((1, 3, 3 * self.D), np.float32)
        qkv[..., : 2 * self.D] = 700.0
        qkv[0, :, 2 * self.D:] = np.arange(3 * self.D, dtype=np.float32).reshape(3, self.D)
        out = T.attention(T.Tensor(qkv), self.HEADS).data
        assert np.all(np.isfinite(out))
        v_mean = qkv[0, :, 2 * self.D:].mean(axis=0)
        np.testing.assert_allclose(out[0], np.tile(v_mean, (3, 1)), rtol=1e-6)

    def test_uniform_weights_at_zero_qk(self):
        qkv = self.packed(33).data
        qkv[..., : 2 * self.D] = 0.0
        out = T.attention(t64(qkv), self.HEADS).data
        v = qkv[..., 2 * self.D:]
        expected = np.broadcast_to(v.mean(axis=1, keepdims=True), out.shape)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_bad_head_split_rejected(self):
        with pytest.raises(T.GradientError, match="3 heads"):
            T.attention(self.packed(34), 3)


def _fused_cases():
    """(name, inputs, forward) for each op that fuses or writes in place."""
    rng = np.random.default_rng(40)

    def t(*shape, grad=True):
        return t64(rng.uniform(-2, 2, shape), requires_grad=grad)

    x3, qkv = t(2, 3, 4), t(2, 5, 24)
    return [
        ("linear", (x3, t(4, 6), t(6)), lambda x, w, b: T.linear(x, w, b)),
        ("attention", (qkv, t(2, 5, 8), t(2, 5, 8)), lambda a, dq, dk: T.attention(a, 2, dq, dk)),
        ("gelu", (t(3, 7),), T.gelu),
        ("layer_norm", (t(2, 3, 6), t(6), t(6)), T.layer_norm),
    ]


class TestInPlaceSafety:
    """Fused ops write in place only into arrays they allocated."""

    @pytest.mark.parametrize("case", _fused_cases(), ids=lambda c: c[0])
    def test_inputs_and_incoming_grad_untouched(self, case):
        _, inputs, forward = case
        before = [a.data.copy() for a in inputs]
        out = forward(*inputs)
        g = np.random.default_rng(41).uniform(-1, 1, out.shape)
        g_before = g.copy()
        grads = out._backward(g)
        assert all(np.array_equal(a.data, b) for a, b in zip(inputs, before))
        assert np.array_equal(g, g_before)
        assert all(not np.shares_memory(pg, g) for pg in grads if pg is not None)

    @pytest.mark.parametrize("case", _fused_cases(), ids=lambda c: c[0])
    def test_gradient_shared_by_residual_add(self, case):
        # add hands the same array to both branches; the skip branch is
        # recorded first, so its backward reads that array after the op's
        _, inputs, forward = case
        out = forward(*inputs)
        skip = t64(np.random.default_rng(42).uniform(-1, 1, out.shape), requires_grad=True)
        mix = t64(np.random.default_rng(43).uniform(-1, 1, out.shape))

        def loss_fn():
            branch = T.mul(skip, 2.0)
            return T.sum_all(T.mul(T.add(forward(*inputs), branch), mix))

        check_grads(loss_fn, [skip, *inputs])


class TestLayerNorm:
    def test_constant_row_is_zeroed(self):
        x = T.Tensor([[5.0, 5.0, 5.0, 5.0]])
        g = T.Tensor(np.ones(4))
        b = T.Tensor(np.zeros(4))
        np.testing.assert_allclose(T.layer_norm(x, g, b).data, 0.0, atol=1e-6)

    def test_unit_variance_row(self):
        x = T.Tensor([[1.0, -1.0]])
        g = T.Tensor(np.ones(2))
        b = T.Tensor(np.zeros(2))
        np.testing.assert_allclose(T.layer_norm(x, g, b).data, [[1.0, -1.0]], atol=1e-3)

    def test_gradients(self):
        rng = np.random.default_rng(3)
        x = t64(rng.uniform(-2, 2, (4, 6)), requires_grad=True)
        g = t64(rng.uniform(0.5, 1.5, 6), requires_grad=True)
        b = t64(rng.uniform(-0.5, 0.5, 6), requires_grad=True)
        mix = t64(rng.uniform(-1, 1, (4, 6)))
        check_grads(lambda: T.sum_all(T.mul(T.layer_norm(x, g, b), mix)), [x, g, b])


class TestActivations:
    def test_relu(self):
        out = T.relu(T.Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_gelu_zero_fixed_point(self):
        assert T.gelu(T.Tensor([0.0])).item() == 0.0

    def test_gelu_gradients(self):
        rng = np.random.default_rng(4)
        x = t64(rng.uniform(-2, 2, 32), requires_grad=True)
        check_grads(lambda: T.sum_all(T.gelu(x)), [x])


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = T.Tensor(np.zeros((2, 4)))
        loss = T.cross_entropy(logits, [0, 3])
        assert abs(loss.item() - math.log(4.0)) < 1e-6

    def test_confident_correct(self):
        logits = np.zeros((1, 5), dtype=np.float32)
        logits[0, 2] = 1000.0
        assert T.cross_entropy(T.Tensor(logits), [2]).item() < 1e-6

    def test_against_hand_logsumexp(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(-2, 2, (2, 3))
        labels = [2, 0]
        expected = np.mean(
            [math.log(sum(math.exp(v) for v in row)) - row[lab] for row, lab in zip(z, labels)]
        )
        loss = T.cross_entropy(t64(z), labels)
        assert abs(loss.item() - expected) < 1e-9

    def test_out_of_range_label(self):
        with pytest.raises(IndexError):
            T.cross_entropy(T.Tensor(np.zeros((1, 3))), [3])

    def test_gradients(self):
        rng = np.random.default_rng(6)
        logits = t64(rng.uniform(-2, 2, (4, 3)), requires_grad=True)
        labels = [0, 2, 1, 1]
        check_grads(lambda: T.cross_entropy(logits, labels), [logits])


class TestBackward:
    def test_sum_gives_ones(self):
        x = T.Tensor(np.zeros((2, 3)), requires_grad=True)
        T.backward(T.sum_all(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic(self):
        x = T.Tensor([1.0, -2.0, 3.0], requires_grad=True)
        T.backward(T.sum_all(T.mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, -4.0, 6.0], rtol=1e-6)

    def test_accumulation_without_reset(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        loss = T.sum_all(x)
        T.backward(loss)
        T.backward(loss)
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_non_scalar_rejected(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(T.GradientError):
            T.backward(T.mul(x, x))

    def test_frozen_tensor_never_gets_grad(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        frozen = T.Tensor([3.0, 4.0], requires_grad=False)
        T.backward(T.sum_all(T.mul(x, frozen)))
        assert frozen.grad is None
        assert x.grad is not None

    def test_shared_subexpression_fanout(self):
        x = T.Tensor([2.0], requires_grad=True)
        y = T.mul(x, x)
        loss = T.sum_all(T.add(y, y))
        T.backward(loss)
        np.testing.assert_allclose(x.grad, [8.0])

    def test_no_grad_blocks_recording(self):
        x = T.Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = T.mul(x, x)
        assert not y.requires_grad
        with pytest.raises(RuntimeError):  # the flag comes back on an exception too
            with T.no_grad():
                raise RuntimeError("inside no_grad")
        assert T.grad_enabled()


class TestShapeOps:
    def test_slice_of_concat_is_bit_identical(self):
        rng = np.random.default_rng(7)
        a = T.Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        b = T.Tensor(rng.standard_normal((2, 4)).astype(np.float32))
        joined = T.concat([a, b], axis=0)
        back = T.slice_axis(joined, axis=0, start=0, stop=3)
        assert back.data.tobytes() == a.data.tobytes()

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_slice_concat_roundtrip_property(self, n1, n2, seed):
        rng = np.random.default_rng(seed)
        a = T.Tensor(rng.standard_normal((n1, 3)).astype(np.float32))
        b = T.Tensor(rng.standard_normal((n2, 3)).astype(np.float32))
        joined = T.concat([a, b], axis=0)
        assert T.slice_axis(joined, 0, 0, n1).data.tobytes() == a.data.tobytes()
        assert T.slice_axis(joined, 0, n1, n1 + n2).data.tobytes() == b.data.tobytes()

    def test_concat_slice_expand_gradients(self):
        rng = np.random.default_rng(8)
        a = t64(rng.uniform(-2, 2, (2, 3)), requires_grad=True)
        b = t64(rng.uniform(-2, 2, (4, 3)), requires_grad=True)

        def loss_fn():
            j = T.concat([a, b], axis=0)
            s = T.slice_axis(j, 0, 1, 5)
            e = T.expand(T.reshape(a, (1, 2, 3)), (2, 2, 3))
            return T.add(T.sum_all(T.mul(s, s)), T.mean_all(e))

        check_grads(loss_fn, [a, b])

    def test_linear_matches_manual(self):
        rng = np.random.default_rng(10)
        x = T.Tensor(rng.standard_normal((2, 5, 4)).astype(np.float32))
        w = T.Tensor(rng.standard_normal((4, 3)).astype(np.float32))
        b = T.Tensor(rng.standard_normal(3).astype(np.float32))
        out = T.linear(x, w, b)
        expected = x.data.reshape(-1, 4) @ w.data + b.data
        assert out.data.tobytes() == expected.reshape(2, 5, 3).tobytes()


class TestValidationMode:
    def test_nan_detection_toggle(self):
        x = T.Tensor([1.0, -1.0])
        bad = T.Tensor([np.inf, 1.0])
        T.set_debug_validation(True)
        try:
            with pytest.raises(T.GradientError):
                T.add(x, bad)
        finally:
            T.set_debug_validation(False)
        T.add(x, bad)  # silent when disabled
