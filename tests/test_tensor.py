import ast
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noah import tensor as T

from gradcheck import check_grads, records_graph, weighted_sum


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
        check_grads(lambda: weighted_sum(T.matmul(a, b)), [a, b])

    def test_batched_gradients(self):
        rng = np.random.default_rng(1)
        a = t64(rng.uniform(-2, 2, (2, 3, 4)), requires_grad=True)
        w = t64(rng.uniform(-2, 2, (4, 5)), requires_grad=True)
        check_grads(lambda: weighted_sum(T.matmul(a, w)), [a, w])


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
        check_grads(lambda: weighted_sum(T.softmax(x), w), [x])


class TestLinear:
    def test_one_node_gradients_on_3d_input(self):
        rng = np.random.default_rng(20)
        x = t64(rng.uniform(-2, 2, (2, 3, 4)), requires_grad=True)
        w = t64(rng.uniform(-2, 2, (4, 5)), requires_grad=True)
        b = t64(rng.uniform(-2, 2, 5), requires_grad=True)
        mix = t64(rng.uniform(-1, 1, (2, 3, 5)))
        out = T.linear(x, w, b)
        assert out.shape == (2, 3, 5) and out._parents == (x, w, b)
        check_grads(lambda: weighted_sum(T.linear(x, w, b), mix), [x, w, b])

    def test_frozen_weight_gets_no_grad(self):
        rng = np.random.default_rng(21)
        x = t64(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        w = t64(rng.uniform(-2, 2, (4, 2)))
        T.backward(weighted_sum(T.linear(x, w)))
        assert w.grad is None
        np.testing.assert_allclose(x.grad, np.tile(w.data.sum(axis=1), (3, 1)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(T.GradientError, match=r"\(2, 3, 4\).*\(5, 2\)"):
            T.linear(T.Tensor(np.zeros((2, 3, 4))), T.Tensor(np.zeros((5, 2))))


def split_heads(a, heads):
    b, n, d = a.shape
    return a.reshape(b, n, heads, d // heads).transpose(0, 2, 1, 3)


def reference_attention(qkv, heads):
    """Float64 attention from plain numpy, one head at a time."""
    d = qkv.shape[-1] // 3
    q, k, v = (split_heads(a, heads) for a in (qkv[..., :d], qkv[..., d:2 * d], qkv[..., 2 * d:]))
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

    def test_gradients(self):
        rng = np.random.default_rng(31)
        qkv = self.packed(32, scale=2.0)
        mix = t64(rng.uniform(-1, 1, (self.B, self.N, self.D)))
        check_grads(lambda: weighted_sum(T.attention(qkv, self.HEADS), mix), [qkv])

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

    def test_leading_query_rows(self):
        # one query row: the first row of full attention, with keys and
        # values from every row; the other rows' q columns get zero gradient
        rng = np.random.default_rng(35)
        qkv = self.packed(36, scale=2.0)
        mix = t64(rng.uniform(-1, 1, (self.B, 1, self.D)))
        out = T.attention(qkv, self.HEADS, queries=1)
        assert out.shape == (self.B, 1, self.D)
        full = T.attention(qkv, self.HEADS).data[:, :1]
        np.testing.assert_allclose(out.data, full, rtol=0, atol=1e-12)
        check_grads(lambda: weighted_sum(T.attention(qkv, self.HEADS, queries=1), mix), [qkv])
        assert np.all(qkv.grad[:, 1:, :self.D] == 0.0)

    @pytest.mark.parametrize("queries", [0, N + 1])
    def test_query_rows_out_of_range_rejected(self, queries):
        with pytest.raises(T.GradientError, match="query rows"):
            T.attention(self.packed(37), self.HEADS, queries=queries)


def _fused_cases():
    """(name, inputs, forward) for each op that fuses or writes in place."""
    rng = np.random.default_rng(40)

    def t(*shape, grad=True):
        return t64(rng.uniform(-2, 2, shape), requires_grad=grad)

    return [
        ("linear", (t(2, 3, 4), t(4, 6), t(6)), lambda x, w, b: T.linear(x, w, b)),
        ("attention", (t(2, 5, 24),), lambda a: T.attention(a, 2)),
        ("gelu", (t(3, 7),), T.gelu),
        ("layer_norm", (t(2, 3, 6), t(6), t(6)), T.layer_norm),
        ("attention_queries", (t(2, 5, 24),), lambda a: T.attention(a, 2, queries=2)),
        ("mlp", (t(2, 3, 4), t(4, 6), t(6), t(6, 5), t(5)), T.mlp),
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
            branch = T.reshape(skip, skip.shape)
            return weighted_sum(T.add(forward(*inputs), branch), mix)

        check_grads(loss_fn, [skip, *inputs])


def unfused_mlp(x, w1, b1, w2, b2):
    return T.linear(T.gelu(T.linear(x, w1, b1)), w2, b2)


class TestMlp:
    @pytest.mark.parametrize("frozen", [False, True], ids=["trainable", "frozen_weights"])
    def test_gradients_over_ragged_blocks(self, monkeypatch, frozen):
        # 10 rows in blocks of 3: the last block holds one row
        monkeypatch.setattr(T, "MLP_ROWS", 3)
        rng = np.random.default_rng(50)
        x = t64(rng.uniform(-2, 2, (2, 5, 4)), requires_grad=True)
        weights = [
            t64(rng.uniform(-1, 1, shape), requires_grad=not frozen)
            for shape in ((4, 6), (6,), (6, 3), (3,))
        ]
        mix = t64(rng.uniform(-1, 1, (2, 5, 3)))
        params = [x] if frozen else [x, *weights]
        check_grads(lambda: weighted_sum(T.mlp(x, *weights), mix), params)
        fused = [p.grad.copy() for p in params]
        for p in params:
            p.grad = None
        T.backward(weighted_sum(unfused_mlp(x, *weights), mix))
        for p, grad in zip(params, fused):
            np.testing.assert_allclose(grad, p.grad, rtol=0, atol=1e-12)
        assert all((w.grad is None) == frozen for w in weights)

    def test_float32_matches_unfused_ops(self):
        rng = np.random.default_rng(51)
        x = T.Tensor(rng.standard_normal((200, 17, 64)).astype(np.float32))
        w1 = T.Tensor(rng.normal(0.0, 0.1, (64, 256)).astype(np.float32))
        b1 = T.Tensor(rng.normal(0.0, 0.1, 256).astype(np.float32))
        w2 = T.Tensor(rng.normal(0.0, 0.1, (256, 64)).astype(np.float32))
        b2 = T.Tensor(rng.normal(0.0, 0.1, 64).astype(np.float32))
        out = T.mlp(x, w1, b1, w2, b2)
        assert out.shape == (200, 17, 64) and out.data.dtype == np.float32
        np.testing.assert_allclose(out.data, unfused_mlp(x, w1, b1, w2, b2).data, rtol=1e-6)

    def test_no_grad_records_nothing(self):
        rng = np.random.default_rng(52)
        shapes = ((3, 4), (4, 6), (6,), (6, 2), (2,))
        args = [t64(rng.uniform(-1, 1, s), requires_grad=True) for s in shapes]
        with T.no_grad():
            out = T.mlp(*args)
        assert not out.requires_grad and out._parents == () and out._backward is None

    def test_shape_mismatch_names_all_shapes(self):
        x, w1, b1, w2, b2 = (T.Tensor(np.zeros(s)) for s in ((3, 4), (4, 6), 6, (5, 2), 2))
        with pytest.raises(T.GradientError, match=r"\(3, 4\).*\(4, 6\).*\(5, 2\)"):
            T.mlp(x, w1, b1, w2, b2)


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
        check_grads(lambda: weighted_sum(T.layer_norm(x, g, b), mix), [x, g, b])


class TestActivations:
    def test_relu(self):
        out = T.relu(T.Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_gelu_zero_fixed_point(self):
        assert T.gelu(T.Tensor([0.0])).item() == 0.0

    def test_gelu_gradients(self):
        rng = np.random.default_rng(4)
        x = t64(rng.uniform(-2, 2, 32), requires_grad=True)
        check_grads(lambda: weighted_sum(T.gelu(x)), [x])


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
        T.backward(weighted_sum(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic(self):
        x = T.Tensor([1.0, -2.0, 3.0], requires_grad=True)
        T.backward(weighted_sum(x, x))
        np.testing.assert_allclose(x.grad, [2.0, -4.0, 6.0], rtol=1e-6)

    def test_accumulation_without_reset(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        loss = weighted_sum(x)
        T.backward(loss)
        T.backward(loss)
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_non_scalar_rejected(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(T.GradientError):
            T.backward(T.add(x, x))

    def test_frozen_tensor_never_gets_grad(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        frozen = T.Tensor([3.0, 4.0], requires_grad=False)
        T.backward(weighted_sum(x, frozen))
        assert frozen.grad is None
        assert x.grad is not None

    def test_shared_subexpression_fanout(self):
        x = T.Tensor([2.0], requires_grad=True)
        y = weighted_sum(x, x)
        loss = T.add(y, y)
        T.backward(loss)
        np.testing.assert_allclose(x.grad, [8.0])

    def test_no_grad_blocks_recording(self):
        x = T.Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = T.add(x, x)
        assert not y.requires_grad
        with pytest.raises(RuntimeError):  # recording comes back on an exception too
            with T.no_grad():
                raise RuntimeError("inside no_grad")
        assert records_graph()


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
            return T.add(weighted_sum(s, s), weighted_sum(e))

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
        with T.debug_validation():
            with pytest.raises(T.GradientError):
                T.add(x, bad)
            with T.debug_validation(False):
                T.add(x, bad)  # an inner block can switch it off
            with pytest.raises(T.GradientError):
                T.add(x, bad)
        T.add(x, bad)  # silent when disabled
        with pytest.raises(RuntimeError):  # the flag comes back on an exception too
            with T.debug_validation():
                raise RuntimeError("inside debug_validation")
        T.add(x, bad)


class TestCallers:
    ROOT = Path(__file__).resolve().parents[1]

    def src_references(self) -> set[str]:
        """Names the other noah modules take from ``noah.tensor``: imported
        from ``.tensor``, or read as an attribute of the imported module."""
        used = set()
        for path in (self.ROOT / "src" / "noah").glob("*.py"):
            if path.name == "tensor.py":
                continue
            tree = ast.parse(path.read_text())
            aliases = {
                a.asname or a.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
                for a in node.names
                if a.name == "tensor"
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "tensor":
                    used.update(a.name for a in node.names)
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in aliases):
                    used.add(node.attr)
        return used

    def traced(self) -> set[str]:
        """``noah.tensor`` functions the benchmark's tracer wraps, read from the
        text of its ``TARGETS`` so that these tests do not import the benchmark."""
        text = (self.ROOT / "bench" / "tracing.py").read_text()
        targets = text[text.index("TARGETS = ("):]
        targets = targets[: targets.index("\n)\n")]
        return set(re.findall(r'"noah\.tensor\.(\w+)"', targets))

    def test_every_op_is_called_outside_tests(self):
        """Every public function of ``noah.tensor`` is called by another noah
        module or wrapped by the benchmark, so no test-only op lives there."""
        public = {
            name for name, f in vars(T).items()
            if inspect.isfunction(f) and f.__module__ == T.__name__ and not name.startswith("_")
        }
        assert public - self.src_references() - self.traced() == set()
