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

    def test_transpose_gradients(self):
        rng = np.random.default_rng(9)
        x = t64(rng.uniform(-2, 2, (2, 3, 4)), requires_grad=True)
        w = t64(rng.uniform(-2, 2, (2, 4, 3)))
        check_grads(lambda: T.sum_all(T.mul(T.transpose(x, (0, 2, 1)), w)), [x])

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
