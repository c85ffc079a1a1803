import math

import numpy as np
import pytest

from noah import optim as O
from noah.tensor import Tensor


def whole(opt):
    """Every parameter's full region, as ``step`` takes regions."""
    return {name: O.full_region(t) for name, t in opt.params.items()}


def hyper(**kw):
    defaults = dict(base_lr=0.1, total_epochs=10, weight_decay=1e-3, warmup_epochs=2)
    defaults.update(kw)
    return O.OptimHyper(**defaults)


class TestAdamW:
    def test_zero_grad_zero_decay_unchanged(self):
        p = Tensor(np.array([[1.0, -2.0]], np.float32), requires_grad=True)
        opt = O.AdamW({"w": p}, hyper(weight_decay=0.0))
        p.grad = np.zeros_like(p.data)
        opt.step(lr=0.1, regions=whole(opt))
        assert np.array_equal(p.data, [[1.0, -2.0]])

    def test_scalar_hand_computed_recurrence(self):
        lr, wd, b1, b2, eps = 0.1, 0.01, 0.9, 0.999, 1e-8
        assert (O.BETA1, O.BETA2, O.EPS) == (b1, b2, eps)
        p = Tensor(np.array([[1.0]], np.float32), requires_grad=True)
        opt = O.AdamW({"w": p}, hyper(weight_decay=wd))
        p.grad = np.array([[0.5]], np.float32)
        opt.step(lr=lr, regions=whole(opt))
        # hand-computed decoupled update
        m = (1 - b1) * 0.5
        v = (1 - b2) * 0.25
        m_hat = m / (1 - b1)
        v_hat = v / (1 - b2)
        expected = 1.0 * (1 - lr * wd) - lr * m_hat / (math.sqrt(v_hat) + eps)
        assert abs(float(p.data[0, 0]) - expected) < 1e-7

    def test_decay_only_shrinks_by_factor(self):
        lr, wd = 0.05, 0.2
        p = Tensor(np.array([[2.0]], np.float32), requires_grad=True)
        opt = O.AdamW({"w": p}, hyper(weight_decay=wd))
        for _ in range(3):
            p.grad = np.zeros_like(p.data)
            opt.step(lr=lr, regions=whole(opt))
        assert abs(float(p.data[0, 0]) - 2.0 * (1 - lr * wd) ** 3) < 1e-6

    def test_weight_decay_zero_equals_adam_bitwise(self):
        rng = np.random.default_rng(0)
        shape = (4, 3)
        start = rng.standard_normal(shape).astype(np.float32)
        grads = [rng.standard_normal(shape).astype(np.float32) for _ in range(5)]

        p = Tensor(start.copy(), requires_grad=True)
        opt = O.AdamW({"w": p}, hyper(weight_decay=0.0))
        for g in grads:
            p.grad = g.copy()
            opt.step(lr=0.01, regions=whole(opt))

        # reference Adam recurrence, written independently
        b1, b2, eps = 0.9, 0.999, 1e-8
        q = start.copy()
        m = np.zeros(shape, np.float32)
        v = np.zeros(shape, np.float32)
        t = np.zeros(shape, np.int64)
        for g in grads:
            t += 1
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            q -= 0.01 * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
        assert p.data.tobytes() == q.tobytes()

    def test_region_masking_leaves_rest_untouched(self):
        rng = np.random.default_rng(1)
        p = Tensor(rng.standard_normal((6, 4)).astype(np.float32), requires_grad=True)
        before = p.data.copy()
        opt = O.AdamW({"w": p}, hyper())
        # two steps so moments are non-zero, both masked to the first column
        for _ in range(2):
            p.grad = rng.standard_normal((6, 4)).astype(np.float32)
            opt.step(lr=0.1, regions={"w": (slice(None), slice(0, 1))})
        assert not np.array_equal(p.data[:, :1], before[:, :1])
        assert p.data[:, 1:].tobytes() == before[:, 1:].tobytes()
        assert np.all(opt.m["w"][:, 1:] == 0)
        assert np.all(opt.t["w"][:, 1:] == 0)

    def test_biases_and_token_banks_not_decayed(self):
        w = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
        b = Tensor(np.ones(2, np.float32), requires_grad=True)
        p = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
        opt = O.AdamW({"layer.w": w, "layer.b": b, "vpt.L0.P": p}, hyper(weight_decay=0.5))
        for t in (w, b, p):
            t.grad = np.zeros_like(t.data)
        opt.step(lr=0.1, regions=whole(opt))
        assert not np.array_equal(w.data, np.ones((2, 2)))  # decayed
        assert np.array_equal(b.data, np.ones(2))  # bias skipped
        assert np.array_equal(p.data, np.ones((2, 2)))  # token bank skipped


class TestSchedule:
    def test_warmup_start_is_zero(self):
        assert O.lr_at(0, 100, hyper()) == 0.0

    def test_warmup_end_is_base_lr(self):
        h = hyper()  # warmup 2 of 10 epochs -> 20 of 100 steps
        assert O.lr_at(20, 100, h) == pytest.approx(h.base_lr)

    def test_cosine_midpoint(self):
        h = hyper()
        mid = 20 + (100 - 20) // 2
        assert O.lr_at(mid, 100, h) == pytest.approx(0.5 * h.base_lr, abs=1e-6 * h.base_lr)

    def test_continuity_at_boundary(self):
        h = hyper()
        warmup = 20
        ramp_value = h.base_lr * warmup / warmup
        cosine_value = O.lr_at(warmup, 100, h)
        assert abs(ramp_value - cosine_value) < 1e-9 * h.base_lr

    def test_floor(self):
        h = hyper(warmup_epochs=0)
        values = [O.lr_at(s, 1000, h) for s in range(1000)]
        assert min(values) >= 1e-6 * h.base_lr

    def test_out_of_range(self):
        with pytest.raises(O.ScheduleError):
            O.lr_at(100, 100, hyper())
        with pytest.raises(O.ScheduleError):
            O.lr_at(-1, 100, hyper())

    def test_monotone_decay_after_warmup(self):
        h = hyper()
        vals = [O.lr_at(s, 100, h) for s in range(20, 100)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestHyperValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(O.ScheduleError):
            O.OptimHyper(base_lr=0.0, total_epochs=5)
        with pytest.raises(O.ScheduleError):
            O.OptimHyper(base_lr=0.1, total_epochs=5, warmup_epochs=-1)

    def test_warmup_clamped_to_epochs(self):
        assert O.OptimHyper(base_lr=0.1, total_epochs=5, warmup_epochs=6).warmup_epochs == 5
