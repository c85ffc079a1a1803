import numpy as np
import pytest

from noah import prompts as P
from noah import tensor as T
from noah.space import ModuleGene, SubnetConfig
from noah.tensor import Tensor

from gradcheck import full_banks, weighted_sum


def make_banks(num_layers=2, embed_dim=8, max_dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return full_banks(num_layers, embed_dim, max_dim, rng)


class TestAdapterForward:
    def test_zero_up_projection_gives_bias(self):
        banks = make_banks()
        h = Tensor(np.random.default_rng(1).standard_normal((1, 3, 8)).astype(np.float32))
        out = P.adapter_bottleneck(
            h,
            banks["adapter.L0.w_down"],
            banks["adapter.L0.b_down"],
            banks["adapter.L0.w_up"],  # zero-initialized
            banks["adapter.L0.b_up"],  # zero-initialized
            r=2,
        )
        assert np.array_equal(out.data, np.zeros((1, 3, 8), np.float32))

    def test_r1_scalar_bottleneck_by_hand(self):
        d = 3
        w_down = Tensor(np.array([[2.0], [0.0], [-1.0]], np.float32))
        b_down = Tensor(np.array([0.5], np.float32))
        w_up = Tensor(np.array([[1.0, -2.0, 3.0]], np.float32))
        b_up = Tensor(np.array([0.1, 0.2, 0.3], np.float32))
        h = Tensor(np.array([[[1.0, 5.0, 1.0]]], np.float32))
        # bottleneck scalar: relu(1*2 + 5*0 + 1*-1 + 0.5) = 1.5
        expected = 1.5 * np.array([1.0, -2.0, 3.0]) + np.array([0.1, 0.2, 0.3])
        out = P.adapter_bottleneck(h, w_down, b_down, w_up, b_up, r=1)
        np.testing.assert_allclose(out.data[0, 0], expected, rtol=1e-6)

    def test_prefix_slice_equals_standalone(self):
        banks = make_banks(seed=2)
        rng = np.random.default_rng(3)
        for name in ("adapter.L0.w_up", "adapter.L0.b_up"):
            banks[name] = Tensor(
                rng.standard_normal(banks[name].shape).astype(np.float32), requires_grad=True
            )
        h = Tensor(rng.standard_normal((2, 3, 8)).astype(np.float32))
        r1 = 2
        full = P.adapter_bottleneck(
            h,
            banks["adapter.L0.w_down"],
            banks["adapter.L0.b_down"],
            banks["adapter.L0.w_up"],
            banks["adapter.L0.b_up"],
            r=r1,
        )
        standalone = P.adapter_bottleneck(
            h,
            Tensor(banks["adapter.L0.w_down"].data[:, :r1].copy()),
            Tensor(banks["adapter.L0.b_down"].data[:r1].copy()),
            Tensor(banks["adapter.L0.w_up"].data[:r1, :].copy()),
            Tensor(banks["adapter.L0.b_up"].data.copy()),
            r=r1,
        )
        assert full.data.tobytes() == standalone.data.tobytes()

    def test_r_out_of_range(self):
        banks = make_banks()
        h = Tensor(np.zeros((1, 2, 8), np.float32))
        with pytest.raises(ValueError):
            P.adapter_bottleneck(
                h,
                banks["adapter.L0.w_down"],
                banks["adapter.L0.b_down"],
                banks["adapter.L0.w_up"],
                banks["adapter.L0.b_up"],
                r=5,
            )


class TestLoraDelta:
    def test_zero_at_initialization(self):
        banks = make_banks(seed=4)
        out = P.lora_delta(banks["lora.L0.q.w_down"], banks["lora.L0.q.w_up"], r=3)
        assert np.array_equal(out.data, np.zeros((8, 8), np.float32))

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_numerical_rank_bounded_by_r(self, r):
        rng = np.random.default_rng(7)
        d = 16
        wd = Tensor(rng.standard_normal((d, 8)).astype(np.float32))
        wu = Tensor(rng.standard_normal((8, d)).astype(np.float32))
        delta = P.lora_delta(wd, wu, r=r).data
        assert delta.shape == (d, d)
        sv = np.linalg.svd(delta.astype(np.float64), compute_uv=False)
        rank = int((sv > sv[0] * 1e-6).sum())
        assert rank <= r


class TestInjectPrompts:
    def test_zero_prompts_unchanged(self):
        x = Tensor(np.random.default_rng(8).standard_normal((1, 5, 8)).astype(np.float32))
        assert P.inject_prompts(x, None) is x

    def test_first_injection_order(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((2, 5, 8)).astype(np.float32))
        rows = Tensor(rng.standard_normal((3, 8)).astype(np.float32))
        out = P.inject_prompts(x, rows)
        assert out.shape == (2, 8, 8)
        assert np.array_equal(out.data[:, :5], x.data)  # class token and patches first
        for b in range(2):
            assert np.array_equal(out.data[b, 5:], rows.data)  # then prompts

    def test_prompt_gradient_sums_over_batch(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((3, 5, 8)).astype(np.float32))
        rows = Tensor(rng.standard_normal((2, 8)).astype(np.float32), requires_grad=True)
        T.backward(weighted_sum(P.inject_prompts(x, rows)))
        assert np.array_equal(rows.grad, np.full((2, 8), 3.0, np.float32))


class TestEntanglement:
    def test_output_depends_only_on_prefix(self):
        banks = make_banks(seed=12)
        rng = np.random.default_rng(13)
        # give the up-projections signal so the outputs are non-trivial
        for name, t in banks.items():
            if "w_up" in name:
                banks[name] = Tensor(
                    rng.standard_normal(t.shape).astype(np.float32) * 0.1, requires_grad=True
                )
        config = SubnetConfig(
            adapter=ModuleGene(1, (2, 0)), lora=ModuleGene(1, (2, 0)), vpt=ModuleGene(1, (2, 0))
        )
        ctx = P.PromptContext(banks, config)
        h = Tensor(rng.standard_normal((1, 4, 8)).astype(np.float32))

        def run():
            parts = []
            wd, bd, wu, bu, r = ctx.at("adapter", 0)
            parts.append(P.adapter_bottleneck(h, wd, bd, wu, bu, r).data.tobytes())
            qd, qu, kd, ku, r = ctx.at("lora", 0)
            parts.append(P.lora_delta(qd, qu, r).data.tobytes())
            parts.append(ctx.vpt_at(0).data.tobytes())
            return parts

        before = run()
        # perturb everything beyond the active prefixes
        banks["adapter.L0.w_down"].data[:, 2:] += 99.0
        banks["adapter.L0.b_down"].data[2:] -= 7.0
        banks["adapter.L0.w_up"].data[2:, :] += 5.0
        banks["lora.L0.q.w_down"].data[:, 2:] += 3.0
        banks["lora.L0.q.w_up"].data[2:, :] += 3.0
        banks["vpt.L0.P"].data[2:, :] += 11.0
        assert run() == before

    def test_gradients_reach_only_active_prefixes(self):
        banks = make_banks(seed=14)
        config = SubnetConfig(
            adapter=ModuleGene(1, (2, 0)), lora=ModuleGene(0, (0, 0)), vpt=ModuleGene(0, (0, 0))
        )
        ctx = P.PromptContext(banks, config)
        h = Tensor(np.random.default_rng(15).standard_normal((1, 4, 8)).astype(np.float32))
        wd, bd, wu, bu, r = ctx.at("adapter", 0)
        out = P.adapter_bottleneck(h, wd, bd, wu, bu, r)
        T.backward(weighted_sum(out))
        g = banks["adapter.L0.w_down"].grad
        assert g is not None
        assert np.array_equal(g[:, 2:], np.zeros_like(g[:, 2:]))
        assert banks["lora.L0.q.w_down"].grad is None

    def test_regions_match_active_slices(self):
        config = SubnetConfig(
            adapter=ModuleGene(2, (3, 0)), lora=ModuleGene(1, (2, 0)), vpt=ModuleGene(2, (1, 4))
        )
        regions = P.bank_regions(config)
        assert regions["adapter.L0.w_down"] == (slice(None), slice(0, 3))
        assert "adapter.L1.w_down" not in regions  # dim 0 within depth
        assert regions["vpt.L1.P"] == (slice(0, 4), slice(None))
        assert "lora.L1.q.w_down" not in regions
