"""Central finite-difference gradient oracle, independent of the tape engine,
a scalar loss built from the ops the model runs, a hash of the frozen
backbone for tests that check it stays untouched, full-size prompt banks
built without a supernet, and a plain per-layer forward of one config that
shares no walk with ``model_forward``.

Builds expected gradients purely from repeated forward evaluations in 64-bit
mode, so it shares no code path with the analytic backward rules it checks.
"""

import hashlib

import numpy as np

from noah import backbone as B
from noah import tensor as T
from noah.backbone import BACKBONE_PREFIX
from noah.prompts import init_subnet_tensors
from noah.space import MODULES, SearchSpaceSpec, SubnetConfig


def numeric_grad(loss_fn, param: T.Tensor, h: float = 1e-5) -> np.ndarray:
    """d loss / d param by central differences, elementwise."""
    assert param.data.dtype == np.float64, "finite differences need 64-bit params"
    base = param.data.copy()
    grad = np.zeros_like(base)
    flat = param.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = loss_fn().item()
        flat[i] = orig - h
        lo = loss_fn().item()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    param.data[...] = base
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_grads(loss_fn, params, h: float = 1e-5, tol: float = 1e-4) -> float:
    """Run backward once, compare every param grad to the oracle; return worst error."""
    for p in params:
        p.grad = None
    loss = loss_fn()
    T.backward(loss)
    worst = 0.0
    for p in params:
        assert p.grad is not None, "parameter received no gradient"
        err = max_rel_err(p.grad, numeric_grad(loss_fn, p, h=h))
        worst = max(worst, err)
    assert worst < tol, f"gradient mismatch: max relative error {worst:.3e} >= {tol}"
    return worst


def weighted_sum(t: T.Tensor, mix: T.Tensor | None = None) -> T.Tensor:
    """Scalar sum of ``t * mix`` (of ``t`` when ``mix`` is None), shape [1, 1].

    One ``linear`` of ``t`` as a row with ``mix`` as a column, so gradients
    reach ``mix`` too: ``weighted_sum(x, x)`` is the sum of squares of x."""
    if mix is None:
        mix = T.Tensor(np.ones(t.shape, t.data.dtype))
    return T.linear(T.reshape(t, (1, t.size)), T.reshape(mix, (t.size, 1)))


def records_graph() -> bool:
    """Whether an op records a graph right now."""
    x = T.Tensor(np.zeros(1), requires_grad=True)
    return T.add(x, x).requires_grad


def backbone_hash(weights: dict[str, T.Tensor]) -> str:
    """SHA-256 over all frozen-contract tensors (head excluded), name-sorted."""
    h = hashlib.sha256()
    for name in sorted(weights):
        if not name.startswith(BACKBONE_PREFIX):
            continue
        t = weights[name]
        h.update(name.encode())
        h.update(np.asarray(t.shape, np.int64).tobytes())
        h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()


def full_banks(num_layers: int, embed_dim: int, dim: int, rng: np.random.Generator):
    """Supernet-shaped prompt tensors: every module at every layer at ``dim``."""
    spec = SearchSpaceSpec(num_layers, depth_choices=(num_layers,),
                           dim_choices={m: (dim,) for m in MODULES}, embed_dim=embed_dim)
    return init_subnet_tensors(spec.full_config(), embed_dim, rng)


def reference_forward(weights, cfg, images, config=None) -> T.Tensor:
    """Logits of one config (the empty config by default) from a plain loop:
    ``embed``, then ``block_trunk`` and ``block_finish`` per layer, then
    ``readout``."""
    if config is None:
        config = SubnetConfig.empty(cfg.num_layers)
    x = B.embed(weights, cfg, images)
    for layer in range(cfg.num_layers):
        x, mlp_out = B.block_trunk(x, layer, weights, cfg, config)
        x = B.block_finish(x, mlp_out, layer, weights, config)
    return B.readout(weights, cfg, x)
