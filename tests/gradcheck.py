"""Central finite-difference gradient oracle, independent of the tape engine,
a hash of the frozen backbone for tests that check it stays untouched, and
full-size prompt banks built without a supernet.

Builds expected gradients purely from repeated forward evaluations in 64-bit
mode, so it shares no code path with the analytic backward rules it checks.
"""

import hashlib

import numpy as np

from noah import tensor as T
from noah.backbone import BACKBONE_PREFIX
from noah.prompts import init_subnet_tensors
from noah.space import MODULES, SearchSpaceSpec


def numeric_grad(loss_fn, param: T.Tensor, h: float = 1e-5) -> np.ndarray:
    """d loss / d param by central differences, elementwise."""
    assert param.data.dtype == np.float64, "finite differences need 64-bit params"
    base = param.data.copy()
    grad = np.zeros_like(base)
    flat = param.data.reshape(-1)
    gflat = grad.reshape(-1)
    with T.no_grad():
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
        p.zero_grad()
    loss = loss_fn()
    T.backward(loss)
    worst = 0.0
    for p in params:
        assert p.grad is not None, "parameter received no gradient"
        err = max_rel_err(p.grad, numeric_grad(loss_fn, p, h=h))
        worst = max(worst, err)
    assert worst < tol, f"gradient mismatch: max relative error {worst:.3e} >= {tol}"
    return worst


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
