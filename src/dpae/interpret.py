"""Hierarchical interpretation of the diagnosis stack.

Three layers, each feeding the next: Shapley attributions explain head
outputs in terms of latent elements; aggregated attributions give one
importance weight per latent element; encoder-input ablation then maps
latent sensitivity back to (channel, region) patches of the raw matrix,
yielding a per-channel importance vector and heatmap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .heads import predict

_EXACT_LIMIT = 15
_COND_LIMIT = 1e12


@dataclass
class ShapConfig:
    background: np.ndarray
    coalition_samples: int = 256
    seed: int = 0
    exact_mode: bool = False

    def __post_init__(self):
        self.background = np.atleast_2d(np.asarray(self.background, float))
        if self.background.shape[0] < 1:
            raise ValueError("background set must be nonempty")


@dataclass
class ShapResult:
    base_value: float
    phi: np.ndarray
    residual: float


@dataclass
class ImportanceReport:
    phi: np.ndarray            # latent importance, sums to 1
    omega: np.ndarray          # |delta latent| per (channel, region, element)
    heatmap: np.ndarray        # (channel, region)
    psi: np.ndarray            # per-channel importance
    ranking: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# head adapters: batch (n, d) -> (n,) model functions

def classifier_fn(head):
    """g(X): per row, the probability of the hot leg (CLASS_ORDER[1])."""
    return lambda X: predict(head, X)[:, 1]


def regressor_fn(head):
    return lambda X: predict(head, X)


# ---------------------------------------------------------------------------
# Shapley attributions

def _all_coalitions(d):
    """Every coalition of d features; row k holds the bits of k."""
    return ((np.arange(1 << d)[:, None] >> np.arange(d)) & 1).astype(bool)


def _coalition_values(g, x, background, bits):
    """Mean model output per coalition row, absent features replaced by each
    background row in turn; one g call per coalition."""
    return np.array([float(np.mean(g(np.where(row, x, background))))
                     for row in bits])


def exact_shapley(g, x, background):
    """Exact Shapley values by full coalition enumeration.

    Absent features are replaced by each background row in turn and the
    model output averaged (interventional expectation). Exponential in d,
    so capped at d <= 15; serves as the oracle for kernel_shap.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    d = x.size
    if d > _EXACT_LIMIT:
        raise ValueError(f"exact enumeration capped at d={_EXACT_LIMIT}, got {d}")
    background = np.atleast_2d(np.asarray(background, dtype=float))

    bit_table = _all_coalitions(d)
    v = _coalition_values(g, x, background, bit_table)

    fact = [math.factorial(k) for k in range(d + 1)]
    weight = np.array([fact[s] * fact[d - 1 - s] / fact[d] for s in range(d)])
    sizes = bit_table.sum(axis=1)

    phi = np.zeros(d)
    for i in range(d):
        without = np.nonzero(~bit_table[:, i])[0]
        gains = v[without | (1 << i)] - v[without]
        phi[i] = float(np.sum(weight[sizes[without]] * gains))

    base = v[0]
    residual = abs(base + phi.sum() - float(g(x[None, :])[0]))
    return ShapResult(base_value=base, phi=phi, residual=residual)


def _shapley_kernel(d, sizes):
    c = np.array([math.comb(d, int(s)) for s in sizes], dtype=float)
    s = sizes.astype(float)
    return (d - 1) / (c * s * (d - s))


def _sample_coalitions(rng, d, count):
    """Coalition masks drawn from the Shapley-kernel size distribution."""
    sizes = np.arange(1, d)
    p = (d - 1) / (sizes * (d - sizes))
    p = p / p.sum()
    # Generator.choice(sizes, p=p)'s draw, without its per-call checks.
    cdf = p.cumsum()
    cdf /= cdf[-1]
    bits = np.zeros((count, d), dtype=bool)
    for k in range(count):
        s = int(sizes[cdf.searchsorted(rng.random(), side="right")])
        bits[k, rng.choice(d, size=s, replace=False)] = True
    return bits


def _fit_constrained_wls(bits, weights, values, base, delta):
    """WLS fit of phi with the efficiency constraint sum(phi) = delta.

    The last component is eliminated through the constraint, so d >= 2
    (kernel_shap answers d = 1 without a fit); raises LinAlgError when the
    reduced normal system is singular.
    """
    Z = bits.astype(float)
    t = values - base - Z[:, -1] * delta
    A = Z[:, :-1] - Z[:, -1:]
    W = weights[:, None]
    lhs = A.T @ (W * A)
    rhs = A.T @ (weights * t)
    if not np.isfinite(lhs).all() or np.linalg.cond(lhs) > _COND_LIMIT:
        raise np.linalg.LinAlgError("weighted coalition system is singular")
    head = np.linalg.solve(lhs, rhs)
    return np.append(head, delta - head.sum())


def kernel_shap(g, x, config):
    """Kernel-weighted linear approximation of Shapley values.

    Exact mode enumerates every nonempty proper coalition (the fit then
    reproduces exact_shapley); sampling mode draws coalition_samples masks
    and retries with a doubled budget, at most 3 times, if the weighted
    system is singular.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    d = x.size
    background = config.background
    if background.shape[1] != d:
        raise ValueError("background width does not match input")

    base = float(np.mean(g(background)))
    gx = float(g(x[None, :])[0])
    delta = gx - base

    if d == 1:
        phi = np.array([delta])
    elif config.exact_mode:
        if d > _EXACT_LIMIT:
            raise ValueError(f"exact mode capped at d={_EXACT_LIMIT}, got {d}")
        bits = _all_coalitions(d)[1:-1]  # every nonempty proper coalition
        values = _coalition_values(g, x, background, bits)
        phi = _fit_constrained_wls(bits, _shapley_kernel(d, bits.sum(axis=1)),
                                   values, base, delta)
    else:
        if config.coalition_samples < d + 2:
            raise ValueError("coalition_samples must be at least d + 2")
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        count = config.coalition_samples
        for _ in range(4):
            bits = _sample_coalitions(rng, d, count)
            values = _coalition_values(g, x, background, bits)
            try:
                phi = _fit_constrained_wls(bits, np.ones(len(bits)), values,
                                           base, delta)
                break
            except np.linalg.LinAlgError:
                count *= 2
        else:
            raise np.linalg.LinAlgError(
                "coalition system stayed singular after 3 doubled retries")
    return ShapResult(base_value=base, phi=phi,
                      residual=abs(base + phi.sum() - gx))


# ---------------------------------------------------------------------------
# latent-element importance

def latent_importance(shap_cla, shap_reg):
    """Combine per-sample attributions of both heads into one weight vector.

    Element weight = summed |classifier phi| + |regressor phi| over samples,
    normalized to sum to 1.
    """
    cla = np.atleast_2d(np.asarray(shap_cla, dtype=float))
    reg = np.atleast_2d(np.asarray(shap_reg, dtype=float))
    if cla.shape != reg.shape:
        raise ValueError(f"attribution shapes differ: {cla.shape} vs {reg.shape}")
    combined = np.abs(cla) + np.abs(reg)
    per_element = combined.sum(axis=0)
    total = per_element.sum()
    if total == 0.0:
        raise ValueError("all attributions are zero; importance undefined")
    return per_element / total


# ---------------------------------------------------------------------------
# encoder ablation and the channel-importance cascade

def region_grid(model):
    """(region length in samples, regions per channel) for a model."""
    h = model.grid.D // 2
    return h, model.profile.p // h


def psi_from_omega(omega, phi):
    """Collapse the ablation tensor with latent weights.

    heatmap[m, n] = sum_i omega[m, n, i] * phi[i]; psi[m] = sum_n heatmap.
    """
    omega = np.asarray(omega, dtype=float)
    phi = np.asarray(phi, dtype=float).reshape(-1)
    if omega.shape[-1] != phi.size:
        raise ValueError("omega latent dimension does not match phi")
    heatmap = omega @ phi
    psi = heatmap.sum(axis=1)
    ranking = [int(i) for i in np.argsort(-psi, kind="stable")]
    return heatmap, psi, ranking


def parameter_importance(model, samples, phi):
    """Channel importance over an analysis window of samples.

    Ablates every (channel, region) cell of every sample to 0.5, the middle
    of the normalized range, averages the latent shifts, and weights them by
    the latent importance vector.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("parameter_importance needs at least one sample")
    phi = np.asarray(phi, dtype=float).reshape(-1)
    if abs(phi.sum() - 1.0) > 1e-9:
        raise ValueError("phi must be normalized to sum to 1")

    h, n_regions = region_grid(model)
    l = model.profile.l
    d = phi.size
    omega = np.zeros((l, n_regions, d))
    for x in samples:
        x = np.asarray(x, dtype=float)
        z0 = model.latent_vector(x)
        for m in range(l):
            for n in range(n_regions):
                ablated = x.copy()
                ablated[n * h:(n + 1) * h, m] = 0.5
                omega[m, n] += np.abs(model.latent_vector(ablated) - z0)
    omega /= len(samples)

    heatmap, psi, ranking = psi_from_omega(omega, phi)
    return ImportanceReport(phi=phi, omega=omega, heatmap=heatmap, psi=psi,
                            ranking=ranking)


def select_size_band(dataset, band):
    """Matrices of samples whose break size lies inside the band."""
    lo, hi = band
    return [s.matrix for s in dataset.samples if lo <= s.size_cm <= hi]
