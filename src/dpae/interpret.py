"""Hierarchical interpretation of the diagnosis stack.

Three layers, each feeding the next: Shapley attributions explain head
outputs in terms of latent elements; aggregated attributions give one
importance weight per latent element; encoder-input ablation then maps
latent sensitivity back to (channel, region) patches of the raw matrix,
yielding a per-channel importance vector and heatmap.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .heads import predict

# Analysis window for the channel-importance cascade (break sizes, cm).
DEFAULT_SIZE_BAND = (9.1, 9.7)

_EXACT_LIMIT = 15
_COND_LIMIT = 1e12


@dataclass
class ShapConfig:
    background: np.ndarray
    coalition_samples: int = 2048
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
    omega_signed: np.ndarray   # signed deltas, same layout
    heatmap: np.ndarray        # (channel, region)
    psi: np.ndarray            # per-channel importance
    ranking: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# head adapters: batch (n, d) -> (n,) model functions

def classifier_fn(head, class_index=1):
    def g(X):
        return np.atleast_2d(predict(head, np.atleast_2d(X)))[:, class_index]
    return g


def regressor_fn(head):
    def g(X):
        return np.atleast_1d(predict(head, np.atleast_2d(X)))
    return g


# ---------------------------------------------------------------------------
# Shapley attributions

def _coalition_value(g, x, background, bits):
    """Mean model output with absent features replaced per background row."""
    Z = np.where(bits[None, :], x[None, :], background)
    return float(np.mean(g(Z)))


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

    n_masks = 1 << d
    bit_table = ((np.arange(n_masks)[:, None] >> np.arange(d)) & 1).astype(bool)
    v = np.empty(n_masks)
    for mask in range(n_masks):
        v[mask] = _coalition_value(g, x, background, bit_table[mask])

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
    bits = np.zeros((count, d), dtype=bool)
    for k in range(count):
        s = int(rng.choice(sizes, p=p))
        bits[k, rng.choice(d, size=s, replace=False)] = True
    return bits


def _fit_constrained_wls(bits, weights, values, base, delta):
    """WLS fit of phi with the efficiency constraint sum(phi) = delta.

    The last component is eliminated through the constraint; raises
    LinAlgError when the reduced normal system is singular.
    """
    d = bits.shape[1]
    if d == 1:
        return np.array([delta])
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
        return ShapResult(base_value=base, phi=phi,
                          residual=abs(base + phi.sum() - gx))

    if config.exact_mode:
        if d > _EXACT_LIMIT:
            raise ValueError(f"exact mode capped at d={_EXACT_LIMIT}, got {d}")
        masks = np.arange(1, (1 << d) - 1)
        bits = ((masks[:, None] >> np.arange(d)) & 1).astype(bool)
        weights = _shapley_kernel(d, bits.sum(axis=1))
        values = np.array([
            _coalition_value(g, x, background, row) for row in bits
        ])
        phi = _fit_constrained_wls(bits, weights, values, base, delta)
        residual = abs(base + phi.sum() - gx)
        return ShapResult(base_value=base, phi=phi, residual=residual)

    if config.coalition_samples < d + 2:
        raise ValueError("coalition_samples must be at least d + 2")
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    count = config.coalition_samples
    for attempt in range(4):
        bits = _sample_coalitions(rng, d, count)
        values = np.array([
            _coalition_value(g, x, background, row) for row in bits
        ])
        weights = np.ones(len(bits))
        try:
            phi = _fit_constrained_wls(bits, weights, values, base, delta)
        except np.linalg.LinAlgError:
            if attempt == 3:
                raise np.linalg.LinAlgError(
                    "coalition system stayed singular after 3 doubled retries")
            count *= 2
            continue
        residual = abs(base + phi.sum() - gx)
        return ShapResult(base_value=base, phi=phi, residual=residual)


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


def parameter_importance(model, samples, phi, baseline=0.5):
    """Channel importance over an analysis window of samples.

    Ablates every (channel, region) cell of every sample, averages the
    latent shifts, and weights them by the latent importance vector.
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
    omega_signed = np.zeros((l, n_regions, d))
    for x in samples:
        x = np.asarray(x, dtype=float)
        z0 = model.latent_vector(x)
        for m in range(l):
            for n in range(n_regions):
                ablated = x.copy()
                ablated[n * h:(n + 1) * h, m] = baseline
                delta = model.latent_vector(ablated) - z0
                omega[m, n] += np.abs(delta)
                omega_signed[m, n] += delta
    omega /= len(samples)
    omega_signed /= len(samples)

    heatmap, psi, ranking = psi_from_omega(omega, phi)
    return ImportanceReport(phi=phi, omega=omega, omega_signed=omega_signed,
                            heatmap=heatmap, psi=psi, ranking=ranking)


def select_size_band(dataset, band=DEFAULT_SIZE_BAND, split=None):
    """Matrices of samples whose break size lies inside the band."""
    lo, hi = band
    idx = range(len(dataset.samples)) if split is None else dataset.indices(split)
    return [dataset.samples[i].matrix for i in idx
            if lo <= dataset.samples[i].size_cm <= hi]


# ---------------------------------------------------------------------------
# report serialization

def write_importance_report(out_dir, report, node_names, meta=None):
    """importance.json plus a heatmap CSV (rows = channels, cols = regions)."""
    os.makedirs(out_dir, exist_ok=True)
    doc = {
        "phi": report.phi.tolist(),
        "psi": report.psi.tolist(),
        "ranking": [
            {"channel": i, "node": node_names[i], "psi": float(report.psi[i])}
            for i in report.ranking
        ],
        "meta": meta or {},
    }
    with open(os.path.join(out_dir, "importance.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
    n_regions = report.heatmap.shape[1]
    with open(os.path.join(out_dir, "heatmap.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["node"] + [f"region_{n}" for n in range(n_regions)])
        for m, name in enumerate(node_names):
            w.writerow([name] + [repr(float(v)) for v in report.heatmap[m]])
