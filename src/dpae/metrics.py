"""Evaluation metrics: per-class F1, macro-F1, RMSE, reconstruction quality."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Finite stand-in for an infinite improvement ratio (perfect reconstruction).
IMPROVEMENT_RATIO_CAP = 1e12


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def total(self):
        return self.tp + self.fp + self.fn + self.tn


def confusion_matrix(y_true, y_pred, n_classes):
    """One-vs-rest counts per class; returns a list of ConfusionCounts."""
    y_true = list(y_true)
    y_pred = list(y_pred)
    if len(y_true) != len(y_pred):
        raise ValueError("prediction and target lengths differ")
    out = []
    for c in range(n_classes):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        tn = len(y_true) - tp - fp - fn
        out.append(ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn))
    return out


def precision(counts):
    if counts.tp + counts.fp == 0:
        return 0.0
    return counts.tp / (counts.tp + counts.fp)


def recall(counts):
    if counts.tp + counts.fn == 0:
        return 0.0
    return counts.tp / (counts.tp + counts.fn)


def f1(counts):
    """Harmonic mean of precision and recall for one class.

    A class with no true positives has undefined precision or recall; its
    F1 is defined as 0.
    """
    if counts.tp == 0:
        return 0.0
    p = precision(counts)
    r = recall(counts)
    return 2.0 * p * r / (p + r)


def macro_f1(counts_per_class):
    """Unweighted mean of per-class F1 values."""
    counts_per_class = list(counts_per_class)
    if not counts_per_class:
        raise ValueError("macro_f1 needs at least one class")
    return float(np.mean([f1(c) for c in counts_per_class]))


def rmse(predictions, targets):
    """Root of the mean squared prediction error."""
    pred = np.asarray(predictions, dtype=float).reshape(-1)
    targ = np.asarray(targets, dtype=float).reshape(-1)
    if pred.size == 0:
        raise ValueError("rmse of empty inputs is undefined")
    if pred.size != targ.size:
        raise ValueError("prediction and target lengths differ")
    return float(np.sqrt(np.mean((pred - targ) ** 2)))


def reconstruction_report(x_clean, x_perturbed, x_re):
    """Reconstruction quality relative to leaving the perturbed input as is.

    improvement_ratio > 1 means the model output is closer to the clean
    matrix than the perturbed input was; a zero model error reports the
    capped sentinel instead of infinity.
    """
    clean = np.asarray(x_clean, dtype=float)
    pert = np.asarray(x_perturbed, dtype=float)
    re = np.asarray(x_re, dtype=float)
    if not (clean.shape == pert.shape == re.shape):
        raise ValueError(
            f"shape mismatch: {clean.shape}, {pert.shape}, {re.shape}")
    mse_model = float(np.mean((re - clean) ** 2))
    mse_identity = float(np.mean((pert - clean) ** 2))
    if mse_model == 0.0:
        ratio = 1.0 if mse_identity == 0.0 else IMPROVEMENT_RATIO_CAP
    else:
        ratio = min(mse_identity / mse_model, IMPROVEMENT_RATIO_CAP)
    return {
        "mse_model": mse_model,
        "mse_identity": mse_identity,
        "improvement_ratio": ratio,
    }
