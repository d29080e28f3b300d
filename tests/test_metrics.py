"""Metric oracles: F1 arithmetic, recount checks, RMSE, reconstruction ratio."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpae import heads as H
from dpae import metrics as M
from dpae import tensor as T
from dpae.data import Location


def scored_cold_leg(counts):
    """`H.score`'s cold-leg block for a classifier that calls x < 0 cold and
    x > 0 hot, on rows that give the cold leg these one-vs-rest counts."""
    head = H.MlpHead("classify", (1, 2), T.Parameters(
        {"w0": np.array([[-1.0, 1.0]]), "b0": np.zeros((1, 2))}))
    cells = ((-1.0, Location.COLD_LEG, counts.tp), (-1.0, Location.HOT_LEG, counts.fp),
             (1.0, Location.COLD_LEG, counts.fn), (1.0, Location.HOT_LEG, counts.tn))
    rows = [(x, loc) for x, loc, n in cells for _ in range(n)]
    X = np.array([[x] for x, _ in rows])
    labels = [H.DiagnosisLabel(loc, 1.0) for _, loc in rows]
    return H.score(head, X, labels)["per_class"]["cold_leg"]


class TestF1:
    def test_perfect(self):
        assert M.f1(M.ConfusionCounts(tp=5, fp=0, fn=0, tn=5)) == 1.0

    def test_precision_one_recall_half(self):
        c = M.ConfusionCounts(tp=1, fp=0, fn=1, tn=0)
        assert abs(M.f1(c) - 2.0 / 3.0) < 1e-15

    def test_no_true_positives_flagged(self):
        c = M.ConfusionCounts(tp=0, fp=3, fn=2, tn=1)
        assert M.f1(c) == 0.0
        assert scored_cold_leg(c) == {"f1": 0.0, "degenerate": True,
                                      "precision": 0.0, "recall": 0.0}

    def test_healthy_case_not_flagged(self):
        c = M.ConfusionCounts(4, 1, 1, 4)
        assert abs(M.f1(c) - 0.8) < 1e-15
        assert scored_cold_leg(c) == {"f1": M.f1(c), "degenerate": False,
                                      "precision": 0.8, "recall": 0.8}

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            M.ConfusionCounts(tp=-1, fp=0, fn=0, tn=0)

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50),
           st.integers(0, 50))
    def test_always_in_unit_interval(self, tp, fp, fn, tn):
        v = M.f1(M.ConfusionCounts(tp, fp, fn, tn))
        assert 0.0 <= v <= 1.0


class TestMacroF1:
    def test_mean_of_two_classes(self):
        counts = [M.ConfusionCounts(4, 1, 1, 4),   # F1 = 0.8
                  M.ConfusionCounts(3, 2, 2, 3)]   # F1 = 0.6
        assert abs(M.macro_f1(counts) - 0.7) < 1e-15

    def test_perfect_predictions(self):
        y = [0, 1, 0, 1, 1]
        assert M.macro_f1(M.confusion_matrix(y, y, 2)) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            M.macro_f1([])

    def test_matches_bruteforce_recount(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            y_true = rng.integers(0, 2, size=n).tolist()
            y_pred = rng.integers(0, 2, size=n).tolist()
            got = M.macro_f1(M.confusion_matrix(y_true, y_pred, 2))

            total = 0.0
            for c in (0, 1):
                tp = fp = fn = 0
                for t, p in zip(y_true, y_pred):
                    if p == c and t == c:
                        tp += 1
                    elif p == c and t != c:
                        fp += 1
                    elif p != c and t == c:
                        fn += 1
                if tp == 0:
                    total += 0.0
                else:
                    prec, rec = tp / (tp + fp), tp / (tp + fn)
                    total += 2 * prec * rec / (prec + rec)
            assert abs(got - total / 2.0) < 1e-12

    def test_counts_partition_sample_total(self):
        rng = np.random.default_rng(1)
        y_true = rng.integers(0, 2, size=25).tolist()
        y_pred = rng.integers(0, 2, size=25).tolist()
        for c in M.confusion_matrix(y_true, y_pred, 2):
            assert c.total == 25


class TestRmse:
    def test_identical_is_zero(self):
        v = np.arange(5.0)
        assert M.rmse(v, v) == 0.0

    def test_constant_error(self):
        assert M.rmse(np.zeros(7), np.full(7, 2.0)) == 2.0

    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=11), rng.normal(size=11)
        total = 0.0
        for x, y in zip(a, b):
            total += (x - y) ** 2
        assert abs(M.rmse(a, b) - np.sqrt(total / 11)) < 1e-12

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=9), rng.normal(size=9)
        perm = rng.permutation(9)
        assert M.rmse(a, b) == M.rmse(a[perm], b[perm])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            M.rmse([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            M.rmse([1.0, 2.0], [1.0])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    def test_nonnegative(self, vals):
        arr = np.array(vals)
        assert M.rmse(arr, np.zeros_like(arr)) >= 0.0


class TestReconstructionReport:
    def test_perfect_model_reports_sentinel(self):
        rng = np.random.default_rng(4)
        clean = rng.normal(size=(6, 3))
        pert = clean + 0.1
        rep = M.reconstruction_report(clean, pert, clean)
        assert rep["mse_model"] == 0.0
        assert rep["improvement_ratio"] == M.IMPROVEMENT_RATIO_CAP

    def test_identity_model_ratio_is_one(self):
        rng = np.random.default_rng(5)
        clean = rng.normal(size=(6, 3))
        pert = clean + rng.normal(size=(6, 3))
        rep = M.reconstruction_report(clean, pert, pert)
        assert rep["improvement_ratio"] == 1.0

    def test_everything_equal_ratio_is_one(self):
        clean = np.ones((2, 2))
        rep = M.reconstruction_report(clean, clean, clean)
        assert rep["improvement_ratio"] == 1.0

    def test_matches_manual_computation(self):
        rng = np.random.default_rng(6)
        clean = rng.normal(size=(4, 5))
        pert = clean + rng.normal(size=(4, 5))
        re = clean + 0.5 * rng.normal(size=(4, 5))
        rep = M.reconstruction_report(clean, pert, re)
        assert abs(rep["mse_model"] - np.mean((re - clean) ** 2)) < 1e-15
        assert abs(rep["mse_identity"] - np.mean((pert - clean) ** 2)) < 1e-15
        assert abs(rep["improvement_ratio"]
                   - rep["mse_identity"] / rep["mse_model"]) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            M.reconstruction_report(np.zeros((2, 2)), np.zeros((2, 2)),
                                    np.zeros((3, 2)))
