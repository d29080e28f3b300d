"""Diagnosis-head tests: MLP and forest fitting, early stopping, persistence."""

import hashlib
import json

import numpy as np
import pytest

from dpae import heads as H
from dpae import metrics as M
from dpae import tensor as T
from dpae.data import Location


def blob_toy(n_per=10, centers=((0.0, 0.0), (10.0, 10.0)), sigma=1.0, seed=0):
    """Two well-separated Gaussian blobs labelled by location."""
    rng = np.random.default_rng(seed)
    latents, labels = [], []
    for center, loc in zip(centers, (Location.COLD_LEG, Location.HOT_LEG)):
        for _ in range(n_per):
            latents.append(np.array(center) + sigma * rng.normal(size=2))
            labels.append(H.DiagnosisLabel(location=loc, size_cm=1.0))
    return latents, labels


class TestLabelAndConfig:
    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            H.DiagnosisLabel(location=Location.COLD_LEG, size_cm=0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            H.HeadConfig(early_stop_window=0)
        with pytest.raises(ValueError):
            H.HeadConfig(kind="svm")
        with pytest.raises(ValueError):
            H.HeadConfig(tree_count=0)

    @pytest.mark.parametrize("bad", [
        {"max_epochs": 0}, {"max_epochs": -1}, {"max_depth": -1},
        {"max_depth": -3}, {"lr": 0.0}, {"lr": -0.01}, {"lr": float("nan")},
        {"lr": float("inf")}], ids=repr)
    def test_values_that_would_break_a_fit_rejected(self, bad):
        with pytest.raises(ValueError):
            H.HeadConfig(**bad)

    def test_smallest_valid_values_accepted(self):
        cfg = H.HeadConfig(max_epochs=1, max_depth=0, lr=1e-300)
        assert (cfg.max_epochs, cfg.max_depth, cfg.lr) == (1, 0, 1e-300)


def inline_evaluate_block(head, X, labels):
    """The metrics block `evaluate` built for a head before `H.score`, written
    out as it was; `degenerate` is the flag `M.f1` returned with its value."""
    y_cla = np.array([H.CLASS_ORDER.index(lb.location) for lb in labels])
    y_reg = np.array([lb.size_cm for lb in labels])
    if head.task == "regress":
        return {"rmse": M.rmse(H.predict(head, X), y_reg)}
    pred = np.argmax(H.predict(head, X), axis=1)
    counts = M.confusion_matrix(y_cla.tolist(), pred.tolist(), 2)
    per_class = {}
    for cls_idx, loc in enumerate(H.CLASS_ORDER):
        per_class[loc.value] = {
            "f1": M.f1(counts[cls_idx]),
            "degenerate": counts[cls_idx].tp == 0,
            "precision": M.precision(counts[cls_idx]),
            "recall": M.recall(counts[cls_idx]),
        }
    return {"macro_f1": M.macro_f1(counts),
            "accuracy": float(np.mean(pred == y_cla)),
            "per_class": per_class}


class TestScore:
    @pytest.mark.parametrize("task", ["classify", "regress"])
    @pytest.mark.parametrize("fit", [H.fit_mlp_head, H.fit_random_forest],
                             ids=["mlp", "forest"])
    def test_equals_the_block_evaluate_built_inline(self, fit, task):
        latents, labels = blob_toy(seed=4)
        labels = [H.DiagnosisLabel(lb.location, 1.0 + i)
                  for i, lb in enumerate(labels)]
        head, _ = fit(latents, labels, task=task,
                      config=H.HeadConfig(max_epochs=20, tree_count=5))
        # Overlapping blobs, so some rows are misclassified; the first 10
        # rows are all cold leg, so the hot leg has no true positive.
        probe, truth = blob_toy(seed=5, sigma=6.0)
        for rows in (slice(None), slice(0, 10)):
            X, lbs = np.stack(probe)[rows], truth[rows]
            got, want = H.score(head, X, lbs), inline_evaluate_block(head, X, lbs)
            assert json.dumps(got) == json.dumps(want)  # keys, order, types
            assert got == want
        if task == "classify":
            assert got["per_class"]["hot_leg"]["degenerate"] is True


class TestEarlyStop:
    def test_flat_curve_stops_after_window(self):
        assert H.early_stop_epoch([1.0] * 30, window=20, threshold=0.01) == 21

    def test_fast_decay_never_stops(self):
        curve = [2.0 ** -e for e in range(30)]
        assert H.early_stop_epoch(curve, window=20, threshold=0.01) is None

    def test_injected_plateau(self):
        patience = 10
        curve = [1.0 - 0.05 * i for i in range(patience)] + [0.55] * 40
        stop = H.early_stop_epoch(curve, window=20, threshold=0.01)
        assert stop == 20 + patience
        assert stop <= 20 + patience

    def test_short_curve_returns_none(self):
        assert H.early_stop_epoch([1.0] * 5, window=20, threshold=0.01) is None


class TestMlpClassify:
    def test_separable_blobs_reach_full_train_accuracy(self):
        latents, labels = blob_toy()
        head, report = H.fit_mlp_head(latents, labels, task="classify")
        assert report.final_metrics["train_accuracy"] == 1.0
        assert report.stopping_epoch <= H.HeadConfig().max_epochs

    def test_probabilities_sum_to_one(self):
        latents, labels = blob_toy()
        head, _ = H.fit_mlp_head(latents, labels, task="classify")
        probs = H.predict(head, np.stack(latents))
        assert probs.shape == (len(latents), 2)
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_single_class_rejected(self):
        latents, labels = blob_toy()
        same = [H.DiagnosisLabel(Location.COLD_LEG, 1.0) for _ in labels]
        with pytest.raises(ValueError):
            H.fit_mlp_head(latents, same, task="classify")

    def test_too_few_samples_rejected(self):
        latents, labels = blob_toy(n_per=3)
        with pytest.raises(ValueError):
            H.fit_mlp_head(latents[:6], labels[:6], task="classify")

    def test_same_seed_same_predictions(self):
        latents, labels = blob_toy()
        probe = np.array([[1.0, 2.0], [8.0, 9.0]])
        outs = []
        for _ in range(2):
            head, _ = H.fit_mlp_head(latents, labels,
                                     config=H.HeadConfig(seed=3),
                                     task="classify")
            outs.append(H.predict(head, probe))
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_shared_bias_shift_keeps_argmax(self):
        latents, labels = blob_toy()
        head, _ = H.fit_mlp_head(latents, labels, task="classify")
        probe = np.stack(latents)
        before = np.argmax(H.predict(head, probe), axis=1)
        last = len(head.widths) - 2
        head.params[f"b{last}"].data += 7.5
        after = np.argmax(H.predict(head, probe), axis=1)
        np.testing.assert_array_equal(before, after)

    def test_early_stop_consistent_with_reported_curve(self):
        latents, labels = blob_toy()
        cfg = H.HeadConfig(seed=1)
        _, report = H.fit_mlp_head(latents, labels, config=cfg, task="classify")
        stop = H.early_stop_epoch(report.val_curve, cfg.early_stop_window,
                                  H.EARLY_STOP_THRESHOLD)
        if report.stopping_epoch < cfg.max_epochs:
            assert stop == report.stopping_epoch
        assert len(report.train_curve) == report.stopping_epoch
        assert len(report.val_curve) == report.stopping_epoch

    def test_fitted_head_keeps_no_gradients(self):
        latents, labels = blob_toy(seed=19)
        head, _ = H.fit_mlp_head(latents, labels, H.HeadConfig(max_epochs=5))
        assert head.params.grad is None
        assert all(p.grad is None for p in head.params.values())
        # The same weights with gradient buffers attached predict the same.
        kept = H.MlpHead(head.task, head.widths, T.Parameters(
            {k: p.data.copy() for k, p in head.params.items()}))
        assert all(p.grad is not None for p in kept.params.values())
        probe = np.stack(latents)
        np.testing.assert_array_equal(H.predict(head, probe),
                                      H.predict(kept, probe))


class TestMlpRegress:
    def test_constant_target_fits_to_tolerance(self):
        rng = np.random.default_rng(5)
        latents = [rng.normal(size=3) for _ in range(12)]
        labels = [H.DiagnosisLabel(Location.COLD_LEG, 2.5) for _ in latents]
        cfg = H.HeadConfig(lr=0.02, lr_decay=0.999, max_epochs=2000,
                           early_stop_window=2000)
        head, report = H.fit_mlp_head(latents, labels, config=cfg,
                                      task="regress")
        assert report.final_metrics["train_rmse"] < 1e-3

    def test_prediction_is_finite_scalar(self):
        rng = np.random.default_rng(6)
        latents = [rng.normal(size=3) for _ in range(12)]
        labels = [H.DiagnosisLabel(Location.COLD_LEG, float(1.0 + i))
                  for i, _ in enumerate(latents)]
        head, _ = H.fit_mlp_head(latents, labels, task="regress")
        out = H.predict(head, latents[0])
        assert isinstance(out, float) and np.isfinite(out)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        latents = [rng.normal(size=3) for _ in range(12)]
        labels = [H.DiagnosisLabel(Location.COLD_LEG, 1.0) for _ in latents]
        head, _ = H.fit_mlp_head(latents, labels, task="regress")
        with pytest.raises(ValueError):
            H.predict(head, np.zeros(5))


class TestEndToEnd:
    def test_full_scale_input_width(self):
        rng = np.random.default_rng(8)
        mats = [rng.normal(size=(200, 38)) for _ in range(8)]
        labels = [H.DiagnosisLabel(loc, 1.0)
                  for loc in [Location.COLD_LEG, Location.HOT_LEG] * 4]
        cfg = H.HeadConfig(kind="end_to_end_mlp", max_epochs=2)
        head, report = H.fit_end_to_end(mats, labels, config=cfg,
                                        task="classify")
        assert head.widths[0] == 7600
        assert report.stopping_epoch <= 2

    def test_separable_toy_reaches_full_accuracy(self):
        rng = np.random.default_rng(9)
        mats, labels = [], []
        for loc, level in ((Location.COLD_LEG, 0.0), (Location.HOT_LEG, 5.0)):
            for _ in range(8):
                mats.append(level + 0.1 * rng.normal(size=(6, 4)))
                labels.append(H.DiagnosisLabel(loc, 1.0))
        head, report = H.fit_end_to_end(mats, labels, task="classify")
        assert report.final_metrics["train_accuracy"] == 1.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(10)
        mats = [rng.normal(size=(6, 4)) for _ in range(10)]
        labels = [H.DiagnosisLabel(loc, 1.0)
                  for loc in [Location.COLD_LEG, Location.HOT_LEG] * 5]
        probe = np.zeros(24)
        outs = []
        for _ in range(2):
            head, _ = H.fit_end_to_end(mats, labels,
                                       config=H.HeadConfig(seed=4,
                                                           max_epochs=50),
                                       task="classify")
            outs.append(H.predict(head, probe))
        np.testing.assert_array_equal(outs[0], outs[1])


class TestForest:
    def test_two_point_dataset_single_tree(self):
        latents = [np.array([0.0, 0.0])] * 4 + [np.array([1.0, 1.0])] * 4
        labels = [H.DiagnosisLabel(Location.COLD_LEG, 1.0)] * 4 \
            + [H.DiagnosisLabel(Location.HOT_LEG, 1.0)] * 4
        cfg = H.HeadConfig(kind="random_forest", tree_count=1)
        forest, report = H.fit_random_forest(latents, labels, config=cfg,
                                             task="classify")
        assert report.final_metrics["train_accuracy"] == 1.0
        assert np.argmax(H.predict(forest, np.array([0.0, 0.0]))) == 0
        assert np.argmax(H.predict(forest, np.array([1.0, 1.0]))) == 1

    def test_same_seed_identical_predictions(self):
        latents, labels = blob_toy(seed=11)
        probe = np.array([[2.0, 3.0], [9.0, 8.0], [5.0, 5.0]])
        outs = []
        for _ in range(2):
            forest, _ = H.fit_random_forest(
                latents, labels, config=H.HeadConfig(kind="random_forest",
                                                     seed=12),
                task="classify")
            outs.append(H.predict(forest, probe))
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_vote_matches_per_tree_enumeration(self):
        latents, labels = blob_toy(seed=13)
        forest, _ = H.fit_random_forest(latents, labels, task="classify")
        probe = np.array([3.0, 4.0])
        votes = np.zeros(2)
        for node in forest.roots:
            while forest.left[node] != node:  # a leaf is its own child
                node = forest.left[node] \
                    if probe[forest.feature[node]] <= forest.threshold[node] \
                    else forest.right[node]
            votes[int(np.argmax(forest.value[node]))] += 1.0
        np.testing.assert_allclose(H.predict(forest, probe),
                                   votes / forest.roots.size, atol=1e-15)

    # Recorded from the nested-dict forest, walked one row and one tree at a
    # time, that the node table replaced: node count, sha256 of the float.hex
    # of every prediction on 128 rows, and float.hex of one row's prediction.
    @pytest.mark.parametrize("task, nodes, digest, one", [
        ("classify", 904,
         "a6635bfd0086dfe8780c20c22b2fe6b59ab4223a202fd5363ffc3afe25c3fe70",
         ["0x1.999999999999ap-3", "0x1.999999999999ap-1"]),
        ("regress", 2134,
         "4cc477324a78facf970a718c036790c59a1f23c30cdd7248b19e98a2651c3e41",
         ["0x1.7f56a7c3520e2p+0"]),
    ], ids=["classify", "regress"])
    def test_predictions_pinned_bitwise(self, tmp_path, task, nodes, digest,
                                        one):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(160, 12))
        labels = [H.DiagnosisLabel(
            Location.HOT_LEG if x[0] + x[1] * x[2] > 0 else Location.COLD_LEG,
            1.0 + abs(x[3] + 0.5 * x[4])) for x in X]
        probe = np.random.default_rng(22).normal(size=(128, 12))
        forest, report = H.fit_random_forest(
            list(X), labels, H.HeadConfig(kind="random_forest", tree_count=20,
                                          seed=5), task=task)
        H.save_head(forest, tmp_path / "forest")
        for f in (forest, H.load_head(tmp_path / "forest")):
            hexes = ",".join(float.hex(float(v))
                             for v in np.ravel(H.predict(f, probe)))
            assert hashlib.sha256(hexes.encode()).hexdigest() == digest
            assert [float.hex(float(v))
                    for v in np.ravel(H.predict(f, probe[7]))] == one
        assert report.param_count == forest.feature.size == nodes

    def test_probabilities_sum_to_one(self):
        latents, labels = blob_toy(seed=14)
        forest, _ = H.fit_random_forest(latents, labels, task="classify")
        probs = H.predict(forest, np.stack(latents))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_big_forest_beats_stump_on_linear_target(self):
        rng = np.random.default_rng(15)
        xs = rng.uniform(0.0, 10.0, size=40)
        latents = [np.array([x]) for x in xs]
        labels = [H.DiagnosisLabel(Location.COLD_LEG, 0.5 + 0.3 * x)
                  for x in xs]
        grid = np.linspace(1.0, 9.0, 20).reshape(-1, 1)
        target = 0.5 + 0.3 * grid.reshape(-1)

        big, _ = H.fit_random_forest(
            latents, labels,
            config=H.HeadConfig(kind="random_forest", tree_count=100),
            task="regress")
        stump, _ = H.fit_random_forest(
            latents, labels,
            config=H.HeadConfig(kind="random_forest", tree_count=1,
                                max_depth=1),
            task="regress")
        rmse_big = np.sqrt(np.mean((H.predict(big, grid) - target) ** 2))
        rmse_stump = np.sqrt(np.mean((H.predict(stump, grid) - target) ** 2))
        assert rmse_big < rmse_stump


class TestPersistence:
    def test_mlp_head_roundtrip(self, tmp_path):
        latents, labels = blob_toy(seed=16)
        head, _ = H.fit_mlp_head(latents, labels, task="classify")
        H.save_head(head, tmp_path / "head")
        loaded = H.load_head(tmp_path / "head")
        probe = np.stack(latents)
        np.testing.assert_array_equal(H.predict(head, probe),
                                      H.predict(loaded, probe))

    # sha256 of params.bin, recorded before the parameters lived in one buffer.
    @pytest.mark.parametrize("task, digest", [
        ("classify",
         "a54782766e29826547d5e75947fa22fb1678b0740bc49346ca9edc947e8eb10e"),
        ("regress",
         "a7a605f8fc6c36d0c49d36ea5e881f8b491f1216344a701f85ecc5cdfc7ac28b"),
    ], ids=["classify", "regress"])
    def test_mlp_head_payload_is_its_buffer_and_pinned(self, tmp_path, task,
                                                       digest):
        latents, labels = blob_toy(seed=19)
        if task == "regress":
            labels = [H.DiagnosisLabel(lb.location, 1.0 + 0.1 * i)
                      for i, lb in enumerate(labels)]
        head, _ = H.fit_mlp_head(latents, labels,
                                 H.HeadConfig(max_epochs=40, seed=3), task=task)
        H.save_head(head, tmp_path / "head")
        payload = (tmp_path / "head" / "params.bin").read_bytes()
        assert payload == head.params.data.tobytes()
        assert hashlib.sha256(payload).hexdigest() == digest
        loaded = H.load_head(tmp_path / "head")
        assert loaded.params.data.tobytes() == payload

    def test_forest_roundtrip(self, tmp_path):
        latents, labels = blob_toy(seed=17)
        forest, _ = H.fit_random_forest(latents, labels, task="classify")
        H.save_head(forest, tmp_path / "forest")
        loaded = H.load_head(tmp_path / "forest")
        probe = np.stack(latents)
        np.testing.assert_array_equal(H.predict(forest, probe),
                                      H.predict(loaded, probe))

    def test_manifest_not_matching_widths_rejected(self, tmp_path):
        latents, labels = blob_toy(seed=18)
        head, _ = H.fit_mlp_head(latents, labels, H.HeadConfig(max_epochs=3))
        H.save_head(head, tmp_path / "head")
        manifest = tmp_path / "head" / "manifest.json"
        saved = json.loads(manifest.read_text())

        def drop_w2(doc):
            doc["parameters"] = [e for e in doc["parameters"]
                                 if e["name"] != "w2"]

        def widen(doc):
            doc["meta"]["widths"][1] += 1

        def text_width(doc):
            doc["meta"]["widths"][1] = "a"

        def no_widths(doc):
            del doc["meta"]["widths"]

        def bogus_task(doc):
            doc["meta"]["task"] = "bogus"

        def no_meta(doc):
            del doc["meta"]

        def no_parameters(doc):
            del doc["parameters"]

        def dpae_kind(doc):
            doc["meta"]["kind"] = "dpae"

        def one_width(doc):
            doc["meta"]["widths"] = [3]

        def no_width(doc):
            doc["meta"]["widths"] = []

        def zero_width(doc):
            doc["meta"]["widths"] = [4, 0]

        for edit in (drop_w2, widen, text_width, no_widths, bogus_task, no_meta,
                     no_parameters, dpae_kind, one_width, no_width, zero_width):
            doc = json.loads(json.dumps(saved))
            edit(doc)
            manifest.write_text(json.dumps(doc))
            with pytest.raises(IOError, match="malformed"):
                H.load_head(tmp_path / "head")

    MALFORMED = {
        "missing_key": lambda doc, split: doc.pop("roots"),
        "extra_key": lambda doc, split: doc.update(trees=[]),
        "bad_task": lambda doc, split: doc.update(task="cluster"),
        "float_width": lambda doc, split: doc.update(n_features=2.0),
        "short_column": lambda doc, split: doc.update(left=doc["left"][:-1]),
        "nested_entry": lambda doc, split: doc["feature"].__setitem__(0, [0, 1]),
        "float_index": lambda doc, split: doc["left"].__setitem__(split, 1.5),
        "text_threshold": lambda doc, split: doc["threshold"].__setitem__(0, "x"),
        "short_value": lambda doc, split: doc.update(value=doc["value"][:-1]),
        "narrow_value": lambda doc, split: doc.update(
            value=[row[:1] for row in doc["value"]]),
        "no_roots": lambda doc, split: doc.update(roots=[]),
        "feature_too_big": lambda doc, split: doc["feature"].__setitem__(
            split, doc["n_features"]),
        "feature_negative": lambda doc, split: doc["feature"].__setitem__(
            split, -1),
        "root_too_big": lambda doc, split: doc["roots"].__setitem__(
            0, len(doc["left"])),
        "root_negative": lambda doc, split: doc["roots"].__setitem__(0, -1),
        "child_too_big": lambda doc, split: doc["right"].__setitem__(
            split, len(doc["left"])),
        "child_is_self": lambda doc, split: doc["right"].__setitem__(
            split, split),
        "child_before_split": lambda doc, split: doc["left"].__setitem__(
            split, split - 1),
    }

    @pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_forest_rejected(self, tmp_path, edit):
        latents, labels = blob_toy(seed=19)
        forest, _ = H.fit_random_forest(latents, labels, task="classify")
        H.save_head(forest, tmp_path / "forest")
        path = tmp_path / "forest" / "forest.json"
        doc = json.loads(path.read_text())
        split = next(i for i, left in enumerate(doc["left"])
                     if left != i and i > 0)
        edit(doc, split)
        path.write_text(json.dumps(doc))
        with pytest.raises(IOError):
            H.load_head(tmp_path / "forest")

    def test_nested_tree_forest_file_rejected(self, tmp_path):
        d = tmp_path / "old"
        d.mkdir()
        leaf = {"value": [1.0, 0.0]}
        (d / "forest.json").write_text(json.dumps(
            {"kind": "forest", "task": "classify", "n_features": 2,
             "trees": [{"feature": 0, "threshold": 0.5, "left": leaf,
                        "right": {"value": [0.0, 1.0]}}]}))
        with pytest.raises(IOError):
            H.load_head(d)

    def test_wrong_kind_rejected(self, tmp_path):
        d = tmp_path / "bad"
        d.mkdir()
        (d / "forest.json").write_text(json.dumps({"kind": "other"}))
        with pytest.raises(IOError):
            H.load_head(d)


def per_feature_best_split(X, y, feats, task):
    """The split search the sorted block replaced: one feature at a time.

    Kept as the oracle the block must match exactly, ties included.
    """
    n = y.size
    best = None
    for f in feats:
        order = np.argsort(X[:, f], kind="stable")
        vs = X[order, f]
        ys = y[order]
        valid = np.nonzero(vs[1:] > vs[:-1])[0] + 1
        if valid.size == 0:
            continue
        k = valid.astype(float)
        if task == "classify":
            ones = np.cumsum(ys)[valid - 1].astype(float)
            tot_ones = float(ys.sum())
            p1l = ones / k
            p1r = (tot_ones - ones) / (n - k)
            gini_l = 1.0 - p1l ** 2 - (1.0 - p1l) ** 2
            gini_r = 1.0 - p1r ** 2 - (1.0 - p1r) ** 2
            score = (k * gini_l + (n - k) * gini_r) / n
        else:
            s = np.cumsum(ys)[valid - 1]
            sq = np.cumsum(ys * ys)[valid - 1]
            tot_s, tot_sq = float(ys.sum()), float((ys * ys).sum())
            var_l = sq / k - (s / k) ** 2
            var_r = (tot_sq - sq) / (n - k) - ((tot_s - s) / (n - k)) ** 2
            score = (k * var_l + (n - k) * var_r) / n
        j = int(np.argmin(score))
        if best is None or score[j] < best[0]:
            pos = valid[j]
            threshold = 0.5 * (vs[pos - 1] + vs[pos])
            best = (float(score[j]), int(f), float(threshold))
    return best


def best_split(X, y, feats, task):
    """The block scorer on one node holding every row of (X, y)."""
    score, feature, threshold = H._best_splits(
        X, y, np.arange(y.size)[None], np.array([y.size]), feats[None], task)
    if score[0] == np.inf:
        return None
    return float(score[0]), int(feature[0]), float(threshold[0])


def split_targets(rng, n, task):
    if task == "classify":
        return rng.integers(0, 2, size=n)
    return np.round(rng.uniform(0.5, 60.0, size=n), 2)


class TestBestSplit:
    @pytest.mark.parametrize("task", ["classify", "regress"])
    @pytest.mark.parametrize("decimals", [0, 1])
    def test_matches_per_feature_search_exactly(self, task, decimals):
        rng = np.random.default_rng(31 + decimals)
        for _ in range(300):
            n, d = int(rng.integers(2, 71)), int(rng.integers(1, 13))
            # Rounding makes equal values, so ties in value and in score occur.
            X = np.round(rng.normal(scale=2.0, size=(n, d)), decimals)
            y = split_targets(rng, n, task)
            feats = rng.choice(d, size=int(rng.integers(1, d + 1)),
                               replace=False)
            assert best_split(X, y, feats, task) == \
                per_feature_best_split(X, y, feats, task)

    @pytest.mark.parametrize("task", ["classify", "regress"])
    def test_identical_columns_go_to_the_first_drawn(self, task):
        rng = np.random.default_rng(37)
        X = np.round(rng.normal(size=(40, 5)), 1)
        X[:, 3] = X[:, 1]  # the column that separates the targets, twice
        y = (X[:, 1] > 0).astype(int)
        if task == "regress":
            y = 10.0 + 5.0 * y + split_targets(rng, 40, task) / 100.0
        for feats, first in (([3, 1], 3), ([1, 3], 1), ([0, 3, 2, 1], 3)):
            split = best_split(X, y, np.array(feats), task)
            assert split == per_feature_best_split(X, y, np.array(feats), task)
            assert split[1] == first

    @pytest.mark.parametrize("task", ["classify", "regress"])
    def test_constant_drawn_columns_give_none(self, task):
        rng = np.random.default_rng(41)
        X = rng.normal(size=(30, 4))
        X[:, [0, 2]] = 1.5
        y = split_targets(rng, 30, task)
        assert best_split(X, y, np.array([2, 0]), task) is None
        assert per_feature_best_split(X, y, np.array([2, 0]), task) is None
        assert best_split(X, y, np.array([2, 1]), task)[1] == 1

    @pytest.mark.parametrize("task", ["classify", "regress"])
    @pytest.mark.parametrize("decimals", [0, 1])
    def test_mixed_size_block_matches_per_feature_search(self, task,
                                                         decimals):
        # Nodes of 2-70 rows share one padded block, and the scorer halves
        # it when it exceeds 8,192 entries: each node must score exactly as
        # it would alone, so no total may be summed over padding.
        rng = np.random.default_rng(59 + decimals)
        d, m = 9, 4
        for _ in range(20):
            sizes = rng.integers(2, 71, size=int(rng.integers(1, 60)))
            X = np.round(rng.normal(scale=2.0, size=(sizes.sum(), d)),
                         decimals)
            y = split_targets(rng, sizes.sum(), task)
            first = np.cumsum(sizes) - sizes
            at = np.arange(sizes.max())
            rows = first[:, None] + np.minimum(at, sizes[:, None] - 1)
            feats = np.array([rng.choice(d, m, replace=False) for _ in sizes])
            got = H._best_splits(X, y, rows, sizes, feats, task)
            for j, (lo, size) in enumerate(zip(first, sizes)):
                want = per_feature_best_split(X[lo:lo + size], y[lo:lo + size],
                                              feats[j], task)
                if want is None:
                    assert got[0][j] == np.inf
                else:
                    assert (got[0][j], got[1][j], got[2][j]) == want


def pinned_forest(task):
    """The 160 x 12 forest of `test_predictions_pinned_bitwise`."""
    rng = np.random.default_rng(21)
    X = rng.normal(size=(160, 12))
    labels = [H.DiagnosisLabel(
        Location.HOT_LEG if x[0] + x[1] * x[2] > 0 else Location.COLD_LEG,
        1.0 + abs(x[3] + 0.5 * x[4])) for x in X]
    return H.fit_random_forest(
        list(X), labels, H.HeadConfig(kind="random_forest", tree_count=20,
                                      seed=5), task=task)[0]


def variant_forest(task, rows=160, decimals=None, **config):
    """`pinned_forest` on its first `rows` rows, rounded to `decimals`, with
    `config` overriding its head configuration."""
    X = np.random.default_rng(21).normal(size=(160, 12))[:rows]
    if decimals is not None:
        X = np.round(X, decimals)
    labels = [H.DiagnosisLabel(
        Location.HOT_LEG if x[0] + x[1] * x[2] > 0 else Location.COLD_LEG,
        1.0 + abs(x[3] + 0.5 * x[4])) for x in X]
    config = {"tree_count": 20, "seed": 5, **config}
    return H.fit_random_forest(
        list(X), labels, H.HeadConfig(kind="random_forest", **config),
        task=task)[0]


def node_table_digest(forest):
    h = hashlib.sha256()
    for name in ("feature", "threshold", "left", "right", "value", "roots"):
        h.update(getattr(forest, name).tobytes())
    return h.hexdigest()


def leaf_values(forest, probe):
    """Each (row, tree) leaf value, found one row and one tree at a time."""
    out = []
    for x in probe:
        row = []
        for node in forest.roots:
            while forest.left[node] != node:  # a leaf is its own child
                node = forest.left[node] \
                    if x[forest.feature[node]] <= forest.threshold[node] \
                    else forest.right[node]
            row.append(forest.value[node])
        out.append(row)
    return np.array(out)


class TestForestTable:
    # Recorded from the per-feature split search: sha256 over the bytes of
    # feature, threshold, left, right, value and roots, in that order.
    @pytest.mark.parametrize("task, digest", [
        ("classify",
         "d72c580fb55618b102df7049a7f031e556650b18e03f3344d6f8c67f647daa34"),
        ("regress",
         "3916d8c2eb4306ceef3566246e5396f2ef0018a0a8d0e9369b77871d05f11a3c"),
    ], ids=["classify", "regress"])
    def test_node_table_pinned(self, task, digest):
        forest = pinned_forest(task)
        h = hashlib.sha256()
        for name in ("feature", "threshold", "left", "right", "value", "roots"):
            h.update(getattr(forest, name).tobytes())
        assert h.hexdigest() == digest

    # Recorded from the recursive grower that grew one tree, and scored one
    # node, at a time; the sha256 is taken as in `test_node_table_pinned`.
    @pytest.mark.parametrize("task, variant, nodes, digest", [
        ("classify", {"tree_count": 1}, 47,
         "095fb6f27f89f25b3ce547bb5a9d69203702ef3e332d284c62bccf59c9d1753a"),
        ("classify", {"max_depth": 1}, 60,
         "3ec2dfb39fd8ae87da26c6f56c11c61fcab8cb81949b5471b4948692e04d9d08"),
        ("classify", {"max_depth": 3}, 272,
         "7fec63f82638d5122ec8bdcb44ae6f3b6d89b4a71887f700b7b54552b365c2c7"),
        ("classify", {"decimals": 0}, 1028,
         "f704f49d0364aecf34672387f6df044e4cbf6efa3aaf7c00b83fb219be56c3f5"),
        ("classify", {"rows": 8}, 84,
         "cc1d7f12ac6c9ce63cd980f0b36ecf9167d6ba89163d2f218b6cabd92c3f88dd"),
        ("regress", {"tree_count": 1}, 85,
         "470324b57940ff754e6a2b4e77d4b407cf7ecd820646c5bcdff1f59cc75d83e0"),
        ("regress", {"max_depth": 1}, 60,
         "50e6b145c213fbf105b1a595f8d66eb14ae61160b406a5095c8ea96a8e5246e0"),
        ("regress", {"max_depth": 3}, 286,
         "51af677ea64d5fe6cadba13c13614d4fdb107149d7a461ad423d810e10e76598"),
        ("regress", {"decimals": 0}, 1550,
         "5fa6235bc6d8dbfaefd3fed8c3c55417ce39d30161f1bba9ab108b00d6407ad7"),
        ("regress", {"rows": 8}, 180,
         "66ffd1d023f307768b30c68cce38e98f4ac366787ca7b39f664c5d7c908a10e5"),
    ], ids=["classify-1-tree", "classify-depth-1", "classify-depth-3",
            "classify-ties", "classify-8-rows", "regress-1-tree",
            "regress-depth-1", "regress-depth-3", "regress-ties",
            "regress-8-rows"])
    def test_variant_node_tables_pinned(self, task, variant, nodes, digest):
        forest = variant_forest(task, **variant)
        assert forest.feature.size == nodes
        assert node_table_digest(forest) == digest
        for name in ("feature", "left", "right", "roots"):
            assert getattr(forest, name).dtype == np.int64
        assert forest.threshold.dtype == forest.value.dtype == np.float64

    def test_predict_tables_built_once_and_never_saved(self, tmp_path):
        forest = pinned_forest("classify")
        assert "_walk" in vars(forest)  # built by the fit's training predict
        walk = forest._walk
        H.predict(forest, np.zeros(12))
        assert forest._walk is walk
        H.save_head(forest, tmp_path / "f")
        doc = json.loads((tmp_path / "f" / "forest.json").read_text())
        assert set(doc) == {"kind", "task", "n_features", "feature",
                            "threshold", "left", "right", "value", "roots"}

    @pytest.mark.parametrize("task, variant", [
        ("classify", {}), ("regress", {}), ("classify", {"max_depth": 0}),
        ("regress", {"max_depth": 1}), ("classify", {"max_depth": 3}),
        ("regress", {"tree_count": 1}), ("regress", {"rows": 8})],
        ids=["classify", "regress", "classify-depth-0", "regress-depth-1",
             "classify-depth-3", "regress-1-tree", "regress-8-rows"])
    def test_descent_passes_are_the_deepest_leaf_depth(self, task, variant):
        forest = variant_forest(task, **variant)
        deepest, level = 0, [(root, 0) for root in forest.roots]
        while level:  # one tree and one node at a time
            node, depth = level.pop()
            deepest = max(deepest, depth)
            if forest.left[node] != node:
                level += [(forest.left[node], depth + 1),
                          (forest.right[node], depth + 1)]
        assert forest._walk[2] == deepest
        assert deepest <= variant.get("max_depth", 8)
        if variant.get("max_depth") == 0:
            assert deepest == 0

    @pytest.mark.parametrize("task", ["classify", "regress"])
    def test_depth_zero_forest_is_all_roots(self, task):
        latents, labels = blob_toy(seed=43)
        labels = [H.DiagnosisLabel(lb.location, 1.0 + i)
                  for i, lb in enumerate(labels)]
        forest, _ = H.fit_random_forest(
            latents, labels, H.HeadConfig(kind="random_forest", tree_count=7,
                                          max_depth=0), task=task)
        np.testing.assert_array_equal(forest.roots, np.arange(7))
        np.testing.assert_array_equal(forest.left, forest.roots)
        np.testing.assert_array_equal(forest.right, forest.roots)
        probe = np.stack(latents)
        got = H.predict(forest, probe)
        if task == "classify":
            hot = np.sum(np.argmax(forest.value, axis=1) == 1)
            want = np.tile([(7 - hot) / 7, hot / 7], (len(probe), 1))
        else:
            want = np.full(len(probe), forest.value.mean())
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("task", ["classify", "regress"])
    def test_matrix_probe_matches_per_tree_enumeration(self, task):
        forest = pinned_forest(task)
        probe = np.random.default_rng(47).normal(size=(50, 12))
        # Row i sits exactly on the threshold of tree i's root, so it must go
        # left there.
        roots = forest.roots[np.arange(50) % forest.roots.size]
        probe[np.arange(50), forest.feature[roots]] = forest.threshold[roots]
        leaves = leaf_values(forest, probe)
        if task == "classify":
            want = np.eye(2)[np.argmax(leaves, axis=2)].mean(axis=1)
        else:
            want = leaves.mean(axis=1)
        np.testing.assert_array_equal(H.predict(forest, probe), want)

    def test_single_row_return_types(self):
        probe = np.random.default_rng(53).normal(size=12)
        probs = H.predict(pinned_forest("classify"), probe)
        assert isinstance(probs, np.ndarray) and probs.shape == (2,)
        size = H.predict(pinned_forest("regress"), probe)
        assert type(size) is float
        assert size == H.predict(pinned_forest("regress"), probe[None])[0]
