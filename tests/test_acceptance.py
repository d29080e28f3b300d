"""Top-level acceptance suite: one test per release criterion.

Each test prints a single "ACCEPTANCE n (...): PASS/FAIL" verdict line
(surfaced by the -rA pytest option) and then asserts it. The expensive
shared artifact is one fully trained desk-profile autoencoder, built once
per session; its dataset uses a registry where two channels are configured
with zero label sensitivity so the importance cascade has a known
low-relevance target to rank.
"""

import os
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from dpae import data as D
from dpae import heads as H
from dpae import interpret as I
from dpae import metrics as M
from dpae import tensor as T
from dpae import training as TR
from dpae.cli import _gradcheck_ops
from dpae.model import DPAE, DESK_PROFILE, PAPER_PROFILE, ModelProfile
from dpae.encoder import perturb_patches, preprocess

MASTER_SEEDS = (0, 1, 2)
ZERO_SENS_CHANNELS = (4,)
DESK_BAND = (6.0, 14.0)
EVENT_COUNT = 64
EPOCHS = 150

# Seed-stream tags local to this suite (train/eval perturbation draws).
_TAG_FIT = 61
_TAG_EVAL = 62


def _report(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {verdict} - {detail}")


def _derived_seed(*key):
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def _perturb(x, snr_db, ratio_pad, grid, rng):
    return D.unpatchify(perturb_patches(x, snr_db, ratio_pad, grid, rng)[0], grid)


@pytest.fixture(scope="session")
def desk_run():
    registry = list(D.registry_for(8))
    for i in ZERO_SENS_CHANNELS:
        registry[i] = replace(registry[i], location_sensitivity=0.0,
                              size_sensitivity=0.0)
    dataset = D.generate_dataset(EVENT_COUNT, seed=0, p=DESK_PROFILE.p,
                                 registry=tuple(registry))
    dataset = D.normalize(dataset)
    model = DPAE(DESK_PROFILE, seed=0)
    config = TR.TrainConfig(epochs=EPOCHS, seed=0)
    start = time.monotonic()
    history, _ = TR.train(dataset, model, config)
    seconds = time.monotonic() - start
    return SimpleNamespace(dataset=dataset, model=model, history=history,
                           train_seconds=seconds)


@pytest.fixture(scope="session")
def seed_fits(desk_run):
    """Per-master-seed head fits over the shared encoder.

    Both diagnosis routes consume the same perturbed matrices within each
    seed: the stepwise route encodes them, the end-to-end route flattens
    them. Evaluation draws come from a separate stream.
    """
    ds, model = desk_run.dataset, desk_run.model
    snr_db, ratio_pad = 30.0, 0.20
    out = {}
    for s in MASTER_SEEDS:
        sets = {}
        for tag, idx in ((_TAG_FIT, ds.indices("train")),
                         (_TAG_EVAL, ds.indices("test"))):
            Z, flat, labels = [], [], []
            for i in idx:
                sample = ds.samples[i]
                rng = np.random.default_rng(np.random.SeedSequence((s, tag,
                                                                    i)))
                x_pert = _perturb(sample.matrix, snr_db, ratio_pad,
                                  model.grid, rng)
                Z.append(model.latent_vector(x_pert))
                flat.append(x_pert.reshape(-1))
                labels.append(H.DiagnosisLabel(sample.location,
                                               sample.size_cm))
            sets[tag] = (np.stack(Z), np.stack(flat), labels)
        Zt, Ft, yt = sets[_TAG_FIT]
        fitted = {}
        for name, fit, inputs, task, k in (
                ("mlp_cla", H.fit_mlp_head, Zt, "classify", 1),
                ("mlp_reg", H.fit_mlp_head, Zt, "regress", 2),
                ("e2e_cla", H.fit_end_to_end, Ft, "classify", 3),
                ("e2e_reg", H.fit_end_to_end, Ft, "regress", 4)):
            kind = "mlp" if fit is H.fit_mlp_head else "end_to_end_mlp"
            cfg = H.HeadConfig(kind=kind, seed=_derived_seed(s, k))
            fitted[name], _ = fit(inputs, yt, config=cfg, task=task)
        out[s] = SimpleNamespace(heads=fitted, train=sets[_TAG_FIT],
                                 test=sets[_TAG_EVAL])
    return out


def test_criterion_1_gradient_integrity():
    start = time.monotonic()
    worst = 0.0
    for name, f, params in _gradcheck_ops(seed=0):
        worst = max(worst, T.grad_check(f, params, eps=1e-5))
    model = DPAE(DESK_PROFILE, seed=0)
    x = np.random.default_rng(1).uniform(0.0, 1.0,
                                         size=(DESK_PROFILE.p,
                                               DESK_PROFILE.l))

    xp = D.patchify(x, model.grid)

    def full():
        recon, _ = model.reconstruct(xp)
        return TR.mse_loss(x, recon)

    worst = max(worst, T.grad_check(full, model.params, eps=1e-5,
                                    entries_per_param=2, order=4))
    seconds = time.monotonic() - start
    ok = worst <= 1e-5 and seconds <= 120.0
    _report(1, "gradient integrity", ok,
            f"max rel err {worst:.3e} (limit 1e-05) in {seconds:.0f}s "
            f"(limit 120s)")
    assert worst <= 1e-5
    assert seconds <= 120.0


def test_criterion_2_reconstruction_beats_identity(desk_run):
    ds, model = desk_run.dataset, desk_run.model
    means = {}
    for j, (snr_db, ratio_pad) in enumerate(((30.0, 0.20), (25.0, 0.40))):
        ratios = []
        for i in ds.indices("test"):
            x = ds.samples[i].matrix
            rng = np.random.default_rng(np.random.SeedSequence((0, 70 + j,
                                                                i)))
            xp, _ = perturb_patches(x, snr_db, ratio_pad, model.grid, rng)
            x_pert = D.unpatchify(xp, model.grid)
            recon, _ = model.reconstruct(xp)
            report = M.reconstruction_report(x, x_pert, recon.data)
            ratios.append(report["improvement_ratio"])
        means[(snr_db, ratio_pad)] = float(np.mean(ratios))
    r_easy = means[(30.0, 0.20)]
    r_hard = means[(25.0, 0.40)]
    ok = (r_easy >= 2.0 and r_hard >= 1.2
          and desk_run.train_seconds <= 900.0)
    _report(2, "reconstruction beats identity", ok,
            f"mean ratio {r_easy:.2f} at (30dB, 0.20) [>= 2.0], "
            f"{r_hard:.2f} at (25dB, 0.40) [>= 1.2], "
            f"trained in {desk_run.train_seconds:.0f}s (limit 900s)")
    assert r_easy >= 2.0
    assert r_hard >= 1.2
    assert desk_run.train_seconds <= 900.0


def _macro_f1_of(head, X, y_true):
    probs = np.atleast_2d(H.predict(head, X))
    pred = np.argmax(probs, axis=1)
    return M.macro_f1(M.confusion_matrix(y_true, pred.tolist(), 2))


def test_criterion_3_stepwise_beats_end_to_end(seed_fits):
    f1_step, f1_e2e, rmse_step, rmse_e2e = [], [], [], []
    for s in MASTER_SEEDS:
        fit = seed_fits[s]
        Ze, Fe, ye = fit.test
        y_cla = [H.CLASS_ORDER.index(lb.location) for lb in ye]
        y_reg = np.array([lb.size_cm for lb in ye])
        f1_step.append(_macro_f1_of(fit.heads["mlp_cla"], Ze, y_cla))
        f1_e2e.append(_macro_f1_of(fit.heads["e2e_cla"], Fe, y_cla))
        rmse_step.append(M.rmse(np.atleast_1d(
            H.predict(fit.heads["mlp_reg"], Ze)), y_reg))
        rmse_e2e.append(M.rmse(np.atleast_1d(
            H.predict(fit.heads["e2e_reg"], Fe)), y_reg))
    gap = float(np.mean(f1_step) - np.mean(f1_e2e))
    ratio = float(np.mean(rmse_step) / np.mean(rmse_e2e))
    ok = gap >= 0.05 and ratio <= 0.8
    _report(3, "stepwise beats end-to-end", ok,
            f"macro-F1 {np.mean(f1_step):.3f} vs {np.mean(f1_e2e):.3f} "
            f"(gap {gap:+.3f}, need >= +0.05); RMSE {np.mean(rmse_step):.2f} "
            f"vs {np.mean(rmse_e2e):.2f} cm (ratio {ratio:.2f}, "
            f"need <= 0.80); 3 seeds")
    assert gap >= 0.05
    assert ratio <= 0.8


def test_criterion_4_shapley_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(42)

    # Closed form: a linear model's attribution is w_i (x_i - mean_i).
    w = rng.normal(size=7)
    b = 0.3
    background = rng.normal(size=(16, 7))
    x = rng.normal(size=7)
    phi_lin = I.exact_shapley(lambda X: X @ w + b, x, background).phi
    closed = w * (x - background.mean(axis=0))
    lin_err = float(np.max(np.abs(phi_lin - closed)))

    # Kernel SHAP under full enumeration equals the exact enumeration.
    worst = 0.0
    centers = rng.normal(size=8)
    X8 = rng.normal(size=(40, 8)) + centers
    y8 = [H.DiagnosisLabel(
        D.Location.COLD_LEG if row[0] + row[3] > centers[0] + centers[3]
        else D.Location.HOT_LEG, float(2.0 + abs(row[1])))
        for row in X8]
    forest, _ = H.fit_random_forest(
        X8, y8, config=H.HeadConfig(kind="random_forest", tree_count=20,
                                    seed=5), task="classify")
    X6 = rng.normal(size=(40, 6))
    y6 = [H.DiagnosisLabel(
        D.Location.COLD_LEG if row[:3].sum() > 0 else D.Location.HOT_LEG,
        float(2.0 + row[1] ** 2)) for row in X6]
    mlp_cla, _ = H.fit_mlp_head(
        X6, y6, config=H.HeadConfig(kind="mlp", max_epochs=60, seed=5),
        task="classify")
    mlp_reg, _ = H.fit_mlp_head(
        X6, y6, config=H.HeadConfig(kind="mlp", max_epochs=60, seed=6),
        task="regress")
    cases = (
        (I.classifier_fn(forest), X8),
        (I.classifier_fn(mlp_cla), X6),
        (I.regressor_fn(mlp_reg), X6),
    )
    for g, X in cases:
        bg = X[:12]
        point = X[-1]
        exact = I.exact_shapley(g, point, bg).phi
        cfg = I.ShapConfig(background=bg, exact_mode=True, seed=0)
        kernel = I.kernel_shap(g, point, cfg)
        worst = max(worst, float(np.max(np.abs(kernel.phi - exact))))
    seconds = time.monotonic() - start
    ok = lin_err <= 1e-9 and worst <= 1e-6 and seconds <= 60.0
    _report(4, "Shapley correctness", ok,
            f"linear closed-form err {lin_err:.1e} (limit 1e-09), "
            f"kernel-vs-exact err {worst:.1e} (limit 1e-06) in "
            f"{seconds:.0f}s (limit 60s)")
    assert lin_err <= 1e-9
    assert worst <= 1e-6
    assert seconds <= 60.0


def _cascade(desk_run, fit, seed):
    """phi -> Psi -> ranking for one master seed's heads."""
    Zt = fit.train[0]
    Ze = fit.test[0]
    rng = np.random.default_rng(np.random.SeedSequence((seed, 80)))
    bg = Zt[rng.choice(len(Zt), size=16, replace=False)]
    cfg = I.ShapConfig(background=bg, coalition_samples=256, seed=seed)
    g_cla = I.classifier_fn(fit.heads["mlp_cla"])
    g_reg = I.regressor_fn(fit.heads["mlp_reg"])
    pick = rng.choice(len(Ze), size=4, replace=False)
    phi_cla = np.stack([I.kernel_shap(g_cla, Ze[i], cfg).phi for i in pick])
    phi_reg = np.stack([I.kernel_shap(g_reg, Ze[i], cfg).phi for i in pick])
    phi = I.latent_importance(phi_cla, phi_reg)
    band = I.select_size_band(desk_run.dataset, band=DESK_BAND)
    report = I.parameter_importance(desk_run.model, band, phi)
    return phi, report


def test_criterion_5_importance_cascade(desk_run, seed_fits):
    l = DESK_PROFILE.l
    hits = 0
    phi0 = None
    ranking0 = None
    for s in MASTER_SEEDS:
        phi, report = _cascade(desk_run, seed_fits[s], s)
        assert abs(phi.sum() - 1.0) <= 1e-12
        assert len(report.psi) == l
        rank_pos = {ch: pos for pos, ch in enumerate(report.ranking)}
        if all(rank_pos[ch] >= l // 2 for ch in ZERO_SENS_CHANNELS):
            hits += 1
        if s == 0:
            phi0, ranking0 = phi, list(report.ranking)
    phi_again, report_again = _cascade(desk_run, seed_fits[0], 0)
    deterministic = (np.array_equal(phi0, phi_again)
                     and list(report_again.ranking) == ranking0)
    ok = hits >= 2 and deterministic
    _report(5, "importance cascade soundness", ok,
            f"phi sums to 1 (3 seeds), Psi length {l}, ranking "
            f"deterministic={deterministic}, zero-sensitivity channels "
            f"{ZERO_SENS_CHANNELS} in bottom half in {hits}/3 seeds "
            f"(need >= 2)")
    assert deterministic
    assert hits >= 2


def test_criterion_6_paper_scale_structure():
    start = time.monotonic()
    profile = PAPER_PROFILE
    grid = profile.grid()
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, size=(profile.p, profile.l))
    xp = D.patchify(x, grid)
    model = DPAE(profile, seed=0)
    pre = preprocess(xp, model.params)
    latent, class_row = model.encode(xp)
    recon = model.decode(latent, class_row)
    curriculum = [tuple(pair) for pair in TR.DEFAULT_CURRICULUM]
    # A one-epoch toy run logs the actual per-step schedule.
    toy = D.normalize(D.generate_dataset(6, seed=3, p=12,
                                         registry=D.registry_for(2)))
    toy_model = DPAE(ModelProfile(p=12, l=2, m=3, depth_enc=1, depth_dec=1,
                                  heads=2, latent_dim=5, lstm_hidden=4,
                                  head_widths=(4, 4)), seed=0)
    history, _ = TR.train(toy, toy_model, TR.TrainConfig(epochs=1, seed=0))
    logged = [(row[3], row[4]) for row in history[:5]]
    expected = [(20.0, 0.40), (35.0, 0.25), (40.0, 0.10), (30.0, 0.20),
                (30.0, 0.20)]
    seconds = time.monotonic() - start
    ok = (xp.shape == (190, 40) and pre.data.shape == (191, 40)
          and latent.data.size == 128 and recon.data.shape == (200, 38)
          and curriculum == expected and logged == expected
          and seconds <= 60.0)
    _report(6, "paper-scale structural conformance", ok,
            f"patchify {xp.shape}, preprocess {pre.data.shape}, latent "
            f"{latent.data.size}, decode {recon.data.shape}, curriculum "
            f"log exact, in {seconds:.0f}s (limit 60s)")
    assert xp.shape == (190, 40)
    assert pre.data.shape == (191, 40)
    assert latent.data.size == 128
    assert recon.data.shape == (200, 38)
    assert curriculum == expected
    assert logged == expected
    assert seconds <= 60.0


def _run_chain(root):
    from dpae.cli import main as cli_main

    def run(*argv):
        assert cli_main(list(argv)) == 0, argv
    data = os.path.join(root, "data")
    run_dir = os.path.join(root, "run")
    ckpt = os.path.join(run_dir, "checkpoint_final")
    lat = os.path.join(root, "lat")
    heads = os.path.join(root, "heads")
    run("gen-data", "--out", data, "--count", "12", "--scale", "desk",
        "--seed", "7")
    run("train-dpae", "--data", data, "--out", run_dir, "--scale", "desk",
        "--epochs", "2", "--seed", "7")
    run("reconstruct", "--model", ckpt, "--data", data,
        "--out", os.path.join(root, "rec"), "--index", "0", "--passthrough",
        "--seed", "7")
    run("extract-latents", "--model", ckpt, "--data", data, "--out", lat,
        "--seed", "7")
    run("train-heads", "--latents", os.path.join(lat, "latents.csv"),
        "--data", data, "--out", heads, "--head", "all", "--seed", "7")
    run("evaluate", "--model", ckpt, "--data", data, "--heads", heads,
        "--out", os.path.join(root, "eval"), "--seed", "7")
    run("explain", "--model", ckpt, "--data", data, "--heads", heads,
        "--out", os.path.join(root, "exp"), "--band", "2,60",
        "--explain-count", "2", "--background-size", "8",
        "--coalitions", "40", "--seed", "7")
    run("gradcheck", "--scope", "ops", "--out", os.path.join(root, "gc"),
        "--seed", "7")


def test_criterion_7_cli_determinism(tmp_path):
    root_a = str(tmp_path / "a")
    root_b = str(tmp_path / "b")
    _run_chain(root_a)
    _run_chain(root_b)
    compared = 0
    mismatched = []
    for dirpath, _, filenames in os.walk(root_a):
        rel = os.path.relpath(dirpath, root_a)
        for name in sorted(filenames):
            path_a = os.path.join(dirpath, name)
            path_b = os.path.join(root_b, rel, name)
            with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
                if fa.read() != fb.read():
                    mismatched.append(os.path.join(rel, name))
            compared += 1
    ok = compared > 0 and not mismatched
    _report(7, "CLI determinism", ok,
            f"{compared} artifacts from all 8 commands byte-identical "
            f"across reruns" if ok else f"mismatched: {mismatched}")
    assert compared > 0
    assert mismatched == []


def test_criterion_8_metric_conformance():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        k = int(rng.integers(2, 5))
        y_true = rng.integers(0, k, size=n).tolist()
        y_pred = rng.integers(0, k, size=n).tolist()
        counts = M.confusion_matrix(y_true, y_pred, k)
        f1s = []
        for c in range(k):
            tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
            fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
            fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
            if tp == 0:
                brute = 0.0
            else:
                prec = tp / (tp + fp)
                rec = tp / (tp + fn)
                brute = 2.0 * prec * rec / (prec + rec)
            f1s.append(brute)
            worst = max(worst, abs(M.f1(counts[c]) - brute))
        worst = max(worst, abs(M.macro_f1(counts) - sum(f1s) / k))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        brute_rmse = float(np.sqrt(sum((x - y) ** 2
                                       for x, y in zip(a, b)) / n))
        worst = max(worst, abs(M.rmse(a, b) - brute_rmse))
    ok = worst <= 1e-12
    _report(8, "metric conformance", ok,
            f"f1/macro-F1/RMSE vs brute force on 1000 random sets: "
            f"max abs diff {worst:.1e} (limit 1e-12)")
    assert worst <= 1e-12
