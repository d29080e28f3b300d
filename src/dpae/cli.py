"""Command-line pipeline: seeded, reproducible, machine-readable artifacts.

Subcommands cover the full workflow: synthesize data, train the
autoencoder, reconstruct transients, extract latents, fit and evaluate
diagnosis heads, run the interpretation cascade, and check gradients.
Every command takes --seed, writes outputs that embed the resolved
configuration, and is byte-for-byte reproducible given identical flags.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import data as D
from . import heads as H
from . import interpret as I
from . import metrics as M
from . import tensor as T
from . import training as TR
from .config import resolve_config
from .encoder import perturb_patches
from .model import DPAE, ModelProfile

OUTPUT_ROOT_ENV = "DPAE_OUTPUT_ROOT"
LOCK_NAME = ".dpae.lock"

# Seed-stream tags so different pipeline stages never share rng streams.
_TAG_LATENTS = 11
_TAG_EVAL = 12
_TAG_RECON = 13
_TAG_EXPLAIN_PICK = 21
_TAG_BACKGROUND = 22
_TAG_HEAD = 31

GRADCHECK_TOLERANCE = 1e-5


class UsageError(Exception):
    pass


class NumericalFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class _DirLock:
    """Exclusive marker file; concurrent commands on one directory abort."""

    def __init__(self, dir_path):
        self.path = os.path.join(dir_path, LOCK_NAME)

    def __enter__(self):
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        try:
            self.fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise OSError(
                f"output directory is locked by another command: {self.path}")
        return self

    def __exit__(self, *exc):
        os.close(self.fd)
        os.unlink(self.path)


def _resolve_out(path):
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def _sub_seed(seed, tag, index=0):
    """Deterministic derived integer seed for stream separation."""
    return int(np.random.SeedSequence((seed, tag, index)).generate_state(1)[0])


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def _stamp(cfg, command, extra=None):
    doc = {"command": command, "config": cfg.as_dict()}
    if extra:
        doc.update(extra)
    return doc


# ---------------------------------------------------------------------------
# shared loading helpers

def _perturbed_matrix(x, snr_db, ratio_pad, grid, rng):
    """One perturbation folded back to a p x l matrix, plus the mask."""
    patches, mask = perturb_patches(x, snr_db, ratio_pad, grid, rng)
    return D.unpatchify(patches, grid), mask


def _repr_rows(matrix):
    """Rows of exact float reprs, so CSV values round-trip bit for bit."""
    return ([repr(float(v)) for v in row] for row in matrix)


def _read_latents_csv(path):
    with open(path, newline="") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    header, body = rows[0], rows[1:]
    d = len(header) - 2
    Z = np.array([[float(v) for v in row[:d]] for row in body])
    labels = [H.DiagnosisLabel(D.Location(row[d]), float(row[d + 1]))
              for row in body]
    return Z, labels


_HEAD_DIRS = ("mlp_cla", "mlp_reg", "forest_cla", "forest_reg",
              "e2e_cla", "e2e_reg")


def _load_heads(heads_dir):
    found = {}
    for name in _HEAD_DIRS:
        path = os.path.join(heads_dir, name)
        if os.path.isdir(path):
            found[name] = H.load_head(path)
    if not found:
        raise UsageError(f"no head checkpoints found under {heads_dir}")
    return found


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(args):
    cfg = resolve_config(args.config, scale=args.scale, seed=args.seed,
                         count=args.count)
    profile = cfg.profile()
    out = _resolve_out(args.out)
    with _DirLock(out):
        dataset = D.generate_dataset(cfg.count, seed=cfg.seed, p=profile.p,
                                     registry=D.registry_for(profile.l))
        dataset = D.normalize(dataset)
        D.save_dataset(dataset, out, meta=_stamp(cfg, "gen-data"))
    print(f"wrote {len(dataset.samples)} samples to {out}")
    return 0


def cmd_train_dpae(args):
    cfg = resolve_config(args.config, scale=args.scale, seed=args.seed,
                         epochs=args.epochs)
    out = _resolve_out(args.out)
    if cfg.epochs < 1:
        raise UsageError("epochs must be at least 1")
    dataset = D.load_dataset(args.data)
    profile = cfg.profile()
    if (dataset.p, dataset.l) != (profile.p, profile.l):
        raise UsageError(
            f"dataset is {dataset.p}x{dataset.l}, profile expects "
            f"{profile.p}x{profile.l}")
    model = DPAE(profile, seed=cfg.seed)
    extra = dict(cfg.train)
    extra.pop("epochs", None)
    extra.pop("seed", None)
    train_cfg = TR.TrainConfig(epochs=cfg.epochs, seed=cfg.seed, **extra)
    with _DirLock(out):
        history, _ = TR.train(dataset, model, train_cfg, out_dir=out,
                              log_every=args.log_every)
        ckpt = os.path.join(out, "checkpoint_final")
        reloaded, _ = TR.load_checkpoint(ckpt)
        probe = dataset.samples[dataset.indices("train")[0]].matrix
        if not np.array_equal(model.latent_vector(probe),
                              reloaded.latent_vector(probe)):
            raise NumericalFailure("checkpoint reload failed verification")
        _write_json(os.path.join(out, "run.json"),
                    _stamp(cfg, "train-dpae", {
                        "steps": len(history),
                        "final_loss": history[-1][5],
                        "checkpoint": "checkpoint_final",
                        "verified": True,
                    }))
    print(f"trained {len(history)} steps; final loss {history[-1][5]:.6f}")
    return 0


def cmd_reconstruct(args):
    cfg = resolve_config(args.config, seed=args.seed, snr_db=args.snr,
                         ratio_pad=args.pad)
    out = _resolve_out(args.out)
    model, _ = TR.load_checkpoint(args.model)
    dataset = D.load_dataset(args.data)
    if not (0 <= args.index < len(dataset.samples)):
        raise UsageError(f"sample index {args.index} out of range")
    x = dataset.samples[args.index].matrix
    names = [c.node_name for c in dataset.registry]

    if args.passthrough:
        x_pert = x.copy()
        mask = np.zeros(model.grid.N, dtype=bool)
    else:
        rng = np.random.default_rng(
            np.random.SeedSequence((cfg.seed, _TAG_RECON, args.index)))
        x_pert, mask = _perturbed_matrix(x, cfg.snr_db, cfg.ratio_pad,
                                         model.grid, rng)
    recon = model.reconstruct(x_pert)[0].data
    report = M.reconstruction_report(x, x_pert, recon)

    stamp = _stamp(cfg, "reconstruct", {
        "sample_index": args.index,
        "passthrough": bool(args.passthrough),
    })
    with _DirLock(out):
        for name, matrix in (("clean", x), ("perturbed", x_pert),
                             ("reconstructed", recon)):
            D.write_stamped_csv(os.path.join(out, f"{name}.csv"),
                                stamp["config"], names, _repr_rows(matrix))
        _write_json(os.path.join(out, "report.json"), {
            **stamp,
            "reconstruction": report,
            "masked_rows": [int(i) for i in np.nonzero(mask)[0]],
        })
    ratio = report["improvement_ratio"]
    print(f"improvement ratio {ratio:.3f} "
          f"(model mse {report['mse_model']:.3e})")
    if not args.passthrough and ratio < 1.0:
        raise NumericalFailure(
            f"reconstruction did not beat identity: ratio {ratio:.3f} < 1")
    return 0


def cmd_extract_latents(args):
    cfg = resolve_config(args.config, seed=args.seed, snr_db=args.snr,
                         ratio_pad=args.pad)
    out = _resolve_out(args.out)
    model, _ = TR.load_checkpoint(args.model)
    dataset = D.load_dataset(args.data)

    snr = None if args.clean else cfg.snr_db
    Z = np.zeros((len(dataset.samples), model.profile.latent_dim))
    labels = []
    for i, sample in enumerate(dataset.samples):
        if snr is None:
            x_in = sample.matrix
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence((cfg.seed, _TAG_LATENTS, i)))
            x_in, _ = _perturbed_matrix(sample.matrix, snr, cfg.ratio_pad,
                                        model.grid, rng)
        Z[i] = model.latent_vector(x_in)
        labels.append(H.DiagnosisLabel(sample.location, sample.size_cm))
    if not np.isfinite(Z).all():
        raise NumericalFailure("non-finite latent encountered")

    stamp = _stamp(cfg, "extract-latents", {"clean": bool(args.clean)})
    with _DirLock(out):
        D.write_stamped_csv(
            os.path.join(out, "latents.csv"), stamp["config"],
            [f"z{i}" for i in range(Z.shape[1])] + ["location", "size_cm"],
            (row + [lb.location.value, repr(float(lb.size_cm))]
             for row, lb in zip(_repr_rows(Z), labels)))
        _write_json(os.path.join(out, "run.json"),
                    {**stamp, "rows": len(labels)})
    print(f"wrote {len(labels)} latent rows of width {Z.shape[1] + 2}")
    return 0


def _head_config(cfg, kind, offset):
    base = dict(cfg.heads)
    base.pop("kind", None)
    base.pop("seed", None)
    return H.HeadConfig(kind=kind, seed=_sub_seed(cfg.seed, _TAG_HEAD, offset),
                        **base)


def cmd_train_heads(args):
    cfg = resolve_config(args.config, seed=args.seed, snr_db=args.snr,
                         ratio_pad=args.pad)
    out = _resolve_out(args.out)
    wanted = ("mlp", "forest", "e2e") if args.head == "all" else (args.head,)
    if ("mlp" in wanted or "forest" in wanted) and not args.latents:
        raise UsageError("--latents is required for mlp/forest heads")
    if not args.data:
        raise UsageError("--data is required to recover the train split")

    dataset = D.load_dataset(args.data)
    train_idx = dataset.indices("train")
    reports = {}

    with _DirLock(out):
        if "mlp" in wanted or "forest" in wanted:
            Z, labels = _read_latents_csv(args.latents)
            if len(labels) != len(dataset.samples):
                raise UsageError("latents row count does not match dataset")
            Zt = [Z[i] for i in train_idx]
            yt = [labels[i] for i in train_idx]
            jobs = []
            if "mlp" in wanted:
                jobs += [("mlp_cla", H.fit_mlp_head, "classify", 1),
                         ("mlp_reg", H.fit_mlp_head, "regress", 2)]
            if "forest" in wanted:
                jobs += [("forest_cla", H.fit_random_forest, "classify", 3),
                         ("forest_reg", H.fit_random_forest, "regress", 4)]
            for name, fit, task, offset in jobs:
                kind = "random_forest" if fit is H.fit_random_forest else "mlp"
                head, report = fit(Zt, yt, config=_head_config(cfg, kind,
                                                               offset),
                                   task=task)
                H.save_head(head, os.path.join(out, name))
                reports[name] = report

        if "e2e" in wanted:
            profile = cfg.profile()
            grid = D.PatchGrid.for_shape(profile.p, profile.l, profile.m)
            mats, labels_e2e = [], []
            for i in train_idx:
                sample = dataset.samples[i]
                rng = np.random.default_rng(
                    np.random.SeedSequence((cfg.seed, _TAG_LATENTS, i)))
                x_pert, _ = _perturbed_matrix(sample.matrix, cfg.snr_db,
                                              cfg.ratio_pad, grid, rng)
                mats.append(x_pert.reshape(-1))
                labels_e2e.append(H.DiagnosisLabel(sample.location,
                                                   sample.size_cm))
            for name, task, offset in (("e2e_cla", "classify", 5),
                                       ("e2e_reg", "regress", 6)):
                head, report = H.fit_end_to_end(
                    mats, labels_e2e,
                    config=_head_config(cfg, "end_to_end_mlp", offset),
                    task=task)
                H.save_head(head, os.path.join(out, name))
                reports[name] = report

        _write_json(os.path.join(out, "fit_reports.json"), {
            **_stamp(cfg, "train-heads", {"heads": sorted(reports)}),
            "reports": {
                name: {
                    "stopping_epoch": r.stopping_epoch,
                    "param_count": r.param_count,
                    "final_metrics": r.final_metrics,
                    "train_curve": r.train_curve,
                    "val_curve": r.val_curve,
                }
                for name, r in reports.items()
            },
        })
    print(f"fitted heads: {', '.join(sorted(reports))}")
    return 0


def cmd_evaluate(args):
    cfg = resolve_config(args.config, seed=args.seed, snr_db=args.snr,
                         ratio_pad=args.pad)
    out = _resolve_out(args.out)
    model, _ = TR.load_checkpoint(args.model)
    dataset = D.load_dataset(args.data)
    heads = _load_heads(args.heads)
    test_idx = dataset.indices("test")
    if not test_idx:
        raise UsageError("dataset has no test split")

    # One fresh perturbation per sample, shared by both diagnosis routes.
    Zs, flats, labels = [], [], []
    for i in test_idx:
        sample = dataset.samples[i]
        rng = np.random.default_rng(
            np.random.SeedSequence((cfg.seed, _TAG_EVAL, i)))
        x_pert, _ = _perturbed_matrix(sample.matrix, cfg.snr_db,
                                      cfg.ratio_pad, model.grid, rng)
        Zs.append(model.latent_vector(x_pert))
        flats.append(x_pert.reshape(-1))
        labels.append(H.DiagnosisLabel(sample.location, sample.size_cm))
    Zs = np.stack(Zs)
    flats = np.stack(flats)
    y_cla = np.array([H.CLASS_ORDER.index(lb.location) for lb in labels])
    y_reg = np.array([lb.size_cm for lb in labels])

    results = {}
    for name, head in heads.items():
        X = flats if name.startswith("e2e") else Zs
        if name.endswith("_cla"):
            probs = np.atleast_2d(H.predict(head, X))
            pred = np.argmax(probs, axis=1)
            counts = M.confusion_matrix(y_cla.tolist(), pred.tolist(), 2)
            per_class = {}
            for cls_idx, loc in enumerate(H.CLASS_ORDER):
                value, degenerate = M.f1(counts[cls_idx], with_flag=True)
                per_class[loc.value] = {
                    "f1": value,
                    "degenerate": degenerate,
                    "precision": M.precision(counts[cls_idx]),
                    "recall": M.recall(counts[cls_idx]),
                }
            results[name] = {
                "macro_f1": M.macro_f1(counts),
                "accuracy": float(np.mean(pred == y_cla)),
                "per_class": per_class,
            }
        else:
            pred = np.atleast_1d(H.predict(head, X))
            results[name] = {"rmse": M.rmse(pred, y_reg)}

    payload = {
        **_stamp(cfg, "evaluate", {
            "split": "test",
            "samples": len(test_idx),
            "perturbation": {"snr_db": cfg.snr_db,
                             "ratio_pad": cfg.ratio_pad,
                             "seed_tag": _TAG_EVAL},
        }),
        "heads": results,
    }
    with _DirLock(out):
        _write_json(os.path.join(out, "metrics.json"), payload)
    for name in sorted(results):
        keys = results[name]
        line = (f"macro_f1 {keys['macro_f1']:.3f}" if "macro_f1" in keys
                else f"rmse {keys['rmse']:.3f}")
        print(f"{name}: {line}")
    return 0


def cmd_explain(args):
    cfg = resolve_config(args.config, seed=args.seed)
    if args.band:
        lo, hi = (float(v) for v in args.band.split(","))
        if lo > hi:
            raise UsageError(
                f"size band lower bound exceeds upper bound: {args.band}")
        band = (lo, hi)
    else:
        band = cfg.size_band
    out = _resolve_out(args.out)
    model, _ = TR.load_checkpoint(args.model)
    dataset = D.load_dataset(args.data)
    heads = _load_heads(args.heads)
    cla = heads.get("mlp_cla") or heads.get("forest_cla")
    reg = heads.get("mlp_reg") or heads.get("forest_reg")
    if cla is None or reg is None:
        raise UsageError("explain needs one classifier and one regressor head")

    # Clean eval-mode latents for every sample.
    Z = np.stack([model.latent_vector(s.matrix) for s in dataset.samples])
    d = Z.shape[1]

    rng_bg = np.random.default_rng(
        np.random.SeedSequence((cfg.seed, _TAG_BACKGROUND)))
    train_idx = dataset.indices("train")
    bg_count = min(args.background_size, len(train_idx))
    background = Z[rng_bg.choice(train_idx, size=bg_count, replace=False)]

    rng_pick = np.random.default_rng(
        np.random.SeedSequence((cfg.seed, _TAG_EXPLAIN_PICK)))
    test_idx = dataset.indices("test") or train_idx
    n_explain = min(args.explain_count, len(test_idx))
    chosen = sorted(rng_pick.choice(test_idx, size=n_explain, replace=False))

    shap_kwargs = {"coalition_samples": 256, **cfg.shap}
    if args.coalitions is not None:
        shap_kwargs["coalition_samples"] = args.coalitions
    if args.exact:
        shap_kwargs["exact_mode"] = True
    shap_kwargs.pop("seed", None)
    shap_cfg = I.ShapConfig(background=background, seed=cfg.seed,
                            **shap_kwargs)
    g_cla = I.classifier_fn(cla)
    g_reg = I.regressor_fn(reg)
    phis_cla, phis_reg = [], []
    for i in chosen:
        phis_cla.append(I.kernel_shap(g_cla, Z[i], shap_cfg).phi)
        phis_reg.append(I.kernel_shap(g_reg, Z[i], shap_cfg).phi)
    phi = I.latent_importance(np.stack(phis_cla), np.stack(phis_reg))

    band_samples = I.select_size_band(dataset, band=band)
    if not band_samples:
        raise NumericalFailure(
            f"no samples inside the size band [{band[0]}, {band[1]}] cm")
    report = I.parameter_importance(model, band_samples, phi)

    names = [c.node_name for c in dataset.registry]
    stamp = _stamp(cfg, "explain", {
        "band": list(band),
        "explained_samples": [int(i) for i in chosen],
        "background_size": bg_count,
        "band_sample_count": len(band_samples),
        "exact_mode": bool(args.exact),
    })
    with _DirLock(out):
        I.write_importance_report(out, report, names, meta=stamp)
        D.write_stamped_csv(
            os.path.join(out, "phi.csv"), stamp["config"],
            ["latent_index", "phi"],
            ([i, repr(float(v))] for i, v in enumerate(report.phi)))
        rank_of = {ch: r for r, ch in enumerate(report.ranking)}
        D.write_stamped_csv(
            os.path.join(out, "psi.csv"), stamp["config"],
            ["node", "psi", "rank"],
            ([name, repr(float(report.psi[m])), rank_of[m]]
             for m, name in enumerate(names)))
        band_stack = np.stack(band_samples)
        for r, channel in enumerate(report.ranking[:5]):
            D.write_stamped_csv(
                os.path.join(out, f"top{r + 1}_{names[channel]}.csv"),
                stamp["config"],
                [f"sample_{k}" for k in range(len(band_samples))],
                _repr_rows(band_stack[:, :, channel].T))
    top = [names[c] for c in report.ranking[:5]]
    print(f"phi length {d} (sum {report.phi.sum():.6f}); top channels: "
          + ", ".join(top))
    return 0


def _gradcheck_ops(seed):
    rng = np.random.default_rng(seed)
    checks = []

    a = T.Parameter(rng.normal(size=(3, 4)), "a")
    b = T.Parameter(rng.normal(size=(4, 2)), "b")
    checks.append(("matmul", lambda: T.mean_all(T.square(T.matmul(a, b))),
                   {"a": a, "b": b}))

    w = T.Parameter(rng.normal(size=(5, 3)), "w")
    bias = T.Parameter(rng.normal(size=(1, 3)), "bias")
    checks.append(("bias_add", lambda: T.mean_all(T.square(T.add(w, bias))),
                   {"w": w, "bias": bias}))

    for name, op in (("sigmoid", T.sigmoid), ("tanh", T.tanh),
                     ("gelu", T.gelu)):
        p = T.Parameter(rng.normal(size=(4, 4)), name)
        checks.append((name, lambda p=p, op=op: T.mean_all(T.square(op(p))),
                       {name: p}))

    s = T.Parameter(rng.normal(size=(3, 5)), "s")
    checks.append(("softmax", lambda: T.mean_all(T.square(T.softmax_rows(s))),
                   {"s": s}))

    xn = T.Parameter(rng.normal(size=(4, 6)), "xn")
    gn = T.Parameter(rng.normal(size=(1, 6)), "gn")
    bn = T.Parameter(rng.normal(size=(1, 6)), "bn")
    checks.append(("layer_norm",
                   lambda: T.mean_all(T.square(T.layer_norm(xn, gn, bn))),
                   {"xn": xn, "gn": gn, "bn": bn}))

    hdim = 4
    xl = T.Parameter(rng.normal(size=(1, 3)), "xl")
    hl = T.Parameter(0.1 * rng.normal(size=(1, hdim)), "hl")
    cl = T.Parameter(0.1 * rng.normal(size=(1, hdim)), "cl")
    wih = T.Parameter(rng.normal(size=(3, 4 * hdim)) / np.sqrt(3), "wih")
    whh = T.Parameter(rng.normal(size=(hdim, 4 * hdim)) / np.sqrt(hdim),
                      "whh")
    bl = T.Parameter(np.zeros((1, 4 * hdim)), "bl")
    checks.append(("lstm_cell",
                   lambda: T.mean_all(T.square(
                       T.lstm_cell(xl, hl, cl, wih, whh, bl))),
                   {"xl": xl, "hl": hl, "cl": cl, "wih": wih, "whh": whh,
                    "bl": bl}))

    logits = T.Parameter(rng.normal(size=(4, 3)), "logits")
    onehot = np.eye(3)[rng.integers(0, 3, size=4)]
    checks.append(("cross_entropy",
                   lambda: T.cross_entropy_logits(logits, onehot),
                   {"logits": logits}))
    return checks


_GRADCHECK_TOY = ModelProfile(p=12, l=2, m=3, depth_enc=1, depth_dec=1,
                              heads=2, latent_dim=5, lstm_hidden=4,
                              head_widths=(4, 4))


def _gradcheck_encoder(seed):
    model = DPAE(_GRADCHECK_TOY, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.uniform(0.0, 1.0, size=(_GRADCHECK_TOY.p, _GRADCHECK_TOY.l))

    def f():
        latent, _, _ = model.encode(x)
        return T.mean_all(T.square(latent))

    return [("encoder_latent_mse", f, model.params)]


def _gradcheck_full(seed):
    model = DPAE(_GRADCHECK_TOY, seed=seed)
    rng = np.random.default_rng(seed + 2)
    x = rng.uniform(0.0, 1.0, size=(_GRADCHECK_TOY.p, _GRADCHECK_TOY.l))

    def f():
        recon, _, _ = model.reconstruct(x)
        return TR.mse_loss(x, recon)

    return [("encode_decode_mse", f, model.params)]


def cmd_gradcheck(args):
    cfg = resolve_config(args.config, seed=args.seed)
    scopes = ("ops", "encoder", "full") if args.scope == "all" \
        else (args.scope,)
    checks = []
    if "ops" in scopes:
        checks += _gradcheck_ops(cfg.seed)
    if "encoder" in scopes:
        checks += _gradcheck_encoder(cfg.seed)
    if "full" in scopes:
        checks += _gradcheck_full(cfg.seed)

    rows = []
    worst = 0.0
    for name, f, params in checks:
        deep = name in ("encoder_latent_mse", "encode_decode_mse")
        err = T.grad_check(f, params, eps=1e-5,
                           entries_per_param=2 if deep else None,
                           order=4 if deep else 2)
        rows.append({"name": name, "max_rel_err": err,
                     "passed": bool(err <= GRADCHECK_TOLERANCE)})
        worst = max(worst, err)
        status = "ok" if err <= GRADCHECK_TOLERANCE else "FAIL"
        print(f"{name:24s} {err:.3e}  {status}")

    payload = {
        **_stamp(cfg, "gradcheck", {"scope": args.scope,
                                    "tolerance": GRADCHECK_TOLERANCE}),
        "checks": rows,
        "worst": worst,
    }
    if args.out:
        out = _resolve_out(args.out)
        with _DirLock(out):
            _write_json(os.path.join(out, "gradcheck.json"), payload)
    print(f"worst {worst:.3e} (tolerance {GRADCHECK_TOLERANCE:.0e})")
    if worst > GRADCHECK_TOLERANCE:
        raise NumericalFailure(
            f"gradient check failed: {worst:.3e} > {GRADCHECK_TOLERANCE:.0e}")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser():
    parser = _Parser(prog="dpae",
                     description="Transient diagnosis pipeline commands")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None,
                       help="JSON config file; flags override its values")

    p = sub.add_parser("gen-data", help="synthesize a labeled dataset")
    common(p)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--scale", choices=("desk", "paper"), default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-dpae", help="train the autoencoder")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scale", choices=("desk", "paper"), default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--log-every", type=int, default=0)
    p.set_defaults(func=cmd_train_dpae)

    p = sub.add_parser("reconstruct", help="reconstruct one perturbed sample")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--snr", type=float, default=None)
    p.add_argument("--pad", type=float, default=None)
    p.add_argument("--passthrough", action="store_true")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("extract-latents", help="encode every sample")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--snr", type=float, default=None)
    p.add_argument("--pad", type=float, default=None)
    p.add_argument("--clean", action="store_true",
                   help="encode unperturbed matrices")
    p.set_defaults(func=cmd_extract_latents)

    p = sub.add_parser("train-heads", help="fit diagnosis heads")
    common(p)
    p.add_argument("--latents", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--head", choices=("mlp", "forest", "e2e", "all"),
                   default="all")
    p.add_argument("--snr", type=float, default=None)
    p.add_argument("--pad", type=float, default=None)
    p.set_defaults(func=cmd_train_heads)

    p = sub.add_parser("evaluate", help="score heads on fresh perturbations")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--heads", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--snr", type=float, default=None)
    p.add_argument("--pad", type=float, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("explain", help="run the interpretation cascade")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--heads", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--band", default=None, help="size band as lo,hi (cm)")
    p.add_argument("--explain-count", type=int, default=8)
    p.add_argument("--background-size", type=int, default=64)
    p.add_argument("--coalitions", type=int, default=None)
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    common(p)
    p.add_argument("--scope", choices=("ops", "encoder", "full", "all"),
                   default="all")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    try:
        return args.func(args) or 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (NumericalFailure, FloatingPointError,
            np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
