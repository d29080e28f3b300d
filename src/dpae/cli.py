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
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import data as D
from . import heads as H
from . import interpret as I
from . import metrics as M
from . import pipeline as P
from . import tensor as T
from . import training as TR
from .config import ExperimentConfig, resolve_config
from .model import DESK_PROFILE, DPAE, PAPER_PROFILE, ModelProfile

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


class _OutDir:
    """An --out path under $DPAE_OUTPUT_ROOT, held by an exclusive marker
    file while the command writes; concurrent commands on it abort."""

    def __init__(self, path):
        self.path = os.path.join(os.environ.get(OUTPUT_ROOT_ENV, ""), path)
        self.lock = os.path.join(self.path, LOCK_NAME)

    def __enter__(self):
        os.makedirs(self.path, exist_ok=True)
        try:
            self.fd = os.open(self.lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:  # the lock holds its writer's pid; it is never removed here
                with open(self.lock) as f:
                    pid = int(f.read())
                os.kill(pid, 0)
            except ProcessLookupError:
                raise OSError(f"output directory has a stale lock: process "
                              f"{pid} is not running: {self.lock}") from None
            except (OSError, ValueError, OverflowError):
                pass  # unreadable, or held by a process we may not signal
            raise OSError(
                f"output directory is locked by another command: {self.lock}")
        os.write(self.fd, str(os.getpid()).encode())
        return self.path

    def __exit__(self, *exc):
        os.close(self.fd)
        os.unlink(self.lock)


def _sub_seed(seed, tag, index):
    """Deterministic derived integer seed for stream separation."""
    return int(np.random.SeedSequence((seed, tag, index)).generate_state(1)[0])


def _stamp(cfg, command, extra=None):
    doc = {"command": command, "config": asdict(cfg)}
    if extra:
        doc.update(extra)
    return doc


# ---------------------------------------------------------------------------
# shared loading helpers

def _read_latents_csv(path):
    _, rows = D.read_csv(path)
    try:
        Z = np.array([row[:-2] for row in rows], dtype=float)
        labels = [H.DiagnosisLabel(D.Location(loc), float(size))
                  for *_, loc, size in rows]
    except ValueError as e:
        raise IOError(f"{path} is not a latents table: {e}") from None
    return Z, labels


def _load_heads(heads_dir):
    found = {}
    for name, _, _ in P.HEADS:
        path = os.path.join(heads_dir, name)
        if os.path.isdir(path):
            found[name] = H.load_head(path)
    if not found:
        raise UsageError(f"no head checkpoints found under {heads_dir}")
    return found


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(cfg, args):
    profile = cfg.profile()
    dataset = D.normalize(D.generate_dataset(
        cfg.count, seed=cfg.seed, p=profile.p, registry=D.registry_for(profile.l)))
    with _OutDir(args.out) as out:
        D.save_dataset(dataset, out, meta=_stamp(cfg, "gen-data"))
    print(f"wrote {len(dataset.samples)} samples to {out}")


def cmd_train_dpae(cfg, args):
    if cfg.epochs < 1:
        raise UsageError("epochs must be at least 1")
    dataset = D.load_dataset(args.data)
    profile = cfg.profile()
    if (dataset.p, dataset.l) != (profile.p, profile.l):
        raise UsageError(
            f"dataset is {dataset.p}x{dataset.l}, profile expects "
            f"{profile.p}x{profile.l}")
    model = DPAE(profile, seed=cfg.seed)
    train_cfg = TR.TrainConfig(epochs=cfg.epochs, seed=cfg.seed, **cfg.train)
    with _OutDir(args.out) as out:
        history, _ = TR.train(dataset, model, train_cfg, out_dir=out,
                              log_every=args.log_every)
        ckpt = os.path.join(out, "checkpoint_final")
        reloaded, _ = TR.load_checkpoint(ckpt)
        probe = dataset.samples[dataset.indices("train")[0]].matrix
        if not np.array_equal(model.latent_vector(probe),
                              reloaded.latent_vector(probe)):
            raise NumericalFailure("checkpoint reload failed verification")
        D.write_json(os.path.join(out, "run.json"),
                     _stamp(cfg, "train-dpae", {
                         "steps": len(history),
                         "final_loss": history[-1][5],
                         "checkpoint": "checkpoint_final",
                         "verified": True,
                     }))
    print(f"trained {len(history)} steps; final loss {history[-1][5]:.6f}")


def cmd_reconstruct(cfg, args):
    model, _ = TR.load_checkpoint(args.model)
    dataset = D.load_dataset(args.data)
    if not (0 <= args.index < len(dataset.samples)):
        raise UsageError(f"sample index {args.index} out of range")
    x = dataset.samples[args.index].matrix
    names = [c.node_name for c in dataset.registry]

    if args.passthrough:
        xp = D.patchify(x, model.grid)
        mask = np.zeros(model.grid.N, dtype=bool)
    else:
        xp, mask = P.perturbed(x, cfg.snr_db, cfg.ratio_pad, model.grid,
                               cfg.seed, _TAG_RECON, args.index)
    x_pert = D.unpatchify(xp, model.grid)
    recon = model.reconstruct(xp)[0].data
    report = M.reconstruction_report(x, x_pert, recon)

    stamp = _stamp(cfg, "reconstruct", {
        "sample_index": args.index,
        "passthrough": bool(args.passthrough),
    })
    with _OutDir(args.out) as out:
        for name, matrix in (("clean", x), ("perturbed", x_pert),
                             ("reconstructed", recon)):
            D.write_csv(os.path.join(out, f"{name}.csv"), names, matrix,
                        config=stamp["config"])
        D.write_json(os.path.join(out, "report.json"), {
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


def cmd_extract_latents(cfg, args):
    model, _ = TR.load_checkpoint(args.model)
    dataset = D.load_dataset(args.data)

    patches, labels = P.inputs(dataset, range(len(dataset.samples)), model.grid,
                               cfg.snr_db, cfg.ratio_pad, cfg.seed,
                               None if args.clean else _TAG_LATENTS)
    Z, _ = P.routes(model, patches)
    if not np.isfinite(Z).all():
        raise NumericalFailure("non-finite latent encountered")

    stamp = _stamp(cfg, "extract-latents", {"clean": bool(args.clean)})
    with _OutDir(args.out) as out:
        D.write_csv(
            os.path.join(out, "latents.csv"),
            [f"z{i}" for i in range(Z.shape[1])] + ["location", "size_cm"],
            ([*z, lb.location.value, lb.size_cm] for z, lb in zip(Z, labels)),
            config=stamp["config"])
        D.write_json(os.path.join(out, "run.json"),
                     {**stamp, "rows": len(labels)})
    print(f"wrote {len(labels)} latent rows of width {Z.shape[1] + 2}")


def cmd_train_heads(cfg, args):
    # A head's seed offset is its 1-based place in pipeline.HEADS.
    configs = {name: H.HeadConfig(seed=_sub_seed(cfg.seed, _TAG_HEAD, offset),
                                  **cfg.heads)
               for offset, (name, _, _) in enumerate(P.HEADS, 1)
               if args.head in ("all", name.split("_")[0])}
    on_latents = [not name.startswith("e2e") for name in configs]
    if any(on_latents) and not args.latents:
        raise UsageError("--latents is required for mlp/forest heads")

    dataset = D.load_dataset(args.data)
    train_idx = dataset.indices("train")
    latents = flats = None
    if any(on_latents):
        Z, labels = _read_latents_csv(args.latents)
        if len(labels) != len(dataset.samples):
            raise UsageError("latents row count does not match dataset")
        for i, (lb, s) in enumerate(zip(labels, dataset.samples)):
            if (lb.location, lb.size_cm) != (s.location, s.size_cm):
                raise UsageError(f"latents row {i} does not carry the location and "
                                 f"size of the dataset's sample {i}")
        latents, truth = Z[train_idx], [labels[i] for i in train_idx]
    if not all(on_latents):
        # The grid of the profile the dataset was generated at.
        grid = next((pr.grid() for pr in (DESK_PROFILE, PAPER_PROFILE)
                     if (pr.p, pr.l) == (dataset.p, dataset.l)), None)
        if grid is None:
            raise UsageError(f"dataset is {dataset.p}x{dataset.l}, which no "
                             f"profile expects")
        patches, truth = P.inputs(dataset, train_idx, grid, cfg.snr_db,
                                  cfg.ratio_pad, cfg.seed, _TAG_LATENTS)
        flats = [D.unpatchify(xp, grid).reshape(-1) for xp in patches]

    with _OutDir(args.out) as out:
        fitted = P.fit_heads(configs, latents, flats, truth)
        for name, (head, _) in fitted.items():
            H.save_head(head, os.path.join(out, name))
        D.write_json(os.path.join(out, "fit_reports.json"), {
            **_stamp(cfg, "train-heads", {"heads": sorted(fitted)}),
            "reports": {name: asdict(r) for name, (_, r) in fitted.items()},
        })
    print(f"fitted heads: {', '.join(sorted(fitted))}")


def cmd_evaluate(cfg, args):
    model, _ = TR.load_checkpoint(args.model)
    dataset = D.load_dataset(args.data)
    heads = _load_heads(args.heads_dir)
    test_idx = dataset.indices("test")
    if not test_idx:
        raise UsageError("dataset has no test split")

    # One fresh perturbation per sample, shared by both diagnosis routes.
    patches, labels = P.inputs(dataset, test_idx, model.grid, cfg.snr_db,
                               cfg.ratio_pad, cfg.seed, _TAG_EVAL)
    Zs, flats = P.routes(model, patches)
    results = {name: H.score(head, flats if name.startswith("e2e") else Zs, labels)
               for name, head in heads.items()}

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
    with _OutDir(args.out) as out:
        D.write_json(os.path.join(out, "metrics.json"), payload)
    for name in sorted(results):
        keys = results[name]
        line = (f"macro_f1 {keys['macro_f1']:.3f}" if "macro_f1" in keys
                else f"rmse {keys['rmse']:.3f}")
        print(f"{name}: {line}")


def cmd_explain(cfg, args):
    model, _ = TR.load_checkpoint(args.model)
    d = model.profile.latent_dim
    for setting, count, least in (
            ("--coalitions (or shap.coalition_samples)", cfg.shap.get(
                "coalition_samples", I.ShapConfig.coalition_samples), d + 2),
            ("--explain-count", args.explain_count, 1),
            ("--background-size", args.background_size, 1)):
        if count < least:
            raise UsageError(f"{setting} must be at least {least}, got {count}")
    dataset = D.load_dataset(args.data)
    heads = _load_heads(args.heads_dir)
    cla = heads.get("mlp_cla") or heads.get("forest_cla")
    reg = heads.get("mlp_reg") or heads.get("forest_reg")
    if cla is None or reg is None:
        raise UsageError("explain needs one classifier and one regressor head")
    band_samples = I.select_size_band(dataset, band=cfg.size_band)
    if not band_samples:
        raise NumericalFailure(
            f"no samples inside the size band {list(cfg.size_band)} cm")

    rng_bg = np.random.default_rng(
        np.random.SeedSequence((cfg.seed, _TAG_BACKGROUND)))
    train_idx = dataset.indices("train")
    bg_count = min(args.background_size, len(train_idx))
    bg_idx = rng_bg.choice(train_idx, size=bg_count, replace=False)

    rng_pick = np.random.default_rng(
        np.random.SeedSequence((cfg.seed, _TAG_EXPLAIN_PICK)))
    test_idx = dataset.indices("test") or train_idx
    n_explain = min(args.explain_count, len(test_idx))
    chosen = sorted(rng_pick.choice(test_idx, size=n_explain, replace=False))

    # Clean eval-mode latents of the samples read below, each encoded once.
    Z = {i: model.latent_vector(dataset.samples[i].matrix)
         for i in {*bg_idx, *chosen}}
    report = P.cascade(model, cla, reg, [Z[i] for i in chosen],
                       np.stack([Z[i] for i in bg_idx]), band_samples,
                       {"seed": cfg.seed, **cfg.shap})

    names = [c.node_name for c in dataset.registry]
    stamp = _stamp(cfg, "explain", {
        "band": list(cfg.size_band),
        "explained_samples": [int(i) for i in chosen],
        "background_size": bg_count,
        "band_sample_count": len(band_samples),
    })
    with _OutDir(args.out) as out:
        D.write_json(os.path.join(out, "importance.json"), {
            "phi": report.phi,
            "psi": report.psi,
            "ranking": [{"channel": m, "node": names[m], "psi": report.psi[m]}
                        for m in report.ranking],
            "meta": stamp,
        })
        regions = [f"region_{n}" for n in range(report.heatmap.shape[1])]
        D.write_csv(os.path.join(out, "heatmap.csv"), ["node"] + regions,
                    ([name, *row] for name, row in zip(names, report.heatmap)))
        D.write_csv(os.path.join(out, "phi.csv"), ["latent_index", "phi"],
                    enumerate(report.phi), config=stamp["config"])
        rank_of = {ch: r for r, ch in enumerate(report.ranking)}
        D.write_csv(os.path.join(out, "psi.csv"), ["node", "psi", "rank"],
                    ((name, report.psi[m], rank_of[m])
                     for m, name in enumerate(names)),
                    config=stamp["config"])
        band_stack = np.stack(band_samples)
        for r, channel in enumerate(report.ranking[:5]):
            D.write_csv(
                os.path.join(out, f"top{r + 1}_{names[channel]}.csv"),
                [f"sample_{k}" for k in range(len(band_samples))],
                band_stack[:, :, channel].T, config=stamp["config"])
    top = [names[c] for c in report.ranking[:5]]
    print(f"phi length {d} (sum {report.phi.sum():.6f}); top channels: "
          + ", ".join(top))


def _gradcheck_ops(seed):
    rng = np.random.default_rng(seed)
    hdim = 4
    arrays = {
        "a": rng.normal(size=(3, 4)),
        "b": rng.normal(size=(4, 2)),
        "w": rng.normal(size=(5, 3)),
        "bias": rng.normal(size=(1, 3)),
        "gelu": rng.normal(size=(4, 4)),
        "s": rng.normal(size=(3, 5)),  # unchecked; drawn so later inputs stay
        "xn": rng.normal(size=(4, 6)),
        "gn": rng.normal(size=(1, 6)),
        "bn": rng.normal(size=(1, 6)),
        "xl": rng.normal(size=(3, 3)),
        "wih": rng.normal(size=(3, 4 * hdim)) / np.sqrt(3),
        "whh": rng.normal(size=(hdim, 4 * hdim)) / np.sqrt(hdim),
        "bl": np.zeros((1, 4 * hdim)),
        "logits": rng.normal(size=(4, 3)),
    }
    onehot = np.eye(3)[rng.integers(0, 3, size=4)]
    # qkv is 2 heads of width 2.
    params = T.Parameters({**arrays, "qkv": rng.normal(size=(5, 12))})

    def check(name, op, *names):
        probed = {n: params[n] for n in names}
        return name, lambda: T.mse(op(*probed.values()), 0.0), probed

    return [
        check("matmul", T.matmul, "a", "b"),
        check("bias_add", T.add, "w", "bias"),
        check("gelu", T.gelu, "gelu"),
        check("layer_norm", T.layer_norm, "xn", "gn", "bn"),
        check("lstm", T.lstm, "xl", "wih", "whh", "bl"),
        check("attention", lambda qkv: T.attention(qkv, 2), "qkv"),
        ("cross_entropy", lambda: T.cross_entropy_logits(params["logits"], onehot),
         {"logits": params["logits"]}),
    ]


_GRADCHECK_TOY = ModelProfile(p=12, l=2, m=3, depth_enc=1, depth_dec=1,
                              heads=2, latent_dim=5, lstm_hidden=4,
                              head_widths=(4, 4))


def _gradcheck_model(seed, scope):
    """The toy model's latent MSE (scope "encoder") or reconstruction MSE
    ("full") on a uniform input drawn from its own seed."""
    model = DPAE(_GRADCHECK_TOY, seed=seed)
    rng = np.random.default_rng(seed + (1 if scope == "encoder" else 2))
    x = rng.uniform(0.0, 1.0, size=(_GRADCHECK_TOY.p, _GRADCHECK_TOY.l))
    xp = D.patchify(x, model.grid)
    if scope == "encoder":
        return ("encoder_latent_mse",
                lambda: T.mse(model.encode(xp)[0], 0.0), model.params)
    return ("encode_decode_mse",
            lambda: TR.mse_loss(x, model.reconstruct(xp)[0]), model.params)


def cmd_gradcheck(cfg, args):
    scopes = ("ops", "encoder", "full") if args.scope == "all" \
        else (args.scope,)
    checks = _gradcheck_ops(cfg.seed) if "ops" in scopes else []
    checks += [_gradcheck_model(cfg.seed, s) for s in scopes if s != "ops"]

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
        with _OutDir(args.out) as out:
            D.write_json(os.path.join(out, "gradcheck.json"), payload)
    print(f"worst {worst:.3e} (tolerance {GRADCHECK_TOLERANCE:.0e})")
    if worst > GRADCHECK_TOLERANCE:
        raise NumericalFailure(
            f"gradient check failed: {worst:.3e} > {GRADCHECK_TOLERANCE:.0e}")


# ---------------------------------------------------------------------------
# parser

def coalition_samples(text):
    """--coalitions N as the whole shap section: its one settable key."""
    return {"coalition_samples": int(text)}


def size_band(text):
    """--band lo,hi in cm."""
    return [float(v) for v in text.split(",")]


# Every flag once, with its argparse keywords. A flag that sets a config
# field has that field as its dest (metavar keeps the flag's own name), so
# main resolves the config from every parsed command alike.
_FLAGS = {
    "--seed": dict(type=int),
    "--config": dict(help="JSON config file; flags override its values"),
    "--model": dict(required=True),
    "--data": dict(required=True),
    "--heads": dict(required=True, dest="heads_dir", metavar="HEADS"),
    "--out": dict(required=True),
    "--count": dict(type=int),
    "--scale": dict(choices=("desk", "paper")),
    "--epochs": dict(type=int),
    "--log-every": dict(type=int, default=0),
    "--index": dict(type=int, default=0),
    "--snr": dict(type=float, dest="snr_db", metavar="SNR"),
    "--pad": dict(type=float, dest="ratio_pad", metavar="PAD"),
    "--passthrough": dict(action="store_true"),
    "--clean": dict(action="store_true", help="encode unperturbed matrices"),
    "--latents": dict(),
    "--head": dict(choices=("mlp", "forest", "e2e", "all"), default="all"),
    "--band": dict(type=size_band, dest="size_band", metavar="BAND",
                   help="size band as lo,hi (cm)"),
    "--explain-count": dict(type=int, default=8),
    "--background-size": dict(type=int, default=64),
    "--coalitions": dict(type=coalition_samples, dest="shap",
                         metavar="COALITIONS"),
    "--scope": dict(choices=("ops", "encoder", "full", "all"), default="all"),
}

# One row per subcommand: name, function, help, and its flags after
# --seed --config, in order; a trailing "?" makes a required flag optional.
_COMMANDS = (
    ("gen-data", cmd_gen_data, "synthesize a labeled dataset",
     "--count --scale --out"),
    ("train-dpae", cmd_train_dpae, "train the autoencoder",
     "--data --out --scale --epochs --log-every"),
    ("reconstruct", cmd_reconstruct, "reconstruct one perturbed sample",
     "--model --data --out --index --snr --pad --passthrough"),
    ("extract-latents", cmd_extract_latents, "encode every sample",
     "--model --data --out --snr --pad --clean"),
    ("train-heads", cmd_train_heads, "fit diagnosis heads",
     "--latents --data --out --head --snr --pad"),
    ("evaluate", cmd_evaluate, "score heads on fresh perturbations",
     "--model --data --heads --out --snr --pad"),
    ("explain", cmd_explain, "run the interpretation cascade",
     "--model --data --heads --out --band --explain-count --background-size "
     "--coalitions"),
    ("gradcheck", cmd_gradcheck, "finite-difference gradient audit",
     "--scope --out?"),
)


def build_parser():
    parser = _Parser(prog="dpae",
                     description="Transient diagnosis pipeline commands")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, func, summary, flags in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        for flag in ("--seed", "--config", *flags.split()):
            kwargs = dict(_FLAGS[flag.rstrip("?")])
            if flag.endswith("?"):
                kwargs["required"] = False
            p.add_argument(flag.rstrip("?"), **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args.config, **{f.name: getattr(args, f.name, None)
                                             for f in fields(ExperimentConfig)})
        args.func(cfg, args)
        return 0
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
