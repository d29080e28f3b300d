"""Parent parity for the desk command-line chain: a sha256 per artifact.

    python3 tools/parity.py run --out M.json [--repo DIR]
    python3 tools/parity.py compare A.json B.json

`run` runs a fixed desk chain (gen-data with 12 samples, train-dpae for 2
epochs, reconstruct --passthrough, reconstruct --index 3 --snr 25 --pad 0.4,
extract-latents with and without --clean, train-heads --head all, evaluate,
explain --band 0.1,100 --coalitions 64 and gradcheck --scope all, all at seed
0 and with the config file `config.json` written from CONFIG) in a temporary
directory, with the `dpae` package from DIR/src; DIR defaults to the tree this
script is in. It writes the sha256 of every file the chain leaves, by path
relative to that directory, the text gradcheck prints and the loss column of
run/loss_history.csv. It also writes 128 paper-size latents: for seeds 0-15,
DPAE(PAPER_PROFILE, seed) encodes the first 4 samples of a normalized 8-sample
paper dataset of that seed, each clean (`latent_vector`) and then perturbed at
(30 dB, 0.2) by `perturb_patches` from SeedSequence((seed, 1, i)). And it
writes one paper-size `train_step` for seeds 0-3: on a fresh DPAE(PAPER_PROFILE,
seed), the first train sample of the same dataset goes through the default
5-setting schedule with rng SeedSequence((seed, 2)); the record keeps the 5
losses and the sha256 of `params.data` after the step. BLAS runs on one thread.

`compare` prints every file that differs or is missing on one side, the
largest relative difference between the two loss columns when the loss history
differs, the same for the paper latents and for the paper train losses when
they differ, and the lines of the gradcheck output that differ; it exits 1 if
there is any. Its last line counts the identical files and says whether the
gradcheck output, the loss column, the paper latents and the paper train step
are identical.

To check a change against its parent commit, run `run` on a copy of each
tree (for example `git worktree add ../parent HEAD~1`, then `--repo
../parent`) and compare the two files.
"""

import argparse
import csv
import difflib
import hashlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CKPT = "run/checkpoint_final"
LOSSES = "run/loss_history.csv"
SEED = "0"

# The config file every chain command reads, so that each artifact's stamp
# records a resolved train and heads section. The curriculum is the default one
# with integer SNRs, which the loss history still writes as floats; a shorter
# one leaves 2 epochs too few for the perturbed reconstruct to beat identity.
CONFIG = {
    "train": {"lr_ini": 0.002,
              "curriculum": [[20, 0.4], [35, 0.25], [40, 0.1], [30, 0.2], [30, 0.2]]},
    "heads": {"tree_count": 10},
}

# Prints the paper latents described above as one JSON list of 128 vectors.
PAPER_LATENTS = """
import json
import numpy as np
from dpae import data as D
from dpae.encoder import perturb_patches
from dpae.model import DPAE, PAPER_PROFILE as P
vectors = []
for seed in range(16):
    model = DPAE(P, seed)
    ds = D.normalize(D.generate_dataset(8, seed, p=P.p,
                                        registry=D.registry_for(P.l)))
    for i, sample in enumerate(ds.samples[:4]):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1, i)))
        xp, _ = perturb_patches(sample.matrix, 30.0, 0.2, model.grid, rng)
        vectors.append(model.latent_vector(sample.matrix).tolist())
        vectors.append(model.encode(xp)[0].data.reshape(-1).tolist())
print(json.dumps(vectors))
"""

# Prints the paper train steps described above as one JSON object.
PAPER_TRAIN = """
import hashlib, json
import numpy as np
from dpae import data as D
from dpae import training as TR
from dpae.model import DPAE, PAPER_PROFILE as P
losses, digests = [], []
for seed in range(4):
    model = DPAE(P, seed)
    ds = D.normalize(D.generate_dataset(8, seed, p=P.p,
                                        registry=D.registry_for(P.l)))
    x = ds.samples[ds.indices("train")[0]].matrix
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    losses.append(TR.train_step(x, model, TR.NAdamState(model.params),
                                TR.TrainConfig(seed=seed), rng))
    digests.append(hashlib.sha256(model.params.data.tobytes()).hexdigest())
print(json.dumps({"losses": losses, "params_sha256": digests}))
"""

CHAIN = (
    ("gen-data", "--out", "data", "--count", "12", "--scale", "desk"),
    ("train-dpae", "--data", "data", "--out", "run", "--scale", "desk",
     "--epochs", "2"),
    ("reconstruct", "--model", CKPT, "--data", "data", "--out", "rec",
     "--passthrough"),
    ("reconstruct", "--model", CKPT, "--data", "data", "--out",
     "rec_perturbed", "--index", "3", "--snr", "25", "--pad", "0.4"),
    ("extract-latents", "--model", CKPT, "--data", "data", "--out", "lat"),
    ("extract-latents", "--model", CKPT, "--data", "data", "--out",
     "lat_clean", "--clean"),
    ("train-heads", "--latents", "lat/latents.csv", "--data", "data",
     "--out", "heads", "--head", "all"),
    ("evaluate", "--model", CKPT, "--data", "data", "--heads", "heads",
     "--out", "eval"),
    ("explain", "--model", CKPT, "--data", "data", "--heads", "heads",
     "--out", "exp", "--band", "0.1,100", "--coalitions", "64"),
    ("gradcheck", "--scope", "all", "--out", "grad"),
)


def run_chain(repo):
    """{"files": {relative path: sha256}, "gradcheck_stdout": text,
    "losses": the loss column of the training history,
    "paper_latents": 128 latent vectors, "paper_train": {"losses": 4 x 5
    losses, "params_sha256": 4 digests}}."""
    env = {k: v for k, v in os.environ.items() if k != "DPAE_OUTPUT_ROOT"}
    env["PYTHONPATH"] = os.path.join(os.path.abspath(repo), "src")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory(prefix="dpae-parity-") as work:
        with open(os.path.join(work, "config.json"), "w") as fh:
            json.dump(CONFIG, fh)
        for argv in CHAIN:
            proc = subprocess.run(
                [sys.executable, "-m", "dpae.cli", *argv, "--seed", SEED,
                 "--config", "config.json"],
                cwd=work, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{argv[0]} exited {proc.returncode}:\n{proc.stderr}")
        files = {}
        for root, _, names in os.walk(work):
            for name in names:
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                files[os.path.relpath(path, work)] = digest
        with open(os.path.join(work, LOSSES), newline="") as fh:
            rows = csv.DictReader(ln for ln in fh if not ln.startswith("#"))
            losses = [float(row["loss"]) for row in rows]
        paper = {}
        for key, script in (("paper_latents", PAPER_LATENTS),
                            ("paper_train", PAPER_TRAIN)):
            out = subprocess.run([sys.executable, "-c", script], cwd=work,
                                 env=env, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{key} exited {out.returncode}:\n{out.stderr}")
            paper[key] = json.loads(out.stdout)
    return {"files": dict(sorted(files.items())),
            "gradcheck_stdout": proc.stdout, "losses": losses, **paper}


def compare(a, b):
    """Lines that name each file differing or missing on one side (the loss
    history with its largest relative loss difference), the paper latents and
    the paper train step when they differ, then the gradcheck output lines
    that differ."""
    lines = []
    for path in sorted(a["files"].keys() | b["files"].keys()):
        if path not in b["files"]:
            lines.append(f"only in A: {path}")
        elif path not in a["files"]:
            lines.append(f"only in B: {path}")
        elif a["files"][path] != b["files"][path]:
            lines.append(f"differs: {path}")
            if path == LOSSES:
                lines.append(difference("losses", a.get("losses"),
                                        b.get("losses"), "rows"))
    if a.get("paper_latents") != b.get("paper_latents"):
        lines.append("differs: paper latents")
        lines.append(difference("paper latents", a.get("paper_latents"),
                                b.get("paper_latents"), "vectors"))
    if a.get("paper_train") != b.get("paper_train"):
        lines.append("differs: paper train")
        lines.append(difference("paper train losses", *(
            doc.get("paper_train", {}).get("losses") for doc in (a, b)), "seeds"))
    if a["gradcheck_stdout"] != b["gradcheck_stdout"]:
        lines.append("differs: gradcheck stdout")
        lines += difflib.unified_diff(
            a["gradcheck_stdout"].splitlines(),
            b["gradcheck_stdout"].splitlines(), "A", "B", lineterm="")
    return lines


def difference(label, a, b, unit):
    """The largest |x - y| / max(|x|, |y|) over two columns of numbers or of
    vectors, as a line. A record from before the column was kept has None."""
    missing = [side for side, col in (("A", a), ("B", b)) if col is None]
    if missing:
        return f"  {label}: not recorded in {' and '.join(missing)}"
    if len(a) != len(b):
        return f"  {label}: {len(a)} {unit} in A, {len(b)} in B"
    pairs = [pair for u, v in zip(a, b)
             for pair in (zip(u, v) if isinstance(u, list) else [(u, v)])]
    worst = max((abs(x - y) / max(abs(x), abs(y)) for x, y in pairs if x != y),
                default=0.0)
    return (f"  {label}: largest relative difference {worst:.3g} "
            f"over {len(a)} {unit}")


def verdict(docs, key):
    """Whether two records agree on one kept value, or that one lacks it."""
    if any(key not in doc for doc in docs):
        return "not recorded"
    return "identical" if docs[0][key] == docs[1][key] else "different"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run", help="run the desk chain and hash its files")
    p.add_argument("--out", required=True)
    p.add_argument("--repo", default=HERE,
                   help="tree whose src/ to run (default: this one)")
    p = sub.add_parser("compare", help="list the files two runs disagree on")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)

    if args.mode == "run":
        record = run_chain(args.repo)
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"hashed {len(record['files'])} files into {args.out}")
        return 0
    docs = []
    for path in (args.a, args.b):
        with open(path) as fh:
            docs.append(json.load(fh))
    lines = compare(*docs)
    for line in lines:
        print(line)
    a, b = (doc["files"] for doc in docs)
    same = sum(a[path] == b.get(path) for path in a)
    verdicts = [f"{label} {verdict(docs, key)}" for label, key in (
        ("gradcheck stdout", "gradcheck_stdout"), ("loss column", "losses"),
        ("paper latents", "paper_latents"), ("paper train", "paper_train"))]
    print(f"{same} of {len(a.keys() | b.keys())} files identical; "
          + "; ".join(verdicts))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
