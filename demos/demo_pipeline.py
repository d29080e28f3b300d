"""End-to-end walkthrough: synthesize, train, reconstruct, diagnose, explain.

A compressed version of the full experiment at a size that finishes in
about a minute on one CPU core. Stages:
  1. synthesize a small labeled transient dataset and normalize it;
  2. train the denoising autoencoder on the perturbation schedule;
  3. reconstruct noisy, partially masked test transients and compare
     against the do-nothing baseline;
  4. extract latents, fit the latent-space diagnosis heads, and score them
     against an end-to-end model on identical perturbations;
  5. run the interpretation cascade down to per-channel importance.

Run: python3 demos/demo_pipeline.py [--seed N] [--events N] [--epochs N]
"""

import argparse
import time

import numpy as np

from dpae import data as D
from dpae import heads as H
from dpae import metrics as M
from dpae import pipeline as P
from dpae import training as TR
from dpae.model import DPAE, DESK_PROFILE


def encode_split(model, ds, idx, seed, tag):
    patches, labels = P.inputs(ds, idx, model.grid, 30.0, 0.20, seed, tag)
    return (*P.routes(model, patches), labels)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--events", type=int, default=48)
    parser.add_argument("--epochs", type=int, default=60)
    args = parser.parse_args()
    seed = args.seed

    print(f"== 1. synthesize {args.events} transients "
          f"({DESK_PROFILE.p} steps x {DESK_PROFILE.l} channels) ==")
    ds = D.generate_dataset(args.events, seed=seed, p=DESK_PROFILE.p,
                            registry=D.registry_for(DESK_PROFILE.l))
    ds = D.normalize(ds)
    train_idx = ds.indices("train")
    test_idx = ds.indices("test")
    print(f"   split: {len(train_idx)} train / {len(test_idx)} test\n")

    print(f"== 2. train the autoencoder ({args.epochs} epochs, "
          f"5-setting perturbation schedule) ==")
    model = DPAE(DESK_PROFILE, seed=seed)
    t0 = time.monotonic()
    history, _ = TR.train(ds, model,
                          TR.TrainConfig(epochs=args.epochs, seed=seed))
    losses = [row[5] for row in history]
    per_epoch = len(train_idx) * 5
    print(f"   {len(history)} optimizer steps in "
          f"{time.monotonic() - t0:.0f}s")
    print(f"   mean loss, first epoch {np.mean(losses[:per_epoch]):.4f} "
          f"-> last epoch {np.mean(losses[-per_epoch:]):.4f}\n")

    print("== 3. reconstruction vs the do-nothing baseline ==")
    for snr_db, ratio_pad in ((30.0, 0.20), (25.0, 0.40)):
        ratios = []
        for i in test_idx:
            x = ds.samples[i].matrix
            xp, _ = P.perturbed(x, snr_db, ratio_pad, model.grid, seed, 40, i)
            recon, _ = model.reconstruct(xp)
            report = M.reconstruction_report(
                x, D.unpatchify(xp, model.grid), recon.data)
            ratios.append(report["improvement_ratio"])
        print(f"   snr {snr_db:.0f} dB, {ratio_pad:.0%} masked: "
              f"mean improvement ratio {np.mean(ratios):.2f} "
              f"(>1 means the model beats passing the input through)")
    print()

    print("== 4. diagnosis: latent heads vs end-to-end on raw inputs ==")
    Zt, Ft, yt = encode_split(model, ds, train_idx, seed, tag=41)
    Ze, Fe, ye = encode_split(model, ds, test_idx, seed, tag=42)
    configs = {f"{route}_{task}": H.HeadConfig(seed=seed + k)
               for route in ("mlp", "e2e") for k, task in enumerate(("cla", "reg"))}
    heads = {name: head for name, (head, _) in
             P.fit_heads(configs, Zt, Ft, yt).items()}
    for name, route, Xe in (("latent MLP", "mlp", Ze), ("end-to-end", "e2e", Fe)):
        f1 = H.score(heads[f"{route}_cla"], Xe, ye)["macro_f1"]
        rmse = H.score(heads[f"{route}_reg"], Xe, ye)["rmse"]
        print(f"   {name:11s} location macro-F1 {f1:.3f}   "
              f"size RMSE {rmse:.2f} cm")
    print("   (scores at demo size are noisy; the acceptance suite runs "
          "the full 3-seed comparison)\n")

    print("== 5. interpretation cascade ==")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 43)))
    bg = Zt[rng.choice(len(Zt), size=min(16, len(Zt)), replace=False)]
    pick = rng.choice(len(Ze), size=min(3, len(Ze)), replace=False)
    report = P.cascade(model, heads["mlp_cla"], heads["mlp_reg"], Ze[pick], bg,
                       [s.matrix for s in ds.samples[:8]],
                       {"coalition_samples": 128, "seed": seed})
    phi = report.phi
    print(f"   latent importance phi: length {phi.size}, "
          f"sum {phi.sum():.6f}, top dims {np.argsort(-phi)[:3].tolist()}")
    names = [c.node_name for c in ds.registry]
    ranked = ", ".join(names[c] for c in report.ranking[:3])
    print(f"   channel importance Psi: length {len(report.psi)}; "
          f"top channels: {ranked}")


if __name__ == "__main__":
    main()
