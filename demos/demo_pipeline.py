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
from dpae import interpret as I
from dpae import metrics as M
from dpae import training as TR
from dpae.encoder import perturb_patches
from dpae.model import DPAE, DESK_PROFILE


def perturb(x, snr_db, ratio_pad, grid, rng):
    return D.unpatchify(perturb_patches(x, snr_db, ratio_pad, grid, rng)[0], grid)


def encode_split(model, ds, idx, seed, tag):
    Z, flats, labels = [], [], []
    for i in idx:
        sample = ds.samples[i]
        rng = np.random.default_rng(np.random.SeedSequence((seed, tag, i)))
        xp = perturb(sample.matrix, 30.0, 0.20, model.grid, rng)
        Z.append(model.latent_vector(xp))
        flats.append(xp.reshape(-1))
        labels.append(H.DiagnosisLabel(sample.location, sample.size_cm))
    return np.stack(Z), np.stack(flats), labels


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
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, 40, i)))
            xp = perturb(x, snr_db, ratio_pad, model.grid, rng)
            recon, _, _ = model.reconstruct(xp)
            report = M.reconstruction_report(x, xp, recon.data)
            ratios.append(report["improvement_ratio"])
        print(f"   snr {snr_db:.0f} dB, {ratio_pad:.0%} masked: "
              f"mean improvement ratio {np.mean(ratios):.2f} "
              f"(>1 means the model beats passing the input through)")
    print()

    print("== 4. diagnosis: latent heads vs end-to-end on raw inputs ==")
    Zt, Ft, yt = encode_split(model, ds, train_idx, seed, tag=41)
    Ze, Fe, ye = encode_split(model, ds, test_idx, seed, tag=42)
    y_cla = [H.CLASS_ORDER.index(lb.location) for lb in ye]
    y_reg = np.array([lb.size_cm for lb in ye])
    scores = {}
    for name, fit, Xt, Xe, kind in (
            ("latent MLP", H.fit_mlp_head, Zt, Ze, "mlp"),
            ("end-to-end", H.fit_end_to_end, Ft, Fe, "end_to_end_mlp")):
        cla, _ = fit(Xt, yt, config=H.HeadConfig(kind=kind, seed=seed),
                     task="classify")
        reg, _ = fit(Xt, yt, config=H.HeadConfig(kind=kind, seed=seed + 1),
                     task="regress")
        pred = np.argmax(np.atleast_2d(H.predict(cla, Xe)), axis=1)
        f1 = M.macro_f1(M.confusion_matrix(y_cla, pred.tolist(), 2))
        rmse = M.rmse(np.atleast_1d(H.predict(reg, Xe)), y_reg)
        scores[name] = (f1, rmse)
        print(f"   {name:11s} location macro-F1 {f1:.3f}   "
              f"size RMSE {rmse:.2f} cm")
    print("   (scores at demo size are noisy; the acceptance suite runs "
          "the full 3-seed comparison)\n")

    print("== 5. interpretation cascade ==")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 43)))
    bg = Zt[rng.choice(len(Zt), size=min(16, len(Zt)), replace=False)]
    cla, _ = H.fit_mlp_head(Zt, yt, config=H.HeadConfig(kind="mlp",
                                                        seed=seed),
                            task="classify")
    reg, _ = H.fit_mlp_head(Zt, yt, config=H.HeadConfig(kind="mlp",
                                                        seed=seed + 1),
                            task="regress")
    cfg = I.ShapConfig(background=bg, coalition_samples=128, seed=seed)
    pick = rng.choice(len(Ze), size=min(3, len(Ze)), replace=False)
    phi_cla = np.stack([I.kernel_shap(I.classifier_fn(cla), Ze[i], cfg).phi
                        for i in pick])
    phi_reg = np.stack([I.kernel_shap(I.regressor_fn(reg), Ze[i], cfg).phi
                        for i in pick])
    phi = I.latent_importance(phi_cla, phi_reg)
    print(f"   latent importance phi: length {phi.size}, "
          f"sum {phi.sum():.6f}, top dims {np.argsort(-phi)[:3].tolist()}")
    band = [s.matrix for s in ds.samples]
    report = I.parameter_importance(model, band[:8], phi)
    names = [c.node_name for c in ds.registry]
    ranked = ", ".join(names[c] for c in report.ranking[:3])
    print(f"   channel importance Psi: length {len(report.psi)}; "
          f"top channels: {ranked}")


if __name__ == "__main__":
    main()
