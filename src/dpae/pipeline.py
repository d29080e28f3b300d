"""The experiment loop: perturb a split under a seed stream, encode it, fit
heads on the stepwise (latent) and end-to-end (flattened matrix) routes, and
run the SHAP -> ablation cascade. Callers keep their own tags and head seeds."""

import numpy as np

from . import data as D
from . import heads as H
from . import interpret as I
from .encoder import perturb_patches

# (name, fit, task) of every head; "e2e" heads read flattened matrices.
HEADS = (("mlp_cla", H.fit_mlp_head, "classify"),
         ("mlp_reg", H.fit_mlp_head, "regress"),
         ("forest_cla", H.fit_random_forest, "classify"),
         ("forest_reg", H.fit_random_forest, "regress"),
         ("e2e_cla", H.fit_end_to_end, "classify"),
         ("e2e_reg", H.fit_end_to_end, "regress"))


def perturbed(x, snr_db, ratio_pad, grid, seed, tag, index):
    """Sample `index`'s N x D patches and row mask, perturbed in stream `tag`."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, tag, index)))
    return perturb_patches(x, snr_db, ratio_pad, grid, rng)


def inputs(dataset, idx, grid, snr_db, ratio_pad, seed, tag):
    """The N x D patches of samples `idx`, each perturbed in seed stream `tag`
    (only patchified if `tag` is None), and their diagnosis labels."""
    patches, labels = [], []
    for i in idx:
        s = dataset.samples[i]
        patches.append(D.patchify(s.matrix, grid) if tag is None else
                       perturbed(s.matrix, snr_db, ratio_pad, grid, seed, tag, i)[0])
        labels.append(H.DiagnosisLabel(s.location, s.size_cm))
    return patches, labels


def routes(model, patches):
    """One row per patch set on each route: its eval-mode latent and its
    flattened p x l matrix."""
    latents = np.stack([model.encode(xp)[0].data.reshape(-1) for xp in patches])
    flats = np.stack([D.unpatchify(xp, model.grid).reshape(-1) for xp in patches])
    return latents, flats


def fit_heads(configs, latents, flats, labels):
    """{name: (head, report)} for each {name: HeadConfig}; "e2e" heads fit on
    `flats`, the others on `latents`."""
    fits = {name: (fit, task) for name, fit, task in HEADS}
    return {name: fits[name][0](flats if name.startswith("e2e") else latents,
                                labels, config=config, task=fits[name][1])
            for name, config in configs.items()}


def cascade(model, cla, reg, explained, background, band, shap):
    """Kernel SHAP of both heads at the explained latents, latent importance,
    then the band's ablation: the ImportanceReport. `shap` holds the other
    ShapConfig fields."""
    config = I.ShapConfig(background=background, **shap)
    phis = [[I.kernel_shap(g, z, config).phi for z in explained]
            for g in (I.classifier_fn(cla), I.regressor_fn(reg))]
    return I.parameter_importance(model, band, I.latent_importance(*phis))
