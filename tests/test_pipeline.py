"""The shared experiment loop: each step equals the calls it stands for."""

from dataclasses import asdict

import numpy as np
import pytest

from dpae import data as D
from dpae import heads as H
from dpae import interpret as I
from dpae import pipeline as P
from dpae.encoder import perturb_patches
from dpae.model import DPAE, DESK_PROFILE

SEED, TAG = 5, 9


@pytest.fixture(scope="module")
def desk():
    dataset = D.normalize(D.generate_dataset(
        16, seed=3, p=DESK_PROFILE.p, registry=D.registry_for(DESK_PROFILE.l)))
    model = DPAE(DESK_PROFILE, seed=0)
    idx = dataset.indices("train")
    patches, labels = P.inputs(dataset, idx, model.grid, 30.0, 0.2, SEED, TAG)
    latents, flats = P.routes(model, patches)
    return dataset, model, idx, patches, labels, latents, flats


def test_inputs_and_routes_match_the_per_sample_calls(desk):
    dataset, model, idx, patches, labels, latents, flats = desk
    assert latents.shape == (len(idx), DESK_PROFILE.latent_dim)
    assert flats.shape == (len(idx), DESK_PROFILE.p * DESK_PROFILE.l)
    for row, i in enumerate(idx):
        s = dataset.samples[i]
        rng = np.random.default_rng(np.random.SeedSequence((SEED, TAG, i)))
        xp, _ = perturb_patches(s.matrix, 30.0, 0.2, model.grid, rng)
        x = D.unpatchify(xp, model.grid)
        assert np.array_equal(patches[row], xp)
        assert np.array_equal(latents[row], model.latent_vector(x))
        assert np.array_equal(flats[row], x.reshape(-1))
        assert labels[row] == H.DiagnosisLabel(s.location, s.size_cm)

    clean, _ = P.inputs(dataset, idx, model.grid, 30.0, 0.2, SEED, None)
    for xp, i in zip(clean, idx):
        assert np.array_equal(xp, D.patchify(dataset.samples[i].matrix,
                                             model.grid))


def test_fit_heads_fits_only_the_named_heads_each_on_its_route(desk):
    _, _, _, _, labels, latents, flats = desk
    configs = {"mlp_reg": H.HeadConfig(max_epochs=5, seed=1),
               "forest_cla": H.HeadConfig(tree_count=3, max_depth=3, seed=2),
               "e2e_cla": H.HeadConfig(max_epochs=5, seed=3)}
    fitted = P.fit_heads(configs, latents, flats, labels)
    assert list(fitted) == list(configs)
    for name, fit, X in (("mlp_reg", H.fit_mlp_head, latents),
                         ("forest_cla", H.fit_random_forest, latents),
                         ("e2e_cla", H.fit_end_to_end, flats)):
        task = "regress" if name.endswith("reg") else "classify"
        head, report = fitted[name]
        want, want_report = fit(X, labels, config=configs[name], task=task)
        assert head.task == task
        assert np.array_equal(H.predict(head, X), H.predict(want, X))
        assert asdict(report) == asdict(want_report)

    # A route that no named head reads may be left out.
    assert list(P.fit_heads({"mlp_cla": H.HeadConfig(max_epochs=5)}, latents,
                            None, labels)) == ["mlp_cla"]


def test_cascade_is_shap_then_latent_then_parameter_importance(desk):
    dataset, model, _, _, labels, latents, flats = desk
    fitted = P.fit_heads({"mlp_cla": H.HeadConfig(max_epochs=5, seed=1),
                          "forest_reg": H.HeadConfig(tree_count=3, seed=2)},
                         latents, flats, labels)
    cla, reg = fitted["mlp_cla"][0], fitted["forest_reg"][0]
    explained, background = latents[:2], latents[2:6]
    band = [s.matrix for s in dataset.samples[:2]]
    report = P.cascade(model, cla, reg, explained, background, band,
                       {"coalition_samples": 40, "seed": 4})

    config = I.ShapConfig(background=background, coalition_samples=40, seed=4)
    phi = I.latent_importance(
        np.stack([I.kernel_shap(I.classifier_fn(cla), z, config).phi
                  for z in explained]),
        np.stack([I.kernel_shap(I.regressor_fn(reg), z, config).phi
                  for z in explained]))
    want = I.parameter_importance(model, band, phi)
    for key in ("phi", "omega", "heatmap", "psi"):
        assert np.array_equal(getattr(report, key), getattr(want, key)), key
    assert report.ranking == want.ranking
