"""Interpretation oracles: Shapley axioms, kernel fit, ablation cascade."""

import json

import numpy as np
import pytest

from dpae import heads as H
from dpae import interpret as I
from dpae.data import Location
from dpae.model import DPAE, DESK_PROFILE, PAPER_PROFILE, ModelProfile

TINY = ModelProfile(p=16, l=2, m=4, depth_enc=1, depth_dec=1, heads=2,
                    latent_dim=6, lstm_hidden=5, head_widths=(5, 6))


class TestExactShapley:
    def test_linear_model_closed_form(self):
        rng = np.random.default_rng(0)
        background = rng.normal(size=(20, 2))
        mu = background.mean(axis=0)
        x = np.array([2.0, 5.0])

        def g(X):
            return 3.0 * X[:, 0] + X[:, 1]

        res = I.exact_shapley(g, x, background)
        assert abs(res.phi[0] - 3.0 * (x[0] - mu[0])) < 1e-9
        assert abs(res.phi[1] - (x[1] - mu[1])) < 1e-9
        assert abs(res.base_value - (3.0 * mu[0] + mu[1])) < 1e-9

    def test_constant_model(self):
        background = np.random.default_rng(1).normal(size=(8, 3))
        res = I.exact_shapley(lambda X: np.full(X.shape[0], 4.25),
                              np.zeros(3), background)
        np.testing.assert_allclose(res.phi, 0.0, atol=1e-15)
        assert res.base_value == 4.25

    def test_symmetry_axiom(self):
        background = np.array([[0.3, 0.7], [0.7, 0.3], [0.2, 0.2]])
        res = I.exact_shapley(lambda X: X[:, 0] + X[:, 1],
                              np.array([1.0, 1.0]), background)
        assert abs(res.phi[0] - res.phi[1]) < 1e-12

    def test_dummy_axiom_exact_zero(self):
        rng = np.random.default_rng(2)
        background = rng.normal(size=(10, 4))
        res = I.exact_shapley(lambda X: X[:, 0] ** 2 + 2.0 * X[:, 1],
                              rng.normal(size=4), background)
        assert abs(res.phi[2]) < 1e-15
        assert abs(res.phi[3]) < 1e-15

    def test_efficiency_on_nonlinear_model(self):
        rng = np.random.default_rng(3)
        background = rng.normal(size=(12, 5))
        x = rng.normal(size=5)

        def g(X):
            return X[:, 0] * X[:, 1] + np.tanh(X[:, 2]) - 0.5 * X[:, 4] ** 2

        res = I.exact_shapley(g, x, background)
        assert abs(res.base_value + res.phi.sum() - g(x[None, :])[0]) < 1e-12
        assert res.residual < 1e-12

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            I.exact_shapley(lambda X: X.sum(axis=1), np.zeros(16),
                            np.zeros((4, 16)))


def forest_toy(d=8, seed=4):
    rng = np.random.default_rng(seed)
    latents, labels = [], []
    for center, loc in ((0.0, Location.COLD_LEG), (3.0, Location.HOT_LEG)):
        for _ in range(16):
            latents.append(center + rng.normal(size=d))
            labels.append(H.DiagnosisLabel(location=loc, size_cm=1.0))
    forest, _ = H.fit_random_forest(
        latents, labels,
        config=H.HeadConfig(kind="random_forest", tree_count=20, seed=seed),
        task="classify")
    return np.stack(latents), forest


class TestKernelShap:
    def test_exact_mode_matches_enumeration_on_forest(self):
        X, forest = forest_toy(d=8)
        g = I.classifier_fn(forest, class_index=1)
        background = X[::2][:16]
        x = X[1]
        exact = I.exact_shapley(g, x, background)
        kernel = I.kernel_shap(
            g, x, I.ShapConfig(background=background, exact_mode=True))
        np.testing.assert_allclose(kernel.phi, exact.phi, atol=1e-6)
        assert abs(kernel.base_value - exact.base_value) < 1e-12

    def test_exact_mode_matches_on_nonlinear_function(self):
        rng = np.random.default_rng(5)
        background = rng.normal(size=(16, 6))
        x = rng.normal(size=6)

        def g(X):
            return np.sin(X[:, 0]) + X[:, 1] * X[:, 2] + 0.3 * X[:, 5]

        exact = I.exact_shapley(g, x, background)
        kernel = I.kernel_shap(
            g, x, I.ShapConfig(background=background, exact_mode=True))
        np.testing.assert_allclose(kernel.phi, exact.phi, atol=1e-6)

    def test_local_accuracy_in_sampling_mode(self):
        rng = np.random.default_rng(6)
        background = rng.normal(size=(8, 6))
        x = rng.normal(size=6)

        def g(X):
            return np.cos(X[:, 1]) + X[:, 3] ** 2

        res = I.kernel_shap(
            g, x, I.ShapConfig(background=background, coalition_samples=128,
                               seed=7))
        assert res.residual < 1e-9
        assert abs(res.base_value + res.phi.sum() - g(x[None, :])[0]) < 1e-9

    def test_dummy_axiom_exact_mode(self):
        rng = np.random.default_rng(8)
        background = rng.normal(size=(10, 5))
        x = rng.normal(size=5)
        res = I.kernel_shap(
            lambda X: X[:, 0] - 2.0 * X[:, 3],
            x, I.ShapConfig(background=background, exact_mode=True))
        assert abs(res.phi[1]) < 1e-6
        assert abs(res.phi[2]) < 1e-6
        assert abs(res.phi[4]) < 1e-6

    def test_sampling_deterministic_for_seed(self):
        rng = np.random.default_rng(9)
        background = rng.normal(size=(8, 5))
        x = rng.normal(size=5)

        def g(X):
            return X[:, 0] * X[:, 4]

        cfg = dict(background=background, coalition_samples=64, seed=11)
        a = I.kernel_shap(g, x, I.ShapConfig(**cfg))
        b = I.kernel_shap(g, x, I.ShapConfig(**cfg))
        np.testing.assert_array_equal(a.phi, b.phi)

    def test_minimum_sample_budget_enforced(self):
        background = np.zeros((4, 6))
        with pytest.raises(ValueError):
            I.kernel_shap(lambda X: X.sum(axis=1), np.ones(6),
                          I.ShapConfig(background=background,
                                       coalition_samples=7))

    def test_background_width_checked(self):
        with pytest.raises(ValueError):
            I.kernel_shap(lambda X: X.sum(axis=1), np.ones(4),
                          I.ShapConfig(background=np.zeros((4, 3))))

    def test_singular_system_exhausts_retries(self, monkeypatch):
        calls = []

        def degenerate(rng, d, count):
            calls.append(count)
            bits = np.zeros((count, d), dtype=bool)
            bits[:, 0] = True
            return bits

        monkeypatch.setattr(I, "_sample_coalitions", degenerate)
        with pytest.raises(np.linalg.LinAlgError):
            I.kernel_shap(lambda X: X.sum(axis=1), np.ones(4),
                          I.ShapConfig(background=np.zeros((2, 4)),
                                       coalition_samples=8))
        assert calls == [8, 16, 32, 64]

    def test_singular_system_recovers_after_retry(self, monkeypatch):
        real = I._sample_coalitions
        calls = []

        def flaky(rng, d, count):
            calls.append(count)
            if len(calls) == 1:
                bits = np.zeros((count, d), dtype=bool)
                bits[:, 0] = True
                return bits
            return real(rng, d, count)

        monkeypatch.setattr(I, "_sample_coalitions", flaky)
        res = I.kernel_shap(
            lambda X: X.sum(axis=1), np.ones(4),
            I.ShapConfig(background=np.zeros((2, 4)), coalition_samples=16))
        assert calls == [16, 32]
        assert res.residual < 1e-9


class TestLatentImportance:
    def test_uniform_attributions(self):
        phi = I.latent_importance(np.ones((3, 4)), np.ones((3, 4)))
        np.testing.assert_allclose(phi, 0.25, atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(12)
        phi = I.latent_importance(rng.normal(size=(5, 7)),
                                  rng.normal(size=(5, 7)))
        assert abs(phi.sum() - 1.0) < 1e-12
        assert np.all(phi >= 0.0)

    def test_hand_arithmetic_oracle(self):
        cla = np.array([[1.0, -2.0, 0.0], [0.5, 0.0, 1.0]])
        reg = np.array([[-1.0, 1.0, 0.5], [0.0, 2.0, 0.5]])
        phi = I.latent_importance(cla, reg)
        expected = np.array([2.5, 5.0, 2.0]) / 9.5
        np.testing.assert_allclose(phi, expected, atol=1e-15)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            I.latent_importance(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            I.latent_importance(np.ones((2, 3)), np.ones((2, 4)))


class TestAblation:
    def test_region_geometry_at_both_scales(self):
        desk = DPAE(DESK_PROFILE, seed=0)
        assert I.region_grid(desk) == (10, 8)
        paper = DPAE(PAPER_PROFILE, seed=0)
        assert I.region_grid(paper) == (20, 10)

    def test_constant_baseline_region_gives_zero(self):
        model = DPAE(TINY, seed=13)
        rng = np.random.default_rng(14)
        x = rng.uniform(0.2, 0.8, size=(TINY.p, TINY.l))
        h, _ = I.region_grid(model)
        x[0:h, 0] = 0.5
        phi = np.full(TINY.latent_dim, 1.0 / TINY.latent_dim)
        omega = I.parameter_importance(model, [x], phi).omega[0, 0]
        np.testing.assert_allclose(omega, 0.0, atol=1e-15)

    def test_matches_two_independent_passes(self):
        model = DPAE(TINY, seed=15)
        rng = np.random.default_rng(16)
        x = rng.uniform(0.0, 1.0, size=(TINY.p, TINY.l))
        h, _ = I.region_grid(model)
        phi = np.full(TINY.latent_dim, 1.0 / TINY.latent_dim)
        omega = I.parameter_importance(model, [x], phi).omega[1, 3]

        ablated = x.copy()
        ablated[3 * h:4 * h, 1] = 0.5
        expected = np.abs(model.latent_vector(ablated) - model.latent_vector(x))
        np.testing.assert_array_equal(omega, expected)


class TestParameterImportance:
    def test_hand_arithmetic_oracle(self):
        omega = np.zeros((2, 2, 3))
        omega[0, 0] = [1.0, 0.0, 2.0]
        omega[0, 1] = [0.0, 1.0, 0.0]
        omega[1, 0] = [3.0, 0.0, 0.0]
        phi = np.array([0.5, 0.3, 0.2])
        heatmap, psi, ranking = I.psi_from_omega(omega, phi)
        np.testing.assert_allclose(heatmap,
                                   [[0.9, 0.3], [1.5, 0.0]], atol=1e-15)
        np.testing.assert_allclose(psi, [1.2, 1.5], atol=1e-15)
        assert ranking == [1, 0]

    def test_single_hotspot_yields_single_component(self):
        omega = np.zeros((3, 2, 4))
        omega[2, 1, 0] = 5.0
        phi = np.full(4, 0.25)
        _, psi, _ = I.psi_from_omega(omega, phi)
        assert psi[2] > 0.0
        assert psi[0] == psi[1] == 0.0

    def test_full_run_shapes_and_order_invariance(self):
        model = DPAE(TINY, seed=20)
        rng = np.random.default_rng(21)
        samples = [rng.uniform(0.0, 1.0, size=(TINY.p, TINY.l))
                   for _ in range(3)]
        phi = np.full(TINY.latent_dim, 1.0 / TINY.latent_dim)
        rep = I.parameter_importance(model, samples, phi)

        h, n_regions = I.region_grid(model)
        assert rep.psi.shape == (TINY.l,)
        assert rep.omega.shape == (TINY.l, n_regions, TINY.latent_dim)
        assert sorted(rep.ranking) == list(range(TINY.l))
        heatmap, psi, _ = I.psi_from_omega(rep.omega, phi)
        np.testing.assert_array_equal(rep.heatmap, heatmap)

        rev = I.parameter_importance(model, samples[::-1], phi)
        np.testing.assert_allclose(rev.psi, rep.psi, atol=1e-12)

    def test_omega_signed_consistency(self):
        model = DPAE(TINY, seed=22)
        rng = np.random.default_rng(23)
        samples = [rng.uniform(0.0, 1.0, size=(TINY.p, TINY.l))]
        phi = np.full(TINY.latent_dim, 1.0 / TINY.latent_dim)
        rep = I.parameter_importance(model, samples, phi)
        np.testing.assert_allclose(np.abs(rep.omega_signed), rep.omega,
                                   atol=1e-15)

    def test_empty_samples_rejected(self):
        model = DPAE(TINY, seed=24)
        with pytest.raises(ValueError):
            I.parameter_importance(model, [],
                                   np.full(TINY.latent_dim,
                                           1.0 / TINY.latent_dim))

    def test_unnormalized_phi_rejected(self):
        model = DPAE(TINY, seed=25)
        x = np.zeros((TINY.p, TINY.l))
        with pytest.raises(ValueError):
            I.parameter_importance(model, [x], np.ones(TINY.latent_dim))


class TestSizeBand:
    def test_band_selection(self):
        from dpae import data as D
        ds = D.generate_dataset(16, seed=26, p=TINY.p,
                                registry=D.registry_for(TINY.l))
        band = (5.0, 20.0)
        chosen = I.select_size_band(ds, band=band)
        expected = [s.matrix for s in ds.samples
                    if band[0] <= s.size_cm <= band[1]]
        assert len(chosen) == len(expected)
        for a, b in zip(chosen, expected):
            np.testing.assert_array_equal(a, b)

    def test_split_filter(self):
        from dpae import data as D
        ds = D.generate_dataset(16, seed=27, p=TINY.p,
                                registry=D.registry_for(TINY.l))
        full_band = (0.0, 100.0)
        train_only = I.select_size_band(ds, band=full_band, split="train")
        assert len(train_only) == len(ds.indices("train"))


class TestReportSerialization:
    def test_roundtrip(self, tmp_path):
        report = I.ImportanceReport(
            phi=np.array([0.6, 0.4]),
            omega=np.ones((2, 3, 2)),
            omega_signed=np.ones((2, 3, 2)),
            heatmap=np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
            psi=np.array([6.0, 15.0]),
            ranking=[1, 0],
        )
        names = ["node_a", "node_b"]
        I.write_importance_report(tmp_path, report, names,
                                  meta={"seed": 0})
        doc = json.loads((tmp_path / "importance.json").read_text())
        assert doc["ranking"][0]["node"] == "node_b"
        assert doc["phi"] == [0.6, 0.4]
        lines = (tmp_path / "heatmap.csv").read_text().splitlines()
        assert lines[0] == "node,region_0,region_1,region_2"
        assert lines[1].startswith("node_a,")
        assert len(lines) == 3
