"""Dataset synthesis, normalization, noise, and patch pipeline tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpae import data as D
from dpae.encoder import perturb_patches


class TestRegistry:
    def test_exactly_38_channels(self):
        reg = D.default_registry()
        assert len(reg) == 38
        assert [c.index for c in reg] == list(range(38))

    def test_expected_node_names_present(self):
        names = {c.node_name for c in D.default_registry()}
        expected = {
            "tempf_505010000", "mflowj_505010000", "cntrlvar_11",
            "mflowj_566010000", "mflowj_537000000", "p_540010000",
            "p_850010000", "voidf_811010000", "p_810010000",
            "mflowj_811010000", "mflowj_806000000", "rktpow",
            "cntrlvar_100", "tempf_138010000", "tempf_155010000",
            "cntrlvar_2", "p_155010000", "p_260010000", "cntrlvar_42",
            "cntrlvar_121", "tempf_200010000", "tempf_300010000",
            "tempf_400010000", "tempf_250010000", "tempf_350010000",
            "tempf_450010000", "cntrlvar_101", "cntrlvar_102",
            "cntrlvar_103", "pmpvel_235", "pmpvel_335", "pmpvel_435",
            "tempf_270010000", "tempf_270050000", "tempg_260010000",
            "tempf_262010000", "tempg_281010000", "voidf_200010000",
        }
        assert names == expected

    def test_sensitivities_in_unit_interval(self):
        for c in D.default_registry():
            assert 0.0 <= c.location_sensitivity <= 1.0
            assert 0.0 <= c.size_sensitivity <= 1.0

    def test_compact_registry_covers_all_templates(self):
        reg = D.compact_registry()
        assert len(reg) == 8
        assert {c.response_template for c in reg} == set(D.ResponseTemplate)

    def test_registry_for_sizes(self):
        assert len(D.registry_for(38)) == 38
        assert len(D.registry_for(8)) == 8
        assert len(D.registry_for(5)) == 5
        with pytest.raises(ValueError):
            D.registry_for(99)


class TestGenerate:
    def test_full_count_and_size_range(self):
        ds = D.generate_dataset(356, seed=7, size_range=(0.1, 35.1))
        assert len(ds.samples) == 356
        sizes = np.array([s.size_cm for s in ds.samples])
        assert sizes.min() >= 0.1 and sizes.max() <= 35.1
        assert ds.samples[0].matrix.shape == (200, 38)

    def test_same_seed_bit_identical(self):
        a = D.generate_dataset(8, seed=11, p=40, registry=D.compact_registry())
        b = D.generate_dataset(8, seed=11, p=40, registry=D.compact_registry())
        for sa, sb in zip(a.samples, b.samples):
            np.testing.assert_array_equal(sa.matrix, sb.matrix)
            assert sa.size_cm == sb.size_cm and sa.location == sb.location
        assert a.split == b.split

    def test_locations_balanced(self):
        ds = D.generate_dataset(20, seed=3, p=40, registry=D.compact_registry())
        locs = [s.location for s in ds.samples]
        assert locs.count(D.Location.COLD_LEG) == 10
        assert locs.count(D.Location.HOT_LEG) == 10

    def test_split_fraction_respected_per_location(self):
        ds = D.generate_dataset(40, seed=5, p=40, registry=D.compact_registry(),
                                split_fraction=0.8)
        for loc in D.Location:
            idx = [i for i, s in enumerate(ds.samples) if s.location is loc]
            n_train = sum(1 for i in idx if ds.split[i] == "train")
            assert n_train == 16

    def test_settled_decay_values_separate_sizes(self):
        spec = next(
            c for c in D.default_registry() if c.node_name == "p_155010000"
        )
        t_end = np.array([99.5])
        u1 = D.channel_response(spec, t_end, 1.0, D.Location.COLD_LEG)[0]
        u30 = D.channel_response(spec, t_end, 30.0, D.Location.COLD_LEG)[0]
        assert abs(u1 - u30) >= D.SEPARATION_MARGIN

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            D.generate_dataset(2, seed=0)
        with pytest.raises(ValueError):
            D.generate_dataset(8, seed=0, size_range=(5.0, 1.0))


class TestNormalize:
    def _tiny(self, seed=13):
        return D.generate_dataset(8, seed=seed, p=40, registry=D.compact_registry())

    def test_midpoint_maps_to_half(self):
        out = D.normalize_matrix(
            np.array([[1.0]]), np.array([0.0]), np.array([2.0])
        )
        assert out[0, 0] == 0.5

    def test_constant_channel_maps_to_half(self):
        out = D.normalize_matrix(
            np.full((5, 1), 3.3), np.array([3.3]), np.array([3.3])
        )
        np.testing.assert_array_equal(out, np.full((5, 1), 0.5))

    def test_train_split_in_unit_interval(self):
        norm = D.normalize(self._tiny())
        for i in norm.indices("train"):
            m = norm.samples[i].matrix
            assert m.min() >= 0.0 and m.max() <= 1.0

    def test_test_split_clipped(self):
        norm = D.normalize(self._tiny())
        for i in norm.indices("test"):
            m = norm.samples[i].matrix
            assert m.min() >= -0.5 and m.max() <= 1.5

    def test_roundtrip_on_train_split(self):
        ds = self._tiny()
        norm = D.normalize(ds)
        for i in norm.indices("train"):
            back = D.denormalize_matrix(
                norm.samples[i].matrix, norm.channel_min, norm.channel_max
            )
            np.testing.assert_allclose(back, ds.samples[i].matrix, atol=1e-12)


class TestNoise:
    def test_none_returns_input_unchanged(self):
        x = np.ones((10, 3))
        assert D.add_noise(x, None, np.random.default_rng(0)) is x

    def test_power_at_20db(self):
        x = np.ones((10_000, 1))
        y = D.add_noise(x, 20.0, np.random.default_rng(1))
        power = np.mean((y - x) ** 2)
        assert abs(power - 0.01) <= 0.2 * 0.01

    def test_power_at_0db(self):
        x = np.ones((10_000, 1))
        y = D.add_noise(x, 0.0, np.random.default_rng(2))
        power = np.mean((y - x) ** 2)
        assert abs(power - 1.0) <= 0.2

    def test_higher_snr_means_less_noise(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.2, 1.0, size=(10_000, 4))
        p_hi = np.mean((D.add_noise(x, 30.0, np.random.default_rng(4)) - x) ** 2, axis=0)
        p_lo = np.mean((D.add_noise(x, 10.0, np.random.default_rng(5)) - x) ** 2, axis=0)
        assert (p_hi < p_lo).all()

    def test_rejects_non_finite(self):
        x = np.array([[np.nan]])
        with pytest.raises(FloatingPointError):
            D.add_noise(x, 20.0, np.random.default_rng(6))


class TestPatchify:
    def test_default_shape(self):
        grid = D.PatchGrid.for_shape(200, 38, 5)
        assert (grid.D, grid.N) == (40, 190)
        out = D.patchify(np.zeros((200, 38)), grid)
        assert out.shape == (190, 40)
        assert not out.any()

    def test_single_entry_index_arithmetic(self):
        grid = D.PatchGrid.for_shape(200, 38, 5)
        x = np.zeros((200, 38))
        x[85, 2] = 7.0
        out = D.patchify(x, grid)
        assert out[12][5] == 7.0
        assert np.count_nonzero(out) == 1

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(200, 38))
        grid = D.PatchGrid.for_shape(200, 38, 5)
        np.testing.assert_array_equal(D.unpatchify(D.patchify(x, grid), grid), x)

    def test_unpatchify_ones(self):
        grid = D.PatchGrid.for_shape(40, 3, 4)
        np.testing.assert_array_equal(
            D.unpatchify(np.ones((12, 10)), grid), np.ones((40, 3))
        )

    def test_single_entry_inverse(self):
        grid = D.PatchGrid.for_shape(40, 3, 4)
        xp = np.zeros((12, 10))
        xp[6, 3] = 2.5
        # row 6 = channel 1, patch 2; col 3 -> t = 2*10 + 3 = 23
        back = D.unpatchify(xp, grid)
        assert back[23, 1] == 2.5
        assert np.count_nonzero(back) == 1

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            D.PatchGrid.for_shape(200, 38, 3)
        grid = D.PatchGrid.for_shape(40, 3, 4)
        with pytest.raises(ValueError):
            D.unpatchify(np.zeros((11, 10)), grid)
        with pytest.raises(ValueError):
            D.patchify(np.zeros((44, 3)), grid)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 6),
        d=st.integers(1, 8),
        l=st.integers(1, 6),
        seed=st.integers(0, 2**31),
    )
    def test_bijection_property(self, m, d, l, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(m * d, l))
        grid = D.PatchGrid.for_shape(m * d, l, m)
        np.testing.assert_array_equal(D.unpatchify(D.patchify(x, grid), grid), x)


class TestMasking:
    def test_zero_ratio_unchanged(self):
        xp = np.arange(20.0).reshape(4, 5)
        out, mask = D.mask_patches(xp, 0.0, np.random.default_rng(8))
        np.testing.assert_array_equal(out, xp)
        assert not mask.any()

    def test_forty_percent_of_190(self):
        xp = np.ones((190, 40))
        out, mask = D.mask_patches(xp, 0.40, np.random.default_rng(9))
        assert mask.sum() == 76

    def test_masked_rows_zero_others_identical(self):
        rng = np.random.default_rng(10)
        xp = rng.normal(size=(30, 6)) + 1.0
        out, mask = D.mask_patches(xp, 0.3, np.random.default_rng(11))
        assert not out[mask].any()
        np.testing.assert_array_equal(out[~mask], xp[~mask])

    def test_count_formula_on_ratio_grid(self):
        xp = np.ones((37, 4))
        for step in range(21):
            ratio = step * 0.05
            _, mask = D.mask_patches(xp, ratio, np.random.default_rng(step))
            assert mask.sum() == int(np.rint(ratio * 37))

    def test_deterministic_given_rng_seed(self):
        xp = np.ones((50, 3))
        _, m1 = D.mask_patches(xp, 0.4, np.random.default_rng(12))
        _, m2 = D.mask_patches(xp, 0.4, np.random.default_rng(12))
        np.testing.assert_array_equal(m1, m2)


class TestDiskFormat:
    def test_save_load_roundtrip_bit_exact(self, tmp_path):
        ds = D.generate_dataset(6, seed=21, p=40, registry=D.compact_registry())
        norm = D.normalize(ds)
        D.save_dataset(norm, tmp_path)
        back = D.load_dataset(tmp_path)
        assert back.seed == norm.seed
        assert back.split == norm.split
        assert back.normalized
        np.testing.assert_array_equal(back.channel_min, norm.channel_min)
        np.testing.assert_array_equal(back.channel_max, norm.channel_max)
        for sa, sb in zip(norm.samples, back.samples):
            np.testing.assert_array_equal(sa.matrix, sb.matrix)
            assert sa.size_cm == sb.size_cm
            assert sa.location == sb.location
        assert [c.node_name for c in back.registry] == [
            c.node_name for c in norm.registry
        ]

    def test_csv_header_is_node_names(self, tmp_path):
        ds = D.generate_dataset(4, seed=22, p=40, registry=D.compact_registry())
        D.save_dataset(ds, tmp_path)
        first = (tmp_path / "sample_0000.csv").read_text().splitlines()[0]
        assert first.split(",") == [c.node_name for c in ds.registry]


def test_perturb_patches_matches_hand_composition():
    ds = D.generate_dataset(4, seed=23, p=40, registry=D.compact_registry())
    x = D.normalize(ds).samples[0].matrix
    grid = D.PatchGrid.for_shape(40, 8, 4)
    patches, mask = perturb_patches(x, 20.0, 0.25, grid,
                                    np.random.default_rng(0))

    # Noise is drawn first, then the masked rows, from the same stream.
    rng = np.random.default_rng(0)
    var = np.mean(np.square(x), axis=0) * 10.0 ** (-20.0 / 10.0)
    noisy = x + rng.normal(0.0, 1.0, size=x.shape) * np.sqrt(var)
    rows = rng.choice(grid.N, size=8, replace=False)
    want = D.patchify(noisy, grid)
    want[rows] = 0.0

    assert patches.shape == (32, 10)
    assert sorted(np.nonzero(mask)[0]) == sorted(rows)
    np.testing.assert_array_equal(patches, want)
