"""Encoder, decoder, and combined-model tests on reduced configurations."""

import numpy as np
import pytest

from dpae import decoder as dec
from dpae import encoder as enc
from dpae import tensor as T
from dpae.data import PatchGrid, add_noise, mask_patches, patchify
from dpae.model import DESK_PROFILE, PAPER_PROFILE, DPAE, ModelProfile

# Tiny profile for gradient checks: every mechanism present, few parameters.
TOY = ModelProfile(p=12, l=2, m=3, depth_enc=1, depth_dec=1, heads=2,
                   latent_dim=5, lstm_hidden=4, head_widths=(4, 4))


def toy_model(seed=0):
    return DPAE(TOY, seed=seed)


class TestEncoderConfig:
    """The encoder's dimensions, as carried by ModelProfile."""

    def test_defaults_match_full_profile(self):
        cfg = PAPER_PROFILE
        assert (cfg.D, cfg.N, cfg.depth_enc, cfg.heads) == (40, 190, 4, 4)
        assert cfg.head_dim == 10
        assert cfg.mlp_hidden == 32
        assert cfg.latent_dim == 128

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            ModelProfile(p=200, l=38, m=5, depth_enc=4, depth_dec=4, heads=3,
                         latent_dim=128, lstm_hidden=40, head_widths=(64, 96))

    def test_unique_parameter_names(self):
        model = toy_model()
        names = [p.name for p in model.params.values()]
        assert len(names) == len(set(names))
        assert set(model.params.keys()) == set(names)

    def test_parameter_count_pure_function_of_config(self):
        a, b = toy_model(seed=1), toy_model(seed=2)
        assert a.params.data.size == b.params.data.size
        shapes_a = {k: v.shape for k, v in a.params.items()}
        shapes_b = {k: v.shape for k, v in b.params.items()}
        assert shapes_a == shapes_b


class TestPreprocess:
    def test_zero_token_zero_table_passthrough(self):
        model = toy_model()
        model.params["enc.class_token"].data[:] = 0.0
        model.params["enc.pos_encoding"].data[:] = 0.0
        xp = np.random.default_rng(0).normal(size=(TOY.N, TOY.D))
        out = enc.preprocess(xp, model.params)
        np.testing.assert_array_equal(out.data[1:], xp)
        np.testing.assert_array_equal(out.data[0], np.zeros(TOY.D))

    def test_paper_scale_shape(self):
        model = DPAE(PAPER_PROFILE, seed=3)
        xp = np.zeros((190, 40))
        assert enc.preprocess(xp, model.params).shape == (191, 40)

    def test_subtracting_table_recovers_concatenation(self):
        model = toy_model(seed=4)
        xp = np.random.default_rng(1).normal(size=(TOY.N, TOY.D))
        out = enc.preprocess(xp, model.params)
        recovered = out.data - model.params["enc.pos_encoding"].data
        np.testing.assert_allclose(recovered[1:], xp, atol=1e-15)
        np.testing.assert_allclose(
            recovered[0], model.params["enc.class_token"].data[0], atol=1e-15
        )


class TestMsa:
    def test_single_row_equals_projected_value(self):
        model = toy_model(seed=5)
        cfg = model.profile
        x = T.Tensor(np.random.default_rng(2).normal(size=(1, TOY.D)))
        out = enc.msa(x, model.params, "enc.block0", cfg)
        dh = cfg.head_dim
        qkv = x.data @ model.params["enc.block0.qkv"].data
        vs = [qkv[:, 3 * dh * h + 2 * dh:3 * dh * (h + 1)]
              for h in range(cfg.heads)]
        expected = np.concatenate(vs, axis=1) @ model.params["enc.block0.proj"].data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_zero_projection_gives_zero(self):
        model = toy_model(seed=6)
        model.params["enc.block0.proj"].data[:] = 0.0
        x = T.Tensor(np.random.default_rng(3).normal(size=(5, TOY.D)))
        out = enc.msa(x, model.params, "enc.block0", model.profile)
        np.testing.assert_array_equal(out.data, np.zeros((5, TOY.D)))

    def test_row_permutation_equivariance(self):
        model = toy_model(seed=7)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, TOY.D))
        perm = rng.permutation(6)
        out = enc.msa(T.Tensor(x), model.params, "enc.block0", model.profile)
        out_p = enc.msa(T.Tensor(x[perm]), model.params, "enc.block0", model.profile)
        np.testing.assert_allclose(out_p.data, out.data[perm], atol=1e-12)


class TestTransformerBlock:
    def test_zeroed_branches_make_identity(self):
        model = toy_model(seed=8)
        model.params["enc.block0.proj"].data[:] = 0.0
        model.params["enc.block0.mlp.w2"].data[:] = 0.0
        model.params["enc.block0.mlp.b2"].data[:] = 0.0
        x = np.random.default_rng(5).normal(size=(4, TOY.D))
        out = enc.transformer_block(T.Tensor(x), model.params, "enc.block0",
                                    model.profile)
        np.testing.assert_allclose(out.data, x, atol=1e-15)

    def test_eval_mode_deterministic(self):
        model = toy_model(seed=9)
        x = np.random.default_rng(6).normal(size=(4, TOY.D))
        a = enc.transformer_block(T.Tensor(x), model.params, "enc.block0",
                                  model.profile)
        b = enc.transformer_block(T.Tensor(x), model.params, "enc.block0",
                                  model.profile)
        np.testing.assert_array_equal(a.data, b.data)

    def test_gradient_through_block(self):
        model = toy_model(seed=10)
        cfg = model.profile
        x = np.random.default_rng(7).normal(size=(3, TOY.D))
        block = {k: v for k, v in model.params.items() if k.startswith("enc.block0")}

        def f():
            out = enc.transformer_block(T.Tensor(x), model.params, "enc.block0", cfg)
            return T.mse(out, 0.0)

        err = T.grad_check(f, block, eps=1e-5)
        assert err <= 1e-5


class TestLstmTraverse:
    def test_zero_weights_zero_cell(self):
        model = toy_model(seed=11)
        for layer in range(2):
            model.params[f"enc.lstm{layer}.w_ih"].data[:] = 0.0
            model.params[f"enc.lstm{layer}.w_hh"].data[:] = 0.0
        seq = T.Tensor(np.random.default_rng(8).normal(size=(TOY.N + 1, TOY.D)))
        out = enc.lstm_traverse(seq, model.params)
        np.testing.assert_array_equal(out.data, np.zeros((1, TOY.lstm_hidden)))

    def test_class_token_consumed_last(self):
        # Altering row 0 changes only the last step's input; with a forget
        # gate pinned open (huge bias), earlier inputs still dominate the
        # cell, but the final step must see row 0: zeroing the input weights
        # of layer 0 removes all input response, so the cell matches the
        # all-zero-input traversal even with random row contents.
        model = toy_model(seed=12)
        model.params["enc.lstm0.w_ih"].data[:] = 0.0
        seq_a = T.Tensor(np.random.default_rng(9).normal(size=(TOY.N + 1, TOY.D)))
        seq_b = T.Tensor(np.zeros((TOY.N + 1, TOY.D)))
        out_a = enc.lstm_traverse(seq_a, model.params)
        out_b = enc.lstm_traverse(seq_b, model.params)
        np.testing.assert_allclose(out_a.data, out_b.data, atol=1e-12)

    def test_gradient_through_traversal(self):
        model = toy_model(seed=13)
        seq = np.random.default_rng(10).normal(size=(4, TOY.D))
        lstm = {k: v for k, v in model.params.items() if ".lstm" in k}

        def f():
            return T.mse(enc.lstm_traverse(T.Tensor(seq), model.params), 0.0)

        err = T.grad_check(f, lstm, eps=1e-5)
        assert err <= 1e-5


class TestEncode:
    def test_latent_length_at_paper_scale(self):
        model = DPAE(PAPER_PROFILE, seed=14)
        x = np.random.default_rng(11).uniform(0, 1, size=(200, 38))
        xp = patchify(x, model.grid)
        latent, class_row = model.encode(xp)
        assert xp.shape == (190, 40)
        assert latent.shape == (1, 128)
        assert class_row.shape == (1, 40)

    def test_eval_determinism(self):
        model = toy_model(seed=15)
        xp = np.random.default_rng(12).uniform(0, 1, size=(TOY.N, TOY.D))
        a, _ = model.encode(xp)
        b, _ = model.encode(xp)
        np.testing.assert_array_equal(a.data, b.data)

    def test_finite_on_extreme_inputs(self):
        model = toy_model(seed=16)
        for fill in (-0.5, 1.5):
            latent, _ = model.encode(np.full((TOY.N, TOY.D), fill))
            assert np.isfinite(latent.data).all()

    def test_masked_rows_content_irrelevant(self):
        model = toy_model(seed=17)
        grid = model.grid
        x = np.random.default_rng(13).uniform(0, 1, size=(TOY.p, TOY.l))
        _, mask = mask_patches(patchify(x, grid), 0.5, np.random.default_rng(99))

        # Rebuild a matrix differing only inside the masked patches.
        xp = patchify(x, grid)
        xp2 = xp.copy()
        xp2[mask] += np.random.default_rng(14).normal(size=(mask.sum(), grid.D))
        x2 = np.zeros_like(x)
        l = grid.N // grid.m
        for i in range(l):
            for j in range(grid.m):
                x2[j * grid.D:(j + 1) * grid.D, i] = xp2[i * grid.m + j]

        p1, m1 = mask_patches(patchify(x, grid), 0.5, np.random.default_rng(99))
        p2, m2 = mask_patches(patchify(x2, grid), 0.5, np.random.default_rng(99))
        a, _ = model.encode(p1)
        b, _ = model.encode(p2)
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(a.data, b.data)

    def test_gradient_wrt_class_token(self):
        model = toy_model(seed=18)
        xp = np.random.default_rng(15).uniform(0, 1, size=(TOY.N, TOY.D))
        probe = {"enc.class_token": model.params["enc.class_token"]}

        def f():
            latent, _ = model.encode(xp)
            return T.mse(latent, 0.0)

        err = T.grad_check(f, probe, eps=1e-5)
        assert err <= 1e-5


class TestPositionalTable:
    def test_corner_values(self):
        pe = dec.compute_pe(4, 6)
        assert pe[0][0] == 0.0
        assert pe[0][1] == 1.0
        assert abs(pe[1][0] - 0.8414709848078965) < 1e-6

    def test_range_bounded(self):
        pe = dec.compute_pe(191, 40)
        assert (np.abs(pe) <= 1.0).all()

    def test_pure_function_and_not_learnable(self):
        np.testing.assert_array_equal(dec.compute_pe(10, 8), dec.compute_pe(10, 8))
        model = toy_model(seed=19)
        assert not any("pe" in k.lower() for k in model.params)

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            dec.compute_pe(5, 7)


class TestDecode:
    def test_expand_latent_shapes_and_zero_case(self):
        model = DPAE(PAPER_PROFILE, seed=20)
        model.params["dec.expand.w0"].data[:] = 0.0
        model.params["dec.expand.b0"].data[:] = 0.0
        latent = T.Tensor(np.random.default_rng(16).normal(size=(1, 128)))
        out = dec.expand_latent(latent, model.params, model.profile)
        assert out.shape == (190, 40)
        assert not out.data.any()

    def test_expand_latent_gradient(self):
        model = toy_model(seed=21)
        latent = np.random.default_rng(17).normal(size=(1, TOY.latent_dim))
        probe = {k: model.params[k] for k in ("dec.expand.w0", "dec.expand.b0")}

        def f():
            out = dec.expand_latent(T.Tensor(latent), model.params, model.profile)
            return T.mse(out, 0.0)

        assert T.grad_check(f, probe, eps=1e-5) <= 1e-6

    def test_output_shape_at_paper_scale(self):
        model = DPAE(PAPER_PROFILE, seed=22)
        x = np.random.default_rng(18).uniform(0, 1, size=(200, 38))
        recon, latent = model.reconstruct(patchify(x, model.grid))
        assert recon.shape == (200, 38)
        assert np.isfinite(recon.data).all()

    def test_eval_determinism(self):
        model = toy_model(seed=23)
        xp = np.random.default_rng(19).uniform(0, 1, size=(TOY.N, TOY.D))
        a, _ = model.reconstruct(xp)
        b, _ = model.reconstruct(xp)
        np.testing.assert_array_equal(a.data, b.data)

    def test_end_to_end_gradient(self):
        model = toy_model(seed=24)
        x = np.random.default_rng(20).uniform(0, 1, size=(TOY.p, TOY.l))
        xp = patchify(x, model.grid)

        def f():
            recon, _ = model.reconstruct(xp)
            return T.mse(recon, x)

        # Top-|gradient| probe entries across every parameter tensor.
        err = T.grad_check(f, model.params, eps=1e-5, entries_per_param=2, order=4)
        assert err <= 1e-5

    def test_train_mode_draw_order(self):
        # Bit-identical loss histories rest on this rng order: noise, masked
        # rows, then the encoder's and the decoder's dropout draws.
        model = toy_model(seed=25)
        x = np.random.default_rng(21).uniform(0, 1, size=(TOY.p, TOY.l))
        rng7 = np.random.default_rng(7)
        patches, mask = enc.perturb_patches(x, 30.0, 0.2, model.grid, rng7)
        recon, latent = model.reconstruct(patches, rng7)

        rng = np.random.default_rng(7)
        noisy = add_noise(x, 30.0, rng)
        xp, want_mask = mask_patches(patchify(noisy, model.grid), 0.2, rng)
        seq = enc.preprocess(xp, model.params)
        for b in range(TOY.depth_enc):
            seq = enc.transformer_block(seq, model.params, f"enc.block{b}", TOY,
                                        rng)
        class_row = T.slice_rows(seq, 0, 1)
        want_latent = enc.latent_head(enc.lstm_traverse(seq, model.params),
                                      model.params)
        want = dec.decode(want_latent, class_row, model.params, TOY,
                          model.pe_table, rng)
        assert want_mask.any()
        np.testing.assert_array_equal(mask, want_mask)
        np.testing.assert_array_equal(latent.data, want_latent.data)
        np.testing.assert_array_equal(recon.data, want.data)


class TestRoundTripShapes:
    def test_patch_row_indexing_consistency(self):
        # The decoder's in-graph fold-back must match the data module's
        # unpatchify exactly.
        from dpae.data import unpatchify

        grid = PatchGrid.for_shape(TOY.p, TOY.l, TOY.m)
        xp = np.random.default_rng(22).normal(size=(grid.N, grid.D))
        folded = T.transpose(T.reshape(T.Tensor(xp), (TOY.l, grid.m * grid.D)))
        np.testing.assert_array_equal(folded.data, unpatchify(xp, grid))
