"""Optimizer, loss, training-loop, and checkpoint tests."""

import numpy as np
import pytest

from dpae import data as D
from dpae import tensor as T
from dpae import training as TR
from dpae.model import DPAE, ModelProfile

TINY = ModelProfile(p=16, l=2, m=4, depth_enc=1, depth_dec=1, heads=2,
                    latent_dim=6, lstm_hidden=5, head_widths=(5, 6))


def tiny_dataset(count=4, seed=5):
    ds = D.generate_dataset(count, seed=seed, p=TINY.p,
                            registry=D.registry_for(TINY.l))
    return D.normalize(ds)


class TestMseLoss:
    def test_identical_is_zero(self):
        x = np.random.default_rng(0).normal(size=(5, 3))
        assert TR.mse_loss(x, T.Tensor(x)).item() == 0.0

    def test_unit_offset(self):
        assert TR.mse_loss(np.zeros((4, 4)), T.Tensor(np.ones((4, 4)))).item() == 1.0

    def test_matches_double_loop(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(6, 7)), rng.normal(size=(6, 7))
        total = 0.0
        for i in range(6):
            for j in range(7):
                total += (b[i, j] - a[i, j]) ** 2
        expected = total / 42.0
        assert abs(TR.mse_loss(a, T.Tensor(b)).item() - expected) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            TR.mse_loss(np.zeros((2, 3)), T.Tensor(np.zeros((3, 2))))


def fresh_scalar(value):
    p = T.Parameter(np.array([[value]]), "w")
    return {"w": p}, TR.NAdamState({"w": p})


class TestNAdam:
    def test_zero_grad_no_motion(self):
        params, state = fresh_scalar(1.0)
        TR.nadam_step(params, {"w": np.zeros((1, 1))}, state, lr=1e-3)
        assert params["w"].data[0, 0] == 1.0

    def test_zero_lr_no_motion(self):
        params, state = fresh_scalar(2.5)
        TR.nadam_step(params, {"w": np.array([[7.0]])}, state, lr=0.0)
        assert params["w"].data[0, 0] == 2.5

    def test_first_step_hand_oracle(self):
        # w = 1, f = w^2, g = 2. Mirror of the update formula in plain
        # python floats, evaluated independently of the implementation.
        params, state = fresh_scalar(1.0)
        TR.nadam_step(params, {"w": np.array([[2.0]])}, state, lr=1e-3)

        b1, b2, eps, psi = 0.9, 0.999, 1e-8, 4e-3
        g = 2.0
        mu1 = b1 * (1.0 - 0.5 * 0.96 ** (1 * psi))
        mu2 = b1 * (1.0 - 0.5 * 0.96 ** (2 * psi))
        prod = mu1
        m = (1.0 - b1) * g
        v = (1.0 - b2) * g * g
        m_hat = mu2 * m / (1.0 - prod * mu2) + (1.0 - mu1) * g / (1.0 - prod)
        v_hat = v / (1.0 - b2)
        expected = 1.0 - 1e-3 * m_hat / (np.sqrt(v_hat) + eps)

        assert abs(params["w"].data[0, 0] - expected) < 1e-12
        assert state.t == 1
        assert abs(state.mu_product - prod) < 1e-15

    def test_converges_on_shifted_quadratic(self):
        params, state = fresh_scalar(0.0)
        for _ in range(1000):
            w = params["w"].data[0, 0]
            TR.nadam_step(params, {"w": np.array([[2.0 * (w - 3.0)]])}, state,
                          lr=0.05)
        assert abs(params["w"].data[0, 0] - 3.0) < 1e-3

    def test_non_finite_gradient_names_parameter(self):
        params, state = fresh_scalar(1.0)
        with pytest.raises(FloatingPointError, match="w"):
            TR.nadam_step(params, {"w": np.array([[np.nan]])}, state, lr=1e-3)
        assert state.t == 0


class TestTrainStep:
    def test_five_losses_per_sample(self):
        ds = tiny_dataset()
        model = DPAE(TINY, seed=1)
        state = TR.NAdamState(model.params)
        cfg = TR.TrainConfig(epochs=1, seed=2)
        losses = TR.train_step(ds.samples[0].matrix, model, state, cfg,
                               np.random.default_rng(0))
        assert len(losses) == 5
        assert state.t == 5

    def test_deterministic_loss_sequence(self):
        ds = tiny_dataset()
        cfg = TR.TrainConfig(epochs=2, seed=3)
        runs = []
        for _ in range(2):
            model = DPAE(TINY, seed=4)
            hist, _ = TR.train(ds, model, cfg)
            runs.append([h[5] for h in hist])
        assert runs[0] == runs[1]

    def test_every_parameter_receives_gradient(self):
        ds = tiny_dataset()
        model = DPAE(TINY, seed=5)
        rng = np.random.default_rng(6)
        recon, _, _ = model.reconstruct(ds.samples[0].matrix, (30.0, 0.2),
                                        train_mode=True, rng=rng)
        loss = TR.mse_loss(ds.samples[0].matrix, recon)
        T.zero_grads(model.params)
        T.backward(loss)
        dead = [k for k, p in model.params.items() if not np.abs(p.grad).any()]
        assert dead == []

    def test_mean_epoch_loss_decreases(self):
        ds = tiny_dataset(count=4, seed=7)
        model = DPAE(TINY, seed=8)
        cfg = TR.TrainConfig(epochs=20, seed=9)
        hist, _ = TR.train(ds, model, cfg)
        per_epoch = {}
        for epoch, _, _, _, _, loss in hist:
            per_epoch.setdefault(epoch, []).append(loss)
        means = [float(np.mean(per_epoch[e])) for e in sorted(per_epoch)]
        first = np.mean(means[:5])
        last = np.mean(means[-5:])
        assert last < first

    def test_curriculum_settings_logged_in_order(self):
        ds = tiny_dataset()
        model = DPAE(TINY, seed=10)
        cfg = TR.TrainConfig(epochs=1, seed=11)
        hist, _ = TR.train(ds, model, cfg)
        first_sample = [h for h in hist if h[1] == hist[0][1]]
        logged = [(h[3], h[4]) for h in first_sample[:5]]
        assert logged == list(TR.DEFAULT_CURRICULUM)


class TestTrainLoop:
    def test_history_length_contract(self):
        ds = tiny_dataset(count=5, seed=12)
        model = DPAE(TINY, seed=13)
        cfg = TR.TrainConfig(epochs=3, seed=14)
        hist, _ = TR.train(ds, model, cfg)
        assert len(hist) == 3 * len(ds.indices("train")) * 5

    def test_rejects_unnormalized_dataset(self):
        ds = D.generate_dataset(4, seed=15, p=TINY.p,
                                registry=D.registry_for(TINY.l))
        model = DPAE(TINY, seed=16)
        with pytest.raises(ValueError):
            TR.train(ds, model, TR.TrainConfig(epochs=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TR.TrainConfig(curriculum=())
        with pytest.raises(ValueError):
            TR.TrainConfig(curriculum=((20.0, 1.5),))


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        ds = tiny_dataset()
        model = DPAE(TINY, seed=17)
        cfg = TR.TrainConfig(epochs=1, seed=18)
        TR.train(ds, model, cfg, out_dir=tmp_path)
        loaded, meta = TR.load_checkpoint(tmp_path / "checkpoint_final")
        for k, p in model.params.items():
            np.testing.assert_array_equal(loaded.params[k].data, p.data)
        assert meta["profile"]["p"] == TINY.p
        assert meta["loss_summary"]["steps"] == len(ds.indices("train")) * 5

    def test_reload_reproduces_probe_latent(self, tmp_path):
        ds = tiny_dataset()
        model = DPAE(TINY, seed=19)
        cfg = TR.TrainConfig(epochs=1, seed=20)
        TR.train(ds, model, cfg, out_dir=tmp_path)
        loaded, _ = TR.load_checkpoint(tmp_path / "checkpoint_final")
        x = ds.samples[0].matrix
        np.testing.assert_array_equal(model.latent_vector(x),
                                      loaded.latent_vector(x))

    def test_interval_checkpoints_written(self, tmp_path):
        ds = tiny_dataset()
        model = DPAE(TINY, seed=21)
        cfg = TR.TrainConfig(epochs=4, seed=22, checkpoint_interval=2)
        TR.train(ds, model, cfg, out_dir=tmp_path)
        assert (tmp_path / "checkpoint_ep2" / "manifest.json").exists()
        assert (tmp_path / "checkpoint_final" / "params.bin").exists()
        assert (tmp_path / "loss_history.csv").exists()

    def test_loss_history_csv_structure(self, tmp_path):
        ds = tiny_dataset()
        model = DPAE(TINY, seed=23)
        cfg = TR.TrainConfig(epochs=2, seed=24)
        hist, _ = TR.train(ds, model, cfg, out_dir=tmp_path)
        lines = (tmp_path / "loss_history.csv").read_text().splitlines()
        assert lines[0].startswith("# config=")
        assert lines[1] == "epoch,sample,curriculum,snr,pad,loss"
        assert len(lines) == 2 + len(hist)

    def test_corrupt_payload_detected(self, tmp_path):
        model = DPAE(TINY, seed=25)
        TR.save_checkpoint(model, tmp_path / "ck")
        with open(tmp_path / "ck" / "params.bin", "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(IOError):
            TR.load_checkpoint(tmp_path / "ck")
