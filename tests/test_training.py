"""Optimizer, loss, training-loop, and checkpoint tests."""

import gc
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from dpae import data as D
from dpae import tensor as T
from dpae import training as TR
from dpae.encoder import perturb_patches
from dpae.model import DPAE, ModelProfile

TINY = ModelProfile(p=16, l=2, m=4, depth_enc=1, depth_dec=1, heads=2,
                    latent_dim=6, lstm_hidden=5, head_widths=(5, 6))


# TR.train(tiny_dataset(), DPAE(TINY, seed=4), TrainConfig(epochs=1, seed=3))
PINNED_LOSSES = [
    1.3437442955367933, 1.2561580511213535, 0.8380839586825116,
    1.073286733709403, 0.9483149691137356, 1.2173040371381707,
    1.0906388324481395, 1.41309677461515, 0.8349618163552133,
    1.126957606407184, 0.8230552969727758, 0.7251614003947725,
    0.6434992463175644, 0.7599723510627115, 0.505413365732052,
    0.5205529204971926, 0.602689201282135, 0.4588043132435907,
    0.5409490029517268, 0.5347055328239377,
]
# The same run before the attention backward took its softmax row sums over
# the head output and the LSTM backward its gate factors before the time loop.
GEMM_BACKWARD_LOSSES = [
    1.3437442955367933, 1.2561580511213535, 0.8380839586825113,
    1.073286733709403, 0.9483149691137356, 1.2173040371381707,
    1.0906388324481395, 1.4130967746151497, 0.8349618163552132,
    1.1269576064071842, 0.8230552969727756, 0.7251614003947725,
    0.6434992463175643, 0.7599723510627115, 0.5054133657320519,
    0.5205529204971926, 0.602689201282135, 0.4588043132435907,
    0.540949002951727, 0.5347055328239376,
]
# The same run before the LSTM backward formed its weight and input gradients
# as GEMMs after the time loop; the reordered sums move losses by ~4e-16.
PER_STEP_BACKWARD_LOSSES = [
    1.3437442955367933, 1.2561580511213535, 0.8380839586825113,
    1.073286733709403, 0.9483149691137356, 1.2173040371381707,
    1.0906388324481393, 1.41309677461515, 0.8349618163552135,
    1.1269576064071845, 0.8230552969727755, 0.7251614003947726,
    0.6434992463175642, 0.7599723510627117, 0.5054133657320519,
    0.5205529204971927, 0.6026892012821352, 0.4588043132435907,
    0.540949002951727, 0.5347055328239376,
]


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
    params = T.Parameters({"w": np.array([[value]])})
    return params, TR.NAdamState(params)


class TestNAdam:
    def test_zero_grad_no_motion(self):
        params, state = fresh_scalar(1.0)
        TR.nadam_step(params, np.zeros(1), state, lr=1e-3)
        assert params["w"].data[0, 0] == 1.0

    def test_zero_lr_no_motion(self):
        params, state = fresh_scalar(2.5)
        TR.nadam_step(params, np.array([7.0]), state, lr=0.0)
        assert params["w"].data[0, 0] == 2.5

    def test_first_step_hand_oracle(self):
        # w = 1, f = w^2, g = 2. Mirror of the update formula in plain
        # python floats, evaluated independently of the implementation.
        params, state = fresh_scalar(1.0)
        TR.nadam_step(params, np.array([2.0]), state, lr=1e-3)

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
            TR.nadam_step(params, np.array([2.0 * (w - 3.0)]), state, lr=0.05)
        assert abs(params["w"].data[0, 0] - 3.0) < 1e-3

    def test_non_finite_gradient_names_parameter(self):
        params, state = fresh_scalar(1.0)
        with pytest.raises(FloatingPointError, match="w"):
            TR.nadam_step(params, np.array([np.nan]), state, lr=1e-3)
        assert state.t == 0


def whole_array_nadam(values, grads, m, v, t, mu_product, lr):
    """The update as one whole-array expression per parameter, the form
    nadam_step computed before it worked block by block; returns (t, mu_product)."""
    t += 1
    mu_t = TR.BETA1 * (1.0 - 0.5 * 0.96 ** (t * TR.MOMENTUM_DECAY))
    mu_next = TR.BETA1 * (1.0 - 0.5 * 0.96 ** ((t + 1) * TR.MOMENTUM_DECAY))
    mu_product *= mu_t
    product_next = mu_product * mu_next
    for name, p in values.items():
        g = grads[name]
        m[name] *= TR.BETA1
        m[name] += (1.0 - TR.BETA1) * g
        v[name] *= TR.BETA2
        v[name] += (1.0 - TR.BETA2) * g * g
        m_hat = (mu_next * m[name] / (1.0 - product_next)
                 + (1.0 - mu_t) * g / (1.0 - mu_product))
        v_hat = v[name] / (1.0 - TR.BETA2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + TR.EPS)
    return t, mu_product


class TestBlockedNAdam:
    SHAPES = {"one": (1,), "under": (TR.NADAM_BLOCK - 1,),
              "block": (TR.NADAM_BLOCK,), "over": (2 * TR.NADAM_BLOCK + 3, 1)}

    def fresh(self):
        rng = np.random.default_rng(61)
        params = T.Parameters({k: rng.normal(size=s)
                                for k, s in self.SHAPES.items()})
        state = TR.NAdamState(params)

        def grads():
            # Magnitudes over eight decades, so the debiasing and the EPS
            # guard both matter somewhere.
            return {k: rng.normal(size=s) * 10.0 ** rng.uniform(-6, 2, size=s)
                    for k, s in self.SHAPES.items()}
        return params, state, grads

    @staticmethod
    def flat(arrays):
        """Per-name arrays laid out like the parameter buffer, by sorted name."""
        return np.concatenate([arrays[k].ravel() for k in sorted(arrays)])

    @staticmethod
    def snapshot(params, state):
        return ({k: p.data.tobytes() for k, p in params.items()},
                state.m.tobytes(), state.v.tobytes(), state.t, state.mu_product)

    def test_matches_whole_array_update_bit_for_bit(self):
        params, state, grads = self.fresh()
        values = {k: p.data.copy() for k, p in params.items()}
        m = {k: np.zeros(s) for k, s in self.SHAPES.items()}
        v = {k: np.zeros(s) for k, s in self.SHAPES.items()}
        t, mu_product = 0, 1.0
        for step in range(3):
            g = grads()
            TR.nadam_step(params, self.flat(g), state, lr=3e-3)
            t, mu_product = whole_array_nadam(values, g, m, v, t, mu_product, 3e-3)
            assert self.snapshot(params, state) == (
                {k: a.tobytes() for k, a in values.items()},
                self.flat(m).tobytes(), self.flat(v).tobytes(), t,
                mu_product), step

    def test_non_finite_gradient_leaves_every_value_unchanged(self):
        params, state, grads = self.fresh()
        TR.nadam_step(params, self.flat(grads()), state, lr=3e-3)
        before = self.snapshot(params, state)
        g = grads()
        g["over"][-1, 0] = np.nan
        with pytest.raises(FloatingPointError, match="over"):
            TR.nadam_step(params, self.flat(g), state, lr=3e-3)
        assert self.snapshot(params, state) == before

    # The buffer holds block, one, over, under in that order: the first and
    # last entries of the first, a middle and the last parameter.
    @pytest.mark.parametrize("name, at, bad", [
        ("block", (0,), np.nan), ("block", (-1,), np.inf),
        ("one", (0,), -np.inf), ("over", (0, 0), np.nan),
        ("under", (0,), np.inf), ("under", (-1,), np.nan)])
    def test_non_finite_entry_names_its_parameter(self, name, at, bad):
        params, state, grads = self.fresh()
        before = self.snapshot(params, state)
        g = grads()
        g[name][at] = bad
        with pytest.raises(FloatingPointError,
                           match=f"non-finite gradient for parameter {name}$"):
            TR.nadam_step(params, self.flat(g), state, lr=3e-3)
        assert self.snapshot(params, state) == before


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

    def test_loss_history_is_pinned(self):
        # Recorded from this run; any change to the init draw order or to
        # the arithmetic of a layer moves at least one of these bits.
        hist, _ = TR.train(tiny_dataset(), DPAE(TINY, seed=4),
                           TR.TrainConfig(epochs=1, seed=3))
        losses = [h[5] for h in hist]
        assert losses == PINNED_LOSSES
        for older in (GEMM_BACKWARD_LOSSES, PER_STEP_BACKWARD_LOSSES):
            np.testing.assert_allclose(losses, older, rtol=1e-12, atol=0.0)

    def test_update_and_encode_leave_no_reference_cycle(self):
        # A backward closure that captured its own output node would make one
        # cycle per node, freed only by the cyclic collector (at paper scale
        # that held about 1 GB between collections).
        ds = tiny_dataset()
        model = DPAE(TINY, seed=4)
        state = TR.NAdamState(model.params)
        gc.collect()
        gc.disable()
        try:
            TR.train_step(ds.samples[0].matrix, model, state,
                          TR.TrainConfig(epochs=1, seed=3),
                          np.random.default_rng(0))
            model.latent_vector(ds.samples[1].matrix)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_every_parameter_receives_gradient(self):
        ds = tiny_dataset()
        model = DPAE(TINY, seed=5)
        rng = np.random.default_rng(6)
        xp, _ = perturb_patches(ds.samples[0].matrix, 30.0, 0.2, model.grid, rng)
        with T.tape():
            recon, _ = model.reconstruct(xp, rng)
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


# sha256 of the payload of TR.save_checkpoint(DPAE(TINY, seed=4), ...),
# recorded before the parameters lived in one buffer.
TINY_PARAMS_BIN = "fd6e9866e6018c8d54cc54ae20af4bb6f5fbc389ad51d0b7867fb40c9d9a6d5f"


def concatenating_save_params(params, dir_path, meta):
    """The checkpoint writer before the flat buffer: one concatenation of
    the parameters in sorted name order."""
    dir_path.mkdir()
    entries, chunks, offset = [], [], 0
    for name in sorted(params):
        arr = params[name].data
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size
        chunks.append(arr.reshape(-1))
    (dir_path / "params.bin").write_bytes(
        np.concatenate(chunks).astype("<f8").tobytes())
    (dir_path / "manifest.json").write_text(json.dumps(
        {"meta": meta, "parameters": entries, "total_size": offset}, indent=2))


class TestParameterBuffer:
    @staticmethod
    def address(a):
        return a.__array_interface__["data"][0]

    def test_views_sit_in_the_buffers_at_the_manifest_offsets(self, tmp_path):
        model = DPAE(TINY, seed=4)
        P = model.params
        TR.save_checkpoint(model, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [e["name"] for e in manifest["parameters"]] == list(P) \
            == sorted(P)
        assert manifest["total_size"] == P.data.size == P.grad.size
        for e in manifest["parameters"]:
            p = P[e["name"]]
            assert list(p.data.shape) == list(p.grad.shape) == e["shape"]
            for view, buf in ((p.data, P.data), (p.grad, P.grad)):
                assert view.base is buf
                assert self.address(view) == self.address(buf) + 8 * e["offset"]

    def test_fresh_model_gradients_are_one_zeroed_buffer(self):
        P = DPAE(TINY, seed=4).params
        assert P.grad.ndim == 1 and P.grad.base is not P.data.base
        assert not P.grad.any()
        assert all(p.grad.base is P.grad for p in P.values())

    def test_backward_and_zero_grads_act_on_the_buffer(self):
        model = DPAE(TINY, seed=5)
        x = tiny_dataset().samples[0].matrix
        with T.tape():
            recon, _ = model.reconstruct(D.patchify(x, model.grid))
            T.backward(TR.mse_loss(x, recon))
        assert np.array_equal(model.params.grad, np.concatenate(
            [p.grad.ravel() for p in model.params.values()]))
        assert model.params.grad.any()
        T.zero_grads(model.params)
        assert not any(p.grad.any() for p in model.params.values())

    def test_params_bin_is_the_buffer_and_pinned(self, tmp_path):
        model = DPAE(TINY, seed=4)
        TR.save_checkpoint(model, tmp_path)
        payload = (tmp_path / "params.bin").read_bytes()
        assert payload == model.params.data.tobytes()
        assert hashlib.sha256(payload).hexdigest() == TINY_PARAMS_BIN

    def test_concatenated_checkpoint_loads_bit_exactly(self, tmp_path):
        model = DPAE(TINY, seed=4)
        model.params.data += np.random.default_rng(3).normal(
            size=model.params.data.size)
        TR.save_checkpoint(model, tmp_path / "new")
        meta = json.loads((tmp_path / "new" / "manifest.json").read_text())
        concatenating_save_params(model.params, tmp_path / "old", meta["meta"])
        for name in ("params.bin", "manifest.json"):
            assert (tmp_path / "old" / name).read_bytes() == \
                (tmp_path / "new" / name).read_bytes()
        loaded, _ = TR.load_checkpoint(tmp_path / "old")
        assert loaded.params.data.tobytes() == model.params.data.tobytes()
        for k, p in model.params.items():
            assert loaded.params[k].data.tobytes() == p.data.tobytes()

    @pytest.mark.parametrize("edit", ["shape", "name", "offset", "order"])
    def test_manifest_not_matching_the_layout_rejected(self, tmp_path, edit):
        TR.save_checkpoint(DPAE(TINY, seed=4), tmp_path)
        manifest = tmp_path / "manifest.json"
        doc = json.loads(manifest.read_text())
        entries = doc["parameters"]
        if edit == "shape":
            entries[0]["shape"] = entries[0]["shape"][::-1] + [1]
        elif edit == "name":
            entries[1]["name"] += "_"
        elif edit == "offset":
            entries[1]["offset"] += 1
        else:
            entries[0], entries[1] = entries[1], entries[0]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(IOError, match="layout"):
            TR.load_checkpoint(tmp_path)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        ds = tiny_dataset()
        for i, profile in enumerate(
                (TINY, replace(TINY, mlp_ratio=0.5, dropout=0.0))):
            model = DPAE(profile, seed=17)
            cfg = TR.TrainConfig(epochs=1, seed=18)
            TR.train(ds, model, cfg, out_dir=tmp_path / str(i))
            loaded, meta = TR.load_checkpoint(
                tmp_path / str(i) / "checkpoint_final")
            assert loaded.profile == model.profile
            for k, p in model.params.items():
                np.testing.assert_array_equal(loaded.params[k].data, p.data)
            assert meta["profile"]["p"] == TINY.p
            assert meta["loss_summary"]["steps"] == \
                len(ds.indices("train")) * 5

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

    def test_loss_history_writes_an_integer_snr_as_float(self, tmp_path):
        # A config file may give the curriculum integer SNRs; the stamp keeps
        # them as given, the rows write them as floats.
        cfg = TR.TrainConfig(epochs=1, curriculum=[[20, 0.4]])
        TR.write_loss_history(tmp_path / "h.csv", [(0, 3, 0, 20, 0.4, 0.5)],
                              cfg)
        lines = (tmp_path / "h.csv").read_text().splitlines()
        assert lines[0].startswith('# config={"curriculum": [[20, 0.4]], ')
        assert lines[2] == "0,3,0,20.0,0.4,0.5"

    def test_corrupt_payload_detected(self, tmp_path):
        model = DPAE(TINY, seed=25)
        TR.save_checkpoint(model, tmp_path / "ck")
        with open(tmp_path / "ck" / "params.bin", "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(IOError):
            TR.load_checkpoint(tmp_path / "ck")

        TR.save_checkpoint(model, tmp_path / "cut")
        with open(tmp_path / "cut" / "params.bin", "r+b") as fh:
            fh.truncate(8 * model.params.data.size - 3)
        with pytest.raises(IOError, match="payload size"):
            TR.load_checkpoint(tmp_path / "cut")

        edits = {
            "extra_profile_field": lambda doc: doc["meta"]["profile"].update(
                bogus=1),
            "p_not_divisible_by_m": lambda doc: doc["meta"]["profile"].update(
                p=TINY.p + 1),
            "no_meta": lambda doc: doc.pop("meta"),
            "no_parameters": lambda doc: doc.pop("parameters"),
            "head_kind": lambda doc: doc["meta"].update(kind="head"),
        }
        for name, edit in edits.items():
            TR.save_checkpoint(model, tmp_path / name)
            manifest = tmp_path / name / "manifest.json"
            doc = json.loads(manifest.read_text())
            edit(doc)
            manifest.write_text(json.dumps(doc))
            with pytest.raises(IOError, match="malformed"):
                TR.load_checkpoint(tmp_path / name)
