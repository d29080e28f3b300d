"""The benchmark's three workloads: inputs, one operation, output checks.

Each workload builds its inputs from the seed in ``setup`` and exposes
``op(i, timed)``, the unit of work, and ``check(i, out)``, which returns a
list of failed checks (empty when the output is correct). An op runs its
library calls through ``timed(fn, *args)``; the runner times and calibrates
each such stage on its own, because the machine's speed can change within a
multi-second op. The library is driven only through its public functions;
each module is called through its attribute (``H.predict``, not a bound
name) so that the tracer's wrappers are seen.
"""

import json
import os

import numpy as np

import dpae.data as D
import dpae.heads as H
import dpae.interpret as I
import dpae.training as TR
from dpae.model import DESK_PROFILE, DPAE, PAPER_PROFILE

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# Relative tolerance against the committed reference outputs. Rounding-order
# changes move a 5-update loss sequence by ~1e-15; one wrong gradient entry
# moves it by more than 1e-7, because NAdam steps every parameter by ~lr.
REFERENCE_RTOL = 1e-9
SHAP_TOL = 1e-9

# Seed-stream tags, so the workloads' random draws never share a stream.
_TAG_EVENT = 1
_TAG_HEAD = 2


def _dataset(profile, count, seed):
    raw = D.generate_dataset(count, seed, p=profile.p,
                             registry=D.registry_for(profile.l))
    return D.normalize(raw)


def _labels(dataset, idx):
    return [H.DiagnosisLabel(dataset.samples[i].location,
                             dataset.samples[i].size_cm) for i in idx]


def _head_config(kind, seed, offset):
    # Early stopping is held off (the window equals the epoch budget), so the
    # work of a fit is the same for every seed and runs stay comparable.
    return H.HeadConfig(kind=kind, max_epochs=200, early_stop_window=200,
                        seed=int(np.random.SeedSequence((seed, _TAG_HEAD, offset))
                                 .generate_state(1)[0]))


def fit_heads(latents, labels, seed):
    """The four latent heads, keyed mlp_cla, mlp_reg, forest_cla, forest_reg."""
    jobs = (("mlp_cla", H.fit_mlp_head, "mlp", "classify"),
            ("mlp_reg", H.fit_mlp_head, "mlp", "regress"),
            ("forest_cla", H.fit_random_forest, "random_forest", "classify"),
            ("forest_reg", H.fit_random_forest, "random_forest", "regress"))
    return {name: fit(latents, labels, config=_head_config(kind, seed, k),
                      task=task)[0]
            for k, (name, fit, kind, task) in enumerate(jobs)}


def _model_fn(name, head):
    """The (n, d) -> (n,) function kernel SHAP explains for a head."""
    return I.classifier_fn(head) if name.endswith("_cla") else I.regressor_fn(head)


def load_reference(workload, seed):
    """Committed reference outputs for this workload and seed, or None."""
    with open(REFERENCE_PATH) as fh:
        doc = json.load(fh)
    return doc[workload].get(str(seed))


def _close(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= REFERENCE_RTOL * np.abs(want) + 1e-12))


class Train:
    """One paper-size sample through the 5-setting schedule on a fresh model."""

    name = "train"
    min_ops = 1
    warmup_ops = 1

    def setup(self, seed):
        dataset = _dataset(PAPER_PROFILE, 8, seed)
        first = dataset.indices("train")[0]
        self.subset = D.Dataset(
            samples=[dataset.samples[first]], split=["train"], seed=seed,
            registry=dataset.registry, channel_min=dataset.channel_min,
            channel_max=dataset.channel_max, normalized=True)
        self.config = TR.TrainConfig(epochs=1, seed=seed)
        self.seed = seed
        # Built here as well as per op, so that set-up time covers the cost of
        # constructing a paper-size model.
        self.model = DPAE(PAPER_PROFILE, seed)
        self.first_losses = None
        self.reference = load_reference(self.name, seed)

    def prepare(self, i):
        # Every op starts from the same fresh model, so every op must
        # reproduce the same losses bit for bit.
        self.model = DPAE(PAPER_PROFILE, self.seed)

    def op(self, i, timed):
        history, _ = timed(TR.train, self.subset, self.model, self.config)
        return [row[5] for row in history]

    def check(self, i, losses):
        failed = []
        if len(losses) != len(self.config.curriculum):
            failed.append(f"expected {len(self.config.curriculum)} losses")
        if not np.all(np.isfinite(losses)):
            failed.append("non-finite loss")
        if self.first_losses is None:
            self.first_losses = losses
        elif losses != self.first_losses:
            failed.append("losses differ from the first op of this run")
        if self.reference is not None and not _close(losses, self.reference):
            failed.append("losses differ from the committed reference")
        return failed

    def expected_spans(self):
        """Calls of each wrapped function that one op implies."""
        u, p = len(TR.TrainConfig().curriculum), PAPER_PROFILE
        once = ("model.reconstruct", "encoder.encode", "decoder.decode",
                "encoder.lstm_traverse", "encoder.latent_head",
                "decoder.expand_latent", "data.add_noise", "data.mask_patches",
                "data.patchify", "training.mse_loss", "tensor.zero_grads",
                "tensor.backward", "training.nadam_step")
        return {"training.train": 1, "training.train_step": 1,
                **{name: u for name in once},
                "encoder.transformer_block": u * p.depth_enc,
                "encoder.msa": u * p.depth_enc,
                "decoder.transformer_block": u * p.depth_dec,
                "decoder.msa": u * p.depth_dec}

    def detail(self, stages, outs):
        return {"train_samples_per_s":
                len(stages) / sum(t.scaled_s for ts in stages for t in ts)}


class Diagnose:
    """A stream of freshly perturbed paper-size events through four heads."""

    name = "diagnose"
    min_ops = 100
    warmup_ops = 5
    pool = 40
    snr_db = 30.0
    ratio_pad = 0.2

    def setup(self, seed):
        self.seed = seed
        self.dataset = _dataset(PAPER_PROFILE, self.pool, seed)
        self.model = DPAE(PAPER_PROFILE, seed)
        train_idx = self.dataset.indices("train")
        latents = [self.model.latent_vector(self.dataset.samples[i].matrix)
                   for i in train_idx]
        self.heads = fit_heads(latents, _labels(self.dataset, train_idx), seed)
        self.reference = load_reference(self.name, seed)

    def prepare(self, i):
        pass

    def op(self, i, timed):
        return timed(self.event, i)

    def event(self, i):
        x = self.dataset.samples[i % self.pool].matrix
        grid = self.model.grid
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, _TAG_EVENT, i)))
        noisy = D.add_noise(x, self.snr_db, rng)
        patches, _ = D.mask_patches(D.patchify(noisy, grid), self.ratio_pad, rng)
        z = self.model.latent_vector(D.unpatchify(patches, grid))
        return z, {name: H.predict(head, z) for name, head in self.heads.items()}

    @staticmethod
    def summary(preds):
        """The four predictions as numbers: P(hot leg) twice, size twice."""
        return [float(preds["forest_cla"][1]), float(preds["mlp_cla"][1]),
                float(preds["forest_reg"]), float(preds["mlp_reg"])]

    def check(self, i, out):
        z, preds = out
        failed = []
        if not np.all(np.isfinite(z)):
            failed.append("non-finite latent")
        for name in ("forest_cla", "mlp_cla"):
            p = np.asarray(preds[name])
            if p.shape != (2,) or np.any(p < 0) or np.any(p > 1) \
                    or abs(p.sum() - 1.0) > 1e-12:
                failed.append(f"{name} is not a probability vector")
        if not all(np.isfinite(preds[n]) for n in ("forest_reg", "mlp_reg")):
            failed.append("non-finite size prediction")
        if self.reference is not None and i < len(self.reference) \
                and not _close(self.summary(preds), self.reference[i]):
            failed.append("predictions differ from the committed reference")
        return failed

    def expected_spans(self):
        p = PAPER_PROFILE
        return {"data.add_noise": 1, "data.mask_patches": 1, "data.patchify": 2,
                "data.unpatchify": 1, "model.latent_vector": 1,
                "encoder.encode": 1, "encoder.transformer_block": p.depth_enc,
                "encoder.msa": p.depth_enc, "encoder.lstm_traverse": 1,
                "encoder.latent_head": 1, "heads.predict.forest": 2,
                "heads.predict.mlp": 2}

    def detail(self, stages, outs):
        ms = np.array([ts[0].scaled_s for ts in stages]) * 1e3
        return {"diagnose_events_per_s": 1e3 * len(ms) / ms.sum(),
                "diagnose_ms_p50": float(np.median(ms)),
                "diagnose_ms_p90": float(np.percentile(ms, 90))}


class Explain:
    """Fit the desk heads, explain one latent with kernel SHAP, ablate one sample."""

    name = "explain"
    min_ops = 1
    warmup_ops = 0  # set-up already encodes every sample
    pool = 80  # 64 training rows: the heads' training set and the SHAP background
    coalitions = 256

    def setup(self, seed):
        self.seed = seed
        self.dataset = _dataset(DESK_PROFILE, self.pool, seed)
        self.model = DPAE(DESK_PROFILE, seed)
        self.latents = np.stack([self.model.latent_vector(s.matrix)
                                 for s in self.dataset.samples])
        self.train_idx = self.dataset.indices("train")
        self.test_idx = self.dataset.indices("test")
        self.labels = _labels(self.dataset, self.train_idx)
        self.shap_config = I.ShapConfig(background=self.latents[self.train_idx],
                                        coalition_samples=self.coalitions,
                                        seed=seed)

    def prepare(self, i):
        pass

    def op(self, i, timed):
        """Stages: fit the heads, one SHAP call per head, then the ablation."""
        k = self.test_idx[i % len(self.test_idx)]
        heads = timed(fit_heads, list(self.latents[self.train_idx]), self.labels,
                      self.seed)
        shap = {name: timed(I.kernel_shap, _model_fn(name, head), self.latents[k],
                            self.shap_config)
                for name, head in heads.items()}
        report = timed(self.ablate, k, shap)
        return heads, shap, report

    def ablate(self, k, shap):
        phi = I.latent_importance(
            np.stack([shap["forest_cla"].phi, shap["mlp_cla"].phi]),
            np.stack([shap["forest_reg"].phi, shap["mlp_reg"].phi]))
        return I.parameter_importance(self.model, [self.dataset.samples[k].matrix],
                                      phi)

    def check(self, i, out):
        heads, shap, report = out
        k = self.test_idx[i % len(self.test_idx)]
        x = self.latents[k]
        failed = []
        for name, res in shap.items():
            g = _model_fn(name, heads[name])
            gx = float(g(x[None, :])[0])
            base = float(np.mean(g(self.shap_config.background)))
            if not np.all(np.isfinite(res.phi)) \
                    or abs(res.base_value - base) > SHAP_TOL \
                    or abs(res.base_value + res.phi.sum() - gx) > SHAP_TOL:
                failed.append(f"{name} SHAP values do not add up to g(x)")
        for field in ("heatmap", "psi"):
            v = getattr(report, field)
            if not np.all(np.isfinite(v)) or np.any(v < 0):
                failed.append(f"{field} is not finite and non-negative")
        if sorted(report.ranking) != list(range(DESK_PROFILE.l)):
            failed.append("ranking is not a permutation of the channels")
        return failed

    def expected_spans(self):
        p = DESK_PROFILE
        _, n_regions = I.region_grid(DPAE(p, 0))
        encodes = 1 + p.l * n_regions   # one sample: clean plus every ablation
        calls = 2 + self.coalitions     # background, x, one per coalition
        epochs = _head_config("mlp", 0, 0).max_epochs
        return {"heads.fit_mlp_head": 2, "heads.fit_random_forest": 2,
                "interpret.kernel_shap": 4, "interpret.latent_importance": 1,
                "interpret.parameter_importance": 1,
                # SHAP calls plus one training-set predict per forest fit and
                # a train and a validation predict per MLP fit
                "heads.predict.forest": 2 * calls + 2,
                "heads.predict.mlp": 2 * calls + 4,
                "tensor.zero_grads": 2 * epochs, "tensor.backward": 2 * epochs,
                "training.nadam_step": 2 * epochs,
                "model.latent_vector": encodes, "encoder.encode": encodes,
                "data.patchify": encodes, "encoder.lstm_traverse": encodes,
                "encoder.latent_head": encodes,
                "encoder.transformer_block": encodes * p.depth_enc,
                "encoder.msa": encodes * p.depth_enc}

    def detail(self, stages, outs):
        # stage order: fit, SHAP on mlp_cla, mlp_reg, forest_cla, forest_reg, ablation
        def median(first, last, scale=1.0):
            return scale * float(np.median([
                np.mean([t.scaled_s for t in ts[first:last]]) for ts in stages]))
        return {"fit_heads_s": median(0, 1),
                "shap_mlp_ms_p50": median(1, 3, 1e3),
                "shap_forest_s_p50": median(3, 5),
                "ablation_s_per_sample": median(5, 6)}


WORKLOADS = {w.name: w for w in (Train, Diagnose, Explain)}
