"""Reconstruction training: MSE objective, Nesterov-Adam, perturbation schedule.

Each training step processes one sample through the full perturbation
schedule: for every (snr_db, ratio_pad) setting in order, the sample is
freshly perturbed, encoded, decoded, and one optimizer update is applied.
Checkpoints are a JSON manifest plus a flat little-endian float64 payload
and round-trip bit-exactly.
"""

import os
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .data import atomic_write, read_json, write_csv, write_json
from .encoder import perturb_patches
from .model import DPAE, ModelProfile

DEFAULT_CURRICULUM = (
    (20.0, 0.40),
    (35.0, 0.25),
    (40.0, 0.10),
    (30.0, 0.20),
    (30.0, 0.20),
)

# Nesterov-Adam moment decays, denominator guard and momentum-schedule decay.
BETA1, BETA2, EPS, MOMENTUM_DECAY = 0.9, 0.999, 1e-8, 4e-3
# Elements per NAdam block; its six 256 KiB slices stay in cache across an update.
NADAM_BLOCK = 1 << 15


def check_setting(label, snr_db, ratio_pad):
    """Raise ValueError unless a perturbation setting has a finite SNR and a
    pad in [0, 1]."""
    if not (np.isfinite(snr_db) and 0.0 <= ratio_pad <= 1.0):
        raise ValueError(f"{label} needs a finite snr_db and a ratio_pad in "
                         f"[0, 1], got {[snr_db, ratio_pad]!r}")


@dataclass
class TrainConfig:
    lr_ini: float = 1e-3
    epochs: int = 1000
    curriculum: tuple = DEFAULT_CURRICULUM
    seed: int = 0
    checkpoint_interval: int = 0  # epochs between checkpoints; 0 = final only

    def __post_init__(self):
        self.curriculum = tuple(tuple(pair) for pair in self.curriculum)
        if not self.curriculum:
            raise ValueError("curriculum must not be empty")
        for snr, pad in self.curriculum:
            check_setting("curriculum setting", snr, pad)
        if not (0.0 < self.lr_ini < float("inf")):
            raise ValueError("lr_ini must be positive and finite")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must not be negative")


class NAdamState:
    """Moments laid out like the parameter buffer, the schedule product, work."""

    def __init__(self, params):
        self.t = 0
        self.mu_product = 1.0
        self.m, self.v = T.flat_zeros(2 * params.data.size, True).reshape(2, -1)
        self.work = np.empty((2, NADAM_BLOCK))


def mse_loss(x_clean, x_re):
    """Mean over all entries of the squared reconstruction error."""
    return T.mse(x_re, x_clean)


def nadam_step(params, grad, state, lr):
    """One in-place Nesterov-Adam update of `params.data` by its flat gradient `grad`.

    mu_t follows the warming schedule
    BETA1 * (1 - 0.5 * 0.96^(t * MOMENTUM_DECAY)); the first-moment estimate
    is debiased with the running product of the schedule (including mu_t) and
    combined with a Nesterov look-ahead term.
    """
    if not np.isfinite(grad).all():
        at = np.argmin(np.isfinite(grad))
        name = [e["name"] for e in params.layout if e["offset"] <= at][-1]
        raise FloatingPointError(f"non-finite gradient for parameter {name}")

    t = state.t + 1
    mu_t = BETA1 * (1.0 - 0.5 * 0.96 ** (t * MOMENTUM_DECAY))
    mu_next = BETA1 * (1.0 - 0.5 * 0.96 ** ((t + 1) * MOMENTUM_DECAY))
    state.mu_product *= mu_t
    product_next = state.mu_product * mu_next

    # Per block, in the operation order of m_hat = mu_next * m / (1 - product_next)
    # + (1 - mu_t) * g / (1 - mu_product); p -= lr * m_hat / (sqrt(v_hat) + EPS).
    for lo in range(0, grad.size, NADAM_BLOCK):
        pb, g, m, v = (x[lo:lo + NADAM_BLOCK]
                       for x in (params.data, grad, state.m, state.v))
        a, b = state.work[:, :g.size]
        m *= BETA1
        m += np.multiply(1.0 - BETA1, g, out=a)
        v *= BETA2
        v += np.multiply(np.multiply(1.0 - BETA2, g, out=a), g, out=a)
        np.divide(np.multiply(mu_next, m, out=a), 1.0 - product_next, out=a)
        a += np.divide(np.multiply(1.0 - mu_t, g, out=b),
                       1.0 - state.mu_product, out=b)
        a *= lr
        np.add(np.sqrt(np.divide(v, 1.0 - BETA2 ** t, out=b), out=b), EPS, out=b)
        pb -= np.divide(a, b, out=a)
    state.t = t


def update(params, state, lr, objective):
    """One NAdam step of `params` down the gradient of `objective()`, recorded
    on a fresh tape; returns the loss before the step."""
    with T.tape():
        loss = objective()
        T.zero_grads(params)
        T.backward(loss)
    nadam_step(params, params.grad, state, lr)
    return loss.item()


def train_step(x, model, state, config, rng):
    """One sample through the full perturbation schedule; returns the losses."""
    losses = []
    for snr_db, ratio_pad in config.curriculum:
        xp, _ = perturb_patches(x, snr_db, ratio_pad, model.grid, rng)
        losses.append(update(model.params, state, config.lr_ini,
                             lambda: mse_loss(x, model.reconstruct(xp, rng)[0])))
    return losses


def train(dataset, model, config, out_dir=None, log_every=0):
    """Optimize the autoencoder on the dataset's train split.

    Returns (loss_history, state). History rows are
    (epoch, sample_index, curriculum_index, snr, pad, loss). With an output
    directory, checkpoints and the loss history CSV are written there.
    """
    if not dataset.normalized:
        raise ValueError("training expects a normalized dataset")
    state = NAdamState(model.params)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    train_idx = dataset.indices("train")
    history = []
    for epoch in range(config.epochs):
        for si in train_idx:
            x = dataset.samples[si].matrix
            losses = train_step(x, model, state, config, rng)
            for ci, ((snr, pad), loss) in enumerate(zip(config.curriculum, losses)):
                if not np.isfinite(loss):
                    raise FloatingPointError(
                        f"non-finite loss at epoch {epoch}, sample {si}"
                    )
                history.append((epoch, si, ci, snr, pad, loss))
        if out_dir and config.checkpoint_interval > 0 \
                and (epoch + 1) % config.checkpoint_interval == 0 \
                and (epoch + 1) < config.epochs:
            save_checkpoint(model, os.path.join(out_dir, f"checkpoint_ep{epoch + 1}"),
                            config=config, history=history)
        if log_every and (epoch + 1) % log_every == 0:
            recent = [h[-1] for h in history[-len(train_idx) * len(config.curriculum):]]
            print(f"epoch {epoch + 1}/{config.epochs} "
                  f"mean loss {float(np.mean(recent)):.6f}")
    if out_dir:
        save_checkpoint(model, os.path.join(out_dir, "checkpoint_final"),
                        config=config, history=history)
        write_loss_history(os.path.join(out_dir, "loss_history.csv"),
                           history, config)
    return history, state


def write_loss_history(path, history, config):
    # A config file may give an integer SNR; the history still writes 20.0.
    write_csv(path, ["epoch", "sample", "curriculum", "snr", "pad", "loss"],
              ((e, si, ci, float(snr), float(pad), loss)
               for e, si, ci, snr, pad, loss in history),
              config=_config_dict(config))


def _config_dict(config):
    stamp = asdict(config)
    del stamp["checkpoint_interval"]
    return stamp


# ---------------------------------------------------------------------------
# checkpointing: JSON manifest + flat little-endian float64 payload


def save_params(params, dir_path, meta):
    """The parameter buffer is the payload; `meta` lands in the manifest verbatim."""
    os.makedirs(dir_path, exist_ok=True)
    with atomic_write(os.path.join(dir_path, "params.bin"), "wb") as fh:
        fh.write(params.data.astype("<f8", copy=False))
    write_json(os.path.join(dir_path, "manifest.json"),
               {"meta": meta, "parameters": params.layout,
                "total_size": params.data.size})


def read_checkpoint(dir_path, kind, build):
    """The model or head `build(meta)` makes from a checkpoint's meta (kind
    "dpae" or "head"), its parameters filled from the payload, and that meta.

    A fresh build is the layout's only declaration: the manifest's entries and
    the payload size must match it. A missing, ill-typed or mismatched field
    is an IOError."""
    manifest = read_json(os.path.join(dir_path, "manifest.json"))
    with open(os.path.join(dir_path, "params.bin"), "rb") as fh:
        payload = fh.read()
    try:
        meta = manifest["meta"]
        if meta["kind"] != kind:
            raise ValueError(f"its kind is {meta['kind']!r}, not {kind!r}")
        params = (built := build(meta)).params
        if manifest["parameters"] != params.layout \
                or len(payload) != 8 * params.data.size:
            raise ValueError(f"its parameter layout or payload size ({len(payload)} "
                             f"bytes) does not match the {kind} its meta declares")
    except (KeyError, TypeError, ValueError) as e:
        raise IOError(f"checkpoint at {dir_path} is malformed: "
                      f"{type(e).__name__}: {e}") from None
    params.data[...] = np.frombuffer(payload, dtype="<f8")
    return built, meta


def _fresh_dpae(meta):
    prof = meta["profile"]
    return DPAE(ModelProfile(**{**prof, "head_widths": tuple(prof["head_widths"])}),
                seed=meta["seed"])


def save_checkpoint(model, dir_path, config=None, history=None):
    meta = {"kind": "dpae", "seed": model.seed,
            "profile": asdict(model.profile)}
    if config is not None:
        meta["train_config"] = _config_dict(config)
    if history:
        losses = [h[5] for h in history]
        meta["loss_summary"] = {
            "steps": len(losses),
            "first": losses[0],
            "last": losses[-1],
            "min": min(losses),
        }
    save_params(model.params, dir_path, meta)


def load_checkpoint(dir_path):
    """Rebuild the model from a checkpoint; values restore bit-exactly."""
    return read_checkpoint(dir_path, "dpae", _fresh_dpae)
