"""Reconstruction training: MSE objective, Nesterov-Adam, perturbation schedule.

Each training step processes one sample through the full perturbation
schedule: for every (snr_db, ratio_pad) setting in order, the sample is
freshly perturbed, encoded, decoded, and one optimizer update is applied.
Checkpoints are a JSON manifest plus a flat little-endian float64 payload
and round-trip bit-exactly.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import write_stamped_csv
from .model import DPAE, ModelProfile

DEFAULT_CURRICULUM = (
    (20.0, 0.40),
    (35.0, 0.25),
    (40.0, 0.10),
    (30.0, 0.20),
    (30.0, 0.20),
)


@dataclass
class TrainConfig:
    lr_ini: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    momentum_decay: float = 4e-3
    epochs: int = 1000
    curriculum: tuple = DEFAULT_CURRICULUM
    seed: int = 0
    checkpoint_interval: int = 0  # epochs between checkpoints; 0 = final only

    def __post_init__(self):
        self.curriculum = tuple(tuple(pair) for pair in self.curriculum)
        if not self.curriculum:
            raise ValueError("curriculum must not be empty")
        for snr, pad in self.curriculum:
            if not (0.0 <= pad <= 1.0):
                raise ValueError(f"ratio_pad {pad} outside [0, 1]")


class NAdamState:
    """First/second moments per parameter plus the momentum-schedule product."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8,
                 momentum_decay=4e-3):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.momentum_decay = momentum_decay
        self.t = 0
        self.mu_product = 1.0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}


def mse_loss(x_clean, x_re):
    """Mean over all entries of the squared reconstruction error."""
    if not isinstance(x_clean, T.Tensor):
        x_clean = T.Tensor(x_clean)
    return T.mean_all(T.square(T.sub(x_re, x_clean)))


def nadam_step(params, grads, state, lr):
    """One Nesterov-Adam update over all parameters.

    mu_t follows the warming schedule beta1 * (1 - 0.5 * 0.96^(t * psi));
    the first-moment estimate is debiased with the running product of the
    schedule (including mu_t) and combined with a Nesterov look-ahead term.
    """
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for parameter {name}")

    t = state.t + 1
    b1, b2, psi = state.beta1, state.beta2, state.momentum_decay
    mu_t = b1 * (1.0 - 0.5 * 0.96 ** (t * psi))
    mu_next = b1 * (1.0 - 0.5 * 0.96 ** ((t + 1) * psi))
    state.mu_product *= mu_t
    product_next = state.mu_product * mu_next

    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = (mu_next * m / (1.0 - product_next)
                 + (1.0 - mu_t) * g / (1.0 - state.mu_product))
        v_hat = v / (1.0 - b2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
    state.t = t


def train_step(x, model, state, config, rng):
    """One sample through the full perturbation schedule; returns the losses."""
    losses = []
    for perturb in config.curriculum:
        recon, _, _ = model.reconstruct(x, perturb=perturb, train_mode=True,
                                        rng=rng)
        loss = mse_loss(x, recon)
        T.zero_grads(model.params)
        T.backward(loss)
        grads = {k: p.grad for k, p in model.params.items()}
        nadam_step(model.params, grads, state, config.lr_ini)
        losses.append(loss.item())
    return losses


def train(dataset, model, config, out_dir=None, log_every=0):
    """Optimize the autoencoder on the dataset's train split.

    Returns (loss_history, state). History rows are
    (epoch, sample_index, curriculum_index, snr, pad, loss). With an output
    directory, checkpoints and the loss history CSV are written there.
    """
    if not dataset.normalized:
        raise ValueError("training expects a normalized dataset")
    state = NAdamState(model.params, config.beta1, config.beta2, config.eps,
                       config.momentum_decay)
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
    write_stamped_csv(
        path, _config_dict(config),
        ["epoch", "sample", "curriculum", "snr", "pad", "loss"],
        ([e, si, ci] + [repr(float(v)) for v in (snr, pad, loss)]
         for e, si, ci, snr, pad, loss in history))


def _config_dict(config):
    return {
        "lr_ini": config.lr_ini,
        "beta1": config.beta1,
        "beta2": config.beta2,
        "eps": config.eps,
        "momentum_decay": config.momentum_decay,
        "epochs": config.epochs,
        "curriculum": [list(c) for c in config.curriculum],
        "seed": config.seed,
    }


# ---------------------------------------------------------------------------
# checkpointing: JSON manifest + flat little-endian float64 payload


def save_params(params, dir_path, meta):
    """Serialize a parameter dict; `meta` lands in the manifest verbatim."""
    os.makedirs(dir_path, exist_ok=True)
    names = sorted(params.keys())
    entries = []
    offset = 0
    chunks = []
    for name in names:
        arr = params[name].data
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size
        chunks.append(arr.reshape(-1))
    payload = np.concatenate(chunks).astype("<f8")
    with open(os.path.join(dir_path, "params.bin"), "wb") as fh:
        fh.write(payload.tobytes())
    manifest = {"meta": meta, "parameters": entries, "total_size": offset}
    with open(os.path.join(dir_path, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)


def load_params(dir_path):
    """Read back (manifest meta, {name: ndarray})."""
    with open(os.path.join(dir_path, "manifest.json")) as fh:
        manifest = json.load(fh)
    with open(os.path.join(dir_path, "params.bin"), "rb") as fh:
        flat = np.frombuffer(fh.read(), dtype="<f8").astype(np.float64)
    if flat.size != manifest["total_size"]:
        raise IOError(f"payload size {flat.size} != manifest {manifest['total_size']}")
    values = {}
    for entry in manifest["parameters"]:
        shape = tuple(entry["shape"])
        size = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        values[entry["name"]] = flat[start:start + size].reshape(shape).copy()
    return manifest["meta"], values


def save_checkpoint(model, dir_path, config=None, history=None):
    profile = model.profile
    meta = {
        "kind": "dpae",
        "seed": model.seed,
        "profile": {
            "p": profile.p, "l": profile.l, "m": profile.m,
            "depth_enc": profile.depth_enc, "depth_dec": profile.depth_dec,
            "heads": profile.heads, "latent_dim": profile.latent_dim,
            "lstm_hidden": profile.lstm_hidden,
            "head_widths": list(profile.head_widths),
            "mlp_ratio": profile.mlp_ratio, "dropout": profile.dropout,
        },
    }
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
    meta, values = load_params(dir_path)
    if meta.get("kind") != "dpae":
        raise IOError(f"checkpoint at {dir_path} is not an autoencoder checkpoint")
    prof = meta["profile"]
    profile = ModelProfile(
        p=prof["p"], l=prof["l"], m=prof["m"],
        depth_enc=prof["depth_enc"], depth_dec=prof["depth_dec"],
        heads=prof["heads"], latent_dim=prof["latent_dim"],
        lstm_hidden=prof["lstm_hidden"],
        head_widths=tuple(prof["head_widths"]),
        mlp_ratio=prof["mlp_ratio"], dropout=prof["dropout"],
    )
    model = DPAE(profile, seed=meta["seed"])
    if set(values) != set(model.params):
        raise IOError("checkpoint parameter names do not match the profile")
    for name, arr in values.items():
        if model.params[name].data.shape != arr.shape:
            raise IOError(f"checkpoint shape mismatch for {name}")
        model.params[name].data[...] = arr
    return model, meta
