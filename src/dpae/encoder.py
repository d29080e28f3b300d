"""Patch-sequence encoder: class token, transformer blocks, LSTM summary.

The forward path maps a perturbed N x D patch sequence to a d-dimensional
representation: a learnable class-token row is prepended and a learnable
positional table added, the sequence passes through pre-norm transformer
blocks, a two-layer LSTM consumes the rows with the class token fed last,
and a three-layer MLP expands the final cell state to the latent.
"""

import math

import numpy as np

from . import tensor as T
from .data import add_noise, mask_patches, patchify


# Stacked LSTM passes between the transformer blocks and the latent head.
LSTM_LAYERS = 2


def xavier_uniform(rng, fan_in, fan_out):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_dense(arrays, prefix, widths, rng):
    """Xavier weights {prefix}w{i} and zero biases {prefix}b{i}, layer by layer."""
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        arrays[f"{prefix}w{i}"] = xavier_uniform(rng, fan_in, fan_out)
        arrays[f"{prefix}b{i}"] = np.zeros((1, fan_out))
    return arrays


def dense(x, params, prefix, layers):
    """Fully connected layers from init_dense with GELU between them."""
    for i in range(layers):
        if i:
            x = T.gelu(x)
        x = T.add(T.matmul(x, params[f"{prefix}w{i}"]), params[f"{prefix}b{i}"])
    return x


def _init_block(arrays, prefix, rng, profile):
    D, heads, head_dim = profile.D, profile.heads, profile.head_dim
    hidden = profile.mlp_hidden
    for ln in ("ln1", "ln2"):
        arrays[f"{prefix}.{ln}.gain"] = np.ones((1, D))
        arrays[f"{prefix}.{ln}.bias"] = np.zeros((1, D))
    # Head h owns columns [3 * head_dim * h, 3 * head_dim * (h + 1)): q, k, v.
    arrays[f"{prefix}.qkv"] = np.concatenate(
        [xavier_uniform(rng, D, 3 * head_dim) for _ in range(heads)], axis=1)
    arrays[f"{prefix}.proj"] = xavier_uniform(rng, heads * head_dim, D)
    arrays[f"{prefix}.mlp.w1"] = xavier_uniform(rng, D, hidden)
    arrays[f"{prefix}.mlp.b1"] = np.zeros((1, hidden))
    arrays[f"{prefix}.mlp.w2"] = xavier_uniform(rng, hidden, D)
    arrays[f"{prefix}.mlp.b2"] = np.zeros((1, D))


def init_encoder_params(profile, rng):
    """Fresh encoder arrays by name, deterministic given the rng state."""
    arrays = {
        "enc.class_token": rng.normal(0.0, 0.02, size=(1, profile.D)),
        "enc.pos_encoding": rng.normal(0.0, 0.02, size=(profile.N + 1, profile.D)),
    }
    for b in range(profile.depth_enc):
        _init_block(arrays, f"enc.block{b}", rng, profile)
    width_in, h = profile.D, profile.lstm_hidden
    for layer in range(LSTM_LAYERS):
        arrays[f"enc.lstm{layer}.w_ih"] = xavier_uniform(rng, width_in, 4 * h)
        arrays[f"enc.lstm{layer}.w_hh"] = xavier_uniform(rng, h, 4 * h)
        arrays[f"enc.lstm{layer}.bias"] = np.zeros((1, 4 * h))
        width_in = h
    widths = (h, *profile.head_widths, profile.latent_dim)
    return init_dense(arrays, "enc.latent.", widths, rng)


def preprocess(xp, params):
    """Prepend the class-token row to N x D patches, then add the positional table."""
    seq = T.concat_rows([params["enc.class_token"], xp])
    return T.add(seq, params["enc.pos_encoding"])


def msa(x, params, prefix, profile):
    """Multi-headed self-attention over the rows of x."""
    qkv = T.matmul(x, params[f"{prefix}.qkv"])
    return T.matmul(T.attention(qkv, profile.heads), params[f"{prefix}.proj"])


def transformer_block(x, params, prefix, profile, rng=None):
    """Pre-norm residual block: attention, then MLP; an rng turns dropout on."""
    attn = msa(T.layer_norm(x, params[f"{prefix}.ln1.gain"],
                            params[f"{prefix}.ln1.bias"]), params, prefix, profile)
    attn = T.dropout(attn, profile.dropout, rng)
    x = T.add(x, attn)
    h = T.layer_norm(x, params[f"{prefix}.ln2.gain"], params[f"{prefix}.ln2.bias"])
    h = T.gelu(T.add(T.matmul(h, params[f"{prefix}.mlp.w1"]),
                     params[f"{prefix}.mlp.b1"]))
    h = T.dropout(h, profile.dropout, rng)
    h = T.add(T.matmul(h, params[f"{prefix}.mlp.w2"]), params[f"{prefix}.mlp.b2"])
    return T.add(x, h)


def lstm_traverse(seq, params):
    """Two stacked LSTM passes over the rows, class token (row 0) fed last.

    Returns the final cell state of the top layer.
    """
    n = seq.shape[0]
    rows = T.concat_rows([T.slice_rows(seq, 1, n), T.slice_rows(seq, 0, 1)])
    out = T.lstm(rows, *(params[f"enc.lstm{layer}.{w}"] for layer in range(LSTM_LAYERS)
                         for w in ("w_ih", "w_hh", "bias")))
    return T.slice_rows(out, n, n + 1)


def latent_head(cell, params):
    """Three fully connected layers with GELU between them."""
    return dense(cell, params, "enc.latent.", 3)


def perturb_patches(x, snr_db, ratio_pad, grid, rng):
    """The one perturbation path: noise at snr_db, then patch masking.

    Noise is drawn from ``rng`` before the masked rows, an order that the
    training loss histories depend on. Returns (N x D patches, row mask).
    """
    return mask_patches(patchify(add_noise(x, snr_db, rng), grid), ratio_pad, rng)


def encode(xp, params, profile, rng=None):
    """N x D patches -> (latent 1 x d, post-transformer class-token row 1 x D)."""
    seq = preprocess(xp, params)
    for b in range(profile.depth_enc):
        seq = transformer_block(seq, params, f"enc.block{b}", profile, rng)
    return latent_head(lstm_traverse(seq, params), params), T.slice_rows(seq, 0, 1)
