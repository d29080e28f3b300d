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


def xavier_uniform(rng, shape, fan_in, fan_out):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _init_block(params, prefix, rng, profile):
    D, heads, head_dim = profile.D, profile.heads, profile.head_dim
    hidden = profile.mlp_hidden
    params[f"{prefix}.ln1.gain"] = T.Parameter(np.ones((1, D)), f"{prefix}.ln1.gain")
    params[f"{prefix}.ln1.bias"] = T.Parameter(np.zeros((1, D)), f"{prefix}.ln1.bias")
    params[f"{prefix}.ln2.gain"] = T.Parameter(np.ones((1, D)), f"{prefix}.ln2.gain")
    params[f"{prefix}.ln2.bias"] = T.Parameter(np.zeros((1, D)), f"{prefix}.ln2.bias")
    for h in range(heads):
        name = f"{prefix}.head{h}.qkv"
        params[name] = T.Parameter(
            xavier_uniform(rng, (D, 3 * head_dim), D, 3 * head_dim), name
        )
    params[f"{prefix}.proj"] = T.Parameter(
        xavier_uniform(rng, (heads * head_dim, D), heads * head_dim, D),
        f"{prefix}.proj",
    )
    params[f"{prefix}.mlp.w1"] = T.Parameter(
        xavier_uniform(rng, (D, hidden), D, hidden), f"{prefix}.mlp.w1"
    )
    params[f"{prefix}.mlp.b1"] = T.Parameter(np.zeros((1, hidden)), f"{prefix}.mlp.b1")
    params[f"{prefix}.mlp.w2"] = T.Parameter(
        xavier_uniform(rng, (hidden, D), hidden, D), f"{prefix}.mlp.w2"
    )
    params[f"{prefix}.mlp.b2"] = T.Parameter(np.zeros((1, D)), f"{prefix}.mlp.b2")


def init_encoder_params(profile, rng):
    """Fresh encoder parameters, deterministic given the rng state."""
    params = {}
    params["enc.class_token"] = T.Parameter(
        rng.normal(0.0, 0.02, size=(1, profile.D)), "enc.class_token"
    )
    params["enc.pos_encoding"] = T.Parameter(
        rng.normal(0.0, 0.02, size=(profile.N + 1, profile.D)),
        "enc.pos_encoding",
    )
    for b in range(profile.depth_enc):
        _init_block(params, f"enc.block{b}", rng, profile)
    width_in = profile.D
    for layer in range(LSTM_LAYERS):
        h = profile.lstm_hidden
        params[f"enc.lstm{layer}.w_ih"] = T.Parameter(
            xavier_uniform(rng, (width_in, 4 * h), width_in, 4 * h),
            f"enc.lstm{layer}.w_ih",
        )
        params[f"enc.lstm{layer}.w_hh"] = T.Parameter(
            xavier_uniform(rng, (h, 4 * h), h, 4 * h), f"enc.lstm{layer}.w_hh"
        )
        params[f"enc.lstm{layer}.bias"] = T.Parameter(
            np.zeros((1, 4 * h)), f"enc.lstm{layer}.bias"
        )
        width_in = h
    widths = ((profile.lstm_hidden,) + tuple(profile.head_widths)
              + (profile.latent_dim,))
    for i in range(3):
        params[f"enc.latent.w{i}"] = T.Parameter(
            xavier_uniform(rng, (widths[i], widths[i + 1]), widths[i], widths[i + 1]),
            f"enc.latent.w{i}",
        )
        params[f"enc.latent.b{i}"] = T.Parameter(
            np.zeros((1, widths[i + 1])), f"enc.latent.b{i}"
        )
    return params


def preprocess(xp_masked, params):
    """Prepend the class-token row, then add the positional table."""
    if not isinstance(xp_masked, T.Tensor):
        xp_masked = T.Tensor(xp_masked)
    seq = T.concat_rows([params["enc.class_token"], xp_masked])
    return T.add(seq, params["enc.pos_encoding"])


def msa(x, params, prefix, profile):
    """Multi-headed self-attention over the rows of x."""
    dh = profile.head_dim
    qkv_w = T.concat_cols(
        [params[f"{prefix}.head{h}.qkv"] for h in range(profile.heads)]
    )
    qkv = T.matmul(x, qkv_w)
    heads_out = []
    for h in range(profile.heads):
        base = 3 * dh * h
        q = T.slice_cols(qkv, base, base + dh)
        k = T.slice_cols(qkv, base + dh, base + 2 * dh)
        v = T.slice_cols(qkv, base + 2 * dh, base + 3 * dh)
        logits = T.scale(T.matmul(q, T.transpose(k)), 1.0 / math.sqrt(dh))
        heads_out.append(T.matmul(T.softmax_rows(logits), v))
    return T.matmul(T.concat_cols(heads_out), params[f"{prefix}.proj"])


def transformer_block(x, params, prefix, profile, train_mode=False, rng=None):
    """Pre-norm residual block: attention branch, then MLP branch."""
    attn = msa(T.layer_norm(x, params[f"{prefix}.ln1.gain"],
                            params[f"{prefix}.ln1.bias"]), params, prefix, profile)
    attn = T.dropout(attn, profile.dropout, train_mode, rng)
    x = T.add(x, attn)
    h = T.layer_norm(x, params[f"{prefix}.ln2.gain"], params[f"{prefix}.ln2.bias"])
    h = T.gelu(T.add(T.matmul(h, params[f"{prefix}.mlp.w1"]),
                     params[f"{prefix}.mlp.b1"]))
    h = T.dropout(h, profile.dropout, train_mode, rng)
    h = T.add(T.matmul(h, params[f"{prefix}.mlp.w2"]), params[f"{prefix}.mlp.b2"])
    return T.add(x, h)


def lstm_traverse(seq, params, profile):
    """Two stacked LSTM passes over the rows, class token (row 0) fed last.

    Returns the final cell state of the top layer.
    """
    n_rows = seq.shape[0]
    order = list(range(1, n_rows)) + [0]
    inputs = [T.slice_rows(seq, i, i + 1) for i in order]
    cell = None
    for layer in range(LSTM_LAYERS):
        w_ih = params[f"enc.lstm{layer}.w_ih"]
        w_hh = params[f"enc.lstm{layer}.w_hh"]
        bias = params[f"enc.lstm{layer}.bias"]
        h = T.Tensor(np.zeros((1, profile.lstm_hidden)))
        c = T.Tensor(np.zeros((1, profile.lstm_hidden)))
        outputs = []
        for x_t in inputs:
            hc = T.lstm_cell(x_t, h, c, w_ih, w_hh, bias)
            h = T.slice_rows(hc, 0, 1)
            c = T.slice_rows(hc, 1, 2)
            outputs.append(h)
        inputs = outputs
        cell = c
    return cell


def latent_head(cell, params):
    """Three fully connected layers with GELU between them."""
    z = cell
    for i in range(3):
        z = T.add(T.matmul(z, params[f"enc.latent.w{i}"]),
                  params[f"enc.latent.b{i}"])
        if i < 2:
            z = T.gelu(z)
    return z


def run_encoder(xp_masked, params, profile, train_mode=False, rng=None):
    """Patch rows -> (latent 1 x d, post-transformer class-token row 1 x D)."""
    seq = preprocess(xp_masked, params)
    for b in range(profile.depth_enc):
        seq = transformer_block(seq, params, f"enc.block{b}", profile,
                                train_mode, rng)
    class_row = T.slice_rows(seq, 0, 1)
    latent = latent_head(lstm_traverse(seq, params, profile), params)
    return latent, class_row


def perturb_patches(x, snr_db, ratio_pad, grid, rng):
    """The one perturbation path: noise at snr_db, then patch masking.

    Noise is drawn from ``rng`` before the masked rows, an order that the
    training loss histories depend on. Returns (N x D patches, row mask).
    """
    return mask_patches(patchify(add_noise(x, snr_db, rng), grid), ratio_pad, rng)


def encode(x, perturb, params, profile, grid, train_mode=False, rng=None):
    """Full monitoring matrix -> latent, with optional perturbation.

    ``perturb`` of None patchifies x directly with an empty mask; otherwise
    it is an (snr_db, ratio_pad) pair applied with ``rng`` before encoding.
    """
    if perturb is None:
        xp = patchify(x, grid)
        mask = np.zeros(grid.N, dtype=bool)
    else:
        xp, mask = perturb_patches(x, *perturb, grid, rng)
    latent, class_row = run_encoder(xp, params, profile, train_mode, rng)
    return latent, class_row, mask
