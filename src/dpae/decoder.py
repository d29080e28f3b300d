"""Latent-to-matrix decoder: expansion, fixed positional table, transformer.

The latent is expanded by one fully connected layer to an N x D patch
sequence, the encoder's class-token row is prepended, a fixed sin-cos
positional table is added, and transformer blocks refine the sequence.
Row 0 is then dropped and the patch rows are folded back to the p x l
monitoring matrix.
"""

import numpy as np

from . import tensor as T
from .encoder import _init_block, transformer_block, xavier_uniform


def compute_pe(rows, cols):
    """Fixed sin-cos positional table; row index is the position.

    Column pair (2m, 2m+1) holds sin and cos of pos / 10000^(2m/cols).
    """
    if cols % 2 != 0:
        raise ValueError(f"positional table needs an even width, got {cols}")
    pos = np.arange(rows, dtype=np.float64)[:, None]
    exponent = np.arange(0, cols, 2, dtype=np.float64) / cols
    angle = pos / np.power(10000.0, exponent)
    pe = np.empty((rows, cols), dtype=np.float64)
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe


def init_decoder_params(profile, rng):
    """Fresh decoder parameters; the positional table is not among them."""
    params = {}
    nd = profile.N * profile.D
    params["dec.expand.w"] = T.Parameter(
        xavier_uniform(rng, (profile.latent_dim, nd), profile.latent_dim, nd),
        "dec.expand.w",
    )
    params["dec.expand.b"] = T.Parameter(np.zeros((1, nd)), "dec.expand.b")
    for b in range(profile.depth_dec):
        _init_block(params, f"dec.block{b}", rng, profile)
    return params


def expand_latent(latent, params, profile):
    """Single fully connected layer d -> N*D, reshaped row-major to N x D."""
    z = T.add(T.matmul(latent, params["dec.expand.w"]), params["dec.expand.b"])
    return T.reshape(z, (profile.N, profile.D))


def decode(latent, class_row, params, profile, grid, pe_table,
           train_mode=False, rng=None):
    """(latent, encoded class token) -> reconstructed p x l matrix."""
    xp = expand_latent(latent, params, profile)
    seq = T.concat_rows([class_row, xp])
    seq = T.add(seq, T.Tensor(pe_table))
    for b in range(profile.depth_dec):
        seq = transformer_block(seq, params, f"dec.block{b}", profile,
                                train_mode, rng)
    patches = T.slice_rows(seq, 1, profile.N + 1)
    l = grid.N // grid.m
    return T.transpose(T.reshape(patches, (l, grid.m * grid.D)))
