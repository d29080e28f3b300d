"""The full denoising padded autoencoder: parameters, profiles, forward pass."""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import PatchGrid
from .decoder import compute_pe, decode, init_decoder_params
from .encoder import encode, init_encoder_params


@dataclass(frozen=True)
class ModelProfile:
    """Dimension bundle shared by the dataset, encoder, and decoder."""

    p: int
    l: int
    m: int
    depth_enc: int
    depth_dec: int
    heads: int
    latent_dim: int
    lstm_hidden: int
    head_widths: tuple
    mlp_ratio: float = 0.8
    dropout: float = 0.1

    def __post_init__(self):
        if min(self.D, self.N, self.depth_enc, self.heads) <= 0:
            raise ValueError("all encoder dimensions must be positive")
        if self.D % self.heads != 0:
            raise ValueError(f"D={self.D} not divisible by heads={self.heads}")
        if len(self.head_widths) != 2:
            raise ValueError("latent head takes exactly two hidden widths")

    @property
    def D(self):
        return self.p // self.m

    @property
    def N(self):
        return self.l * self.m

    @property
    def head_dim(self):
        return self.D // self.heads

    @property
    def mlp_hidden(self):
        return int(round(self.mlp_ratio * self.D))

    def grid(self):
        return PatchGrid.for_shape(self.p, self.l, self.m)


# Full-size profile: 200 x 38 transients, 40-wide patches, 128-d latent.
PAPER_PROFILE = ModelProfile(
    p=200, l=38, m=5, depth_enc=4, depth_dec=4, heads=4,
    latent_dim=128, lstm_hidden=40, head_widths=(64, 96),
)

# Reduced profile sized so a full pipeline runs in minutes on one CPU core.
DESK_PROFILE = ModelProfile(
    p=80, l=8, m=4, depth_enc=2, depth_dec=2, heads=2,
    latent_dim=32, lstm_hidden=20, head_widths=(24, 28),
)


class DPAE:
    """Parameter container plus the encode/decode composition."""

    def __init__(self, profile, seed):
        self.profile = profile
        self.seed = seed
        self.grid = profile.grid()
        self.pe_table = compute_pe(profile.N + 1, profile.D)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.params = init_encoder_params(profile, rng)
        self.params.update(init_decoder_params(profile, rng))

    def parameter_count(self):
        return sum(p.data.size for p in self.params.values())

    def encode(self, x, perturb=None, train_mode=False, rng=None):
        """x -> (latent, class row, mask); perturb is (snr_db, ratio_pad)."""
        return encode(x, perturb, self.params, self.profile, self.grid,
                      train_mode, rng)

    def decode(self, latent, class_row, train_mode=False, rng=None):
        return decode(latent, class_row, self.params, self.profile, self.grid,
                      self.pe_table, train_mode, rng)

    def reconstruct(self, x, perturb=None, train_mode=False, rng=None):
        """x -> (reconstruction Tensor p x l, latent, mask)."""
        latent, class_row, mask = self.encode(x, perturb, train_mode, rng)
        recon = self.decode(latent, class_row, train_mode, rng)
        return recon, latent, mask

    def latent_vector(self, x):
        """Eval-mode latent of an unperturbed x as a flat ndarray of length d."""
        latent, _, _ = self.encode(x)
        return latent.data.reshape(-1).copy()
