"""Tour of the tensor engine: tape-based gradients checked against stencils.

Builds a few computations out of the engine's primitives, runs reverse-mode
backward passes, and verifies every gradient with central finite
differences. Ends with the engine's own audit helper on a two-layer LSTM
stack and on a miniature encode-decode composition.

Run: python3 demos/demo_autodiff.py [--seed N]
"""

import argparse
import math

import numpy as np

from dpae import tensor as T
from dpae import training as TR
from dpae.data import patchify
from dpae.model import DPAE, ModelProfile


def scalar_chain(seed):
    print("== a scalar chain, differentiated by hand and by tape ==")
    w = T.Parameter(np.array([[0.7]]), "w")
    # f(w) = mean((gelu(w w))^2), gelu(u) = u Phi(u); hand derivative via
    # chain rule with gelu'(u) = Phi(u) + u phi(u).
    with T.tape():  # record the forward so backward can replay it
        out = T.mse(T.gelu(T.matmul(w, w)), 0.0)
        T.zero_grads({"w": w})
        T.backward(out)
    x = 0.7
    u = x * x
    cdf = 0.5 * (1.0 + math.erf(u / math.sqrt(2.0)))
    pdf = math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    hand = 2.0 * (u * cdf) * (cdf + u * pdf) * 2.0 * x
    print(f"   f(w) = {out.data.item():.10f}")
    print(f"   tape dL/dw = {w.grad.item():+.10f}")
    print(f"   hand dL/dw = {hand:+.10f}")
    print(f"   agreement  = {abs(w.grad.item() - hand):.2e}\n")


def attention_style_block(seed):
    print("== two-head softmax attention, one tape node ==")
    rng = np.random.default_rng(seed)
    # Head h reads q, k and v from columns [9 h, 9 h + 9), three of each.
    params = {"qkv": T.Parameter(rng.normal(size=(4, 18)), "qkv")}

    def f():
        return T.mse(T.attention(params["qkv"], 2), 0.0)

    err = T.grad_check(f, params, eps=1e-5)
    print(f"   max relative error vs finite differences: {err:.3e}\n")


def lstm_check(seed):
    print("== a two-layer LSTM stack over a 4-row sequence, one tape node ==")
    rng = np.random.default_rng(seed)
    hidden = 5
    params = {"xs": T.Parameter(rng.normal(size=(4, 3)), "xs")}
    for layer, width in enumerate((3, hidden)):  # the top layer reads h below
        params[f"w_ih{layer}"] = T.Parameter(
            rng.normal(size=(width, 4 * hidden)) / 2.0, f"w_ih{layer}")
        params[f"w_hh{layer}"] = T.Parameter(
            rng.normal(size=(hidden, 4 * hidden)) / 2.0, f"w_hh{layer}")
        params[f"bias{layer}"] = T.Parameter(np.zeros((1, 4 * hidden)),
                                             f"bias{layer}")

    def f():
        # weights (w_ih, w_hh, bias) per layer, bottom layer first
        return T.mse(T.lstm(*params.values()), 0.0)

    err = T.grad_check(f, params, eps=1e-5)
    print(f"   max relative error across all 7 tensors: {err:.3e}\n")


def full_composition(seed):
    print("== miniature autoencoder, end to end ==")
    profile = ModelProfile(p=12, l=2, m=3, depth_enc=1, depth_dec=1,
                           heads=2, latent_dim=5, lstm_hidden=4,
                           head_widths=(4, 4))
    model = DPAE(profile, seed=seed)
    x = np.random.default_rng(seed + 1).uniform(size=(12, 2))
    xp = patchify(x, model.grid)  # the encoder takes N x D patches

    def f():
        recon, _ = model.reconstruct(xp)
        return TR.mse_loss(x, recon)

    err = T.grad_check(f, model.params, eps=1e-5, entries_per_param=2,
                       order=4)
    n = sum(p.data.size for p in model.params.values())
    print(f"   {len(model.params)} tensors, {n} scalar parameters")
    print(f"   encode -> decode -> MSE, max relative error: {err:.3e}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    scalar_chain(args.seed)
    attention_style_block(args.seed)
    lstm_check(args.seed)
    full_composition(args.seed)


if __name__ == "__main__":
    main()
