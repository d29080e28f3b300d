"""Synthetic loss-of-coolant transient dataset and its perturbation primitives.

A sample is a p x l matrix: p time samples (period 0.5 s) of l monitoring
channels. Each channel follows one of six closed-form response templates
whose rate and amplitude are smooth monotone functions of break size, with
a location-dependent offset, so the labels stay recoverable downstream.

The perturbation primitives mirror deployment defects: per-channel Gaussian
noise at a target signal-to-noise ratio (``add_noise``) and whole-patch
masking (``mask_patches``) after the channel-major patchify reshape.
``encoder.perturb_patches`` is the one place that composes them.
"""

import csv
import json
import os
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

SAMPLE_PERIOD_S = 0.5

# Reference break-size span (cm) anchoring the severity scale.
_REF_SIZE_LO = 0.1
_REF_SIZE_HI = 35.1

# Closed-form template constants.
_BASE_LEVEL = 0.5
_LOCATION_SHIFT = 0.15
_AMP_FLOOR = 0.2
_AMP_SPAN = 0.8
_JITTER_SIGMA = 0.01
_PHASE_SIGMA = 0.1

# Guaranteed gap between settled decay values for 1 cm vs 30 cm breaks
# on a fully size-sensitive channel.
SEPARATION_MARGIN = 0.25


class Location(Enum):
    COLD_LEG = "cold_leg"
    HOT_LEG = "hot_leg"


class ResponseTemplate(Enum):
    DECAY = "decay"
    LEVEL_DROP = "level-drop"
    STEP_THEN_DECAY = "step-then-decay"
    OSCILLATORY_DECAY = "oscillatory-decay"
    RAMP = "ramp"
    PLATEAU = "plateau"


@dataclass(frozen=True)
class ChannelSpec:
    index: int
    node_name: str
    description: str
    response_template: ResponseTemplate
    location_sensitivity: float
    size_sensitivity: float

    def __post_init__(self):
        if not (0.0 <= self.location_sensitivity <= 1.0):
            raise ValueError("location_sensitivity outside [0, 1]")
        if not (0.0 <= self.size_sensitivity <= 1.0):
            raise ValueError("size_sensitivity outside [0, 1]")


_T = ResponseTemplate
_REGISTRY_ROWS = [
    ("tempf_505010000", "Temperature of main feed water", _T.PLATEAU, 0.05, 0.30),
    ("mflowj_505010000", "Mass flow rate of main feed water", _T.LEVEL_DROP, 0.05, 0.50),
    ("cntrlvar_11", "Water level of steam generator", _T.LEVEL_DROP, 0.10, 0.60),
    ("mflowj_566010000", "Mass flow rate of auxiliary feed water", _T.STEP_THEN_DECAY, 0.05, 0.50),
    ("mflowj_537000000", "Mass flow rate of main steam", _T.LEVEL_DROP, 0.05, 0.55),
    ("p_540010000", "Pressure of steam line", _T.DECAY, 0.10, 0.70),
    ("p_850010000", "Pressure of steam busbar", _T.DECAY, 0.10, 0.65),
    ("voidf_811010000", "Water level of SI", _T.LEVEL_DROP, 0.15, 0.70),
    ("p_810010000", "Pressure of SI", _T.DECAY, 0.10, 0.60),
    ("mflowj_811010000", "Mass flow rate of LHSI pump", _T.STEP_THEN_DECAY, 0.20, 0.90),
    ("mflowj_806000000", "Mass flow rate of boron injection pump", _T.STEP_THEN_DECAY, 0.15, 0.80),
    ("rktpow", "Avg. power", _T.LEVEL_DROP, 0.10, 0.80),
    ("cntrlvar_100", "Maximum average temperature of loops", _T.OSCILLATORY_DECAY, 0.50, 0.70),
    ("tempf_138010000", "Temperature of reactor core outlet", _T.DECAY, 0.40, 0.75),
    ("tempf_155010000", "Temperature of the upper head", _T.DECAY, 0.35, 0.70),
    ("cntrlvar_2", "Water level of pressure vessel", _T.LEVEL_DROP, 0.30, 0.85),
    ("p_155010000", "Pressure of reactor coolant", _T.DECAY, 0.30, 1.00),
    ("p_260010000", "Pressure of pressurizer", _T.DECAY, 0.25, 0.95),
    ("cntrlvar_42", "Water level of pressurizer", _T.LEVEL_DROP, 0.30, 0.90),
    ("cntrlvar_121", "Mass flow rate of reactor coolant", _T.LEVEL_DROP, 0.40, 0.70),
    ("tempf_200010000", "Temperature of the broken loop (1#) hot leg", _T.OSCILLATORY_DECAY, 1.00, 0.60),
    ("tempf_300010000", "Temperature of hot leg of loop 2#", _T.OSCILLATORY_DECAY, 0.60, 0.50),
    ("tempf_400010000", "Temperature of hot leg of loop 3#", _T.OSCILLATORY_DECAY, 0.60, 0.50),
    ("tempf_250010000", "Temperature of the broken loop (1#) cold leg", _T.OSCILLATORY_DECAY, 1.00, 0.60),
    ("tempf_350010000", "Temperature of cold leg of loop 2#", _T.OSCILLATORY_DECAY, 0.60, 0.50),
    ("tempf_450010000", "Temperature of cold leg of loop 3#", _T.OSCILLATORY_DECAY, 0.60, 0.50),
    ("cntrlvar_101", "Avg. temperature of the broken loop (1#)", _T.DECAY, 0.90, 0.60),
    ("cntrlvar_102", "Avg. temperature of loop 2#", _T.DECAY, 0.50, 0.50),
    ("cntrlvar_103", "Avg. temperature of loop 3#", _T.DECAY, 0.50, 0.50),
    ("pmpvel_235", "Pump speed of the broken loop (1#)", _T.PLATEAU, 0.70, 0.40),
    ("pmpvel_335", "Pump speed of loop 2#", _T.PLATEAU, 0.30, 0.35),
    ("pmpvel_435", "Pump speed of loop 3#", _T.PLATEAU, 0.30, 0.35),
    ("tempf_270010000", "Temperature of pressurizer surge tube (node 1)", _T.RAMP, 0.30, 0.60),
    ("tempf_270050000", "Temperature of pressurizer surge tube (node 5)", _T.RAMP, 0.30, 0.55),
    ("tempg_260010000", "Gas temperature of pressurizer", _T.DECAY, 0.20, 0.70),
    ("tempf_262010000", "Liquid temperature of pressurizer", _T.DECAY, 0.20, 0.65),
    ("tempg_281010000", "Upstream temperature of the safety valve of the pressurizer", _T.RAMP, 0.15, 0.50),
    ("voidf_200010000", "Water level in the hot leg of the breakout loop", _T.LEVEL_DROP, 0.90, 0.80),
]

# Eight-channel subset covering all six templates, for reduced-scale runs.
_COMPACT_NODE_NAMES = [
    "p_155010000",
    "cntrlvar_11",
    "mflowj_811010000",
    "tempf_200010000",
    "tempf_270010000",
    "pmpvel_235",
    "cntrlvar_2",
    "tempf_250010000",
]


def default_registry():
    """Full 38-channel registry."""
    return tuple(
        ChannelSpec(i, name, desc, tpl, loc_s, size_s)
        for i, (name, desc, tpl, loc_s, size_s) in enumerate(_REGISTRY_ROWS)
    )


def compact_registry():
    """Eight-channel registry spanning every response template."""
    by_name = {row[0]: row for row in _REGISTRY_ROWS}
    return tuple(
        ChannelSpec(i, *by_name[name]) for i, name in enumerate(_COMPACT_NODE_NAMES)
    )


def registry_for(num_channels):
    if num_channels == len(_REGISTRY_ROWS):
        return default_registry()
    if num_channels == len(_COMPACT_NODE_NAMES):
        return compact_registry()
    if 1 <= num_channels <= len(_REGISTRY_ROWS):
        full = default_registry()
        return tuple(replace(c, index=i) for i, c in enumerate(full[:num_channels]))
    raise ValueError(f"no registry with {num_channels} channels")


def severity(size_cm):
    """Map break size onto [0, 1] logarithmically over the reference span."""
    s = np.log(size_cm / _REF_SIZE_LO) / np.log(_REF_SIZE_HI / _REF_SIZE_LO)
    return float(np.clip(s, 0.0, 1.0))


def channel_response(spec, times_s, size_cm, location,
                     jitter_offset=0.0, jitter_phase=0.0):
    """Closed-form channel trajectory for one transient.

    Rate and amplitude are monotone in severity; the location enters as a
    signed offset scaled by the channel's location sensitivity.
    """
    t = np.asarray(times_s, dtype=np.float64)
    s = severity(size_cm)
    loc_sign = 1.0 if location is Location.HOT_LEG else -1.0
    shift = spec.location_sensitivity * _LOCATION_SHIFT * loc_sign
    amp = _AMP_FLOOR + _AMP_SPAN * spec.size_sensitivity * s
    base = _BASE_LEVEL + shift + jitter_offset

    kind = spec.response_template
    if kind is ResponseTemplate.DECAY:
        tau = max(16.0 - 10.0 * s * spec.size_sensitivity, 3.0)
        u = base - amp * (1.0 - np.exp(-t / tau))
    elif kind is ResponseTemplate.LEVEL_DROP:
        tau = max(30.0 - 20.0 * s, 5.0)
        u = base - amp * t / (t + tau)
    elif kind is ResponseTemplate.STEP_THEN_DECAY:
        onset = 30.0 * (1.0 - s) + 2.0
        tau = 10.0 + 10.0 * (1.0 - s)
        u = base + np.where(
            t >= onset, amp * np.exp(-(t - onset) / tau), 0.0
        )
    elif kind is ResponseTemplate.OSCILLATORY_DECAY:
        omega = 0.12 + 0.5 * s
        u = base + amp * np.exp(-t / 20.0) * np.cos(omega * t + jitter_phase)
    elif kind is ResponseTemplate.RAMP:
        u = base + amp * t / 100.0
    elif kind is ResponseTemplate.PLATEAU:
        tau = 8.0 + 6.0 * (1.0 - s)
        u = base + amp * np.tanh(t / tau)
    else:
        raise ValueError(f"unknown template {kind}")
    return u


@dataclass
class TransientSample:
    matrix: np.ndarray
    location: Location
    size_cm: float


@dataclass
class Dataset:
    samples: list
    split: list
    seed: int
    registry: tuple
    channel_min: np.ndarray = None
    channel_max: np.ndarray = None
    normalized: bool = False

    @property
    def p(self):
        return self.samples[0].matrix.shape[0]

    @property
    def l(self):
        return len(self.registry)

    def indices(self, split):
        return [i for i, s in enumerate(self.split) if s == split]


@dataclass
class PatchGrid:
    m: int
    D: int
    N: int

    @classmethod
    def for_shape(cls, p, l, m):
        if p % m != 0:
            raise ValueError(f"p={p} not divisible by m={m}")
        return cls(m=m, D=p // m, N=l * m)


def generate_dataset(count, seed, size_range=(_REF_SIZE_LO, _REF_SIZE_HI),
                     split_fraction=0.8, p=200, registry=None):
    """Synthesize `count` labeled transients, deterministically from `seed`.

    Sizes are log-uniform over `size_range`; locations alternate so both
    classes stay balanced; the train/test split is stratified by location.
    """
    lo, hi = float(size_range[0]), float(size_range[1])
    if count < 4:
        raise ValueError("count must be at least 4")
    if not (0.0 < lo < hi):
        raise ValueError(f"invalid size range [{lo}, {hi}]")

    registry = default_registry() if registry is None else registry
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    times = np.arange(p, dtype=np.float64) * SAMPLE_PERIOD_S

    sizes = np.exp(rng.uniform(np.log(lo), np.log(hi), size=count))
    locations = [
        Location.COLD_LEG if i % 2 == 0 else Location.HOT_LEG
        for i in range(count)
    ]

    samples = []
    for i in range(count):
        jit_off = rng.normal(0.0, _JITTER_SIGMA, size=len(registry))
        jit_phase = rng.normal(0.0, _PHASE_SIGMA, size=len(registry))
        cols = [
            channel_response(spec, times, sizes[i], locations[i],
                             jit_off[c], jit_phase[c])
            for c, spec in enumerate(registry)
        ]
        matrix = np.ascontiguousarray(np.stack(cols, axis=1))
        samples.append(TransientSample(matrix, locations[i], float(sizes[i])))

    split = ["train"] * count
    for loc in Location:
        idx = [i for i in range(count) if locations[i] is loc]
        order = rng.permutation(len(idx))
        n_test = len(idx) - int(round(split_fraction * len(idx)))
        for j in order[:n_test]:
            split[idx[j]] = "test"

    return Dataset(samples=samples, split=split, seed=seed, registry=registry)


def normalize_matrix(x, channel_min, channel_max, clip=False):
    """Per-channel min-max map onto [0, 1]; degenerate channels map to 0.5."""
    span = channel_max - channel_min
    safe = np.where(span > 0.0, span, 1.0)
    out = (x - channel_min) / safe
    out = np.where(span > 0.0, out, 0.5)
    if clip:
        out = np.clip(out, -0.5, 1.5)
    return out


def denormalize_matrix(x, channel_min, channel_max):
    span = channel_max - channel_min
    return np.where(span > 0.0, x * span + channel_min, channel_min)


def normalize(dataset):
    """Map every channel onto [0, 1] using train-split statistics.

    Test samples reuse the train statistics and are clipped to [-0.5, 1.5].
    """
    train_idx = dataset.indices("train")
    if not train_idx:
        raise ValueError("no train samples to compute statistics from")
    stack = np.concatenate([dataset.samples[i].matrix for i in train_idx])
    mn = stack.min(axis=0)
    mx = stack.max(axis=0)

    out_samples = []
    for i, s in enumerate(dataset.samples):
        mat = normalize_matrix(s.matrix, mn, mx, clip=dataset.split[i] == "test")
        out_samples.append(TransientSample(mat, s.location, s.size_cm))
    return Dataset(
        samples=out_samples,
        split=list(dataset.split),
        seed=dataset.seed,
        registry=dataset.registry,
        channel_min=mn,
        channel_max=mx,
        normalized=True,
    )


def add_noise(x, snr_db, rng):
    """Per-channel zero-mean Gaussian noise at the requested SNR (dB)."""
    if snr_db is None:
        return x
    if not np.isfinite(x).all():
        raise FloatingPointError("non-finite input to add_noise")
    p_sig = np.mean(np.square(x), axis=0)
    var = p_sig * 10.0 ** (-snr_db / 10.0)
    noise = rng.normal(0.0, 1.0, size=x.shape) * np.sqrt(var)
    return x + noise


def patchify(x, grid):
    """p x l series -> N x D patch rows, channel-major then time-major."""
    p, l = x.shape
    if p != grid.m * grid.D:
        raise ValueError(f"p={p} inconsistent with m={grid.m}, D={grid.D}")
    if l * grid.m != grid.N:
        raise ValueError(f"l={l} inconsistent with N={grid.N}")
    return np.ascontiguousarray(
        x.T.reshape(l, grid.m, grid.D).reshape(grid.N, grid.D)
    )


def unpatchify(xp, grid):
    """Exact inverse of patchify."""
    if xp.shape != (grid.N, grid.D):
        raise ValueError(f"expected {(grid.N, grid.D)}, got {xp.shape}")
    l = grid.N // grid.m
    return np.ascontiguousarray(
        xp.reshape(l, grid.m, grid.D).reshape(l, grid.m * grid.D).T
    )


def mask_patches(xp, ratio_pad, rng):
    """Zero out round(ratio_pad * N) whole rows, chosen without replacement."""
    if not (0.0 <= ratio_pad <= 1.0):
        raise ValueError("ratio_pad outside [0, 1]")
    n = xp.shape[0]
    k = int(np.rint(ratio_pad * n))
    mask = np.zeros(n, dtype=bool)
    if k > 0:
        mask[rng.choice(n, size=k, replace=False)] = True
    out = xp.copy()
    out[mask] = 0.0
    return out, mask


def write_stamped_csv(path, config, header, rows):
    """CSV whose first line is ``# config=`` and the sorted-key config JSON."""
    with open(path, "w", newline="") as fh:
        fh.write("# config=" + json.dumps(config, sort_keys=True) + "\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def save_dataset(dataset, out_dir, meta=None):
    """Write a manifest plus one CSV per sample; values round-trip exactly.

    `meta` (a JSON-serializable dict) is stored in the manifest verbatim.
    """
    os.makedirs(out_dir, exist_ok=True)
    names = [c.node_name for c in dataset.registry]
    entries = []
    for i, s in enumerate(dataset.samples):
        fname = f"sample_{i:04d}.csv"
        with open(os.path.join(out_dir, fname), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(names)
            for row in s.matrix:
                w.writerow([repr(float(v)) for v in row])
        entries.append({
            "file": fname,
            "location": s.location.value,
            "size_cm": s.size_cm,
            "split": dataset.split[i],
        })
    manifest = {
        "seed": dataset.seed,
        "p": dataset.p,
        "l": dataset.l,
        "normalized": dataset.normalized,
        "channels": [
            {
                "index": c.index,
                "node_name": c.node_name,
                "description": c.description,
                "response_template": c.response_template.value,
                "location_sensitivity": c.location_sensitivity,
                "size_sensitivity": c.size_sensitivity,
            }
            for c in dataset.registry
        ],
        "normalization": None if dataset.channel_min is None else {
            "min": dataset.channel_min.tolist(),
            "max": dataset.channel_max.tolist(),
        },
        "samples": entries,
    }
    if meta is not None:
        manifest["meta"] = meta
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)


def load_dataset(in_dir):
    with open(os.path.join(in_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    registry = tuple(
        ChannelSpec(
            c["index"], c["node_name"], c["description"],
            ResponseTemplate(c["response_template"]),
            c["location_sensitivity"], c["size_sensitivity"],
        )
        for c in manifest["channels"]
    )
    samples, split = [], []
    for entry in manifest["samples"]:
        with open(os.path.join(in_dir, entry["file"]), newline="") as fh:
            rows = list(csv.reader(fh))
        matrix = np.array([[float(v) for v in row] for row in rows[1:]])
        samples.append(TransientSample(
            matrix, Location(entry["location"]), entry["size_cm"]
        ))
        split.append(entry["split"])
    norm = manifest["normalization"]
    return Dataset(
        samples=samples,
        split=split,
        seed=manifest["seed"],
        registry=registry,
        channel_min=None if norm is None else np.array(norm["min"]),
        channel_max=None if norm is None else np.array(norm["max"]),
        normalized=manifest["normalized"],
    )
