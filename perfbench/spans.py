"""Span tracer that wraps the public functions of each dpae layer from outside.

Spans are recorded only while a benchmark operation is open, so set-up and
correctness checks never show up. Each span keeps its name, start, end,
parent span, operation id, the number of Tensors created while it was open,
and a few per-call attributes (rows predicted, bytes an optimizer step must
move). Spans stay in memory until the run ends.

Many functions are bound by ``from .x import y`` in several modules (for
example ``dpae.model.encode`` and ``dpae.interpret.predict``), so a wrapper
replaces the function at every module attribute that holds it, and
``install`` fails if any binding is left unwrapped.
"""

import functools
import importlib
import sys
from time import perf_counter

import numpy as np

import dpae.heads as H
import dpae.tensor as T

# Every dpae module, imported before wrapping so that all bindings exist.
DPAE_MODULES = ("dpae.tensor", "dpae.data", "dpae.encoder", "dpae.decoder",
                "dpae.model", "dpae.training", "dpae.heads", "dpae.metrics",
                "dpae.interpret", "dpae.config", "dpae.cli")

NAME, START, END, PARENT, OP, TENSORS, ATTRS = range(7)


def _rows(x):
    arr = getattr(x, "data", x)
    return 1 if np.ndim(arr) == 1 else int(np.shape(arr)[0])


def _fixed(name):
    return lambda *args, **kwargs: (name, None)


def _by_prefix(layer):
    # transformer_block and msa serve both stacks; the prefix names the stack.
    def namer(x, params, prefix, *args, **kwargs):
        stack = "decoder" if prefix.startswith("dec.") else "encoder"
        return f"{stack}.{layer}", None
    return namer


def _predict(head, x, *args, **kwargs):
    kind = "forest" if isinstance(head, H.Forest) else "mlp"
    return f"heads.predict.{kind}", {"rows": _rows(x)}


def _nadam(params, grads, state, lr):
    # Minimum traffic of one update: read p, g, m, v and write p, m, v.
    size = sum(p.data.size for p in params.values())
    return "training.nadam_step", {"bytes": 7 * 8 * size}


def _kernel_shap(g, x, config):
    return "interpret.kernel_shap", {
        "coalitions": config.coalition_samples,
        "background": config.background.shape[0],
    }


def _parameter_importance(model, samples, *args, **kwargs):
    return "interpret.parameter_importance", {"samples": len(samples)}


# (module, attribute, namer). The span name is the layer module plus the
# function name, except where one function serves several layers.
TARGETS = (
    ("dpae.tensor", "backward", _fixed("tensor.backward")),
    ("dpae.tensor", "zero_grads", _fixed("tensor.zero_grads")),
    ("dpae.data", "add_noise", _fixed("data.add_noise")),
    ("dpae.data", "mask_patches", _fixed("data.mask_patches")),
    ("dpae.data", "patchify", _fixed("data.patchify")),
    ("dpae.data", "unpatchify", _fixed("data.unpatchify")),
    ("dpae.encoder", "encode", _fixed("encoder.encode")),
    ("dpae.encoder", "transformer_block", _by_prefix("transformer_block")),
    ("dpae.encoder", "msa", _by_prefix("msa")),
    ("dpae.encoder", "lstm_traverse", _fixed("encoder.lstm_traverse")),
    ("dpae.encoder", "latent_head", _fixed("encoder.latent_head")),
    ("dpae.decoder", "decode", _fixed("decoder.decode")),
    ("dpae.decoder", "expand_latent", _fixed("decoder.expand_latent")),
    ("dpae.model", "DPAE.reconstruct", _fixed("model.reconstruct")),
    ("dpae.model", "DPAE.latent_vector", _fixed("model.latent_vector")),
    ("dpae.training", "train", _fixed("training.train")),
    ("dpae.training", "train_step", _fixed("training.train_step")),
    ("dpae.training", "mse_loss", _fixed("training.mse_loss")),
    ("dpae.training", "nadam_step", _nadam),
    ("dpae.heads", "fit_mlp_head", _fixed("heads.fit_mlp_head")),
    ("dpae.heads", "fit_random_forest", _fixed("heads.fit_random_forest")),
    ("dpae.heads", "predict", _predict),
    ("dpae.interpret", "kernel_shap", _kernel_shap),
    ("dpae.interpret", "latent_importance", _fixed("interpret.latent_importance")),
    ("dpae.interpret", "parameter_importance", _parameter_importance),
)


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.spans = []
        self.tensors = 0
        self._stack = []
        self._op = None
        self._sites = []

    # -- recording ---------------------------------------------------------

    def _open(self, name, attrs):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), 0.0, parent, self._op,
                           self.tensors, attrs])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx):
        rec = self.spans[idx]
        rec[END] = perf_counter()
        rec[TENSORS] = self.tensors - rec[TENSORS]
        self._stack.pop()

    def run_op(self, op_id, name, fn, *args):
        """Run one benchmark operation as a top-level span."""
        self._op = op_id
        idx = self._open(name, None)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._op = None

    # -- wrapping ----------------------------------------------------------

    def _span_wrapper(self, fn, namer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            name, attrs = namer(*args, **kwargs)
            idx = tracer._open(name, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
        return traced

    def _counting_init(self, init):
        tracer = self

        @functools.wraps(init)
        def counted(*args, **kwargs):
            tracer.tensors += 1
            init(*args, **kwargs)
        return counted

    def _replace(self, owner, attr, original, wrapper):
        sites = [(owner, attr)]
        if not isinstance(owner, type):
            sites += [(mod, name)
                      for mod in _loaded_dpae_modules() if mod is not owner
                      for name, value in vars(mod).items() if value is original]
        for site_owner, site_attr in sites:
            setattr(site_owner, site_attr, wrapper)
            self._sites.append((site_owner, site_attr, original))

    def install(self):
        """Wrap every target at every binding site; raise if one is missed."""
        for name in DPAE_MODULES:
            importlib.import_module(name)
        originals = []
        for module_name, attr, namer in TARGETS:
            owner, attr, original = _resolve(module_name, attr)
            self._replace(owner, attr, original,
                          self._span_wrapper(original, namer))
            originals.append(original)
        init = T.Tensor.__init__
        self._replace(T.Tensor, "__init__", init, self._counting_init(init))
        originals.append(init)
        left = unwrapped_bindings(originals)
        if left:
            self.uninstall()
            raise RuntimeError(f"tracer missed bindings: {', '.join(left)}")

    def uninstall(self):
        for owner, attr, original in reversed(self._sites):
            setattr(owner, attr, original)
        self._sites = []


def _loaded_dpae_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == "dpae" or name.startswith("dpae.")]


def unwrapped_bindings(originals):
    """Module or class attributes of dpae that still hold an original."""
    ids = {id(fn) for fn in originals}
    left = set()
    for mod in _loaded_dpae_modules():
        for name, value in vars(mod).items():
            if id(value) in ids:
                left.add(f"{mod.__name__}.{name}")
            if isinstance(value, type):
                left.update(f"{value.__module__}.{value.__name__}.{attr}"
                            for attr, member in vars(value).items()
                            if id(member) in ids)
    return sorted(left)


# ---------------------------------------------------------------------------
# per-layer summary


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] is not None:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)], child


def _under(spans, idx, name):
    parent = spans[idx][PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def unit(metric):
    """Unit of a per-layer metric, from its name."""
    for suffix, u in ((".self_s", "s/op"), (".ms_p50", "ms"), (".calls", "count/op"),
                      (".rows", "count/op"), (".gb_per_s", "GB/s"),
                      ("_ratio", "ratio"), (".coverage_min", "ratio")):
        if metric.endswith(suffix):
            return u
    return "count"


def layer_metrics(spans, factors, units):
    """Per-layer metrics from one traced run.

    ``factors[j]`` is the calibration factor of timed stage j, the op id of
    its spans, so span times are scaled like the end-to-end times. ``units``
    is the number of workload ops (train samples, diagnose events, explain
    requests) traced; per-layer times and counts are given per op.
    """
    selfs, child = self_times(spans)
    self_s, count, tensors, durations = {}, {}, {}, {}
    rows = bytes_moved = nadam_self = 0.0
    for i, rec in enumerate(spans):
        name, f = rec[NAME], factors[rec[OP]]
        s = selfs[i] * f
        self_s[name] = self_s.get(name, 0.0) + s
        count[name] = count.get(name, 0) + 1
        tensors[name] = tensors.get(name, 0) + rec[TENSORS]
        durations.setdefault(name, []).append((rec[END] - rec[START]) * f)
        if name == "heads.predict.forest":
            rows += rec[ATTRS]["rows"]
        if name == "training.nadam_step":
            bytes_moved += rec[ATTRS]["bytes"]
            nadam_self += s

    def per_unit(*names):
        return sum(self_s.get(n, 0.0) for n in names) / units

    def ratio(num, den):
        return num / den if den else 0.0

    updates = sum(1 for i, rec in enumerate(spans)
                  if rec[NAME] == "training.nadam_step"
                  and _under(spans, i, "training.train_step"))
    children = {}
    for i, rec in enumerate(spans):
        children.setdefault(rec[PARENT], []).append(rec)
    shap = [(i, rec) for i, rec in enumerate(spans)
            if rec[NAME] == "interpret.kernel_shap"]
    g_calls = requested = evaluated = 0
    for i, rec in shap:
        calls = [r for r in children.get(i, ())
                 if r[NAME].startswith("heads.predict.")]
        g_calls += len(calls)
        bg = rec[ATTRS]["background"]
        # rows = bg (base value) + 1 (the explained point) + bg per coalition
        evaluated += (sum(r[ATTRS]["rows"] for r in calls) - bg - 1) / bg
        requested += rec[ATTRS]["coalitions"]
    ablation_samples = sum(rec[ATTRS]["samples"] for rec in spans
                           if rec[NAME] == "interpret.parameter_importance")
    ablation_encodes = sum(1 for i, rec in enumerate(spans)
                           if rec[NAME] == "encoder.encode"
                           and _under(spans, i, "interpret.parameter_importance"))
    tops = [i for i, rec in enumerate(spans) if rec[PARENT] is None]
    coverage = min(ratio(child[i], spans[i][END] - spans[i][START]) for i in tops)

    return {
        "tensor.backward.self_s": per_unit("tensor.backward"),
        "tensor.zero_grads.self_s": per_unit("tensor.zero_grads"),
        "tensor.nodes_per_update": ratio(tensors.get("training.train_step", 0),
                                         updates),
        "tensor.nodes_per_encode": ratio(tensors.get("encoder.encode", 0),
                                         count.get("encoder.encode", 0)),
        "data.perturb.self_s": per_unit("data.add_noise", "data.mask_patches",
                                        "data.patchify", "data.unpatchify"),
        "encoder.encode.calls": count.get("encoder.encode", 0) / units,
        "encoder.encode.ms_p50": 1e3 * float(np.median(
            durations.get("encoder.encode", [0.0]))),
        "encoder.transformer_block.self_s": per_unit("encoder.transformer_block"),
        "encoder.msa.self_s": per_unit("encoder.msa"),
        "encoder.lstm_traverse.self_s": per_unit("encoder.lstm_traverse"),
        "encoder.latent_head.self_s": per_unit("encoder.latent_head"),
        "decoder.expand_latent.self_s": per_unit("decoder.expand_latent"),
        "decoder.transformer_block.self_s": per_unit("decoder.transformer_block"),
        "decoder.msa.self_s": per_unit("decoder.msa"),
        "training.nadam_step.self_s": per_unit("training.nadam_step"),
        "training.nadam_step.gb_per_s": ratio(bytes_moved / 1e9, nadam_self),
        "heads.predict.forest.self_s": per_unit("heads.predict.forest"),
        "heads.predict.forest.rows": rows / units,
        "heads.predict.mlp.self_s": per_unit("heads.predict.mlp"),
        "heads.fit_random_forest.self_s": per_unit("heads.fit_random_forest"),
        "heads.fit_mlp_head.self_s": per_unit("heads.fit_mlp_head"),
        "interpret.kernel_shap.self_s": per_unit("interpret.kernel_shap"),
        "interpret.kernel_shap.g_calls": ratio(g_calls, len(shap)),
        "interpret.kernel_shap.useful_ratio": ratio(requested, evaluated),
        "interpret.parameter_importance.self_s":
            per_unit("interpret.parameter_importance"),
        "interpret.parameter_importance.encodes_per_sample":
            ratio(ablation_encodes, ablation_samples),
        "trace.coverage_min": coverage,
    }, count
