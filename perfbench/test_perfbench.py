"""Tests of the benchmark itself: tracer coverage, span counts, output checks.

    python3 -m pytest perfbench -q

They take about two minutes, because every workload is run twice, traced.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, run.SRC)

import dpae.heads as H  # noqa: E402
import dpae.model as M  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Counts that depend only on the code, never on the seed or the machine.
EXACT = ("tensor.nodes_per_update", "tensor.nodes_per_encode",
         "encoder.encode.calls", "heads.predict.forest.rows",
         "interpret.kernel_shap.g_calls", "interpret.kernel_shap.useful_ratio",
         "interpret.parameter_importance.encodes_per_sample")


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", "1"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return info["detail"], result


def test_tracer_wraps_every_binding_site():
    originals = {"encode": M.encode, "predict": H.predict,
                 "init": M.T.Tensor.__init__}
    tracer = spans.Tracer()
    tracer.install()
    try:
        import dpae.decoder
        import dpae.encoder
        import dpae.interpret
        assert M.encode is not originals["encode"]
        assert dpae.interpret.predict is not originals["predict"]
        assert dpae.decoder.transformer_block is dpae.encoder.transformer_block
        assert dpae.encoder.add_noise is dpae.data.add_noise
        assert M.T.Tensor.__init__ is not originals["init"]
        assert spans.unwrapped_bindings(list(originals.values())) == []
    finally:
        tracer.uninstall()
    assert M.encode is originals["encode"]
    assert H.predict is originals["predict"]
    assert M.T.Tensor.__init__ is originals["init"]


def test_a_stale_binding_is_reported():
    import dpae.metrics
    dpae.metrics.stale_predict = H.predict
    try:
        assert spans.unwrapped_bindings([H.predict]) == [
            "dpae.heads.predict", "dpae.interpret.predict",
            "dpae.metrics.stale_predict"]
    finally:
        del dpae.metrics.stale_predict


def test_a_layer_without_spans_fails_the_run():
    wl = workloads.Train()
    counts = {name: n for name, n in wl.expected_spans().items()
              if name != "decoder.msa"}
    failed = run.trace_checks(wl, counts, coverage=1.0)
    assert failed and "decoder.msa" in failed[0]
    assert run.trace_checks(wl, wl.expected_spans(), coverage=0.5)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_span_counts_match_the_calls_each_op_implies(name):
    expected = workloads.WORKLOADS[name]().expected_spans()
    first, result_a = traced_run(name, seed=0)
    second, result_b = traced_run(name, seed=3)
    for detail in (first, second):
        counts = detail["span_counts_per_op"]
        assert {k: v for k, v in counts.items() if k != f"op.{name}"} == expected
    for metric in EXACT:
        assert result_a["metrics"][metric] == result_b["metrics"][metric], metric
    assert result_a["metrics"]["trace.coverage_min"]["value"] >= run.MIN_COVERAGE


def test_train_checks_catch_a_wrong_loss():
    wl = workloads.Train()
    wl.setup(0)
    wl.prepare(0)
    losses = wl.op(0, run.untimed)
    assert wl.check(0, losses) == []
    assert wl.check(1, losses) == []
    shifted = [v * (1 + 1e-7) for v in losses]
    assert "losses differ from the committed reference" in wl.check(2, shifted)
    assert "non-finite loss" in wl.check(3, losses[:-1] + [float("nan")])


def test_diagnose_checks_catch_a_bad_probability():
    wl = workloads.Diagnose()
    wl.setup(0)
    z, preds = wl.event(0)
    assert wl.check(0, (z, preds)) == []
    preds["forest_cla"] = preds["forest_cla"] * 1.5
    assert wl.check(0, (z, preds))


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
