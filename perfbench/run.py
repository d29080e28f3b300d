"""Benchmark for the dpae stack: train, diagnose and explain workloads.

Run from the repository root:

    python3 perfbench/run.py --workload diagnose --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload is one process and a closed loop with one client: the next
operation starts when the previous one has finished and been checked.
``--trace 0`` prints the end-to-end metrics. ``--trace 1`` measures untraced
for half the time, then wraps the public functions of every layer and
measures for the other half, and prints the per-layer metrics plus the
tracing overhead.
The last line of standard output is the result as one JSON object; the line
before it records the environment and the workload's own breakdown. Results
and spans are also written under perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from time import perf_counter

# BLAS threads are pinned before numpy loads; going from 1 to 2 threads made
# no measurable difference to a paper-size train step, and one thread keeps
# the benchmark off the second core.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 3
MIN_COVERAGE = 0.9


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("train", "diagnose", "explain", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def _openblas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    import ctypes
    import glob

    import numpy as np
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def _source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "dpae")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def environment(seed):
    import platform

    import numpy as np
    import scipy

    from clock import REF_KERNEL_S
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(),
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "ref_kernel_s": REF_KERNEL_S,
    }


# ---------------------------------------------------------------------------
# measurement


def untimed(fn, *args):
    return fn(*args)


def measure(wl, clock, seconds, tracer=None):
    """Closed loop of ops for `seconds` (and at least wl.min_ops ops).

    Returns (stages, outputs, failures): the Timing of every stage of every
    op, the ops' outputs, and the failed checks by op index. Traced, each
    stage is a top-level span whose op id indexes the flat list of stages.
    """
    stages, outs, failures = [], [], {}
    n_stages = 0

    def timed(fn, *args):
        nonlocal n_stages
        if tracer is None:
            out, timing = clock.time(fn, *args)
        else:
            out, timing = clock.time(tracer.run_op, n_stages, f"op.{wl.name}",
                                     fn, *args)
        n_stages += 1
        stages[-1].append(timing)
        return out

    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds or i < wl.min_ops:
        wl.prepare(i)
        stages.append([])
        out = wl.op(i, timed)
        bad = wl.check(i, out)
        if bad:
            failures[i] = bad
        outs.append(out)
        i += 1
    return stages, outs, failures


def trace_checks(wl, counts, coverage):
    """Failed checks of the trace itself: missing layers, low coverage."""
    failed = []
    missing = [name for name, per_op in wl.expected_spans().items()
               if per_op and not counts.get(name)]
    if missing:
        failed.append(f"no spans recorded for {', '.join(sorted(missing))}; "
                      "a wrapper is missing")
    if coverage < MIN_COVERAGE:
        failed.append(f"child spans cover only {coverage:.1%} of an op")
    return failed


def run_workload(args):
    if not os.path.isfile(os.path.join(SRC, "dpae", "__init__.py")):
        print(f"perfbench: no dpae package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import resource

    import numpy as np

    import dpae
    if not os.path.abspath(dpae.__file__).startswith(SRC + os.sep):
        print(f"perfbench: dpae imported from {dpae.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans
    import workloads
    from clock import Clock

    clock = Clock()
    cls = workloads.WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        wl = cls()
        _, timing = clock.time(wl.setup, args.seed)
        setups.append(timing)
    for i in range(wl.warmup_ops):
        # Warm-up ops repeat the first measured ops, whose checks count.
        wl.prepare(i)
        wl.check(i, wl.op(i, untimed))

    # A traced run splits its time between an untraced and a traced half,
    # so that it costs no more than an untraced one.
    seconds = args.seconds / 2 if args.trace else args.seconds
    stages, outs, failures = measure(wl, clock, seconds)
    scaled = np.array([sum(t.scaled_s for t in ts) for ts in stages])
    e2e = {
        "setup_s": (float(np.median([t.scaled_s for t in setups])), "s"),
        "ops_per_s": (len(scaled) / float(scaled.sum()), "1/s"),
        "op_ms_p50": (1e3 * float(np.median(scaled)), "ms"),
        "passed_op_ratio": (1.0 - len(failures) / len(stages), "ratio"),
    }
    detail = {
        "ops": len(stages),
        "workload_metrics": wl.detail(stages, outs),
        "wall": {"setup_s": float(np.median([t.wall_s for t in setups])),
                 "op_ms_p50": 1e3 * float(np.median(
                     [sum(t.wall_s for t in ts) for ts in stages]))},
        "setup_scaled_s": [t.scaled_s for t in setups],
        "op_ms": [1e3 * v for v in scaled],
        "failures": {str(i): msgs for i, msgs in failures.items()},
    }
    attempted, failed = len(stages), len(failures)

    spans_out = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            t_stages, _, t_failures = measure(wl, clock, seconds, tracer)
        finally:
            tracer.uninstall()
        factors = [t.factor for ts in t_stages for t in ts]
        layers, counts = spans.layer_metrics(tracer.spans, factors, len(t_stages))
        layers["trace.overhead_ratio"] = float(np.median(
            [sum(t.scaled_s for t in ts) for ts in t_stages]) / np.median(scaled))
        bad = trace_checks(wl, counts, layers["trace.coverage_min"])
        if bad:
            t_failures["spans"] = bad
        attempted += len(t_stages)
        failed += len(t_failures)
        detail["failures"].update({f"traced {i}": m for i, m in t_failures.items()})
        detail["span_counts_per_op"] = {k: v / len(t_stages)
                                        for k, v in sorted(counts.items())}
        metrics = {name: {"value": value, "unit": spans.unit(name)}
                   for name, value in layers.items()}
        spans_out = tracer.spans
        detail["end_to_end"] = {name: v for name, (v, _) in e2e.items()}
    else:
        e2e["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    env = environment(args.seed)
    _write_out(args, env, detail, result, spans_out)
    print(json.dumps({"env": env, "detail": detail}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _write_out(args, env, detail, result, span_records):
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"env": env, "detail": detail, "result": result}, fh, indent=1)
    if span_records is not None:
        with open(stem + ".spans.jsonl", "w") as fh:
            for i, (name, start, end, parent, op, tensors, attrs) in \
                    enumerate(span_records):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "tensors": tensors, "attrs": attrs}) + "\n")


def run_all(args):
    """Every workload in its own process; prints one table."""
    status = 0
    for name in ("train", "diagnose", "explain"):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 and not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        status = status or proc.returncode
        print(f"== {name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:48s} {m['value']:14.6g} {m['unit']}")
        for metric, v in info["detail"]["workload_metrics"].items():
            print(f"  {metric:48s} {v:14.6g}")
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
