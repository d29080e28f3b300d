"""Regenerate perfbench/reference.json, the outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Run it only when the library's outputs change on purpose; the benchmark
then compares every run of the same seed against these values.
"""

import json
import sys

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, run.SRC)

import workloads  # noqa: E402

SEEDS = range(16)
DIAGNOSE_EVENTS = 32


def main():
    doc = {"train": {}, "diagnose": {}}
    for seed in SEEDS:
        train = workloads.Train()
        train.setup(seed)
        train.prepare(0)
        doc["train"][str(seed)] = train.op(0, run.untimed)
        diagnose = workloads.Diagnose()
        diagnose.setup(seed)
        doc["diagnose"][str(seed)] = [diagnose.summary(diagnose.event(i)[1])
                                      for i in range(DIAGNOSE_EVENTS)]
        print(f"seed {seed} done", flush=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


if __name__ == "__main__":
    main()
