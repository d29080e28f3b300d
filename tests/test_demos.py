"""Smoke test: the demos run to completion against the library."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Arguments that shrink a demo to a few seconds.
ARGS = {"demo_pipeline.py": ["--events", "12", "--epochs", "1"]}


@pytest.mark.parametrize("name", ["demo_autodiff.py", "demo_shapley.py",
                                  "demo_pipeline.py"])
def test_demo_exits_zero(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name),
                           *ARGS.get(name, [])],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
