"""Smoke test: the quick demos run to completion against the library.

`demos/demo_pipeline.py` is left out: it trains a model and takes about
two minutes.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", ["demo_autodiff.py", "demo_shapley.py"])
def test_demo_exits_zero(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
