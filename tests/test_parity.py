"""tools/parity.py's comparison of two desk-chain records."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "parity.py")
_SPEC = importlib.util.spec_from_file_location("parity", _PATH)
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)


def record(files, stdout="matmul 1e-10 ok\nworst 1e-10\n"):
    return {"files": files, "gradcheck_stdout": stdout}


def test_identical_records_have_no_difference(tmp_path, capsys):
    a = record({"data/manifest.json": "1", "run/params.bin": "2"})
    for name in ("a.json", "b.json"):
        (tmp_path / name).write_text(json.dumps(a))
    assert parity.main(["compare", str(tmp_path / "a.json"),
                        str(tmp_path / "b.json")]) == 0
    assert capsys.readouterr().out == \
        "2 of 2 files identical; gradcheck stdout identical\n"


@pytest.mark.parametrize("b, want", [
    (record({"x": "1", "y": "3"}), ["differs: y"]),
    (record({"x": "1"}), ["only in A: y"]),
    (record({"x": "1", "y": "2", "z": "4"}), ["only in B: z"]),
    (record({"x": "1", "y": "2"}, "worst 1e-10\n"),
     ["differs: gradcheck stdout", "--- A", "+++ B", "@@ -1,2 +1 @@",
      "-matmul 1e-10 ok", " worst 1e-10"]),
], ids=["hash", "missing_in_b", "missing_in_a", "stdout"])
def test_every_difference_is_listed(tmp_path, b, want):
    a = record({"x": "1", "y": "2"})
    assert parity.compare(a, b) == want
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    assert parity.main(["compare", str(tmp_path / "a.json"),
                        str(tmp_path / "b.json")]) == 1
