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


LATENTS = ((0.5, -0.25), (1.0, 2.0))
TRAIN = {"losses": [[0.5, 0.25], [0.75, 0.5]], "params_sha256": ["a", "b"]}


def record(files, stdout="matmul 1e-10 ok\nworst 1e-10\n", losses=(0.5, 0.25),
           latents=LATENTS, train=TRAIN):
    """A chain record; losses=None, latents=None or train=None is one written
    before they were kept."""
    rec = {"files": files, "gradcheck_stdout": stdout}
    if losses is not None:
        rec["losses"] = list(losses)
    if latents is not None:
        rec["paper_latents"] = [list(v) for v in latents]
    if train is not None:
        rec["paper_train"] = train
    return rec


def test_identical_records_have_no_difference(tmp_path, capsys):
    a = record({"data/manifest.json": "1", "run/params.bin": "2"})
    for name in ("a.json", "b.json"):
        (tmp_path / name).write_text(json.dumps(a))
    assert parity.main(["compare", str(tmp_path / "a.json"),
                        str(tmp_path / "b.json")]) == 0
    assert capsys.readouterr().out == \
        "2 of 2 files identical; gradcheck stdout identical; " \
        "loss column identical; paper latents identical; paper train identical\n"


def test_last_line_says_what_differs(tmp_path, capsys):
    a = record({"x": "1", "y": "2"})
    b = record({"x": "1", "y": "3"}, losses=(0.5, 0.2), latents=None,
               train={**TRAIN, "params_sha256": ["a", "c"]})
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    assert parity.main(["compare", str(tmp_path / "a.json"),
                        str(tmp_path / "b.json")]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == \
        "1 of 2 files identical; gradcheck stdout identical; " \
        "loss column different; paper latents not recorded; paper train different"


def test_records_from_before_the_paper_train_step_read_not_recorded(
        tmp_path, capsys):
    a = record({"x": "1"}, train=None)
    for name in ("a.json", "b.json"):
        (tmp_path / name).write_text(json.dumps(a))
    assert parity.main(["compare", str(tmp_path / "a.json"),
                        str(tmp_path / "b.json")]) == 0
    assert capsys.readouterr().out.endswith(
        "paper latents identical; paper train not recorded\n")


@pytest.mark.parametrize("b, want", [
    (record({"x": "1", "y": "3"}), ["differs: y"]),
    (record({"x": "1"}), ["only in A: y"]),
    (record({"x": "1", "y": "2", "z": "4"}), ["only in B: z"]),
    (record({"x": "1", "y": "2"}, "worst 1e-10\n"),
     ["differs: gradcheck stdout", "--- A", "+++ B", "@@ -1,2 +1 @@",
      "-matmul 1e-10 ok", " worst 1e-10"]),
    (record({"x": "1", "y": "2"}, latents=((0.5, -0.25), (1.0, 2.0 + 2.0 ** -51))),
     ["differs: paper latents",
      "  paper latents: largest relative difference 2.22e-16 over 2 vectors"]),
    (record({"x": "1", "y": "2"}, latents=((0.5, -0.25),)),
     ["differs: paper latents", "  paper latents: 2 vectors in A, 1 in B"]),
    (record({"x": "1", "y": "2"}, latents=None),
     ["differs: paper latents", "  paper latents: not recorded in B"]),
    (record({"x": "1", "y": "2"}, train={"losses": [[0.5, 0.25], [0.75, 0.6]],
                                         "params_sha256": ["a", "c"]}),
     ["differs: paper train",
      "  paper train losses: largest relative difference 0.167 over 2 seeds"]),
    (record({"x": "1", "y": "2"}, train={**TRAIN, "params_sha256": ["a", "c"]}),
     ["differs: paper train",
      "  paper train losses: largest relative difference 0 over 2 seeds"]),
    (record({"x": "1", "y": "2"}, train=None),
     ["differs: paper train", "  paper train losses: not recorded in B"]),
], ids=["hash", "missing_in_b", "missing_in_a", "stdout", "latents",
        "latents_shorter", "latents_unrecorded_b", "train_losses", "train_params",
        "train_unrecorded_b"])
def test_every_difference_is_listed(tmp_path, b, want):
    a = record({"x": "1", "y": "2"})
    assert parity.compare(a, b) == want
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    assert parity.main(["compare", str(tmp_path / "a.json"),
                        str(tmp_path / "b.json")]) == 1


@pytest.mark.parametrize("a_losses, b_losses, want", [
    ((0.5, 0.25), (0.5, 0.25 + 2.0 ** -53),
     "  losses: largest relative difference 4.44e-16 over 2 rows"),
    ((0.5, 0.25), (0.5, 0.2),
     "  losses: largest relative difference 0.2 over 2 rows"),
    ((0.5, 0.25), (0.5,), "  losses: 2 rows in A, 1 in B"),
    (None, (0.5, 0.25), "  losses: not recorded in A"),
    ((0.5, 0.25), None, "  losses: not recorded in B"),
    (None, None, "  losses: not recorded in A and B"),
], ids=["last_bits", "worse", "shorter", "unrecorded_a", "unrecorded_b",
        "unrecorded_both"])
def test_loss_history_difference_is_measured(a_losses, b_losses, want):
    a = record({parity.LOSSES: "1", "x": "2"}, losses=a_losses)
    b = record({parity.LOSSES: "3", "x": "2"}, losses=b_losses)
    assert parity.compare(a, b) == [f"differs: {parity.LOSSES}", want]
