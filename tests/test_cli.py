"""Command-line pipeline tests: exit codes, artifacts, reproducibility.

A module-scoped workspace runs the whole chain once (generate, train,
extract, fit heads) at a small size; individual tests then exercise each
command against it. Reruns into fresh directories must be byte-identical,
so most determinism checks are straight file comparisons.
"""

import argparse
import csv
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import dpae.cli as cli
import dpae.data as D
import dpae.heads as H
from dpae.model import DESK_PROFILE

SEED = "7"
COUNT = "12"


def run_cli(*argv):
    return cli.main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv_rows(path):
    with open(path, newline="") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    return list(csv.reader(lines))


def first_line(path):
    with open(path) as fh:
        return fh.readline().rstrip("\n")


def same_bytes(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_ws")
    data, run, lat, heads = (str(root / n)
                             for n in ("data", "run", "lat", "heads"))
    assert run_cli("gen-data", "--out", data, "--count", COUNT,
                   "--scale", "desk", "--seed", SEED) == 0
    assert run_cli("train-dpae", "--data", data, "--out", run,
                   "--scale", "desk", "--epochs", "2", "--seed", SEED) == 0
    ckpt = os.path.join(run, "checkpoint_final")
    assert run_cli("extract-latents", "--model", ckpt, "--data", data,
                   "--out", lat, "--seed", SEED) == 0
    assert run_cli("train-heads", "--latents",
                   os.path.join(lat, "latents.csv"), "--data", data,
                   "--out", heads, "--head", "all", "--seed", SEED) == 0
    return SimpleNamespace(root=root, data=data, run=run, ckpt=ckpt,
                           lat=lat, heads=heads)


class TestGenData:
    def test_manifest_embeds_resolved_config_and_seed(self, ws):
        meta = read_json(os.path.join(ws.data, "manifest.json"))["meta"]
        assert meta["command"] == "gen-data"
        assert meta["config"]["seed"] == int(SEED)
        assert meta["config"]["count"] == int(COUNT)
        assert meta["config"]["scale"] == "desk"

    def test_sample_files_match_count(self, ws):
        files = [f for f in os.listdir(ws.data) if f.startswith("sample_")]
        assert len(files) == int(COUNT)

    def test_rerun_is_byte_identical(self, ws, tmp_path):
        again = str(tmp_path / "again")
        assert run_cli("gen-data", "--out", again, "--count", COUNT,
                       "--scale", "desk", "--seed", SEED) == 0
        for name in sorted(os.listdir(ws.data)):
            assert same_bytes(os.path.join(ws.data, name),
                              os.path.join(again, name)), name

    def test_config_file_supplies_values(self, ws, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"seed": 5, "count": 10, "scale": "desk"}))
        out = str(tmp_path / "from_file")
        assert run_cli("gen-data", "--config", str(cfg_path),
                       "--out", out) == 0
        meta = read_json(os.path.join(out, "manifest.json"))["meta"]
        assert meta["config"]["seed"] == 5
        assert meta["config"]["count"] == 10

    def test_flag_overrides_config_file(self, ws, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"seed": 5, "count": 10, "scale": "desk"}))
        out = str(tmp_path / "overridden")
        assert run_cli("gen-data", "--config", str(cfg_path),
                       "--out", out, "--seed", "9") == 0
        meta = read_json(os.path.join(out, "manifest.json"))["meta"]
        assert meta["config"]["seed"] == 9
        assert meta["config"]["count"] == 10

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        for doc in ({"bogus": 1}, {"train": {"bogus": 1}},
                    {"heads": {"seed": 3}}, {"shap": {"background": [1]}},
                    {"train": {"lr_ini": "0.002"}}, {"heads": {"tree_count": 2.5}},
                    {"heads": {"lr": True}}, {"shap": {"coalition_samples": 300.5}},
                    {"train": {"beta1": 0.9}}, {"heads": {"hidden_widths": [8]}},
                    {"size_band": [1]}, {"size_band": 5}, {"size_band": ["a", 2]},
                    {"seed": 1.5}, {"seed": True}, {"count": "abc"},
                    {"epochs": 2.0}, {"snr_db": "30"}, {"ratio_pad": "x"},
                    {"scale": []}, {"snr_db": float("nan")},
                    {"train": {"curriculum": 5}}, {"train": {"curriculum": []}},
                    {"train": {"curriculum": [[20, "x"]]}},
                    {"train": {"curriculum": [["a", 0.2]]}},
                    {"train": {"curriculum": [[None, 0.2]]}},
                    {"train": {"curriculum": [[20, 1.5]]}},
                    {"train": {"curriculum": [[20, 0.2, 1]]}},
                    {"train": {"lr_ini": -0.001}}, {"train": {"lr_ini": 0}},
                    {"train": {"checkpoint_interval": -3}}, {"ratio_pad": 2},
                    {"ratio_pad": -0.1}, {"heads": {"tree_count": 0}},
                    {"count": 3}, {"seed": -1},
                    {"heads": {"val_fraction": 0.2}},
                    {"heads": {"early_stop_threshold": 0.01}}):
            cfg_path.write_text(json.dumps(doc))
            assert run_cli("gen-data", "--config", str(cfg_path),
                           "--out", str(tmp_path / "x")) == 1, doc
            assert capsys.readouterr().err.startswith("usage error:"), doc
            assert not os.path.exists(tmp_path / "x"), doc

    def test_unparsable_config_file_is_usage_error(self, tmp_path, capsys):
        # A config file is user input, not an artifact of an earlier stage.
        cfg_path = tmp_path / "cut.json"
        cfg_path.write_text('{"seed": 5, "count": 1')
        assert run_cli("gen-data", "--config", str(cfg_path),
                       "--out", str(tmp_path / "x")) == 1
        assert capsys.readouterr().err.startswith("usage error:")


@pytest.fixture(scope="module")
def paper_data(tmp_path_factory):
    data = str(tmp_path_factory.mktemp("paper") / "data")
    assert run_cli("gen-data", "--out", data, "--count", "20",
                   "--scale", "paper", "--seed", SEED) == 0
    return data


class TestTrainDpae:
    def test_run_report_and_verified_checkpoint(self, ws):
        report = read_json(os.path.join(ws.run, "run.json"))
        assert report["verified"] is True
        assert report["config"]["seed"] == int(SEED)
        train_count = len([1 for r in read_csv_rows(
            os.path.join(ws.run, "loss_history.csv"))[1:]])
        assert report["steps"] == train_count

    def test_expected_step_count(self, ws):
        # 12 samples split 80/20 -> 10 train; 2 epochs x 5 settings each.
        report = read_json(os.path.join(ws.run, "run.json"))
        assert report["steps"] == 10 * 2 * 5

    def test_loss_history_embeds_config(self, ws):
        assert first_line(os.path.join(
            ws.run, "loss_history.csv")).startswith("# config=")

    def test_zero_epochs_is_usage_error(self, ws, tmp_path):
        assert run_cli("train-dpae", "--data", ws.data,
                       "--out", str(tmp_path / "t"), "--scale", "desk",
                       "--epochs", "0", "--seed", SEED) == 1

    def test_shape_mismatch_is_usage_error(self, ws, tmp_path):
        wide = str(tmp_path / "wide")
        assert run_cli("gen-data", "--out", wide, "--count", COUNT,
                       "--scale", "paper", "--seed", SEED) == 0
        assert run_cli("train-dpae", "--data", wide,
                       "--out", str(tmp_path / "t"), "--scale", "desk",
                       "--epochs", "1", "--seed", SEED) == 1


class TestReconstruct:
    def test_undertrained_model_fails_ratio_gate(self, ws, tmp_path):
        assert run_cli("reconstruct", "--model", ws.ckpt, "--data", ws.data,
                       "--out", str(tmp_path / "rec"), "--index", "0",
                       "--seed", SEED) == 2

    def test_passthrough_skips_gate_and_copies_input(self, ws, tmp_path):
        out = str(tmp_path / "rec")
        assert run_cli("reconstruct", "--model", ws.ckpt, "--data", ws.data,
                       "--out", out, "--index", "0", "--passthrough",
                       "--seed", SEED) == 0
        assert same_bytes(os.path.join(out, "clean.csv"),
                          os.path.join(out, "perturbed.csv"))
        report = read_json(os.path.join(out, "report.json"))
        assert report["passthrough"] is True
        assert report["masked_rows"] == []
        assert set(report["reconstruction"]) == {
            "mse_model", "mse_identity", "improvement_ratio"}

    def test_triplet_files_share_header(self, ws, tmp_path):
        out = str(tmp_path / "rec")
        assert run_cli("reconstruct", "--model", ws.ckpt, "--data", ws.data,
                       "--out", out, "--index", "1", "--passthrough",
                       "--seed", SEED) == 0
        headers = {read_csv_rows(os.path.join(out, n))[0][0]
                   for n in ("clean.csv", "perturbed.csv",
                             "reconstructed.csv")}
        assert len(headers) == 1

    def test_index_out_of_range_is_usage_error(self, ws, tmp_path):
        assert run_cli("reconstruct", "--model", ws.ckpt, "--data", ws.data,
                       "--out", str(tmp_path / "rec"), "--index", "99",
                       "--seed", SEED) == 1


class TestExtractLatents:
    def test_row_width_is_latent_dim_plus_two(self, ws):
        rows = read_csv_rows(os.path.join(ws.lat, "latents.csv"))
        d = DESK_PROFILE.latent_dim
        assert rows[0] == [f"z{i}" for i in range(d)] + ["location",
                                                         "size_cm"]
        assert all(len(r) == d + 2 for r in rows[1:])
        assert len(rows) - 1 == int(COUNT)

    def test_rerun_is_byte_identical(self, ws, tmp_path):
        again = str(tmp_path / "lat")
        assert run_cli("extract-latents", "--model", ws.ckpt,
                       "--data", ws.data, "--out", again,
                       "--seed", SEED) == 0
        assert same_bytes(os.path.join(ws.lat, "latents.csv"),
                          os.path.join(again, "latents.csv"))

    def test_clean_flag_changes_latents(self, ws, tmp_path):
        clean = str(tmp_path / "clean")
        assert run_cli("extract-latents", "--model", ws.ckpt,
                       "--data", ws.data, "--out", clean, "--clean",
                       "--seed", SEED) == 0
        assert not same_bytes(os.path.join(ws.lat, "latents.csv"),
                              os.path.join(clean, "latents.csv"))

    def test_model_dataset_mismatch_names_both_shapes(self, ws, paper_data,
                                                     tmp_path, capsys):
        out = tmp_path / "lat"
        assert run_cli("extract-latents", "--model", ws.ckpt,
                       "--data", paper_data, "--out", str(out),
                       "--seed", SEED) == 1
        err = capsys.readouterr().err
        assert "200x38" in err and "80x8" in err, err
        assert not out.exists()


class TestTrainHeads:
    def test_all_six_heads_written(self, ws):
        for name in ("mlp_cla", "mlp_reg", "forest_cla", "forest_reg",
                     "e2e_cla", "e2e_reg"):
            assert os.path.isdir(os.path.join(ws.heads, name)), name

    def test_fit_reports_structure(self, ws):
        doc = read_json(os.path.join(ws.heads, "fit_reports.json"))
        assert doc["config"]["seed"] == int(SEED)
        for name, report in doc["reports"].items():
            assert report["param_count"] > 0, name
            if not name.startswith("forest"):
                assert len(report["train_curve"]) >= 1, name

    def test_saved_head_predicts(self, ws):
        head = H.load_head(os.path.join(ws.heads, "mlp_cla"))
        probs = H.predict(head, np.zeros(DESK_PROFILE.latent_dim))
        assert probs.shape == (2,)
        assert np.isclose(probs.sum(), 1.0)

    @pytest.mark.parametrize("head", ["forest", "e2e"])
    def test_one_family_writes_the_files_all_writes(self, ws, tmp_path, head):
        # A head's seed offset is its place in the head table, not its place
        # among the heads a run selects.
        out = tmp_path / "h"
        latents = ["--latents", os.path.join(ws.lat, "latents.csv")]
        assert run_cli("train-heads", *(latents if head != "e2e" else []),
                       "--data", ws.data, "--out", str(out), "--head", head,
                       "--seed", SEED) == 0
        for name in (f"{head}_cla", f"{head}_reg"):
            files = sorted(os.listdir(out / name))
            assert files == sorted(os.listdir(os.path.join(ws.heads, name)))
            for f in files:
                assert same_bytes(out / name / f,
                                  os.path.join(ws.heads, name, f)), (name, f)

    def test_missing_latents_is_usage_error(self, ws, tmp_path):
        assert run_cli("train-heads", "--data", ws.data,
                       "--out", str(tmp_path / "h"), "--head", "mlp",
                       "--seed", SEED) == 1

    def test_missing_data_is_usage_error(self, ws, tmp_path):
        assert run_cli("train-heads", "--latents",
                       os.path.join(ws.lat, "latents.csv"),
                       "--out", str(tmp_path / "h"), "--head", "mlp",
                       "--seed", SEED) == 1

    def test_latents_of_another_dataset_are_usage_error(self, ws, tmp_path,
                                                         capsys):
        # Another seed draws other sizes and another split, so fitting on its
        # train rows would fit on some of the latents' test rows.
        other, out = str(tmp_path / "other"), tmp_path / "h"
        assert run_cli("gen-data", "--out", other, "--count", COUNT,
                       "--scale", "desk", "--seed", "8") == 0
        assert run_cli("train-heads", "--latents",
                       os.path.join(ws.lat, "latents.csv"), "--data", other,
                       "--out", str(out), "--head", "mlp", "--seed", SEED) == 1
        assert capsys.readouterr().err.startswith(
            "usage error: latents row 0 does not carry the location and size")
        assert not out.exists()

    def test_end_to_end_grid_comes_from_the_dataset(self, paper_data, tmp_path):
        # No --scale: the paper dataset alone picks the paper patch grid.
        cfg_path = tmp_path / "heads.json"
        cfg_path.write_text(json.dumps({"heads": {"max_epochs": 2}}))
        out = tmp_path / "h"
        assert run_cli("train-heads", "--config", str(cfg_path),
                       "--data", paper_data, "--out", str(out),
                       "--head", "e2e", "--seed", SEED) == 0
        assert (out / "e2e_cla").is_dir() and (out / "e2e_reg").is_dir()

    def test_negative_seed_flag_fails_before_the_dataset_loads(
            self, ws, tmp_path, capsys, monkeypatch):
        def load_dataset(path):
            raise AssertionError("the command loaded the dataset")

        monkeypatch.setattr(cli.D, "load_dataset", load_dataset)
        out = tmp_path / "h"
        assert run_cli("train-heads", "--latents",
                       os.path.join(ws.lat, "latents.csv"), "--data", ws.data,
                       "--out", str(out), "--head", "mlp", "--seed", "-1") == 1
        assert capsys.readouterr().err.startswith("usage error: config value seed")
        assert not out.exists()

    @pytest.mark.parametrize("head, section", [
        ("mlp", {"max_epochs": 0}), ("forest", {"max_depth": -3}),
        ("mlp", {"lr": -0.01})], ids=["max_epochs", "max_depth", "lr"])
    def test_head_values_that_break_a_fit_are_usage_errors(
            self, ws, tmp_path, capsys, head, section):
        cfg_path = tmp_path / "heads.json"
        cfg_path.write_text(json.dumps({"heads": section}))
        assert run_cli("train-heads", "--config", str(cfg_path), "--latents",
                       os.path.join(ws.lat, "latents.csv"), "--data", ws.data,
                       "--out", str(tmp_path / "h"), "--head", head,
                       "--seed", SEED) == 1
        assert f"usage error: {next(iter(section))}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "h" / f"{head}_cla")


@pytest.fixture(scope="module")
def metrics(ws):
    out = str(ws.root / "eval")
    assert run_cli("evaluate", "--model", ws.ckpt, "--data", ws.data,
                   "--heads", ws.heads, "--out", out, "--seed", SEED) == 0
    return read_json(os.path.join(out, "metrics.json"))


@pytest.fixture(scope="module")
def exp(ws):
    out = str(ws.root / "exp")
    assert run_cli("explain", "--model", ws.ckpt, "--data", ws.data,
                   "--heads", ws.heads, "--out", out, "--band", "2,60",
                   "--explain-count", "2", "--background-size", "8",
                   "--coalitions", "40", "--seed", SEED) == 0
    return out


class TestEvaluate:
    def test_heads_dir_flag_leaves_the_heads_section_alone(self, ws, tmp_path):
        # --heads names a directory; the config's heads section still resolves.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"heads": {"tree_count": 10}}))
        out = str(tmp_path / "eval")
        assert run_cli("evaluate", "--config", str(cfg_path), "--model",
                       ws.ckpt, "--data", ws.data, "--heads", ws.heads,
                       "--out", out, "--seed", SEED) == 0
        stamp = read_json(os.path.join(out, "metrics.json"))["config"]
        assert stamp["heads"] == {"tree_count": 10}

    def test_classifiers_report_macro_f1_and_per_class(self, metrics):
        for name in ("mlp_cla", "forest_cla", "e2e_cla"):
            entry = metrics["heads"][name]
            assert 0.0 <= entry["macro_f1"] <= 1.0
            for cls in ("cold_leg", "hot_leg"):
                per = entry["per_class"][cls]
                assert set(per) == {"f1", "degenerate", "precision",
                                    "recall"}

    def test_regressors_report_rmse(self, metrics):
        for name in ("mlp_reg", "forest_reg", "e2e_reg"):
            assert metrics["heads"][name]["rmse"] >= 0.0

    def test_embeds_config_and_perturbation(self, metrics):
        assert metrics["config"]["seed"] == int(SEED)
        assert metrics["split"] == "test"
        assert set(metrics["perturbation"]) == {"snr_db", "ratio_pad",
                                                "seed_tag"}

    def test_rerun_is_byte_identical(self, ws, metrics, tmp_path):
        again = str(tmp_path / "eval")
        assert run_cli("evaluate", "--model", ws.ckpt, "--data", ws.data,
                       "--heads", ws.heads, "--out", again,
                       "--seed", SEED) == 0
        assert same_bytes(os.path.join(str(ws.root / "eval"),
                                       "metrics.json"),
                          os.path.join(again, "metrics.json"))


class TestExplain:
    def test_phi_rows_sum_to_one(self, exp):
        rows = read_csv_rows(os.path.join(exp, "phi.csv"))
        values = [float(r[1]) for r in rows[1:]]
        assert len(values) == DESK_PROFILE.latent_dim
        assert abs(sum(values) - 1.0) < 1e-9
        assert read_json(os.path.join(exp, "importance.json"))["phi"] == values

    def test_psi_covers_every_channel_with_ranks(self, exp):
        rows = read_csv_rows(os.path.join(exp, "psi.csv"))[1:]
        assert len(rows) == DESK_PROFILE.l
        assert sorted(int(r[2]) for r in rows) == list(
            range(DESK_PROFILE.l))
        doc = read_json(os.path.join(exp, "importance.json"))
        rank0 = next(r[0] for r in rows if r[2] == "0")
        assert doc["ranking"][0]["node"] == rank0

    def test_heatmap_dimensions(self, exp):
        rows = read_csv_rows(os.path.join(exp, "heatmap.csv"))
        region_len = DESK_PROFILE.D // 2
        regions = DESK_PROFILE.p // region_len
        assert len(rows) == DESK_PROFILE.l + 1
        assert len(rows[1]) == regions + 1
        assert rows[0] == ["node"] + [f"region_{n}" for n in range(regions)]
        assert [r[0] for r in rows[1:]] == [
            c.node_name for c in D.registry_for(DESK_PROFILE.l)]

    def test_top_channel_traces_written(self, exp):
        tops = [f for f in os.listdir(exp) if f.startswith("top")]
        assert len(tops) == 5
        doc = read_json(os.path.join(exp, "importance.json"))
        top_node = doc["ranking"][0]["node"]
        assert any(top_node in f for f in tops)

    def test_report_embeds_band_and_config(self, exp):
        doc = read_json(os.path.join(exp, "importance.json"))
        assert doc["meta"]["band"] == [2.0, 60.0]
        assert doc["meta"]["config"]["seed"] == int(SEED)
        assert doc["meta"]["config"]["size_band"] == [2.0, 60.0]
        assert doc["meta"]["config"]["shap"] == {"coalition_samples": 40}

    def test_empty_band_is_numerical_failure(self, ws, tmp_path):
        assert run_cli("explain", "--model", ws.ckpt, "--data", ws.data,
                       "--heads", ws.heads, "--out", str(tmp_path / "e"),
                       "--band", "0.001,0.002", "--explain-count", "1",
                       "--background-size", "4", "--coalitions", "40",
                       "--seed", SEED) == 2

    def test_bad_counts_fail_before_the_dataset_loads(self, ws, tmp_path,
                                                      capsys, monkeypatch):
        def load_dataset(path):
            raise AssertionError("explain loaded the dataset")

        monkeypatch.setattr(cli.D, "load_dataset", load_dataset)
        for flag, value in (("--coalitions", str(DESK_PROFILE.latent_dim)),
                            ("--explain-count", "0"), ("--explain-count", "-1"),
                            ("--background-size", "0")):
            assert run_cli("explain", "--model", ws.ckpt, "--data", ws.data,
                           "--heads", ws.heads, "--out", str(tmp_path / "e"),
                           flag, value, "--seed", SEED) == 1, flag
            assert flag in capsys.readouterr().err, flag


class TestGradcheck:
    def test_ops_scope_passes_and_writes_report(self, tmp_path):
        out = str(tmp_path / "gc")
        assert run_cli("gradcheck", "--scope", "ops", "--out", out,
                       "--seed", "3") == 0
        doc = read_json(os.path.join(out, "gradcheck.json"))
        assert doc["worst"] <= 1e-5
        assert all(c["passed"] for c in doc["checks"])
        assert doc["checks"], "expected at least one check"

    def test_full_scope_passes(self):
        assert run_cli("gradcheck", "--scope", "full", "--seed", "3") == 0


def edit_json(path, edit):
    doc = read_json(path)
    edit(doc)
    path.write_text(json.dumps(doc))


def edit_lines(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


def replace_first(lines, old, new):
    at = next(i for i, ln in enumerate(lines) if old in ln)
    return lines[:at] + [lines[at].replace(old, new, 1)] + lines[at + 1:]


CKPT = "run/checkpoint_final"
# Artifacts of earlier stages, each broken in one way, and a command that
# reads it: every one is an I/O error (exit 3).
MALFORMED = {
    "profile_p_not_divisible_by_m": ("extract-latents", lambda c: edit_json(
        c / CKPT / "manifest.json",
        lambda d: d["meta"]["profile"].update(p=d["meta"]["profile"]["p"] + 1))),
    "checkpoint_without_meta": ("extract-latents", lambda c: edit_json(
        c / CKPT / "manifest.json", lambda d: d.pop("meta"))),
    "checkpoint_without_parameters": ("extract-latents", lambda c: edit_json(
        c / CKPT / "manifest.json", lambda d: d.pop("parameters"))),
    "payload_not_whole_floats": ("extract-latents", lambda c: (
        c / CKPT / "params.bin").write_bytes(
            (c / CKPT / "params.bin").read_bytes()[:-3])),
    "head_width_is_text": ("evaluate", lambda c: edit_json(
        c / "heads/mlp_cla/manifest.json",
        lambda d: d["meta"]["widths"].__setitem__(1, "a"))),
    "head_without_widths": ("evaluate", lambda c: edit_json(
        c / "heads/mlp_cla/manifest.json", lambda d: d["meta"].pop("widths"))),
    "head_widths_one_entry": ("evaluate", lambda c: edit_json(
        c / "heads/mlp_cla/manifest.json",
        lambda d: d["meta"].update(widths=[3]))),
    "head_width_zero": ("evaluate", lambda c: edit_json(
        c / "heads/mlp_reg/manifest.json",
        lambda d: d["meta"].update(widths=[4, 0]))),
    "head_task_bogus": ("evaluate", lambda c: edit_json(
        c / "heads/mlp_reg/manifest.json",
        lambda d: d["meta"].update(task="bogus"))),
    "dataset_without_samples": ("extract-latents", lambda c: edit_json(
        c / "data/manifest.json", lambda d: d.pop("samples"))),
    "dataset_without_normalized": ("extract-latents", lambda c: edit_json(
        c / "data/manifest.json", lambda d: d.pop("normalized"))),
    "sample_location_middle": ("extract-latents", lambda c: edit_json(
        c / "data/manifest.json",
        lambda d: d["samples"][0].update(location="middle"))),
    "sample_size_not_a_number": ("extract-latents", lambda c: edit_json(
        c / "data/manifest.json",
        lambda d: d["samples"][0].update(size_cm="x"))),
    "sample_size_negative": ("extract-latents", lambda c: edit_json(
        c / "data/manifest.json",
        lambda d: d["samples"][0].update(size_cm=-1.0))),
    "sample_size_nan": ("extract-latents", lambda c: edit_json(
        c / "data/manifest.json",
        lambda d: d["samples"][3].update(size_cm=float("nan")))),
    "sample_cell_not_a_number": ("extract-latents", lambda c: edit_lines(
        c / "data/sample_0000.csv",
        lambda lines: lines[:1] + ["x" + lines[1][lines[1].index(","):]]
        + lines[2:])),
    "sample_rows_cut": ("extract-latents", lambda c: edit_lines(
        c / "data/sample_0003.csv", lambda lines: lines[:-5])),
    "latents_location_middle": ("train-heads", lambda c: edit_lines(
        c / "lat/latents.csv",
        lambda lines: replace_first(lines, ",cold_leg,", ",middle,"))),
    "latents_empty": ("train-heads", lambda c: (
        c / "lat/latents.csv").write_text("")),
}


# Each subcommand's flags in order; "*" marks a required one.
SURFACE = {
    "gen-data": "--seed --config --count --scale --out*",
    "train-dpae": "--seed --config --data* --out* --scale --epochs --log-every",
    "reconstruct": "--seed --config --model* --data* --out* --index --snr "
                   "--pad --passthrough",
    "extract-latents": "--seed --config --model* --data* --out* --snr --pad "
                       "--clean",
    "train-heads": "--seed --config --latents --data* --out* --head --snr --pad",
    "evaluate": "--seed --config --model* --data* --heads* --out* --snr --pad",
    "explain": "--seed --config --model* --data* --heads* --out* --band "
               "--explain-count --background-size --coalitions",
    "gradcheck": "--seed --config --scope --out",
}


class TestCommandSurface:
    def test_each_subcommand_takes_its_flags_in_order(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(SURFACE)
        for name, parser in sub.choices.items():
            flags = [a.option_strings[0] + "*" * a.required
                     for a in parser._actions
                     if not isinstance(a, argparse._HelpAction)]
            assert " ".join(flags) == SURFACE[name], name

    @pytest.mark.parametrize("command", SURFACE)
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(command, "--help")
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: dpae {command}")


class TestExitCodesAndLocking:
    def test_unknown_subcommand_is_usage_error(self):
        assert run_cli("frobnicate") == 1

    def test_missing_dataset_is_io_error(self, ws, tmp_path):
        assert run_cli("train-dpae", "--data", str(tmp_path / "nope"),
                       "--out", str(tmp_path / "t"), "--epochs", "1",
                       "--seed", SEED) == 3

    def test_locked_directory_is_io_error(self, tmp_path):
        out = tmp_path / "locked"
        out.mkdir()
        (out / cli.LOCK_NAME).touch()
        assert run_cli("gen-data", "--out", str(out), "--count", COUNT,
                       "--seed", SEED) == 3

    def test_live_lock_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "live"
        out.mkdir()
        (out / cli.LOCK_NAME).write_text(str(os.getpid()))
        assert run_cli("gen-data", "--out", str(out), "--count", COUNT,
                       "--seed", SEED) == 3
        assert "locked by another command" in capsys.readouterr().err

    def test_stale_lock_reported_with_its_pid_and_kept(self, tmp_path,
                                                       capsys):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait(timeout=60)  # reaped, so its pid names no process
        out = tmp_path / "stale"
        out.mkdir()
        (out / cli.LOCK_NAME).write_text(str(child.pid))
        assert run_cli("gen-data", "--out", str(out), "--count", COUNT,
                       "--seed", SEED) == 3
        err = capsys.readouterr().err
        assert f"stale lock: process {child.pid} is not running" in err
        assert (out / cli.LOCK_NAME).read_text() == str(child.pid)
        assert not (out / "manifest.json").exists()

    def test_lock_holds_the_writer_pid(self, tmp_path, monkeypatch):
        seen = []
        save = cli.D.save_dataset

        def spy(dataset, out, **kw):
            with open(os.path.join(out, cli.LOCK_NAME)) as fh:
                seen.append(fh.read())
            return save(dataset, out, **kw)

        monkeypatch.setattr(cli.D, "save_dataset", spy)
        assert run_cli("gen-data", "--out", str(tmp_path / "g"), "--count",
                       COUNT, "--seed", SEED) == 0
        assert seen == [str(os.getpid())]

    def test_lock_removed_after_success(self, ws):
        assert not os.path.exists(os.path.join(ws.data, cli.LOCK_NAME))

    @pytest.mark.parametrize("artifact, command", [
        ("heads/forest_cla/forest.json", "evaluate"),
        ("heads/mlp_cla/manifest.json", "evaluate"),
        ("run/checkpoint_final/manifest.json", "extract-latents"),
        ("data/manifest.json", "extract-latents"),
    ])
    def test_truncated_json_artifact_is_io_error(self, ws, tmp_path, capsys,
                                                 artifact, command):
        copy = tmp_path / "ws"
        for name in ("data", "run", "heads"):
            shutil.copytree(ws.root / name, copy / name)
        path = copy / artifact
        path.write_bytes(path.read_bytes()[:100])
        argv = [command, "--model", str(copy / "run" / "checkpoint_final"),
                "--data", str(copy / "data"), "--out", str(tmp_path / "out"),
                "--seed", SEED]
        if command == "evaluate":
            argv += ["--heads", str(copy / "heads")]
        assert run_cli(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and str(path) in err

    @pytest.mark.parametrize("command, edit", MALFORMED.values(),
                             ids=MALFORMED.keys())
    def test_malformed_artifact_is_io_error(self, ws, tmp_path, capsys,
                                            command, edit):
        copy = tmp_path / "ws"
        for name in ("data", "run", "lat", "heads"):
            shutil.copytree(ws.root / name, copy / name)
        edit(copy)
        argv = [command, "--data", str(copy / "data"),
                "--out", str(tmp_path / "out"), "--seed", SEED]
        if command == "train-heads":
            argv += ["--latents", str(copy / "lat" / "latents.csv"),
                     "--head", "mlp"]
        else:
            argv += ["--model", str(copy / "run" / "checkpoint_final")]
        if command == "evaluate":
            argv += ["--heads", str(copy / "heads")]
        assert run_cli(*argv) == 3
        assert capsys.readouterr().err.startswith("i/o error:")
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("command", ["train-dpae", "train-heads"])
    def test_dataset_without_a_train_split_is_io_error(self, ws, tmp_path,
                                                       capsys, command):
        data, out = tmp_path / "data", tmp_path / "out"
        shutil.copytree(ws.data, data)
        edit_json(data / "manifest.json", lambda d: [
            s.update(split=s["split"].replace("train", "Train"))
            for s in d["samples"]])
        argv = [command, "--data", str(data), "--out", str(out), "--seed", SEED]
        if command == "train-heads":
            argv += ["--latents", os.path.join(ws.lat, "latents.csv"),
                     "--head", "mlp"]
        assert run_cli(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and "split 'Train'" in err
        assert not out.exists()

    def test_malformed_band_is_usage_error(self, ws, tmp_path, capsys):
        for band in ("abc", "14,6", "nan,1"):
            assert run_cli("explain", "--model", ws.ckpt, "--data", ws.data,
                           "--heads", ws.heads, "--out", str(tmp_path / "e"),
                           "--band", band, "--seed", SEED) == 1, band
            if band == "abc":  # argparse names the type function
                err = capsys.readouterr().err
                assert "size_band" in err and "<lambda>" not in err

    def test_non_finite_snr_fails_before_the_dataset_loads(
            self, ws, tmp_path, capsys, monkeypatch):
        def load_dataset(path):
            raise AssertionError("the command loaded the dataset")

        monkeypatch.setattr(cli.D, "load_dataset", load_dataset)
        for command, extra in (("reconstruct", []), ("extract-latents", []),
                               ("evaluate", ["--heads", ws.heads])):
            for flag, value in (("--snr", "nan"), ("--pad", "2"),
                                ("--pad", "nan")):
                assert run_cli(command, "--model", ws.ckpt, "--data", ws.data,
                               "--out", str(tmp_path / "o"), flag, value,
                               *extra, "--seed", SEED) == 1, (command, flag)
                assert capsys.readouterr().err.startswith("usage error:"), \
                    (command, flag)


class TestOutputRoot:
    def test_relative_out_lands_under_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        monkeypatch.chdir(tmp_path)
        assert run_cli("gen-data", "--out", "rooted", "--count", COUNT,
                       "--seed", SEED) == 0
        assert os.path.isfile(str(tmp_path / "rooted" / "manifest.json"))

    def test_absolute_out_ignores_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path / "unused"))
        out = str(tmp_path / "absolute")
        assert run_cli("gen-data", "--out", out, "--count", COUNT,
                       "--seed", SEED) == 0
        assert os.path.isfile(os.path.join(out, "manifest.json"))
        assert not os.path.exists(str(tmp_path / "unused"))


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dpae.cli", "gradcheck", "--scope",
             "ops", "--seed", "3"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.path.join(
                os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                "src")))
        assert proc.returncode == 0
        assert "worst" in proc.stdout
