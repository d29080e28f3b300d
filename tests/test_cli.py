"""Command-line pipeline tests: exit codes, artifacts, reproducibility.

A module-scoped workspace runs the whole chain once (generate, train,
extract, fit heads) at a small size; individual tests then exercise each
command against it. Reruns into fresh directories must be byte-identical,
so most determinism checks are straight file comparisons.
"""

import csv
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import dpae.cli as cli
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

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        assert run_cli("gen-data", "--config", str(cfg_path),
                       "--out", str(tmp_path / "x")) == 1


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

    def test_missing_latents_is_usage_error(self, ws, tmp_path):
        assert run_cli("train-heads", "--data", ws.data,
                       "--out", str(tmp_path / "h"), "--head", "mlp",
                       "--seed", SEED) == 1

    def test_missing_data_is_usage_error(self, ws, tmp_path):
        assert run_cli("train-heads", "--latents",
                       os.path.join(ws.lat, "latents.csv"),
                       "--out", str(tmp_path / "h"), "--head", "mlp",
                       "--seed", SEED) == 1


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

    def test_psi_covers_every_channel_with_ranks(self, exp):
        rows = read_csv_rows(os.path.join(exp, "psi.csv"))[1:]
        assert len(rows) == DESK_PROFILE.l
        assert sorted(int(r[2]) for r in rows) == list(
            range(DESK_PROFILE.l))

    def test_heatmap_dimensions(self, exp):
        rows = read_csv_rows(os.path.join(exp, "heatmap.csv"))
        region_len = DESK_PROFILE.D // 2
        regions = DESK_PROFILE.p // region_len
        assert len(rows) == DESK_PROFILE.l + 1
        assert len(rows[1]) == regions + 1

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

    def test_empty_band_is_numerical_failure(self, ws, tmp_path):
        assert run_cli("explain", "--model", ws.ckpt, "--data", ws.data,
                       "--heads", ws.heads, "--out", str(tmp_path / "e"),
                       "--band", "0.001,0.002", "--explain-count", "1",
                       "--background-size", "4", "--coalitions", "40",
                       "--seed", SEED) == 2


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

    def test_lock_removed_after_success(self, ws):
        assert not os.path.exists(os.path.join(ws.data, cli.LOCK_NAME))

    def test_malformed_band_is_usage_error(self, ws, tmp_path):
        for band in ("abc", "14,6"):
            assert run_cli("explain", "--model", ws.ckpt, "--data", ws.data,
                           "--heads", ws.heads, "--out", str(tmp_path / "e"),
                           "--band", band, "--seed", SEED) == 1, band


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
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "worst" in proc.stdout
