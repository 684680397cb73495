import argparse
import builtins
import csv
import hashlib
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from svddpeak import _native, cli, datagen, evaluation, solver
from svddpeak.cli import (
    EXIT_NO_PEAK,
    EXIT_OK,
    EXIT_USAGE,
    ingest_shuttle,
    main,
    read_csv_dataset,
    sample_shuttle_class1,
)
from svddpeak.datagen import (Coded, generate_shape, labeled_grid_over, save_dataset,
                              write_csv_blocks)
from svddpeak.errors import InputError, ParseError

from native_paths import (
    WRITERS,
    pinned_reader,
    pinned_writer,
    supported_readers,
    supported_writers,
)


@pytest.fixture
def two_point_csv(tmp_path):
    path = tmp_path / "two_point.csv"
    save_dataset(path, np.array([[0.0, 0.0], [2.0, 0.0]]))
    return path


@pytest.fixture
def one_point_csv(tmp_path):
    path = tmp_path / "one_point.csv"
    save_dataset(path, np.array([[1.0, 2.0]]))
    return path


@pytest.fixture(scope="module")
def banana_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "banana.csv"
    save_dataset(path, generate_shape("banana", seed=11))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestTrain:
    def test_two_point_model_file(self, two_point_csv, tmp_path):
        out = tmp_path / "model.json"
        code = main(["train", "--data", str(two_point_csv), "--s", "2", "--f", "0.1",
                     "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["kernel_kind"] == "gaussian"
        assert payload["s"] == 2.0
        np.testing.assert_allclose(payload["alphas"], [0.5, 0.5], atol=1e-8)
        manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert str(two_point_csv) in manifest["inputs"]

    def test_single_point_zero_radius(self, one_point_csv, tmp_path):
        out = tmp_path / "model.json"
        code = main(["train", "--data", str(one_point_csv), "--s", "1", "--f", "0.5",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["r_squared"] == 0.0

    def test_banana_fixed_bandwidth(self, banana_csv, tmp_path):
        out = tmp_path / "banana_model.json"
        code = main(["train", "--data", str(banana_csv), "--s", "0.7", "--f", "0.001",
                     "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["kernel_kind"] == "gaussian"
        assert payload["s"] == 0.7

    def test_refused_row_buffer_is_one_error_line(self, two_point_csv, tmp_path, capsys,
                                                  refuse):
        refuse(np, "eye")
        out = tmp_path / "model.json"
        assert main(["train", "--data", str(two_point_csv), "--s", "2", "--f", "0.1",
                     "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: the kernel row buffer of 2 rows needs 0.0 GiB")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_missing_bandwidth_is_usage_error(self, two_point_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--data", str(two_point_csv), "--f", "0.1", "--out", str(out)])
        assert exit_info.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            "error: one of the arguments --s --tune is required\n")
        assert not out.exists()

    def test_bandwidth_and_tune_together_is_usage_error(self, two_point_csv, tmp_path,
                                                       capsys):
        out = tmp_path / "m.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--data", str(two_point_csv), "--s", "1", "--tune", "peak",
                  "--out", str(out)])
        assert exit_info.value.code == EXIT_USAGE
        assert "not allowed with argument --s" in capsys.readouterr().err
        assert not out.exists()

    def test_f_one_trains(self, banana_csv, tmp_path):
        # f = 1 leaves the uniform point as the only feasible solution
        out = tmp_path / "model.json"
        assert main(["train", "--data", str(banana_csv), "--s", "0.9", "--f", "1",
                     "--out", str(out)]) == EXIT_OK
        assert len(json.loads(out.read_text())["alphas"]) == 267

    def test_rows_past_the_float_range_train_quietly(self, tmp_path):
        # their squared distance overflows to inf, whose kernel entry 0 is
        # right, so numpy's overflow warning would only be noise on stderr
        data = tmp_path / "far.csv"
        data.write_text("x1,x2\n1e300,0\n-1e300,0\n0,1\n")
        done = subprocess.run([sys.executable, "-m", "svddpeak.cli", "train", "--data", str(data),
                               "--s", "1", "--f", "0.5", "--out", str(tmp_path / "m.json")],
                              capture_output=True, text=True, env=dict(os.environ,
                                                                       PYTHONPATH=_src_dir()))
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        assert done.stdout.startswith("trained on 3 rows: s=1 ")

    def test_a_tiny_bandwidth_trains_quietly(self, two_point_csv, tmp_path):
        # 2 s^2 is subnormal, so d^2 / (-2 s^2) overflows to -inf, whose
        # kernel entry 0 is right
        done = subprocess.run([sys.executable, "-m", "svddpeak.cli", "train", "--data",
                               str(two_point_csv), "--s", "1e-155", "--f", "0.5",
                               "--out", str(tmp_path / "m.json")],
                              capture_output=True, text=True, env=dict(os.environ,
                                                                       PYTHONPATH=_src_dir()))
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        assert done.stdout.startswith("trained on 2 rows: s=1e-155 ")

    def test_reproducible_byte_identical(self, two_point_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["train", "--data", str(two_point_csv), "--s", "2", "--f", "0.1",
                         "--out", str(out)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestTune:
    def test_md_two_point(self, two_point_csv, tmp_path):
        out = tmp_path / "report.json"
        code = main(["tune", "--data", str(two_point_csv), "--method", "md",
                     "--f", "0.001", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["s"] == pytest.approx(2.0 / math.sqrt(math.log(2.998)), abs=1e-9)

    def test_md_with_curve_is_usage_error(self, two_point_csv, tmp_path, capsys, monkeypatch):
        # md has no curve: --curve used to be accepted and nothing written there
        from svddpeak import baselines

        monkeypatch.setattr(baselines, "select_md", lambda *args: pytest.fail("md ran"))
        monkeypatch.setattr(cli, "read_csv_dataset", lambda *args: pytest.fail("data read"))
        out, curve = tmp_path / "md.json", tmp_path / "md.csv"
        assert main(["tune", "--data", str(two_point_csv), "--method", "md",
                     "--curve", str(curve), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: --curve: md ")
        assert sorted(tmp_path.iterdir()) == [two_point_csv]

    def test_cv_equidistant_ties_to_s_min(self, tmp_path):
        data = tmp_path / "tri.csv"
        save_dataset(data, np.eye(3))
        out = tmp_path / "report.json"
        code = main(["tune", "--data", str(data), "--method", "cv",
                     "--s-min", "0.1", "--s-max", "2.0", "--s-step", "0.1",
                     "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["s"] == pytest.approx(0.1)
        curve = read_rows(report["curve_csv"])
        assert curve[0] == ["s", "value"]
        assert len(curve) == 1 + 20

    def test_peak_writes_curve_csv(self, banana_csv, tmp_path):
        out = tmp_path / "peak.json"
        code = main(["tune", "--data", str(banana_csv), "--method", "peak",
                     "--f", "0.001", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["s_low"] <= report["s"] <= report["s_high"]
        rows = read_rows(report["curve_csv"])
        assert rows[0] == ["s", "v_star", "d1", "d2", "d2_fitted",
                           "ci_lower", "ci_upper", "in_zero_region"]
        assert len(rows) == 1 + 160
        # endpoints have no derivative estimates
        assert rows[1][2] == "" and rows[-1][2] == ""
        assert rows[2][2] != ""
        in_zero = [r[7] for r in rows[1:] if r[7] != ""]
        assert set(in_zero) <= {"0", "1"} and "1" in in_zero

    def test_peak_outputs_do_not_depend_on_jobs(self, tmp_path):
        data = tmp_path / "banana.csv"
        save_dataset(data, generate_shape("banana", n=80, seed=11))
        out, curve = tmp_path / "peak.json", tmp_path / "peak_curve.csv"
        outputs = []
        for jobs in ("1", "2"):
            code = main(["tune", "--data", str(data), "--method", "peak", "--f", "0.001",
                         "--s-max", "4.0", "--jobs", jobs, "--out", str(out)])
            assert code == EXIT_OK
            outputs.append((out.read_bytes(), curve.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_peak_failure_exit_code_with_diagnostics(self, tmp_path):
        # a tight cluster plus one far outlier keeps the curve steep: with a
        # huge min_run nothing qualifies, but diagnostics must still land
        rng = np.random.default_rng(5)
        data = tmp_path / "hard.csv"
        save_dataset(data, rng.normal(size=(40, 2)))
        out = tmp_path / "peak.json"
        code = main(["tune", "--data", str(data), "--method", "peak", "--f", "0.01",
                     "--s-min", "0.5", "--s-max", "3.0", "--s-step", "0.1",
                     "--min-run", "1000", "--out", str(out)])
        assert code == EXIT_NO_PEAK
        report = json.loads(out.read_text())
        assert report["s"] is None and "error" in report
        assert len(read_rows(report["curve_csv"])) == 1 + 26


class TestTrainTune:
    @pytest.mark.parametrize("method", ["peak", "cv", "md", "dfn"])
    def test_records_the_bandwidth_tune_reports(self, banana_csv, tmp_path, method):
        report_path, model_path = tmp_path / "report.json", tmp_path / "model.json"
        assert main(["tune", "--data", str(banana_csv), "--method", method,
                     "--out", str(report_path)]) == EXIT_OK
        assert main(["train", "--data", str(banana_csv), "--tune", method,
                     "--out", str(model_path)]) == EXIT_OK
        report = json.loads(report_path.read_text())
        tuned = json.loads((tmp_path / "model.json.manifest.json").read_text())["tuned"]
        assert json.loads(model_path.read_text())["s"] == tuned["s"] == report["s"]
        assert tuned == {"method": method, "s": report["s"], "s_low": report.get("s_low"),
                         "s_high": report.get("s_high")}

    @pytest.mark.parametrize("argv", [("tune", "--method", "peak"), ("tune", "--method", "cv"),
                                      ("tune", "--method", "md"), ("tune", "--method", "dfn"),
                                      ("train", "--tune", "peak")],
                             ids=["tune-peak", "tune-cv", "tune-md", "tune-dfn", "train-peak"])
    def test_coincident_rows_exit_two(self, tmp_path, capsys, argv):
        data = tmp_path / "same.csv"
        save_dataset(data, np.ones((4, 2)))
        out = tmp_path / "out.json"
        assert main([*argv, "--data", str(data), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: all observations coincide\n"
        assert sorted(tmp_path.iterdir()) == [data]

    @pytest.mark.parametrize("method", ["peak", "cv", "md", "dfn"])
    def test_underflowing_distances_exit_two(self, tmp_path, capsys, method):
        # distinct rows, but every squared distance underflows to 0
        data = tmp_path / "tiny.csv"
        data.write_text("x\n0\n1e-170\n0\n2e-170\n")
        out = tmp_path / "out.json"
        assert main(["tune", "--method", method, "--data", str(data),
                     "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: every squared distance between observations underflows to 0\n")
        assert sorted(tmp_path.iterdir()) == [data]

    def test_no_plateau_exits_three_from_tune_and_train(self, banana_csv, tmp_path, capsys):
        flags = ["--data", str(banana_csv), "--s-max", "0.6"]
        report_path, model_path = tmp_path / "report.json", tmp_path / "model.json"
        assert main(["tune", "--method", "peak", *flags,
                     "--out", str(report_path)]) == EXIT_NO_PEAK
        tune_err = capsys.readouterr().err
        assert main(["train", "--tune", "peak", *flags,
                     "--out", str(model_path)]) == EXIT_NO_PEAK
        report = json.loads(report_path.read_text())
        assert report["s"] is None
        assert tune_err == ("method=peak: no zero plateau found; diagnostics in "
                            f"{tmp_path / 'report_curve.csv'}\n")
        assert capsys.readouterr().err == f"error: {report['error']}\n"
        assert not model_path.exists()


def _never(*args, **kwargs):
    raise AssertionError("did the work before the usage error")


class TestGridRule:
    def test_md_builds_no_grid(self, banana_csv, tmp_path):
        reports = []
        for name, flags in (("default", []), ("coarse", ["--s-step", "1"]),
                            ("nonpositive", ["--s-min", "0"])):
            out = tmp_path / f"{name}.json"
            assert main(["tune", "--data", str(banana_csv), "--method", "md", *flags,
                         "--out", str(out)]) == EXIT_OK
            reports.append(json.loads(out.read_text()))
        assert reports[0]["s"] == reports[1]["s"] == reports[2]["s"]
        assert all("grid" not in report for report in reports)

    @pytest.mark.parametrize("method", ["cv", "dfn"])
    def test_grid_baselines_take_a_short_grid(self, banana_csv, tmp_path, method):
        out = tmp_path / "report.json"
        assert main(["tune", "--data", str(banana_csv), "--method", method, "--s-min", "0.5",
                     "--s-max", "3", "--s-step", "0.5", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["s"] in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
        assert len(read_rows(report["curve_csv"])) == 1 + 6

    @pytest.mark.parametrize("command", [["tune", "--method", "peak"], ["train", "--tune", "peak"]])
    def test_peak_on_a_short_grid_is_usage_error_before_any_solve(
            self, banana_csv, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(solver, "train_path", _never)
        monkeypatch.setattr(solver, "train", _never)
        out = tmp_path / "out.json"
        assert main([*command, "--data", str(banana_csv), "--s-min", "0.5", "--s-max", "3",
                     "--s-step", "0.5", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == ("error: grid too coarse: the peak criterion needs "
                                           "at least 10 interior grid points, got 4\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [["tune", "--method", "peak"], ["train", "--tune", "peak"]])
    def test_peak_min_run_below_one_is_usage_error_before_any_solve(
            self, banana_csv, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(solver, "train_path", _never)
        monkeypatch.setattr(solver, "train", _never)
        out = tmp_path / "out.json"
        assert main([*command, "--data", str(banana_csv), "--min-run", "0",
                     "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: min_run must be at least 1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [("--s-step", "nan"), ("--s-min", "nan"),
                                             ("--s-max", "nan"), ("--s-max", "inf")])
    @pytest.mark.parametrize("command", [["tune", "--method", "peak"], ["train", "--tune", "peak"]])
    def test_grid_that_is_not_finite_is_usage_error_before_any_solve(
            self, banana_csv, tmp_path, capsys, monkeypatch, command, flag, value):
        monkeypatch.setattr(solver, "train_path", _never)
        monkeypatch.setattr(solver, "train", _never)
        out = tmp_path / "out.json"
        assert main([*command, "--data", str(banana_csv), flag, value,
                     "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == ("error: grid endpoints and step must be positive "
                                           "and finite\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["tune", "--method", "peak", "--kkt-tol", "nan"],
                                      ["tune", "--method", "peak", "--kkt-tol", "inf"],
                                      ["train", "--s", "1", "--kkt-tol", "inf"]])
    def test_kkt_tol_that_is_not_finite_is_usage_error_before_any_solve(
            self, banana_csv, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setattr(solver, "train_path", _never)
        monkeypatch.setattr(solver, "train", _never)
        out = tmp_path / "out.json"
        assert main([*argv, "--data", str(banana_csv), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == ("error: kkt_tol must be positive and finite, "
                                           f"got {argv[-1]}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, message", [
        (["--vertices", "5", "--min-run", "0"], "min_run must be at least 1"),
        (["--vertices", "5,10,2"], "polygons need at least 3 vertices, got 2"),
    ])
    def test_simulate_bad_min_run_or_vertex_count_is_usage_error_before_any_solve(
            self, tmp_path, capsys, monkeypatch, flags, message):
        monkeypatch.setattr(solver, "train_path", _never)
        out_dir = tmp_path / "study"
        assert main(["simulate", *flags, "--per-count", "1", "--samples", "100",
                     "--out-dir", str(out_dir)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_simulate_on_one_row_samples_is_usage_error_before_any_polygon(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(evaluation, "generate_polygon", _never)
        out_dir = tmp_path / "study"
        assert main(["simulate", "--vertices", "5", "--per-count", "1", "--samples", "1",
                     "--out-dir", str(out_dir)]) == EXIT_USAGE
        assert capsys.readouterr().err == ("error: a polygon's sample needs at least 2 rows, "
                                           "got 1\n")
        assert not out_dir.exists()

    def test_simulate_on_a_short_grid_is_usage_error_before_any_solve(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(solver, "train_path", _never)
        out_dir = tmp_path / "study"
        assert main(["simulate", "--vertices", "5", "--per-count", "1", "--samples", "100",
                     "--s-step", "1", "--out-dir", str(out_dir)]) == EXIT_USAGE
        assert "grid too coarse" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag, value", [("--s-step", "nan"), ("--s-min", "nan"),
                                             ("--s-max", "inf")])
    def test_simulate_grid_that_is_not_finite_is_usage_error_before_any_solve(
            self, tmp_path, capsys, monkeypatch, flag, value):
        monkeypatch.setattr(solver, "train_path", _never)
        out_dir = tmp_path / "study"
        assert main(["simulate", "--vertices", "5", "--per-count", "1", "--samples", "100",
                     flag, value, "--out-dir", str(out_dir)]) == EXIT_USAGE
        assert capsys.readouterr().err == ("error: grid endpoints and step must be positive "
                                           "and finite\n")
        assert not out_dir.exists()


    @pytest.mark.parametrize("flags, count", [
        (["--s-step", "1e-9"], "7.95e+09"),
        (["--s-min", "1e-300", "--s-max", "1e300", "--s-step", "1e-300"], "inf"),
    ], ids=["oversized", "overflowing"])
    @pytest.mark.parametrize("command", ["tune", "simulate"])
    def test_grid_of_too_many_points_is_usage_error_before_any_solve(
            self, banana_csv, tmp_path, capsys, monkeypatch, command, flags, count):
        monkeypatch.setattr(solver, "train_path", _never)
        monkeypatch.setattr(solver, "train", _never)
        if command == "tune":
            argv = ["tune", "--method", "peak", "--data", str(banana_csv),
                    "--out", str(tmp_path / "tune.json")]
        else:
            argv = ["simulate", "--vertices", "5", "--per-count", "1", "--samples", "100",
                    "--out-dir", str(tmp_path / "study")]
        assert main([*argv, *flags]) == EXIT_USAGE
        assert capsys.readouterr().err == (f"error: the grid would have {count} points; "
                                           "at most 100000 are allowed\n")
        assert list(tmp_path.iterdir()) == []


class TestPeakSweepPolicy:
    def test_tune_curve_is_the_library_sweep(self, banana_csv, tmp_path):
        from svddpeak.tuning import BandwidthGrid, select_bandwidth_peak, sweep_objective

        out = tmp_path / "report.json"
        assert main(["tune", "--data", str(banana_csv), "--method", "peak",
                     "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        rows = read_rows(report["curve_csv"])[1:]
        _, X, _ = read_csv_dataset(banana_csv)
        grid = BandwidthGrid.low_dimensional()
        curve = sweep_objective(X, 0.001, grid)
        assert [r[1] for r in rows] == [cli._fmt(v) for v in curve.v_star]
        peak = select_bandwidth_peak(X, 0.001, grid)
        assert (report["s_low"], report["s_high"]) == (peak.s_low, peak.s_high)
        assert [r[4] for r in rows[1:-1]] == [cli._fmt(v) for v in peak.fit.fitted]


class TestMissingOutputDirectory:
    @pytest.fixture
    def model_path(self, two_point_csv, tmp_path):
        out = tmp_path / "model.json"
        assert main(["train", "--data", str(two_point_csv), "--s", "2", "--f", "0.1",
                     "--out", str(out)]) == EXIT_OK
        return out

    @pytest.mark.parametrize("argv, missing", [
        (["tune", "--data", "{data}", "--method", "peak", "--out", "nodir/r.json"],
         "nodir/r.json"),
        (["tune", "--data", "{data}", "--method", "cv", "--out", "r.json",
          "--curve", "nodir/c.csv"], "nodir/c.csv"),
        (["train", "--data", "{data}", "--tune", "peak", "--out", "nodir/m.json"],
         "nodir/m.json"),
        (["score", "--model", "{model}", "--data", "{data}", "--out", "nodir/s.csv"],
         "nodir/s.csv"),
        (["grid", "--model", "{model}", "--out", "nodir/g.csv"], "nodir/g.csv"),
        (["shapes", "--kind", "banana", "--out", "nodir/b.csv"], "nodir/b.csv"),
    ])
    def test_fails_before_reading_or_solving(self, two_point_csv, model_path, tmp_path,
                                             capsys, monkeypatch, argv, missing):
        for module, name in ((solver, "train_path"), (solver, "train"),
                             (solver, "score_distances"), (solver, "score_lattice"),
                             (solver, "load_model"), (cli, "read_csv_dataset"),
                             (cli._datagen, "generate_shape")):
            monkeypatch.setattr(module, name, _never)
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        argv = [a.format(data=two_point_csv, model=model_path) for a in argv]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: cannot write {missing}: no directory nodir\n"
        assert sorted(tmp_path.rglob("*")) == before


class TestScoreAndGrid:
    @pytest.fixture
    def model_path(self, two_point_csv, tmp_path):
        out = tmp_path / "model.json"
        main(["train", "--data", str(two_point_csv), "--s", "2", "--f", "0.1",
              "--out", str(out)])
        return out

    def test_score_boundary_and_far_point(self, model_path, two_point_csv, tmp_path):
        score_in = tmp_path / "score_in.csv"
        save_dataset(score_in, np.array([[0.0, 0.0], [100.0, 0.0]]))
        out = tmp_path / "scored.csv"
        code = main(["score", "--model", str(model_path), "--data", str(score_in),
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = read_rows(out)
        assert rows[0] == ["x1", "x2", "dist_sq", "r_sq", "label"]
        boundary = rows[1]
        assert abs(float(boundary[2]) - float(boundary[3])) < 1e-6
        assert boundary[4] == "inlier"
        assert rows[2][4] == "outlier"

    def test_score_empty_file(self, model_path, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("x1,x2\n")
        out = tmp_path / "scored.csv"
        assert main(["score", "--model", str(model_path), "--data", str(empty),
                     "--out", str(out)]) == EXIT_OK
        assert read_rows(out) == [["x1", "x2", "dist_sq", "r_sq", "label"]]

    def test_score_empty_file_manifest_matches_non_empty(self, model_path, two_point_csv,
                                                          tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("x1,x2\n")
        for data, out in ((empty, tmp_path / "empty_scored.csv"),
                          (two_point_csv, tmp_path / "scored.csv")):
            assert main(["score", "--model", str(model_path), "--data", str(data),
                         "--out", str(out)]) == EXIT_OK
        manifests = [json.loads((tmp_path / f"{name}.manifest.json").read_text())
                     for name in ("empty_scored.csv", "scored.csv")]
        assert manifests[0]["parameters"].keys() == manifests[1]["parameters"].keys()
        assert manifests[0]["parameters"]["out"] == str(tmp_path / "empty_scored.csv")

    def test_score_empty_file_dimension_mismatch_usage_error(self, model_path, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("x1,x2,x3\n")
        assert main(["score", "--model", str(model_path), "--data", str(empty),
                     "--out", str(tmp_path / "s.csv")]) == EXIT_USAGE

    @pytest.mark.parametrize("rows", [7, 9])
    def test_score_blocks_write_same_bytes(self, model_path, tmp_path, monkeypatch, rows):
        score_in = tmp_path / "score_in.csv"
        save_dataset(score_in, np.random.default_rng(5).normal(size=(rows, 2)) * 3.0)
        whole, blocked = tmp_path / "whole.csv", tmp_path / "blocked.csv"
        assert main(["score", "--model", str(model_path), "--data", str(score_in),
                     "--out", str(whole)]) == EXIT_OK
        monkeypatch.setattr(solver, "SCORE_BLOCK_ROWS", 3)
        monkeypatch.setattr(datagen, "WRITE_BLOCK_ROWS", 3)
        assert main(["score", "--model", str(model_path), "--data", str(score_in),
                     "--out", str(blocked)]) == EXIT_OK
        assert blocked.read_bytes() == whole.read_bytes()
        assert len(read_rows(blocked)) == 1 + rows

    @pytest.mark.parametrize("resolution", [4, 5])
    def test_grid_blocks_write_same_bytes(self, model_path, tmp_path, monkeypatch, resolution):
        whole, blocked = tmp_path / "whole.csv", tmp_path / "blocked.csv"
        for block_rows, out in ((resolution * resolution, whole), (3, blocked)):
            monkeypatch.setattr(datagen, "WRITE_BLOCK_ROWS", block_rows)
            assert main(["grid", "--model", str(model_path), "--resolution", str(resolution),
                         "--out", str(out)]) == EXIT_OK
        assert blocked.read_bytes() == whole.read_bytes()
        assert len(read_rows(blocked)) == 1 + resolution * resolution

    def test_score_keeps_a_quoted_header_and_crlf_lines(self, model_path, tmp_path):
        score_in, out = tmp_path / "quoted.csv", tmp_path / "scored.csv"
        score_in.write_text('"a,b",c\n0,0\n100,0\n')
        assert main(["score", "--model", str(model_path), "--data", str(score_in),
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_bytes().split(b"\r\n")
        assert lines[0] == b'"a,b",c,dist_sq,r_sq,label'
        assert lines[-1] == b"" and len(lines) == 4
        assert [line.rsplit(b",", 1)[1] for line in lines[1:3]] == [b"inlier", b"outlier"]
        assert read_rows(out)[0] == ["a,b", "c", "dist_sq", "r_sq", "label"]

    def test_score_builds_the_library_and_writes_the_twins_bytes(self, model_path, banana_csv,
                                                                 tmp_path, monkeypatch):
        # a fresh interpreter on an empty cache builds the library on first use
        cache = tmp_path / "xdg"
        compiled = tmp_path / "compiled.csv"
        subprocess.run([sys.executable, "-m", "svddpeak.cli", "score", "--model", str(model_path),
                        "--data", str(banana_csv), "--out", str(compiled)],
                       capture_output=True, check=True,
                       env=dict(os.environ, PYTHONPATH=_src_dir(), XDG_CACHE_HOME=str(cache)))
        if _native._find_compiler() is not None:
            assert [p.suffix for p in (cache / "svddpeak").iterdir()] == [".so"]
        # with no compiler to be found, the Python twin writes the same bytes
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty"))
        monkeypatch.setattr(_native, "_loaded", None)
        monkeypatch.setattr(_native, "_find_compiler", lambda: None)
        twin = tmp_path / "twin.csv"
        assert main(["score", "--model", str(model_path), "--data", str(banana_csv),
                     "--out", str(twin)]) == EXIT_OK
        assert _native.csv_blocks() is None
        assert twin.read_bytes() == compiled.read_bytes()
        assert {row[-1] for row in read_rows(twin)[1:]} == {"inlier", "outlier"}

    @pytest.mark.parametrize("argv, outputs", [
        (["train", "--s", "0.2", "--data", "{data}", "--out", "model.json"], ["model.json"]),
        (["tune", "--method", "peak", "--data", "{data}", "--out", "tune.json"],
         ["tune.json", "tune_curve.csv"]),
        (["grid", "--model", "{model}", "--out", "grid.csv"], ["grid.csv"]),
    ], ids=["train-s0.2", "tune-peak", "grid"])
    def test_without_a_compiler_the_twins_write_the_librarys_bytes(
            self, banana_csv, tmp_path, monkeypatch, argv, outputs):
        # every twin at once: the SMO loop, the CSV reader and writer and
        # the squared distances
        model = tmp_path / "model.json"
        assert main(["train", "--s", "0.9", "--data", str(banana_csv),
                     "--out", str(model)]) == EXIT_OK
        argv = [a.format(data=banana_csv, model=model) for a in argv]
        written = {}
        for name in ("library", "twins"):
            if name == "twins":
                monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty"))
                monkeypatch.setattr(_native, "_loaded", None)
                monkeypatch.setattr(_native, "_find_compiler", lambda: None)
            work = tmp_path / name
            work.mkdir()
            monkeypatch.chdir(work)
            assert main(argv) == EXIT_OK
            written[name] = {out: (work / out).read_bytes() for out in outputs}
        assert _native.library() is None
        assert written["twins"] == written["library"]

    @pytest.mark.parametrize("writer", WRITERS)
    def test_header_only_input_writes_only_the_header(self, model_path, tmp_path, writer):
        empty, out = tmp_path / "empty.csv", tmp_path / "scored.csv"
        empty.write_text("x1,x2\n")
        with pinned_writer(writer):
            assert main(["score", "--model", str(model_path), "--data", str(empty),
                         "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == b"x1,x2,dist_sq,r_sq,label\r\n"

    def test_score_dimension_mismatch_usage_error(self, model_path, tmp_path):
        bad = tmp_path / "bad.csv"
        save_dataset(bad, np.zeros((2, 3)))
        assert main(["score", "--model", str(model_path), "--data", str(bad),
                     "--out", str(tmp_path / "s.csv")]) == EXIT_USAGE

    def test_grid_of_a_model_that_is_not_2d_is_usage_error(self, tmp_path, capsys):
        data, model_path = tmp_path / "d3.csv", tmp_path / "d3.json"
        save_dataset(data, np.random.default_rng(2).normal(size=(6, 3)))
        assert main(["train", "--data", str(data), "--s", "1", "--out", str(model_path)]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "grid.csv"
        # the check comes before --data is read: this file does not exist
        assert main(["grid", "--model", str(model_path), "--data", str(tmp_path / "missing.csv"),
                     "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: grid scoring needs a 2-D model, this one has 3 features\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["score", "grid"])
    def test_linear_model_is_usage_error(self, model_path, two_point_csv, tmp_path, command):
        # a model file in the form a linear model was saved in
        payload = {**json.loads(model_path.read_text()), "kernel_kind": "linear", "s": None}
        model_path.write_text(json.dumps(payload))
        work = tmp_path / "work"
        work.mkdir()
        done = subprocess.run(
            [sys.executable, "-m", "svddpeak.cli", command, "--model", str(model_path),
             "--data", str(two_point_csv), "--out", "out.csv"],
            cwd=work, capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=_src_dir()),
        )
        assert done.returncode == EXIT_USAGE
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "kernel_kind 'linear'" in done.stderr and "Traceback" not in done.stderr
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("field, value, message", [
        ("r_squared", math.nan, "'r_squared' must be non-negative and finite"),
        ("r_squared", math.inf, "'r_squared' must be non-negative and finite"),
        ("alphas", [math.nan, 0.5], "'alphas' must be non-negative and finite"),
        ("C", math.nan, "'C' must be positive and finite"),
    ])
    def test_score_model_with_a_field_that_is_not_finite_is_usage_error(
            self, model_path, two_point_csv, tmp_path, capsys, field, value, message):
        # json writes NaN and Infinity, and reads them back
        payload = {**json.loads(model_path.read_text()), field: value}
        model_path.write_text(json.dumps(payload))
        out = tmp_path / "scored.csv"
        assert main(["score", "--model", str(model_path), "--data", str(two_point_csv),
                     "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: model field {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", [-1, 0, math.nan, "x", None])
    def test_score_model_with_a_bad_kkt_tol_is_usage_error(
            self, model_path, two_point_csv, tmp_path, capsys, value):
        payload = {**json.loads(model_path.read_text()), "kkt_tol": value}
        model_path.write_text(json.dumps(payload))
        out = tmp_path / "scored.csv"
        assert main(["score", "--model", str(model_path), "--data", str(two_point_csv),
                     "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_grid_resolution_and_labels(self, model_path, two_point_csv, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["grid", "--model", str(model_path), "--data", str(two_point_csv),
                     "--resolution", "50", "--out", str(out)])
        assert code == EXIT_OK
        rows = read_rows(out)
        assert rows[0] == ["x", "y", "dist_sq", "label", "is_sv_nearby"]
        assert len(rows) == 1 + 2500
        labels = {r[3] for r in rows[1:]}
        assert labels == {"inlier", "outlier"}
        assert any(r[4] == "1" for r in rows[1:])

    def test_grid_matches_row_scoring(self, banana_csv, tmp_path):
        model_path, out = tmp_path / "model.json", tmp_path / "grid.csv"
        assert main(["train", "--data", str(banana_csv), "--s", "0.7", "--f", "0.01",
                     "--out", str(model_path)]) == EXIT_OK
        assert main(["grid", "--model", str(model_path), "--data", str(banana_csv),
                     "--resolution", "60", "--out", str(out)]) == EXIT_OK
        model = solver.load_model(model_path)
        _, P, _ = read_csv_dataset(banana_csv)
        points = labeled_grid_over(P, resolution=(60, 60), padding=0.1).points
        expected = solver.score_distances(model, points)
        rows = read_rows(out)[1:]
        np.testing.assert_allclose([[float(r[0]), float(r[1])] for r in rows], points,
                                   rtol=1e-11, atol=1e-12)
        # dist_sq is written to 12 significant digits, a relative rounding of 5e-12
        dist_sq = np.array([float(r[2]) for r in rows])
        np.testing.assert_allclose(dist_sq, expected, rtol=5e-12, atol=1e-12)
        clear = np.abs(expected - model.r_squared) > 1e-12
        labels = np.array([r[3] for r in rows])
        assert set(labels) == {"inlier", "outlier"}
        np.testing.assert_array_equal(
            labels[clear], np.where(expected > model.r_squared, "outlier", "inlier")[clear]
        )

    def test_grid_peak_memory(self, tmp_path):
        # 600 rows at s=0.5, f=0.5 keep about 300 support vectors; a one-piece
        # (40,000 cells x support vectors) distance array alone is about 100 MB,
        # and the 40,000 formatted rows held at once about 13 MB, while the
        # lattice's numeric arrays take about 6 MB
        data, model_path = tmp_path / "normal.csv", tmp_path / "model.json"
        save_dataset(data, np.random.default_rng(0).normal(size=(600, 2)))
        assert main(["train", "--data", str(data), "--s", "0.5", "--f", "0.5",
                     "--out", str(model_path)]) == EXIT_OK
        assert solver.load_model(model_path).support_vectors.shape[0] > 250
        tracemalloc.start()
        try:
            assert main(["grid", "--model", str(model_path),
                         "--out", str(tmp_path / "grid.csv")]) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    @pytest.mark.parametrize("argv, message", [
        (["--resolution", "1000000"], "error: grid resolution 1000000x1000000 has "
         "1000000000000 cells, at most 16777216 are allowed\n"),
        (["--resolution", "4097"], "error: grid resolution 4097x4097 has 16785409 cells, "
         "at most 16777216 are allowed\n"),
        (["--padding", "nan"], "error: grid padding must be a finite number at least 0, "
         "got nan\n"),
        (["--padding", "inf"], "error: grid padding must be a finite number at least 0, "
         "got inf\n"),
        (["--padding", "-0.6"], "error: grid padding must be a finite number at least 0, "
         "got -0.6\n"),
        (["--padding", "1e308"], "error: the grid box, padded by 1e+308, is past the float "
         "range\n"),
    ], ids=["resolution-1e6", "resolution-4097", "padding-nan", "padding-inf",
            "padding-negative", "padding-past-range"])
    def test_grid_lattice_out_of_bounds_is_usage_error(self, model_path, tmp_path, argv,
                                                       message):
        # a fresh interpreter, so a warning or traceback would show on stderr
        work = tmp_path / "work"
        work.mkdir()
        done = subprocess.run(
            [sys.executable, "-m", "svddpeak.cli", "grid", "--model", str(model_path), *argv,
             "--out", "grid.csv"],
            cwd=work, capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=_src_dir()),
        )
        assert done.returncode == EXIT_USAGE
        assert done.stderr == message
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("resolution", ["-1", "0", "1"])
    def test_grid_resolution_below_two_is_usage_error(self, model_path, tmp_path, capsys,
                                                      resolution):
        code = main(["grid", "--model", str(model_path), "--resolution", resolution,
                     "--out", str(tmp_path / "g.csv")])
        assert code == EXIT_USAGE
        assert "resolution must be at least 2" in capsys.readouterr().err

    def test_grid_rejects_non_2d_model(self, tmp_path):
        data = tmp_path / "three_col.csv"
        save_dataset(data, np.random.default_rng(0).normal(size=(5, 3)))
        model = tmp_path / "m.json"
        main(["train", "--data", str(data), "--s", "1", "--f", "0.2", "--out", str(model)])
        assert main(["grid", "--model", str(model),
                     "--out", str(tmp_path / "g.csv")]) == EXIT_USAGE


class TestSimulate:
    def test_desk_scale_outputs(self, tmp_path):
        out_dir = tmp_path / "study"
        code = main(["simulate", "--vertices", "5", "--per-count", "1",
                     "--samples", "100", "--seed", "7", "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        rows = read_rows(out_dir / "polygon_study.csv")
        assert rows[0][:3] == ["vertex_count", "polygon_index", "seed"]
        assert len(rows) == 2
        ratio = float(rows[1][-1])
        assert 0.0 <= ratio <= 1.0
        summary = read_rows(out_dir / "polygon_study_summary.csv")
        assert summary[0] == ["vertex_count", "min", "q1", "median", "q3", "max", "mean"]

    def test_failed_polygons_recorded_not_dropped(self, tmp_path):
        # a grid too coarse to host a 3-point plateau: the polygon lands in
        # the failures file instead of vanishing
        out_dir = tmp_path / "study"
        code = main(["simulate", "--vertices", "5", "--per-count", "1",
                     "--samples", "100", "--s-min", "0.3", "--s-max", "3.0",
                     "--s-step", "0.15", "--seed", "7", "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        failures = read_rows(out_dir / "polygon_study_failures.csv")
        assert failures[0] == ["vertex_count", "polygon_index", "seed", "error"]
        assert len(failures) == 2
        assert len(read_rows(out_dir / "polygon_study.csv")) == 1


    def test_full_runs_the_paper_scale_study(self, tmp_path, monkeypatch):
        calls = []

        def study(**kwargs):
            calls.append(kwargs)
            return evaluation.SimulationReport(rows=[], failures=[], summaries=[])

        monkeypatch.setattr(evaluation, "polygon_study", study)
        assert main(["simulate", "--full", "--vertices", "5", "--per-count", "1",
                     "--out-dir", str(tmp_path / "study")]) == EXIT_OK
        [call] = calls
        assert call["vertex_counts"] == list(range(5, 31))
        assert call["polygons_per_count"] == 20

    def test_solver_flags_reach_the_study(self, tmp_path):
        # 50 SMO iterations fail the first solve, so the polygon is a failure
        # row, and its message names both flags
        out_dir = tmp_path / "study"
        code = main(["simulate", "--vertices", "5", "--per-count", "1", "--samples", "100",
                     "--seed", "7", "--kkt-tol", "1e-5", "--max-iterations", "50",
                     "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        *row, error = read_rows(out_dir / "polygon_study_failures.csv")[1]
        assert row == ["5", "0", "700500"]
        assert error.startswith("sweep solve failed at s=0.05: SMO did not reach kkt_tol=1e-05 "
                                "within 50 iterations ")
        assert len(read_rows(out_dir / "polygon_study.csv")) == 1
        manifest = json.loads((out_dir / "polygon_study.csv.manifest.json").read_text())
        assert manifest["parameters"]["kkt_tol"] == 1e-5
        assert manifest["parameters"]["max_iterations"] == 50

    def test_repeated_vertex_count_is_usage_error(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("solved before the usage error")

        monkeypatch.setattr(solver, "train_path", never)
        out_dir = tmp_path / "study"
        assert main(["simulate", "--vertices", "5,5", "--per-count", "1", "--samples", "100",
                     "--seed", "7", "--out-dir", str(out_dir)]) == EXIT_USAGE
        assert "[5] repeat" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("below", ["", "study"])
    def test_out_dir_on_a_file_is_usage_error(self, tmp_path, capsys, monkeypatch, below):
        def never(*args, **kwargs):
            raise AssertionError("ran the study before the usage error")

        monkeypatch.setattr(evaluation, "polygon_study", never)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out_dir = afile / below if below else afile
        assert main(["simulate", "--vertices", "5", "--per-count", "1", "--samples", "100",
                     "--seed", "7", "--out-dir", str(out_dir)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: cannot write {out_dir}: {afile} is not a directory\n")
        assert afile.read_text() == "kept\n"

    @pytest.mark.parametrize("flag, value", [("--vertices", "x"), ("--vertices", "5,x"),
                                             ("--per-count", "0"), ("--per-count", "-1")])
    def test_bad_vertex_or_polygon_count_is_usage_error(self, tmp_path, capsys, flag, value):
        out_dir = tmp_path / "study"
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", flag, value, "--samples", "100", "--out-dir", str(out_dir)])
        assert exit_info.value.code == EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not out_dir.exists()


    @pytest.mark.parametrize("flags, message", [
        (["--vertices", "5", "--per-count", "101"],
         "at most 100 polygons per vertex count, got 101"),
        (["--vertices", "5,500", "--per-count", "1"],
         "polygons have at most 499 vertices, got 500"),
    ])
    def test_counts_whose_seeds_collide_are_usage_errors_before_any_solve(
            self, tmp_path, capsys, monkeypatch, flags, message):
        monkeypatch.setattr(solver, "train_path", _never)
        out_dir = tmp_path / "study"
        assert main(["simulate", *flags, "--samples", "100", "--out-dir", str(out_dir)]) \
            == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()


class TestNegativeSeed:
    """numpy refuses a negative seed with a traceback; argparse refuses it
    first, before anything is read or written."""

    @pytest.mark.parametrize("argv", [
        ["shapes", "--kind", "banana", "--seed", "-1", "--out", "b.csv"],
        ["simulate", "--vertices", "5", "--per-count", "1", "--samples", "50", "--seed", "-1",
         "--out-dir", "d"],
        ["shuttle", "--path", "shuttle.trn", "--sample-class1", "1", "--seed", "-1",
         "--out", "s.csv"],
    ], ids=["shapes", "simulate", "shuttle"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "shuttle.trn").write_text("1 2 3 4 5 6 7 8 9 1\n")
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert err.endswith("error: argument --seed: must be at least 0, got -1\n")
        assert [p.name for p in tmp_path.iterdir()] == ["shuttle.trn"]


class TestShapes:
    def test_banana_roundtrip(self, tmp_path):
        out = tmp_path / "banana.csv"
        code = main(["shapes", "--kind", "banana", "--seed", "3", "--out", str(out)])
        assert code == EXIT_OK
        header, X, labels = read_csv_dataset(out)
        assert header == ["x1", "x2"]
        assert X.shape == (267, 2)
        assert labels is None
        np.testing.assert_allclose(X, generate_shape("banana", seed=3), atol=1e-9)

    @pytest.mark.parametrize("kind, noise", [("three_cluster", "-0.5"), ("banana", "nan"),
                                             ("banana", "inf")])
    def test_bad_noise_is_usage_error(self, tmp_path, capsys, kind, noise):
        out = tmp_path / "shape.csv"
        code = main(["shapes", "--kind", kind, "--noise", noise, "--out", str(out)])
        assert code == EXIT_USAGE
        assert "noise" in capsys.readouterr().err
        assert not out.exists()


class TestShuttle:
    def make_shuttle_file(self, tmp_path, rows):
        path = tmp_path / "shuttle.trn"
        path.write_text("\n".join(" ".join(str(v) for v in row) for row in rows) + "\n")
        return path

    def test_ingest_and_sample(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = []
        for i in range(50):
            cls = 1 if i < 40 else 2  # ~80% class one
            rows.append(list(rng.integers(-50, 120, 9)) + [cls])
        path = self.make_shuttle_file(tmp_path, rows)
        X, labels = ingest_shuttle(path)
        assert X.shape == (50, 9)
        assert set(np.unique(labels)) == {1, 2}
        assert np.mean(labels == 1) == pytest.approx(0.8)
        sample = sample_shuttle_class1(X, labels, 10, seed=4)
        assert sample.shape == (10, 9)
        again = sample_shuttle_class1(X, labels, 10, seed=4)
        np.testing.assert_array_equal(sample, again)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.trn"
        path.write_text("1 2 3 4 5 6 7 8 9 1\n1 2 3\n")
        with pytest.raises(ParseError) as err:
            ingest_shuttle(path)
        assert err.value.line_number == 2
        assert "line 2" in str(err.value)

    def test_no_path_prints_location(self, capsys):
        assert main(["shuttle"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "archive.ics.uci.edu" in out

    def test_sample_without_out_fails_before_ingesting(self, tmp_path, capsys, monkeypatch):
        path = self.make_shuttle_file(tmp_path, [[1] * 9 + [1]] * 5)

        def no_ingest(path):
            raise AssertionError("the file was read before --out was checked")

        monkeypatch.setattr(cli, "ingest_shuttle", no_ingest)
        assert main(["shuttle", "--path", str(path), "--sample-class1", "3"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "error: --out is required with --sample-class1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["--path", "shuttle.trn", "--out", "x.csv"], "--out is used only with --sample-class1"),
        (["--sample-class1", "2", "--out", "s.csv"],
         "--sample-class1 needs --path: the shuttle data is not bundled"),
        (["--out", "s.csv"], "--out is used only with --sample-class1"),
    ], ids=["out-without-sample", "sample-without-path", "out-only"])
    def test_flag_that_would_be_ignored_is_usage_error_before_ingesting(
            self, tmp_path, capsys, monkeypatch, argv, message):
        # each exited 0 having written nothing, the first after reading the file
        monkeypatch.chdir(tmp_path)
        self.make_shuttle_file(tmp_path, [[1] * 9 + [1]] * 5)

        def no_ingest(path):
            raise AssertionError("the file was read before the flags were checked")

        monkeypatch.setattr(cli, "ingest_shuttle", no_ingest)
        assert main(["shuttle", *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["shuttle.trn"]

    @pytest.mark.parametrize("count", ["-3", "0"])
    def test_sample_size_below_one_is_usage_error(self, tmp_path, capsys, count):
        # a negative count ended in a numpy traceback, zero wrote nothing;
        # the path does not exist, so the count is checked before any read
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exit_info:
            main(["shuttle", "--path", str(tmp_path / "missing.trn"), "--sample-class1", count,
                  "--out", str(out)])
        assert exit_info.value.code == EXIT_USAGE
        assert "--sample-class1: must be at least 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sample_flag_writes_csv(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = [list(rng.integers(0, 100, 9)) + [1] for _ in range(30)]
        path = self.make_shuttle_file(tmp_path, rows)
        out = tmp_path / "sample.csv"
        code = main(["shuttle", "--path", str(path), "--sample-class1", "5",
                     "--seed", "2", "--out", str(out)])
        assert code == EXIT_OK
        _, X, _ = read_csv_dataset(out)
        assert X.shape == (5, 9)


@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_jobs_below_one_is_usage_error(banana_csv, tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exit_info:
        main(["tune", "--data", str(banana_csv), "--method", "peak", "--jobs", jobs,
              "--out", str(tmp_path / "r.json")])
    assert exit_info.value.code == EXIT_USAGE
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def _src_dir() -> str:
    return str(pathlib.Path(cli.__file__).resolve().parents[1])


def test_runtime_imports_no_scipy():
    probe = ("import sys, svddpeak, svddpeak.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=_src_dir())).stdout
    assert out.strip() == "[]"


def test_cli_import_starts_no_process_pool():
    # the pool is imported only where --jobs asks for more than one process
    probe = ("import sys, svddpeak.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=_src_dir())).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("argv", [["--version"], ["score"]])
def test_score_and_version_import_no_sweep_module(two_point_csv, tmp_path, argv):
    # -X importtime names every module the real entry point imports
    if argv == ["score"]:
        model = tmp_path / "model.json"
        assert main(["train", "--data", str(two_point_csv), "--s", "2", "--f", "0.1",
                     "--out", str(model)]) == EXIT_OK
        argv = ["score", "--model", str(model), "--data", str(two_point_csv),
                "--out", str(tmp_path / "scored.csv")]
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "svddpeak.cli", *argv],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=_src_dir()))
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert {"svddpeak.solver", "svddpeak.datagen"} <= imported
    unused = {f"svddpeak.{m}" for m in ("tuning", "smoothing", "evaluation", "baselines")}
    assert imported & unused == set()


def test_peak_tune_imports_no_baselines(banana_csv, tmp_path):
    probe = ("import sys; from svddpeak.cli import main; "
             f"code = main(['tune', '--method', 'peak', '--data', {str(banana_csv)!r}, "
             "'--out', 'r.json']); "
             "print(code, 'svddpeak.tuning' in sys.modules, 'svddpeak.baselines' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=_src_dir())).stdout
    assert out.splitlines()[-1].split() == ["0", "True", "False"]


def test_tune_jobs_two_on_a_cold_cache_writes_jobs_one_bytes(banana_csv, tmp_path):
    # the --jobs 2 workers race to build the SMO library into an empty cache
    cache = tmp_path / "xdg"
    env = dict(os.environ, PYTHONPATH=_src_dir(), XDG_CACHE_HOME=str(cache))
    outputs = {}
    for jobs in ("2", "1"):
        run_dir = tmp_path / f"jobs{jobs}"
        run_dir.mkdir()
        subprocess.run([sys.executable, "-m", "svddpeak.cli", "tune", "--data", str(banana_csv),
                        "--method", "peak", "--jobs", jobs, "--out", "report.json"],
                       cwd=run_dir, env=env, capture_output=True, check=True)
        manifest = json.loads((run_dir / "report.json.manifest.json").read_text())
        outputs[jobs] = ((run_dir / "report.json").read_bytes(),
                         (run_dir / "report_curve.csv").read_bytes(),
                         manifest["smo_backend"])
    assert outputs["2"] == outputs["1"]
    if _native._find_compiler() is not None:
        assert outputs["2"][2]["kind"] == "c"
        assert sorted(p.suffix for p in (cache / "svddpeak").iterdir()) == [".so"]


class TestManifestSmoBackend:
    def test_solving_commands_record_the_backend(self, banana_csv, tmp_path):
        model = tmp_path / "model.json"
        report = tmp_path / "report.json"
        study = tmp_path / "study"
        assert main(["train", "--data", str(banana_csv), "--s", "0.7",
                     "--out", str(model)]) == EXIT_OK
        assert main(["tune", "--data", str(banana_csv), "--method", "md",
                     "--out", str(report)]) == EXIT_OK
        assert main(["simulate", "--vertices", "5", "--per-count", "1", "--samples", "100",
                     "--seed", "7", "--out-dir", str(study)]) == EXIT_OK
        manifests = [tmp_path / "model.json.manifest.json", tmp_path / "report.json.manifest.json",
                     study / "polygon_study.csv.manifest.json"]
        for path in manifests:
            assert json.loads(path.read_text())["smo_backend"] == _native.backend()
        backend = _native.backend()
        if backend["kind"] == "c":
            assert backend["flags"] == list(_native.FLAGS)
            assert backend["compiler"]
            # the pass the library chose for this CPU
            assert backend["isa"] == _native.ISAS[_native.library().svdd_smo_cpu_level()]
        else:
            assert "isa" not in backend
        # score and grid solve nothing and say nothing about it
        for command in ("score", "grid"):
            out = tmp_path / f"{command}.csv"
            assert main([command, "--model", str(model), "--data", str(banana_csv),
                         "--out", str(out)]) == EXIT_OK
            assert "smo_backend" not in json.loads(
                (tmp_path / f"{command}.csv.manifest.json").read_text())

    def test_python_fallback_is_recorded(self, banana_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        monkeypatch.setattr(_native, "_loaded", None)
        monkeypatch.setattr(_native, "_find_compiler", lambda: None)
        model = tmp_path / "model.json"
        assert main(["train", "--data", str(banana_csv), "--s", "0.7",
                     "--out", str(model)]) == EXIT_OK
        manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
        assert manifest["smo_backend"] == {"kind": "python"}


class TestManifestInputs:
    """Input digests are taken when a command starts, before it reads or
    writes anything, and only from regular files."""

    def test_a_fifo_is_not_opened_again(self, two_point_csv, tmp_path):
        # the digest of a pipe would open it again after the writer is
        # done, and block for good: both ends run in threads the test can
        # give up on
        fifo = tmp_path / "data.fifo"
        os.mkfifo(fifo)
        model = tmp_path / "model.json"
        done = {}
        ends = [threading.Thread(target=lambda: done.update(code=main(
                    ["train", "--s", "1", "--data", str(fifo), "--out", str(model)])),
                    daemon=True),
                threading.Thread(target=lambda: fifo.write_bytes(two_point_csv.read_bytes()),
                                 daemon=True)]
        for end in ends:
            end.start()
        for end in ends:
            end.join(timeout=60)
        assert not any(end.is_alive() for end in ends)
        assert done["code"] == EXIT_OK
        manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
        assert manifest["inputs"] == {str(fifo): None}

    def test_a_pipe_at_dev_stdin_has_no_digest(self, two_point_csv, tmp_path):
        done = subprocess.run([sys.executable, "-m", "svddpeak.cli", "train", "--s", "1",
                               "--data", "/dev/stdin", "--out", "piped.json"],
                              input=two_point_csv.read_bytes(), cwd=tmp_path,
                              capture_output=True, env=dict(os.environ, PYTHONPATH=_src_dir()))
        assert done.returncode == EXIT_OK
        manifest = json.loads((tmp_path / "piped.json.manifest.json").read_text())
        assert manifest["inputs"] == {"/dev/stdin": None}
        assert main(["train", "--s", "1", "--data", str(two_point_csv),
                     "--out", str(tmp_path / "file.json")]) == EXIT_OK
        assert (tmp_path / "piped.json").read_bytes() == (tmp_path / "file.json").read_bytes()

    def test_an_input_the_output_replaces_keeps_its_digest(self, two_point_csv, tmp_path):
        model, data = tmp_path / "model.json", tmp_path / "q.csv"
        assert main(["train", "--s", "1", "--data", str(two_point_csv),
                     "--out", str(model)]) == EXIT_OK
        shutil.copy(two_point_csv, data)
        digest = hashlib.sha256(data.read_bytes()).hexdigest()
        assert main(["score", "--model", str(model), "--data", str(data),
                     "--out", str(data)]) == EXIT_OK
        assert hashlib.sha256(data.read_bytes()).hexdigest() != digest
        manifest = json.loads((tmp_path / "q.csv.manifest.json").read_text())
        assert manifest["inputs"] == {
            str(model): hashlib.sha256(model.read_bytes()).hexdigest(), str(data): digest}


def _replay_argv(manifest):
    """The argv a manifest records: its command, then each parameter under
    its option string in ``build_parser()``."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {a.dest: a.option_strings[-1]
               for a in commands.choices[manifest["command"]]._actions}
    argv = [manifest["command"]]
    for dest, value in manifest["parameters"].items():
        if value is None or value is False:
            continue
        argv.append(options[dest])
        if isinstance(value, list):
            argv.append(",".join(map(str, value)))
        elif value is not True:
            argv.append(str(value))
    return argv


class TestManifestReplay:
    """A command rerun with the arguments its manifest records, in another
    directory that holds the same inputs, writes the same bytes."""

    @pytest.fixture(scope="class")
    def inputs(self, banana_csv, tmp_path_factory):
        top = tmp_path_factory.mktemp("inputs")
        shutil.copy(banana_csv, top / "banana.csv")
        assert main(["train", "--data", str(top / "banana.csv"), "--s", "0.7",
                     "--out", str(top / "model.json")]) == EXIT_OK
        return top

    @pytest.mark.parametrize("argv, outputs", [
        (["train", "--data", "banana.csv", "--s", "0.7", "--f", "0.01", "--out", "m.json"],
         ["m.json"]),
        (["train", "--data", "banana.csv", "--tune", "peak", "--out", "m.json"], ["m.json"]),
        (["tune", "--method", "peak", "--data", "banana.csv", "--min-run", "5",
          "--kkt-tol", "1e-7", "--out", "r.json"], ["r.json", "r_curve.csv"]),
        (["score", "--model", "model.json", "--data", "banana.csv", "--out", "s.csv"],
         ["s.csv"]),
        (["grid", "--model", "model.json", "--data", "banana.csv", "--resolution", "40",
          "--padding", "0.2", "--out", "g.csv"], ["g.csv"]),
        (["simulate", "--vertices", "5", "--per-count", "1", "--samples", "100",
          "--min-run", "4", "--seed", "7", "--out-dir", "study"],
         ["study/polygon_study.csv", "study/polygon_study_summary.csv"]),
        (["shapes", "--kind", "three_cluster", "--n", "90", "--seed", "3", "--out", "x.csv"],
         ["x.csv"]),
    ], ids=["train-s", "train-tune", "tune", "score", "grid", "simulate", "shapes"])
    def test_replay_writes_the_same_bytes(self, inputs, tmp_path, monkeypatch, argv, outputs):
        first, replay = tmp_path / "first", tmp_path / "replay"
        manifest = f"{outputs[0]}.manifest.json"
        shutil.copytree(inputs, first)
        shutil.copytree(inputs, replay)
        monkeypatch.chdir(first)
        assert main(argv) == EXIT_OK
        recorded = json.loads((first / manifest).read_text())
        monkeypatch.chdir(replay)
        assert main(_replay_argv(recorded)) == EXIT_OK
        rerecorded = json.loads((replay / manifest).read_text())
        for output in outputs:
            assert (replay / output).read_bytes() == (first / output).read_bytes()
        assert rerecorded["parameters"] == recorded["parameters"]
        assert rerecorded["inputs"] == recorded["inputs"]


class TestCsvIngestion:
    def test_round_trip_identity(self, tmp_path, rng):
        X = rng.normal(size=(15, 4))
        path = tmp_path / "data.csv"
        save_dataset(path, X)
        header, Y, labels = read_csv_dataset(path)
        assert header == ["x1", "x2", "x3", "x4"]
        np.testing.assert_allclose(Y, X, rtol=1e-10)

    def test_label_column_split(self, tmp_path, rng):
        X = rng.normal(size=(8, 2))
        labels = rng.integers(0, 2, 8)
        path = tmp_path / "data.csv"
        write_csv_blocks(path, ["x1", "x2", "label"], [*X.T, Coded(labels, ("0", "1"))])
        _, Y, got = read_csv_dataset(path)
        assert Y.shape == (8, 2)
        np.testing.assert_array_equal(got, labels)

    def test_malformed_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2\n1.0,2.0\noops,3.0\n")
        with pytest.raises(ParseError) as err:
            read_csv_dataset(path)
        assert err.value.line_number == 3

    @pytest.mark.parametrize("tail", ["3,x\n", "3,4\xe9\n"])
    def test_errors_after_a_multi_line_cell_name_the_physical_line(self, tmp_path, tail):
        # the quoted cell spans lines 2 and 3; the bad row is line 4, for the
        # row loop as for the not-UTF-8 check
        path = tmp_path / "bad.csv"
        path.write_bytes(b'x1,x2\n"1\n",2\n' + tail.encode("latin-1"))
        with pytest.raises(ParseError) as err:
            read_csv_dataset(path)
        assert err.value.line_number == 4
        assert str(err.value).startswith(f"{path}: line 4: ")

    @pytest.mark.parametrize("text", ['{"format_version": 1, "kernel_kind": "gaussian"}\n',
                                      "this is not JSON\n"])
    def test_malformed_model_file_is_usage_error(self, tmp_path, two_point_csv, capsys, text):
        model = tmp_path / "model.json"
        model.write_text(text)
        assert main(["score", "--model", str(model), "--data", str(two_point_csv),
                     "--out", str(tmp_path / "out.csv")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("flag", ["--model", "--data"])
    def test_a_directory_as_input_is_usage_error(self, two_point_csv, tmp_path, capsys, flag):
        model = tmp_path / "model.json"
        assert main(["train", "--data", str(two_point_csv), "--s", "2", "--f", "0.1",
                     "--out", str(model)]) == EXIT_OK
        capsys.readouterr()
        inputs = {"--model": str(model), "--data": str(two_point_csv), flag: str(tmp_path)}
        out = tmp_path / "out.csv"
        assert main(["score", *(a for pair in inputs.items() for a in pair),
                     "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory: ")
        assert not out.exists()

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["score", "--model", str(tmp_path / "nope.json"),
                     "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "out.csv")]) == EXIT_USAGE

    def test_a_pipe_is_read_whole(self, tmp_path):
        # a pipe gives its bytes once: they are read into memory and take
        # the compiled reader, as a file on disk does; a reader that opened
        # the path again read 200,000 rows as the 277 of the first buffer
        path = tmp_path / "queries.csv"
        save_dataset(path, np.random.default_rng(4).normal(size=(20_000, 2)))
        header, X, labels = read_csv_dataset(path)
        for reader in supported_readers():
            fifo = tmp_path / f"{reader}.fifo"
            os.mkfifo(fifo)
            # a reader that opens the pipe again after the writer is done
            # blocks for good, so both ends run in threads that the test can
            # give up on
            read = {}
            ends = [threading.Thread(target=lambda: read.update(got=read_csv_dataset(fifo)),
                                     daemon=True),
                    threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()),
                                     daemon=True)]
            with pinned_reader(reader), pytest.MonkeyPatch.context() as patch:
                if reader == "compiled":
                    patch.setattr(cli, "_read_csv_rows", _no_row_loop)
                for end in ends:
                    end.start()
                for end in ends:
                    end.join(timeout=60)
            assert not any(end.is_alive() for end in ends), reader
            assert read["got"][0] == header and read["got"][2] is None
            assert read["got"][1].tobytes() == X.tobytes()

    @pytest.mark.parametrize("reader", ["compiled", "rows"])
    def test_each_input_is_opened_once(self, tmp_path, monkeypatch, reader):
        # a body the compiled reader takes, one it refuses, and a label
        # column: the row loop reads the last two from the same handle
        paths = []
        for name, text in (("plain", "x1,x2\n1,2\n"), ("refused", "x1,x2\n1_0,2\n"),
                           ("labeled", "x1,x2,label\n1,2,0\n")):
            paths.append(tmp_path / f"{name}.csv")
            paths[-1].write_text(text)
        shuttle = tmp_path / "shuttle.trn"
        shuttle.write_text("1 2 3 4 5 6 7 8 9 1\n")
        opened = []
        real_open = builtins.open

        def recording_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        with pinned_reader(reader):
            monkeypatch.setattr(builtins, "open", recording_open)
            for path in paths:
                read_csv_dataset(path)
            ingest_shuttle(shuttle)
        assert opened == [*paths, shuttle]

    def test_reader_peak_memory(self, tmp_path):
        # 200,000 x 2 floats are 3.2 MB; the row loop's lists of Python
        # floats peaked at about 37 MB
        path = tmp_path / "queries.csv"
        np.savetxt(path, np.random.default_rng(3).normal(size=(200_000, 2)), fmt="%.12g",
                   delimiter=",", header="x1,x2", comments="")
        tracemalloc.start()
        try:
            _, X, _ = read_csv_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert X.shape == (200_000, 2)
        assert peak < 8 * 2**20


class TestUnreadableInputs:
    """Bytes that are not UTF-8 and integers beyond 64 bits end in an
    ``error:`` line that names the line, and exit 2."""

    @pytest.fixture
    def model_path(self, two_point_csv, tmp_path):
        out = tmp_path / "model.json"
        main(["train", "--data", str(two_point_csv), "--s", "2", "--f", "0.1", "--out", str(out)])
        return out

    @pytest.mark.parametrize("body, line, message", [
        (b"x1,x2\n1,2\n3,4\xe9\n", 3, "byte 0xe9 is not UTF-8"),
        (b"x\xe91,x2\n1,2\n", 1, "byte 0xe9 is not UTF-8"),
        # past the first block a text reader decodes
        (b"x1,x2\r\n" + b"1,2\r\n" * 3000 + b"3,\xff4\r\n", 3002, "byte 0xff is not UTF-8"),
        (b"x1,x2,label\n1,2,1\n3,4,99999999999999999999\n", 3,
         "'99999999999999999999' does not fit a 64-bit integer"),
    ], ids=["not-utf8", "not-utf8-header", "not-utf8-late", "label-overflow"])
    def test_score(self, model_path, tmp_path, capsys, body, line, message):
        data = tmp_path / "data.csv"
        data.write_bytes(body)
        out = tmp_path / "out.csv"
        assert main(["score", "--model", str(model_path), "--data", str(data),
                     "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}: line {line}: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("reader", ["compiled", "rows"])
    @pytest.mark.parametrize("body, line", [
        (b"x1," + b"y" * 200_001 + b"\n1,2\n", 1),
        (b"x1,x2\n1,2\n3," + b"4" * 200_001 + b"\n5,6\n", 3),
    ], ids=["long-header", "long-cell"])
    def test_field_over_the_csv_limit(self, model_path, tmp_path, capsys, reader, body, line):
        # the compiled reader refuses a line that long, so both readers end
        # in the csv module, which refuses a field over its size limit
        data = tmp_path / "data.csv"
        data.write_bytes(body)
        out = tmp_path / "out.csv"
        message = f"field larger than field limit ({csv.field_size_limit()})"
        with pinned_reader(reader):
            for argv in (["score", "--model", str(model_path)], ["train", "--s", "1"]):
                assert main([*argv, "--data", str(data), "--out", str(out)]) == EXIT_USAGE
                assert capsys.readouterr().err == f"error: {data}: line {line}: {message}\n"
                assert not out.exists()

    @pytest.mark.parametrize("argv, body, line", [
        (["score", "--model", "{model}", "--data", "/dev/stdin", "--out", "out.csv"],
         b"x1,x2\n1,2\n3,4\xe9\n", 3),
        (["shuttle", "--path", "/dev/stdin"], b"1 2 3 4 5 6 7 \xe9 9 1\n", 1),
    ], ids=["score", "shuttle"])
    def test_a_piped_byte_that_is_not_utf8(self, model_path, tmp_path, argv, body, line):
        # the bad byte's line is found in the bytes already read, as a pipe
        # gives them once
        done = subprocess.run([sys.executable, "-m", "svddpeak.cli",
                               *(a.format(model=model_path) for a in argv)],
                              input=body, cwd=tmp_path, capture_output=True,
                              env=dict(os.environ, PYTHONPATH=_src_dir()))
        assert done.returncode == EXIT_USAGE
        assert done.stderr.decode().startswith(
            f"error: /dev/stdin: line {line}: byte 0xe9 is not UTF-8 (")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("second_row, message", [
        (b"1 2 3 4 5 6 7 \xe9 9 1\n", "byte 0xe9 is not UTF-8"),
        (b"1 2 3 4 5 6 7 8 9 99999999999999999999\n",
         "'99999999999999999999' does not fit a 64-bit integer"),
    ], ids=["not-utf8", "class-overflow"])
    def test_shuttle(self, tmp_path, capsys, second_row, message):
        path = tmp_path / "shuttle.trn"
        path.write_bytes(b"1 2 3 4 5 6 7 8 9 1\n" + second_row)
        assert main(["shuttle", "--path", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 2: ") and message in err


def _no_row_loop(path, fh):
    raise AssertionError("the row loop ran")


def _read_rows(path):
    """The row loop's ``read_csv_dataset``, on a file opened as it opens it."""
    with cli._open_text(path, newline="") as fh:
        return cli._read_csv_rows(path, fh)


def _read_outcome(read, path):
    """What a reader makes of a file: its result, or its error."""
    try:
        header, X, labels = read(path)
    except Exception as exc:  # the row loop also lets csv and numpy errors through
        return ("error", type(exc), str(exc), getattr(exc, "line_number", None))
    return ("ok", header, X.dtype, X.shape, X.tobytes(),
            None if labels is None else (labels.dtype, labels.tobytes()))


def _assert_reads_like_the_row_loop(path):
    """``read_csv_dataset``, on every body reader the host has, accepts
    what the row loop accepts, with the same bits, and fails where it
    fails, with the same message."""
    want = _read_outcome(_read_rows, path)
    for reader in supported_readers():
        with pinned_reader(reader), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _read_outcome(read_csv_dataset, path) == want, reader
    return want


# cells both readers read, and odd cells: ones only Python's float reads,
# ones nothing reads, and ones a laxer parser would take
_NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.12g}"),
    st.integers(-10**6, 10**6).map(str),
)
_ODD_CELLS = st.sampled_from([
    "nan", "-nan", "inf", "-Infinity", "+1", "-0", " 1.5", "2 ", "\t3", "1e5", "1E-5", ".5",
    "5.", "1_0", '"1"', '"1,2"', "", " ", "#1", "1#2", "abc", "0x10", "1.0", "1 2", "\u0663",
    "1\x0b", "\x00", "1\x1c", "1\u2028",
])


@st.composite
def _csv_texts(draw):
    """A header and a body: rows of numbers, rows with one odd cell, short
    and long rows, blank and whitespace-only lines, mixed line endings."""
    width = draw(st.integers(1, 3))
    header = [f"x{i + 1}" for i in range(width)]
    if draw(st.booleans()):
        header.append("label")
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 4 + ["odd"] * 2 + ["short", "long", "blank",
                                                                 "space"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "  "])))
        else:
            n = len(header) + {"short": -1, "long": 1}.get(kind, 0)
            cells = draw(st.lists(_NUMBER_CELLS, min_size=n, max_size=n))
            if "label" in header and n == len(header) and draw(st.booleans()):
                cells[-1] = str(draw(st.integers(-5, 5)))
            if kind == "odd":
                cells[draw(st.integers(0, n - 1))] = draw(_ODD_CELLS)
            lines.append(",".join(cells))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


class TestBulkReadMatchesRowLoop:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_csv_texts())
    def test_property(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        _assert_reads_like_the_row_loop(path)

    @pytest.mark.parametrize("text, accepted", [
        ("x1,x2\n1,2\n \n3,4\n", False),  # whitespace-only line
        ("x1,x2\n1_0,2\n", True),  # only Python's float reads 1_0
        ('x1,x2\n"1.5",2\n', True),  # a quoted cell
        ("x1,x2\n#1,2\n", False),  # no comment lines
        ("x1,x2\n1,2\n#3,4\n", False),
        ("x1,x2\n1,2#3\n", False),
        ("x1,x2\n1,2,\n", False),  # trailing comma
        ("x1,x2\r\n1,2\r\n3,4\r\n", True),
        ("x1,x2\nnan,inf\n-Infinity,-nan\n", True),
        ("\nx1,x2\n1,2\n", False),  # first line blank: no header
        ("x1,x2\n1,2,3\n", False),  # 3 fields under a 2-field header
        ("x1,x2,x3\n", True),  # header only: (0, 3), and no warning
        ("x1,x2\n\n\n", True),  # header and blank lines
        ("x1\n", True),
        ("x1,x2,label\n1,2,1.0\n", False),  # labels are int(), not float()
        ("x1,x2,label\n1,2, 1\n3,4,-0\n", True),
        ("x1,x2\n1,2\r3,4\r", True),
        ("x1,x2\n1,2\n\n3,4", True),
        ("x1,x2\n1\n", False),
        # Python's float refuses U+001C-U+001F, which numpy strips as whitespace
        ("x1\n1\x1c\n", False),
        ("x1\n\x1f1\n", False),
        ('"x\n1",x2\n1,2\n3,4\n', True),  # a header that spans two lines
        ("x1,x2\r1,2\n3,4\n", True),  # a header ended by a bare \r
        # eight bytes of four characters: a body offset counted in
        # characters would read the header's "1,2" as a row
        ("éééé1,2\n5,6\n", True),
        ("x1,x2\n1,2\r\n3,4", True),  # a last line without an ending
        ("x1,x2\n 1 ,\t-2e3\t\n+.5,5.\n", True),
    ])
    def test_fixed_cases(self, tmp_path, text, accepted):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        outcome = _assert_reads_like_the_row_loop(path)
        assert (outcome[0] == "ok") == accepted

    def test_compiled_reader_needs_no_row_loop(self, tmp_path, monkeypatch):
        cells = ["0", "-0", "1e-5", "+.5", "5.", " 7 ", "\t-1.25E+3", "123456789012345678",
                 "1e309", "4e-320"]
        path = tmp_path / "data.csv"
        path.write_text("x1,x2\n" + "".join(f"{a},{b}\r\n" for a, b in zip(cells, cells[::-1])))

        monkeypatch.setattr(cli, "_read_csv_rows", _no_row_loop)
        with pinned_reader("compiled"):
            header, X, labels = read_csv_dataset(path)
        assert header == ["x1", "x2"] and labels is None
        want = np.array([[float(a), float(b)] for a, b in zip(cells, cells[::-1])])
        assert X.tobytes() == want.tobytes()

    def test_refused_file_reports_the_row_loops_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2\n1,2\n\n3,4\n5\n")
        with pytest.raises(ParseError) as err:
            read_csv_dataset(path)
        assert err.value.line_number == 5
        assert str(err.value) == f"{path}: line 5: expected 2 fields, got 1"


# the values where a float's shortest text, its exponent switch or its
# sign are easiest to get wrong
_PINNED_FLOATS = [-0.0, 5e-324, 1e-5, 1e-4, 1e16, 1e17, 0.1 + 0.2, 1.7976931348623157e308,
                  math.inf]


class TestBlockWriter:
    def test_cell_formats_match_fmt(self):
        for v in _PINNED_FLOATS + [-v for v in _PINNED_FLOATS] + [math.nan]:
            assert "%.12g" % v == cli._fmt(v)

    def test_blocks_match_a_per_cell_csv_writer(self, tmp_path, monkeypatch):
        # each column carries its kind: floats, Coded text and a str constant
        values = np.array(_PINNED_FLOATS)
        outlier = np.arange(values.size) % 2 == 1
        flags = np.arange(values.size) % 3
        header = ["a,b", "y", "r", "label", "flag"]
        columns = [values, values[::-1], cli._fmt(0.1 + 0.2),
                   Coded(outlier, ("inlier", "outlier")), Coded(flags, (0, 1, "two"))]
        monkeypatch.setattr(datagen, "WRITE_BLOCK_ROWS", 4)
        written = {}
        for writer in supported_writers():
            written[writer] = tmp_path / f"{writer}.csv"
            with pinned_writer(writer):
                write_csv_blocks(written[writer], header, columns)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(
                [cli._fmt(a), cli._fmt(b), cli._fmt(0.1 + 0.2), ("inlier", "outlier")[o],
                 str((0, 1, "two")[k])]
                for a, b, o, k in zip(values, values[::-1], outlier.tolist(), flags.tolist())
            )
        for blocked in written.values():
            assert blocked.read_bytes() == reference.read_bytes()
            assert blocked.read_bytes().startswith(b'"a,b",y,r,label,flag\r\n')

    @pytest.mark.parametrize("columns", [
        [np.zeros(3), np.zeros(2)],
        [np.zeros(3), Coded(np.zeros(4, dtype=int), ("a",))],
        [np.zeros((3, 1))],
    ])
    def test_a_column_of_another_length_is_an_input_error(self, tmp_path, columns):
        with pytest.raises(InputError, match="columns must be 1-D with"):
            write_csv_blocks(tmp_path / "out.csv", ["c"] * len(columns), columns)

    @pytest.mark.parametrize("codes", [[0, 2], [-1, 0]])
    def test_a_code_outside_its_values_is_an_input_error(self, tmp_path, codes):
        with pytest.raises(InputError, match="codes must index 2 values"):
            write_csv_blocks(tmp_path / "out.csv", ["c"], [Coded(np.array(codes), ("a", "b"))])


# the seed-11 banana at these flags has the plateau [2.4, 3.55]: 24 grid
# points, whose float midpoint 2.9749999999999996 no solve visits
EVEN_PLATEAU_FLAGS = ["--min-run", "5", "--kkt-tol", "1e-7"]


class TestOnePick:
    def test_tune_reports_the_plateau_middle_grid_point(self, banana_csv, tmp_path, capsys):
        out = tmp_path / "tune.json"
        assert main(["tune", "--method", "peak", "--data", str(banana_csv),
                     *EVEN_PLATEAU_FLAGS, "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert (report["s_low"], report["s_high"], report["s"]) == (2.4, 3.55, 2.95)
        assert capsys.readouterr().out == f"method=peak selected s=2.95 -> {out}\n"

    def test_train_tune_trains_at_the_pick(self, banana_csv, tmp_path):
        from svddpeak.tuning import BandwidthGrid, select_bandwidth_peak

        model_path = tmp_path / "model.json"
        assert main(["train", "--tune", "peak", "--data", str(banana_csv),
                     *EVEN_PLATEAU_FLAGS, "--out", str(model_path)]) == EXIT_OK
        peak = select_bandwidth_peak(read_csv_dataset(banana_csv)[1], 0.001,
                                     BandwidthGrid.low_dimensional(),
                                     config=solver.SolverConfig(f=0.001, kkt_tol=1e-7),
                                     min_run=5)
        tuned = json.loads((tmp_path / "model.json.manifest.json").read_text())["tuned"]
        assert json.loads(model_path.read_text())["s"] == tuned["s"] == peak.pick == 2.95


# 2 s^2 underflows to 0 at every point of the first grid, and overflows at
# the last point of the second
TINY_GRID = ["--s-min", "1e-300", "--s-max", "1e-299", "--s-step", "1e-301"]
HUGE_GRID = ["--s-min", "1", "--s-max", "1e200", "--s-step", "1e198"]


class TestGridOutOfGaussianRange:
    def _refused(self, tmp_path, capsys, monkeypatch, argv, s):
        monkeypatch.setattr(solver, "train_path", _never)
        monkeypatch.setattr(solver, "train", _never)
        before = sorted(tmp_path.iterdir())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == EXIT_USAGE
        # no numpy warning: no kernel entry was computed either
        assert caught == []
        assert capsys.readouterr() == ("", f"error: gaussian bandwidth {s} is out of range: "
                                           "2 s^2 must be a positive finite number\n")
        assert sorted(tmp_path.iterdir()) == before

    def test_tune(self, banana_csv, tmp_path, capsys, monkeypatch):
        self._refused(tmp_path, capsys, monkeypatch,
                      ["tune", "--method", "peak", "--data", str(banana_csv), *TINY_GRID,
                       "--out", str(tmp_path / "tune.json")], "1e-300")

    def test_train_tune(self, banana_csv, tmp_path, capsys, monkeypatch):
        self._refused(tmp_path, capsys, monkeypatch,
                      ["train", "--tune", "peak", "--data", str(banana_csv), *TINY_GRID,
                       "--out", str(tmp_path / "model.json")], "1e-300")

    def test_simulate(self, tmp_path, capsys, monkeypatch):
        self._refused(tmp_path, capsys, monkeypatch,
                      ["simulate", "--vertices", "5", "--per-count", "1", "--samples", "100",
                       *TINY_GRID, "--out-dir", str(tmp_path / "study")], "1e-300")

    def test_tune_past_the_top(self, banana_csv, tmp_path, capsys, monkeypatch):
        self._refused(tmp_path, capsys, monkeypatch,
                      ["tune", "--method", "peak", "--data", str(banana_csv), *HUGE_GRID,
                       "--out", str(tmp_path / "tune.json")], "1e+200")

    def test_train_tune_past_the_top(self, banana_csv, tmp_path, capsys, monkeypatch):
        self._refused(tmp_path, capsys, monkeypatch,
                      ["train", "--tune", "peak", "--data", str(banana_csv), *HUGE_GRID,
                       "--out", str(tmp_path / "model.json")], "1e+200")

    def test_simulate_past_the_top(self, tmp_path, capsys, monkeypatch):
        self._refused(tmp_path, capsys, monkeypatch,
                      ["simulate", "--vertices", "5", "--per-count", "1", "--samples", "100",
                       *HUGE_GRID, "--out-dir", str(tmp_path / "study")], "1e+200")

    # the grid baselines sweep the same BandwidthGrid, so they refuse it too
    @pytest.mark.parametrize("grid, s", [(TINY_GRID, "1e-300"), (HUGE_GRID, "1e+200")],
                             ids=["tiny", "huge"])
    @pytest.mark.parametrize("method", ["cv", "dfn"])
    @pytest.mark.parametrize("command, flag", [("tune", "--method"), ("train", "--tune")],
                             ids=["tune", "train"])
    def test_grid_baselines(self, banana_csv, tmp_path, capsys, monkeypatch, command, flag,
                            method, grid, s):
        self._refused(tmp_path, capsys, monkeypatch,
                      [command, flag, method, "--data", str(banana_csv), *grid,
                       "--out", str(tmp_path / "out.json")], s)


def test_simulate_imports_no_masked_arrays(tmp_path):
    # the summary's quartiles come without np.percentile's numpy.ma import
    probe = ("import sys; from svddpeak.cli import main; "
             "code = main(['simulate', '--vertices', '5', '--per-count', '2', '--samples', "
             "'100', '--jobs', '1', '--out-dir', 'd']); print(code, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=_src_dir())).stdout
    assert out.splitlines()[-1].split() == ["0", "False"]
    assert len(read_rows(tmp_path / "d" / "polygon_study_summary.csv")) == 2
