import csv
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scrbar import Dataset, fit_unpenalized, simulate_dataset
from scrbar.cli import (
    SchemaError,
    main,
    oracle_fit,
    read_dataset_csv,
    standardize_covariates,
    write_dataset_csv,
)
from scrbar.estimation import FitConfig
from _helpers import small_dataset, small_scenario


@pytest.fixture()
def toy_csv(tmp_path):
    data = small_dataset(n=30, d=3, seed=70)
    path = tmp_path / "toy.csv"
    write_dataset_csv(path, data)
    return str(path), data


class TestCsvIo:
    def test_round_trip_shared_schema(self, toy_csv):
        path, data = toy_csv
        back, names = read_dataset_csv(path)
        assert names[0] == names[1] == names[2]
        assert len(back) == len(data)
        for a, b in zip(back.records, data.records):
            assert (a.l, a.y1, a.delta1, a.y2, a.delta2) == \
                   (b.l, b.y1, b.delta1, b.y2, b.delta2)
            np.testing.assert_array_equal(a.z1, b.z1)

    def test_round_trip_block_schema(self, tmp_path):
        data = small_dataset(n=10, d=2, seed=71)
        path = tmp_path / "blocks.csv"
        write_dataset_csv(path, data, shared=False)
        back, names = read_dataset_csv(str(path))
        assert names[0] == ["z1_1", "z1_2"]
        np.testing.assert_array_equal(back.records[3].z3, data.records[3].z3)

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("l,y1,delta1,y2\n0,1,1,2\n")
        with pytest.raises(SchemaError, match="delta2"):
            read_dataset_csv(str(path))

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("l,y1,delta1,y2,delta2,z_1\n0,1,1,2,oops,0.5\n")
        with pytest.raises(SchemaError, match="row 2.*delta2"):
            read_dataset_csv(str(path))

    def test_repeated_column_named(self, tmp_path):
        # both z_1 would be read from the second position, losing the first
        path = tmp_path / "bad.csv"
        path.write_text("l,y1,delta1,y2,delta2,z_1,z_1,z_3\n0,1,1,2,0,0.5,-0.5,1\n")
        with pytest.raises(SchemaError, match="repeated column 'z_1'"):
            read_dataset_csv(str(path))

    def test_invalid_records_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("l,y1,delta1,y2,delta2,z_1\n5,1,0,1,0,0.5\n")
        with pytest.raises(SchemaError, match="l < y1"):
            read_dataset_csv(str(path))

    def test_standardize(self):
        data = small_dataset(n=40, d=3, seed=72)
        std = standardize_covariates(data)
        Z = std.arrays()["Z1"]
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(Z.std(axis=0, ddof=1), 1.0, rtol=1e-12)


@st.composite
def valid_datasets(draw, shared, truncated):
    """Small well-formed datasets with arbitrary finite covariates."""
    n = draw(st.integers(1, 6))
    widths = st.integers(1, 3)
    dims = (draw(widths),) * 3 if shared else tuple(draw(widths) for _ in range(3))
    rows = []
    for _ in range(n):
        l = draw(st.floats(0.0, 1e6)) if truncated else 0.0
        y1 = draw(st.floats(min_value=l, max_value=2e6, exclude_min=True))
        d1, d2 = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        y2 = draw(st.floats(min_value=y1, max_value=3e6)) if d1 else y1
        rows.append((l, y1, d1, y2, d2))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    Z = [draw(arrays(float, (n, d), elements=finite)) for d in dims]
    if shared:
        Z = [Z[0]] * 3
    return Dataset.from_arrays(*np.array(rows, dtype=float).T, *Z)


class TestCsvRoundTripFuzz:
    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("truncated", [True, False])
    @settings(max_examples=40, deadline=None)
    @given(draw=st.data())
    def test_every_column_read_back_exactly(self, shared, truncated, draw):
        data = draw.draw(valid_datasets(shared, truncated))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.csv")
            write_dataset_csv(path, data, shared=shared)
            back, names = read_dataset_csv(path)
        assert (names[0] == names[1] == names[2]) is shared
        got = back.arrays()
        for key, col in data.arrays().items():
            assert got[key].dtype == col.dtype and got[key].shape == col.shape, key
            assert got[key].tobytes() == col.tobytes(), key


class TestFitCommand:
    def test_toy_fit_writes_report(self, toy_csv, tmp_path):
        path, _ = toy_csv
        out = tmp_path / "out"
        rc = main(["fit", path, "--baseline", "weibull", "--out", str(out)])
        assert rc == 0
        report = (out / "fit_report.txt").read_text()
        assert "log-likelihood" in report
        assert "CR" in report

    def test_missing_column_exit_code(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("l,y1,delta1,y2\n0,1,1,2\n")
        assert main(["fit", str(path)]) == 1

    def test_bic_table_written(self, tmp_path, monkeypatch):
        data = small_dataset(n=80, d=3, seed=73)
        path = tmp_path / "d.csv"
        write_dataset_csv(path, data)
        out = tmp_path / "out"
        import scrbar.cli as cli_mod
        from scrbar.estimation import bic_degree_select as real_bic
        # narrow the candidate list for runtime
        monkeypatch.setattr(cli_mod, "bic_degree_select",
                            lambda d, cand, cfg: real_bic(d, [(2, 2, 3), (5, 5, 6)], cfg))
        rc = main(["fit", str(path), "--baseline", "bernstein",
                   "--degrees", "bic", "--out", str(out)])
        assert rc == 0
        rows = list(csv.reader(open(out / "bic_table.csv")))
        assert rows[0][0] == "degrees"
        assert len(rows) == 3
        assert sum(r[-1] == "argmin" for r in rows[1:]) == 1


@pytest.fixture(scope="module")
def sim_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sel")
    scen = small_scenario(n=120, d=4, seed=74, censor_upper=25.0)
    from dataclasses import replace
    from scrbar import RegressionCoefficients
    b = np.array([1.0, 0.9, 0.0, 0.0])
    scen = replace(scen, beta=RegressionCoefficients(b, b, b))
    data = simulate_dataset(scen)
    path = tmp / "sim.csv"
    write_dataset_csv(path, data)
    return str(path), data, scen.beta.stacked


class TestSelectCommand:
    def test_bar_report_support_consistent(self, sim_csv, tmp_path, monkeypatch):
        path, data, truth = sim_csv
        out = tmp_path / "sel"
        import scrbar.cli as cli_mod
        results = []
        real_gcv = cli_mod.gcv_select
        monkeypatch.setattr(cli_mod, "gcv_select",
                            lambda *a: results.append(real_gcv(*a)) or results[-1])
        rc = main(["select", path, "--method", "bar", "--baseline", "weibull",
                   "--lambda-count", "12", "--out", str(out)])
        assert rc == 0
        report = (out / "selection_report.txt").read_text()
        n_sel = int(report.split("selected coefficients:")[1].split("of")[0])
        gcv_rows = list(csv.DictReader(open(out / "gcv_table.csv")))
        chosen = float(report.split("chosen lambda:")[1].splitlines()[0])
        match = [r for r in gcv_rows if abs(float(r["lambda"]) - chosen) < 1e-9]
        assert match and int(match[0]["n_selected"]) == n_sel
        # every scored lambda reports its own solve's convergence, iterations
        # and largest surrogate jitter
        (res,) = results
        assert list(gcv_rows[0])[-1] == "jitter"
        scored = [r for r in gcv_rows if r["ok"] == "True"]
        assert len(scored) == len(res.path) > 0
        for row, est in zip(scored, res.path):
            assert row["converged"] == str(est.converged)
            assert int(row["n_iter"]) == est.n_iter
            assert float(row["jitter"]) == float(f"{est.jitter:.6g}")

    def test_select_reports_fit_convergence(self, sim_csv, tmp_path):
        path, _, _ = sim_csv
        out = tmp_path / "conv"
        rc = main(["select", path, "--method", "lasso", "--baseline", "weibull",
                   "--lambda-count", "2", "--out", str(out)])
        assert rc == 0
        fr = fit_unpenalized(read_dataset_csv(path)[0], FitConfig(baseline="weibull"))
        lines = (out / "selection_report.txt").read_text().splitlines()
        header = lines[:next(i for i, s in enumerate(lines) if s.startswith("variable"))]
        assert (f"converged: {fr.converged}  iterations: {fr.n_iter}  "
                f"grad_norm: {fr.grad_norm:.3g}") in header

    def test_single_lambda_notes_degenerate_tuning(self, sim_csv, tmp_path):
        path, _, _ = sim_csv
        out = tmp_path / "sel1"
        rc = main(["select", path, "--method", "lasso", "--lambda-count", "1",
                   "--baseline", "weibull", "--out", str(out)])
        assert rc == 0
        assert "degenerate" in (out / "selection_report.txt").read_text()

    def test_oracle_refit(self, sim_csv, tmp_path):
        path, data, truth = sim_csv
        out = tmp_path / "orc"
        rc = main(["select", path, "--method", "oracle", "--baseline", "weibull",
                   "--oracle-support", "1,2", "--out", str(out)])
        assert rc == 0
        report = (out / "selection_report.txt").read_text()
        assert "selected coefficients: 6 of 12" in report

    def test_oracle_without_support_fails_cleanly(self, sim_csv, tmp_path):
        path, _, _ = sim_csv
        rc = main(["select", path, "--method", "oracle",
                   "--out", str(tmp_path / "x")])
        assert rc == 1

    @pytest.mark.parametrize("support, message", [
        (None, "requires --oracle-support"), ("1,2;1,99;1", "block 2 out of range")])
    def test_oracle_support_checked_before_fitting(self, sim_csv, tmp_path, monkeypatch,
                                                   capsys, support, message):
        import scrbar.cli as cli_mod
        monkeypatch.setattr(cli_mod, "fit_unpenalized", _must_not_run)
        monkeypatch.setattr(cli_mod, "bic_degree_select", _must_not_run)
        path, _, _ = sim_csv
        argv = ["select", path, "--method", "oracle", "--baseline", "bernstein",
                "--degrees", "bic", "--out", str(tmp_path / "x")]
        if support is not None:
            argv += ["--oracle-support", support]
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    def test_oracle_repeated_index_rejected(self, sim_csv, tmp_path, monkeypatch,
                                            capsys):
        # fitting z_1 twice would split its coefficient between the copies
        import scrbar.cli as cli_mod
        monkeypatch.setattr(cli_mod, "oracle_fit", _must_not_run)
        path, _, _ = sim_csv
        rc = main(["select", path, "--method", "oracle", "--baseline", "weibull",
                   "--oracle-support", "1,1,2;1,2;1,2", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "block 1 repeats an index" in capsys.readouterr().err

    def test_select_honours_bic_degrees(self, tmp_path, monkeypatch):
        data = small_dataset(n=80, d=3, seed=73)
        path = tmp_path / "d.csv"
        write_dataset_csv(path, data)
        out = tmp_path / "out"
        import scrbar.cli as cli_mod
        from scrbar.estimation import bic_degree_select as real_bic
        # narrow the candidate list for runtime
        monkeypatch.setattr(cli_mod, "bic_degree_select",
                            lambda d, cand, cfg: real_bic(d, [(2, 2, 3), (5, 5, 6)], cfg))
        fitted = []
        real_fit = cli_mod.fit_unpenalized
        monkeypatch.setattr(cli_mod, "fit_unpenalized",
                            lambda d, cfg: fitted.append(cfg.degrees) or real_fit(d, cfg))
        rc = main(["select", str(path), "--baseline", "bernstein", "--degrees", "bic",
                   "--lambda-count", "3", "--out", str(out)])
        assert rc == 0
        rows = list(csv.reader(open(out / "bic_table.csv")))
        argmin = [r[0] for r in rows[1:] if r[-1] == "argmin"]
        assert len(rows) == 3 and len(argmin) == 1
        assert fitted == [tuple(int(m) for m in argmin[0].split(","))]


def _report_table(path):
    """(name, CR, Death, Death after CR) cells of a report's coefficient table."""
    lines = path.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("variable"))
    return [(line[:16].strip(), line[16:30].strip(), line[30:44].strip(),
             line[44:].strip()) for line in lines[start + 1:] if line.strip()]


class TestUnequalBlocks:
    def test_every_coefficient_labelled_by_its_column(self, tmp_path):
        # block widths 4, 2, 3 in the per-transition schema
        data = small_dataset(n=80, d=4, seed=77).restrict_covariates(
            [0, 1, 2, 3], [0, 1], [0, 1, 2])
        path = tmp_path / "blocks.csv"
        write_dataset_csv(path, data, shared=False)
        back, names = read_dataset_csv(str(path))
        assert [len(b) for b in names] == [4, 2, 3]
        out = tmp_path / "out"
        assert main(["fit", str(path), "--baseline", "weibull", "--out", str(out)]) == 0
        assert main(["select", str(path), "--baseline", "weibull",
                     "--lambda-count", "4", "--out", str(out)]) == 0

        b = fit_unpenalized(back, FitConfig(baseline="weibull")).params.beta
        expected = [(nm, k, f"{coef:.4f}")
                    for k, (block, coefs) in enumerate(zip(names, (b.beta1, b.beta2, b.beta3)))
                    for nm, coef in zip(block, coefs)]
        fit_rows = _report_table(out / "fit_report.txt")
        assert [row[0] for row in fit_rows] == [nm for nm, _, _ in expected]
        for row, (_, k, cell) in zip(fit_rows, expected):
            assert row[1 + k] == cell
            assert [c for j, c in enumerate(row[1:]) if j != k] == ["", ""]

        report = (out / "selection_report.txt").read_text()
        n_sel = int(report.split("selected coefficients:")[1].split("of")[0])
        sel_rows = _report_table(out / "selection_report.txt")
        assert [row[0] for row in sel_rows] == [nm for nm, _, _ in expected]
        shown = [row[1 + k] for row, (_, k, _) in zip(sel_rows, expected)]
        assert sum(cell != "-" for cell in shown) == n_sel


class TestOracleFit:
    def test_embedding_into_full_coordinates(self):
        data = small_dataset(n=100, d=4, seed=75)
        beta, fr = oracle_fit(data, [[0, 1], [2], [1, 3]],
                              FitConfig(baseline="weibull"))
        assert beta.shape == (12,)
        assert np.all(beta[[2, 3]] == 0.0)          # dropped in transition 1
        assert np.all(beta[[4, 5, 7]] == 0.0)       # dropped in transition 2
        assert fr.params.beta.beta1.size == 2


CONFIG = """\
# tiny smoke study
n = 100
replications = 2
design = ar1
rho = 0.5
censoring = 0.5
trunc_fraction = 0.2
baseline = bernstein
degrees = 2,2,3
methods = bar,oracle
seed = 31415
lambda_count = 10
"""


class TestSimulateCommand:
    def test_outputs_and_determinism(self, tmp_path):
        cfg_path = tmp_path / "study.cfg"
        cfg_path.write_text(CONFIG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["simulate", str(cfg_path), "--out", str(out2)]) == 0
        for name in ("replicates.csv", "aggregate.csv", "hazard_curves.csv"):
            assert (out1 / name).exists()
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        head = open(out1 / "hazard_curves.csv").readline().strip().split(",")
        assert head == ["transition", "t", "true_hazard", "est_hazard",
                        "true_cumhaz", "est_cumhaz"]

    def test_parallel_matches_serial(self, tmp_path):
        cfg_path = tmp_path / "study.cfg"
        cfg_path.write_text(CONFIG)
        ser, par = tmp_path / "ser", tmp_path / "par"
        assert main(["simulate", str(cfg_path), "--out", str(ser)]) == 0
        assert main(["simulate", str(cfg_path), "--jobs", "2",
                     "--out", str(par)]) == 0
        assert (ser / "replicates.csv").read_bytes() == \
            (par / "replicates.csv").read_bytes()

    def test_config_validation(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("unknown_key = 3\n")
        assert main(["simulate", str(bad)]) == 1

    def test_replicate_csv_columns(self, tmp_path):
        cfg_path = tmp_path / "study.cfg"
        cfg_path.write_text(CONFIG)
        out = tmp_path / "cols"
        main(["simulate", str(cfg_path), "--out", str(out)])
        rows = list(csv.DictReader(open(out / "replicates.csv")))
        assert {"replicate", "method", "tp", "fp", "mcv", "mse", "ges",
                "lambda", "n_selected"} <= set(rows[0])
        methods = {r["method"] for r in rows}
        assert methods == {"bar", "oracle"}
        for r in rows:
            if r["method"] == "oracle":
                assert int(r["tp"]) == 12 and int(r["fp"]) == 0

    def test_replicate_csv_records_unpenalized_fit(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "study.cfg"
        cfg_path.write_text(CONFIG.replace("replications = 2", "replications = 1"))
        import scrbar.cli as cli_mod
        results = []
        real_run = cli_mod.run_study
        monkeypatch.setattr(cli_mod, "run_study",
                            lambda cfg: results.append(real_run(cfg)) or results[-1])
        out = tmp_path / "fit_cols"
        assert main(["simulate", str(cfg_path), "--out", str(out)]) == 0
        (study,) = results
        fr = study.reference
        rows = list(csv.DictReader(open(out / "replicates.csv")))
        assert list(rows[0])[-2:] == ["fit_converged", "fit_iterations"]
        assert len(rows) == 2
        for r in rows:
            assert r["fit_converged"] == str(fr.converged)
            assert int(r["fit_iterations"]) == fr.n_iter


def _must_not_run(*args, **kwargs):
    raise AssertionError("ran before the inputs were checked")


class TestLambdaGridInputs:
    """A lambda grid that is not positive, or has no points, is a usage
    error (exit 1) found before any fit or calibration."""

    @pytest.mark.parametrize("flag, value", [
        ("--lambda-count", "0"), ("--lambda-count", "-2"), ("--lambda-min", "0"),
        ("--lambda-min", "-1"), ("--lambda-max", "-1"), ("--lambda-max", "nan")])
    def test_select_flag_rejected_before_fitting(self, sim_csv, tmp_path, monkeypatch,
                                                 capsys, flag, value):
        import scrbar.cli as cli_mod
        monkeypatch.setattr(cli_mod, "fit_unpenalized", _must_not_run)
        monkeypatch.setattr(cli_mod, "bic_degree_select", _must_not_run)
        path, _, _ = sim_csv
        rc = main(["select", path, "--baseline", "bernstein", "--degrees", "bic",
                   flag, value, "--out", str(tmp_path / "bad")])
        assert rc == 1
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "lambda_count = 0", "lambda_min = 0", "lambda_min = -1", "lambda_max = -1"])
    def test_simulate_key_rejected_before_calibrating(self, tmp_path, monkeypatch,
                                                      capsys, line):
        import scrbar.cli as cli_mod
        for name in ("calibrate_censoring", "calibrate_truncation", "run_study"):
            monkeypatch.setattr(cli_mod, name, _must_not_run)
        cfg_path = tmp_path / "study.cfg"
        cfg_path.write_text(CONFIG.replace("lambda_count = 10\n", line + "\n"))
        assert main(["simulate", str(cfg_path), "--out", str(tmp_path / "bad")]) == 1
        assert "lambda grid" in capsys.readouterr().err


class TestDegreesFlag:
    """A malformed, negative or short ``--degrees``, and any ``--degrees``
    without a Bernstein baseline, is a usage error (exit 1) found before any
    fit."""

    @pytest.mark.parametrize("command", ["fit", "select"])
    @pytest.mark.parametrize("flags", [
        pytest.param(["--baseline", "bernstein", "--degrees=2,2,x"], id="2,2,x"),
        pytest.param(["--baseline", "bernstein", "--degrees=-1,2,3"], id="-1,2,3"),
        pytest.param(["--baseline", "bernstein", "--degrees=2,2"], id="2,2"),
        pytest.param(["--baseline", "weibull", "--degrees=5,5,5"], id="weibull-5,5,5"),
    ])
    def test_rejected_before_fitting(self, sim_csv, tmp_path, monkeypatch, capsys,
                                     command, flags):
        import scrbar.cli as cli_mod
        monkeypatch.setattr(cli_mod, "fit_unpenalized", _must_not_run)
        monkeypatch.setattr(cli_mod, "bic_degree_select", _must_not_run)
        path, _, _ = sim_csv
        rc = main([command, path, *flags, "--out", str(tmp_path / "bad")])
        assert rc == 1
        assert "--degrees" in capsys.readouterr().err


def test_truncation_flag_is_gone(sim_csv, tmp_path, monkeypatch, capsys):
    # left truncation has one convention, so there is nothing to choose
    import scrbar.cli as cli_mod
    monkeypatch.setattr(cli_mod, "fit_unpenalized", _must_not_run)
    path, _, _ = sim_csv
    rc = main(["select", path, "--truncation", "gap", "--out", str(tmp_path / "bad")])
    assert rc == 1
    assert "--truncation" in capsys.readouterr().err


class TestStudyInputs:
    """A simulate config with no replicate, no worker, an unknown or repeated
    method, or scenario or fit settings that cannot run, is a usage error
    (exit 1) found before calibration."""

    @pytest.mark.parametrize("line, message", [
        ("replications = 0", "replication count"),
        ("replications = -3", "replication count"),
        ("jobs = 0", "jobs must be at least 1"),
        ("jobs = -3", "jobs must be at least 1"),
        ("methods = bar,ridge", "unknown method 'ridge'"),
        ("methods = bar,bar", "repeated method 'bar'"),
        ("design = gruoped", "unknown design 'gruoped'"),
        ("trunc_fraction = -0.2", "trunc_fraction must be finite and non-negative"),
        ("trunc_fraction = nan", "trunc_fraction must be finite and non-negative"),
        ("trunc_fraction = inf", "trunc_fraction must be finite and non-negative"),
        ("baseline = bernsteen", "unknown baseline mode 'bernsteen'"),
        ("baseline = weibull", "key 'degrees' requires baseline = bernstein"),
        ("truncation = gap", "key 'truncation'"),
        ("rho = 1.5", "rho must lie in [0, 1)"),
        ("censoring = 0", "censoring must lie in (0, 1)"),
        ("censoring = 1.5", "censoring must lie in (0, 1)"),
        ("n = 0", "n must be at least 1"),
        ("degrees = 2,2", "one per transition"),
        ("degrees = 2,2,3,4", "one per transition"),
        ("seed = -1", "seed must be non-negative")])
    def test_rejected_before_calibrating(self, tmp_path, monkeypatch, capsys,
                                         line, message):
        import scrbar.cli as cli_mod
        for name in ("calibrate_censoring", "calibrate_truncation", "run_study"):
            monkeypatch.setattr(cli_mod, name, _must_not_run)
        key = line.split(" =")[0]
        text = "".join(ln for ln in CONFIG.splitlines(keepends=True)
                       if not ln.startswith(key + " ="))
        cfg_path = tmp_path / "study.cfg"
        cfg_path.write_text(text + line + "\n")
        assert main(["simulate", str(cfg_path), "--out", str(tmp_path / "bad")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_jobs_flag_rejected_before_calibrating(self, tmp_path, monkeypatch, capsys,
                                                   value):
        import scrbar.cli as cli_mod
        for name in ("calibrate_censoring", "calibrate_truncation", "run_study"):
            monkeypatch.setattr(cli_mod, name, _must_not_run)
        cfg_path = tmp_path / "study.cfg"
        cfg_path.write_text(CONFIG)
        assert main(["simulate", str(cfg_path), "--jobs", value,
                     "--out", str(tmp_path / "bad")]) == 1
        assert "--jobs" in capsys.readouterr().err

    def test_seed_flag_rejected_before_calibrating(self, tmp_path, monkeypatch, capsys):
        import scrbar.cli as cli_mod
        for name in ("calibrate_censoring", "calibrate_truncation", "run_study"):
            monkeypatch.setattr(cli_mod, name, _must_not_run)
        cfg_path = tmp_path / "study.cfg"
        cfg_path.write_text(CONFIG)
        assert main(["simulate", str(cfg_path), "--seed", "-1",
                     "--out", str(tmp_path / "bad")]) == 1
        assert "--seed" in capsys.readouterr().err


def _child_env():
    """The environment for a child interpreter that imports the scrbar this
    process imported, installed or not."""
    import scrbar
    src = os.path.dirname(os.path.dirname(os.path.abspath(scrbar.__file__)))
    return dict(os.environ, PYTHONPATH=src)


class TestImportCost:
    def test_cli_import_leaves_scipy_stats_out(self):
        # scipy.stats is the frailty oracle's alone; importing it with the
        # package would nearly double the start-up time
        code = "import sys, scrbar.cli; print('scipy.stats' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cli_import_leaves_scipy_integrate_out(self):
        # scipy.integrate is the frailty oracle's alone too
        code = "import sys, scrbar.cli; print('scipy.integrate' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["no-such-command"]) == 1

    def test_numerical_failure_is_two(self, tmp_path):
        # 8 rows but 13 parameters: the sample-size precondition trips
        data = small_dataset(n=8, d=2, seed=76)
        path = tmp_path / "tiny.csv"
        write_dataset_csv(path, data)
        assert main(["fit", str(path)]) == 2

    def test_console_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "scrbar.cli", "--help"],
                              env=_child_env(), capture_output=True, text=True)
        assert proc.returncode == 0
        assert "simulate" in proc.stdout
