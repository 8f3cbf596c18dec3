import contextlib
import ctypes
import io
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rkadapt import cli, search, stability
from rkadapt.catalog import catalog_get, catalog_names, load_coefficients
from rkadapt.cli import _CSV_BLOCK, _fmt, main
from rkadapt.problems import make_problem


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_missing_scheme_is_usage_error(capsys):
    code, _, err = run(capsys, "integrate", "--problem", "dahlquist", "--tol", "1e-6")
    assert code == 1
    assert "scheme" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "integrate", "--schme", "bs3")
    assert code == 1


def test_integrate_dahlquist_tight_tolerance(capsys):
    code, out, _ = run(capsys, "integrate", "--scheme", "rk35-3s+",
                       "--problem", "dahlquist", "--lambda", "-1",
                       "--tol", "1e-8", "--t-end", "10")
    assert code == 0
    report = json.loads(out)
    assert report["errors"]["u"] <= 1e-6
    assert report["nfe"] > 0 and report["n_accepted"] > 0


def test_integrate_source1d_report_layout(capsys):
    code, out, _ = run(capsys, "integrate", "--scheme", "bs3",
                       "--problem", "source1d", "--tol", "1e-5",
                       "--t-end", "1.0")
    assert code == 0
    report = json.loads(out)
    for key in ("scheme", "controller", "nfe", "n_rejected", "errors", "wall_time"):
        assert key in report
    assert set(report["errors"]) == {"rho", "rho_v", "rho_e"}


def test_sweep_csv_is_byte_stable(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sweep", "--scheme", "bs3", "--problem", "dahlquist",
            "--lambda", "-1", "--t-end", "4", "--tols", "1e-4,1e-6"]
    assert run(capsys, *args, "--out", str(out1))[0] == 0
    assert run(capsys, *args, "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "tol,nfe,n_rejected,error,status"
    assert len(lines) == 3


def test_cfl_sweep_fe_scales_inversely_with_nu(tmp_path, capsys):
    out = tmp_path / "cfl.csv"
    code, _, _ = run(capsys, "sweep", "--scheme", "rk35-3s+fsal",
                     "--problem", "source1d", "--t-end", "0.5",
                     "--nus", "0.5,1.0", "--out", str(out))
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    nfe = {float(r[0]): int(r[1]) for r in rows}
    assert nfe[0.5] == pytest.approx(2 * nfe[1.0], rel=0.05)


def test_a_failed_sweep_setting_keeps_its_work_in_its_row(tmp_path, capsys):
    # nu = 4 takes the vortex out of the admissible set in its first step
    out = tmp_path / "sweep.csv"
    flags = ["--scheme", "ssp43", "--problem", "vortex2d", "--elements", "4",
             "--t-end", "1"]
    code, summary, _ = run(capsys, "sweep", *flags, "--nus", "0.5,4,1", "--out", str(out))
    assert code == 0 and json.loads(summary)["failed_rows"] == 1
    single, report, _ = run(capsys, "integrate", *flags, "--cfl", "4")
    assert single == 2
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(r[0], r[-1]) for r in rows] == [("0.5", "ok"), ("4.0", "failed"), ("1.0", "ok")]
    assert rows[1][1:4] == [str(json.loads(report)["nfe"]), "0", "inf"]


# the README's sweep examples; each row must be its setting's own run
README_SWEEPS = [
    ["--scheme", "rk510-3s+fsal", "--problem", "advection2d",
     "--tols", "1e-3,1e-4,1e-5,1e-6,1e-7", "--beta", "0.45,-0.13,0"],
    ["--scheme", "rk510-3s+fsal", "--problem", "advection2d", "--nus", "3.0,3.5,4.0"],
]


@pytest.mark.parametrize("flags", README_SWEEPS)
def test_sweep_rows_equal_separate_integrate_runs(tmp_path, capsys, flags):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", *flags, "--out", str(out))
    setting = "--tols" if "--tols" in flags else "--nus"
    i = flags.index(setting)
    common = flags[:i] + flags[i + 2:]
    lines = ["tol,nfe,n_rejected,error,status" if setting == "--tols"
             else "nu,nfe,n_rejected,error,status"]
    codes = []
    for text in flags[i + 1].split(","):
        single, report, _ = run(capsys, "integrate", *common,
                                "--tol" if setting == "--tols" else "--cfl", text)
        report = json.loads(report)
        codes.append(single)
        error = repr(max(report["errors"].values())) if single == 0 else "inf"
        lines.append(",".join([repr(float(text)), str(report["nfe"]),
                               str(report["n_rejected"]), error,
                               "ok" if single == 0 else "failed"]))
    assert out.read_text() == "\n".join(lines) + "\n"
    assert code == (2 if all(c == 2 for c in codes) else 0)


FORWARD_EULER_DOC = {
    "name": "Euler", "class": "butcher", "s": 1, "q": 1, "qhat": 1,
    "fsal": False, "A": ["0"], "b": ["1"], "c": ["0"], "bhat": ["1", "0"],
}


def test_stability_forward_euler_boundary_is_unit_circle(tmp_path, capsys):
    coeff = tmp_path / "euler.json"
    coeff.write_text(json.dumps(FORWARD_EULER_DOC))
    out = tmp_path / "stab"
    code, _, _ = run(capsys, "stability", "--coeff-file", str(coeff),
                     "--points", "128", "--out", str(out))
    assert code == 0
    rows = np.loadtxt(str(out) + ".main.csv", delimiter=",", skiprows=1)
    z = rows[:, 0] + 1j * rows[:, 1]
    assert np.max(np.abs(np.abs(z + 1.0) - 1.0)) <= 1e-8


def test_stability_scaled_embedded_encloses_main(tmp_path, capsys):
    out = tmp_path / "rk35f"
    code, _, _ = run(capsys, "stability", "--scheme", "rk35-3s+fsal",
                     "--scaled", "--points", "256", "--out", str(out))
    assert code == 0
    main_rows = np.loadtxt(str(out) + ".main.csv", delimiter=",", skiprows=1)
    emb_rows = np.loadtxt(str(out) + ".embedded.csv", delimiter=",", skiprows=1)
    assert emb_rows[:, 0].min() <= main_rows[:, 0].min()
    assert emb_rows[:, 1].max() >= main_rows[:, 1].max()


def test_stability_control_map_reports_instability(tmp_path, capsys):
    out = tmp_path / "bs5"
    code, stdout, _ = run(capsys, "stability", "--scheme", "bs5",
                          "--beta", "0.7,-0.4,0", "--control-map",
                          "--out", str(out))
    assert code == 0
    summary = json.loads(stdout)
    assert summary["max_rho"] > 1.0
    assert summary["stable"] is False
    rows = np.loadtxt(str(out) + ".rho.csv", delimiter=",", skiprows=1)
    assert rows[:, 2].max() == pytest.approx(summary["max_rho"], rel=1e-12)


@pytest.mark.parametrize("flags", [["--control-map"], ["--grid-map", "50"],
                                   ["--control-map", "--beta", "1,2,3,4"],
                                   ["--beta", "a,b"],
                                   ["--control-map", "--beta", "inf,-0.2"]])
def test_stability_checks_its_settings_before_any_output(tmp_path, monkeypatch,
                                                         capsys, flags):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "stability", "--scheme", "bs3", *flags, "--out", "p")
    assert code == 1 and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_rhomap_has_a_row_for_each_finite_rho(tmp_path, capsys):
    out = tmp_path / "bs5"
    code, _, _ = run(capsys, "stability", "--scheme", "bs5", "--scaled",
                     "--beta", "0.7,-0.4,0", "--control-map", "--grid-map", "41",
                     "--out", str(out))
    assert code == 0
    scheme = catalog_get("bs5")
    Z, rho = stability.control_stability_map(scheme, (0.7, -0.4, 0.0), n_grid=41)
    finite = np.isfinite(rho)
    assert not finite.all()     # E vanishes at a grid point: a degenerate rho
    rows = np.loadtxt(str(out) + ".rhomap.csv", delimiter=",", skiprows=1)
    assert rows.shape == (finite.sum(), 3)
    scale = stability.stability_polynomials(scheme).s_eff
    assert np.array_equal(rows[:, 0], Z[finite].real / scale)
    assert np.array_equal(rows[:, 1], Z[finite].imag / scale)
    assert np.array_equal(rows[:, 2], rho[finite])
    # array_equal takes -0.0 for 0.0: the bytes pin each sign too
    reference = "re,im,value\n" + "".join(
        ",".join(map(_fmt, row)) + "\n"
        for row in zip(Z[finite].real / scale, Z[finite].imag / scale, rho[finite]))
    assert (tmp_path / "bs5.rhomap.csv").read_text() == reference


# floats whose repr is easy to get wrong: the signed zeros and infinities,
# subnormals, and the neighbours of 1e-5 and 1e16, where repr switches
# between positional and exponent notation
_TRICKY = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-320,
           2.2250738585072014e-308, 1e-5, math.nextafter(1e-5, 0),
           math.nextafter(1e-5, 1), 1e16, math.nextafter(1e16, 0),
           math.nextafter(1e16, math.inf), 0.1, 1.7976931348623157e308]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.sampled_from([0, 1, _CSV_BLOCK, _CSV_BLOCK + 1]),
       floats=st.lists(st.one_of(st.sampled_from(_TRICKY), st.floats()), min_size=1,
                       max_size=40),
       ints=st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=10),
       words=st.lists(st.sampled_from(["ok", "failed", "", "vortex2d"]), min_size=1,
                      max_size=5))
def test_csv_writer_writes_the_bytes_of_a_per_row_reference(tmp_path, n, floats,
                                                            ints, words):
    # each drawn list repeated to n rows, so blocks meet mid-pattern
    col_f = np.resize(np.array(floats), n)
    col_i = np.resize(np.array(ints, dtype=np.int64), n)
    columns = [col_f, col_i, col_i.tolist(), np.resize(words, n).tolist(),
               col_f.tolist()]
    path = tmp_path / "out.csv"
    cli._write_csv(str(path), ["f", "i", "j", "w", "g"], columns)
    reference = "f,i,j,w,g\n" + "".join(",".join(_fmt(v) for v in row) + "\n"
                                        for row in zip(*columns))
    text = path.read_text()
    assert text == reference
    # every float reads back to its own bits (a NaN to a NaN: repr drops its payload)
    parsed = np.array([float(line.split(",")[0]) for line in text.splitlines()[1:]])
    nan = np.isnan(col_f)
    assert np.array_equal(np.isnan(parsed), nan)
    assert np.array_equal(parsed[~nan].view(np.int64), col_f[~nan].view(np.int64))


def test_csv_writer_formats_a_strided_column_by_its_bits(tmp_path):
    n = 2 * _CSV_BLOCK + 3
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001,
                     -0x0008000000000000, -0x0000000000000001]).view(np.float64)
    # repeats on both sides of both block boundaries, the signed zeros and
    # infinities, and NaNs of both signs and of several payloads
    pattern = np.concatenate([[0.0, -0.0] * 3, nans, [math.inf, -math.inf, 0.1, -0.1]])
    state = np.zeros((n, 3))
    state[:, 1] = np.resize(pattern, n)
    state[_CSV_BLOCK - 2:_CSV_BLOCK + 2, 1] = [0.0, -0.0, -0.0, 0.0]
    column = state[:, 1]        # as _write_snapshot passes vals[:, k]
    assert not column.flags.contiguous
    path = tmp_path / "u.csv"
    cli._write_csv(str(path), ["u"], [column])
    assert path.read_text() == "u\n" + "".join(_fmt(v) + "\n" for v in column)
    cli._write_csv(str(path), ["u"], [np.empty(0)])
    assert path.read_text() == "u\n"


def test_search_small_budget_recommends_a_candidate(tmp_path, capsys):
    out = tmp_path / "s"
    code, stdout, _ = run(capsys, "search", "--scheme", "bs3",
                          "--lambda", "-1", "--t-end", "3",
                          "--problems", "dahlquist",
                          "--tol", "1e-6", "--budget", "8", "--out", str(out))
    assert code == 0
    summary = json.loads(stdout)
    assert summary["n_candidates"] == 8
    assert summary["n_stable"] >= 1
    assert len(summary["recommendation"]["beta"]) == 3
    # recommendation equals the aggregate-minimal stable candidate
    rows = (tmp_path / "s.csv").read_text().splitlines()[1:]
    best_nfe = min(int(r.split(",")[5]) for r in rows if r.endswith("ok"))
    assert summary["recommendation"]["aggregate"] == best_nfe


def _search_nfe(tmp_path, capsys, *flags):
    out = tmp_path / "s"
    code, _, _ = run(capsys, "search", "--scheme", "rk35-3s+fsal",
                     "--problems", "source1d", "--tol", "1e-3", "--budget", "3",
                     "--out", str(out), *flags)
    assert code == 0
    rows = [r.split(",") for r in (tmp_path / "s.csv").read_text().splitlines()[1:]]
    return [int(r[5]) for r in rows if r[-1] == "ok"]


def test_search_problem_flags_override_suite_sizes(tmp_path, capsys):
    short = _search_nfe(tmp_path, capsys, "--t-end", "0.25")
    longer = _search_nfe(tmp_path, capsys, "--t-end", "0.5")
    coarse = _search_nfe(tmp_path, capsys, "--t-end", "0.5", "--elements", "10")
    assert short and len(short) == len(longer) == len(coarse)
    assert all(a < b for a, b in zip(short, longer))
    assert coarse != longer


# embedded weights equal to the main weights: E == 0, every boundary sample
# is degenerate, no candidate can be classified stable
NO_ESTIMATOR_DOC = {
    "name": "NoEstimator", "class": "butcher", "s": 3, "q": 3, "qhat": 2,
    "fsal": False,
    "A": ["0", "0", "0", "1", "0", "0", "0.25", "0.25", "0"],
    "b": ["0.16666666666666666", "0.16666666666666666", "0.6666666666666666"],
    "c": ["0", "1", "0.5"],
    "bhat": ["0.16666666666666666", "0.16666666666666666",
             "0.6666666666666666", "0"],
}


# the one exit-3 report of both commands on NO_ESTIMATOR_DOC
NO_VERDICT = ("no control-stability verdict for NoEstimator; "
              "no boundary sample carried controller information")


def test_search_empty_stable_set_exits_3(tmp_path, capsys):
    coeff = tmp_path / "bad.json"
    coeff.write_text(json.dumps(NO_ESTIMATOR_DOC))
    code, out, err = run(capsys, "search", "--coeff-file", str(coeff),
                         "--problems", "dahlquist", "--lambda", "-1",
                         "--t-end", "2", "--tol", "1e-6", "--budget", "3",
                         "--out", str(tmp_path / "x"))
    assert code == 3
    assert err == f"error: {NO_VERDICT}\n"
    assert out == ""
    assert list(tmp_path.iterdir()) == [coeff]


@pytest.mark.parametrize("flags", [[], ["--grid-map", "21"]])
def test_control_map_without_an_informative_sample_exits_3(tmp_path, capsys, flags):
    coeff = tmp_path / "bad.json"
    coeff.write_text(json.dumps(NO_ESTIMATOR_DOC))
    code, out, err = run(capsys, "stability", "--coeff-file", str(coeff),
                         "--beta", "0.6,-0.2", "--control-map", *flags,
                         "--out", str(tmp_path / "s"))
    assert code == 3
    assert err == f"error: {NO_VERDICT}\n"
    assert out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


def test_scan_and_filter_give_one_verdict(tmp_path):
    coeff = tmp_path / "bad.json"
    coeff.write_text(json.dumps(NO_ESTIMATOR_DOC))
    no_estimator = load_coefficients(str(coeff))
    schemes = [catalog_get(name) for name in catalog_names()]
    space = search.SearchSpace()

    @settings(max_examples=40, deadline=None)
    @given(beta=st.tuples(*(st.sampled_from(axis)
                            for axis in (space.beta1, space.beta2, space.beta3))))
    def check(beta):
        beta = tuple(map(float, beta))
        for scheme in schemes:
            assert (stability.control_stability_scan(scheme, beta).stable
                    == (beta in search.filter_stable(scheme, [beta])[0])), scheme.name
        with pytest.raises(stability.NoVerdictError) as scan:
            stability.control_stability_scan(no_estimator, beta)
        with pytest.raises(stability.NoVerdictError) as verdicts:
            search.filter_stable(no_estimator, [beta])
        assert str(scan.value) == str(verdicts.value) == NO_VERDICT

    check()


# the summary fields of a report: finished runs add errors, aborted ones the reason
REPORT_KEYS = {"scheme", "controller", "t0", "t_end", "t_final", "nfe", "n_accepted",
               "n_rejected", "wall_time", "aborted"}


def test_integrate_json_has_the_report_fields(capsys):
    code, out, _ = run(capsys, "integrate", "--scheme", "bs3", "--problem", "dahlquist",
                       "--tol", "1e-6", "--t-end", "1")
    assert code == 0
    assert set(json.loads(out)) == REPORT_KEYS | {"errors"}
    code, out, _ = run(capsys, "integrate", "--scheme", "rk35-3s+fsal",
                       "--problem", "vortex2d", "--elements", "8",
                       "--degree", "2", "--t-end", "5", "--cfl", "50")
    assert code == 2
    assert set(json.loads(out)) == REPORT_KEYS | {"abort_reason"}


# R(z) = 1 + z^2, whose stability boundary trace stalls at theta = 0
UNTRACEABLE_DOC = {"name": "Untraceable", "class": "butcher", "s": 2, "q": 1,
                   "qhat": 1, "fsal": False, "A": ["0", "0", "1", "0"],
                   "b": ["-1", "1"], "c": ["0", "1"], "bhat": ["1", "0", "0"]}


@pytest.mark.parametrize("flags", [["--control-map"],
                                   ["--control-map", "--grid-map", "21"], []])
def test_stability_on_an_untraceable_boundary_exits_2_and_writes_nothing(tmp_path, capsys,
                                                                          flags):
    coeff = tmp_path / "untraceable.json"
    coeff.write_text(json.dumps(UNTRACEABLE_DOC))
    code, out, err = run(capsys, "stability", "--coeff-file", str(coeff),
                         "--beta", "0.6,-0.2", *flags, "--out", str(tmp_path / "s"))
    assert code == 2
    assert err.startswith("error: the stability boundary could not be traced: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert out == ""
    assert not (tmp_path / "s.rho.csv").exists()
    assert list(tmp_path.iterdir()) == [coeff]


def test_search_on_an_untraceable_boundary_exits_2(tmp_path, capsys):
    coeff = tmp_path / "untraceable.json"
    coeff.write_text(json.dumps(UNTRACEABLE_DOC))
    code, out, err = run(capsys, "search", "--coeff-file", str(coeff),
                         "--problems", "dahlquist", "--tol", "1e-3", "--budget", "4",
                         "--out", str(tmp_path / "x"))
    assert code == 2
    assert err.startswith("error: ") and "could not be traced" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == [coeff]


def test_filter_stable_and_run_search_raise_on_an_untraceable_boundary(tmp_path):
    coeff = tmp_path / "untraceable.json"
    coeff.write_text(json.dumps(UNTRACEABLE_DOC))
    scheme = load_coefficients(str(coeff))
    with pytest.raises(stability.TraceError):
        search.filter_stable(scheme, [(0.6, -0.2, 0.0)])
    with pytest.raises(stability.TraceError):
        search.run_search(scheme, [make_problem("dahlquist")], budget=4,
                          tolerances=(1e-3,))


def test_integrate_numerical_failure_exits_2(capsys):
    # a CFL number far beyond the stability limit drives the Euler state out
    # of the admissible set, which aborts the run
    code, out, _ = run(capsys, "integrate", "--scheme", "rk35-3s+fsal",
                       "--problem", "vortex2d", "--elements", "8",
                       "--degree", "2", "--t-end", "5", "--cfl", "50")
    assert code == 2
    report = json.loads(out)
    assert report["aborted"] is True


def test_history_of_an_aborted_run_lists_its_attempts(tmp_path, capsys):
    # at CFL number 3 the vortex leaves the admissible set after a few steps
    hist = tmp_path / "h.csv"
    code, out, _ = run(capsys, "integrate", "--scheme", "rk35-3s+fsal",
                       "--problem", "vortex2d", "--elements", "8",
                       "--degree", "2", "--t-end", "5", "--cfl", "3",
                       "--history-out", str(hist))
    assert code == 2
    report = json.loads(out)
    assert report["aborted"] is True
    lines = hist.read_text().splitlines()
    assert lines[0] == "t,dt,kind"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == report["n_accepted"] >= 2
    assert all(kind == "accepted" for _, _, kind in rows)
    assert float(rows[0][0]) == 0.0


def test_integrate_solution_snapshot_csv(tmp_path, capsys):
    snap = tmp_path / "final.csv"
    code, _, _ = run(capsys, "integrate", "--scheme", "bs3",
                     "--problem", "source1d", "--tol", "1e-4",
                     "--t-end", "0.5", "--solution-out", str(snap))
    assert code == 0
    rows = np.loadtxt(str(snap), delimiter=",", skiprows=1)
    assert rows.shape[1] == 4   # x plus three conserved variables
    header = snap.read_text().splitlines()[0]
    assert header == "x,u0,u1,u2"


def test_history_csv_lists_attempts_in_order(tmp_path, capsys):
    hist = tmp_path / "h.csv"
    code, out, _ = run(capsys, "integrate", "--scheme", "bs5",
                       "--problem", "advection2d", "--degree", "2",
                       "--elements", "8", "--t-end", "10", "--tol", "1e-5",
                       "--beta", "0.7,-0.4", "--history-out", str(hist))
    assert code == 0
    report = json.loads(out)
    lines = hist.read_text().splitlines()
    assert lines[0] == "t,dt,kind"
    rows = [(float(t), float(dt), kind)
            for t, dt, kind in (line.split(",") for line in lines[1:])]
    kinds = [kind for _, _, kind in rows]
    assert kinds.count("accepted") == report["n_accepted"]
    assert kinds.count("rejected") == report["n_rejected"] >= 1
    assert rows[0][0] == 0.0 and rows[-1][2] == "accepted"
    # an accepted attempt moves t by its dt, a rejected one retries from t
    for (t, dt, kind), (t_next, _, _) in zip(rows, rows[1:]):
        assert t_next == (t + dt if kind == "accepted" else t)
    # the last step is clipped to land on t_end
    assert rows[-1][0] + rows[-1][1] == pytest.approx(report["t_final"], rel=1e-15)


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfgfile = tmp_path / "conf.json"
    cfgfile.write_text(json.dumps({"scheme": "rk35-3s+", "tol": 1e-8,
                                   "problem": "dahlquist", "lam": -1.0,
                                   "t_end": 10.0}))
    code, out, _ = run(capsys, "integrate", "--config", str(cfgfile))
    assert code == 0
    report = json.loads(out)
    assert report["errors"]["u"] <= 1e-6
    assert report["scheme"] == "RK3(2)5 3S*+"

    # flags whose parser default is not None come from the config too
    cfgfile.write_text(json.dumps({"scheme": "bs3", "points": 128, "scaled": True}))
    out_prefix = str(tmp_path / "stab")
    code, out, _ = run(capsys, "stability", "--config", str(cfgfile),
                       "--out", out_prefix)
    assert code == 0
    summary = json.loads(out)
    assert summary["points"] == 128 and summary["scaled_by"] == 3
    assert len((tmp_path / "stab.main.csv").read_text().splitlines()) == 129

    # an explicit flag wins over the config
    code, out, _ = run(capsys, "stability", "--config", str(cfgfile),
                       "--points", "256", "--out", out_prefix)
    assert code == 0
    assert json.loads(out)["points"] == 256


def test_config_keys_name_flags_of_some_command(tmp_path, capsys):
    cfgfile = tmp_path / "conf.json"
    flags = ["integrate", "--scheme", "bs3", "--problem", "dahlquist",
             "--tol", "1e-5", "--t-end", "2"]
    _, expected, _ = run(capsys, *flags, "--lambda", "-3")
    # a flag's key is its name or its dest, and another command's flag
    # ("points", "budget") is ignored, so one file serves several commands
    for doc in ({"lambda": -3}, {"lam": -3}, {"lambda": -3, "points": 64, "budget": 2}):
        cfgfile.write_text(json.dumps(doc))
        code, out, _ = run(capsys, *flags, "--config", str(cfgfile))
        assert code == 0
        assert json.loads(out)["nfe"] == json.loads(expected)["nfe"]
    # a key that names no flag of any command is a typo
    cfgfile.write_text(json.dumps({"scheme": "bs3", "problem": "dahlquist", "tol": 1e-5,
                                   "tolerance_typo": 3}))
    code, _, err = run(capsys, "integrate", "--config", str(cfgfile))
    assert code == 1
    assert err.startswith("error: ") and "'tolerance_typo'" in err


def test_config_values_meet_the_parser_rules_of_given_flags(tmp_path, capsys):
    cfgfile = tmp_path / "conf.json"
    flags = ["integrate", "--scheme", "bs3", "--problem", "vortex2d", "--elements", "2",
             "--t-end", "0.01", "--tol", "1e-3", "--config", str(cfgfile)]
    # a choice the parser refuses on the command line is refused in a file
    cfgfile.write_text(json.dumps({"grid": "hex"}))
    code, out, err = run(capsys, *flags)
    assert code == 1 and out == ""
    assert err.endswith("error: argument --grid: invalid choice: 'hex' "
                        "(choose from 'uniform', 'perturbed')\n")
    # a key is named as the file writes it
    cfgfile.write_text(json.dumps({"t-endd": 1}))
    code, out, err = run(capsys, *flags)
    assert code == 1 and out == ""
    assert err == f"error: --config {cfgfile}: no command has a flag named 't-endd'\n"
    # a required flag may come from the file
    cfgfile.write_text(json.dumps({"problem": "dahlquist", "tols": "1e-3"}))
    code, out, _ = run(capsys, "sweep", "--scheme", "bs3", "--t-end", "1",
                       "--config", str(cfgfile), "--out", str(tmp_path / "s.csv"))
    assert code == 0 and json.loads(out)["rows"] == 1


def test_a_given_tolerance_wins_over_the_config_list(tmp_path, capsys):
    # --tol and --tols are one setting of search, so the given one wins
    cfgfile = tmp_path / "conf.json"
    cfgfile.write_text(json.dumps({"tols": "1e-5,1e-6"}))
    code, _, _ = run(capsys, "search", "--scheme", "bs3", "--problems", "dahlquist",
                     "--t-end", "1", "--budget", "4", "--config", str(cfgfile),
                     "--tol", "1e-3", "--out", str(tmp_path / "s"))
    assert code == 0
    rows = [r.split(",") for r in (tmp_path / "s.csv").read_text().splitlines()[1:]]
    assert {r[4] for r in rows if r[-1] != "unstable"} == {"0.001"}


def test_a_given_flag_drops_the_config_value_it_excludes(tmp_path, capsys):
    # the file's tols would clash with the given --nus; the given flag wins
    cfgfile = tmp_path / "conf.json"
    cfgfile.write_text(json.dumps({"tols": "1e-3"}))
    code, out, err = run(capsys, "sweep", "--scheme", "ssp43", "--problem", "vortex2d",
                         "--elements", "2", "--t-end", "0.1", "--config", str(cfgfile),
                         "--nus", "1", "--out", str(tmp_path / "s.csv"))
    assert code == 0 and err == ""
    assert json.loads(out)["rows"] == 1
    assert (tmp_path / "s.csv").read_text().startswith("nu,nfe,")
    # the file's value alone still runs, and both flags given still clash
    code, out, _ = run(capsys, "sweep", "--scheme", "ssp43", "--problem", "vortex2d",
                       "--elements", "2", "--t-end", "0.1", "--config", str(cfgfile),
                       "--out", str(tmp_path / "s.csv"))
    assert code == 0 and (tmp_path / "s.csv").read_text().startswith("tol,nfe,")
    code, _, err = run(capsys, "sweep", "--scheme", "ssp43", "--problem", "vortex2d",
                       "--tols", "1e-3", "--nus", "1")
    assert code == 1 and err.endswith("argument --nus: not allowed with argument --tols\n")


@pytest.mark.parametrize("given", [["--conf", "run.json"], ["--config=run.json"]])
def test_a_config_prefix_the_command_takes_reads_the_file(tmp_path, monkeypatch, capsys,
                                                          given):
    monkeypatch.chdir(tmp_path)
    flags = ["integrate", "--scheme", "bs3", "--tol", "1e-3", "--t-end", "2"]
    _, expected, _ = run(capsys, *flags, "--problem", "dahlquist", "--lambda", "-3")
    # the required --problem comes from the file only if the file is read
    (tmp_path / "run.json").write_text(json.dumps({"problem": "dahlquist", "lambda": -3}))
    code, out, _ = run(capsys, *flags, *given)
    assert code == 0 and json.loads(out)["nfe"] == json.loads(expected)["nfe"]


def test_an_ambiguous_config_prefix_opens_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[1, 2]")    # refused if it were read
    for path in ("missing.json", "list.json"):
        code, out, err = run(capsys, "integrate", "--scheme", "bs3", "--problem",
                             "dahlquist", "--tol", "1e-3", "--co", path)
        assert code == 1 and out == ""
        assert err.startswith("usage: ")
        assert err.endswith("error: ambiguous option: --co could match "
                            "--coeff-file, --config\n")


def test_config_null_keeps_the_parser_default(tmp_path, capsys):
    cfgfile = tmp_path / "conf.json"
    cfgfile.write_text(json.dumps({"points": None, "scaled": None, "seed": None}))
    code, out, _ = run(capsys, "stability", "--scheme", "bs3", "--config", str(cfgfile),
                       "--out", str(tmp_path / "stab"))
    assert code == 0
    summary = json.loads(out)
    assert summary["points"] == 512 and summary["scaled_by"] == 1.0
    flags = ["search", "--scheme", "bs3", "--problems", "dahlquist", "--tol", "1e-3",
             "--budget", "4"]
    assert run(capsys, *flags, "--config", str(cfgfile), "--out", str(tmp_path / "a"))[0] == 0
    assert run(capsys, *flags, "--out", str(tmp_path / "b"))[0] == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("doc, key", [({"scaled": "yes"}, "scaled"),
                                      ({"scaled": 1}, "scaled"),
                                      ({"control-map": "true"}, "control-map"),
                                      ({"control_map": 0}, "control_map")])
def test_config_switches_take_only_true_or_false(tmp_path, capsys, doc, key):
    cfgfile = tmp_path / "conf.json"
    cfgfile.write_text(json.dumps(dict(doc, beta="0.6,-0.2")))
    code, out, err = run(capsys, "stability", "--scheme", "bs3", "--config", str(cfgfile),
                         "--out", str(tmp_path / "s"))
    assert code == 1
    assert err == f"error: --config {cfgfile}: {key!r} takes true or false, " \
                  f"got {json.dumps(*doc.values())}\n"
    assert out == "" and list(tmp_path.iterdir()) == [cfgfile]
    # true and false set the switch as the flag and its absence do
    for value, scale in ((True, 3), (False, 1)):
        cfgfile.write_text(json.dumps({"scaled": value}))
        code, out, _ = run(capsys, "stability", "--scheme", "bs3", "--config", str(cfgfile),
                           "--out", str(tmp_path / "s"))
        assert code == 0 and json.loads(out)["scaled_by"] == scale


@pytest.mark.parametrize("grid, differ", [("perturbed", True), ("uniform", False)])
def test_seed_selects_the_perturbed_grid(tmp_path, capsys, grid, differ):
    snaps = []
    for seed in ("0", "3"):
        snap = tmp_path / f"seed{seed}.csv"
        code, _, _ = run(capsys, "integrate", "--scheme", "bs3",
                         "--problem", "advection2d", "--grid", grid,
                         "--t-end", "0.1", "--tol", "1e-4", "--seed", seed,
                         "--solution-out", str(snap))
        assert code == 0
        snaps.append(snap.read_bytes())
    assert (snaps[0] != snaps[1]) == differ
    # a scalar field's column is u; a system's are u0, u1, ...
    assert {s.split(b"\n")[0] for s in snaps} == {b"x,y,u"}


def test_a_state_without_nodes_is_written_by_index(tmp_path, capsys):
    snap = tmp_path / "u.csv"
    code, _, _ = run(capsys, "integrate", "--scheme", "bs3", "--problem", "dahlquist",
                     "--tol", "1e-6", "--t-end", "1", "--solution-out", str(snap))
    assert code == 0
    header, row = snap.read_text().splitlines()
    assert header == "index,u"
    index, u = row.split(",")
    assert index == "0" and float(u) == pytest.approx(math.exp(-1), rel=1e-4)


def test_fsal_file_with_zero_fsal_weight_is_a_usage_error(tmp_path, capsys):
    # fsal is declared, but bhat[s] = 1 - sum(bhat) = 0 makes the sweep skip
    # the FSAL evaluation, so the register program has one stage too few
    doc = {"name": "x", "class": "3s*+", "s": 1, "q": 1, "qhat": 1,
           "fsal": True, "gamma1": ["0"], "gamma2": ["1"], "gamma3": ["0"],
           "beta": ["1"], "delta": ["1"], "bhat": ["1"]}
    coeff = tmp_path / "fsal0.json"
    coeff.write_text(json.dumps(doc))
    code, _, err = run(capsys, "stability", "--coeff-file", str(coeff))
    assert code == 1
    assert err.startswith("error: ") and "expected 2 evaluations, saw 1" in err
    assert "Traceback" not in err


_FORWARD_EULER_3SP = {"name": "x", "class": "3s*+", "s": 1, "q": 1, "qhat": 1,
                      "fsal": False, "gamma1": ["0"], "gamma2": ["1"], "gamma3": ["0"],
                      "beta": ["1"], "delta": ["1"], "bhat": ["1"]}

# malformed coefficient files, each with the words of the one check that
# refuses it; a str is the file's text
BAD_COEFF_FILES = {
    "gamma1.json": (dict(_FORWARD_EULER_3SP, gamma1=["1"]), "first stage must reduce"),
    "scalar_a.json": (dict(FORWARD_EULER_DOC, A=5), "field 'A' must be a list"),
    "list.json": ([FORWARD_EULER_DOC], "expected a JSON object, got list"),
    "stages.json": (dict(FORWARD_EULER_DOC, s="two"), "s must be a positive integer"),
    "fsal.json": (dict(FORWARD_EULER_DOC, fsal="false"), "fsal must be true or false"),
    "entries.json": (dict(FORWARD_EULER_DOC, b=["1", "0"]),
                     "field 'b' must have 1 entries, got 2"),
    "text.json": ('{"name": "Euler",', "text.json: line 1: Expecting property name"),
    "class.json": (dict(FORWARD_EULER_DOC, **{"class": "rk"}), "class must be one of"),
    "no_q.json": ({k: v for k, v in FORWARD_EULER_DOC.items() if k != "q"},
                  "missing field 'q'"),
    "gamma3.json": (dict(_FORWARD_EULER_3SP, s=2, gamma1=["0", "0"], gamma2=["1", "1"],
                         gamma3=["0", "0.5"], beta=["1", "1"], delta=["1", "0"],
                         bhat=["1", "0"]), "gamma3[1] must be zero"),
    "bhat.json": (dict(_FORWARD_EULER_3SP, bhat=["0.5", "0.5"]),
                  "bhat[1] must be zero for non-FSAL schemes"),
    # S1 <- delta u + dt f: the step keeps only half of u^n
    "weight.json": (dict(_FORWARD_EULER_3SP, delta=["0.5"]), "u_new has u^n weight 0.5"),
}


def _write_coeff_files(path):
    for name, (doc, _) in BAD_COEFF_FILES.items():
        (path / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))


@pytest.mark.parametrize("name", BAD_COEFF_FILES)
def test_a_bad_coefficient_file_is_refused_by_its_check(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    _write_coeff_files(tmp_path)
    code, out, err = run(capsys, "stability", "--coeff-file", name)
    assert code == 1 and out == "" and list(tmp_path.glob("*.csv")) == []
    assert err.startswith("error: ") and err.count("\n") == 1
    assert BAD_COEFF_FILES[name][1] in err


@pytest.mark.parametrize("argv", [
    ["integrate", "--scheme", "bs3", "--problem", "source1d", "--tol", "1e-5",
     "--degree", "0"],
    ["integrate", "--scheme", "bs3", "--problem", "source1d", "--tol", "-1"],
    ["integrate", "--scheme", "bs3", "--problem", "source1d", "--tol", "1e-5",
     "--t-end", "-1"],
    ["stability", "--scheme", "bs3", "--beta", "a,b", "--control-map"],
    ["stability", "--scheme", "bs3", "--points", "10"],
    ["sweep", "--scheme", "bs3", "--problem", "dahlquist", "--tols", "1e-4,x"],
    ["integrate", "--scheme", "bs3", "--problem", "dahlquist", "--cfl", "1"],
    ["integrate", "--scheme", "bs3", "--config", "missing.json"],
    ["search", "--scheme", "bs3", "--problems", "dahlquist", "--tol", "1e-3",
     "--budget", "1", "--config", "bad_policy.json"],
    ["search", "--scheme", "bs3", "--problems", "dahlquist", "--tol", "0",
     "--budget", "1"],
    # found by the fuzz test below: each hung, raised, or ran on a setting
    # that is not finite or cannot be met in double precision
    ["integrate", "--scheme", "bs3", "--problem", "dahlquist", "--tol", "nan"],
    ["integrate", "--scheme", "bs3", "--problem", "dahlquist", "--tol", "1e-300"],
    ["integrate", "--scheme", "bs3", "--problem", "dahlquist", "--tol", "1e-3",
     "--beta", "nan,0"],
    ["sweep", "--scheme", "bs3", "--problem", "dahlquist", "--tols", "nan"],
    ["integrate", "--scheme", "bs3", "--problem", "source1d", "--tol", "1e-3",
     "--t-end", "inf"],
    ["integrate", "--scheme", "bs3", "--problem", "advection2d", "--tol", "1e-3",
     "--grid", "perturbed", "--elements", "0"],
    ["stability", "--scheme", "bs3", "--out", "missing/stab"],
    ["integrate", "--scheme", "bs3", "--problem", "dahlquist", "--tol", "1e-3",
     "--history-out", "missing/h.csv"],
    ["search", "--scheme", "bs3", "--problems", "dahlquist", "--tol", "1e-300",
     "--budget", "1"],
    ["search", "--scheme", "bs3", "--problems", "dahlquist", "--tol", "1e-3",
     "--budget", "1", "--seed", "-1"],
    ["integrate", "--scheme", "bs3", "--problem", "source1d", "--t-end", "0.1",
     "--cfl", "nan"],
    ["stability", "--scheme", "bs3", "--config", "typed.json"],
    ["stability", "--scheme", "bs3", "--config", "beta.json", "--control-map"],
    # flags no command reads: integrate writes no --out, stability draws nothing
    ["integrate", "--scheme", "bs3", "--problem", "dahlquist", "--tol", "1e-3",
     "--out", "x"],
    ["stability", "--scheme", "bs3", "--seed", "1"],
] + [["stability", "--coeff-file", name] for name in BAD_COEFF_FILES] + [
    # a dense map is drawn only with --control-map; without it, it drew nothing
    ["stability", "--scheme", "bs3", "--grid-map", "50"],
    # a non-finite --beta wrote the boundary CSVs, then raised in the rho batch
    ["stability", "--scheme", "bs3", "--control-map", "--beta", "nan,0", "--out", "s"],
    # an empty list flag is given, not absent: it raised or fell back to the default
    ["sweep", "--scheme", "bs3", "--problem", "dahlquist", "--tols", ""],
    ["search", "--scheme", "bs3", "--problems", "dahlquist", "--tols", "", "--budget", "1"],
    ["search", "--scheme", "bs3", "--problems", "", "--tol", "1e-3", "--budget", "1"],
    ["integrate", "--scheme", "bs3", "--problem", "dahlquist", "--tol", "1e-3",
     "--beta", ""],
    # a config switch takes only true or false
    ["stability", "--scheme", "bs3", "--config", "scaled.json"],
    ["stability", "--scheme", "bs3", "--beta", "0.6,-0.2", "--config", "control_map.json"],
    # refusals of the commands' own checks
    ["integrate", "--scheme", "bs3", "--problem", "dahlquist"],
    ["stability", "--scheme", "bs3", "--grid-map", "-1", "--control-map",
     "--beta", "0.6,-0.2"],
    ["search", "--scheme", "bs3", "--problems", "dahlquist", "--tol", "1e-3",
     "--budget", "0"],
])
def test_invalid_input_is_a_usage_error_without_traceback(tmp_path, monkeypatch,
                                                          capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad_policy.json").write_text(json.dumps({"policy": "bogus"}))
    (tmp_path / "typed.json").write_text(json.dumps({"points": [64]}))
    (tmp_path / "beta.json").write_text(json.dumps({"beta": 0.7}))
    (tmp_path / "scaled.json").write_text(json.dumps({"scaled": "yes"}))
    (tmp_path / "control_map.json").write_text(json.dumps({"control-map": 1}))
    _write_coeff_files(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") or "\nerror: " in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# argv fuzzing over the flag grammar

# each flag's values: (well-formed, malformed); a drawn flag takes a
# malformed value one time in eight, so most runs get past the parser
_NUMBER = (["1e-3"], ["0", "-1", "nan", "inf", "x"])
_PROBLEM_FLAGS = {
    "--problem": (["dahlquist", "source1d", "advection2d", "vortex2d"], ["nope"]),
    "--elements": (["1", "2", "3"], ["0", "-2", "x"]),
    "--degree": (["1", "2"], ["0", "x"]),
    "--grid": (["uniform", "perturbed"], ["hex"]),
    "--lambda": (["-2", "0", "3", "-1e300"], ["nan", "inf", "x"]),
    "--t-end": (["0.05", "0.3"], ["0", "-1", "nan", "inf", "x"]),
}
_COMMON_FLAGS = {
    "--scheme": (["bs3", "rk35-3s+fsal", "ssp43", "bs5"], ["nosuch"]),
    "--coeff-file": (["euler.json"], ["missing.json", "list.json"]),
    "--config": (["good.json"], ["list.json", "typed.json", "typo.json", "missing.json"]),
}
_OUT = {"--out": (["out"], ["missing/out"])}
_SEED = {"--seed": (["0", "3"], ["-1", "x"])}
_BETA = (["0.7,-0.23", "0.6,-0.2,0", "1,-0.4,0.1"],
         ["nan,0", "inf,0", "1,2,3,4", "a,b"])
_TOL_FLAGS = {
    "--tol": (["1e-3", "1e-6", "1e-300", "1e300"], ["0", "-1", "nan", "inf", "x"]),
    "--atol": _NUMBER, "--rtol": _NUMBER, "--beta": _BETA,
    "--sigma": (["1", "0.3"], ["0", "nan", "x"]),
}
_GRAMMAR = {
    "integrate": {**_COMMON_FLAGS, **_SEED, **_PROBLEM_FLAGS, **_TOL_FLAGS,
                  "--cfl": (["0.5", "3"], ["0", "-1", "nan", "inf", "x"]),
                  "--history-out": (["h.csv"], ["missing/h.csv"]),
                  "--solution-out": (["s.csv"], ["missing/s.csv"])},
    "sweep": {**_COMMON_FLAGS, **_OUT, **_SEED, **_PROBLEM_FLAGS, **_TOL_FLAGS,
              "--tols": (["1e-3,1e-5", "1e-4"], ["0", "nan", "inf", "x"]),
              "--nus": (["0.5,1", "2"], ["0", "nan", "inf", "x"])},
    "stability": {**_COMMON_FLAGS, **_OUT, "--scaled": ([None], []),
                  "--control-map": ([None], []),
                  "--points": (["64", "100"], ["10", "-1", "x"]),
                  "--grid-map": (["0", "7"], ["-1", "x"]), "--beta": _BETA},
    "search": {**_COMMON_FLAGS, **_OUT, **_SEED, "--lambda": _PROBLEM_FLAGS["--lambda"],
               "--t-end": _PROBLEM_FLAGS["--t-end"],
               "--tol": _TOL_FLAGS["--tol"],
               "--tols": (["1e-3,1e-5"], ["0", "nan", "inf", "x"]),
               "--policy": (["min-max", "min-p95"], ["bogus"]),
               "--budget": (["1", "2"], ["0", "x"]),
               "--problems": (["dahlquist"], ["dahlquist,nope"])},
}
# flags every example carries: the scheme, and what keeps each run cheap
# (no run integrates to a problem's default horizon or searches the grid)
_ALWAYS = {"--scheme", "--problem", "--t-end", "--tol", "--budget", "--problems"}
_CONFIGS = {"euler.json": FORWARD_EULER_DOC,
            "good.json": {"tol": 1e-4, "t_end": 0.1},
            "list.json": [1, 2],
            "typed.json": {"points": [64], "tol": "small", "budget": "two",
                           "t_end": None, "grid_map": 2.5, "beta": 0.7},
            "typo.json": {"tol": 1e-4, "tolerance_typo": 3}}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    argv = [command]
    for flag, (good, bad) in sorted(_GRAMMAR[command].items()):
        if flag in _ALWAYS or draw(st.integers(0, 2)) == 0:
            values = bad if bad and draw(st.integers(0, 7)) == 0 else good
            value = draw(st.sampled_from(values))
            argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argvs())
def test_fuzzed_argv_exits_with_a_documented_code(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    for name, doc in _CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="no mallopt")
def test_cli_runs_keep_freed_heap_for_the_next_rhs_call():
    # a fresh process: whatever this one imported may have moved the thresholds
    code = textwrap.dedent("""
        import contextlib, io, resource
        from rkadapt import cli
        from rkadapt.problems import make_problem
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["integrate", "--scheme", "bs3", "--problem", "vortex2d",
                      "--t-end", "0.01", "--tol", "1e-3"])
        prob = make_problem("vortex2d")
        prob.semi.rhs(0.0, prob.u0)
        start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            prob.semi.rhs(0.0, prob.u0)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr
    # at glibc's start-up thresholds each call faulted in about 68 pages
    assert int(done.stdout) < 20
