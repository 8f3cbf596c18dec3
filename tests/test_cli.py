import json

import numpy as np
import pytest

from rkadapt.cli import main


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


def test_search_empty_stable_set_exits_3(tmp_path, capsys):
    # embedded weights equal to the main weights: E == 0, every boundary
    # sample is degenerate, no candidate can be classified stable
    doc = {
        "name": "NoEstimator", "class": "butcher", "s": 3, "q": 3, "qhat": 2,
        "fsal": False,
        "A": ["0", "0", "0", "1", "0", "0", "0.25", "0.25", "0"],
        "b": ["0.16666666666666666", "0.16666666666666666", "0.6666666666666666"],
        "c": ["0", "1", "0.5"],
        "bhat": ["0.16666666666666666", "0.16666666666666666",
                 "0.6666666666666666", "0"],
    }
    coeff = tmp_path / "bad.json"
    coeff.write_text(json.dumps(doc))
    code, _, err = run(capsys, "search", "--coeff-file", str(coeff),
                       "--problems", "dahlquist", "--lambda", "-1",
                       "--t-end", "2", "--tol", "1e-6", "--budget", "3",
                       "--out", str(tmp_path / "x"))
    assert code == 3
    assert "control-stable" in err


def test_integrate_numerical_failure_exits_2(capsys):
    # a CFL number far beyond the stability limit drives the Euler state out
    # of the admissible set, which aborts the run
    code, out, _ = run(capsys, "integrate", "--scheme", "rk35-3s+fsal",
                       "--problem", "vortex2d", "--elements", "8",
                       "--degree", "2", "--t-end", "5", "--cfl", "50")
    assert code == 2
    report = json.loads(out)
    assert report["aborted"] is True


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


# malformed coefficient files: a structural invariant, a scalar array field,
# a document that is not an object, a non-integer stage count and a string
# where the FSAL flag belongs
BAD_COEFF_FILES = {
    "gamma1.json": {"name": "x", "class": "3s*+", "s": 1, "q": 1, "qhat": 1,
                    "fsal": False, "gamma1": ["1"], "gamma2": ["1"],
                    "gamma3": ["0"], "beta": ["1"], "delta": ["1"],
                    "bhat": ["1"]},
    "scalar_a.json": dict(FORWARD_EULER_DOC, A=5),
    "list.json": [FORWARD_EULER_DOC],
    "stages.json": dict(FORWARD_EULER_DOC, s="two"),
    "fsal.json": dict(FORWARD_EULER_DOC, fsal="false"),
}


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
] + [["stability", "--coeff-file", name] for name in BAD_COEFF_FILES])
def test_invalid_input_is_a_usage_error_without_traceback(tmp_path, monkeypatch,
                                                          capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad_policy.json").write_text(json.dumps({"policy": "bogus"}))
    for name, doc in BAD_COEFF_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") or "\nerror: " in err
    assert "Traceback" not in err
