"""Work counts of every acceptance and dg_sweep integration, for comparing versions.

    python tools/workcounts.py [--root CHECKOUT] > counts.md

Imports the package from CHECKOUT/src (default: this checkout) and wraps its
integration entry point, `integrate_ensemble` where the version has one and
`integrate` otherwise, in every module that imported it.  Then it runs
CHECKOUT/tests/test_acceptance.py in-process and every dg_sweep integration
that CHECKOUT/perfbench/workloads.py specifies, through `rkadapt integrate`.
It prints one table row per integration: problem, scheme, controller, nfe,
accepted and rejected counts, max error (repr, so every bit shows) and the
sha256 of the final state's bytes.  Rows are sorted, so a version that runs
the same integrations in another order (one ensemble instead of separate
runs) prints the same table.  Last come the sha256 digests of search.csv and
search.json of the benchmark's controller_search command.

Run it on two checkouts and diff the outputs: equal output means equal work
and bit-identical results.  The acceptance suite takes about two minutes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import math
import os
import sys
import tempfile

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

HEADER = ("| # | run | problem | scheme | controller | nfe | accepted | rejected "
          "| max error | sha256[:16] of `u_final` | status |")


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


class Recorder:
    """Wraps the package's integration entry point and keeps one row per run."""

    def __init__(self):
        self.rows = []
        self.run = None          # label of the rows being recorded; None records nothing

    def install(self):
        integrate_mod = importlib.import_module("rkadapt.integrate")
        ensemble = hasattr(integrate_mod, "integrate_ensemble")
        name = "integrate_ensemble" if ensemble else "integrate"
        original = getattr(integrate_mod, name)
        abort = integrate_mod.IntegrationAbort

        def wrapped(scheme, rhs, controllers, t0, t_end, u0, *args, **kwargs):
            try:
                out = original(scheme, rhs, controllers, t0, t_end, u0, *args, **kwargs)
            except abort as exc:
                self.record(rhs, u0, exc.report)
                raise
            for report in (out if ensemble else [out]):
                self.record(rhs, u0, report)
            return out

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("rkadapt"):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def record(self, rhs, u0, report):
        if self.run is None:
            return
        errors = report.errors or {}
        err = max((float(v) for v in errors.values()), default=math.nan)
        problem = f"{type(rhs).__name__}{tuple(getattr(u0, 'shape', ()))}"
        problem += f" t={report.t0:g}..{report.t_end:g}"
        state = _digest(report.u_final.tobytes()) if report.u_final is not None else "-"
        self.rows.append((self.run, problem, report.scheme, report.controller,
                          str(report.nfe), str(report.n_accepted), str(report.n_rejected),
                          repr(err), state,
                          f"aborted: {report.abort_reason}" if report.aborted else "ok"))


def _cli(cli, argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    help="checkout whose src/, tests/ and perfbench/ to use")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]

    import pytest
    import rkadapt.cli  # noqa: F401  (every module that may hold the entry point)
    import rkadapt.search  # noqa: F401
    cli = sys.modules["rkadapt.cli"]
    workloads = importlib.import_module("workloads")

    rec = Recorder()
    rec.install()
    rec.run = "acceptance"
    with contextlib.redirect_stdout(sys.stderr):
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            os.path.join(root, "tests", "test_acceptance.py")])
    status = [f"acceptance suite: pytest exit {int(code)}"]

    for group, scheme, problem, beta, settings in workloads.DG_GROUPS:
        for value in settings:
            rec.run = f"dg_sweep {group}@{value:g}"
            argv = ["integrate", "--scheme", scheme, "--problem", problem,
                    "--t-end", repr(workloads.T_END[problem])]
            if beta is None:
                argv += ["--cfl", repr(value)]
            else:
                argv += ["--tol", repr(value), "--beta", ",".join(repr(b) for b in beta)]
            status.append(f"{rec.run}: exit {_cli(cli, argv)}")

    rec.run = None
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            code = _cli(cli, ["search", "--scheme", workloads.SEARCH_SCHEME,
                              "--problems", workloads.SEARCH_PROBLEMS,
                              "--tol", repr(workloads.SEARCH_TOL),
                              "--budget", str(workloads.SEARCH_BUDGET),
                              "--seed", str(workloads.SEARCH_SEED), "--out", "search"])
            digests = {name: hashlib.sha256(open(name, "rb").read()).hexdigest()
                       for name in ("search.csv", "search.json")}
        finally:
            os.chdir(cwd)

    print(HEADER)
    print("|" + "---|" * 11)
    for i, row in enumerate(sorted(rec.rows), 1):
        print(f"| {i} | " + " | ".join(row) + " |")
    print()
    for line in status:
        print(line)
    print(f"controller_search command: exit {code}")
    for name, digest in digests.items():
        print(f"sha256 {name}: {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
