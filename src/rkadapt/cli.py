"""Command-line front end: integrations, sweeps, stability maps, searches.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 empty result.
Array data goes to CSV (no timestamps, byte-stable for fixed inputs); run
summaries including wall time go to JSON on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import dgsem, problems, search, stability
from .butcher import InvariantViolation
from .catalog import (CoefficientParseError, UnknownMethodError, resolve_scheme)
from .control import CflConfig, ControllerConfig
from .integrate import IntegrationAbort, integrate
from .lowstorage import ReconstructionError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_EMPTY = 3

POLICIES = ("min-max", "min-median", "min-p95")


class CliError(Exception):
    def __init__(self, msg, code):
        super().__init__(msg)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message, EXIT_USAGE)


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _floats(text, flag):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise CliError(f"{flag} expects comma-separated numbers, got {text!r}",
                       EXIT_USAGE) from None


def _parse_beta(text):
    parts = _floats(text, "--beta")
    if len(parts) == 2:
        parts.append(0.0)
    if len(parts) != 3:
        raise CliError("--beta expects b1,b2[,b3]", EXIT_USAGE)
    return tuple(parts)


def _problem_overrides(args):
    kw = {}
    if getattr(args, "elements", None) is not None:
        kw["elements"] = args.elements
    if getattr(args, "degree", None) is not None:
        kw["degree"] = args.degree
    if getattr(args, "t_end", None) is not None:
        kw["t_end"] = args.t_end
    if getattr(args, "grid", None) is not None:
        kw["grid"] = args.grid
    if getattr(args, "lam", None) is not None:
        kw["lam"] = args.lam
    if getattr(args, "seed", None) is not None:
        kw["seed"] = args.seed
    return kw


def _usage_errors(make, *a, **kw):
    """make(*a, **kw), reporting its ValueError (a rejected setting) as a
    usage error."""
    try:
        return make(*a, **kw)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from None


# overrides that only some problem factories take
_DGSEM_PROBLEMS = ("advection2d", "vortex2d", "source1d")
_PROBLEM_ONLY = {"lam": ("dahlquist",), "grid": ("advection2d",),
                 "seed": ("advection2d",), "elements": _DGSEM_PROBLEMS,
                 "degree": _DGSEM_PROBLEMS}


def _make_problem(name, args):
    kw = _problem_overrides(args)
    for key, takers in _PROBLEM_ONLY.items():
        if name not in takers:
            kw.pop(key, None)
    problem = _usage_errors(problems.make_problem, name, **kw)
    if not problem.t_end > problem.t0:
        raise CliError(f"--t-end must exceed the start time {problem.t0:g}", EXIT_USAGE)
    return problem


def _build_problem(args):
    if args.problem is None:
        raise CliError("--problem is required", EXIT_USAGE)
    return _make_problem(args.problem, args)


def _resolve(args):
    try:
        return resolve_scheme(args.scheme, getattr(args, "coeff_file", None))
    except (UnknownMethodError, CoefficientParseError, InvariantViolation,
            ReconstructionError, OSError) as exc:
        raise CliError(str(exc), EXIT_USAGE) from None


def _cfl_controller(args, problem, nu):
    if not hasattr(problem.semi, "cfl_timescale"):
        raise CliError(f"CFL control needs a DGSEM problem, not {problem.name}",
                       EXIT_USAGE)
    sigma = args.sigma if args.sigma is not None else problems.cfl_sigma(problem)
    return _usage_errors(CflConfig, nu=nu, sigma=sigma)


def _controller(args, scheme, problem, tol=None):
    tol = tol if tol is not None else args.tol
    if getattr(args, "cfl", None) is not None:
        return _cfl_controller(args, problem, args.cfl)
    atol = args.atol if args.atol is not None else tol
    rtol = args.rtol if args.rtol is not None else tol
    if atol is None or rtol is None:
        raise CliError("give --tol (or --atol/--rtol) or --cfl", EXIT_USAGE)
    beta = _parse_beta(args.beta) if args.beta else (0.60, -0.20, 0.00)
    return _usage_errors(ControllerConfig.for_scheme, scheme, atol=atol, rtol=rtol,
                         beta=beta)


def _run_report(scheme, problem, controller, record_history=False):
    return integrate(scheme, problem.semi, controller, problem.t0, problem.t_end,
                     problem.u0, error_fn=problem.error_fn,
                     record_history=record_history)


def _write_snapshot(path, semi, u):
    """Final-state CSV: node coordinates followed by the state variables."""
    u = np.asarray(u)
    if hasattr(semi, "X"):
        coords = [("x", semi.X.ravel()), ("y", semi.Y.ravel())]
    elif hasattr(semi, "x"):
        coords = [("x", semi.x.ravel())]
    else:
        coords = [("index", np.arange(u.size))]
    nvar = getattr(semi, "nvar", None)
    if nvar:
        vals = u.reshape(-1, nvar)
        names = [f"u{k}" for k in range(nvar)]
    else:
        vals = u.reshape(-1, 1)
        names = ["u"]
    header = [c for c, _ in coords] + names
    cols = [c for _, c in coords] + [vals[:, k] for k in range(vals.shape[1])]
    _write_csv(path, header, zip(*cols))


def cmd_integrate(args):
    scheme = _resolve(args)
    problem = _build_problem(args)
    controller = _controller(args, scheme, problem)
    try:
        report = _run_report(scheme, problem, controller,
                             record_history=args.history_out is not None)
    except IntegrationAbort as exc:
        print(json.dumps(exc.report.as_dict(), sort_keys=True, indent=1))
        return EXIT_NUMERICAL
    if args.history_out:
        rows = [("accepted", dt) for dt in report.accepted_dts]
        rows += [("rejected", dt) for dt in report.rejected_dts]
        _write_csv(args.history_out, ["kind", "dt"], rows)
    if args.solution_out:
        _write_snapshot(args.solution_out, problem.semi, report.u_final)
    print(json.dumps(report.as_dict(), sort_keys=True, indent=1))
    return EXIT_OK


def cmd_sweep(args):
    scheme = _resolve(args)
    problem = _build_problem(args)
    if (args.tols is None) == (args.nus is None):
        raise CliError("give exactly one of --tols or --nus", EXIT_USAGE)
    settings = _floats(args.tols or args.nus, "--tols" if args.tols else "--nus")
    rows = []
    failed_any = False
    for val in settings:
        if args.nus is not None:
            controller = _cfl_controller(args, problem, val)
        else:
            beta = _parse_beta(args.beta) if args.beta else (0.60, -0.20, 0.00)
            controller = _usage_errors(ControllerConfig.for_scheme, scheme, tol=val,
                                       beta=beta)
        try:
            rep = _run_report(scheme, problem, controller)
            err = max(rep.errors.values()) if rep.errors else math.nan
            rows.append((val, rep.nfe, rep.n_rejected, err, "ok"))
        except IntegrationAbort as exc:
            failed_any = True
            rows.append((val, exc.report.nfe, exc.report.n_rejected, math.inf, "failed"))
    header = ["tol" if args.tols else "nu", "nfe", "n_rejected", "error", "status"]
    out = args.out or "sweep.csv"
    _write_csv(out, header, rows)
    print(json.dumps({"rows": len(rows), "out": out,
                      "failed_rows": sum(r[-1] == "failed" for r in rows)},
                     sort_keys=True))
    return EXIT_NUMERICAL if failed_any and all(r[-1] == "failed" for r in rows) else EXIT_OK


def cmd_stability(args):
    scheme = _resolve(args)
    polys = stability.stability_polynomials(scheme)
    scale = polys.s_eff if args.scaled else 1.0
    out = args.out or "stability"
    if args.points < 64:
        raise CliError("--points must be at least 64", EXIT_USAGE)
    if args.grid_map is not None and args.grid_map < 0:
        raise CliError("--grid-map must not be negative", EXIT_USAGE)
    code = EXIT_OK
    try:
        pts = stability._boundary(polys, args.points).points
    except stability.TraceError:
        pts = stability.grid_boundary(polys, n_points=args.points)
        code = EXIT_NUMERICAL
    vals = np.abs(np.polynomial.polynomial.polyval(pts, polys.main))
    _write_csv(out + ".main.csv", ["re", "im", "value"],
               [(z.real / scale, z.imag / scale, v) for z, v in zip(pts, vals)])

    emb_polys = stability.StabilityPolynomials(
        main=polys.embedded, embedded=polys.embedded, diff=polys.diff, s_eff=polys.s_eff)
    try:
        epts = stability._boundary(emb_polys, args.points).points
    except stability.TraceError:
        epts = stability.grid_boundary(emb_polys, n_points=args.points)
        code = EXIT_NUMERICAL
    evals = np.abs(np.polynomial.polynomial.polyval(epts, polys.embedded))
    _write_csv(out + ".embedded.csv", ["re", "im", "value"],
               [(z.real / scale, z.imag / scale, v) for z, v in zip(epts, evals)])

    summary = {"out": out, "scaled_by": scale, "points": int(args.points)}
    if args.control_map:
        if not args.beta:
            raise CliError("--control-map requires --beta", EXIT_USAGE)
        beta = _parse_beta(args.beta)
        report = stability.control_stability_scan(scheme, beta, n_points=args.points)
        _write_csv(out + ".rho.csv", ["re", "im", "value"],
                   [(z.real / scale, z.imag / scale, rho) for z, rho in report.samples])
        summary["max_rho"] = report.max_rho
        summary["stable"] = report.stable
        summary["skipped_samples"] = report.n_skipped
        if args.grid_map:
            Z, rho = stability.control_stability_map(scheme, beta, n_grid=args.grid_map)
            rows = [(z.real / scale, z.imag / scale, v)
                    for z, v in zip(Z.ravel(), rho.ravel()) if np.isfinite(v)]
            _write_csv(out + ".rhomap.csv", ["re", "im", "value"], rows)
    print(json.dumps(summary, sort_keys=True, indent=1))
    return code


def cmd_search(args):
    scheme = _resolve(args)
    if args.problems:
        probs = []
        for name in args.problems.split(","):
            if name == "vortex2d":
                probs.append(problems.make_problem("vortex2d", elements=8,
                                                   degree=2, t_end=4.0))
            elif name == "source1d":
                probs.append(problems.make_problem("source1d"))
            else:
                probs.append(_make_problem(name, args))
    else:
        probs = problems.search_suite()
    tols = (_floats(args.tols, "--tols")
            if args.tols else ([args.tol] if args.tol is not None else None))
    if tols is not None and not all(t > 0 for t in tols):
        raise CliError("tolerances must be positive", EXIT_USAGE)
    if args.budget is not None and args.budget < 1:
        raise CliError("--budget must be at least 1", EXIT_USAGE)
    if args.policy not in POLICIES:     # a config file bypasses the choices
        raise CliError(f"--policy must be one of {', '.join(POLICIES)}", EXIT_USAGE)
    result = search.run_search(scheme, probs, budget=args.budget,
                               tolerances=tols, seed=args.seed)
    try:
        ranked = search.recommend(result, policy=args.policy)
    except search.EmptyStableSetError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return EXIT_EMPTY

    out = args.out or "search"
    rows = []
    for cand in result.candidates:
        if not cand.stable:
            rows.append((cand.beta[0], cand.beta[1], cand.beta[2],
                         "", "", "", "", "", "unstable"))
            continue
        for (pname, tol, nfe, nrej, err, failed) in cand.runs:
            rows.append((cand.beta[0], cand.beta[1], cand.beta[2], pname, tol,
                         nfe, nrej, err, "failed" if failed else "ok"))
    _write_csv(out + ".csv",
               ["beta1", "beta2", "beta3", "problem", "tol", "nfe",
                "n_rejected", "error", "status"], rows)
    best = ranked[0]
    summary = {
        "scheme": result.scheme,
        "policy": args.policy,
        "n_candidates": len(result.candidates),
        "n_stable": len(result.stable_candidates()),
        "n_indeterminate": len(result.indeterminate),
        "recommendation": {
            "beta": list(best.beta),
            "aggregate": best.aggregate(args.policy),
            "aggregates": {p: best.aggregate(p)
                           for p in POLICIES},
        },
        "out": out + ".csv",
    }
    with open(out + ".json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(json.dumps(summary, sort_keys=True, indent=1))
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="rkadapt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def common(p, problem=True):
        p.add_argument("--scheme")
        p.add_argument("--coeff-file")
        p.add_argument("--out")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config")
        if problem:
            p.add_argument("--problem", choices=problems.PROBLEM_NAMES)
            p.add_argument("--t-end", dest="t_end", type=float)
            p.add_argument("--elements", type=int)
            p.add_argument("--degree", type=int)
            p.add_argument("--grid", choices=("uniform", "perturbed"))
            p.add_argument("--lambda", dest="lam", type=float)

    p_int = sub.add_parser("integrate", help="run one adaptive integration")
    common(p_int)
    p_int.add_argument("--tol", type=float)
    p_int.add_argument("--atol", type=float)
    p_int.add_argument("--rtol", type=float)
    p_int.add_argument("--beta")
    p_int.add_argument("--cfl", type=float)
    p_int.add_argument("--sigma", type=float)
    p_int.add_argument("--history-out")
    p_int.add_argument("--solution-out")
    p_int.set_defaults(func=cmd_integrate)

    p_sweep = sub.add_parser("sweep", help="tolerance or CFL-number sweep")
    common(p_sweep)
    p_sweep.add_argument("--tols")
    p_sweep.add_argument("--nus")
    p_sweep.add_argument("--beta")
    p_sweep.add_argument("--sigma", type=float)
    p_sweep.set_defaults(func=cmd_sweep)

    p_stab = sub.add_parser("stability", help="stability-region and control maps")
    common(p_stab, problem=False)
    p_stab.add_argument("--scaled", action="store_true")
    p_stab.add_argument("--points", type=int, default=512)
    p_stab.add_argument("--beta")
    p_stab.add_argument("--control-map", action="store_true")
    p_stab.add_argument("--grid-map", type=int)
    p_stab.set_defaults(func=cmd_stability)

    p_search = sub.add_parser("search", help="controller-parameter grid search")
    common(p_search)
    p_search.add_argument("--problems")
    p_search.add_argument("--tol", type=float)
    p_search.add_argument("--tols")
    p_search.add_argument("--policy", default="min-max",
                          choices=POLICIES)
    p_search.add_argument("--budget", type=int)
    p_search.set_defaults(func=cmd_search)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args, remaining = parser.parse_known_args(argv)
        if getattr(args, "config", None):
            # the config file's values become the subcommand's defaults, so
            # flags given on the command line win
            try:
                with open(args.config) as fh:
                    defaults = json.load(fh)
            except (OSError, ValueError) as exc:
                raise CliError(f"--config {args.config}: {exc}", EXIT_USAGE) from None
            if not isinstance(defaults, dict):
                raise CliError(f"--config {args.config}: expected a JSON object",
                               EXIT_USAGE)
            parser.commands[args.command].set_defaults(
                **{key.replace("-", "_"): value for key, value in defaults.items()})
            args, remaining = parser.parse_known_args(argv)
        if remaining:
            raise CliError(f"unrecognized arguments: {' '.join(remaining)}", EXIT_USAGE)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except IntegrationAbort:
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
