"""Command-line front end: integrations, sweeps, stability maps, searches.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 empty result.
Array data goes to CSV (no timestamps, byte-stable for fixed inputs); run
summaries including wall time go to JSON on stdout.  A CSV number is the
shortest repr that reads back to the same float (`nan`, `inf` and `-inf`
included); every CSV has its header row, even with no rows under it; and
`stability --grid-map` writes a rhomap row only where rho is finite.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import math
import sys

import numpy as np

from . import problems, search, stability
from .butcher import InvariantViolation
from .catalog import (CoefficientParseError, UnknownMethodError, catalog_get,
                      load_coefficients)
from .control import CflConfig, ControllerConfig
from .integrate import IntegrationAbort, integrate, integrate_ensemble
from .lowstorage import ReconstructionError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_EMPTY = 3

# rows a CSV writer formats and writes at a time, so a large map never holds
# its whole text at once
_CSV_BLOCK = 1024


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


def _open_out(path):
    try:
        return open(path, "w")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}", EXIT_USAGE) from None


def _fields(col):
    """A column's CSV fields, the bytes _fmt writes for each.  A float64
    array's values are keyed by their bits, which keep 0.0 and -0.0 apart,
    and each distinct one is formatted once."""
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        bits, inv = np.unique(col.view(np.int64), return_inverse=True)
        text = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
        return text[inv].tolist()
    return map(_fmt, col)


def _write_csv(path, header, columns):
    """CSV of equal-length columns (arrays or sequences), _CSV_BLOCK rows at a
    time, so each distinct value is formatted once per block; just the header
    when the columns hold no rows."""
    n = len(columns[0]) if columns else 0
    with _open_out(path) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, _CSV_BLOCK):
            block = [_fields(col[start:start + _CSV_BLOCK]) for col in columns]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")


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
    if not all(map(math.isfinite, parts)):
        raise CliError(f"--beta must be finite, got {text!r}", EXIT_USAGE)
    return tuple(parts)


def _usage_errors(make, *a, **kw):
    """make(*a, **kw), reporting its ValueError (a rejected setting) as a
    usage error."""
    try:
        return make(*a, **kw)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from None


def _make_problem(name, args, **defaults):
    """make_problem(name) with the defaults, and with every setting of the
    problem's factory that a flag of the same name gives."""
    kw = dict(defaults)
    kw.update((setting, getattr(args, setting)) for setting in problems.parameters(name)
              if getattr(args, setting, None) is not None)
    problem = _usage_errors(problems.make_problem, name, **kw)
    if not problem.t0 < problem.t_end < math.inf:
        raise CliError(f"--t-end must be finite and exceed the start time {problem.t0:g}",
                       EXIT_USAGE)
    return problem


def _resolve(args):
    """The scheme of --coeff-file if given, else the catalog's --scheme."""
    try:
        if args.coeff_file is not None:
            return load_coefficients(args.coeff_file)
        if args.scheme is None:
            raise CliError("give --scheme or --coeff-file", EXIT_USAGE)
        return catalog_get(args.scheme)
    except (UnknownMethodError, CoefficientParseError, InvariantViolation,
            ReconstructionError, OSError) as exc:
        raise CliError(str(exc), EXIT_USAGE) from None


def _cfl_controller(args, problem, nu):
    if not hasattr(problem.semi, "cfl_timescale"):
        raise CliError(f"CFL control needs a DGSEM problem, not {problem.name}",
                       EXIT_USAGE)
    sigma = args.sigma if args.sigma is not None else problems.cfl_sigma(problem)
    return _usage_errors(CflConfig, nu=nu, sigma=sigma)


def _pid_controller(args, scheme, atol, rtol):
    """PID control with --beta if given, else the scheme's default."""
    beta = {"beta": _parse_beta(args.beta)} if args.beta is not None else {}
    return _usage_errors(ControllerConfig.for_scheme, scheme, atol=atol, rtol=rtol,
                         **beta)


def _controller(args, scheme, problem):
    if args.cfl is not None:
        return _cfl_controller(args, problem, args.cfl)
    atol = args.atol if args.atol is not None else args.tol
    rtol = args.rtol if args.rtol is not None else args.tol
    if atol is None or rtol is None:
        raise CliError("give --tol (or --atol/--rtol) or --cfl", EXIT_USAGE)
    return _pid_controller(args, scheme, atol, rtol)


def _write_snapshot(path, semi, u):
    """Final-state CSV: node coordinates followed by the state variables."""
    u = np.asarray(u)
    if hasattr(semi, "X"):
        coords = [("x", semi.X.ravel()), ("y", semi.Y.ravel())]
    elif hasattr(semi, "x"):
        coords = [("x", semi.x.ravel())]
    else:
        coords = [("index", np.arange(u.size))]
    nvar = getattr(semi, "nvar", None)      # None for a scalar field
    vals = u.reshape(-1, nvar or 1)
    names = [f"u{k}" for k in range(nvar)] if nvar else ["u"]
    header = [c for c, _ in coords] + names
    cols = [c for _, c in coords] + [vals[:, k] for k in range(vals.shape[1])]
    _write_csv(path, header, cols)


def cmd_integrate(args):
    scheme = _resolve(args)
    problem = _make_problem(args.problem, args)
    controller = _controller(args, scheme, problem)
    try:
        report = integrate(scheme, problem.semi, controller, problem.t0, problem.t_end,
                           problem.u0, error_fn=problem.error_fn,
                           record_history=args.history_out is not None)
    except IntegrationAbort as exc:
        report = exc.report
    if args.history_out:
        rows = [(t, dt, "accepted" if accepted else "rejected")
                for t, dt, accepted in report.history]
        _write_csv(args.history_out, ["t", "dt", "kind"], list(zip(*rows)))
    if args.solution_out and not report.aborted:
        _write_snapshot(args.solution_out, problem.semi, report.u_final)
    print(json.dumps(report.as_dict(), sort_keys=True, indent=1))
    return EXIT_NUMERICAL if report.aborted else EXIT_OK


def cmd_sweep(args):
    scheme = _resolve(args)
    problem = _make_problem(args.problem, args)
    flag, text = ("--tols", args.tols) if args.tols is not None else ("--nus", args.nus)
    settings = _floats(text, flag)
    if args.nus is not None:
        controllers = [_cfl_controller(args, problem, val) for val in settings]
    else:
        controllers = [_pid_controller(args, scheme, val, val) for val in settings]
    # one ensemble, each setting's row as its own run gives it
    reports = integrate_ensemble(scheme, problem.semi, controllers, problem.t0,
                                 problem.t_end, problem.u0, error_fn=problem.error_fn)
    rows = []
    for val, rep in zip(settings, reports):
        if rep.aborted:
            rows.append((val, rep.nfe, rep.n_rejected, math.inf, "failed"))
        else:
            err = max(rep.errors.values()) if rep.errors else math.nan
            rows.append((val, rep.nfe, rep.n_rejected, err, "ok"))
    header = ["tol" if flag == "--tols" else "nu", "nfe", "n_rejected", "error", "status"]
    out = args.out or "sweep.csv"
    _write_csv(out, header, list(zip(*rows)))
    print(json.dumps({"rows": len(rows), "out": out,
                      "failed_rows": sum(r[-1] == "failed" for r in rows)},
                     sort_keys=True))
    return EXIT_NUMERICAL if all(r[-1] == "failed" for r in rows) else EXIT_OK


def cmd_stability(args):
    scheme = _resolve(args)
    polys = stability.stability_polynomials(scheme)
    scale = polys.s_eff if args.scaled else 1.0
    out = args.out or "stability"
    # every setting is checked before the first trace or file
    if args.points < 64:
        raise CliError("--points must be at least 64", EXIT_USAGE)
    if args.grid_map is not None and args.grid_map < 0:
        raise CliError("--grid-map must not be negative", EXIT_USAGE)
    if args.grid_map and not args.control_map:
        raise CliError("--grid-map needs --control-map", EXIT_USAGE)
    if args.control_map and args.beta is None:
        raise CliError("--control-map requires --beta", EXIT_USAGE)
    beta = _parse_beta(args.beta) if args.beta is not None else None
    # every trace, scan and map is computed before the first file is written,
    # so a failure leaves no partial output; the embedded boundary is traced
    # as the main boundary of its polynomial
    csvs = {}
    for part, main in (("main", polys.main), ("embedded", polys.embedded)):
        pts = stability._boundary(dataclasses.replace(polys, main=main), args.points).points
        csvs[part] = [pts.real / scale, pts.imag / scale,
                      np.abs(np.polynomial.polynomial.polyval(pts, main))]
    summary = {"out": out, "scaled_by": scale, "points": int(args.points)}
    if args.control_map:
        report = stability.control_stability_scan(scheme, beta, n_points=args.points)
        zs = np.array([z for z, _ in report.samples], dtype=complex)
        rhos = np.array([rho for _, rho in report.samples], dtype=float)
        csvs["rho"] = [zs.real / scale, zs.imag / scale, rhos]
        summary["max_rho"] = report.max_rho
        summary["stable"] = report.stable
        summary["skipped_samples"] = report.n_skipped
        if args.grid_map:
            Z, rho = stability.control_stability_map(scheme, beta, n_grid=args.grid_map)
            finite = np.isfinite(rho)
            Z, rho = Z[finite], rho[finite]
            # real and imaginary parts divided apart, as complex Z / scale rounds
            # differently
            csvs["rhomap"] = [Z.real / scale, Z.imag / scale, rho]
    for part, columns in csvs.items():
        _write_csv(f"{out}.{part}.csv", ["re", "im", "value"], columns)
    print(json.dumps(summary, sort_keys=True, indent=1))
    return EXIT_OK


def cmd_search(args):
    scheme = _resolve(args)
    names = problems.SEARCH_DEFAULTS if args.problems is None else args.problems.split(",")
    probs = [_make_problem(name, args, **problems.SEARCH_DEFAULTS.get(name, {}))
             for name in names]
    tols = search.DEFAULT_TOLERANCES if args.tols is None else _floats(args.tols, "--tols")
    for tol in tols:        # the controller's own checks, before any run
        _usage_errors(ControllerConfig.for_scheme, scheme, tol=tol)
    if args.budget is not None and args.budget < 1:
        raise CliError("--budget must be at least 1", EXIT_USAGE)
    if args.seed < 0:
        raise CliError("--seed must not be negative", EXIT_USAGE)
    result = search.run_search(scheme, probs, budget=args.budget,
                               tolerances=tols, seed=args.seed)
    ranked = search.recommend(result, policy=args.policy)

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
                "n_rejected", "error", "status"], list(zip(*rows)))
    best = ranked[0]
    summary = {
        "scheme": result.scheme,
        "policy": args.policy,
        "n_candidates": len(result.candidates),
        "n_stable": len(result.stable_candidates()),
        "recommendation": {
            "beta": list(best.beta),
            "aggregate": best.aggregate(args.policy),
            "aggregates": {p: best.aggregate(p) for p in search.POLICIES},
        },
        "out": out + ".csv",
    }
    with _open_out(out + ".json") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(json.dumps(summary, sort_keys=True, indent=1))
    return EXIT_OK


COMMANDS = {"integrate": cmd_integrate, "sweep": cmd_sweep,
            "stability": cmd_stability, "search": cmd_search}


def build_parser():
    parser = _Parser(prog="rkadapt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def common(p, problem=True, out=True):
        p.add_argument("--scheme")
        p.add_argument("--coeff-file")
        p.add_argument("--config")
        if out:
            p.add_argument("--out")
        if problem:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--t-end", dest="t_end", type=float)
            p.add_argument("--elements", type=int)
            p.add_argument("--degree", type=int)
            p.add_argument("--grid", choices=("uniform", "perturbed"))
            p.add_argument("--lambda", dest="lam", type=float)

    p_int = sub.add_parser("integrate", help="run one adaptive integration")
    common(p_int, out=False)
    p_int.add_argument("--problem", choices=problems.PROBLEM_NAMES, required=True)
    p_int.add_argument("--tol", type=float)
    p_int.add_argument("--atol", type=float)
    p_int.add_argument("--rtol", type=float)
    p_int.add_argument("--beta")
    p_int.add_argument("--cfl", type=float)
    p_int.add_argument("--sigma", type=float)
    p_int.add_argument("--history-out")
    p_int.add_argument("--solution-out")

    p_sweep = sub.add_parser("sweep", help="tolerance or CFL-number sweep")
    common(p_sweep)
    p_sweep.add_argument("--problem", choices=problems.PROBLEM_NAMES, required=True)
    settings = p_sweep.add_mutually_exclusive_group(required=True)
    settings.add_argument("--tols")
    settings.add_argument("--nus")
    p_sweep.add_argument("--beta")
    p_sweep.add_argument("--sigma", type=float)

    p_stab = sub.add_parser("stability", help="stability-region and control maps")
    common(p_stab, problem=False)
    p_stab.add_argument("--scaled", action="store_true")
    p_stab.add_argument("--points", type=int, default=512)
    p_stab.add_argument("--beta")
    p_stab.add_argument("--control-map", action="store_true")
    p_stab.add_argument("--grid-map", type=int)

    p_search = sub.add_parser("search", help="controller-parameter grid search")
    common(p_search)
    p_search.add_argument("--problems")
    p_search.add_argument("--tols", "--tol", dest="tols")
    p_search.add_argument("--policy", default="min-max", choices=search.POLICIES)
    p_search.add_argument("--budget", type=int)
    return parser


def _keep_freed_heap():
    """Have glibc keep freed memory for reuse instead of returning it.

    A right-hand side frees several state-sized temporaries per call, 115 kB
    each on the 20x20 p=2 vortex.  At glibc's start-up thresholds the heap
    top is given back once 128 KiB of it is free and larger blocks are
    mapped afresh, so every call faults its temporaries' pages in again:
    124 page faults per vortex2d call, which then takes about 1.5x as long.
    Does nothing where the C library has no `mallopt`.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, at the largest values that
    # glibc's own adaptive thresholds reach
    mallopt(-1, 64 << 20)
    mallopt(-3, 32 << 20)


class _PreParser(argparse.ArgumentParser):
    """Raises each error, for the command's own parser to report."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _config_tokens(parser, argv):
    """The --config file of argv's command as flags for that command:
    `--flag=value` for a flag that takes a value, the bare flag for a switch
    set true, nothing for false or null.  argv's own flags follow them and
    so win, and the parser checks each value as it does a given one."""
    if not argv or argv[0] not in parser.commands:
        return []       # the parser reports a missing or unknown command
    # the command's option strings, so that a prefix names --config exactly
    # when the command's parser takes it for --config
    command = parser.commands[argv[0]]
    pre = _PreParser(add_help=False)
    for a in command._actions:
        pre.add_argument(*a.option_strings, dest=a.dest,
                         **({"action": "store_true"} if a.nargs == 0 else {}))
    try:
        given = pre.parse_known_args(argv[1:])[0]
        path = given.config
        if path is None:
            return []
        with open(path) as fh:
            doc = json.load(fh)
    except argparse.ArgumentError:
        return []       # and a malformed or ambiguous --config
    except (OSError, ValueError) as exc:
        raise CliError(f"--config {path}: {exc}", EXIT_USAGE) from None
    if not isinstance(doc, dict):
        raise CliError(f"--config {path}: expected a JSON object", EXIT_USAGE)
    # each command's {config key: action}: a flag's name without the dashes
    # and its dest, "_" for "-" (t_end for --t-end; lambda and lam)
    flags = {cmd: {name.lstrip("-").replace("-", "_"): a for a in p._actions
                   if a.dest != "help" for name in (*a.option_strings, a.dest)}
             for cmd, p in parser.commands.items()}
    # a key that names no flag of any command is a typo; one that names
    # another command's flag is ignored, so one file serves several
    unknown = [key for key in doc
               if not any(key.replace("-", "_") in f for f in flags.values())]
    if unknown:
        raise CliError(f"--config {path}: no command has a flag named "
                       f"{', '.join(map(repr, unknown))}", EXIT_USAGE)
    # a given flag also overrides the file's value of a flag it excludes
    excluded = {a for group in command._mutually_exclusive_groups
                if any(getattr(given, g.dest) not in (None, False)
                       for g in group._group_actions)
                for a in group._group_actions}
    tokens = []
    for key, value in doc.items():
        action = flags[argv[0]].get(key.replace("-", "_"))
        if action is None or value is None or action in excluded:
            continue
        if action.nargs != 0:
            tokens.append(f"{action.option_strings[0]}={value}")
        elif not isinstance(value, bool):
            raise CliError(f"--config {path}: {key!r} takes true or false, "
                           f"got {json.dumps(value)}", EXIT_USAGE)
        elif value:
            tokens.append(action.option_strings[0])
    return tokens


def main(argv=None):
    _keep_freed_heap()
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv[:1] + _config_tokens(parser, argv) + argv[1:])
        return COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except stability.TraceError as exc:
        print(f"error: the stability boundary could not be traced: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except stability.EmptyResultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY


if __name__ == "__main__":
    sys.exit(main())
