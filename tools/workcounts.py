"""Work counts of every acceptance, dg_sweep and sweep integration, for comparing versions.

    python tools/workcounts.py [--root CHECKOUT] > counts.md
    python tools/workcounts.py --diff OLD.md NEW.md

Imports the package from CHECKOUT/src (default: this checkout) and wraps
`integrate_ensemble`, which `integrate` runs through, in every module that
imported it.  Then it runs CHECKOUT/tests/test_acceptance.py in-process and
every dg_sweep integration that CHECKOUT/perfbench/workloads.py specifies,
through `rkadapt integrate`, and the two `rkadapt sweep` ensembles of SWEEPS.
It prints one table row per integration: problem (with a digest of its grid's
element boundaries, which tells a perturbed grid from a uniform one), scheme,
controller, nfe, accepted and rejected counts, max error (repr, so every bit
shows) and the sha256 of the final state's bytes.  Rows are sorted, so a
version that runs the same integrations in another order (one ensemble
instead of separate runs) prints the same table.  Last come the sha256
digests of what the commands write: one per dg_sweep command over its
--solution-out and --history-out files and one over the JSON report it
prints, with its `wall_time` value blanked, the same two for the first PID
dg_sweep command run again with every flag, output paths included, from a
`--config` file (labelled `via --config`), one over each sweep's CSV and one
over the JSON it prints, then search.csv and search.json of
the benchmark's controller_search command, and the main, embedded, rho and
rhomap CSVs that

    rkadapt stability --scheme NAME --scaled --beta 0.6,-0.2,0 --control-map --grid-map 101

writes for every catalog pair NAME, and the same four CSVs of POINTS_128,
whose 128 samples are solved apart from the 512 of the region box.  Each of
these stability commands also leaves a verdict line, the `stable` value and
the `max_rho` (repr) of the JSON summary it prints.  For every catalog pair,
`contains_region(polys, polys, n_grid=400)` leaves two lines in the digest
format: its verdict as written (`True` or `False`) and the sha256 of the
bytes of its violation array.  Last, the coefficient documents of
EXIT_DOCS, one whose boundary cannot be traced and one with no informative
boundary sample, each go through `stability --control-map`, `search` and
plain `stability` (labelled `plain stability`); each of those commands
leaves its exit status line, the sha256 of what it writes to stderr and the
sha256 of the sorted names of the files it writes, one per line (labelled
`files written`), so a failure that leaves partial output shows.

Run it on two checkouts and compare the outputs: equal output means equal
work and bit-identical results.  The acceptance suite takes about two
minutes.  `--diff` compares two such outputs: it lists the rows whose nfe,
accepted or rejected count or status moved, old against new, counts the rows
that differ only in max error or final state, says which digests changed,
lists the stability commands whose `stable` verdict changed apart from those
whose `max_rho` only moved (with the largest relative move), and lists the
exit status lines (acceptance suite, each dg_sweep command, each sweep
command, the controller_search command, each stability command, each
EXIT_DOCS command) that changed or report a failure, and names every
`via --config` digest that differs from its flag run's in the same table.
It exits 1 when anything differs and 0 when the tables match; a table made
before verdict lines were recorded has none to compare.  Each table ends with
`src lines: N`, the line count of CHECKOUT/src/rkadapt/*.py; `--diff`
prints it as `src lines: OLD -> NEW`, for information only: it does not
count toward the exit status.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import importlib
import io
import json
import math
import os
import re
import sys
import tempfile

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

# the sweep ensembles: SSP3(2)4 under CFL control, whose nu = 4 member leaves
# the admissible set, and PI34 on BS5(4)7 FSAL, which rejects often
SWEEPS = (("--scheme", "ssp43", "--problem", "vortex2d", "--elements", "4",
           "--t-end", "1", "--nus", "0.5,4,1"),
          ("--scheme", "bs5", "--problem", "source1d", "--t-end", "2",
           "--tols", "1e-3,1e-5,1e-7", "--beta", "0.7,-0.4,0"))

# coefficient documents for the failure exits: the order-1 method with
# R(z) = -1 + 2 (1 + z/14)^7, whose boundary trace stalls at R's sixfold
# critical point z = -14 (exit 2), and embedded weights equal to the main
# ones, so E = 0 and no boundary sample carries controller information (exit 3)
_UNTRACEABLE_SUB = [i / (14 * (8 - i)) for i in range(1, 7)]      # A[i][i - 1]
EXIT_DOCS = {
    "untraceable": {"name": "Untraceable", "class": "butcher", "s": 7, "q": 1,
                    "qhat": 1, "fsal": False,
                    "A": [repr(_UNTRACEABLE_SUB[j] if j == i - 1 else 0.0)
                          for i in range(7) for j in range(7)],
                    "b": ["0"] * 6 + ["1"], "c": ["0"] + [repr(x) for x in _UNTRACEABLE_SUB],
                    "bhat": ["1"] + ["0"] * 7},
    "no-estimator": {"name": "NoEstimator", "class": "butcher", "s": 3, "q": 3,
                     "qhat": 2, "fsal": False,
                     "A": ["0", "0", "0", "1", "0", "0", "0.25", "0.25", "0"],
                     "b": ["0.16666666666666666", "0.16666666666666666",
                           "0.6666666666666666"],
                     "c": ["0", "1", "0.5"],
                     "bhat": ["0.16666666666666666", "0.16666666666666666",
                              "0.6666666666666666", "0"]},
}

# stability samples at a count other than the 512 of the region box
POINTS_128 = ("stability", "--scheme", "bs5", "--points", "128", "--beta", "0.6,-0.2,0",
              "--control-map", "--grid-map", "21")

VIA_CONFIG = " via --config"

HEADER = ("| # | run | problem | scheme | controller | nfe | accepted | rejected "
          "| max error | sha256[:16] of `u_final` | status |")


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def _grid_tag(rhs):
    """' grid <digest>' of a semidiscretization's element boundaries, or ''."""
    grid = getattr(rhs, "grid", None)
    if grid is None:
        return ""
    axes = [grid] if hasattr(grid, "boundaries") else [grid.x, grid.y]
    return " grid " + _digest(b"".join(g.boundaries.tobytes() for g in axes))[:8]


class Recorder:
    """Wraps the package's integration entry point and keeps one row per run."""

    def __init__(self):
        self.rows = []
        self.run = None          # label of the rows being recorded; None records nothing

    def install(self):
        original = importlib.import_module("rkadapt.integrate").integrate_ensemble

        def wrapped(scheme, rhs, controllers, t0, t_end, u0, *args, **kwargs):
            out = original(scheme, rhs, controllers, t0, t_end, u0, *args, **kwargs)
            for report in out:
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
        problem += f"{_grid_tag(rhs)} t={report.t0:g}..{report.t_end:g}"
        state = _digest(report.u_final.tobytes()) if report.u_final is not None else "-"
        self.rows.append((self.run, problem, report.scheme, report.controller,
                          str(report.nfe), str(report.n_accepted), str(report.n_rejected),
                          repr(err), state,
                          f"aborted: {report.abort_reason}" if report.aborted else "ok"))


def _file_digest(*paths):
    """sha256 of the bytes of the files that exist, in order, or '-' when none
    does."""
    found = [path for path in paths if os.path.exists(path)]
    if not found:
        return "-"
    sha = hashlib.sha256()
    for path in found:
        with open(path, "rb") as fh:
            sha.update(fh.read())
    return sha.hexdigest()


def _src_lines(root):
    """Lines of ROOT/src/rkadapt/*.py in all, as `wc -l` counts them."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "rkadapt", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def _cli(cli, argv):
    """cli.main(argv) with its output captured: (exit code, stdout text,
    stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


_WALL_TIME = re.compile(r'("wall_time": )[^,\n]*')


def _text_digest(text):
    """sha256 of a command's JSON text with the value of `wall_time`, the one
    field that varies from run to run, blanked."""
    return hashlib.sha256(_WALL_TIME.sub(r"\1-", text).encode()).hexdigest()


def _verdict(text):
    """'stable S max_rho R' from a stability command's JSON summary, or '-'."""
    try:
        summary = json.loads(text)
    except ValueError:
        return "-"
    return f"stable {json.dumps(summary.get('stable'))} max_rho {summary.get('max_rho')!r}"


_STATUS = re.compile(r"(.+): ((?:pytest )?exit -?\d+)")


def _read_table(path):
    """A table's rows, grouped by (run, problem, scheme, controller) in
    order, its 'sha256 NAME: DIGEST' lines as {NAME: DIGEST}, its
    'verdict NAME: stable S max_rho R' lines as {NAME: (S, R)}, its
    'LABEL: [pytest ]exit N' lines as {LABEL: '[pytest ]exit N'} and its
    src line count ('-' when it has none)."""
    rows, digests, verdicts, status, src_lines = {}, {}, {}, {}, "-"
    with open(path) as fh:
        for line in fh:
            if line.startswith("src lines: "):
                src_lines = line[len("src lines: "):].strip()
            elif line.startswith("sha256 "):
                name, digest = line[len("sha256 "):].split(":")
                digests[name] = digest.strip()
            elif line.startswith("verdict "):
                name, value = line[len("verdict "):].rsplit(": ", 1)
                words = value.split()
                verdicts[name] = (words[1], words[3]) if len(words) == 4 else ("-", "-")
            elif line.startswith("| ") and line.split(" | ")[0][2:].isdigit():
                cells = [c.strip() for c in line.strip().strip("|").split(" | ")][1:]
                rows.setdefault(tuple(cells[:4]), []).append(cells[4:])
            elif match := _STATUS.fullmatch(line.strip()):
                status[match[1]] = match[2]
    return rows, digests, verdicts, status, src_lines


def _relative_move(a, b):
    """|b - a| / |a| of two repr'd floats; inf where that is not a number."""
    try:
        a, b = float(a), float(b)
    except ValueError:
        return math.inf
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a else math.inf


def diff(old_path, new_path):
    """Print what moved between two tables of this tool; 1 if anything did."""
    old, old_digests, old_verdicts, old_status, old_src = _read_table(old_path)
    new, new_digests, new_verdicts, new_status, new_src = _read_table(new_path)
    moved, only_old, only_new = [], [], []
    same = rounding = 0
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key, []), new.get(key, [])
        for x, y in zip(a, b):
            # columns: nfe, accepted, rejected, max error, hash, status
            counts_x, counts_y = x[:3] + x[5:], y[:3] + y[5:]
            if counts_x != counts_y:
                moved.append(list(key) + [f"{u} -> {v}" if u != v else u
                                          for u, v in zip(counts_x, counts_y)])
            elif x != y:
                rounding += 1
            else:
                same += 1
        only_old += [list(key) + x for x in a[len(b):]]
        only_new += [list(key) + y for y in b[len(a):]]

    print(f"Rows whose nfe, accepted or rejected count or status moved, old -> new: "
          f"{len(moved)}")
    if moved:
        print()
        print("| run | problem | scheme | controller | nfe | accepted | rejected | status |")
        print("|" + "---|" * 8)
        for row in moved:
            print("| " + " | ".join(row) + " |")
    print()
    print(f"Rows whose only change is the max error or the `u_final` hash: {rounding}")
    print(f"Rows identical in every column: {same}")
    for label, rows in (("only in OLD", only_old), ("only in NEW", only_new)):
        print(f"Rows {label}: {len(rows)}")
        for row in rows:
            print("    " + " | ".join(row))
    for name in sorted(set(old_digests) | set(new_digests)):
        a, b = old_digests.get(name, "-"), new_digests.get(name, "-")
        print(f"{name}: " + ("unchanged" if a == b else f"changed, {a[:16]} -> {b[:16]}"))
    verdicts_moved = False
    if old_verdicts and new_verdicts:
        names = sorted(set(old_verdicts) | set(new_verdicts))
        pairs = [(name, old_verdicts.get(name, ("-", "-")), new_verdicts.get(name, ("-", "-")))
                 for name in names]
        flipped = [(name, a, b) for name, a, b in pairs if a[0] != b[0]]
        moved_rho = [(name, a, b) for name, a, b in pairs if a[1] != b[1]]
        print(f"Stability verdicts changed: {len(flipped)} of {len(names)}")
        for name, a, b in flipped:
            print(f"    {name}: stable {a[0]} -> {b[0]}")
        largest = max((_relative_move(a[1], b[1]) for _, a, b in moved_rho), default=0.0)
        print(f"Stability max_rho moved: {len(moved_rho)} of {len(names)}, "
              f"largest relative move {largest:.3g}")
        verdicts_moved = bool(flipped or moved_rho)
    else:
        missing = [side for side, v in (("OLD", old_verdicts), ("NEW", new_verdicts)) if not v]
        print(f"Stability verdicts: not recorded in {' and '.join(missing)}")
    labels = sorted(set(old_status) | set(new_status))
    changed = [label for label in labels if old_status.get(label) != new_status.get(label)]
    print(f"Exit status lines changed: {len(changed)} of {len(labels)}")
    for label in changed:
        print(f"    {label}: {old_status.get(label, '-')} -> {new_status.get(label, '-')}")
    for label, exit_line in sorted(new_status.items()):
        if label not in changed and exit_line.split()[-1] != "0":
            print(f"    {label}: {exit_line} in both")
    # a run whose flags come from a config file must match its flag run
    config_differs = False
    for side, table in (("OLD", old_digests), ("NEW", new_digests)):
        for name, digest in table.items():
            if VIA_CONFIG in name and table.get(name.replace(VIA_CONFIG, "")) != digest:
                print(f"{side}: {name} differs from the flag run's")
                config_differs = True
    print(f"src lines: {old_src} -> {new_src}")
    return int(bool(moved or rounding or only_old or only_new or changed
                    or old_digests != new_digests or verdicts_moved or config_differs))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    help="checkout whose src/, tests/ and perfbench/ to use")
    ap.add_argument("--diff", nargs=2, metavar=("OLD.md", "NEW.md"),
                    help="compare two outputs of this tool instead of running anything")
    args = ap.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]

    import pytest
    import rkadapt.cli  # noqa: F401  (every module that may hold the entry point)
    import rkadapt.search  # noqa: F401
    cli = sys.modules["rkadapt.cli"]
    catalog = importlib.import_module("rkadapt.catalog")
    workloads = importlib.import_module("workloads")

    rec = Recorder()
    rec.install()
    rec.run = "acceptance"
    with contextlib.redirect_stdout(sys.stderr):
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            os.path.join(root, "tests", "test_acceptance.py")])
    status = [f"acceptance suite: pytest exit {int(code)}"]

    digests, verdicts, pid_command = {}, [], None
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for group, scheme, problem, beta, settings in workloads.DG_GROUPS:
                for value in settings:
                    rec.run = f"dg_sweep {group}@{value:g}"
                    files = [f"dg{len(digests)}.{part}.csv" for part in ("u", "history")]
                    argv = ["integrate", "--scheme", scheme, "--problem", problem,
                            "--t-end", repr(workloads.T_END[problem]),
                            "--solution-out", files[0], "--history-out", files[1]]
                    if beta is None:
                        argv += ["--cfl", repr(value)]
                    else:
                        argv += ["--tol", repr(value),
                                 "--beta", ",".join(repr(b) for b in beta)]
                    code, text, _ = _cli(cli, argv)
                    status.append(f"{rec.run}: exit {code}")
                    digests[f"{rec.run} solution+history.csv"] = _file_digest(*files)
                    digests[f"{rec.run} integrate.json"] = _text_digest(text)
                    if beta is not None and pid_command is None:
                        pid_command = rec.run, argv
            # the first PID command again, each of its flags a config key
            run, argv = pid_command
            rec.run, label = None, run + VIA_CONFIG
            files = ["config.u.csv", "config.history.csv"]
            config = dict(zip((flag[2:] for flag in argv[1::2]), argv[2::2]))
            config.update({"solution-out": files[0], "history-out": files[1]})
            with open("config.json", "w") as fh:
                json.dump(config, fh)
            code, text, _ = _cli(cli, [argv[0], "--config", "config.json"])
            status.append(f"{label}: exit {code}")
            digests[f"{label} solution+history.csv"] = _file_digest(*files)
            digests[f"{label} integrate.json"] = _text_digest(text)
            for i, flags in enumerate(SWEEPS):
                rec.run = "sweep " + " ".join(flags)
                code, text, _ = _cli(cli, ["sweep", *flags, "--out", f"sweep{i}.csv"])
                status.append(f"{rec.run}: exit {code}")
                digests[f"{rec.run} sweep.csv"] = _file_digest(f"sweep{i}.csv")
                digests[f"{rec.run} sweep.json"] = _text_digest(text)

            rec.run = None
            code, _, _ = _cli(cli, ["search", "--scheme", workloads.SEARCH_SCHEME,
                                 "--problems", workloads.SEARCH_PROBLEMS,
                                 "--tol", repr(workloads.SEARCH_TOL),
                                 "--budget", str(workloads.SEARCH_BUDGET),
                                 "--seed", str(workloads.SEARCH_SEED), "--out", "search"])
            digests.update((name, _file_digest(name)) for name in ("search.csv", "search.json"))
            for i, scheme in enumerate(catalog.catalog_names()):
                argv = ["stability", "--scheme", scheme, "--scaled", "--beta", "0.6,-0.2,0",
                        "--control-map", "--grid-map", "101", "--out", f"stab{i}"]
                exit_code, text, _ = _cli(cli, argv)
                status.append(f"stability {scheme}: exit {exit_code}")
                verdicts.append(f"verdict stability {scheme}: {_verdict(text)}")
                for part in ("main", "embedded", "rho", "rhomap"):
                    digests[f"stability {scheme} {part}.csv"] = _file_digest(
                        f"stab{i}.{part}.csv")
            code_128, text, _ = _cli(cli, [*POINTS_128, "--out", "points128"])
            status.append(f"{' '.join(POINTS_128)}: exit {code_128}")
            verdicts.append(f"verdict {' '.join(POINTS_128)}: {_verdict(text)}")
            for part in ("main", "embedded", "rho", "rhomap"):
                digests[f"{' '.join(POINTS_128)} {part}.csv"] = _file_digest(
                    f"points128.{part}.csv")
            stability = importlib.import_module("rkadapt.stability")
            for scheme in catalog.catalog_names():
                polys = stability.stability_polynomials(catalog.catalog_get(scheme))
                ok, violations = stability.contains_region(polys, polys, n_grid=400)
                label = f"contains_region {scheme} n_grid=400"
                digests[f"{label} verdict"] = str(ok)
                digests[f"{label} violations"] = hashlib.sha256(
                    violations.tobytes()).hexdigest()
            for name, doc in EXIT_DOCS.items():
                with open(f"{name}.json", "w") as fh:
                    json.dump(doc, fh)
                for command, argv in (
                        ("stability", ["stability", "--beta", "0.6,-0.2,0", "--control-map"]),
                        ("search", ["search", "--problems", "dahlquist", "--tol", "1e-3",
                                    "--budget", "4"]),
                        ("plain stability", ["stability"])):
                    label = f"{command} --coeff-file {name}.json"
                    outdir = f"exit{len(digests)}"     # each command's own directory
                    os.mkdir(outdir)
                    exit_code, _, err = _cli(cli, [*argv, "--coeff-file", f"{name}.json",
                                                   "--out", f"{outdir}/exit-{name}"])
                    written = "\n".join(sorted(os.listdir(outdir)))
                    status.append(f"{label}: exit {exit_code}")
                    digests[f"{label} stderr"] = hashlib.sha256(err.encode()).hexdigest()
                    digests[f"{label} files written"] = hashlib.sha256(
                        written.encode()).hexdigest()
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
    for line in verdicts:
        print(line)
    for name, digest in digests.items():
        print(f"sha256 {name}: {digest}")
    print(f"src lines: {_src_lines(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
