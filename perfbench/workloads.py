"""The three workloads: what one round runs and how its outputs are checked.

A round is a fixed list of operations.  `run_round` times each operation
and keeps its raw outputs; `check` then checks them against the
references in `oracle` and the stored final states, outside the timed part.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
REF_PATH = os.path.join(HERE, "refs", "dg_refs.npz")

# ---------------------------------------------------------------------------
# dg_sweep: error-based against CFL-based control on DGSEM problems

T_END = {"advection2d": 10.0, "vortex2d": 2.0}
PID_TOLS = (1e-3, 1e-5, 1e-7)
# temporal error bound of an error-controlled run, in units of its tolerance;
# the largest measured ratio is 384 (BS3(2)3 FSAL, vortex2d, tol 1e-7)
PID_ERROR_PER_TOL = 1000.0
ORDER_SLACK = 0.5

# (group, scheme alias, problem, controller beta or None for CFL, settings)
DG_GROUPS = (
    ("advection2d/rk510f/pid", "rk510-3s+fsal", "advection2d", (0.45, -0.13, 0.0), PID_TOLS),
    ("advection2d/rk510f/cfl", "rk510-3s+fsal", "advection2d", None, (2.0, 4.0)),
    ("vortex2d/bs3/pid", "bs3", "vortex2d", (0.70, -0.40, 0.0), PID_TOLS),
    ("vortex2d/ssp43/pid", "ssp43", "vortex2d", (0.28, -0.23, 0.0), PID_TOLS),
    ("vortex2d/rk49f/pid", "rk49-3s+fsal", "vortex2d", (0.38, -0.18, 0.01), PID_TOLS),
    ("vortex2d/ssp43/cfl", "ssp43", "vortex2d", None, (0.5, 1.0)),
)

# ---------------------------------------------------------------------------
# controller_search: criterion 9's search with a small budget

SEARCH_SCHEME = "rk35-3s+fsal"
SEARCH_PROBLEMS = "vortex2d,source1d"
SEARCH_TOL = 1e-5
SEARCH_BUDGET = 16
# The subsample seed is fixed: over search seeds 0..19 a 16-point subsample
# holds 3 to 7 stable candidates, and a fifth of the stable ones limit-cycle
# at twice the cost, so a seed-drawn subsample moves the work of one search
# by more than any bound the benchmark could keep.
SEARCH_SEED = 0

# ---------------------------------------------------------------------------
# stability_maps: boundary traces, control maps, filter and containment

FILTER_CANDIDATES = 60
GRID_MAP = 101
# criterion 6's verdicts, confirmed in exact arithmetic
CONTAINS = {"BS3(2)3 FSAL": True, "RK5(4)10 3S*+ FSAL": True,
            "RK3(2)5 3S*+": False, "RK3(2)5 3S*+ FSAL": False,
            "RK4(3)9 3S*+": False, "RK4(3)9 3S*+ FSAL": False,
            "RK5(4)10 3S*+": False}
BOUNDARY_TOL = 1e-10
# radius within this of 1 is undecided: the step-derived polynomials and the
# tableau-derived ones give log-derivatives that differ by up to ~2e-5 at
# samples where |E| is near its 1e-14 cut-off
RADIUS_MARGIN = 1e-4
RADIUS_RTOL = 1e-4


@dataclass
class Op:
    name: str
    group: str
    seconds: float = 0.0          # timed part of the operation
    nominal: float = 0.0          # the same at the nominal machine speed
    t0: float = 0.0
    error: str | None = None      # exception, non-zero exit or failed check
    check_failed: bool = False
    out: dict = field(default_factory=dict)
    spans: tuple = (0, 0)

    def fail(self, msg, check=True):
        if self.error is None:
            self.error = msg
        self.check_failed = self.check_failed or check


def _mod(name):
    return importlib.import_module(name)


def call_cli(argv):
    """rkadapt.cli.main in-process: (exit code, stdout text)."""
    cli = _mod("rkadapt.cli")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def _grid_points(space):
    return [(float(a), float(b), float(c))
            for a in space.beta1 for b in space.beta2 for c in space.beta3]


class Workload:
    name = ""
    schemes = ()
    problems = ()

    def __init__(self, seed, outdir):
        self.seed = seed
        self.outdir = outdir

    def setup(self):
        """Imports and building of catalog objects and problems."""
        catalog = _mod("rkadapt.catalog")
        problems = _mod("rkadapt.problems")
        _mod("rkadapt.cli")
        for s in self.schemes:
            catalog.catalog_get(s)
        for name, kw in self.problems:
            problems.cfl_sigma(problems.make_problem(name, **kw))

    def prepare(self):
        """Seed-drawn inputs and references; not timed."""

    def ops(self):
        raise NotImplementedError

    def run_op(self, op):
        raise NotImplementedError

    def check(self, ops):
        raise NotImplementedError

    def summary(self, ops):
        """Workload-level figures of one round: counts and timings."""
        return {}


class DgSweep(Workload):
    name = "dg_sweep"
    schemes = tuple(sorted({g[1] for g in DG_GROUPS}))
    problems = (("advection2d", {"t_end": T_END["advection2d"]}),
                ("vortex2d", {"t_end": T_END["vortex2d"]}))

    def prepare(self):
        if not os.path.exists(REF_PATH):
            raise FileNotFoundError(f"missing reference file {REF_PATH}")
        refs = np.load(REF_PATH)
        self.refs = {}
        for prob, t_end in T_END.items():
            if float(refs[prob + "_t_end"]) != t_end:
                raise ValueError(f"reference for {prob} is at another t_end; "
                                 "regenerate it with make_refs.py")
            self.refs[prob] = refs[prob]
        # the seed orders the invocations inside a round
        self.order = np.random.default_rng(self.seed % 2**63).permutation(len(self._ops()))

    def _ops(self):
        out = []
        for group, scheme, prob, beta, settings in DG_GROUPS:
            for val in settings:
                out.append(Op(name=f"{group}@{val:g}", group=group,
                              out={"scheme": scheme, "problem": prob, "beta": beta,
                                   "value": val}))
        return out

    def ops(self):
        base = self._ops()
        return [base[i] for i in self.order]

    def run_op(self, op):
        spec = op.out
        path = os.path.join(self.outdir, "dg_solution.csv")
        argv = ["integrate", "--scheme", spec["scheme"], "--problem", spec["problem"],
                "--t-end", repr(T_END[spec["problem"]]), "--solution-out", path]
        if spec["beta"] is None:
            argv += ["--cfl", repr(spec["value"])]
        else:
            argv += ["--tol", repr(spec["value"]),
                     "--beta", ",".join(repr(b) for b in spec["beta"])]
        t0 = time.perf_counter()
        code, text = call_cli(argv)
        op.seconds = time.perf_counter() - t0
        if code != 0:
            op.fail(f"exit code {code}", check=False)
            return
        spec["report"] = json.loads(text)
        # read the solution now: the next invocation overwrites the file
        spec["state"] = oracle.read_csv(path)

    def check(self, ops):
        catalog = _mod("rkadapt.catalog")
        groups = {}
        for op in ops:
            groups.setdefault(op.group, []).append(op)
        for op in ops:
            if op.error:
                continue
            spec, rep = op.out, op.out["report"]
            if rep["t_final"] != rep["t_end"] or rep["t_end"] != T_END[spec["problem"]]:
                op.fail(f"t_final {rep['t_final']!r} != t_end {rep['t_end']!r}")
                continue
            ref = self.refs[spec["problem"]]
            nvar = ref.shape[-1] if spec["problem"] == "vortex2d" else 1
            vals = spec["state"][:, -nvar:]
            if vals.shape != (ref.size // nvar, nvar) or not np.all(np.isfinite(vals)):
                op.fail("solution is not finite or has the wrong shape")
                continue
            spec["error"] = float(np.max(np.abs(vals - ref.reshape(-1, nvar))))
            if spec["beta"] is not None:
                bound = PID_ERROR_PER_TOL * spec["value"]
                if not spec["error"] <= bound:
                    op.fail(f"error {spec['error']:.3e} above {bound:.3e}")
        for group, members in groups.items():
            if any(op.error for op in members):
                continue
            members = sorted(members, key=lambda op: op.out["value"])
            errs = [op.out["error"] for op in members]
            if members[0].out["beta"] is not None:
                # tolerances ascending: the error must grow with the tolerance
                if not all(a < b for a, b in zip(errs, errs[1:])):
                    for op in members:
                        op.fail(f"errors {errs} do not fall as the tolerance tightens")
            else:
                q = catalog.catalog_get(members[0].out["scheme"]).q
                nu1, nu2 = (op.out["value"] for op in members)
                order = math.log(errs[1] / errs[0]) / math.log(nu2 / nu1)
                for op in members:
                    op.out["order"] = order
                    if not abs(order - q) <= ORDER_SLACK:
                        op.fail(f"observed order {order:.2f}, method order {q}")

    def summary(self, ops):
        ok = [op for op in ops if not op.error]
        return {
            "rhs_evals": sum(op.out["report"]["nfe"] for op in ok),
            "pid_wall_s": sum(op.nominal for op in ops if op.out["beta"] is not None),
            "cfl_wall_s": sum(op.nominal for op in ops if op.out["beta"] is None),
        }


class ControllerSearch(Workload):
    name = "controller_search"
    schemes = (SEARCH_SCHEME,)
    problems = (("vortex2d", {"elements": 8, "degree": 2, "t_end": 4.0}),
                ("source1d", {}))

    def ops(self):
        return [Op(name="search", group="search")]

    def run_op(self, op):
        prefix = os.path.join(self.outdir, "search")
        argv = ["search", "--scheme", SEARCH_SCHEME, "--problems", SEARCH_PROBLEMS,
                "--tol", repr(SEARCH_TOL), "--budget", str(SEARCH_BUDGET),
                "--seed", str(SEARCH_SEED), "--out", prefix]
        t0 = time.perf_counter()
        code, text = call_cli(argv)
        op.seconds = time.perf_counter() - t0
        if code != 0:
            op.fail(f"exit code {code}", check=False)
            return
        op.out["summary"] = json.loads(text)
        with open(prefix + ".csv") as fh:
            op.out["rows"] = [line.rstrip("\n").split(",") for line in fh][1:]

    def check(self, ops):
        catalog = _mod("rkadapt.catalog")
        stability = _mod("rkadapt.stability")
        scheme = catalog.catalog_get(SEARCH_SCHEME)
        for op in ops:
            if op.error:
                continue
            summary, rows = op.out["summary"], op.out["rows"]
            runs = {}
            for row in rows:
                beta = tuple(float(v) for v in row[:3])
                entry = runs.setdefault(beta, [])
                if row[8] != "unstable":
                    entry.append(math.inf if row[8] == "failed" else float(row[5]))
            if len(runs) != SEARCH_BUDGET or summary["n_candidates"] != SEARCH_BUDGET:
                op.fail(f"{len(runs)} candidates in the CSV, budget {SEARCH_BUDGET}")
                continue
            stable = {b: v for b, v in runs.items() if v}
            if len(stable) != summary["n_stable"]:
                op.fail("stable count in the CSV differs from the summary")
            # control stability, independent of the 6x6 eigenvalue route
            z = stability.boundary_samples(scheme)[0]
            R, _, E = oracle.step_polynomials(scheme)
            r, e, keep = oracle.log_derivatives(R, E, z)
            k = min(scheme.q, scheme.qhat) + 1
            betas = sorted(runs)
            verdicts = oracle.stability_verdicts(r[keep], e[keep], betas, k, RADIUS_MARGIN)
            op.out["undecided"] = 0
            for beta, (rho, verdict) in zip(betas, verdicts):
                if verdict == "undecided":
                    op.out["undecided"] += 1
                elif (verdict == "stable") != (beta in stable):
                    op.fail(f"filter verdict for {beta} disagrees with the "
                            f"quartic radius {rho:.12f}")
            rec = summary["recommendation"]
            best = tuple(rec["beta"])
            if best not in stable:
                op.fail(f"recommended {best} is not a stable candidate")
                continue
            rho_best = dict(zip(betas, verdicts))[best]
            if rho_best[1] == "unstable":
                op.fail(f"recommended {best} has quartic radius {rho_best[0]:.12f}")
            aggregate = rec["aggregates"]["min-max"]
            if aggregate != max(stable[best]):
                op.fail(f"min-max aggregate {aggregate} != largest nfe {max(stable[best])}")
            cheaper = [b for b, v in stable.items() if max(v) < aggregate]
            if cheaper:
                op.fail(f"candidates {cheaper} have a smaller min-max aggregate")
            op.out["recommended_max_nfe"] = aggregate
            op.out["rhs_evals"] = int(sum(x for v in stable.values() for x in v
                                          if math.isfinite(x)))

    def summary(self, ops):
        ok = [op for op in ops if not op.error]
        if not ok:
            return {}
        return {"rhs_evals": sum(op.out["rhs_evals"] for op in ok),
                "pid_wall_s": sum(op.nominal for op in ok),
                "recommended_max_nfe": ok[0].out["recommended_max_nfe"]}


class StabilityMaps(Workload):
    name = "stability_maps"

    @property
    def schemes(self):
        return tuple(_mod("rkadapt.catalog").catalog_names())

    def prepare(self):
        search = _mod("rkadapt.search")
        grid = _grid_points(search.SearchSpace())
        rng = np.random.default_rng(self.seed % 2**63)
        pick = rng.choice(len(grid), size=FILTER_CANDIDATES + len(self.schemes),
                          replace=False)
        self.candidates = [grid[i] for i in pick[:FILTER_CANDIDATES]]
        self.map_beta = {s: grid[i] for s, i in zip(self.schemes, pick[FILTER_CANDIDATES:])}

    def ops(self):
        out = []
        for s in self.schemes:
            for kind in ("stability", "filter", "contains"):
                out.append(Op(name=f"{s}/{kind}", group=s, out={"kind": kind}))
        return out

    def run_op(self, op):
        catalog = _mod("rkadapt.catalog")
        search = _mod("rkadapt.search")
        stability = _mod("rkadapt.stability")
        scheme_name, kind = op.group, op.out["kind"]
        prefix = os.path.join(self.outdir, "stab")
        t0 = time.perf_counter()
        if kind == "stability":
            beta = ",".join(repr(b) for b in self.map_beta[scheme_name])
            code, text = call_cli(["stability", "--scheme", scheme_name, "--scaled",
                                   "--beta", beta, "--control-map",
                                   "--grid-map", str(GRID_MAP), "--out", prefix])
            op.seconds = time.perf_counter() - t0
            if code != 0:
                op.fail(f"exit code {code}", check=False)
                return
            op.out["summary"] = json.loads(text)
            for part in ("main", "embedded", "rho", "rhomap"):
                op.out[part] = oracle.read_csv(f"{prefix}.{part}.csv")
        elif kind == "filter":
            scheme = catalog.catalog_get(scheme_name)
            op.out["verdicts"] = search.filter_stable(scheme, self.candidates)
            op.seconds = time.perf_counter() - t0
        else:
            polys = stability.stability_polynomials(catalog.catalog_get(scheme_name))
            op.out["contains"] = stability.contains_region(polys, polys, n_grid=400)[0]
            op.seconds = time.perf_counter() - t0

    def check(self, ops):
        catalog = _mod("rkadapt.catalog")
        by_pair = {}
        for op in ops:
            by_pair.setdefault(op.group, {})[op.out["kind"]] = op
        for name, kinds in by_pair.items():
            scheme = catalog.catalog_get(name)
            R, Rhat, E = oracle.step_polynomials(scheme)
            k = min(scheme.q, scheme.qhat) + 1
            st = kinds["stability"]
            z_main = None
            if not st.error:
                scale = st.out["summary"]["scaled_by"]
                z_main = self._check_maps(st, scheme, scale, R, Rhat, E, k)
            fl = kinds["filter"]
            if not fl.error:
                if z_main is None:
                    fl.fail("no boundary to check the filter against", check=False)
                else:
                    self._check_filter(fl, z_main, R, E, k)
            ct = kinds["contains"]
            if not ct.error and name in CONTAINS and ct.out["contains"] != CONTAINS[name]:
                ct.fail(f"containment verdict {ct.out['contains']}, "
                        f"expected {CONTAINS[name]}")

    def _check_maps(self, op, scheme, scale, R, Rhat, E, k):
        def points(data):
            return (data[:, 0] + 1j * data[:, 1]) * scale

        z = points(op.out["main"])
        Rz, _ = oracle.step_polynomial_values(scheme, z)
        dev = float(np.max(np.abs(np.abs(Rz) - 1.0)))
        if not dev <= BOUNDARY_TOL:
            op.fail(f"boundary point with ||R(z)| - 1| = {dev:.2e}")
        ze = points(op.out["embedded"])
        _, Rhz = oracle.step_polynomial_values(scheme, ze)
        dev = float(np.max(np.abs(np.abs(Rhz) - 1.0)))
        if not dev <= BOUNDARY_TOL:
            op.fail(f"embedded boundary point with ||Rhat(z)| - 1| = {dev:.2e}")
        beta = self.map_beta[op.group]
        pv = np.polynomial.polynomial.polyval
        for part in ("rho", "rhomap"):
            data = op.out[part]
            zp = points(data)
            r, e, _ = oracle.log_derivatives(R, E, zp)
            ok = (np.abs(pv(zp, R)) >= 1e-6) & (np.abs(pv(zp, E)) >= 1e-6)
            rho = oracle.quartic_radius(r[ok], e[ok], beta, k)
            bad = np.abs(data[ok, 2] - rho) > RADIUS_RTOL * np.maximum(1.0, rho)
            if np.any(bad):
                i = int(np.argmax(bad))
                op.fail(f"{part}: radius {data[ok, 2][i]:.12g} against quartic "
                        f"{rho[i]:.12g} at z = {zp[ok][i]:.6g}")
        r, e, keep = oracle.log_derivatives(R, E, z)
        (rho, verdict), = oracle.stability_verdicts(r[keep], e[keep], [beta], k,
                                                   RADIUS_MARGIN)
        if verdict != "undecided" and (verdict == "stable") != op.out["summary"]["stable"]:
            op.fail(f"control map verdict {op.out['summary']['stable']} against "
                    f"quartic radius {rho:.12f}")
        return z

    def _check_filter(self, op, z, R, E, k):
        stable, unstable, indeterminate = op.out["verdicts"]
        if indeterminate or len(stable) + len(unstable) != len(self.candidates):
            op.fail(f"{len(indeterminate)} indeterminate candidates")
            return
        r, e, keep = oracle.log_derivatives(R, E, z)
        verdicts = oracle.stability_verdicts(r[keep], e[keep], self.candidates, k,
                                             RADIUS_MARGIN)
        stable = set(stable)
        op.out["undecided"] = 0
        for beta, (rho, verdict) in zip(self.candidates, verdicts):
            if verdict == "undecided":
                op.out["undecided"] += 1
            elif (verdict == "stable") != (beta in stable):
                op.fail(f"filter verdict for {beta} disagrees with the quartic "
                        f"radius {rho:.12f}")


WORKLOADS = {w.name: w for w in (DgSweep, ControllerSearch, StabilityMaps)}
