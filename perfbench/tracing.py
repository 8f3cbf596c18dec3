"""Span tracing around rkadapt's public entry points, from outside the package.

`Tracer.install()` replaces each traced callable with a wrapper that records
a span (name, start, end, parent, tag) in memory; `uninstall()` restores the
originals, so untraced rounds run the unmodified package.  Per-layer metrics
are derived afterwards from the spans alone: a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# class name -> problem label of the semidiscretizations the problems use
RHS_LABELS = {"AdvectionSemidisc2d": "advection2d",
              "EulerSemidisc2d": "vortex2d",
              "EulerSemidisc1d": "source1d"}

PER_LAYER_UNITS = {
    "dgsem.rhs_us.vortex2d": "us",
    "dgsem.rhs_us.advection2d": "us",
    "dgsem.rhs_us.source1d": "us",
    "dgsem.mdof_per_s.vortex2d": "Mdof/s",
    "dgsem.rhs_s": "s",
    "dgsem.rhs_share": "ratio",
    "dgsem.cfl_timescale_us": "us",
    "dgsem.admissible_us": "us",
    "stepping.attempts": "count",
    "stepping.overhead_s": "s",
    "stepping.overhead_us_per_stage.lowstorage": "us",
    "stepping.overhead_us_per_stage.butcher": "us",
    "stepping.overhead_us_per_stage.ssp": "us",
    "control.error_norm_us": "us",
    "control.pid_us": "us",
    "control.initial_step_ms": "ms",
    "integrate.accepted": "count",
    "integrate.rejected": "count",
    "integrate.accept_ratio": "ratio",
    "integrate.overhead_us_per_attempt": "us",
    "stability.trace_calls": "count",
    "stability.trace_ms": "ms",
    "stability.filter_us_per_candidate": "us",
    "stability.scan_s": "s",
    "stability.map_s": "s",
    "stability.contains_s": "s",
    "search.candidates": "count",
    "search.stable": "count",
    "search.runs": "count",
    "search.aborted_runs": "count",
    "search.runs_per_s": "1/s",
    "search.overhead_s": "s",
    "cli.write_s": "s",
    "trace.overhead_s": "s",
    # workload figures of the untraced rounds of a traced run
    "rhs_evals": "count",
    "rhs_evals_per_s": "1/s",
    "pid_wall_s": "s",
    "cfl_wall_s": "s",
    "recommended_max_nfe": "count",
}


def _family(scheme):
    name = getattr(scheme, "name", "")
    if name.startswith("SSP"):
        return "ssp"
    if type(scheme).__name__ == "ButcherPair":
        return "butcher"
    return "lowstorage"


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent, tag]
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, tag_fn=None, result_fn=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, time.perf_counter(), 0.0, parent,
                    tag_fn(args, kwargs) if tag_fn else None]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if result_fn is not None:
                    span[4] = result_fn(span[4], None, exc)
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if result_fn is not None:
                span[4] = result_fn(span[4], out, None)
            return out

        return wrapper

    def _patch(self, owner, attr, name, tag_fn=None, result_fn=None):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, self._wrap(orig, name, tag_fn, result_fn))

    def install(self):
        dgsem = importlib.import_module("rkadapt.dgsem")
        control = importlib.import_module("rkadapt.control")
        integrate_mod = importlib.import_module("rkadapt.integrate")
        stability = importlib.import_module("rkadapt.stability")
        search = importlib.import_module("rkadapt.search")
        cli = importlib.import_module("rkadapt.cli")

        for cls_name, label in RHS_LABELS.items():
            cls = getattr(dgsem, cls_name)
            rhs = self._wrap(cls.__dict__["rhs"], "dgsem.rhs",
                             lambda a, k, label=label: (label, a[0].n_dof))
            for attr in ("rhs", "__call__"):
                self._patches.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, rhs)
            self._patch(cls, "cfl_timescale", "dgsem.cfl_timescale")
            self._patch(cls, "is_admissible", "dgsem.is_admissible")

        self._patch(integrate_mod, "step", "stepping.step",
                    lambda a, k: _family(a[0]))
        for fn in ("error_norm", "pid_propose", "accept_or_reject",
                   "initial_step", "inverse_error", "cfl_dt"):
            self._patch(control, fn, "control." + fn)

        def run_result(tag, out, exc):
            rep = out if exc is None else getattr(exc, "report", None)
            if rep is None:
                return None
            return (rep.nfe, rep.n_accepted, rep.n_rejected, exc is not None)

        for mod in (cli, search):
            self._patch(mod, "integrate", "integrate.integrate",
                        result_fn=run_result)

        for fn in ("trace_boundary", "boundary_samples", "control_stability_scan",
                   "control_stability_map", "contains_region", "_rho_batch",
                   "stability_polynomials", "grid_boundary"):
            self._patch(stability, fn, "stability." + fn)

        self._patch(search, "filter_stable", "search.filter_stable",
                    lambda a, k: len(a[1]) if hasattr(a[1], "__len__") else None)
        self._patch(search, "run_search", "search.run_search",
                    result_fn=lambda tag, out, exc: None if out is None else (
                        len(out.candidates), len(out.stable_candidates())))
        self._patch(search, "_run_one", "search.run_one",
                    result_fn=lambda tag, out, exc: None if out is None else out[5])
        self._patch(search, "recommend", "search.recommend")
        self._patch(cli, "_write_csv", "cli.write_csv")
        self._patch(cli, "main", "cli.main")

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, tag) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "tag": tag}) + "\n")

    # -- analysis ----------------------------------------------------------

    def nfe_mismatches(self, first, last):
        """Integrations in spans[first:last] whose reported nfe differs from
        the RHS spans under them."""
        counted = defaultdict(int)
        spans = self.spans
        for i in range(first, last):
            if spans[i][0] != "dgsem.rhs":
                continue
            p = spans[i][3]
            while p >= 0 and spans[p][0] != "integrate.integrate":
                p = spans[p][3]
            if p >= 0:
                counted[p] += 1
        bad = []
        for i in range(first, last):
            name, _, _, _, tag = spans[i]
            if name == "integrate.integrate" and tag is not None and tag[0] != counted[i]:
                bad.append((i, tag[0], counted[i]))
        return bad

    def layer_metrics(self, rounds, round_wall):
        """Per-layer metrics over all spans, per round where a total."""
        spans = self.spans
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        rhs_under = [0] * n
        trace_under = [0.0] * n
        for i, s in enumerate(spans):
            p = s[3]
            if p >= 0:
                child[p] += dur[i]
                if s[0] == "dgsem.rhs":
                    rhs_under[p] += 1
        # time of boundary traces below each span (any depth)
        for i, s in enumerate(spans):
            if s[0] == "stability.trace_boundary":
                p = s[3]
                while p >= 0:
                    trace_under[p] += dur[i]
                    p = spans[p][3]
        self_t = [d - c for d, c in zip(dur, child)]

        by = defaultdict(list)
        for i, s in enumerate(spans):
            by[s[0]].append(i)

        def total(name, values=dur):
            return sum(values[i] for i in by.get(name, ()))

        def mean(name, values=dur, scale=1e6):
            idx = by.get(name, ())
            return scale * sum(values[i] for i in idx) / len(idx) if idx else 0.0

        m = {}
        rhs_by_label = defaultdict(list)
        ndof = {}
        for i in by.get("dgsem.rhs", ()):
            label, nd = spans[i][4]
            rhs_by_label[label].append(dur[i])
            ndof[label] = nd
        for label in ("vortex2d", "advection2d", "source1d"):
            v = rhs_by_label.get(label, [])
            m[f"dgsem.rhs_us.{label}"] = 1e6 * sum(v) / len(v) if v else 0.0
        v = rhs_by_label.get("vortex2d", [])
        m["dgsem.mdof_per_s.vortex2d"] = (ndof["vortex2d"] * len(v) / sum(v) / 1e6
                                          if v else 0.0)
        rhs_s = total("dgsem.rhs")
        m["dgsem.rhs_s"] = rhs_s / rounds
        m["dgsem.rhs_share"] = rhs_s / rounds / round_wall if round_wall > 0 else 0.0
        m["dgsem.cfl_timescale_us"] = mean("dgsem.cfl_timescale")
        m["dgsem.admissible_us"] = mean("dgsem.is_admissible")

        steps = by.get("stepping.step", ())
        m["stepping.attempts"] = len(steps) / rounds
        m["stepping.overhead_s"] = sum(self_t[i] for i in steps) / rounds
        for fam in ("lowstorage", "butcher", "ssp"):
            idx = [i for i in steps if spans[i][4] == fam]
            stages = sum(rhs_under[i] for i in idx)
            m[f"stepping.overhead_us_per_stage.{fam}"] = (
                1e6 * sum(self_t[i] for i in idx) / stages if stages else 0.0)

        m["control.error_norm_us"] = mean("control.error_norm")
        m["control.pid_us"] = mean("control.pid_propose")
        m["control.initial_step_ms"] = mean("control.initial_step", self_t, 1e3)

        runs = by.get("integrate.integrate", ())
        acc = sum(spans[i][4][1] for i in runs if spans[i][4])
        rej = sum(spans[i][4][2] for i in runs if spans[i][4])
        m["integrate.accepted"] = acc / rounds
        m["integrate.rejected"] = rej / rounds
        m["integrate.accept_ratio"] = acc / (acc + rej) if acc + rej else 0.0
        m["integrate.overhead_us_per_attempt"] = (
            1e6 * sum(self_t[i] for i in runs) / len(steps) if steps else 0.0)

        traces = by.get("stability.trace_boundary", ())
        m["stability.trace_calls"] = len(traces) / rounds
        m["stability.trace_ms"] = mean("stability.trace_boundary", scale=1e3)
        filters = by.get("search.filter_stable", ())
        n_cand = sum(spans[i][4] or 0 for i in filters)
        m["stability.filter_us_per_candidate"] = (
            1e6 * sum(dur[i] - trace_under[i] for i in filters) / n_cand
            if n_cand else 0.0)
        m["stability.scan_s"] = total("stability.control_stability_scan") / rounds
        m["stability.map_s"] = total("stability.control_stability_map") / rounds
        m["stability.contains_s"] = total("stability.contains_region") / rounds

        searches = by.get("search.run_search", ())
        one = by.get("search.run_one", ())
        m["search.candidates"] = sum(spans[i][4][0] for i in searches if spans[i][4]) / rounds
        m["search.stable"] = sum(spans[i][4][1] for i in searches if spans[i][4]) / rounds
        m["search.runs"] = len(one) / rounds
        m["search.aborted_runs"] = sum(1 for i in one if spans[i][4]) / rounds
        search_s = total("search.run_search")
        m["search.runs_per_s"] = len(one) / search_s if search_s else 0.0
        m["search.overhead_s"] = (total("search.run_search", self_t)
                                  + total("search.run_one", self_t)) / rounds
        m["cli.write_s"] = total("cli.write_csv") / rounds
        return m
