"""Adaptive time integration loop with PID or CFL step size control.

The loop advances an ensemble: m members of one problem from one initial
state, each under its own controller, in lockstep.  A member's run lives in
its RunReport, whose t_final is the end of its last accepted step (t0 before
one), its ControllerState (step size, error history) and its FSAL cache slot,
so each report is bit for bit the report of the member's run alone.  The
member states advance as one stack.  `integrate` is the one-member ensemble.

The loop only schedules: it clips steps, calls `step` (which decides whether
each result is usable), applies each member's verdict (`control.pid_decide`)
and retires members.  The CFL timescale follows `stepping.per_member`.  Each
pass notes which members end and why, and one block retires them, with
u_final the state at t_final.  A run ends at t_end or aborts with one of
"attempt budget exhausted", "CFL control undefined: ...", "solution left the
admissible set under CFL control", "step size underflow" and "step size
underflow after bounds rejection".
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import control as ctrl
from .control import CflConfig, ControllerConfig, ControllerState
from .stepping import per_member, step

DT_UNDERFLOW = 1e-14   # times the horizon; below this the run aborts


@dataclass
class RunReport:
    """Per-integration statistics: #FE, #R, step history, final errors."""

    scheme: str
    controller: str
    t0: float
    t_end: float
    t_final: float = 0.0
    u_final: np.ndarray | None = None
    nfe: int = 0
    n_accepted: int = 0
    n_rejected: int = 0
    wall_time: float = 0.0
    errors: dict | None = None
    history: list = field(default_factory=list)    # (t, dt, accepted) per attempt
    aborted: bool = False
    abort_reason: str | None = None

    def as_dict(self):
        """The fields a JSON summary shows: all but the final state and the
        history, and none whose value is None."""
        d = {f.name: getattr(self, f.name) for f in fields(self)
             if f.name not in ("u_final", "history")}
        return {key: value for key, value in d.items() if value is not None}


class IntegrationAbort(RuntimeError):
    """Unrecoverable integration failure; carries the partial report."""

    def __init__(self, reason, report):
        super().__init__(reason)
        self.report = report


def integrate(scheme, rhs, controller, t0, t_end, u0, dt0=None,
              record_history=False, max_attempts=10_000_000, error_fn=None):
    """Advance u' = rhs(t, u) from t0 to exactly t_end.

    `controller` is either a ControllerConfig (embedded-error PID control
    with rejections) or a CflConfig (wave-speed-proportional steps, no error
    estimate; a non-finite or inadmissible step, or a timescale that is not
    finite and positive, aborts the run).  The final step is clipped to land
    on t_end bitwise.  Raises IntegrationAbort, with the partial report, if
    the run aborts (dt below 1e-14 times the horizon is one reason).
    """
    report, = integrate_ensemble(scheme, rhs, [controller], t0, t_end, u0, dt0=dt0,
                                 record_history=record_history,
                                 max_attempts=max_attempts, error_fn=error_fn)
    if report.aborted:
        raise IntegrationAbort(report.abort_reason, report)
    return report


def integrate_ensemble(scheme, rhs, controllers, t0, t_end, u0, dt0=None,
                       record_history=False, max_attempts=10_000_000, error_fn=None):
    """Run `integrate` once per controller, all runs in one lockstep loop.

    The controllers are all ControllerConfigs or all CflConfigs; dt0 and
    max_attempts apply to every member.  Returns one RunReport per
    controller, each equal to its own run's report except that wall_time is
    the ensemble's.  A member that aborts does not raise: its report is the
    partial report its own run's IntegrationAbort carries, with `aborted`
    set, and the other members run on.  Raises ValueError unless t0 is
    finite, t0 < t_end < inf and dt0 is None or positive; an infinite dt0
    is clipped to the horizon.
    """
    if not (math.isfinite(t0) and t0 < t_end < math.inf):
        raise ValueError("t0 must be finite and t_end must exceed it and be finite")
    if dt0 is not None and not dt0 > 0:
        raise ValueError("dt0 must be positive")
    u0 = np.asarray(u0, dtype=float)
    admissible = getattr(rhs, "is_admissible", None)
    if admissible is not None and not admissible(u0):
        raise ValueError("initial state is not admissible")
    for controller in controllers:
        if not isinstance(controller, (ControllerConfig, CflConfig)):
            raise TypeError(f"unsupported controller {type(controller).__name__}")
    cfl = {isinstance(c, CflConfig) for c in controllers}
    if len(cfl) != 1:
        raise ValueError("an ensemble's controllers must be all PID or all CFL, "
                         "and there must be at least one")
    cfl, = cfl

    start = time.perf_counter()
    name = getattr(scheme, "name", type(scheme).__name__)
    horizon = t_end - t0
    reports, states = [], []
    for controller in controllers:
        report = RunReport(scheme=name, controller=controller.describe(), t0=t0,
                           t_end=t_end, t_final=t0)
        dt = dt0
        if not cfl and dt is None:
            def counted(t, u, report=report):
                report.nfe += 1
                return rhs(t, u)

            dt = ctrl.initial_step(counted, t0, u0, controller, q=scheme.q,
                                   horizon=horizon, admissible=admissible)
        reports.append(report)
        states.append(ControllerState(dt_current=None if cfl else min(dt, horizon)))
    fcache = [None] * len(controllers)

    batched = getattr(rhs, "batched", False)
    live = list(range(len(controllers)))
    u = np.repeat(u0[None], len(live), axis=0)
    attempts, sized = 0, False    # sized: CFL steps set for the next attempt
    while live:
        ends = {}    # position in live -> abort reason, or None at t_end
        if attempts >= max_attempts:
            ends = dict.fromkeys(range(len(live)), "attempt budget exhausted")
        elif cfl and not sized:
            sized = True
            timescales = per_member(rhs.cfl_timescale, batched, u)
            for j, (i, ts) in enumerate(zip(live, timescales)):
                try:
                    states[i].dt_current = ctrl.cfl_step(ts, controllers[i])
                except ctrl._CflUndefined as exc:
                    ends[j] = str(exc)
        if not ends:    # else this pass only retires; the rest step in the next
            attempts, sized = attempts + 1, False
            t = [reports[i].t_final for i in live]
            dt = [states[i].dt_current for i in live]
            clipped = [tj + dtj >= t_end for tj, dtj in zip(t, dt)]
            for j, i in enumerate(live):
                if clipped[j]:
                    dt[j] = states[i].dt_current = t_end - t[j]

            res = step(scheme, rhs, np.array(t), np.array(dt), u,
                       f0=[fcache[i] for i in live], need_estimate=not cfl)
            norms = _error_norms(res, [controllers[i] for i in live])
            accepted = [False] * len(live)
            for j, (i, w) in enumerate(zip(live, norms)):
                report, state = reports[i], states[i]
                report.nfe += int(res.nfe[j])
                ok = w < math.inf
                if cfl and not ok:
                    ends[j] = "solution left the admissible set under CFL control"
                    continue
                accept = accepted[j] = cfl or ctrl.pid_decide(state, w, controllers[i])
                if record_history:
                    report.history.append((t[j], dt[j], accept))
                if accept:
                    report.t_final = t_end if clipped[j] else t[j] + dt[j]
                    fcache[i] = None if res.fsal_f is None else res.fsal_f[j]
                    report.n_accepted += 1
                else:
                    report.n_rejected += 1
                if report.t_final >= t_end:
                    ends[j] = None
                elif state.dt_current < DT_UNDERFLOW * horizon:
                    ends[j] = ("step size underflow" if ok else
                               "step size underflow after bounds rejection")
            if all(accepted):
                u = res.u_new
            elif any(accepted):
                u[accepted] = res.u_new[accepted]
        if ends:    # the one place a run ends, at its row of the stack
            for j, reason in ends.items():
                report = reports[live[j]]
                report.u_final = u[j].copy()
                report.aborted = reason is not None
                report.abort_reason = reason
            keep = [j for j in range(len(live)) if j not in ends]
            live, u = [live[j] for j in keep], u[keep]

    wall_time = max(time.perf_counter() - start, 1e-9)
    for report in reports:
        report.wall_time = wall_time
        if error_fn is not None and not report.aborted:
            report.errors = error_fn(report.t_final, report.u_final)
    return reports


def _error_norms(res, controllers):
    """Each member's error norm as a float: +inf where `step` found its result
    unusable (and set NaN in its u_new), else its weighted RMS error, or 0
    without an estimate."""
    if res.err_diff is None:
        return [0.0 if finite else math.inf for finite in res.finite]
    return ctrl.error_norms(res.u_new, res.u_new - res.err_diff,
                            [c.atol for c in controllers],
                            [c.rtol for c in controllers]).tolist()
