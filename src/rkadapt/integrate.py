"""Adaptive time integration loop with PID or CFL step size control.

The loop advances an ensemble: m members of one problem from one initial
state, each under its own controller, in lockstep.  Every member keeps its
own time, step size, error history, FSAL cache, clipped last step, finite
guard, accept/reject decisions, RHS count and report, so each report is bit
for bit the report of the member's run alone.  The member states advance as
one stack; members that finish or abort leave the stack.  `integrate` is
the one-member ensemble.

The loop only schedules: it clips steps, calls `step` (which decides whether
each result is usable), applies each member's verdict (`control.pid_decide`)
and retires members.  The CFL timescale follows `stepping.per_member`.
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
    on t_end bitwise.  Raises IntegrationAbort if dt underflows below 1e-14
    times the horizon.
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
    members = [_Member(controller, RunReport(scheme=name, controller=controller.describe(),
                                             t0=t0, t_end=t_end), t0)
               for controller in controllers]
    for member in members:
        dt = dt0
        if not cfl and dt is None:
            def counted(t, u, report=member.report):
                report.nfe += 1
                return rhs(t, u)

            dt = ctrl.initial_step(counted, t0, u0, member.controller, q=scheme.q,
                                   horizon=horizon, admissible=admissible)
        member.state = ControllerState(dt_current=None if cfl else min(dt, horizon))

    batched = getattr(rhs, "batched", False)
    live, u = members, np.repeat(u0[None], len(members), axis=0)
    attempts = 0
    while live:
        attempts += 1
        if attempts > max_attempts:
            for j, member in enumerate(live):
                member.leave(u[j], "attempt budget exhausted")
            break
        if cfl:
            timescales = per_member(rhs.cfl_timescale, batched, u)
            for j, (member, ts) in enumerate(zip(live, timescales)):
                try:
                    member.state.dt_current = ctrl.cfl_step(ts, member.controller)
                except ctrl._CflUndefined as exc:
                    member.leave(u[j], str(exc))
            live, u = _remaining(live, u)
            if not live:
                break
        for member in live:
            member.clipped = member.t + member.state.dt_current >= t_end
            if member.clipped:
                member.state.dt_current = t_end - member.t

        res = step(scheme, rhs, np.array([m.t for m in live]),
                   np.array([m.state.dt_current for m in live]), u,
                   f0=[m.fcache for m in live], need_estimate=not cfl)
        norms = _error_norms(res, [m.controller for m in live])

        accepted = [False] * len(live)
        for j, (member, w) in enumerate(zip(live, norms)):
            report = member.report
            report.nfe += int(res.nfe[j])
            ok = w < math.inf
            if cfl and not ok:
                member.leave(u[j], "solution left the admissible set under CFL control")
                continue
            dt = member.state.dt_current
            accept = accepted[j] = cfl or ctrl.pid_decide(member.state, w, member.controller)
            if record_history:
                report.history.append((member.t, dt, accept))
            if accept:
                member.t = t_end if member.clipped else member.t + dt
                member.fcache = None if res.fsal_f is None else res.fsal_f[j]
                report.n_accepted += 1
            else:
                report.n_rejected += 1
            if member.t >= t_end:
                member.leave(res.u_new[j] if accept else u[j])
            elif member.state.dt_current < DT_UNDERFLOW * horizon:
                member.leave(res.u_new[j] if accept else u[j],
                             "step size underflow" if ok else
                             "step size underflow after bounds rejection")
        if all(accepted):
            u = res.u_new
        elif any(accepted):
            u[accepted] = res.u_new[accepted]
        live, u = _remaining(live, u)

    wall_time = max(time.perf_counter() - start, 1e-9)
    for member in members:
        report = member.report
        report.wall_time = wall_time
        if error_fn is not None and not report.aborted:
            report.errors = error_fn(report.t_final, report.u_final)
    return [member.report for member in members]


class _Member:
    """One run of an ensemble: its controller, report and loop state."""

    __slots__ = ("controller", "report", "t", "state", "fcache", "clipped", "done")

    def __init__(self, controller, report, t0):
        self.controller, self.report, self.t = controller, report, t0
        self.state = self.fcache = None
        self.done = False

    def leave(self, u, abort_reason=None):
        """Finish at u, or abort there with the reason."""
        report = self.report
        report.t_final = self.t
        report.u_final = u.copy()
        if abort_reason is not None:
            report.aborted = True
            report.abort_reason = abort_reason
        self.done = True


def _remaining(live, u):
    """The members still running and their rows of the state stack."""
    keep = [j for j, member in enumerate(live) if not member.done]
    if len(keep) == len(live):
        return live, u
    return [live[j] for j in keep], u[keep]


def _error_norms(res, controllers):
    """Each member's error norm as a float: +inf where `step` found its result
    unusable (and set NaN in its u_new), else its weighted RMS error, or 0
    without an estimate."""
    if res.err_diff is None:
        return [0.0 if finite else math.inf for finite in res.finite]
    return ctrl.error_norms(res.u_new, res.u_new - res.err_diff,
                            [c.atol for c in controllers],
                            [c.rtol for c in controllers]).tolist()
