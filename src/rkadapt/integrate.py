"""Adaptive time integration loop with PID or CFL step size control."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import control as ctrl
from .control import CflConfig, ControllerConfig, ControllerState
from .stepping import step

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
    accepted_dts: list = field(default_factory=list)
    rejected_dts: list = field(default_factory=list)
    aborted: bool = False
    abort_reason: str | None = None

    @property
    def steps(self):
        return self.n_accepted

    def as_dict(self):
        d = {
            "scheme": self.scheme,
            "controller": self.controller,
            "t0": self.t0,
            "t_end": self.t_end,
            "t_final": self.t_final,
            "nfe": self.nfe,
            "n_accepted": self.n_accepted,
            "n_rejected": self.n_rejected,
            "wall_time": self.wall_time,
            "aborted": self.aborted,
        }
        if self.abort_reason:
            d["abort_reason"] = self.abort_reason
        if self.errors is not None:
            d["errors"] = self.errors
        return d


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
    estimate; a non-finite or inadmissible step aborts the run).  The final
    step is clipped to land on t_end bitwise.  Raises IntegrationAbort if dt
    underflows below 1e-14 times the horizon.
    """
    if t_end <= t0:
        raise ValueError("t_end must exceed t0")
    u0 = np.asarray(u0, dtype=float)
    admissible = getattr(rhs, "is_admissible", None)
    if admissible is not None and not admissible(u0):
        raise ValueError("initial state is not admissible")
    cfl = isinstance(controller, CflConfig)
    if not cfl and not isinstance(controller, ControllerConfig):
        raise TypeError(f"unsupported controller {type(controller).__name__}")

    start = time.perf_counter()
    report = RunReport(scheme=getattr(scheme, "name", type(scheme).__name__),
                       controller=controller.describe(), t0=t0, t_end=t_end)
    horizon = t_end - t0
    if not cfl and dt0 is None:
        dt0 = ctrl.initial_step(rhs, t0, u0, controller, q=scheme.q, horizon=horizon,
                                admissible=admissible)
        report.nfe += 2
    state = ControllerState(dt_current=None if cfl else min(dt0, horizon))

    t, u = t0, u0
    fcache = None
    attempts = 0
    while t < t_end:
        attempts += 1
        if attempts > max_attempts:
            _abort(report, "attempt budget exhausted", t, u, start)
        if cfl:
            state.dt_current = ctrl.cfl_dt(rhs, u, controller)
        clipped = t + state.dt_current >= t_end
        dt_try = t_end - t if clipped else state.dt_current
        state.dt_current = dt_try

        res = step(scheme, rhs, t, dt_try, u, f0=fcache, need_estimate=not cfl)
        report.nfe += res.nfe
        ok = res.finite and (admissible is None or admissible(res.u_new))
        if cfl:
            if not ok:
                _abort(report, "solution left the admissible set under CFL control",
                       t, u, start)
            accept = True
        else:
            if ok:
                w = ctrl.error_norm(res.u_new, res.u_new - res.err_diff, controller)
                state.push(ctrl.inverse_error(w))
                dt_next, factor = ctrl.pid_propose(state, controller)
            else:
                # same robustness path for NaN stages and physical-bounds failures
                dt_next, factor = dt_try, 0.0
            decision = ctrl.accept_or_reject(factor, dt_try, dt_next, ok, controller)
            accept = decision.accept
            state.dt_current = decision.dt_next
        if accept:
            t = t_end if clipped else t + dt_try
            u = res.u_new
            fcache = res.fsal_f
            report.n_accepted += 1
            if record_history:
                report.accepted_dts.append(dt_try)
        else:
            report.n_rejected += 1
            if record_history:
                report.rejected_dts.append(dt_try)
        if t < t_end and state.dt_current < DT_UNDERFLOW * horizon:
            _abort(report, "step size underflow" if ok else
                   "step size underflow after bounds rejection", t, u, start)

    _finish(report, t, u, start)
    if error_fn is not None:
        report.errors = error_fn(report.t_final, report.u_final)
    return report


def _finish(report, t, u, start):
    report.t_final = t
    report.u_final = u
    report.wall_time = max(time.perf_counter() - start, 1e-9)
    return report


def _abort(report, reason, t, u, start):
    report.aborted = True
    report.abort_reason = reason
    _finish(report, t, u, start)
    raise IntegrationAbort(reason, report)
