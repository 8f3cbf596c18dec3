"""Single Runge-Kutta steps: dense Butcher form and low-storage sweeps.

Both forms share the FSAL contract: the error estimator of an FSAL pair ends
with an evaluation f(t+dt, u_new) that doubles as the first stage of the next
step, so a step following an accepted step consumes s evaluations and only
the very first step costs s+1.  The caller passes that cached value back in
as `f0`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .butcher import ButcherPair
from .lowstorage import _lowstorage_core


@dataclass
class StepResult:
    """Outcome of one step attempt."""

    u_new: np.ndarray
    err_diff: np.ndarray | None   # u_new - uhat_new; None when no estimate requested
    nfe: int                      # RHS evaluations consumed by this attempt
    fsal_f: np.ndarray | None     # f(t+dt, u_new) for reuse on acceptance
    finite: bool                  # False if any stage went NaN/Inf


class _NonFiniteState(Exception):
    pass


def _require_finite(state):
    """Ends the attempt, by raising _NonFiniteState, at a NaN/Inf state."""
    if not np.all(np.isfinite(state)):
        raise _NonFiniteState
    return state


class _CountingRhs:
    """Counts RHS evaluations; never evaluates at a NaN/Inf state."""

    __slots__ = ("rhs", "nfe")

    def __init__(self, rhs):
        self.rhs = rhs
        self.nfe = 0

    def __call__(self, t, u):
        _require_finite(u)
        self.nfe += 1
        return self.rhs(t, u)


def _bad(u, nfe):
    nan = np.full_like(np.asarray(u, dtype=float), np.nan)
    return StepResult(u_new=nan, err_diff=nan, nfe=nfe, fsal_f=None, finite=False)


def butcher_step(pair: ButcherPair, rhs, t, dt, u, f0=None, need_estimate=True) -> StepResult:
    """One step of the dense tableau form.

    y_i = u + dt sum_j a_ij k_j, u_new = u + dt sum b_i k_i, and the error
    difference dt sum (b_i - bhat_i) k_i (minus the FSAL term when present).
    """
    cr = _CountingRhs(rhs)
    s = pair.s
    A, b, c, bhat = pair.A, pair.b, pair.c, pair.bhat
    ks = []
    err = fsal_f = None
    try:
        for i in range(s):
            if i == 0:
                f = f0 if f0 is not None else cr(t, u)
            else:
                y = u + dt * sum(A[i, j] * ks[j] for j in range(i) if A[i, j] != 0.0)
                f = cr(t + c[i] * dt, y)
            ks.append(f)
        u_new = _require_finite(u + dt * sum(b[i] * ks[i] for i in range(s) if b[i] != 0.0))
        if need_estimate:
            err = dt * sum((b[i] - bhat[i]) * ks[i] for i in range(s))
            if pair.fsal:
                fsal_f = cr(t + dt, u_new)
                err = err - dt * bhat[s] * fsal_f
    except _NonFiniteState:
        return _bad(u, cr.nfe)
    return _result(u_new, err, cr.nfe, fsal_f)


def lowstorage_step(scheme, rhs, t, dt, u, f0=None, need_estimate=True) -> StepResult:
    """One step of the memory-minimal register form of a scheme.

    The gamma/delta sweep for 3S*/3S*+ sets; plain ButcherPairs, which have
    no special low-storage structure, take the dense form.
    """
    if isinstance(scheme, ButcherPair):
        return butcher_step(scheme, rhs, t, dt, u, f0=f0, need_estimate=need_estimate)
    cr = _CountingRhs(rhs)
    try:
        u_new, err, fsal_f = _lowstorage_core(scheme, cr, t, dt, u, f0=f0,
                                              with_estimate=need_estimate)
        _require_finite(u_new)
    except _NonFiniteState:
        return _bad(u, cr.nfe)
    return _result(u_new, err, cr.nfe, fsal_f)


def _result(u_new, err, nfe, fsal_f):
    finite = err is None or bool(np.all(np.isfinite(err)))
    return StepResult(u_new, err, nfe, fsal_f, finite)


# every scheme steps in its native form (low-storage when it has one)
step = lowstorage_step
