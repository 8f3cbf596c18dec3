"""Single Runge-Kutta steps: dense Butcher form and low-storage sweeps.

Both forms share the FSAL contract: the error estimator of an FSAL pair ends
with an evaluation f(t+dt, u_new) that doubles as the first stage of the next
step, so a step following an accepted step consumes s evaluations and only
the very first step costs s+1.  The caller passes that cached value back in
as `f0`.

A step also advances an ensemble: with `t` and `dt` arrays of length m, `u`
holds m member states along a leading axis, `f0` lists each member's cached
first stage (or None), and `rhs(t, u)` evaluates such a stack at a sequence
of m times.  Every member steps exactly as it would alone: its own time and
step size, its own FSAL cache and its own finite guard, with its evaluations
counted as its own run counts them.  The result's `nfe` and `finite` are
then lists with one entry per member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .butcher import ButcherPair
from .lowstorage import _lowstorage_core


@dataclass
class StepResult:
    """Outcome of one step attempt; of an ensemble's, per member."""

    u_new: np.ndarray
    err_diff: np.ndarray | None   # u_new - uhat_new; None when no estimate requested
    nfe: int                      # RHS evaluations consumed by this attempt
    fsal_f: np.ndarray | None     # f(t+dt, u_new) for reuse on acceptance
    finite: bool                  # False if any stage went NaN/Inf


class _NonFiniteState(Exception):
    """A NaN/Inf state ends the attempt of the members `dead` masks."""

    def __init__(self, dead):
        super().__init__()
        self.dead = dead


def _finite_members(states):
    """Which members of a stack of states are finite throughout."""
    return np.isfinite(states).reshape(len(states), -1).all(axis=1)


def _nan_like(u):
    """The result of a member that left its attempt at a NaN/Inf state."""
    return np.full(u.shape, np.nan, dtype=np.result_type(u.dtype, float))


def _require_finite(states):
    """The stack itself, or _NonFiniteState if a member holds a NaN/Inf."""
    if not np.isfinite(states).all():
        raise _NonFiniteState(~_finite_members(states))
    return states


def _stacked(rows):
    """Member arrays as a stack; a single member's as a view."""
    return np.asarray(rows[0])[None] if len(rows) == 1 else np.stack(rows)


class _CountingRhs:
    """Counts the evaluations of a member stack; never evaluates at a NaN/Inf
    state.  Times arrive as the sweep computes them, a float for a single
    member and a broadcasting column for several; the RHS gets a sequence."""

    __slots__ = ("rhs", "nfe")

    def __init__(self, rhs):
        self.rhs = rhs
        self.nfe = 0

    def __call__(self, t, u):
        _require_finite(u)
        self.nfe += 1
        return self.rhs(t.reshape(len(u)) if isinstance(t, np.ndarray) else (t,), u)


def _butcher_sweep(pair: ButcherPair, rhs, t, dt, u, f0, need_estimate):
    """y_i = u + dt sum_j a_ij k_j, u_new = u + dt sum b_i k_i, and the error
    difference dt sum (b_i - bhat_i) k_i (minus the FSAL term when present)."""
    s = pair.s
    A, b, c, bhat = pair.A, pair.b, pair.c, pair.bhat
    ks = [f0 if f0 is not None else rhs(t, u)]
    for i in range(1, s):
        y = u + dt * sum(A[i, j] * ks[j] for j in range(i) if A[i, j] != 0.0)
        ks.append(rhs(t + c[i] * dt, y))
    u_new = _require_finite(u + dt * sum(b[i] * ks[i] for i in range(s) if b[i] != 0.0))
    err = fsal_f = None
    if need_estimate:
        err = dt * sum((b[i] - bhat[i]) * ks[i] for i in range(s))
        if pair.fsal:
            fsal_f = rhs(t + dt, u_new)
            err = err - dt * bhat[s] * fsal_f
    return u_new, err, fsal_f


def _register_sweep(scheme, rhs, t, dt, u, f0, need_estimate):
    u_new, err, fsal_f = _lowstorage_core(scheme, rhs, t, dt, u, f0=f0,
                                          with_estimate=need_estimate)
    return _require_finite(u_new), err, fsal_f


def _step(sweep, scheme, rhs, t, dt, u, f0, need_estimate):
    """One attempt of a single state, or of each member of a stack."""
    if np.ndim(t) == 0:
        one = rhs
        res = _step_members(sweep, scheme, lambda t, u: np.asarray(one(t[0], u[0]))[None],
                            np.array([t], dtype=float), np.array([dt], dtype=float),
                            np.asarray(u)[None], [f0], need_estimate)
        return StepResult(res.u_new[0], None if res.err_diff is None else res.err_diff[0],
                          int(res.nfe[0]), None if res.fsal_f is None else res.fsal_f[0],
                          bool(res.finite[0]))
    return _step_members(sweep, scheme, rhs, np.asarray(t, dtype=float),
                         np.asarray(dt, dtype=float), u, f0, need_estimate)


def _step_members(sweep, scheme, rhs, t, dt, u, f0, need_estimate):
    """Sweep the members with a cached first stage, then those without.

    A member whose state turns NaN/Inf leaves the attempt with the
    evaluations made up to that state and a NaN result, as its own run's
    guard leaves it; the members left sweep again from the start.  A death
    is a rare event, so the sweep stays one batch for every stage.
    """
    m = len(u)
    nfe = [0] * m
    finite = [True] * m
    cached = [f is not None for f in f0]
    everyone = list(range(m))
    groups = ([everyone] if all(cached) or not any(cached)
              else [[j for j in everyone if cached[j]], [j for j in everyone if not cached[j]]])
    swept = []
    for todo in groups:
        while todo:
            cr = _CountingRhs(rhs)
            try:
                out = _sweep_members(sweep, scheme, cr, t, dt, u, f0, todo, need_estimate)
            except _NonFiniteState as exc:
                for j, dead in zip(todo, exc.dead):
                    if dead:
                        nfe[j], finite[j] = cr.nfe, False
                todo = [j for j, dead in zip(todo, exc.dead) if not dead]
                continue
            for j in todo:
                nfe[j] = cr.nfe
            swept.append((todo, out))
            break
    if len(swept) == 1 and len(swept[0][0]) == m:
        u_new, err, fsal_f = swept[0][1]
    else:
        u_new = _nan_like(u)
        err = _nan_like(u) if need_estimate else None
        fsal_f = None
        for todo, (un, e, fs) in swept:
            u_new[todo] = un
            if e is not None:
                err[todo] = e
            if fs is not None:
                if fsal_f is None:
                    fsal_f = _nan_like(u)
                fsal_f[todo] = fs
    if err is not None and not np.isfinite(err).all():
        finite = [f and bool(e) for f, e in zip(finite, _finite_members(err))]
    return StepResult(u_new, err, nfe, fsal_f, finite)


def _sweep_members(sweep, scheme, rhs, t, dt, u, f0, rows, need_estimate):
    """The sweep of the members `rows` indexes.  Their times and steps enter
    as columns broadcasting over each state, or as floats for one member."""
    if len(rows) < len(u):
        t, dt, u = t[rows], dt[rows], u[rows]
    first = _stacked([f0[j] for j in rows]) if f0[rows[0]] is not None else None
    if len(rows) == 1:
        t, dt = float(t[0]), float(dt[0])
    else:
        column = (len(rows),) + (1,) * (u.ndim - 1)
        t, dt = t.reshape(column), dt.reshape(column)
    return sweep(scheme, rhs, t, dt, u, first, need_estimate)


def butcher_step(pair: ButcherPair, rhs, t, dt, u, f0=None, need_estimate=True) -> StepResult:
    """One step of the dense tableau form."""
    return _step(_butcher_sweep, pair, rhs, t, dt, u, f0, need_estimate)


def lowstorage_step(scheme, rhs, t, dt, u, f0=None, need_estimate=True) -> StepResult:
    """One step of the memory-minimal register form of a scheme.

    The gamma/delta sweep for 3S*/3S*+ sets; plain ButcherPairs, which have
    no special low-storage structure, take the dense form.
    """
    sweep = _butcher_sweep if isinstance(scheme, ButcherPair) else _register_sweep
    return _step(sweep, scheme, rhs, t, dt, u, f0, need_estimate)


# every scheme steps in its native form (low-storage when it has one)
step = lowstorage_step
