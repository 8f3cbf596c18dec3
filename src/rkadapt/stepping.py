"""Single Runge-Kutta steps: dense Butcher form and low-storage sweeps.

`step` is the one step function.  The scheme's type picks its sweep: a
ButcherPair the dense tableau sweep, a 3S*/3S*+ set its register sweep
(`butcher_step` and `lowstorage_step` are other names of `step`).  Both
sweeps build every linear combination with `lowstorage._combine`, which
skips zero coefficients and the multiply by a coefficient of 1; on finite
states that is bit for bit the sum with every term, up to the sign of an
exact zero.  Sums and products are formed in place, with the same
operations in the same operand order, but only in arrays the sweep created:
never in u, f0, an RHS result or a coefficient array.

Both forms share the FSAL contract: the error estimator of an FSAL pair ends
with an evaluation f(t+dt, u_new) that doubles as the first stage of the next
step, so a step following an accepted step consumes s evaluations and only
the very first step costs s+1.  The caller passes that cached value back in
as `f0`.

A step also advances an ensemble: with `t` and `dt` arrays of length m, `u`
holds m member states along a leading axis and `f0` lists each member's
cached first stage (or None).  `per_member` is the one rule for calling a
problem's functions on a stack: a problem with `batched = True` gets the
stack, with a time per member, in one call; any other is called once per
member, with a Python float time.  Every member steps exactly as it would
alone: its own time and step size, its own FSAL cache and its own finite
guard, with its evaluations counted as its own run counts them.  The
result's `nfe` and `finite` are then lists with one entry per member.  A
single state steps as the one-member ensemble.

Each attempt is one sweep of the whole stack.  A member whose state turns
NaN/Inf leaves it there: the RHS no longer evaluates its rows, which hold
NaN from then on, and its count stops at that state.  The others sweep on.
The sweep runs under `np.errstate(invalid="ignore")`, since a row whose RHS
returned inf can meet inf - inf in its registers before it dies.  `step`
also decides whether a member's result is usable (`finite`), which takes
the problem's `is_admissible` too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .butcher import ButcherPair
from .lowstorage import _combine, _lowstorage_core


@dataclass
class StepResult:
    """Outcome of one step attempt; of an ensemble's, per member."""

    u_new: np.ndarray
    err_diff: np.ndarray | None   # u_new - uhat_new; None when no estimate requested
    nfe: int | list               # RHS evaluations of this attempt; a list, one per member
    fsal_f: np.ndarray | None     # f(t+dt, u_new) for reuse on acceptance
    finite: bool | list           # False unless usable (see `step`); a list, one per member


def _finite_members(states):
    """Which members of a stack of states are finite throughout."""
    return np.isfinite(states).reshape(len(states), -1).all(axis=1)


def _stacked(rows):
    """Member arrays as a stack; a single member's as a view."""
    return np.asarray(rows[0])[None] if len(rows) == 1 else np.stack(rows)


def per_member(fn, batched, u, times=None):
    """fn of each member of a stack (after its time, when `times` is given):
    a batched problem's in one call, any other's as a list of member calls."""
    if batched:
        return fn(u) if times is None else fn(times, u)
    if times is None:
        return [fn(um) for um in u]
    return [fn(float(tm), um) for tm, um in zip(times, u)]


class _Stack:
    """A problem's RHS over a stack of member states, under the module's
    rule, counting each member's evaluations and evaluating only live
    members.  A member whose state turns NaN/Inf dies: its rows get NaN from
    then on and its count stops there, as its own run's guard stops it.
    Times arrive as the sweep computes them, a float for a single member and
    a broadcasting column (or a vector) for several.  `rows`, when given,
    names the members a partial stack holds."""

    __slots__ = ("rhs", "batched", "calls", "partial", "live")

    def __init__(self, rhs, m):
        self.rhs = rhs
        self.batched = getattr(rhs, "batched", False)
        self.calls = 0                       # evaluations of the whole stack
        self.partial = np.zeros(m, dtype=np.int64)  # of some members, per member
        self.live = None                     # per-member mask once one has died

    def _eval(self, times, u):
        out = per_member(self.rhs, self.batched, u, times)
        return out if self.batched else _stacked(out)

    def __call__(self, t, u, rows=None):
        times = t.reshape(len(u)) if isinstance(t, np.ndarray) else np.array([t])
        if self.live is None and np.isfinite(u).all():
            if rows is None:
                self.calls += 1
            else:
                self.partial[rows] += 1
            return self._eval(times, u)
        if self.live is None:
            self.live = np.ones(len(self.partial), dtype=bool)
        rows = np.arange(len(u)) if rows is None else np.asarray(rows)
        self.live[rows] &= _finite_members(u)
        keep = self.live[rows]
        self.partial[rows[keep]] += 1
        out = np.full(u.shape, np.nan, dtype=np.result_type(u.dtype, float))
        if keep.any():
            out[keep] = self._eval(times[keep], u[keep])
        return out


def _butcher_sweep(pair: ButcherPair, rhs, t, dt, u, f0, need_estimate):
    """y_i = u + dt sum_j a_ij k_j, u_new = u + dt sum b_i k_i, and the error
    difference dt sum (b_i - bhat_i) k_i (minus the FSAL term when present)."""
    s = pair.s
    A, b, c, bhat = pair.A, pair.b, pair.c, pair.bhat
    ks = [f0 if f0 is not None else rhs(t, u)]
    for i in range(1, s):
        y = u + dt * _combine(*zip(A[i, :i], ks))
        ks.append(rhs(t + c[i] * dt, y))
    u_new = u + dt * _combine(*zip(b, ks))
    err = fsal_f = None
    if need_estimate:
        err = dt * _combine(*zip(b - bhat[:s], ks))
        if pair.fsal:
            fsal_f = rhs(t + dt, u_new)
            err = err - dt * bhat[s] * fsal_f
    return u_new, err, fsal_f


def step(scheme, rhs, t, dt, u, f0=None, need_estimate=True) -> StepResult:
    """One attempt of a single state, or one sweep of a whole stack.

    `rhs` is the problem's RHS: a batched one evaluates the stack, with a
    time per member, in one call, any other one member at a time, with a
    Python float time.  The members without a cached first stage (every
    member when f0 is None) get it on their rows first; then every member
    shares the sweep.  A member whose state turns NaN/Inf leaves the sweep
    with the evaluations made up to that state, as its own run's guard
    leaves it, and the others sweep on.  A member is finite (usable) when it
    lived through the sweep, its u_new and error estimate are finite and the
    RHS's `is_admissible`, if any, accepts u_new; the others get NaN in u_new.
    """
    sweep = _butcher_sweep if isinstance(scheme, ButcherPair) else _lowstorage_core
    single = np.ndim(t) == 0
    if single:
        t, dt, u, f0 = [t], [dt], np.asarray(u)[None], [f0]
    t, dt = np.asarray(t, dtype=float), np.asarray(dt, dtype=float)
    m = len(u)
    if f0 is None:
        f0 = [None] * m
    cr = _Stack(rhs, m)
    with np.errstate(invalid="ignore"):
        first = None
        todo = [j for j, f in enumerate(f0) if f is None]
        if len(todo) < m:
            rows = list(f0)
            if todo:
                for j, f in zip(todo, cr(t[todo], u[todo], todo)):
                    rows[j] = f
            first = _stacked(rows)
        # times and steps broadcast over each state as columns, or as floats
        # for one member
        if m == 1:
            tm, dtm = float(t[0]), float(dt[0])
        else:
            column = (m,) + (1,) * (u.ndim - 1)
            tm, dtm = t.reshape(column), dt.reshape(column)
        u_new, err, fsal_f = sweep(scheme, cr, tm, dtm, u, first, need_estimate)
    finite = _finite_members(u_new)
    if cr.live is not None:
        finite &= cr.live
    if err is not None:
        finite &= _finite_members(err)
    admissible = getattr(rhs, "is_admissible", None)
    if admissible is not None and finite.any():
        rows = slice(None) if finite.all() else np.flatnonzero(finite)
        finite[rows] = per_member(admissible, cr.batched, u_new[rows])
    if not finite.all():
        u_new = u_new.copy()       # a scheme with zero weights returns u itself
        u_new[~finite] = np.nan
    finite, nfe = finite.tolist(), (cr.partial + cr.calls).tolist()
    if single:
        return StepResult(u_new[0], None if err is None else err[0], nfe[0],
                          None if fsal_f is None else fsal_f[0], finite[0])
    return StepResult(u_new, err, nfe, fsal_f, finite)


butcher_step = lowstorage_step = step
