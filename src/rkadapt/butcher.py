"""Butcher tableaus of embedded explicit Runge-Kutta pairs and order conditions.

An embedded pair is stored as A in R^{s x s} (strictly lower triangular),
b, c in R^s and bhat in R^{s+1}.  The extra embedded weight bhat[s] is only
nonzero for FSAL pairs, where it multiplies f(t+dt, u_new); the equivalent
(s+1)-stage tableau appends the row b with abscissa 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

ROW_SUM_TOL = 1e-12


class InvariantViolation(ValueError):
    """A coefficient set fails one of the structural invariants."""


def frozen_array(values) -> np.ndarray:
    """A read-only float64 copy, so no caller can change a frozen scheme."""
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ButcherPair:
    """Embedded explicit Runge-Kutta pair (A, b, c, bhat) with orders (q, qhat)."""

    name: str
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    bhat: np.ndarray
    q: int
    qhat: int
    fsal: bool = False
    exact: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for attr in ("A", "b", "c", "bhat"):
            object.__setattr__(self, attr, frozen_array(getattr(self, attr)))
        validate_pair(self)

    @property
    def s(self) -> int:
        return len(self.b)

    @property
    def k(self) -> int:
        """Controller exponent base, min(q, qhat) + 1."""
        return min(self.q, self.qhat) + 1

    def extended(self):
        """(A, b-like weights, c) of the FSAL-extended (s+1)-stage tableau."""
        s = self.s
        Ae = np.zeros((s + 1, s + 1))
        Ae[:s, :s] = self.A
        Ae[s, :s] = self.b
        ce = np.append(self.c, 1.0)
        return Ae, ce


def validate_pair(pair: ButcherPair) -> None:
    s = pair.s
    if pair.A.shape != (s, s):
        raise InvariantViolation(f"A must be {s}x{s}, got {pair.A.shape}")
    if len(pair.c) != s:
        raise InvariantViolation(f"c must have length {s}")
    if len(pair.bhat) != s + 1:
        raise InvariantViolation(f"bhat must have length {s + 1}")
    upper = np.triu(pair.A)
    if np.any(upper != 0.0):
        i, j = np.argwhere(upper != 0.0)[0]
        raise InvariantViolation(
            f"explicitness: A[{i}][{j}] = {pair.A[i, j]} must be zero for j >= i"
        )
    rowsum = pair.A.sum(axis=1)
    bad = np.abs(rowsum - pair.c) > ROW_SUM_TOL
    if np.any(bad):
        i = int(np.argmax(bad))
        raise InvariantViolation(
            f"row-sum consistency: c[{i}] = {pair.c[i]} but sum(A[{i}]) = {rowsum[i]}"
        )
    if not pair.fsal and pair.bhat[s] != 0.0:
        raise InvariantViolation("bhat[s] must be zero for non-FSAL pairs")


# Rooted-tree order conditions through order 5: (id, order, lhs(A, b, c), 1/gamma).
# Elementary weights written with matrix-vector products; 17 conditions total.

def _conditions():
    R = Fraction
    return [
        ("t1",    1, lambda A, b, c: b @ np.ones(len(b)), R(1, 1)),
        ("t2",    2, lambda A, b, c: b @ c, R(1, 2)),
        ("t31",   3, lambda A, b, c: b @ (c * c), R(1, 3)),
        ("t32",   3, lambda A, b, c: b @ (A @ c), R(1, 6)),
        ("t41",   4, lambda A, b, c: b @ ((c * c) * c), R(1, 4)),
        ("t42",   4, lambda A, b, c: b @ (c * (A @ c)), R(1, 8)),
        ("t43",   4, lambda A, b, c: b @ (A @ (c * c)), R(1, 12)),
        ("t44",   4, lambda A, b, c: b @ (A @ (A @ c)), R(1, 24)),
        ("t51",   5, lambda A, b, c: b @ ((c * c) * (c * c)), R(1, 5)),
        ("t52",   5, lambda A, b, c: b @ ((c * c) * (A @ c)), R(1, 10)),
        ("t53",   5, lambda A, b, c: b @ ((A @ c) * (A @ c)), R(1, 20)),
        ("t54",   5, lambda A, b, c: b @ (c * (A @ (c * c))), R(1, 15)),
        ("t55",   5, lambda A, b, c: b @ (c * (A @ (A @ c))), R(1, 30)),
        ("t56",   5, lambda A, b, c: b @ (A @ ((c * c) * c)), R(1, 20)),
        ("t57",   5, lambda A, b, c: b @ (A @ (c * (A @ c))), R(1, 40)),
        ("t58",   5, lambda A, b, c: b @ (A @ (A @ (c * c))), R(1, 60)),
        ("t59",   5, lambda A, b, c: b @ (A @ (A @ (A @ c))), R(1, 120)),
    ]


_CONDITIONS = _conditions()
MAX_ORDER = 5
N_CONDITIONS = len(_CONDITIONS)


def weight_residuals(A, w, c, up_to):
    """Residuals |lhs - 1/gamma(tree)| of all conditions of order <= up_to for weights w."""
    if up_to > MAX_ORDER:
        raise ValueError(f"order conditions hardcoded through {MAX_ORDER}, got {up_to}")
    A = np.asarray(A, dtype=float)
    w = np.asarray(w, dtype=float)
    c = np.asarray(c, dtype=float)
    out = []
    for cid, order, lhs, rhs in _CONDITIONS:
        if order > up_to:
            continue
        out.append((cid, order, float(lhs(A, w, c)) - float(rhs)))
    return out


def order_residuals(pair: ButcherPair, up_to: int):
    """Order-condition residuals for the main and embedded weights of a pair.

    Embedded conditions are evaluated on the FSAL-extended tableau when the
    pair is FSAL, so that bhat[s] multiplies the appended row b.  Returns a
    list of (condition id, side, order, residual) with side in {main, embedded}.
    """
    out = [("main:" + cid, "main", order, r)
           for cid, order, r in weight_residuals(pair.A, pair.b, pair.c, up_to)]
    if pair.fsal:
        Ae, ce = pair.extended()
        emb = weight_residuals(Ae, pair.bhat, ce, up_to)
    else:
        emb = weight_residuals(pair.A, pair.bhat[:pair.s], pair.c, up_to)
    out += [("embedded:" + cid, "embedded", order, r) for cid, order, r in emb]
    return out


def claimed_order_residuals(pair: ButcherPair):
    """(side, order, residual) of each condition the pair claims to meet:
    the main ones through q and the embedded ones through qhat."""
    for _, side, order, r in order_residuals(pair, max(pair.q, pair.qhat)):
        if order <= (pair.q if side == "main" else pair.qhat):
            yield side, order, r


def max_order_residual(pair: ButcherPair) -> float:
    """Largest residual over main conditions through q and embedded through qhat."""
    worst = 0.0
    for _, _, r in claimed_order_residuals(pair):
        worst = max(worst, abs(r))
    return worst
