"""Low-storage scheme coefficient sets and reconstruction of their tableaus.

The three-register family is parameterized by (gamma1, gamma2, gamma3, beta,
delta) and sweeps

    S2 <- S2 + delta_i * S1
    S1 <- gamma1_i * S1 + gamma2_i * S2 + gamma3_i * S3 + w_i * dt * f(t + c_i dt, S1)

with S3 = u^n frozen.  The published tables normalize the beta column to the
*output* weights of the main method (sum(beta) = 1); the per-stage increment
coefficients w_i are recovered from beta by a triangular back-substitution
through the register recurrence.  Plain-register schemes ("3s*") derive their
embedded solution from the delta accumulator,

    uhat = (S2 + delta_s S1 + delta_{s+1} S3) / sum(delta),

while the plus variants ("3s*+") accumulate an explicit bhat combination in a
fourth register.

Reconstruction to Butcher form runs the identical register program on linear
combinations over the basis {u^n, k_1, ..., k_s}: every f evaluation of a
register expanding to u^n + sum_j alpha_j k_j contributes a tableau row
(alpha_j) and a fresh basis symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .butcher import ButcherPair, InvariantViolation

CONSISTENCY_TOL = 1e-10


class ReconstructionError(ValueError):
    """A register expansion cannot correspond to an explicit tableau."""


@dataclass(frozen=True, eq=False)
class LowStorageScheme:
    """3S*/3S*+ coefficient set; compiles to a ButcherPair via to_butcher.

    `exact` optionally holds the same coefficients as rationals (keys gamma1,
    gamma2, gamma3, beta, delta, bhat) for exact tableau reconstruction.
    """

    name: str
    scheme_class: str          # "3s*" or "3s*+"
    gamma1: np.ndarray
    gamma2: np.ndarray
    gamma3: np.ndarray
    beta: np.ndarray           # output weights of the main method
    delta: np.ndarray          # s entries for 3s*+, s+1 for 3s*
    bhat: np.ndarray           # length s+1; 3s* entries derived from delta
    q: int
    qhat: int
    fsal: bool = False
    c: np.ndarray = None       # abscissae; derived from the recurrence if omitted
    stage_increments: np.ndarray = field(default=None, repr=False, compare=False)
    exact: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for attr in _COEFFICIENTS:
            object.__setattr__(self, attr, np.asarray(getattr(self, attr), dtype=float))
        s = self.s
        if self.scheme_class not in ("3s*", "3s*+"):
            raise InvariantViolation(f"unknown scheme class {self.scheme_class!r}")
        ndelta = s + 1 if self.scheme_class == "3s*" else s
        for attr, n in (("gamma1", s), ("gamma2", s), ("gamma3", s),
                        ("beta", s), ("delta", ndelta), ("bhat", s + 1)):
            if len(getattr(self, attr)) != n:
                raise InvariantViolation(
                    f"{self.name}: {attr} must have length {n}, got {len(getattr(self, attr))}")
        if self.gamma1[0] != 0.0 or self.gamma2[0] != 1.0 or self.gamma3[0] != 0.0:
            raise InvariantViolation(
                f"{self.name}: first stage must reduce to S1 <- u + beta1*dt*f "
                "(gamma1[0]=0, gamma2[0]=1, gamma3[0]=0)")
        if s > 1 and self.gamma3[1] != 0.0:
            raise InvariantViolation(f"{self.name}: gamma3[1] must be zero")
        if self.scheme_class == "3s*" and abs(self.delta.sum()) < 1e-14:
            raise InvariantViolation(f"{self.name}: sum(delta) = 0, embedded solution undefined")
        if not self.fsal and self.bhat[s] != 0.0:
            raise InvariantViolation(f"{self.name}: bhat[{s}] must be zero for non-FSAL schemes")
        w = _solve_stage_increments(self.name, self.gamma1, self.gamma2, self.delta, self.beta)
        object.__setattr__(self, "stage_increments", np.array(w))
        if self.c is None:
            pair = to_butcher(self)
            object.__setattr__(self, "c", pair.c)
        else:
            object.__setattr__(self, "c", np.asarray(self.c, dtype=float))

    @property
    def s(self) -> int:
        return len(self.beta)

    @property
    def k(self) -> int:
        return min(self.q, self.qhat) + 1


_COEFFICIENTS = ("gamma1", "gamma2", "gamma3", "beta", "delta", "bhat")


def _solve_stage_increments(name, gamma1, gamma2, delta, beta):
    """Back-solve per-stage increment coefficients from the output weights.

    A unit k injected into S1 at stage i propagates linearly through the
    remaining gamma/delta updates; its final weight is beta_i by convention,
    so w_i = beta_i / P_i with P_i the propagation factor.  Exact for
    rational coefficients.
    """
    s = len(beta)
    w = []
    for i in range(s):
        p1, p2 = 1, 0           # weight of k_i in S1, S2
        for j in range(i + 1, s):
            p2 = p2 + delta[j] * p1
            p1 = gamma1[j] * p1 + gamma2[j] * p2
        if abs(p1) < 1e-14:
            raise InvariantViolation(
                f"{name}: stage {i + 1} increment does not reach the output "
                "(zero propagation factor); beta cannot be realized")
        w.append(beta[i] / p1)
    return w


class LinComb:
    """Linear combination over the basis {u^n, k_1, ..., k_m}.

    Coefficients may be floats or Fractions; arithmetic is exact for exact
    inputs, which is what makes rational tableau reconstruction possible.
    """

    __slots__ = ("coeffs",)
    __array_priority__ = 100  # keep numpy from absorbing us

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)

    @classmethod
    def basis(cls, index, dim, one=1, zero=0):
        v = [zero] * dim
        v[index] = one
        return cls(v)

    def __add__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return LinComb([a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return LinComb([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, scalar):
        return LinComb([scalar * a for a in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return LinComb([a / scalar for a in self.coeffs])

    @property
    def u_weight(self):
        return self.coeffs[0]

    def k_weights(self, m):
        return self.coeffs[1:1 + m]


class _RowRecorder:
    """Callable standing in for the RHS during symbolic execution.

    Each call validates that the evaluated register is u^n + sum alpha_j k_j
    and returns the next basis symbol; the alpha rows become the A matrix.
    dt is passed as exactly 1, so `dt * f(...)` terms are the bare symbols.
    """

    def __init__(self, n_stages, exact):
        self.dim = 1 + n_stages
        self.rows = []
        self.exact = exact
        self.one = Fraction(1) if exact else 1.0
        self.zero = Fraction(0) if exact else 0.0

    def __call__(self, t, state):
        uw = state.u_weight
        if self.exact:
            ok = uw == 1
        else:
            ok = abs(float(uw) - 1.0) <= CONSISTENCY_TOL
        if not ok:
            raise ReconstructionError(
                f"register evaluated at stage {len(self.rows) + 1} has u^n weight "
                f"{uw}, not 1; not an explicit Runge-Kutta stage")
        if len(self.rows) >= self.dim - 1:
            raise ReconstructionError("more f evaluations than declared stages")
        self.rows.append(list(state.coeffs[1:]))
        return LinComb.basis(len(self.rows), self.dim, one=self.one, zero=self.zero)


def symbolic_step(stepper, n_stages, exact=False):
    """Run a register program on LinComb states; return (A, b, bhat, c) rows.

    `stepper(rhs, t, dt, u)` must return (u_new, err_diff) using only +, -,
    scalar * and rhs calls.  `n_stages` counts all f evaluations including a
    trailing FSAL evaluation if the program makes one.
    """
    rec = _RowRecorder(n_stages, exact)
    u0 = LinComb.basis(0, rec.dim, one=rec.one, zero=rec.zero)
    one = rec.one
    u_new, err = stepper(rec, rec.zero, one, u0)
    uhat = u_new - err
    if abs(float(u_new.u_weight) - 1.0) > CONSISTENCY_TOL:
        raise ReconstructionError(f"u_new has u^n weight {u_new.u_weight}, not 1")
    if abs(float(uhat.u_weight) - 1.0) > CONSISTENCY_TOL:
        raise ReconstructionError(f"uhat has u^n weight {uhat.u_weight}, not 1")
    m = len(rec.rows)
    A = [row + [rec.zero] * (m - len(row)) for row in rec.rows]
    b = u_new.k_weights(m)
    bhat = uhat.k_weights(m)
    c = [sum(row, rec.zero) for row in A]
    return A, b, bhat, c


def _lowstorage_core(scheme, rhs, t, dt, u, f0=None, with_estimate=True, exact=False):
    """Shared register program for 3s*/3s*+; generic over the state algebra.

    `f0`, when given, is the first-stage value f(t, u).  Returns (u_new, err,
    fsal_f), where fsal_f = f(t+dt, u_new) is the FSAL evaluation when the
    estimate makes one.  With exact=True the sweep runs on the scheme's
    rational coefficients.
    """
    s = scheme.s
    if exact:
        if scheme.exact is None:
            raise ValueError(f"{scheme.name}: no exact coefficients")
        g1, g2, g3, be, de, bh = (scheme.exact[attr] for attr in _COEFFICIENTS)
        w = _solve_stage_increments(scheme.name, g1, g2, de, be)
    else:
        g1, g2, g3, be, de, bh = (getattr(scheme, attr) for attr in _COEFFICIENTS)
        w = scheme.stage_increments
    S1 = u
    S2 = u * 0
    S3 = u
    plus = scheme.scheme_class == "3s*+"
    E = u * 0 if (plus and with_estimate) else None
    for i in range(s):
        S2 = S2 + de[i] * S1
        f = f0 if (i == 0 and f0 is not None) else rhs(t + scheme_c(scheme, i) * dt, S1)
        k = dt * f
        if E is not None:
            E = E + (be[i] - bh[i]) * k
        S1 = g1[i] * S1 + g2[i] * S2 + g3[i] * S3 + w[i] * k
    u_new = S1
    if not with_estimate:
        return u_new, None, None
    if plus:
        err = E
    else:
        uhat = (S2 + de[s - 1] * S1 + de[s] * S3) / np.sum(de)
        err = u_new - uhat
    fsal_f = None
    if scheme.fsal and bh[s] != 0:
        fsal_f = rhs(t + dt, u_new)
        err = err - bh[s] * (dt * fsal_f)
    return u_new, err, fsal_f


def scheme_c(scheme, i):
    # during reconstruction c is not known yet; the abscissa only matters for
    # non-autonomous numeric stepping, so fall back to 0 there
    c = scheme.c
    return 0.0 if c is None else c[i]


def to_butcher(scheme, exact=False) -> ButcherPair:
    """Reconstruct the ButcherPair realized by a low-storage register program.

    With exact=True the arithmetic runs on the scheme's rational coefficients
    (available for the SSP catalog schemes) and the exact rows are attached to
    the returned pair as `pair.exact`.
    """
    if isinstance(scheme, ButcherPair):
        return scheme
    n_stages = scheme.s + (1 if scheme.fsal else 0)
    def stepper(rhs, t, dt, u):
        u_new, err, _ = _lowstorage_core(scheme, rhs, t, dt, u, exact=exact)
        return u_new, err
    A, b, bhat, c = symbolic_step(stepper, n_stages, exact=exact)
    return _assemble_pair(scheme.name, scheme.q, scheme.qhat, scheme.fsal,
                          scheme.s, A, b, bhat, c, exact)


def _assemble_pair(name, q, qhat, fsal, s, A, b, bhat, c, exact):
    m = len(A)
    if fsal:
        if m != s + 1:
            raise ReconstructionError(f"{name}: expected {s + 1} evaluations, saw {m}")
        bhat_full = list(bhat)
        A = [row[:s] for row in A[:s]]
        b = b[:s]
        c = c[:s]
    else:
        if m != s:
            raise ReconstructionError(f"{name}: expected {s} evaluations, saw {m}")
        bhat_full = list(bhat) + [0 if exact else 0.0]
    payload = None
    if exact:
        payload = {"A": A, "b": list(b), "bhat": bhat_full, "c": list(c)}
    return ButcherPair(
        name=name,
        A=np.array([[float(x) for x in row] for row in A]),
        b=np.array([float(x) for x in b]),
        c=np.array([float(x) for x in c]),
        bhat=np.array([float(x) for x in bhat_full]),
        q=q, qhat=qhat, fsal=fsal, exact=payload,
    )
