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
fourth register.  Each register update skips its zero coefficients (SSP3(2)4
has 7 zero gammas and 3 zero deltas), and S2 and the fourth register hold no
array until their first term: on finite states, bit for bit the full sums
up to the sign of an exact zero.

Reconstruction to Butcher form runs the identical register program, with
dt = 1, on the unit vectors of the basis {u^n, k_1, ..., k_m}: every f
evaluation of a register u^n + sum_j alpha_j k_j contributes a tableau row
(alpha_j) and returns the next unit vector.  Float64 vectors give the float
tableau, Fraction vectors the exact one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .butcher import ButcherPair, InvariantViolation, frozen_array

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
    bhat: np.ndarray           # length s+1; 3s* entries before bhat[s] derived from delta
    q: int
    qhat: int
    fsal: bool = False
    exact: dict | None = field(default=None, repr=False, compare=False)
    c: np.ndarray = field(init=False)      # abscissae of the reconstructed tableau
    stage_increments: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for attr in _COEFFICIENTS:
            object.__setattr__(self, attr, frozen_array(getattr(self, attr)))
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
        object.__setattr__(self, "stage_increments", frozen_array(w))
        pair = to_butcher(self)
        object.__setattr__(self, "c", pair.c)
        if self.scheme_class == "3s*":
            # delta implies the embedded weights; only the FSAL weight is given
            object.__setattr__(self, "bhat", frozen_array(np.append(pair.bhat[:s], self.bhat[s])))

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


def _combine(*terms):
    """sum of c * x over the terms (c, x), left to right from the first term
    kept.  A term with c = 0, or with x None (a register still zero), adds
    nothing, and c = 1 adds x itself; with every term skipped the sum is
    0 * x of the last term.  Generic over the state algebra.  The sum is
    formed in place once this call has created it, never in a term's x."""
    total = None
    for c, x in terms:
        if c != 0 and x is not None:
            if c != 1:
                x = c * x
            if total is None:
                total, own = x, c != 1
            elif own:
                total += x
            else:
                total, own = total + x, True
    return 0 * x if total is None else total


def _accumulate(acc, own, c, x):
    """_combine((1, acc), (c, x)) for an x that is not None, and whether the
    result is the caller's own: `own` says that the caller created `acc` and
    no other register holds it, and only then is the sum formed in it."""
    if c == 0:
        return (0 * x, True) if acc is None else (acc, own)
    if c != 1:
        x = c * x
    if acc is None:
        return x, c != 1
    if own:
        acc += x
        return acc, True
    return acc + x, True


def _lowstorage_core(scheme, rhs, t, dt, u, f0=None, with_estimate=True,
                     coefficients=None):
    """Shared register program for 3s*/3s*+; generic over the state algebra.

    `f0`, when given, is the first-stage value f(t, u).  Returns (u_new, err,
    fsal_f), where fsal_f = f(t+dt, u_new) is the FSAL evaluation when the
    estimate makes one.  `coefficients`, when given, replaces the scheme's
    (gamma1, gamma2, gamma3, beta, delta, bhat, stage_increments, c).  Each is
    read once into a list, whose float64 entries promote a state as the
    arrays' do.  Registers are updated in place only where the sweep created
    them, never in u, f0 or an RHS result.
    """
    if coefficients is None:
        coefficients = (scheme.gamma1, scheme.gamma2, scheme.gamma3, scheme.beta,
                        scheme.delta, scheme.bhat, scheme.stage_increments, scheme.c)
    g1, g2, g3, be, de, bh, w, c = (list(x) for x in coefficients)
    s = scheme.s
    S1 = S3 = u
    S2 = E = None
    own2 = ownE = False
    plus = scheme.scheme_class == "3s*+"
    for i in range(s):
        S2, own2 = _accumulate(S2, own2, de[i], S1)
        f = f0 if (i == 0 and f0 is not None) else rhs(t + c[i] * dt, S1)
        k = dt * f
        if plus and with_estimate:
            E, ownE = _accumulate(E, ownE, be[i] - bh[i], k)
        S1 = _combine((g1[i], S1), (g2[i], S2), (g3[i], S3), (w[i], k))
        own2 = own2 and S1 is not S2
    u_new = S1
    if not with_estimate:
        return u_new, None, None
    if plus:
        err = E
    else:
        uhat = _combine((1, S2), (de[s - 1], S1), (de[s], S3)) / np.sum(de)
        err = np.subtract(u_new, uhat, out=uhat)
    fsal_f = None
    if scheme.fsal and bh[s] != 0:
        fsal_f = rhs(t + dt, u_new)
        err = err - bh[s] * (dt * fsal_f)
    return u_new, err, fsal_f


def to_butcher(scheme, exact=False) -> ButcherPair:
    """Reconstruct the ButcherPair realized by a low-storage register program.

    The register sweep runs with dt = 1 on the unit vectors e_0 = u^n,
    e_1 = k_1, ..., e_m = k_m, m = s + fsal; each f evaluation records the
    k weights of its register as a row of A and returns the next unit
    vector.  The abscissae are the row sums, so the sweep runs with c = 0.
    With exact=True it runs on the scheme's rational coefficients (available
    for the SSP catalog schemes) and the exact rows are attached to the
    returned pair as `pair.exact`.
    """
    if isinstance(scheme, ButcherPair):
        return scheme
    s, name = scheme.s, scheme.name
    m = s + scheme.fsal
    if exact:
        if scheme.exact is None:
            raise ValueError(f"{name}: no exact coefficients")
        g1, g2, g3, be, de, bh = (scheme.exact[attr] for attr in _COEFFICIENTS)
        w = _solve_stage_increments(name, g1, g2, de, be)
        zero, one = Fraction(0), Fraction(1)
        basis = np.array([[one if i == j else zero for j in range(m + 1)]
                          for i in range(m + 1)], dtype=object)
        coefficients = (g1, g2, g3, be, de, bh, w, [zero] * s)
    else:
        zero, one = 0.0, 1.0
        basis = np.eye(m + 1)
        coefficients = (*(getattr(scheme, attr) for attr in _COEFFICIENTS),
                        scheme.stage_increments, np.zeros(s))
    rows = []

    def record(t, state):
        uw = state[0]
        if not (uw == 1 if exact else abs(float(uw) - 1.0) <= CONSISTENCY_TOL):
            raise ReconstructionError(
                f"register evaluated at stage {len(rows) + 1} has u^n weight "
                f"{uw}, not 1; not an explicit Runge-Kutta stage")
        rows.append(state[1:])
        return basis[len(rows)]

    u_new, err, _ = _lowstorage_core(scheme, record, zero, one, basis[0],
                                     coefficients=coefficients)
    uhat = u_new - err
    for label, v in (("u_new", u_new), ("uhat", uhat)):
        if abs(float(v[0]) - 1.0) > CONSISTENCY_TOL:
            raise ReconstructionError(f"{label} has u^n weight {v[0]}, not 1")
    if len(rows) != m:
        raise ReconstructionError(f"{name}: expected {m} evaluations, saw {len(rows)}")
    A = [list(row[:s]) for row in rows[:s]]
    b = list(u_new[1:s + 1])
    bhat = list(uhat[1:]) + [zero] * (not scheme.fsal)
    c = [sum(row, zero) for row in rows[:s]]
    payload = {"A": A, "b": b, "bhat": bhat, "c": c} if exact else None
    return ButcherPair(name=name, A=A, b=b, c=c, bhat=bhat, q=scheme.q,
                       qhat=scheme.qhat, fsal=scheme.fsal, exact=payload)
