"""Error-based PID step size control and CFL-based control.

The controller follows the digital-signal-processing form

    dt_{n+1} = eps_{n+1}^(b1/k) * eps_n^(b2/k) * eps_{n-1}^(b3/k) * dt_n,

with eps = 1/w the inverse of the weighted RMS error estimate, optionally
passed through the growth limiter x -> 1 + arctan(x - 1).  A step is accepted
when the (limited) factor is at least 0.9^2; out-of-bounds solutions retry at
a quarter of the step.  `pid_decide` runs this whole recursion for one
attempt, given its error norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ACCEPT_THRESHOLD = 0.81          # 0.9^2
BOUNDS_REJECT_FACTOR = 0.25
W_FLOOR = 1e-10                  # caps eps = 1/w on (near-)exact steps
RTOL_MIN = 10 * np.finfo(float).eps   # a finer rtol asks for less than roundoff

DEFAULT_BETA = (0.60, -0.20, 0.00)   # PI42, the controller when none is given


@dataclass(frozen=True)
class ControllerConfig:
    beta1: float
    beta2: float
    beta3: float
    atol: float
    rtol: float
    k: int
    use_limiter: bool = True

    def __post_init__(self):
        if not self.atol > 0:
            raise ValueError("atol must be positive")
        if not (self.rtol == 0.0 or self.rtol >= RTOL_MIN):
            raise ValueError(f"rtol must be 0 or at least {RTOL_MIN:.1e}")
        if not all(math.isfinite(b) for b in (self.beta1, self.beta2, self.beta3)):
            raise ValueError("controller parameters must be finite")
        if self.k < 2:
            raise ValueError("controller exponent base k must be >= 2")

    @classmethod
    def for_scheme(cls, scheme, tol=None, atol=None, rtol=None, beta=DEFAULT_BETA):
        """Config with the scheme's k and equal tolerances by default."""
        if tol is not None:
            atol = rtol = tol
        return cls(beta[0], beta[1], beta[2], atol=atol, rtol=rtol, k=scheme.k)

    def describe(self):
        return (f"PID({self.beta1:g},{self.beta2:g},{self.beta3:g})"
                f" atol={self.atol:g} rtol={self.rtol:g} k={self.k}")


@dataclass
class ControllerState:
    """eps history (newest first: eps_{n+1}, eps_n, eps_{n-1}) and current dt."""

    dt_current: float
    eps_history: list = field(default_factory=lambda: [1.0, 1.0, 1.0])

    def push(self, eps):
        self.eps_history = [eps, self.eps_history[0], self.eps_history[1]]


@dataclass(frozen=True)
class StepDecision:
    accept: bool
    dt_next: float


def error_norm(u_new, uhat_new, cfg: ControllerConfig) -> float:
    """Weighted RMS of the error estimate; NaN anywhere, or a norm beyond the
    float range, gives +inf."""
    return float(error_norms(np.asarray(u_new)[None], np.asarray(uhat_new)[None],
                             [cfg.atol], [cfg.rtol])[0])


def error_norms(u_new, uhat_new, atol, rtol) -> np.ndarray:
    """error_norm of each member of two stacks of states, with a tolerance
    pair per member.  Each member reduces along one contiguous axis, so its
    norm is bit for bit the norm of its state alone.  Formed in place, with
    np.mean's sum and division by the count."""
    m = len(u_new)
    u_new = np.asarray(u_new, dtype=float).reshape(m, -1)
    uhat_new = np.asarray(uhat_new, dtype=float).reshape(m, -1)
    atol = np.asarray(atol, dtype=float)[:, None]
    rtol = np.asarray(rtol, dtype=float)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.abs(u_new)
        ratio = np.abs(uhat_new)
        np.maximum(scale, ratio, out=scale)
        np.multiply(rtol, scale, out=scale)
        np.add(atol, scale, out=scale)
        np.subtract(u_new, uhat_new, out=ratio)
        ratio /= scale
        ratio *= ratio
        w = np.add.reduce(ratio, axis=1)
        w /= u_new.shape[1]
        np.sqrt(w, out=w)
    w[np.isnan(w)] = math.inf
    return w


def inverse_error(w: float) -> float:
    """eps = 1/w with the floor that keeps exact steps from exploding dt."""
    return 1.0 / max(w, W_FLOOR)


def limit_factor(x: float) -> float:
    return 1.0 + math.atan(x - 1.0)


def pid_propose(state: ControllerState, cfg: ControllerConfig):
    """(dt_next, factor) from the current eps history."""
    e0, e1, e2 = state.eps_history
    factor = e0 ** (cfg.beta1 / cfg.k)
    if cfg.beta2 != 0.0:
        factor *= e1 ** (cfg.beta2 / cfg.k)
    if cfg.beta3 != 0.0:
        factor *= e2 ** (cfg.beta3 / cfg.k)
    if cfg.use_limiter:
        factor = limit_factor(factor)
    return factor * state.dt_current, factor


def accept_or_reject(factor, dt_current, dt_next, admissible, cfg: ControllerConfig) -> StepDecision:
    """Acceptance rule: bounds violations retry at dt/4, small factors retry
    at the controller's own proposal, anything else is accepted."""
    if not admissible:
        return StepDecision(False, dt_current * BOUNDS_REJECT_FACTOR)
    if factor >= ACCEPT_THRESHOLD:
        return StepDecision(True, dt_next)
    return StepDecision(False, dt_next)


def pid_decide(state: ControllerState, w: float, cfg: ControllerConfig) -> bool:
    """Accept or reject the attempt of step state.dt_current with error norm
    w, and set state.dt_current to the next step.  A finite w pushes 1/w
    before the decision, also when the step is rejected for it; w = +inf (a
    step not finite or admissible, or an error beyond the float range)
    pushes nothing and retries at a quarter of the step."""
    ok = w < math.inf
    if ok:
        state.push(inverse_error(w))
        dt_next, factor = pid_propose(state, cfg)
    else:
        dt_next, factor = state.dt_current, 0.0
    decision = accept_or_reject(factor, state.dt_current, dt_next, ok, cfg)
    state.dt_current = decision.dt_next
    return decision.accept


def initial_step(rhs, t0, u0, cfg: ControllerConfig, q, horizon=None, admissible=None):
    """Starting step size from norm/derivative probes plus an Euler trial."""
    u0 = np.asarray(u0, dtype=float)
    fallback = 1e-6 * horizon if horizon else 1e-6

    scale = cfg.atol + cfg.rtol * np.abs(u0)

    def wnorm(v):
        with np.errstate(over="ignore"):
            return float(np.sqrt(np.mean((v / scale) ** 2)))

    f0 = np.asarray(rhs(t0, u0), dtype=float)
    d0 = wnorm(u0)
    d1 = wnorm(f0)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    if not 0.0 < h0 < math.inf:     # a norm beyond the float range
        return fallback
    u1 = u0 + h0 * f0
    if not np.all(np.isfinite(u1)) or (admissible is not None and not admissible(u1)):
        return fallback
    f1 = np.asarray(rhs(t0 + h0, u1), dtype=float)
    if not np.all(np.isfinite(f1)):
        return fallback
    d2 = wnorm(f1 - f0) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / (q + 1))
    return min(100 * h0, h1)


@dataclass(frozen=True)
class CflConfig:
    """CFL-based control dt = nu * sigma * min_i(dx_i / lambda_max_i)."""

    nu: float
    sigma: float

    def __post_init__(self):
        if not (0 < self.nu < math.inf and 0 < self.sigma < math.inf):
            raise ValueError("nu and sigma must be finite and positive")

    def describe(self):
        return f"CFL(nu={self.nu:g}, sigma={self.sigma:g})"


class _CflUndefined(ValueError):
    """No finite positive timescale; integrate turns it into an abort."""


def cfl_dt(semi, u, cfg: CflConfig) -> float:
    """Stability-proxy step from the semidiscretization's local timescale.

    The semidiscretization reports min over nodes of 1 / sum_j(lambda_j/dx_j),
    the uniform-Cartesian reduction of the metric-based CFL factor.
    """
    return cfl_step(semi.cfl_timescale(u), cfg)


def cfl_step(timescale, cfg: CflConfig) -> float:
    """nu * sigma * timescale; _CflUndefined unless the timescale is finite
    and positive."""
    ts = float(timescale)
    if not math.isfinite(ts) or ts <= 0:
        raise _CflUndefined("CFL control undefined: no finite positive wave-speed timescale")
    return cfg.nu * cfg.sigma * ts
