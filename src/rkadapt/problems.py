"""Ready-to-run test problems with exact solutions and default horizons."""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np

from . import dgsem
from .dgsem import (AdvectionSemidisc2d, EulerSemidisc1d, EulerSemidisc2d,
                    Grid1d, Grid2d, GAMMA)

PROBLEM_NAMES = ("dahlquist", "advection2d", "vortex2d", "source1d")


@dataclass
class Problem:
    name: str
    semi: object            # RHS with admissibility predicate and metadata
    u0: np.ndarray
    t_end: float
    exact: callable         # exact(t) -> state, or None
    error_fn: callable      # error_fn(t, u) -> dict, or None
    t0: float = 0.0


class DahlquistRhs:
    """u' = lam * u; the scalar linear test problem on states of `ndim` axes,
    batched like the semidiscretizations."""

    batched = True

    def __init__(self, lam, ndim=1):
        self.lam = lam
        self._axes = tuple(range(-ndim, 0))

    def __call__(self, t, u):
        return self.lam * u

    def is_admissible(self, u):
        return dgsem._per_member(np.all(np.isfinite(u), axis=self._axes))


BOX = (-5.0, 5.0)             # advection2d and vortex2d run on BOX x BOX
VELOCITY = (1.0, 1.0)         # advection2d's transport velocity


def _dahlquist(lam=-1.0, t_end=10.0):
    u0 = np.ones(1)
    exact = lambda t: u0 * np.exp(lam * t)
    error_fn = lambda t, u: {"u": float(np.max(np.abs(u - exact(t))))}
    return Problem("dahlquist", DahlquistRhs(lam), u0, t_end, exact, error_fn)


def _advection2d(elements=8, degree=4, t_end=100.0, grid="uniform", seed=0):
    lo, hi = BOX
    if grid == "uniform":
        g = Grid2d.uniform(lo, hi, elements)
    elif grid == "perturbed":
        g = Grid2d.perturbed(lo, hi, elements, seed=seed)
    else:
        raise ValueError(f"unknown grid kind {grid!r}")
    semi = AdvectionSemidisc2d(g, degree, VELOCITY)
    length = hi - lo
    kx = 2.0 * np.pi / length

    def profile(x, y):
        return np.sin(kx * (x - lo)) * np.sin(kx * (y - lo))

    def exact(t):
        return profile(semi.X - VELOCITY[0] * t, semi.Y - VELOCITY[1] * t)

    u0 = exact(0.0)
    error_fn = lambda t, u: {"u": semi.l2_error(u, exact(t))}
    return Problem("advection2d", semi, u0, t_end, exact, error_fn)


def _vortex_state(semi, t):
    """Isentropic vortex of strength beta = 5 centred at the origin at t = 0,
    translated by Ma*(1,1)/sqrt(2) with Ma = 0.5, periodically wrapped on BOX.

    Steady profile: T = T_inf - (gamma-1) beta^2 exp(1-r^2) / (8 gamma pi^2)
    with T_inf = 1, tangential speed r beta exp((1-r^2)/2) / (2 pi),
    rho = T^(1/(gamma-1)), p = rho T; the free-stream Mach number enters
    through the translation velocity only, which keeps the translated profile
    an exact solution.
    """
    beta, t_inf = 5.0, 1.0
    lo, hi = BOX
    length = hi - lo
    vinf = 0.5 / math.sqrt(2.0)
    x = semi.X - vinf * t
    y = semi.Y - vinf * t
    x = (x - lo) % length + lo
    y = (y - lo) % length + lo
    r2 = x * x + y * y
    gm1 = GAMMA - 1.0
    T = t_inf - gm1 * beta ** 2 * np.exp(1.0 - r2) / (8.0 * GAMMA * np.pi ** 2)
    swirl = beta * np.exp(0.5 * (1.0 - r2)) / (2.0 * np.pi)
    vx = vinf - y * swirl
    vy = vinf + x * swirl
    rho = T ** (1.0 / gm1)
    p = rho * T
    u = np.empty(semi.X.shape + (4,))
    u[..., 0] = rho
    u[..., 1] = rho * vx
    u[..., 2] = rho * vy
    u[..., 3] = p / gm1 + 0.5 * rho * (vx * vx + vy * vy)
    return u


def _vortex2d(elements=20, degree=2, t_end=20.0):
    semi = EulerSemidisc2d(Grid2d.uniform(*BOX, elements), degree)
    exact = lambda t: _vortex_state(semi, t)
    u0 = exact(0.0)

    def error_fn(t, u):
        err = semi.l2_error(u, exact(t))
        return {"rho": float(err[0]), "rho_vx": float(err[1]),
                "rho_vy": float(err[2]), "rho_e": float(err[3])}

    return Problem("vortex2d", semi, u0, t_end, exact, error_fn)


def _source1d(elements=20, degree=2, t_end=20.0, pressure_amplitude=50.0):
    """Smooth density wave with a pressure cycle driven through an energy source.

    rho = 3/2 + sin(pi (x - t)), v = 1, p = 1 + A (1 + sin(omega t)) on
    [-1, 1] with omega = pi/5; the pressure swing modulates the acoustic CFL
    restriction over the run.
    """
    g = Grid1d.uniform(-1.0, 1.0, elements)
    A, w = pressure_amplitude, math.pi / 5.0
    # amplitude zero degenerates to a source-free traveling density wave
    source = None if A == 0.0 else (lambda t: A * w * math.cos(w * t) / (GAMMA - 1.0))
    semi = EulerSemidisc1d(g, degree, energy_source=source)

    def exact(t):
        x = semi.x
        rho = 1.5 + np.sin(np.pi * (x - t))
        p = 1.0 + A * (1.0 + math.sin(w * t))
        u = np.empty(x.shape + (3,))
        u[..., 0] = rho
        u[..., 1] = rho
        u[..., 2] = p / (GAMMA - 1.0) + 0.5 * rho
        return u

    u0 = exact(0.0)

    def error_fn(t, u):
        err = semi.l2_error(u, exact(t))
        return {"rho": float(err[0]), "rho_v": float(err[1]), "rho_e": float(err[2])}

    return Problem("source1d", semi, u0, t_end, exact, error_fn)


_FACTORIES = {
    "dahlquist": _dahlquist,
    "advection2d": _advection2d,
    "vortex2d": _vortex2d,
    "source1d": _source1d,
}


def make_problem(name, **overrides) -> Problem:
    """Build a named test problem; keyword overrides replace the defaults."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; choose from {', '.join(PROBLEM_NAMES)}") from None
    return factory(**overrides)


def parameters(name):
    """Names of the settings make_problem(name, ...) takes; none if unknown."""
    return inspect.signature(_FACTORIES[name]).parameters if name in _FACTORIES else {}


# the controller optimizer's problems and the sizes it runs them at: the
# vortex on a coarse grid over a truncated horizon, the source problem whole
SEARCH_DEFAULTS = {
    "vortex2d": {"elements": 8, "degree": 2, "t_end": 4.0},
    "source1d": {"t_end": 20.0},
}


def search_suite():
    """Truncated-horizon problem set used by the controller optimizer."""
    return [make_problem(name, **kw) for name, kw in SEARCH_DEFAULTS.items()]


def cfl_sigma(problem) -> float:
    """Degree-dependent CFL normalization for a problem's discretization."""
    return dgsem.sigma_for_degree(problem.semi.op.p)
