import math

import numpy as np
import pytest

from rkadapt.catalog import catalog_get
from rkadapt.control import ControllerConfig
from rkadapt.integrate import integrate
from rkadapt.problems import PROBLEM_NAMES, make_problem, parameters, search_suite


def test_parameters_are_the_settings_callers_set():
    assert {name: list(parameters(name)) for name in PROBLEM_NAMES} == {
        "dahlquist": ["lam", "t_end"],
        "advection2d": ["elements", "degree", "t_end", "grid", "seed"],
        "vortex2d": ["elements", "degree", "t_end"],
        "source1d": ["elements", "degree", "t_end", "pressure_amplitude"],
    }
    assert parameters("tgv3d") == {}


def test_unknown_problem_name():
    with pytest.raises(ValueError, match="unknown problem"):
        make_problem("tgv3d")


def test_source1d_exact_density_at_origin():
    prob = make_problem("source1d")
    state = prob.exact(0.0)
    # rho(0, x) = 3/2 + sin(pi x); node nearest x = 0
    x = prob.semi.x
    idx = np.unravel_index(np.argmin(np.abs(x)), x.shape)
    assert state[idx + (0,)] == pytest.approx(1.5 + math.sin(math.pi * x[idx]), abs=1e-14)


def test_vortex_far_field_temperature():
    prob = make_problem("vortex2d", elements=10, degree=2)
    state = prob.exact(0.0)
    rho, p = state[..., 0], None
    # far corner node: r ~ 7, the exponential is ~1e-21
    T = ((1.4 - 1.0) * (state[..., 3] - 0.5 *
         (state[..., 1] ** 2 + state[..., 2] ** 2) / rho)) / rho
    X, Y = prob.semi.X, prob.semi.Y
    far = (X ** 2 + Y ** 2) > 40.0
    assert np.max(np.abs(T[far] - 1.0)) <= 1e-7


def test_vortex_tangential_velocity_at_unit_radius():
    prob = make_problem("vortex2d")
    state = prob.exact(0.0)
    vinf = 0.5 / math.sqrt(2.0)
    vx = state[..., 1] / state[..., 0] - vinf
    vy = state[..., 2] / state[..., 0] - vinf
    X, Y = prob.semi.X, prob.semi.Y
    r = np.sqrt(X ** 2 + Y ** 2)
    i = np.unravel_index(np.argmin(np.abs(r - 1.0)), r.shape)
    vt = math.hypot(vx[i], vy[i])
    expected = r[i] * 5.0 / (2 * math.pi) * math.exp(0.5 * (1 - r[i] ** 2))
    assert vt == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(5.0 / (2 * math.pi), rel=0.2)


@pytest.mark.parametrize("name", ["dahlquist", "advection2d", "vortex2d", "source1d"])
def test_initial_state_matches_exact_at_time_zero(name):
    prob = make_problem(name)
    assert np.max(np.abs(prob.u0 - prob.exact(0.0))) <= 1e-12
    assert prob.semi.is_admissible(prob.u0)


def test_search_suite_uses_truncated_horizons():
    suite = search_suite()
    horizons = {p.name: p.t_end for p in suite}
    assert horizons == {"vortex2d": 4.0, "source1d": 20.0}


def _oversampled_vortex_error(semi, u, exact_fn, t):
    """Dense tensor-Gauss quadrature of the density error (oracle)."""
    xg, wg = np.polynomial.legendre.leggauss(12)
    op = semi.op
    V = np.ones((len(xg), op.n))
    for j in range(op.n):
        for m in range(op.n):
            if m != j:
                V[:, j] *= (xg - op.nodes[m]) / (op.nodes[j] - op.nodes[m])
    gx, gy = semi.grid.x, semi.grid.y
    total = 0.0
    for e in range(gx.nel):
        for f in range(gy.nel):
            xf = gx.boundaries[e] + (xg + 1.0) * semi.jx[e]
            yf = gy.boundaries[f] + (xg + 1.0) * semi.jy[f]
            interp = V @ u[e, f, :, :, 0] @ V.T
            exact = exact_fn(t, xf[:, None], yf[None, :])
            w2 = wg[:, None] * wg[None, :]
            total += semi.jx[e] * semi.jy[f] * np.sum(w2 * (interp - exact) ** 2)
    return math.sqrt(total)


def test_vortex_translation_consistency():
    """The translated vortex is an exact solution: over one full translation
    period the density error stays at the spatial-discretization scale and
    grows at most linearly in time (a profile that is not actually steady
    drifts to O(1) error within a fraction of a period)."""
    Ma = 0.5
    period = 10.0 / (Ma / math.sqrt(2.0))
    prob = make_problem("vortex2d", elements=16, degree=3, t_end=period)
    semi = prob.semi

    def exact_density(t, x, y):
        vinf = Ma / math.sqrt(2.0)
        xs = (x - vinf * t + 5.0) % 10.0 - 5.0
        ys = (y - vinf * t + 5.0) % 10.0 - 5.0
        r2 = xs ** 2 + ys ** 2
        T = 1.0 - 0.4 * 25.0 * np.exp(1.0 - r2) / (8 * 1.4 * math.pi ** 2)
        return T ** (1.0 / 0.4)

    proj_err = _oversampled_vortex_error(semi, prob.u0, exact_density, 0.0)
    scheme = catalog_get("rk49-3s+fsal")
    cfg = ControllerConfig.for_scheme(scheme, tol=1e-8, beta=(0.38, -0.18, 0.01))
    quarter = integrate(scheme, semi, cfg, 0.0, period / 4.0, prob.u0)
    err_quarter = _oversampled_vortex_error(semi, quarter.u_final, exact_density,
                                            period / 4.0)
    rep = integrate(scheme, semi, cfg, 0.0, period, prob.u0)
    final_err = _oversampled_vortex_error(semi, rep.u_final, exact_density, period)
    assert final_err <= 4.0 * 4.0 * err_quarter      # at most linear-in-time growth
    assert final_err <= 0.05                         # spatial scale, not O(1) drift
    assert proj_err < err_quarter < final_err
