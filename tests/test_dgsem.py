import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkadapt import dgsem
from rkadapt.catalog import catalog_get
from rkadapt.control import ControllerConfig
from rkadapt.dgsem import (AdvectionSemidisc1d, AdvectionSemidisc2d,
                           EulerSemidisc1d, EulerSemidisc2d, GAMMA, Grid1d,
                           Grid2d, lgl_operator)
from rkadapt.integrate import integrate
from rkadapt.problems import DahlquistRhs, make_problem


@pytest.mark.parametrize("p", [1, 2, 3, 4, 7])
def test_lgl_operator_invariants(p):
    op = lgl_operator(p)
    assert op.weights.sum() == pytest.approx(2.0, abs=1e-14)
    assert np.max(np.abs(op.D @ np.ones(p + 1))) <= 1e-13
    for k in range(p + 1):
        exact = k * op.nodes ** (k - 1) if k > 0 else np.zeros(p + 1)
        assert np.max(np.abs(op.D @ op.nodes ** k - exact)) <= 1e-12


def test_advection_constant_state_is_steady():
    semi = AdvectionSemidisc2d(Grid2d.uniform(-5, 5, 4), 3, (1.0, 1.0))
    u = np.full((4, 4, 4, 4), 0.7)
    assert np.max(np.abs(semi.rhs(0.0, u))) <= 1e-13


def test_euler_uniform_flow_is_steady():
    semi = EulerSemidisc2d(Grid2d.uniform(-5, 5, 4), 2)
    u = np.zeros((4, 4, 3, 3, 4))
    u[..., 0] = 1.0
    u[..., 3] = 1.0 / (GAMMA - 1.0)
    assert np.max(np.abs(semi.rhs(0.0, u))) <= 1e-13


def test_1d_operator_spectrum_in_left_half_plane():
    semi = AdvectionSemidisc1d(Grid1d.uniform(0, 1, 8), 2, 1.0)
    ev = np.linalg.eigvals(semi.as_matrix())
    assert np.max(ev.real) <= 1e-10


def test_advection_rhs_is_linear():
    semi = AdvectionSemidisc2d(Grid2d.uniform(-1, 1, 3), 2, (0.7, -0.3))
    rng = np.random.default_rng(4)
    u = rng.standard_normal((3, 3, 3, 3))
    w = rng.standard_normal((3, 3, 3, 3))
    lhs = semi.rhs(0.0, 2.0 * u - 0.5 * w)
    rhs = 2.0 * semi.rhs(0.0, u) - 0.5 * semi.rhs(0.0, w)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_l2_error_trivial_cases():
    semi = AdvectionSemidisc2d(Grid2d.uniform(-5, 5, 4), 3, (1.0, 1.0))
    u = np.random.default_rng(0).standard_normal((4, 4, 4, 4))
    assert semi.l2_error(u, u) == 0.0
    ones = np.ones((4, 4, 4, 4))
    assert semi.l2_error(ones, np.zeros_like(ones)) == pytest.approx(10.0, rel=1e-13)


def _dense_reference_l2(semi, u, fn):
    """Oversampled-quadrature oracle for the interpolation L2 error (1D)."""
    xg, wg = np.polynomial.legendre.leggauss(50)
    op = semi.op
    total = 0.0
    # Lagrange basis evaluated at the dense points
    V = np.ones((len(xg), op.n))
    for j in range(op.n):
        for m in range(op.n):
            if m != j:
                V[:, j] *= (xg - op.nodes[m]) / (op.nodes[j] - op.nodes[m])
    for e in range(semi.grid.nel):
        jac = semi.jacobian[e]
        xf = semi.grid.boundaries[e] + (xg + 1.0) * jac
        interp = V @ u[e]
        total += jac * np.sum(wg * (interp - fn(xf)) ** 2)
    return math.sqrt(total)


def test_l2_error_against_oversampled_oracle():
    # the LGL rule integrates (u - ref)^2 exactly when the mismatch has
    # degree <= p - 1/2 of the rule's exactness; a cubic mismatch on p = 4
    # must reproduce the dense-quadrature oracle to roundoff
    semi = AdvectionSemidisc1d(Grid1d.uniform(-1, 1, 8), 4, 1.0)
    u = np.sin(np.pi * semi.x)
    ref = u + 0.01 * (semi.x ** 3 - 0.4 * semi.x)
    discrete = semi.l2_error(u, ref)
    oracle = _dense_reference_l2(semi, u - ref, lambda x: 0.0 * x)
    assert discrete == pytest.approx(oracle, abs=1e-10)


def test_interpolation_error_matches_dense_quadrature():
    semi = AdvectionSemidisc1d(Grid1d.uniform(-1, 1, 8), 4, 1.0)
    fn = lambda x: np.sin(np.pi * x)
    u = fn(semi.x)
    oracle = _dense_reference_l2(semi, u, fn)
    assert 1e-8 < oracle < 1e-4   # under-resolved but small interpolation error


def test_euler_max_wave_speed_is_sound_speed_at_rest():
    semi = EulerSemidisc1d(Grid1d.uniform(0, 1, 5), 2)
    u = np.zeros((5, 3, 3))
    u[..., 0] = 1.0
    u[..., 2] = 1.0 / (GAMMA - 1.0)
    ts = semi.cfl_timescale(u)
    assert ts == pytest.approx(0.2 / math.sqrt(GAMMA), rel=1e-13)


def test_source_term_manufactured_solution_convergence():
    """rhs(exact solution) converges to the analytic time derivative at the
    spatial order of the collocation operator (h^p)."""
    A_p, omega = 50.0, math.pi / 5.0
    t = 0.7
    p = 3
    resids = []
    for nel in (10, 20, 40):
        prob = make_problem("source1d", elements=nel, degree=p, pressure_amplitude=A_p)
        semi = prob.semi
        x = semi.x
        du_exact = np.empty(x.shape + (3,))
        drho = -math.pi * np.cos(math.pi * (x - t))
        du_exact[..., 0] = drho
        du_exact[..., 1] = drho
        du_exact[..., 2] = A_p * omega * math.cos(omega * t) / (GAMMA - 1.0) + 0.5 * drho
        resid = semi.rhs(t, prob.exact(t)) - du_exact
        resids.append(float(np.max(semi.l2_error(resid, np.zeros_like(resid)))))
    orders = [math.log2(resids[i] / resids[i + 1]) for i in range(2)]
    assert min(orders) >= p - 0.2, (resids, orders)


def test_conservation_under_tight_tolerance_integration():
    # 1D source-free wave: roundoff floor eps * integral(|rho e|) / dt is
    # well below 1e-12 per unit time at this state magnitude
    prob = make_problem("source1d", pressure_amplitude=0.0, t_end=3.0)
    scheme = catalog_get("rk35-3s+fsal")
    cfg = ControllerConfig.for_scheme(scheme, tol=1e-7, beta=(0.70, -0.23, 0.0))
    before = prob.semi.integral(prob.u0)
    rep = integrate(scheme, prob.semi, cfg, 0.0, prob.t_end, prob.u0)
    after = prob.semi.integral(rep.u_final)
    drift_rate = np.max(np.abs(after - before)) / prob.t_end
    assert drift_rate <= 1e-12

    # 2D vortex: the energy integral is O(250), so the attainable floor is
    # a few times 1e-12 per unit time; assert the roundoff-level scale
    prob2 = make_problem("vortex2d", elements=8, degree=2, t_end=2.0)
    before2 = prob2.semi.integral(prob2.u0)
    rep2 = integrate(scheme, prob2.semi, cfg, 0.0, prob2.t_end, prob2.u0)
    after2 = prob2.semi.integral(rep2.u_final)
    assert np.max(np.abs(after2 - before2)) / prob2.t_end <= 5e-12


def test_spatial_convergence_order_advection():
    scheme = catalog_get("rk49-3s+fsal")
    errs = []
    for nel in (4, 8, 16, 32):
        semi = AdvectionSemidisc1d(Grid1d.uniform(-1, 1, nel), 2, 1.0)
        exact = lambda t: np.sin(np.pi * (semi.x - t))
        cfg = ControllerConfig.for_scheme(scheme, tol=1e-9, beta=(0.38, -0.18, 0.01))
        rep = integrate(scheme, semi, cfg, 0.0, 2.0, exact(0.0))
        errs.append(semi.l2_error(rep.u_final, exact(2.0)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
    assert min(orders) >= 2.5   # >= p + 1/2 for p = 2


def test_sigma_for_degree_is_element_count_independent():
    s8 = dgsem.sigma_for_degree(3, nel=8)
    s16 = dgsem.sigma_for_degree(3, nel=16)
    assert s8 == pytest.approx(s16, rel=1e-10)


def test_perturbed_grid_keeps_quadrature_exact():
    g = Grid1d.perturbed(-1, 1, 8, amplitude=0.2, seed=1)
    semi = AdvectionSemidisc1d(g, 3, 1.0)
    assert semi.integral(np.ones((8, 4))) == pytest.approx(2.0, rel=1e-13)


# ---------------------------------------------------------------------------
# generated states: the kernels against the recomputing formulation

def _ref_flux_1d(u):
    rho, v, p = dgsem.euler_primitives_1d(u)
    f = np.empty_like(u)
    f[..., 0] = u[..., 1]
    f[..., 1] = u[..., 1] * v + p
    f[..., 2] = (u[..., 2] + p) * v
    return f


def _ref_flux_2d(u, axis):
    rho, vx, vy, p = dgsem.euler_primitives_2d(u)
    vn = vx if axis == 0 else vy
    f = np.empty_like(u)
    f[..., 0] = rho * vn
    f[..., 1] = u[..., 1] * vn
    f[..., 2] = u[..., 2] * vn
    if axis == 0:
        f[..., 1] += p
    else:
        f[..., 2] += p
    f[..., 3] = (u[..., 3] + p) * vn
    return f


def _ref_speed_2d(u, axis):
    rho, vx, vy, p = dgsem.euler_primitives_2d(u)
    return np.abs(vx if axis == 0 else vy) + dgsem._sound_speed(rho, p)


def _ref_llf(fl, fr, ul, ur, lam):
    return 0.5 * (fl + fr) - 0.5 * lam[..., None] * (ur - ul)


def _reference_rhs(semi, t, u):
    """Each semidiscretization's RHS with every face state rebuilt by
    np.roll and its primitives, sound speed and flux recomputed there; the
    volume terms are the kernels' matrix products."""
    op = semi.op
    D, w0, wN = op.D, op.weights[0], op.weights[-1]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if isinstance(semi, AdvectionSemidisc1d):
            a, jac = semi.a, semi.jacobian
            du = -(a / jac[:, None]) * (u @ D.T)
            if a > 0:
                du[:, 0] += (a / (jac * w0)) * (np.roll(u[:, -1], 1) - u[:, 0])
            elif a < 0:
                du[:, -1] += (-a / (jac * wN)) * (np.roll(u[:, 0], -1) - u[:, -1])
            return du
        if isinstance(semi, AdvectionSemidisc2d):
            (ax, ay), jx, jy = semi.a, semi.jx, semi.jy
            du = np.zeros_like(u)
            if ax != 0.0:
                du -= (ax / jx[:, None, None, None]) * np.matmul(D, u)
                if ax > 0:
                    jump = np.roll(u[:, :, -1, :], 1, axis=0) - u[:, :, 0, :]
                    du[:, :, 0, :] += (ax / (jx[:, None, None] * w0)) * jump
                else:
                    jump = np.roll(u[:, :, 0, :], -1, axis=0) - u[:, :, -1, :]
                    du[:, :, -1, :] += (-ax / (jx[:, None, None] * wN)) * jump
            if ay != 0.0:
                du -= (ay / jy[None, :, None, None]) * (u @ D.T)
                if ay > 0:
                    jump = np.roll(u[:, :, :, -1], 1, axis=1) - u[:, :, :, 0]
                    du[:, :, :, 0] += (ay / (jy[None, :, None] * w0)) * jump
                else:
                    jump = np.roll(u[:, :, :, 0], -1, axis=1) - u[:, :, :, -1]
                    du[:, :, :, -1] += (-ay / (jy[None, :, None] * wN)) * jump
            return du
        if isinstance(semi, EulerSemidisc1d):
            jac = semi.jacobian
            f = _ref_flux_1d(u)
            du = -(1.0 / jac[:, None, None]) * np.matmul(D, f)
            uR = u[:, 0, :]
            uL = np.roll(u[:, -1, :], 1, axis=0)
            rhoL, vL, pL = dgsem.euler_primitives_1d(uL)
            rhoR, vR, pR = dgsem.euler_primitives_1d(uR)
            lam = np.maximum(np.abs(vL) + dgsem._sound_speed(rhoL, pL),
                             np.abs(vR) + dgsem._sound_speed(rhoR, pR))
            fstar = _ref_llf(_ref_flux_1d(uL), _ref_flux_1d(uR), uL, uR, lam)
            du[:, 0, :] += (fstar - f[:, 0, :]) / (jac[:, None] * w0)
            du[:, -1, :] -= (np.roll(fstar, -1, axis=0) - f[:, -1, :]) / (jac[:, None] * wN)
            if semi.energy_source is not None:
                du[..., 2] += semi.energy_source(t)
            return du
        jx, jy = semi.jx[:, None, None, None], semi.jy[None, :, None, None]
        fx, fy = _ref_flux_2d(u, 0), _ref_flux_2d(u, 1)
        dfx = np.matmul(D, fx.reshape(fx.shape[:-3] + (len(D), -1))).reshape(fx.shape)
        du = -(1.0 / jx[..., None]) * dfx
        du -= (1.0 / jy[..., None]) * np.matmul(D, fy)
        uR = u[:, :, 0, :, :]
        uL = np.roll(u[:, :, -1, :, :], 1, axis=0)
        lam = np.maximum(_ref_speed_2d(uL, 0), _ref_speed_2d(uR, 0))
        fstar = _ref_llf(_ref_flux_2d(uL, 0), _ref_flux_2d(uR, 0), uL, uR, lam)
        du[:, :, 0, :, :] += (fstar - fx[:, :, 0, :, :]) / (jx * w0)
        du[:, :, -1, :, :] -= (np.roll(fstar, -1, axis=0) - fx[:, :, -1, :, :]) / (jx * wN)
        uR = u[:, :, :, 0, :]
        uL = np.roll(u[:, :, :, -1, :], 1, axis=1)
        lam = np.maximum(_ref_speed_2d(uL, 1), _ref_speed_2d(uR, 1))
        fstar = _ref_llf(_ref_flux_2d(uL, 1), _ref_flux_2d(uR, 1), uL, uR, lam)
        du[:, :, :, 0, :] += (fstar - fy[:, :, :, 0, :]) / (jy * w0)
        du[:, :, :, -1, :] -= (np.roll(fstar, -1, axis=1) - fy[:, :, :, -1, :]) / (jy * wN)
        return du


def _euler_state(shape, dim, seed, amplitude):
    """Conservative variables of a random perturbation of a moving uniform
    flow, with density and pressure kept positive."""
    rng = np.random.default_rng(seed)
    bump = lambda: amplitude * rng.uniform(-1.0, 1.0, shape)
    rho = 1.0 + bump()
    vel = [0.5 * (k + 1) + 2.0 * bump() for k in range(dim)]
    p = 1.0 + bump()
    u = np.empty(shape + (dim + 2,))
    u[..., 0] = rho
    for k, v in enumerate(vel):
        u[..., 1 + k] = rho * v
    u[..., -1] = p / (GAMMA - 1.0) + 0.5 * rho * sum(v * v for v in vel)
    return u


def _grid1d(nel, kind, seed, lo=-1.0, hi=1.0):
    if kind == "uniform":
        return Grid1d.uniform(lo, hi, nel)
    if kind == "unit":
        return Grid1d(np.arange(nel + 1.0))
    return Grid1d.perturbed(lo, hi, nel, amplitude=0.3, seed=seed)


_kinds = st.sampled_from(["uniform", "perturbed"])
_amplitudes = st.sampled_from([0.0, 0.3, 0.9])
_seeds = st.integers(0, 2 ** 16)


@settings(max_examples=60, deadline=None)
@given(nel=st.integers(1, 6), p=st.integers(1, 4), kind=_kinds,
       amplitude=_amplitudes, seed=_seeds, source=st.booleans())
def test_euler_1d_rhs_bit_identical_to_recomputed_faces(nel, p, kind, amplitude,
                                                        seed, source):
    energy_source = (lambda t: 30.0 * math.cos(0.6 * t)) if source else None
    semi = EulerSemidisc1d(_grid1d(nel, kind, seed), p, energy_source=energy_source)
    u = _euler_state((nel, p + 1), 1, seed, amplitude)
    assert semi.is_admissible(u)
    assert np.array_equal(semi.rhs(0.4, u), _reference_rhs(semi, 0.4, u))


@settings(max_examples=60, deadline=None)
@given(nex=st.integers(1, 4), ney=st.integers(1, 4), p=st.integers(1, 4),
       kind=_kinds, amplitude=_amplitudes, seed=_seeds)
def test_euler_2d_rhs_bit_identical_to_recomputed_faces(nex, ney, p, kind,
                                                        amplitude, seed):
    grid = Grid2d(_grid1d(nex, kind, seed), _grid1d(ney, kind, seed + 1, 0.0, 3.0))
    semi = EulerSemidisc2d(grid, p)
    u = _euler_state((nex, ney, p + 1, p + 1), 2, seed, amplitude)
    assert semi.is_admissible(u)
    assert np.array_equal(semi.rhs(0.0, u), _reference_rhs(semi, 0.0, u))


_velocities = st.sampled_from([-1.3, -0.4, 0.0, 0.7, 2.0])


@settings(max_examples=60, deadline=None)
@given(nel=st.integers(1, 6), nex=st.integers(1, 4), ney=st.integers(1, 4),
       p=st.integers(1, 4), kind=_kinds, a=_velocities, b=_velocities, seed=_seeds)
def test_advection_rhs_bit_identical_to_rolled_faces(nel, nex, ney, p, kind, a, b,
                                                     seed):
    rng = np.random.default_rng(seed)
    semi = AdvectionSemidisc1d(_grid1d(nel, kind, seed), p, a)
    u = rng.standard_normal((nel, p + 1))
    assert np.array_equal(semi.rhs(0.0, u), _reference_rhs(semi, 0.0, u))
    grid = Grid2d(_grid1d(nex, kind, seed), _grid1d(ney, kind, seed + 1))
    semi = AdvectionSemidisc2d(grid, p, (a, b))
    u = rng.standard_normal((nex, ney, p + 1, p + 1))
    assert np.array_equal(semi.rhs(0.0, u), _reference_rhs(semi, 0.0, u))


def _semis_and_states(nel, p, seed):
    """Each semidiscretization on a grid of equal unit-width elements (nel
    by nel + 1 in 2D) with a random state."""
    rng = np.random.default_rng(seed)
    g1, g2 = _grid1d(nel, "unit", 0), Grid2d(_grid1d(nel, "unit", 0),
                                             _grid1d(nel + 1, "unit", 0))
    n = p + 1
    return [
        (AdvectionSemidisc1d(g1, p, 0.8), rng.standard_normal((nel, n))),
        (AdvectionSemidisc1d(g1, p, -0.8), rng.standard_normal((nel, n))),
        (AdvectionSemidisc2d(g2, p, (0.8, -0.5)),
         rng.standard_normal((nel, nel + 1, n, n))),
        (AdvectionSemidisc2d(g2, p, (-0.8, 0.5)),
         rng.standard_normal((nel, nel + 1, n, n))),
        (EulerSemidisc1d(g1, p, energy_source=lambda t: 2.0),
         _euler_state((nel, n), 1, seed, 0.5)),
        (EulerSemidisc2d(g2, p), _euler_state((nel, nel + 1, n, n), 2, seed, 0.5)),
    ]


@settings(max_examples=20, deadline=None)
@given(nel=st.integers(3, 5), p=st.integers(1, 4), seed=_seeds)
def test_rhs_commutes_with_an_element_shift_on_equal_elements(nel, p, seed):
    for semi, u in _semis_and_states(nel, p, seed):
        du = semi.rhs(0.0, u)
        for axis in range(u.ndim // 2):
            shifted = semi.rhs(0.0, np.roll(u, 1, axis=axis))
            assert np.array_equal(shifted, np.roll(du, 1, axis=axis))


def _elements_touched(semi, u, du, axis, node):
    """Indices along `axis` of the elements whose RHS changes when the
    end node `node` (0 or -1) of element 1 (element (1, 1) in 2D) moves."""
    dim = u.ndim // 2
    index = [1] * dim + [slice(None)] * (u.ndim - dim)
    index[dim + axis] = node
    bumped = u.copy()
    bumped[tuple(index)] *= 1.01
    changed = semi.rhs(0.0, bumped) != du
    other = tuple(k for k in range(u.ndim) if k != axis)
    return set(np.nonzero(changed.any(axis=other))[0])


@settings(max_examples=20, deadline=None)
@given(nel=st.integers(3, 5), p=st.integers(1, 4), seed=_seeds)
def test_end_nodes_couple_only_to_the_element_across_their_face(nel, p, seed):
    # the last node of element k lies on the face it shares with element
    # k + 1, its first node on the face shared with k - 1; a kernel that
    # swaps its left and right neighbour indices couples them the other way
    # round, yet still commutes with the element shift above
    for semi, u in _semis_and_states(nel, p, seed):
        du = semi.rhs(0.0, u)
        for axis in range(u.ndim // 2):
            last = _elements_touched(semi, u, du, axis, -1)
            first = _elements_touched(semi, u, du, axis, 0)
            assert last <= {1, 2} and first <= {0, 1}, (type(semi), axis)
            assert last | first > {1}, (type(semi), axis)


@settings(max_examples=30, deadline=None)
@given(nel=st.integers(1, 6), p=st.integers(1, 4), kind=_kinds,
       amplitude=_amplitudes, seed=_seeds)
def test_source_free_euler_rhs_conserves_every_variable(nel, p, kind, amplitude,
                                                        seed):
    grid = _grid1d(nel, kind, seed)
    cases = [
        (EulerSemidisc1d(grid, p), _euler_state((nel, p + 1), 1, seed, amplitude)),
        (EulerSemidisc2d(Grid2d(grid, _grid1d(nel + 1, kind, seed + 1)), p),
         _euler_state((nel, nel + 1, p + 1, p + 1), 2, seed, amplitude)),
    ]
    for semi, u in cases:
        total = semi.integral(semi.rhs(0.0, u))
        scale = semi.integral(np.abs(u))
        assert np.all(np.abs(total) <= 1e-12 * scale), (total, scale)


def _reference_quadrature(semi, u, ref):
    """(integral(u), l2_error(u, ref)) in each class's explicit sum and
    einsum forms: floats for the scalar fields, per-variable arrays for the
    Euler systems."""
    w = semi.op.weights
    d = (u - ref) ** 2
    if isinstance(semi, (AdvectionSemidisc1d, EulerSemidisc1d)):
        jac = semi.jacobian
        wvol = jac[:, None] * w[None, :]
        if isinstance(semi, AdvectionSemidisc1d):
            return (float(np.sum(u * wvol)),
                    float(np.sqrt(np.einsum("en,e,n->", d, jac, w))))
        return (np.sum(u * wvol[..., None], axis=(0, 1)),
                np.sqrt(np.einsum("env,e,n->v", d, jac, w)))
    jx, jy = semi.jx, semi.jy
    wvol = (jx[:, None, None, None] * jy[None, :, None, None]
            * w[None, None, :, None] * w[None, None, None, :])
    if isinstance(semi, AdvectionSemidisc2d):
        return (float(np.sum(u * wvol)),
                float(np.sqrt(np.einsum("efab,e,f,a,b->", d, jx, jy, w, w))))
    return (np.sum(u * wvol[..., None], axis=(0, 1, 2, 3)),
            np.sqrt(np.einsum("efabv,e,f,a,b->v", d, jx, jy, w, w)))


@settings(max_examples=60, deadline=None)
@given(nel=st.integers(1, 6), nex=st.integers(1, 4), ney=st.integers(1, 4),
       p=st.integers(1, 4), kind=_kinds, amplitude=_amplitudes, seed=_seeds,
       magnitude=st.sampled_from([1e-3, 1.0, 1e3]))
def test_quadrature_bit_identical_to_per_class_forms(nel, nex, ney, p, kind, amplitude,
                                                     seed, magnitude):
    rng = np.random.default_rng(seed)
    g1 = _grid1d(nel, kind, seed)
    g2 = Grid2d(_grid1d(nex, kind, seed), _grid1d(ney, kind, seed + 1, 0.0, 3.0))
    n = p + 1
    cases = [
        (AdvectionSemidisc1d(g1, p, 0.7), (nel, n), None),
        (AdvectionSemidisc2d(g2, p, (0.7, -0.4)), (nex, ney, n, n), None),
        (EulerSemidisc1d(g1, p), (nel, n), 1),
        (EulerSemidisc2d(g2, p), (nex, ney, n, n), 2),
    ]
    for semi, shape, dim in cases:
        if dim is None:
            u, ref = (magnitude * rng.standard_normal(shape) for _ in range(2))
        else:
            u, ref = (_euler_state(shape, dim, seed + k, amplitude) for k in range(2))
        got = (semi.integral(u), semi.l2_error(u, ref))
        want = _reference_quadrature(semi, u, ref)
        for g, w in zip(got, want):
            assert type(g) is type(w) and np.array_equal(g, w), type(semi)
        assert semi.n_dof == u.size


# ---------------------------------------------------------------------------
# member stacks: one batched call equals the member-by-member calls

def _python_float_source(t):
    # the batched kernel evaluates the source per member with math.cos; a
    # numpy time here would mean an array evaluation with np.cos
    assert type(t) is float
    return 30.0 * math.cos(0.6 * t)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 5), nex=st.integers(1, 4), ney=st.integers(1, 4),
       p=st.integers(1, 4), kind=_kinds, amplitude=_amplitudes, seed=_seeds,
       a=_velocities, b=_velocities)
def test_batched_kernels_equal_per_member_calls(m, nex, ney, p, kind, amplitude, seed,
                                                a, b):
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.0, 10.0, m)
    g1 = _grid1d(nex, kind, seed)
    g2 = Grid2d(g1, _grid1d(ney, kind, seed + 1, 0.0, 3.0))
    n = p + 1
    cases = [
        (EulerSemidisc1d(g1, p, energy_source=_python_float_source),
         np.stack([_euler_state((nex, n), 1, seed + k, amplitude) for k in range(m)])),
        (EulerSemidisc2d(g2, p),
         np.stack([_euler_state((nex, ney, n, n), 2, seed + k, amplitude)
                   for k in range(m)])),
        (AdvectionSemidisc2d(g2, p, (a, b)), rng.standard_normal((m, nex, ney, n, n))),
        (AdvectionSemidisc1d(g1, p, a), rng.standard_normal((m, nex, n))),
        (DahlquistRhs(a, 2), rng.standard_normal((m, ney, n))),
    ]
    for semi, u in cases:
        assert semi.batched
        du = semi(times, u)
        for k in range(m):
            assert np.array_equal(du[k], semi(float(times[k]), u[k])), type(semi)
        # one member out of bounds, one not finite
        u = u.copy()
        if getattr(semi, "nvar", None):
            u[0, ..., -1] *= -1.0
        u[-1, 0] = np.nan
        for method in ("is_admissible", "cfl_timescale"):
            if not hasattr(semi, method):
                continue
            with np.errstate(invalid="ignore"):
                got = getattr(semi, method)(u)
                want = [getattr(semi, method)(v) for v in u]
            assert got.shape == (m,)
            assert np.array_equal(np.asarray(got, dtype=float), np.asarray(want, dtype=float),
                                  equal_nan=True), (type(semi), method)


def _output_contract_cases():
    """Every built-in semidiscretization and the Dahlquist problem, each
    with a state, on small perturbed grids."""
    rng = np.random.default_rng(7)
    g1 = _grid1d(3, "perturbed", 7)
    g2 = Grid2d(g1, _grid1d(2, "perturbed", 8, 0.0, 3.0))
    n = 3
    cases = {
        "advection1d": (AdvectionSemidisc1d(g1, 2, 0.7), rng.standard_normal((3, n))),
        "advection2d": (AdvectionSemidisc2d(g2, 2, (0.7, -0.4)),
                        rng.standard_normal((3, 2, n, n))),
        "euler1d": (EulerSemidisc1d(g1, 2), _euler_state((3, n), 1, 7, 0.3)),
        "euler1d+source": (EulerSemidisc1d(g1, 2, energy_source=_python_float_source),
                           _euler_state((3, n), 1, 8, 0.3)),
        "euler2d": (EulerSemidisc2d(g2, 2), _euler_state((3, 2, n, n), 2, 7, 0.3)),
        "dahlquist": (DahlquistRhs(-0.8, 2), rng.standard_normal((3, n))),
    }
    return [pytest.param(rhs, state, id=name) for name, (rhs, state) in cases.items()]


@pytest.mark.parametrize("rhs, state", _output_contract_cases())
@pytest.mark.parametrize("m", [None, 1, 3])
def test_rhs_returns_a_fresh_c_contiguous_array_and_keeps_its_input(rhs, state, m):
    # integrate_ensemble keeps rows of earlier RHS results as FSAL caches
    # across attempts, so a kernel that hands back a reused buffer, or a
    # view of its input, would corrupt them without any error
    if m is None:
        t, u = 0.3, state.copy()
    else:
        t = np.linspace(0.1, 0.9, m)
        u = np.stack([state * (1.0 + 1e-3 * k) for k in range(m)])
    before = u.copy()
    first = rhs(t, u)
    second = rhs(t, u)
    for du in (first, second):
        assert type(du) is np.ndarray and du.dtype == np.float64
        assert du.shape == u.shape and du.flags.c_contiguous
        assert not np.shares_memory(du, u)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, second)
    assert u.tobytes() == before.tobytes()


@pytest.mark.parametrize("elements, m", [(8, 64), (20, 16)])
def test_large_vortex_stacks_equal_each_members_own_call(elements, m):
    # a stack widens the kernels' matrix products with its member count,
    # past the sizes the generated stacks above reach; each row must still
    # be its member's own call, and that call the recomputing formulation's
    prob = make_problem("vortex2d", elements=elements, degree=2)
    rng = np.random.default_rng(elements * 1000 + m)
    semi, times = prob.semi, rng.uniform(0.0, 5.0, m)
    u = prob.u0 * (1.0 + 1e-3 * rng.standard_normal((m,) + prob.u0.shape))
    assert np.all(semi.is_admissible(u))
    du = semi.rhs(times, u)
    for k in range(m):
        own = semi.rhs(float(times[k]), u[k])
        assert np.array_equal(du[k], own), k
        assert np.array_equal(own, _reference_rhs(semi, float(times[k]), u[k])), k


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_advection_1d_matrix_and_sigma_equal_the_column_build(p):
    nel = 8
    semi = AdvectionSemidisc1d(Grid1d.uniform(0.0, 1.0, nel), p, velocity=1.0)
    m = semi.n_dof
    columns = np.zeros((m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        columns[:, j] = semi.rhs(0.0, e.reshape(nel, p + 1)).ravel()
    assert np.array_equal(semi.as_matrix(), columns)
    c_p = float(np.max(-np.linalg.eigvals(columns).real)) * (1.0 / nel)
    assert dgsem.sigma_for_degree(p) == 2.0 / c_p


# ---------------------------------------------------------------------------
# volume derivatives against exactly rounded sums

def _derivative_terms(D, f, axis):
    """The products D[a, m] f[..., m, ...] along the node axis `axis` of f,
    with a in that axis' place and m on a new last axis."""
    terms = np.moveaxis(f, axis, -1)[..., None, :] * D
    return np.moveaxis(terms, -2, axis - 1)


def _width_two_grid(nel):
    # Jacobian 1: the kernels' volume scalings are then exactly -1 or 1
    return Grid1d(np.arange(0.0, 2.0 * nel + 1.0, 2.0))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 3), nel=st.integers(1, 3), p=st.integers(2, 4),
       amplitude=_amplitudes, seed=_seeds)
def test_volume_derivatives_within_4_ulp_of_exact_sums(m, nel, p, amplitude, seed):
    # Nodes inside an element get no surface term, so there each RHS is its
    # volume term alone: -D f, rounded only by the kernel's product (2D
    # Euler adds its x and y terms).  Each entry must lie within 4 ulp of
    # sum_m |D_am f_m| of the exactly rounded sum math.fsum gives.
    rng = np.random.default_rng(seed)
    g1 = _width_two_grid(nel)
    g2 = Grid2d(g1, _width_two_grid(nel + 1))
    n = p + 1
    D = lgl_operator(p).D
    inner = slice(1, -1)
    u1, u2 = rng.standard_normal((m, nel, n)), rng.standard_normal((m, nel, nel + 1, n, n))
    e1 = np.stack([_euler_state((nel, n), 1, seed + k, amplitude) for k in range(m)])
    e2 = np.stack([_euler_state((nel, nel + 1, n, n), 2, seed + k, amplitude)
                   for k in range(m)])
    cases = [
        (AdvectionSemidisc1d(g1, p, 1.0), u1, [(u1, -1)], (..., inner)),
        (AdvectionSemidisc2d(g2, p, (1.0, 0.0)), u2, [(u2, -2)], (..., inner, slice(None))),
        (AdvectionSemidisc2d(g2, p, (0.0, 1.0)), u2, [(u2, -1)], (..., inner)),
        (EulerSemidisc1d(g1, p), e1, [(_ref_flux_1d(e1), -2)], (..., inner, slice(None))),
        (EulerSemidisc2d(g2, p), e2, [(_ref_flux_2d(e2, 0), -3), (_ref_flux_2d(e2, 1), -2)],
         (..., inner, inner, slice(None))),
    ]
    for semi, u, fluxes, interior in cases:
        got = -semi.rhs(np.zeros(m), u)[interior]
        terms = np.concatenate([_derivative_terms(D, f, axis) for f, axis in fluxes],
                               axis=-1)[interior + (slice(None),)]
        exact = np.apply_along_axis(math.fsum, -1, terms)
        scale = np.apply_along_axis(math.fsum, -1, np.abs(terms))
        assert np.all(np.abs(got - exact) <= 4.0 * np.spacing(scale)), type(semi)


# ---------------------------------------------------------------------------
# the in-place kernels against their expression form, bit for bit
#
# The functions below are the Euler kernels as plain expressions, each
# product and sum a fresh array.  The library forms the same operations, on
# the same operands in the same order, in arrays of its own; so the bytes
# must agree, signs of zero included.

def _expr_primitives_1d(u):
    rho = u[..., 0]
    v = u[..., 1] / rho
    p = (GAMMA - 1.0) * (u[..., 2] - 0.5 * rho * v * v)
    return rho, v, p


def _expr_primitives_2d(u):
    rho = u[..., 0]
    vx = u[..., 1] / rho
    vy = u[..., 2] / rho
    p = (GAMMA - 1.0) * (u[..., 3] - 0.5 * rho * (vx * vx + vy * vy))
    return rho, vx, vy, p


def _expr_llf_surface(du, u, f, speed, first, last, nb, left, right, jw0, jwN):
    uR, fR = u[first], f[first]
    uL, fL = u[last].take(left, axis=nb), f[last].take(left, axis=nb)
    lam = np.maximum(speed[last].take(left, axis=nb), speed[first])
    fstar = 0.5 * (fL + fR) - 0.5 * lam * (uR - uL)
    du[first] += (fstar - fR) / jw0
    du[last] -= (fstar.take(right, axis=nb) - f[last]) / jwN


def _expr_rhs_1d(semi, t, u):
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        rho, v, p = _expr_primitives_1d(u)
        f = np.empty_like(u)
        f[..., 0] = u[..., 1]
        f[..., 1] = u[..., 1] * v + p
        f[..., 2] = (u[..., 2] + p) * v
        speed = (np.abs(v) + np.sqrt(GAMMA * p / rho))[..., None]
        du = semi._vol * np.matmul(semi.op.D, f)
        _expr_llf_surface(du, u, f, speed, np.s_[..., 0, :], np.s_[..., -1, :],
                          -2, semi._left, semi._right, semi._jw0, semi._jwN)
    if semi.energy_source is not None:
        if np.ndim(t):
            du[..., 2] += np.array([semi.energy_source(float(tm))
                                    for tm in t])[:, None, None]
        else:
            du[..., 2] += semi.energy_source(t)
    return du


def _expr_rhs_2d(semi, t, u):
    # the metric factors with one axis each, broadcast against the other:
    # (element x, 1) and (element y,)
    jx, jy, w = semi.jx[:, None], semi.jy, semi.op.weights
    vol_x, vol_y = -(1.0 / jx), -(1.0 / jy)
    jw0_x, jwN_x, jw0_y, jwN_y = jx * w[0], jx * w[-1], jy * w[0], jy * w[-1]
    D, lead = semi.op.D, np.ndim(u) - 5
    axes = (lead + 2, lead + 3, lead + 4, *range(lead), lead, lead + 1)
    q = np.ascontiguousarray(np.transpose(u, axes))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        rho, vx, vy, p = _expr_primitives_2d(np.moveaxis(q, 2, -1))
        c = np.sqrt(GAMMA * p / rho)
        fx = q * vx[:, :, None]
        fx[:, :, 1] += p
        fx[:, :, 3] = (q[:, :, 3] + p) * vx
        fy = q * vy[:, :, None]
        fy[:, :, 2] += p
        fy[:, :, 3] = (q[:, :, 3] + p) * vy
        du = vol_x * (D @ fx.reshape(len(D), -1)).reshape(q.shape)
        du += vol_y * (D @ fy.reshape(len(D), len(D), -1)).reshape(q.shape)
        _expr_llf_surface(du, q, fx, (np.abs(vx) + c)[:, :, None], (0,), (-1,), -2,
                          semi._lx, semi._rx, jw0_x, jwN_x)
        _expr_llf_surface(du, q, fy, (np.abs(vy) + c)[:, :, None], np.s_[:, 0],
                          np.s_[:, -1], -1, semi._ly, semi._ry, jw0_y, jwN_y)
    return np.ascontiguousarray(np.transpose(du, np.argsort(axes)))


def _still_state(shape, dim, seed, amplitude, still):
    """_euler_state with the momentum of the nodes in `still` ("none",
    "some" or "all") set to an exact zero of either sign."""
    u = _euler_state(shape, dim, seed, amplitude)
    if still != "none":
        rng = np.random.default_rng(seed + 1)
        mask = rng.random(shape) < 0.5 if still == "some" else np.ones(shape, dtype=bool)
        kinetic = 0.5 * np.sum(u[..., 1:-1] ** 2, axis=-1) / u[..., 0]
        for k in range(1, dim + 1):
            u[..., k][mask] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[mask]
        u[..., -1][mask] -= kinetic[mask]
    return u


@settings(max_examples=60, deadline=None)
@given(nel=st.sampled_from([1, 2, 3, 5]), ney=st.sampled_from([1, 2, 4]),
       p=st.sampled_from([1, 2, 3]), m=st.sampled_from([None, 1, 3]), kind=_kinds,
       amplitude=_amplitudes, seed=_seeds, still=st.sampled_from(["none", "some", "all"]),
       source=st.booleans())
def test_euler_kernels_equal_their_expression_form(nel, ney, p, m, kind, amplitude, seed,
                                                   still, source):
    g1 = _grid1d(nel, kind, seed)
    g2 = Grid2d(g1, _grid1d(ney, kind, seed + 1, 0.0, 3.0))
    n = p + 1
    members = 1 if m is None else m
    times = 0.4 if m is None else np.linspace(0.1, 0.9, m)
    cases = ((EulerSemidisc1d(g1, p, energy_source=_python_float_source if source else None),
              _expr_rhs_1d, (nel, n), 1),
             (EulerSemidisc2d(g2, p), _expr_rhs_2d, (nel, ney, n, n), 2))
    for semi, expr, shape, dim in cases:
        u = np.stack([_still_state(shape, dim, seed + k, amplitude, still)
                      for k in range(members)])
        if m is None:
            u = u[0]
        assert np.all(semi.is_admissible(u))
        before = u.tobytes()
        got, want = semi.rhs(times, u), expr(semi, times, u)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes(), type(semi).__name__
        assert u.tobytes() == before


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("axis", [-1, -2, -3])
@pytest.mark.parametrize("by", [1, -1])
def test_periodic_shift_equals_take_of_the_rolled_indices(n, axis, by):
    shape = [3, 2, 4, 5]
    shape[axis] = n
    x = np.random.default_rng(n).standard_normal(shape)
    x[x < -1.0] = -0.0
    want = x.take(np.roll(np.arange(n), by), axis=axis)
    got = dgsem._roll(x, by, axis)
    assert got.tobytes() == want.tobytes()
    assert got.flags.c_contiguous and not np.shares_memory(got, x)
