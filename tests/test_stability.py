import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkadapt import stability
from rkadapt.butcher import ButcherPair
from rkadapt.catalog import catalog_get, catalog_names
from rkadapt.cli import main
from rkadapt.stability import (StabilityPolynomials, boundary_samples,
                               contains_region, control_stability_scan,
                               grid_boundary, stability_polynomials,
                               trace_boundary)
from rkadapt.search import filter_stable

polyval = np.polynomial.polynomial.polyval


def forward_euler_pair():
    return ButcherPair("euler", [[0.0]], [1.0], [0.0], [1.0, 0.0], q=1, qhat=1)


def classical_rk4_pair():
    A = [[0, 0, 0, 0], [0.5, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 1.0, 0]]
    b = [1 / 6, 1 / 3, 1 / 3, 1 / 6]
    bhat = [1 / 6, 1 / 3, 1 / 3, 1 / 6, 0.0]   # embedded = main (analysis only)
    return ButcherPair("rk4", A, b, [0, 0.5, 0.5, 1.0], bhat, q=4, qhat=4)


def test_rk4_stability_polynomial_is_exponential_series():
    polys = stability_polynomials(classical_rk4_pair())
    assert polys.main == pytest.approx([1, 1, 0.5, 1 / 6, 1 / 24], abs=1e-15)


def test_ssp33_difference_polynomial_structure():
    polys = stability_polynomials(catalog_get("SSP3(2)3"))
    assert polys.diff[:3] == pytest.approx([0.0, 0.0, 0.0], abs=1e-16)
    assert abs(polys.diff[3]) > 1e-3


def test_bs3_embedded_polynomial_uses_fsal_stage():
    polys = stability_polynomials(catalog_get("BS3(2)3 FSAL"))
    assert len(polys.embedded) - 1 == 4
    assert polys.embedded[4] != 0.0


@pytest.mark.parametrize("name", catalog_names())
def test_difference_vanishes_through_shared_order(name):
    scheme = catalog_get(name)
    polys = stability_polynomials(scheme)
    k = min(scheme.q, scheme.qhat)
    assert np.max(np.abs(polys.diff[:k + 1])) <= 1e-12
    assert polys.main[0] == 1.0


def test_forward_euler_boundary_is_unit_circle():
    polys = stability_polynomials(forward_euler_pair())
    trace = trace_boundary(polys, n_points=256)
    assert np.max(np.abs(np.abs(trace.points + 1.0) - 1.0)) <= 1e-9


def test_rk4_negative_real_axis_crossing():
    polys = stability_polynomials(classical_rk4_pair())
    # independent bisection for |R(x)| = 1 on the negative real axis
    f = lambda x: abs(polyval(x, polys.main)) - 1.0
    lo, hi = -3.0, -2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    trace = trace_boundary(polys, n_points=512)
    assert math.isclose(trace.points.real.min(), hi, abs_tol=5e-3)
    assert math.isclose(hi, -2.785, abs_tol=5e-3)


@pytest.mark.parametrize("name", ["BS5(4)7 FSAL", "RK3(2)5 3S*+", "SSP3(2)4"])
def test_boundary_residual_and_conjugate_symmetry(name):
    polys = stability_polynomials(catalog_get(name))
    trace = trace_boundary(polys, n_points=512)
    assert np.max(np.abs(np.abs(polyval(trace.points, polys.main)) - 1.0)) <= 1e-10
    pts = trace.points
    conj = np.conj(pts)
    dist = np.min(np.abs(conj[:, None] - pts[None, :]), axis=1)
    spacing = np.max(np.abs(np.diff(pts)))
    assert np.max(dist) <= 2.0 * spacing
    # every sample lies at its own theta, and theta -> total - theta conjugates
    assert np.max(np.abs(polyval(pts, polys.main) - np.exp(1j * trace.thetas))) <= 1e-12
    assert np.max(np.abs(pts[::-1] - conj)) <= 1e-12


def test_log_derivative_matches_finite_differences():
    # Re(z R'/R) is d log|R(z(1+h))| / dh at h = 0, and likewise for E; compare
    # against centered differences of log|R| and log|E|, which are branch-cut safe
    polys = stability_polynomials(catalog_get("BS5(4)7 FSAL"))
    trace = trace_boundary(polys, n_points=128)
    h = 1e-6
    for z in trace.points[::16]:
        Rz, Ez, r, e = stability._log_derivatives(polys, z)
        for value, exact, coeffs in ((Rz, r, polys.main), (Ez, e, polys.diff)):
            if abs(value) < 1e-8:
                continue
            fd = (math.log(abs(polyval(z * (1 + h), coeffs))) -
                  math.log(abs(polyval(z * (1 - h), coeffs)))) / (2 * h)
            assert abs(exact - fd) <= 1e-6 * max(1.0, abs(exact))


def control_jacobian(polys: StabilityPolynomials, z, beta, k) -> np.ndarray:
    """6x6 Jacobian of the boundary fixed-point recursion for a PID controller,
    the reference for the control quartic the analysis runs on: its
    characteristic polynomial is lam^2 times the quartic.  Entries use
    Re(z R'/R) and Re(z E'/E) at a point where neither R nor E vanishes."""
    _, _, r, e = stability._log_derivatives(polys, z)
    b1, b2, b3 = beta
    J = np.zeros((6, 6))
    J[0, 0] = 1.0
    J[0, 1] = r
    J[1] = [-b1 / k, 1.0 - (b1 / k) * e, -b2 / k, -(b2 / k) * e, -b3 / k, -(b3 / k) * e]
    J[2, 0] = 1.0
    J[3, 1] = 1.0
    J[4, 2] = 1.0
    J[5, 3] = 1.0
    return J


def test_control_jacobian_zero_beta_is_neutral():
    polys = stability_polynomials(catalog_get("BS3(2)3 FSAL"))
    z = trace_boundary(polys, n_points=256).points[40]
    J = control_jacobian(polys, z, (0.0, 0.0, 0.0), k=3)
    assert np.max(np.abs(np.linalg.eigvals(J))) == pytest.approx(1.0, abs=1e-10)


def test_bs5_pi34_unstable_near_negative_real_axis():
    scheme = catalog_get("BS5(4)7 FSAL")
    rep = control_stability_scan(scheme, (0.70, -0.40, 0.00), n_points=512)
    assert not rep.stable
    assert rep.max_rho > 1.0
    worst_z = max(rep.samples, key=lambda s: s[1])[0]
    assert worst_z.real < 0 and abs(worst_z.imag) < 0.2 * abs(worst_z.real)


def test_bs5_optimized_controller_is_stable():
    scheme = catalog_get("BS5(4)7 FSAL")
    rep = control_stability_scan(scheme, (0.28, -0.23, 0.00), n_points=512)
    assert rep.stable and rep.max_rho < 1.0


def test_bs3_classical_controller_is_stable():
    rep = control_stability_scan(catalog_get("BS3(2)3 FSAL"), (0.60, -0.20, 0.00))
    assert rep.stable


def test_rk35_fsal_published_controller_is_stable():
    rep = control_stability_scan(catalog_get("RK3(2)5 3S*+ FSAL"), (0.70, -0.23, 0.00))
    assert rep.stable


def test_contains_region_reflexive():
    polys = stability_polynomials(catalog_get("RK3(2)5 3S*+ FSAL"))
    same = StabilityPolynomials(main=polys.main, embedded=polys.main,
                                diff=polys.diff, s_eff=polys.s_eff)
    ok, violations = contains_region(same, same, n_grid=200)
    assert ok and len(violations) == 0


def test_bs3_embedded_region_contains_main():
    polys = stability_polynomials(catalog_get("BS3(2)3 FSAL"))
    ok, violations = contains_region(polys, polys, n_grid=400)
    assert ok, f"{len(violations)} violations"


def test_grid_boundary_fallback_on_unit_circle():
    polys = stability_polynomials(forward_euler_pair())
    pts = grid_boundary(polys, n_points=128)
    assert np.max(np.abs(np.abs(pts + 1.0) - 1.0)) <= 1e-8


def test_boundary_samples_exclude_origin_and_right_half_plane():
    z, r, e, keep = boundary_samples(catalog_get("BS5(4)7 FSAL"), n_points=512)
    assert np.all(z[keep].real <= 0.0)
    assert np.all(np.abs(r[keep]) >= 1e-3)


def test_control_stability_dense_map_consistent_with_scan():
    from rkadapt.stability import control_stability_map
    scheme = catalog_get("BS5(4)7 FSAL")
    Z, rho = control_stability_map(scheme, (0.70, -0.40, 0.00), n_grid=61)
    assert np.nanmax(rho) > 1.0
    # near the unstable boundary spot (~ -3.99) the map must exceed 1 too
    mask = (np.abs(Z.real + 3.9) < 0.5) & (np.abs(Z.imag) < 0.3)
    assert np.nanmax(rho[mask]) > 1.0


# ---------------------------------------------------------------------------
# the boundary trace against a fine numpy continuation, and its bookkeeping

def _same(x, y):
    """Equal bit for bit, except that any two nans match."""
    return (math.isnan(x) and math.isnan(y)) or x.hex() == y.hex()


def _numpy_newton(R, Rp, z, Rz, target):
    """Predictor from (z, Rz), then damped Newton to |R - target| < 1e-12, on
    numpy scalars; None when Newton stalls."""
    z0 = z + (target - Rz) / polyval(z, Rp)
    for _ in range(60):
        resid = polyval(z0, R) - target
        if abs(resid) < 1e-12:
            return z0
        delta = resid / polyval(z0, Rp)
        lam = 1.0
        while (abs(polyval(z0 - lam * delta, R) - target) >= abs(resid)
               and lam > 1e-8):
            lam *= 0.5
        z0 = z0 - lam * delta
    return None


def _numpy_trace(polys, n_points, dtheta=2 * np.pi / 4096, max_winding=64):
    """Reference: the continuation on numpy scalars at a fine largest step,
    closing wherever it is back at the origin; then each sample solved at
    exactly its theta, from the last fine point before it."""
    R, Rp = polys.main, np.polynomial.polynomial.polyder(polys.main)
    zs, ths = [0j], [0.0]
    z, th, step = 0j, 0.0, dtheta
    with np.errstate(all="ignore"):
        while th < 2 * np.pi * max_winding:
            th_new = th + step
            z0 = _numpy_newton(R, Rp, z, np.exp(1j * th), np.exp(1j * th_new))
            dz = np.inf if z0 is None else abs(z0 - z)
            if not dz <= 0.2:
                step *= 0.5
                continue
            z, th = z0, th_new
            zs.append(z)
            ths.append(th)
            if dz < 0.05:
                step = min(step * 1.5, dtheta)
            if th > np.pi and abs(z) < 1e-6:
                break
    winding = round(ths[-1] / (2 * np.pi))
    assert abs(ths[-1] - 2 * np.pi * winding) <= 1e-9
    total = 2 * np.pi * winding
    t_out = total * (np.arange(n_points) + 0.5) / n_points
    j = np.searchsorted(ths, t_out, side="right") - 1
    points = [_numpy_newton(R, Rp, zs[i], np.exp(1j * ths[i]), np.exp(1j * t))
              for i, t in zip(j, t_out)]
    return np.array(points), t_out, total


def _region(polys, which):
    if which == "embedded":
        return StabilityPolynomials(main=polys.embedded, embedded=polys.embedded,
                                    diff=polys.diff, s_eff=polys.s_eff)
    return polys


def _taylor_polys(degree):
    """R(z) = sum_{j <= degree} z^j / j!: for degree p <= 4, the stability
    polynomial of every p-stage explicit method of order p."""
    main = [1.0 / math.factorial(j) for j in range(degree + 1)]
    return StabilityPolynomials(main=main, embedded=main, diff=[0.0], s_eff=degree)


REFERENCE_REGIONS = (
    [(name, which) for name in catalog_names() for which in ("main", "embedded")]
    + [("euler", "main"), ("rk4", "main")]
    + [(f"taylor{p}", "main") for p in range(1, 11)])


def _reference_region(name, which):
    if name == "euler":
        return stability_polynomials(forward_euler_pair())
    if name == "rk4":
        return stability_polynomials(classical_rk4_pair())
    if name.startswith("taylor"):
        return _taylor_polys(int(name[len("taylor"):]))
    return _region(stability_polynomials(catalog_get(name)), which)


@pytest.mark.parametrize("name,which", REFERENCE_REGIONS,
                         ids=[f"{which}-{name}" for name, which in REFERENCE_REGIONS])
def test_trace_equals_numpy_scalar_continuation(name, which):
    polys = _reference_region(name, which)
    trace = trace_boundary(polys, n_points=256)
    points, thetas, total = _numpy_trace(polys, 256)
    assert trace.total_theta == total
    assert trace.winding * 2 * np.pi == total
    assert np.array_equal(trace.thetas, thetas)
    assert np.max(np.abs(trace.points - points)) <= 1e-10


# turns of theta until the branch through the origin closes, (main, embedded),
# in catalog order
WINDINGS = {
    "BS3(2)3 FSAL": (3, 3), "BS5(4)7 FSAL": (5, 5),
    "RK3(2)5 3S*+": (5, 5), "RK3(2)5 3S*+ FSAL": (5, 6),
    "RK4(3)9 3S*+": (9, 9), "RK4(3)9 3S*+ FSAL": (9, 10),
    "RK5(4)10 3S*+": (8, 8), "RK5(4)10 3S*+ FSAL": (8, 8),
    "SSP3(2)3": (3, 2), "SSP3(2)4": (4, 4),
}


def test_windings_of_the_catalog_boundaries():
    assert list(WINDINGS) == catalog_names()
    for name, windings in WINDINGS.items():
        polys = stability_polynomials(catalog_get(name))
        traces = [trace_boundary(_region(polys, which), n_points=64)
                  for which in ("main", "embedded")]
        assert tuple(t.winding for t in traces) == windings, name
        for t in traces:
            assert t.total_theta == 2 * np.pi * t.winding
            assert t.halvings == 0


def test_a_vanishing_derivative_fails_the_step_instead_of_raising():
    # R'(0) = 0: every predictor divides by zero, so the step halves until
    # the continuation gives up
    polys = StabilityPolynomials(main=[1.0, 0.0, 1.0], embedded=[1.0], diff=[0.0],
                                 s_eff=1)
    with pytest.raises(stability.TraceError, match="stalled"):
        trace_boundary(polys, n_points=64)


def test_a_boundary_through_a_critical_point_is_traced_by_halving_the_step():
    # R = 1 + z + z^2/8 has R'(-4) = 0 and R(-4) = -1, so the branch passes
    # through a critical point at theta = pi: Newton fails or jumps there,
    # and the continuation halves its theta step until it gets past
    polys = StabilityPolynomials(main=[1.0, 1.0, 0.125], embedded=[1.0, 1.0],
                                 diff=[0.0, 0.0, -0.125], s_eff=2)
    trace = trace_boundary(polys, n_points=512)
    assert (trace.winding, trace.halvings) == (1, 3)
    assert trace.total_theta == 2 * np.pi
    assert np.max(np.abs(np.abs(polyval(trace.points, polys.main)) - 1)) <= 1e-10
    # the samples go round the region once; the two nearest z = -4, at
    # theta = pi -+ pi/512, lie sqrt(8 pi / 512) = 0.22 from it
    assert -3.85 < trace.points.real.min() < -3.8
    assert np.max(np.abs(trace.points[::-1] - trace.points.conj())) <= 1e-10


def test_dense_resampling_gives_distinct_points():
    polys = stability_polynomials(catalog_get("BS3(2)3 FSAL"))
    trace = trace_boundary(polys, n_points=20000)
    assert len(np.unique(trace.points)) == 20000


@given(c=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12),
       xr=st.floats(-1e3, 1e3), xi=st.floats(-1e3, 1e3))
def test_horner_matches_polyval(c, xr, xi):
    x = complex(xr, xi)
    with np.errstate(all="ignore"):
        want = complex(polyval(x, np.array(c)))
    got = stability._horner(c[-1], c[-2::-1], x)
    assert _same(got.real, want.real) and _same(got.imag, want.imag)


_special = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
_entries = st.one_of(_special, st.floats(-1e3, 1e3), st.floats())
_complex = st.builds(complex, _entries, _entries)


@st.composite
def _points(draw):
    """A Python complex, or a 0-d, 1-D or 2-D complex array."""
    shape = draw(st.sampled_from([None, (), (7,), (3, 4)]))
    if shape is None:
        return draw(_complex)
    size = math.prod(shape)
    values = draw(st.lists(_complex, min_size=size, max_size=size))
    return np.array(values, dtype=complex).reshape(shape)


@given(c=st.lists(st.one_of(_special, st.floats()), min_size=1, max_size=13),
       x=_points())
def test_in_place_polyval_matches_polyval_bit_for_bit(c, x):
    c = np.array(c)
    with np.errstate(all="ignore"):
        want = polyval(x, c)
        got = stability._polyval(x, c)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("n_grid", [400, 137])
def test_containment_equals_the_full_grid_mask(n_grid):
    # the embedded polynomial, evaluated only inside the main region, finds
    # the points of Z[inside & ~ok] over the whole box, in the same order
    for name in catalog_names():
        polys = stability_polynomials(catalog_get(name))
        ok, violations = contains_region(polys, polys, n_grid=n_grid)
        Z = stability._region_box(polys, n_grid)
        inside = np.abs(polyval(Z, polys.main)) <= 1.0
        good = np.abs(polyval(Z, polys.embedded)) <= 1.0 + 1e-12
        want = Z[inside & ~good]
        assert ok == (want.size == 0), name
        assert violations.tobytes() == want.tobytes(), name


def test_stability_command_traces_each_polynomial_once(tmp_path, monkeypatch, capsys):
    continued, traced = [], []
    continuation, trace = stability._continuation, stability.trace_boundary

    def counted_continuation(R):
        continued.append(R.tobytes())
        return continuation(R)

    def counted_trace(polys, *args, **kwargs):
        traced.append(polys.main.tobytes())
        return trace(polys, *args, **kwargs)

    monkeypatch.setattr(stability, "_continuation", counted_continuation)
    monkeypatch.setattr(stability, "trace_boundary", counted_trace)
    # with --points 128 the region box solves the main polynomial's 512
    # samples too, from the same continuation
    for flags, n_traces in (([], 2), (["--points", "128"], 3)):
        continued.clear()
        traced.clear()
        monkeypatch.setattr(stability, "_SAMPLE_CACHE", {})
        code = main(["stability", "--scheme", "bs3", "--beta", "0.6,-0.2", *flags,
                     "--control-map", "--grid-map", "21", "--out", str(tmp_path / "s")])
        assert code == 0
        # the main and the embedded polynomial, each continued once
        assert len(continued) == 2 and continued[0] != continued[1], flags
        assert len(traced) == n_traces and set(traced) == set(continued), flags


def test_cached_boundary_arrays_are_read_only(monkeypatch):
    monkeypatch.setattr(stability, "_SAMPLE_CACHE", {})
    scheme = catalog_get("BS3(2)3 FSAL")
    samples = boundary_samples(scheme, n_points=128)
    trace = stability._boundary(stability_polynomials(scheme), 128)
    assert samples[0] is trace.points
    for arr in (*samples, trace.thetas):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[1]


# ---------------------------------------------------------------------------
# the control quartic: the 6x6 Jacobian's spectrum, the Schur-Cohn verdict
# against the radius, and the chunked filter

log_derivative = st.floats(-8.0, 8.0)
# about the range of Re(z R'/R) and Re(z E'/E) on the catalog boundaries,
# where a fifth of these draws is stable
boundary_log_derivative = st.floats(0.0, 12.0)
betas = st.tuples(st.floats(0.0, 1.2), st.floats(-0.6, 0.1), st.floats(-0.1, 0.2))
orders = st.integers(2, 6)


def _polys_with_log_derivatives(r, e):
    """R = (1 - r) + r z and E = (1 - e) + e z: at z = 1, R = E = 1, so
    Re(z R'/R) = r and Re(z E'/E) = e up to rounding."""
    return StabilityPolynomials(main=[1.0 - r, r], embedded=[1.0],
                                diff=[1.0 - e, e], s_eff=1)


def _quartic_by_definition(r, e, beta, k):
    lam = np.polynomial.Polynomial([0.0, 1.0])
    b1, b2, b3 = beta
    return lam**2 * (lam - 1)**2 + ((lam - 1) * e + r) * (b1 * lam**2 + b2 * lam + b3) / k


@settings(max_examples=300, deadline=None)
@given(r=log_derivative, e=log_derivative, beta=betas, k=orders)
def test_control_jacobian_spectrum_is_zero_pair_and_quartic_roots(r, e, beta, k):
    J = control_jacobian(_polys_with_log_derivatives(r, e), 1.0 + 0j, beta, k)
    p = _quartic_by_definition(r, e, beta, k)
    assert np.allclose(stability._quartic(r, e, beta, k), p.coef[3::-1],
                       rtol=1e-12, atol=1e-12)
    # det(lam I - J) = lam^2 p(lam) at seven points fixes the whole spectrum;
    # the double zero is a Jordan block when b3 != 0, which eigvals resolves
    # only to about the square root of the rounding
    for lam in 2.0 * np.exp(2j * np.pi * np.arange(7) / 7):
        scale = abs(lam) ** 2 * polyval(abs(lam), np.abs(p.coef))
        assert abs(np.linalg.det(lam * np.eye(6) - J) - lam**2 * p(lam)) <= 1e-12 * scale
    # each simple root of p is an eigenvalue of J to 1e-9
    got = np.linalg.eigvals(J)
    want = np.concatenate([[0.0, 0.0], p.roots()])
    for i in range(2, 6):
        if np.min(np.abs(np.delete(want, i) - want[i])) > 1e-3:
            assert np.min(np.abs(got - want[i])) <= 1e-9 * max(1.0, abs(want[i]))


@settings(max_examples=300, deadline=None)
@given(samples=st.lists(st.tuples(boundary_log_derivative, boundary_log_derivative),
                      min_size=1, max_size=4),
       candidates=st.lists(betas, min_size=1, max_size=8), k=orders)
def test_schur_cohn_verdict_agrees_with_the_radius(samples, candidates, k):
    r, e = np.array(samples).T
    verdicts = stability._stable_batch(r, e, candidates, k)
    for beta, stable in zip(candidates, verdicts):
        rho = stability._rho_batch(r, e, beta, k).max()
        if abs(rho - 1.0) > 1e-9:
            assert stable == (rho < 1.0), (beta, rho)


def _companion_roots(r, e, beta, k):
    """numpy's eigenvalues of the control quartic's 4x4 companion matrices at
    each (r, e), and the Cauchy bound 1 + max|a_i| on their moduli."""
    a = np.stack(stability._quartic(r, e, beta, k), axis=1)
    C = np.zeros((len(r), 4, 4))
    C[:, 0] = -a
    C[:, 1, 0] = C[:, 2, 1] = C[:, 3, 2] = 1.0
    return np.linalg.eigvals(C), 1 + np.max(np.abs(a), axis=1)


@settings(max_examples=300, deadline=None)
@given(samples=st.lists(st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0)),
                        min_size=1, max_size=16),
       beta=betas, k=orders)
def test_radius_is_the_largest_companion_eigenvalue_modulus(samples, beta, k):
    r, e = np.array(samples).T
    roots, bound = _companion_roots(r, e, beta, k)
    gap = np.min([np.abs(roots[:, i] - roots[:, j]) for i in range(4) for j in range(i)],
                 axis=0)
    separated = gap >= 1e-3 * bound
    rho = stability._rho_batch(r, e, beta, k)
    np.testing.assert_allclose(rho[separated], np.max(np.abs(roots[separated]), axis=1),
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("r, e, beta, k", [
    (0.0, 5.02e-185, (0.0, -0.5, 0.0), 2),      # a double root at 1 split by 1e-93
    (0.5, 1.0, (0.0, 0.0, 2.2e-311), 2),        # subnormal coefficients
    (0.0, 0.0, (0.6, -0.2, 0.0), 3),            # lam^2 (lam - 1)^2
])
def test_radius_at_multiple_roots_is_the_companion_radius(r, e, beta, k):
    r, e = np.array([r]), np.array([e])
    roots, _ = _companion_roots(r, e, beta, k)
    rho = stability._rho_batch(r, e, beta, k)
    assert rho[0] == np.max(np.abs(roots)) == 1.0
    assert stability._stable_batch(r, e, [beta], k).tolist() == [False]


@pytest.mark.parametrize("beta", [(0.6, -0.2, -0.4), (1.0, -0.5, -0.5), (0.2, 0.1, -0.3)])
@pytest.mark.parametrize("k", [2, 5])
def test_radius_is_at_least_1_when_the_betas_sum_to_zero(beta, k):
    # p(1) = r (b1 + b2 + b3) / k = 0, a simple root while r (2 b1 + b2) != 0
    r, e = [a.ravel() for a in np.meshgrid(np.linspace(0.5, 8.0, 16), [-4.0, 0.0, 4.0])]
    assert np.all(stability._rho_batch(r, e, beta, k) >= 1 - 1e-12)


def test_a_stacks_radii_are_its_samples_radii(monkeypatch):
    rng = np.random.default_rng(7)
    r, e = rng.uniform(-12.0, 12.0, (2, 40))
    r[[3, 17]], e[[3, 17]] = 0.0, [0.0, 5.02e-185]      # repeated roots
    beta, k = (0.0, -0.5, 0.0), 2
    companions = []
    eigvals = np.linalg.eigvals

    def counted_eigvals(C):
        companions.append(len(C))
        return eigvals(C)

    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    stack = stability._rho_batch(r, e, beta, k)
    assert companions == [2]
    one_by_one = [stability._rho_batch(r[i:i + 1], e[i:i + 1], beta, k)[0]
                  for i in range(len(r))]
    assert stack.tobytes() == np.array(one_by_one).tobytes()


def test_dense_map_in_chunks_equals_one_batch(monkeypatch):
    # _BLOCK = 2 cuts a 41 x 41 map into batches of 128 samples
    beta = (0.6, -0.2, 0.0)
    whole = [stability.control_stability_map(catalog_get(name), beta, n_grid=41)
             for name in catalog_names()]
    monkeypatch.setattr(stability, "_BLOCK", 2)
    for name, (Z, rho) in zip(catalog_names(), whole):
        Zc, rhoc = stability.control_stability_map(catalog_get(name), beta, n_grid=41)
        assert Zc.tobytes() == Z.tobytes(), name
        assert rhoc.tobytes() == rho.tobytes(), name


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(stability._BLOCK + 1, 2500))
def test_filter_stable_across_chunks_equals_one_call_per_candidate(seed, n):
    scheme = catalog_get("BS3(2)3 FSAL")
    rng = np.random.default_rng(seed)
    candidates = [tuple(b) for b in rng.uniform((0.0, -0.6, -0.1), (1.2, 0.1, 0.2), (n, 3))]
    stable, unstable, indeterminate = filter_stable(scheme, candidates)
    one_by_one = [filter_stable(scheme, [beta])[0] == [beta] for beta in candidates]
    assert stable == [b for b, ok in zip(candidates, one_by_one) if ok]
    assert unstable == [b for b, ok in zip(candidates, one_by_one) if not ok]
    assert stable and unstable and not indeterminate
