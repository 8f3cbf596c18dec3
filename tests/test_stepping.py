import numpy as np
import pytest

from rkadapt.butcher import ButcherPair
from rkadapt.catalog import catalog_get, catalog_names
from rkadapt.lowstorage import to_butcher
from rkadapt.stepping import butcher_step, lowstorage_step, step


def forward_euler_pair():
    return ButcherPair("euler", [[0.0]], [1.0], [0.0], [1.0, 0.0], q=1, qhat=1)


def quadratic_rhs(dim=10, seed=42):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim)) * 0.3
    B = rng.standard_normal((dim, dim)) * 0.1
    return lambda t, u: A @ u + 0.2 * (B @ u) * u + 0.1 * np.sin(t)


def test_forward_euler_unit_slope():
    res = butcher_step(forward_euler_pair(), lambda t, u: np.ones_like(u),
                       0.0, 0.5, np.zeros(1))
    assert res.u_new[0] == 0.5
    assert res.nfe == 1


def test_ssp33_amplification_is_cubic_exponential_series():
    scheme = catalog_get("SSP3(2)3")
    for z in (-0.5, -1.0 + 0.7j, 0.3j):
        rhs = lambda t, u: z * u
        res = step(scheme, rhs, 0.0, 1.0, np.array([1.0 + 0j]))
        expected = 1 + z + z ** 2 / 2 + z ** 3 / 6
        assert abs(res.u_new[0] - expected) <= 1e-14 * abs(expected)


def test_rk35_matches_dense_form_on_quadratic_ode():
    scheme = catalog_get("RK3(2)5 3S*+")
    pair = to_butcher(scheme)
    rhs = quadratic_rhs()
    rng = np.random.default_rng(1)
    for _ in range(10):
        u = rng.standard_normal(10)
        dt = 10 ** rng.uniform(-2, -0.5)
        a = lowstorage_step(scheme, rhs, 0.2, dt, u)
        b = butcher_step(pair, rhs, 0.2, dt, u)
        scale = np.max(np.abs(b.u_new))
        assert np.max(np.abs(a.u_new - b.u_new)) <= 1e-13 * scale
        assert np.max(np.abs(a.err_diff - b.err_diff)) <= 1e-13 * scale


def test_ssp34_sequence_matches_dense_form():
    scheme = catalog_get("SSP3(2)4")
    pair = to_butcher(scheme)
    rhs = lambda t, u: -u
    u0 = np.array([1.0])
    a = lowstorage_step(scheme, rhs, 0.0, 0.1, u0)
    b = butcher_step(pair, rhs, 0.0, 0.1, u0)
    assert abs(a.u_new[0] - b.u_new[0]) <= 1e-15
    assert abs(a.err_diff[0] - b.err_diff[0]) <= 1e-15


@pytest.mark.parametrize("name", catalog_names())
def test_lowstorage_equals_dense_oracle(name):
    """50 random steps on a 10-dimensional nonlinear ODE, both forms."""
    scheme = catalog_get(name)
    pair = to_butcher(scheme)
    rhs = quadratic_rhs()
    rng = np.random.default_rng(7)
    for _ in range(50):
        u = rng.standard_normal(10)
        dt = 10 ** rng.uniform(-2, -0.3)
        a = lowstorage_step(scheme, rhs, 0.3, dt, u)
        b = butcher_step(pair, rhs, 0.3, dt, u)
        scale = max(np.max(np.abs(b.u_new)), 1.0)
        assert np.max(np.abs(a.u_new - b.u_new)) <= 1e-12 * scale
        assert np.max(np.abs(a.err_diff - b.err_diff)) <= 1e-12 * scale
        assert a.nfe == b.nfe


def test_fsal_reuse_costs_one_less_evaluation():
    scheme = catalog_get("RK4(3)9 3S*+ FSAL")
    rhs = quadratic_rhs(seed=3)
    u = np.full(10, 0.3)
    first = step(scheme, rhs, 0.0, 0.01, u)
    assert first.nfe == scheme.s + 1
    assert first.fsal_f is not None
    second = step(scheme, rhs, 0.01, 0.01, first.u_new, f0=first.fsal_f)
    assert second.nfe == scheme.s
    # the cached value must really be f at the new point
    assert second.fsal_f is not None
    direct = step(scheme, rhs, 0.01, 0.01, first.u_new)
    assert np.allclose(second.u_new, direct.u_new, rtol=0, atol=1e-15)


def test_no_estimate_skips_fsal_evaluation():
    scheme = catalog_get("RK3(2)5 3S*+ FSAL")
    rhs = quadratic_rhs(seed=5)
    res = step(scheme, rhs, 0.0, 0.01, np.full(10, 0.2), need_estimate=False)
    assert res.nfe == scheme.s
    assert res.err_diff is None and res.fsal_f is None


def test_nonfinite_stage_flags_not_raises():
    scheme = catalog_get("RK3(2)5 3S*+")
    rhs = lambda t, u: u * np.inf
    res = step(scheme, rhs, 0.0, 0.1, np.ones(3))
    assert not res.finite

    # an RHS that turns NaN at its second call leaves the third stage state
    # non-finite: the attempt stops there, after two evaluations, in both the
    # register and the dense form
    for name in ("RK3(2)5 3S*+", "RK4(3)9 3S*+ FSAL", "SSP3(2)4",
                 "BS3(2)3 FSAL", "BS5(4)7 FSAL"):
        calls = []

        def rhs(t, u):
            calls.append(t)
            return np.full_like(u, np.nan) if len(calls) == 2 else -u

        res = step(catalog_get(name), rhs, 0.0, 0.1, np.ones(3))
        assert not res.finite, name
        assert res.nfe == 2 and len(calls) == 2, (name, res.nfe, len(calls))
        assert np.all(np.isnan(res.u_new)), name
