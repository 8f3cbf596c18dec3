import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rkadapt import dgsem
from rkadapt.control import (CflConfig, ControllerConfig, ControllerState,
                             accept_or_reject, cfl_dt, error_norm, error_norms,
                             initial_step, inverse_error, limit_factor,
                             pid_decide, pid_propose)


def cfg(beta=(0.6, -0.2, 0.0), atol=1e-5, rtol=1e-5, k=3, **kw):
    return ControllerConfig(beta[0], beta[1], beta[2], atol=atol, rtol=rtol, k=k, **kw)


def test_error_norm_zero_for_equal_states():
    c = cfg()
    assert error_norm(np.ones(4), np.ones(4), c) == 0.0


def test_error_norm_hand_value():
    c = cfg(atol=1e-3, rtol=1e-3)
    w = error_norm(np.array([1.0]), np.array([1.001]), c)
    assert w == pytest.approx(0.001 / (0.001 + 0.001 * 1.001), rel=1e-12)


def test_error_norm_nan_forces_rejection():
    c = cfg()
    assert error_norm(np.array([1.0, np.nan]), np.ones(2), c) == math.inf


@st.composite
def _norm_stacks(draw):
    """Two stacks of m states with a tolerance pair per member; some rows
    carry NaN, +inf or -inf in either state."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    values = st.floats(-1e3, 1e3, allow_nan=False)
    u = np.array(draw(st.lists(values, min_size=m * n, max_size=m * n))).reshape(m, n)
    noise = np.array(draw(st.lists(st.floats(-1e-2, 1e-2), min_size=m * n,
                                   max_size=m * n))).reshape(m, n)
    uhat = u + noise
    for _ in range(draw(st.integers(0, m * n))):
        target = draw(st.sampled_from([u, uhat]))
        target[draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    atol = draw(st.lists(st.floats(1e-8, 1e-2), min_size=m, max_size=m))
    rtol = draw(st.lists(st.sampled_from([0.0, 1e-6, 1e-3]), min_size=m, max_size=m))
    return u, uhat, atol, rtol


@given(_norm_stacks())
def test_error_norms_row_by_row(stacks):
    # each member's norm is its norm alone, bit for bit; a member that is not
    # finite gets +inf, and no warning escapes
    u, uhat, atol, rtol = stacks
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w = error_norms(u, uhat, atol, rtol)
        for j in range(len(u)):
            alone = error_norm(u[j], uhat[j], cfg(atol=atol[j], rtol=rtol[j]))
            assert w[j].tobytes() == np.float64(alone).tobytes(), j
            if not (np.isfinite(u[j]).all() and np.isfinite(uhat[j]).all()):
                assert w[j] == math.inf, j


def _mean_formula(u, uhat, atol, rtol):
    """error_norms as the expression it forms in place, with np.mean."""
    m = len(u)
    u, uhat = u.reshape(m, -1), uhat.reshape(m, -1)
    atol, rtol = np.asarray(atol)[:, None], np.asarray(rtol)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        scale = atol + rtol * np.maximum(np.abs(u), np.abs(uhat))
        ratio = (u - uhat) / scale
        w = np.sqrt(np.mean(ratio * ratio, axis=1))
    w[np.isnan(w)] = math.inf
    return w


@given(n=st.sampled_from([1, 7, 180, 576, 2304]), m=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16), spread=st.sampled_from([1e-12, 1e-6, 1e-2, 1e3]),
       special=st.sampled_from([None, math.nan, math.inf, -math.inf, -0.0]),
       rtol=st.sampled_from([0.0, 1e-6, 1e-3]))
def test_error_norms_equal_the_mean_formula(n, m, seed, spread, special, rtol):
    # the sum np.mean takes, divided by the count, bit for bit; a member with
    # NaN (or inf - inf) in its ratio gets +inf
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-3, 4, (m, n))
    uhat = u + spread * rng.standard_normal((m, n))
    if special is not None:
        uhat[-1, rng.integers(n)] = special
    atol = 10.0 ** rng.uniform(-10, -2, m)
    w = error_norms(u, uhat, atol, [rtol] * m)
    assert w.tobytes() == _mean_formula(u, uhat, atol, [rtol] * m).tobytes()
    if special is not None and math.isnan(special):
        assert w[-1] == math.inf


def test_error_norm_scale_consistency():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(20)
    uhat = u + 1e-4 * rng.standard_normal(20)
    w1 = error_norm(u, uhat, cfg(atol=1e-5, rtol=1e-5))
    w2 = error_norm(u, uhat, cfg(atol=2e-5, rtol=2e-5))
    assert w2 < w1


def test_pid_neutral_history_gives_factor_one():
    state = ControllerState(dt_current=0.3)
    for beta in [(0.6, -0.2, 0.0), (0.7, -0.4, 0.0), (0.49, -0.34, 0.10)]:
        dt_next, factor = pid_propose(state, cfg(beta=beta))
        assert factor == 1.0
        assert dt_next == 0.3


def test_pid_hand_values():
    c = cfg(beta=(0.6, -0.2, 0.0), k=3, use_limiter=False)
    state = ControllerState(dt_current=1.0, eps_history=[8.0, 1.0, 1.0])
    _, factor = pid_propose(state, c)
    assert factor == pytest.approx(8.0 ** 0.2, rel=1e-14)
    c_lim = cfg(beta=(0.6, -0.2, 0.0), k=3, use_limiter=True)
    _, factor_lim = pid_propose(state, c_lim)
    assert factor_lim == pytest.approx(1.0 + math.atan(8.0 ** 0.2 - 1.0), rel=1e-14)


def test_pid_reduces_to_pure_i_controller():
    rng = np.random.default_rng(1)
    c = cfg(beta=(0.55, 0.0, 0.0), k=4, use_limiter=False)
    for _ in range(50):
        eps = list(10 ** rng.uniform(-2, 2, 3))
        state = ControllerState(dt_current=0.7, eps_history=eps)
        dt_next, _ = pid_propose(state, c)
        assert dt_next == pytest.approx(eps[0] ** (0.55 / 4) * 0.7, rel=1e-15)


def test_factor_monotone_in_latest_eps_and_limiter_preserves_order():
    c = cfg(beta=(0.7, -0.4, 0.0), k=5, use_limiter=False)
    c_lim = cfg(beta=(0.7, -0.4, 0.0), k=5, use_limiter=True)
    eps_grid = np.linspace(0.1, 20.0, 50)
    factors, limited = [], []
    for e in eps_grid:
        state = ControllerState(dt_current=1.0, eps_history=[e, 2.0, 0.5])
        factors.append(pid_propose(state, c)[1])
        limited.append(pid_propose(state, c_lim)[1])
    assert np.all(np.diff(factors) > 0)
    assert np.all(np.diff(limited) > 0)


def test_limiter_formula_random_inputs():
    rng = np.random.default_rng(2)
    for x in 10 ** rng.uniform(-3, 3, 100):
        assert abs(limit_factor(x) - (1.0 + math.atan(x - 1.0))) <= 1e-15


def test_accept_threshold_is_inclusive():
    d = accept_or_reject(0.81, 1.0, 0.81, True, cfg())
    assert d.accept


def test_bounds_rejection_quarters_the_step():
    d = accept_or_reject(2.0, 1.0, 2.0, False, cfg())
    assert not d.accept
    assert d.dt_next == 0.25


def test_pid_decide_on_a_scripted_error_sequence():
    # the recursion's rules: a finite norm pushes eps = 1/w before the
    # decision, also when the attempt is then rejected for its error; a bounds
    # failure (w = inf) pushes nothing and retries at a quarter of the step
    c = cfg(beta=(0.6, -0.2, 0.1), k=3)
    state = ControllerState(dt_current=0.1)

    def factor(e0, e1, e2):
        return limit_factor(e0 ** (0.6 / 3) * e1 ** (-0.2 / 3) * e2 ** (0.1 / 3))

    dt1 = 0.1 * factor(2.0, 1.0, 1.0)
    dt2 = dt1 * factor(1 / 3.0, 2.0, 1.0)
    dt4 = dt2 / 4 * factor(1.25, 1 / 3.0, 2.0)
    script = [(0.5, True, [2.0, 1.0, 1.0], dt1),
              (3.0, False, [1 / 3.0, 2.0, 1.0], dt2),
              (math.inf, False, [1 / 3.0, 2.0, 1.0], dt2 / 4),
              (0.8, True, [1.25, 1 / 3.0, 2.0], dt4)]
    for w, accept, history, dt in script:
        assert pid_decide(state, w, c) is accept, w
        assert state.eps_history == history, w
        assert state.dt_current == pytest.approx(dt, rel=1e-14), w


def test_small_factor_rejects_with_pid_proposal():
    d = accept_or_reject(0.5, 1.0, 0.5, True, cfg())
    assert not d.accept
    assert d.dt_next == 0.5


def test_rejection_never_increases_dt():
    rng = np.random.default_rng(3)
    c = cfg()
    for _ in range(200):
        dt = 10 ** rng.uniform(-4, 1)
        factor = rng.uniform(0.0, 0.8099)
        d = accept_or_reject(factor, dt, factor * dt, True, c)
        assert not d.accept and d.dt_next <= dt
        d = accept_or_reject(rng.uniform(0, 5), dt, rng.uniform(0, 5) * dt, False, c)
        assert not d.accept and d.dt_next <= dt


def _reference_initial_step(rhs, t0, u0, atol, rtol, q):
    # independent scripted version of the starting-step recipe
    scale = atol + rtol * np.abs(u0)
    norm = lambda v: math.sqrt(float(np.mean((v / scale) ** 2)))
    f0 = rhs(t0, u0)
    d0, d1 = norm(u0), norm(f0)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    u1 = u0 + h0 * f0
    d2 = norm(rhs(t0 + h0, u1) - f0) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / (q + 1))
    return min(100 * h0, h1)


def test_initial_step_matches_reference_recipe():
    c = cfg(atol=1e-5, rtol=1e-5)
    rhs = lambda t, u: -u
    u0 = np.array([1.0])
    got = initial_step(rhs, 0.0, u0, c, q=3)
    want = _reference_initial_step(rhs, 0.0, u0, 1e-5, 1e-5, 3)
    assert got == pytest.approx(want, rel=1e-14)


def test_initial_step_degenerate_derivative_falls_back():
    c = cfg()
    rhs = lambda t, u: np.zeros_like(u)
    dt0 = initial_step(rhs, 0.0, np.array([1.0]), c, q=3, horizon=10.0)
    assert dt0 <= 1e-4   # 1e-6-scale fallback, not an O(1) step


def test_initial_step_scales_with_stiffness():
    c = cfg()
    u0 = np.array([1.0])
    slow = initial_step(lambda t, u: u, 0.0, u0, c, q=2)
    fast = initial_step(lambda t, u: 1000.0 * u, 0.0, u0, c, q=2)
    # the curvature probe scales the step by c^((q)/(q+1)) here, 1000^(2/3)
    ratio = slow / fast
    assert 50 <= ratio <= 2000


def test_cfl_dt_1d_advection():
    semi = dgsem.AdvectionSemidisc1d(dgsem.Grid1d.uniform(0.0, 1.0, 10), 2, 1.0)
    dt = cfl_dt(semi, np.zeros((10, 3)), CflConfig(nu=1.0, sigma=1.0))
    assert dt == pytest.approx(0.1, rel=1e-14)


def test_cfl_dt_constant_euler_state_uses_sound_speed():
    semi = dgsem.EulerSemidisc1d(dgsem.Grid1d.uniform(0.0, 1.0, 10), 2)
    u = np.empty((10, 3, 3))
    u[..., 0] = 1.0     # rho = 1, v = 0, T = 1 -> p = rho*T = 1
    u[..., 1] = 0.0
    u[..., 2] = 1.0 / (dgsem.GAMMA - 1.0)
    dt = cfl_dt(semi, u, CflConfig(nu=2.0, sigma=0.5))
    assert dt == pytest.approx(2.0 * 0.5 * 0.1 / math.sqrt(dgsem.GAMMA), rel=1e-12)


def test_cfl_dt_zero_wave_speed_errors():
    semi = dgsem.AdvectionSemidisc1d(dgsem.Grid1d.uniform(0.0, 1.0, 4), 1, 0.0)
    with pytest.raises(ValueError, match="CFL control undefined"):
        cfl_dt(semi, np.zeros((4, 2)), CflConfig(nu=1.0, sigma=1.0))


def test_inverse_error_is_capped():
    assert inverse_error(0.0) == 1e10
    assert inverse_error(1e-3) == pytest.approx(1e3)


# ---------------------------------------------------------------------------
# PID algebra on generated error histories

# eps = 1/w lies in (0, 1/W_FLOOR]; the search grid bounds the exponents
_eps = st.floats(1e-6, 1e10)
_histories = st.lists(_eps, min_size=3, max_size=3)
_betas = st.tuples(st.floats(0.1, 1.0), st.floats(-0.4, 0.0), st.floats(0.0, 0.1))
_ks = st.integers(2, 6)
_dts = st.floats(1e-6, 1e3)


@given(k=_ks, dt=_dts, err_const=st.floats(1e-8, 1e8), h1=_histories)
def test_pid_deadbeat_reduction_lands_on_the_tolerance_in_one_step(k, dt, err_const, h1):
    # beta = (1, 0, 0) without the limiter is the deadbeat controller: for
    # the asymptotic error model w = C dt^k it proposes the step whose
    # error is exactly on the tolerance, whatever the older history holds
    c = cfg(beta=(1.0, 0.0, 0.0), k=k, use_limiter=False)
    eps = 1.0 / (err_const * dt ** k)
    dt_next, factor = pid_propose(ControllerState(dt, [eps] + h1[1:]), c)
    assert err_const * dt_next ** k == pytest.approx(1.0, rel=1e-12)
    assert factor == eps ** (1.0 / k)
    assert pid_propose(ControllerState(dt, [eps, 1.0, 1.0]), c) == (dt_next, factor)


@given(beta=_betas, k=_ks, dt=_dts, limiter=st.booleans())
def test_pid_neutral_history_is_a_fixed_point(beta, k, dt, limiter):
    state = ControllerState(dt_current=dt)
    dt_next, factor = pid_propose(state, cfg(beta=beta, k=k, use_limiter=limiter))
    assert factor == 1.0 and dt_next == dt


@given(beta=_betas, k=_ks, h=_histories, ratio=st.floats(1.001, 1e3))
def test_pid_factor_is_monotone_in_the_newest_eps(beta, k, h, ratio):
    larger = [h[0] * ratio] + h[1:]
    for limiter in (False, True):
        c = cfg(beta=beta, k=k, use_limiter=limiter)
        low = pid_propose(ControllerState(1.0, h), c)[1]
        high = pid_propose(ControllerState(1.0, larger), c)[1]
        assert (low < high) if not limiter else (low <= high)


@given(beta=_betas, k=_ks, h=_histories, dt=_dts)
def test_pid_limited_factor_stays_inside_the_arctan_band(beta, k, h, dt):
    dt_next, factor = pid_propose(ControllerState(dt, h), cfg(beta=beta, k=k))
    assert 1.0 - math.pi / 2 < factor < 1.0 + math.pi / 2
    assert dt_next == factor * dt
