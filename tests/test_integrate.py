import importlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rkadapt.catalog import catalog_get
from rkadapt.control import CflConfig, ControllerConfig
from rkadapt.integrate import IntegrationAbort, integrate, integrate_ensemble
from rkadapt.problems import Problem, make_problem
from rkadapt.search import SearchSpace


def cfg_for(scheme, tol, beta=(0.6, -0.2, 0.0)):
    return ControllerConfig.for_scheme(scheme, tol=tol, beta=beta)


class ZeroRhs:
    def __call__(self, t, u):
        return np.zeros_like(u)

    def is_admissible(self, u):
        return bool(np.all(np.isfinite(u)))


def test_zero_rhs_preserves_state_without_rejections():
    for name in ("BS3(2)3 FSAL", "RK4(3)9 3S*+", "SSP3(2)4"):
        scheme = catalog_get(name)
        rep = integrate(scheme, ZeroRhs(), cfg_for(scheme, 1e-6), 0.0, 5.0,
                        np.array([2.0, -1.0]))
        # register sweeps reassemble u^n through gamma combinations, so the
        # state is preserved to accumulated roundoff, not bitwise
        assert np.max(np.abs(rep.u_final - np.array([2.0, -1.0]))) <= 1e-12
        assert rep.n_rejected == 0
        assert rep.t_final == 5.0


def test_final_time_is_exact_bitwise():
    scheme = catalog_get("bs3")
    prob = make_problem("dahlquist", lam=-1.0, t_end=3.7)
    rep = integrate(scheme, prob.semi, cfg_for(scheme, 1e-7), 0.0, 3.7, prob.u0,
                    record_history=True)
    assert rep.t_final == 3.7
    assert sum(dt for _, dt, accepted in rep.history if accepted) == pytest.approx(
        3.7, rel=1e-12)


def test_tolerance_proportionality_on_dahlquist():
    scheme = catalog_get("bs3")
    prob = make_problem("dahlquist", lam=-1.0, t_end=10.0)
    errs = []
    tols = [1e-5, 1e-6, 1e-7, 1e-8]
    for tol in tols:
        rep = integrate(scheme, prob.semi, cfg_for(scheme, tol), 0.0, 10.0,
                        prob.u0, error_fn=prob.error_fn)
        errs.append(rep.errors["u"])
    slope = np.polyfit(np.log10(tols), np.log10(errs), 1)[0]
    assert 0.7 <= slope <= 1.3
    assert errs[-1] <= 1e-6   # tight tolerance delivers a tight error


def test_fsal_bookkeeping_total_fe():
    scheme = catalog_get("bs3")
    prob = make_problem("dahlquist", lam=-1.0, t_end=5.0)
    rep = integrate(scheme, prob.semi, cfg_for(scheme, 1e-7), 0.0, 5.0, prob.u0,
                    dt0=1e-3)
    # no rejections expected on this smooth problem at this tolerance
    assert rep.n_rejected == 0
    assert rep.nfe == rep.n_accepted * scheme.s + 1


class CappedRhs:
    """Admissibility fails above a cap; exercises the bounds-rejection path."""

    def __init__(self, cap):
        self.cap = cap

    def __call__(self, t, u):
        return u

    def is_admissible(self, u):
        return bool(np.all(np.isfinite(u)) and np.all(u <= self.cap))


def test_bounds_rejection_retries_without_advancing():
    scheme = catalog_get("SSP3(2)3")
    # growth: u(t) = e^t; cap far above the final value so only oversized
    # trial steps are rejected and the run still completes
    rhs = CappedRhs(cap=math.e ** 1.0 * 1.0001)
    rep = integrate(scheme, rhs, cfg_for(scheme, 1e-6), 0.0, 1.0, np.array([1.0]),
                    record_history=True)
    assert rep.t_final == 1.0
    assert rep.u_final[0] == pytest.approx(math.e, rel=1e-5)


class CountingCappedRhs(CappedRhs):
    """u' = lam * u with a cap on u, counting its own evaluations."""

    def __init__(self, cap, lam=1.0):
        super().__init__(cap)
        self.lam = lam
        self.calls = 0

    def __call__(self, t, u):
        self.calls += 1
        with np.errstate(over="ignore", invalid="ignore"):
            return self.lam * u


@pytest.mark.parametrize("rhs, t_end", [
    # the weighted norm of f(t0, u0) overflows: no Euler trial is made
    (CountingCappedRhs(cap=math.inf, lam=-1e300), 1.0),
    # the Euler trial u0 + h0 f0 = 1.01 is past the cap: no second call
    (CountingCappedRhs(cap=1.005), 0.004),
])
def test_nfe_counts_the_initial_step_calls_made(rhs, t_end):
    scheme = catalog_get("bs3")
    try:
        rep = integrate(scheme, rhs, cfg_for(scheme, 1e-6), 0.0, t_end, np.array([1.0]))
    except IntegrationAbort as exc:
        rep = exc.report
    assert rep.nfe == rhs.calls


def test_unreachable_bound_aborts_with_underflow():
    scheme = catalog_get("SSP3(2)3")
    rhs = CappedRhs(cap=1.5)   # exact solution crosses the cap before t_end
    with pytest.raises(IntegrationAbort, match="underflow"):
        integrate(scheme, rhs, cfg_for(scheme, 1e-6), 0.0, 2.0, np.array([1.0]))


def test_cfl_mode_fe_is_steps_times_stages():
    prob = make_problem("source1d", t_end=0.5)
    scheme = catalog_get("rk35-3s+fsal")
    sigma = 0.369
    rep = integrate(scheme, prob.semi, CflConfig(nu=1.0, sigma=sigma), 0.0, 0.5,
                    prob.u0)
    assert rep.nfe == rep.n_accepted * scheme.s
    rep2 = integrate(scheme, prob.semi, CflConfig(nu=0.5, sigma=sigma), 0.0, 0.5,
                     prob.u0)
    assert rep2.n_accepted == pytest.approx(2 * rep.n_accepted, rel=0.05)


def test_invalid_horizon_rejected():
    scheme = catalog_get("bs3")
    with pytest.raises(ValueError):
        integrate(scheme, ZeroRhs(), cfg_for(scheme, 1e-6), 1.0, 1.0, np.ones(1))


def test_report_wall_time_positive():
    scheme = catalog_get("bs3")
    rep = integrate(scheme, ZeroRhs(), cfg_for(scheme, 1e-6), 0.0, 1.0, np.ones(1))
    assert rep.wall_time > 0.0


def test_cfl_threshold_is_sharp_and_tracks_dt_across_grids():
    """A sharp CFL stability threshold exists on uniform and jittered grids;
    the limiting step size (not the nu value) is what carries across grids."""
    from rkadapt.control import cfl_dt
    from rkadapt.problems import cfl_sigma, make_problem

    scheme = catalog_get("rk510-3s+fsal")
    dt_star = {}
    for kind in ("uniform", "perturbed"):
        prob = make_problem("advection2d", grid=kind, seed=3, t_end=20.0)
        sigma = cfl_sigma(prob)

        def stable(nu):
            try:
                rep = integrate(scheme, prob.semi, CflConfig(nu=nu, sigma=sigma),
                                0.0, prob.t_end, prob.u0, error_fn=prob.error_fn)
            except IntegrationAbort:
                return False
            return rep.errors["u"] < 1.0

        best = None
        for nu in np.arange(3.0, 7.01, 0.5):
            if stable(nu):
                best = nu
        assert best is not None
        assert stable(best) and not stable(best + 0.75), kind
        dt_star[kind] = cfl_dt(prob.semi, prob.u0,
                               CflConfig(nu=best, sigma=sigma))
    ratio = dt_star["perturbed"] / dt_star["uniform"]
    assert 0.65 <= ratio <= 1.35, dt_star


def test_advection_plateau_with_classical_pi_controller():
    """Stability-limited regime: #FE approximately constant over the loose
    tolerance decades for a scheme/controller pair that is control-stable."""
    from rkadapt.problems import make_problem

    scheme = catalog_get("bs3")
    nfe = []
    for tol in (1e-3, 1e-4, 1e-5):
        prob = make_problem("advection2d")
        cfg = cfg_for(scheme, tol, beta=(0.7, -0.4, 0.0))
        rep = integrate(scheme, prob.semi, cfg, 0.0, prob.t_end, prob.u0)
        nfe.append(rep.nfe)
    assert (max(nfe) - min(nfe)) / min(nfe) < 0.20


class FaultyDecay:
    """u' = -u with a fixed CFL timescale; from call `nan_call` on the RHS
    returns NaN (at that call only if not `persistent`), and from call
    `bad_timescale` on the timescale is `bad_value`."""

    def __init__(self, nan_call=None, persistent=True, bad_timescale=None,
                 bad_value=math.inf, timescale=0.1):
        self.nan_call, self.persistent = nan_call, persistent
        self.bad_timescale, self.bad_value = bad_timescale, bad_value
        self.timescale = timescale
        self.rhs_calls = self.timescale_calls = 0

    def __call__(self, t, u):
        self.rhs_calls += 1
        n = self.nan_call
        if n is not None and (self.rhs_calls == n or
                              (self.persistent and self.rhs_calls > n)):
            return np.full_like(u, np.nan)
        return -u

    def cfl_timescale(self, u):
        self.timescale_calls += 1
        if self.bad_timescale is not None and self.timescale_calls >= self.bad_timescale:
            return self.bad_value
        return self.timescale


def test_cfl_timescale_turning_infinite_aborts_with_partial_report():
    scheme = catalog_get("rk35-3s+fsal")
    semi = FaultyDecay(bad_timescale=3)
    with pytest.raises(IntegrationAbort, match="CFL control undefined") as info:
        integrate(scheme, semi, CflConfig(nu=1.0, sigma=1.0), 0.0, 1.0,
                  np.array([1.0, 2.0]))
    rep = info.value.report
    assert rep.aborted and rep.abort_reason.startswith("CFL control undefined")
    # two accepted steps of 0.1, then the third timescale is inf
    assert rep.n_accepted == 2 and rep.t_final == 0.1 + 0.1
    assert rep.nfe == 2 * scheme.s and np.all(np.isfinite(rep.u_final))


def test_cfl_timescale_errors_of_the_semidiscretization_propagate():
    class Broken(FaultyDecay):
        def cfl_timescale(self, u):
            raise ValueError("timescale bug")

    scheme = catalog_get("rk35-3s+fsal")
    with pytest.raises(ValueError, match="timescale bug"):
        integrate(scheme, Broken(), CflConfig(nu=1.0, sigma=1.0), 0.0, 1.0, np.ones(2))


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(["BS3(2)3 FSAL", "RK3(2)5 3S*+", "RK4(3)9 3S*+ FSAL",
                             "SSP3(2)4"]),
       cfl=st.booleans(), nan_call=st.integers(1, 80), persistent=st.booleans(),
       bad_timescale=st.one_of(st.none(), st.integers(1, 30)),
       bad_value=st.sampled_from([math.nan, math.inf, 0.0, -1.0]))
def test_integrate_never_returns_a_non_finite_state_unflagged(
        name, cfl, nan_call, persistent, bad_timescale, bad_value):
    scheme = catalog_get(name)
    semi = FaultyDecay(nan_call, persistent, bad_timescale, bad_value, timescale=0.05)
    controller = CflConfig(nu=1.0, sigma=1.0) if cfl else cfg_for(scheme, 1e-5)
    try:
        rep = integrate(scheme, semi, controller, 0.0, 1.0, np.array([1.0, -2.0]))
    except IntegrationAbort as exc:
        rep = exc.report
        assert rep.aborted and rep.abort_reason
    else:
        assert not rep.aborted and rep.t_final == 1.0
    assert np.all(np.isfinite(rep.u_final))


def test_error_norm_beyond_the_float_range_rejects_like_a_bounds_failure():
    # atol = 1e-300 makes the weighted error of every step overflow to +inf;
    # each attempt is rejected at a quarter of the step and pushes nothing,
    # where eps = 0 in the history used to be raised to beta2 / k < 0
    scheme = catalog_get("bs3")
    prob = make_problem("dahlquist", lam=-1.0)
    cfg = ControllerConfig.for_scheme(scheme, atol=1e-300, rtol=0.0,
                                      beta=(0.7, -0.4, 0.0))
    with pytest.raises(IntegrationAbort, match="attempt budget") as info:
        integrate(scheme, prob.semi, cfg, 0.0, 1.0, prob.u0, dt0=0.1,
                  max_attempts=4, record_history=True)
    rep = info.value.report
    assert rep.n_accepted == 0 and rep.n_rejected == 4
    assert [dt for _, dt, accepted in rep.history if not accepted] == [
        0.1, 0.025, 0.00625, 0.0015625]


@pytest.mark.parametrize("t0, t_end, dt0, match", [
    (0.0, math.nan, None, "t_end"), (0.0, math.inf, None, "t_end"),
    (0.0, 0.0, None, "t_end"), (math.nan, 1.0, None, "t0"),
    (-math.inf, 1.0, None, "t0"), (0.0, 1.0, math.nan, "dt0"),
    (0.0, 1.0, 0.0, "dt0"), (0.0, 1.0, -0.1, "dt0"), (0.0, 1.0, math.inf, None)])
def test_a_horizon_or_first_step_that_is_not_a_number_is_refused(t0, t_end, dt0, match):
    # NaN passes a plain `t_end <= t0` check and then runs to the attempt
    # budget; an infinite dt0 is clipped to the horizon like any other
    scheme = catalog_get("bs3")
    prob = make_problem("dahlquist")
    args = (scheme, prob.semi, [cfg_for(scheme, 1e-6)], t0, t_end, prob.u0)
    if match is None:
        report, = integrate_ensemble(*args, dt0=dt0, max_attempts=100)
        assert report.t_final == t_end and not report.aborted
    else:
        with pytest.raises(ValueError, match=match):
            integrate_ensemble(*args, dt0=dt0, max_attempts=100)


# ---------------------------------------------------------------------------
# ensembles: each member's report is its own run's, bit for bit

def _alone(scheme, problem, controller, **kw):
    try:
        return integrate(scheme, problem.semi, controller, problem.t0, problem.t_end,
                         problem.u0, error_fn=problem.error_fn, record_history=True, **kw)
    except IntegrationAbort as exc:
        return exc.report


def _outcome(report):
    return (report.nfe, report.n_accepted, report.n_rejected, report.history,
            repr(report.errors), report.aborted, report.abort_reason, report.t_final,
            report.u_final.shape, report.u_final.tobytes())


def assert_members_equal_their_runs(scheme, problem, controllers, **kw):
    reports = integrate_ensemble(scheme, problem.semi, controllers, problem.t0,
                                 problem.t_end, problem.u0, error_fn=problem.error_fn,
                                 record_history=True, **kw)
    assert len(reports) == len(controllers)
    for controller, report in zip(controllers, reports):
        assert _outcome(report) == _outcome(_alone(scheme, problem, controller, **kw)), (
            controller.describe())
    return reports


_ENSEMBLE_PROBLEMS = {
    "dahlquist": make_problem("dahlquist", t_end=3.0),
    "source1d": make_problem("source1d", t_end=0.5),
    "vortex2d": make_problem("vortex2d", elements=4, degree=2, t_end=0.5),
}
_GRID = SearchSpace()
_betas = st.tuples(*(st.sampled_from([float(b) for b in axis])
                     for axis in (_GRID.beta1, _GRID.beta2, _GRID.beta3)))
_tols = st.sampled_from([1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
# on source1d at t_end 0.5 with RK3(2)5 3S*+ FSAL: (1.0, -0.4, 0.1) rejects
# every other step (a limit cycle), (0.7, -0.23, 0) at 1e-3 meets a NaN stage
# (a bounds retry) and (0.1, -0.4, 0.1) aborts on step size underflow
_PINNED = [((1.0, -0.4, 0.1), 1e-5), ((0.7, -0.23, 0.0), 1e-3),
           ((0.1, -0.4, 0.1), 1e-4), ((0.47, -0.24, 0.09), 1e-7)]


@settings(max_examples=25, deadline=None)
@given(problem=st.sampled_from(sorted(_ENSEMBLE_PROBLEMS)),
       name=st.sampled_from(["RK3(2)5 3S*+ FSAL", "RK3(2)5 3S*+", "BS3(2)3 FSAL",
                             "SSP3(2)4"]),
       members=st.lists(st.tuples(_betas, _tols), min_size=1, max_size=6),
       max_attempts=st.sampled_from([10_000_000, 40]))
@example(problem="source1d", name="RK3(2)5 3S*+ FSAL", members=_PINNED,
         max_attempts=10_000_000)
@example(problem="source1d", name="RK3(2)5 3S*+ FSAL", members=_PINNED, max_attempts=90)
def test_ensemble_members_equal_their_own_runs(problem, name, members, max_attempts):
    scheme = catalog_get(name)
    controllers = [ControllerConfig.for_scheme(scheme, tol=tol, beta=beta)
                   for beta, tol in members]
    assert_members_equal_their_runs(scheme, _ENSEMBLE_PROBLEMS[problem], controllers,
                                    max_attempts=max_attempts)


def test_pinned_ensemble_limit_cycles_meets_nan_stages_and_aborts(monkeypatch):
    deaths = []
    integrate_mod = importlib.import_module("rkadapt.integrate")
    step = integrate_mod.step

    def spy(*args, **kw):
        res = step(*args, **kw)
        if not all(res.finite):
            deaths.append(res.finite.count(False))
        return res

    monkeypatch.setattr(integrate_mod, "step", spy)
    scheme = catalog_get("RK3(2)5 3S*+ FSAL")
    problem = _ENSEMBLE_PROBLEMS["source1d"]
    controllers = [ControllerConfig.for_scheme(scheme, tol=tol, beta=beta)
                   for beta, tol in _PINNED]
    cycling, bounded, underflow, smooth = assert_members_equal_their_runs(
        scheme, problem, controllers)
    assert deaths
    assert cycling.n_rejected >= 0.9 * cycling.n_accepted > 50
    deaths.clear()
    _alone(scheme, problem, controllers[1])
    assert deaths == [1] and bounded.n_rejected > 0 and not bounded.aborted
    assert underflow.aborted and underflow.abort_reason == "step size underflow"
    assert not smooth.aborted and smooth.n_rejected == 0
    # a budget between the members' attempt counts aborts only the longer runs
    budget = smooth.n_accepted + 1
    reports = assert_members_equal_their_runs(scheme, problem, controllers,
                                              max_attempts=budget)
    assert [r.abort_reason for r in reports] == [
        "attempt budget exhausted", None, "step size underflow", None]


class _RowCounter:
    """A batched semidiscretization that counts the member rows it evaluates."""

    def __init__(self, semi):
        self.semi, self.rows = semi, 0

    def __call__(self, t, u):
        self.rows += 1 if np.ndim(t) == 0 else len(t)
        return self.semi(t, u)

    def __getattr__(self, name):
        return getattr(self.semi, name)


def test_every_evaluated_row_is_counted_work():
    # a member whose stage turns NaN leaves the sweep: no row is evaluated
    # for it after that, and no survivor's stage is evaluated twice
    scheme = catalog_get("RK3(2)5 3S*+ FSAL")
    problem = _ENSEMBLE_PROBLEMS["source1d"]
    rhs = _RowCounter(problem.semi)
    assert rhs.batched
    controllers = [ControllerConfig.for_scheme(scheme, tol=tol, beta=beta)
                   for beta, tol in _PINNED]
    reports = integrate_ensemble(scheme, rhs, controllers, problem.t0, problem.t_end,
                                 problem.u0)
    assert rhs.rows == sum(r.nfe for r in reports)


def test_cfl_ensemble_members_equal_their_own_runs():
    scheme = catalog_get("SSP3(2)4")
    problem = make_problem("vortex2d", elements=4, degree=2, t_end=1.0)
    # nu = 4 leaves the admissible set and aborts; the others finish
    reports = assert_members_equal_their_runs(
        scheme, problem, [CflConfig(nu=nu, sigma=0.369) for nu in (0.5, 4.0, 1.0)])
    assert [r.aborted for r in reports] == [False, True, False]


class BatchedDecay:
    """u' = -u, on one state or a stack of them; the CFL timescale is 0.05
    while every component exceeds `floor` and inf after, per member."""

    batched = True

    def __init__(self, floor):
        self.floor = floor

    def __call__(self, t, u):
        return -u

    def is_admissible(self, u):
        ok = np.all(np.isfinite(u), axis=-1)
        return ok.item() if ok.ndim == 0 else ok

    def cfl_timescale(self, u):
        ts = np.where(np.min(u, axis=-1) > self.floor, 0.05, math.inf)
        return ts.item() if ts.ndim == 0 else ts


def test_cfl_ensemble_members_abort_on_their_own_undefined_timescale():
    # u = e^-t passes the floor at t = 0.94: steps of 0.025 and 0.05 attempt
    # from t = 0.95 and abort there, while the stack runs on without them;
    # steps of 0.1 and 0.2 last attempt from 0.9 and 0.8 and finish at 0.98
    scheme = catalog_get("rk35-3s+fsal")
    problem = Problem("decay", BatchedDecay(floor=0.39), np.array([1.0, 2.0]), 0.98,
                      None, None)
    reports = assert_members_equal_their_runs(
        scheme, problem, [CflConfig(nu=nu, sigma=1.0) for nu in (0.5, 2.0, 1.0, 4.0)])
    assert [r.aborted for r in reports] == [True, False, True, False]
    assert reports[0].abort_reason.startswith("CFL control undefined")


class PositiveDecay:
    """u' = lam * u on one state or a stack of them; a state with a negative
    entry is not admissible, per member, and each refusal is counted."""

    batched = True

    def __init__(self, lam):
        self.lam, self.refused = lam, 0

    def __call__(self, t, u):
        return self.lam * u

    def is_admissible(self, u):
        ok = np.all(u >= 0, axis=-1)
        self.refused += int(np.size(ok) - np.count_nonzero(ok))
        return ok.item() if ok.ndim == 0 else ok


def test_ensemble_members_with_inadmissible_results_equal_their_own_runs():
    # steps near the stability limit overshoot below zero; the refused
    # member retries at a quarter of its step while the others advance
    scheme = catalog_get("SSP3(2)3")
    rhs = PositiveDecay(lam=-10.0)
    problem = Problem("decay", rhs, np.array([1.0]), 2.0, None, None)
    reports = assert_members_equal_their_runs(
        scheme, problem, [cfg_for(scheme, tol) for tol in (1e-2, 1e-4, 1e-7)])
    assert rhs.refused > 0
    assert all(r.t_final == 2.0 and not r.aborted for r in reports)


def test_unbatched_rhs_ensemble_members_underflow_as_their_own_runs():
    scheme = catalog_get("SSP3(2)3")
    problem = Problem("capped", CappedRhs(cap=1.5), np.array([1.0]), 2.0, None, None)
    reports = assert_members_equal_their_runs(
        scheme, problem, [cfg_for(scheme, tol) for tol in (1e-3, 1e-6)])
    assert all(r.abort_reason == "step size underflow after bounds rejection"
               for r in reports)


def test_ensemble_needs_one_kind_of_controller():
    scheme = catalog_get("bs3")
    prob = make_problem("dahlquist")
    with pytest.raises(ValueError, match="all PID or all CFL"):
        integrate_ensemble(scheme, prob.semi, [cfg_for(scheme, 1e-6),
                                               CflConfig(nu=1.0, sigma=1.0)],
                           0.0, 1.0, prob.u0)
    with pytest.raises(ValueError, match="at least one"):
        integrate_ensemble(scheme, prob.semi, [], 0.0, 1.0, prob.u0)
