import math
import os
import subprocess
import sys

import numpy as np
import pytest

from rkadapt.catalog import catalog_get, catalog_names
from rkadapt.control import ControllerConfig
from rkadapt.integrate import IntegrationAbort, integrate
from rkadapt.problems import make_problem
from rkadapt import search, stability
from rkadapt.search import (CandidateResult, EmptyStableSetError, SearchResult,
                            SearchSpace, filter_stable, recommend, run_search)


def test_grid_cardinality():
    space = SearchSpace()
    assert len(space.beta1) == 91
    assert len(space.beta2) == 36
    assert len(space.beta3) == 11
    assert space.cardinality == 91 * 36 * 11


def test_grid_endpoints_inclusive():
    space = SearchSpace()
    assert space.beta1[0] == 0.10 and space.beta1[-1] == 1.00
    assert space.beta2[0] == -0.40 and space.beta2[-1] == -0.05
    assert space.beta3[0] == 0.00 and space.beta3[-1] == 0.10


def test_subsample_deterministic_and_bounded():
    space = SearchSpace()
    a = space.subsample(100, seed=5)
    b = space.subsample(100, seed=5)
    assert a == b
    assert len(a) == 100
    assert len(set(a)) == 100
    c = space.subsample(100, seed=6)
    assert c != a


SUBSAMPLE_16 = [(0.19, -0.39, 0.03), (0.64, -0.15, 0.07), (0.41, -0.27, 0.01),
                (0.87, -0.35, 0.05), (0.3, -0.11, 0.09), (0.75, -0.23, 0.02),
                (0.53, -0.31, 0.07), (0.98, -0.07, 0.0), (0.13, -0.19, 0.05),
                (0.58, -0.4, 0.09), (0.36, -0.16, 0.02), (0.81, -0.28, 0.06),
                (0.24, -0.36, 0.0), (0.7, -0.12, 0.04), (0.47, -0.24, 0.09),
                (0.92, -0.32, 0.03)]


@pytest.mark.parametrize("n", [1, 64, 600, 4096])
def test_halton_is_scipys_scrambled_halton_bit_for_bit(n):
    from scipy.stats import qmc
    for seed in range(40):
        expected = qmc.Halton(d=3, scramble=True, seed=seed).random(n)
        assert np.array_equal(search._halton(n, seed), expected), seed


def _scipy_subsample(space, budget, seed):
    # a fixed 4 * budget draw of scipy's sequence, first hits in draw order
    from scipy.stats import qmc
    axes = (space.beta1, space.beta2, space.beta3)
    picked = {}
    for row in qmc.Halton(d=3, scramble=True, seed=seed).random(4 * budget):
        idx = tuple(int(v * len(ax)) if v < 1.0 else len(ax) - 1
                    for v, ax in zip(row, axes))
        picked.setdefault(idx, tuple(float(ax[i]) for ax, i in zip(axes, idx)))
        if len(picked) >= budget:
            break
    return list(picked.values())


def test_subsample_keeps_the_candidates_of_a_scipy_draw():
    space = SearchSpace()
    assert space.subsample(16, seed=0) == SUBSAMPLE_16
    for budget in (16, 150):
        for seed in (0, 5):
            assert space.subsample(budget, seed) == _scipy_subsample(space, budget, seed)


@pytest.mark.parametrize("budget", [30_000, 36_000, 36_035])
def test_subsample_fills_its_budget_near_the_grid_size(budget):
    space = SearchSpace()
    picked = space.subsample(budget, seed=0)
    assert len(picked) == budget and len(set(picked)) == budget
    assert set(picked) <= set(space.candidates())
    # a longer prefix of the same sequence extends the smaller budgets' lists
    assert picked[:150] == space.subsample(150, seed=0)


def test_importing_the_package_and_cli_loads_no_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, rkadapt, rkadapt.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_bs5_stability_prefilter():
    scheme = catalog_get("BS5(4)7 FSAL")
    stable, unstable, indet = filter_stable(
        scheme, [(0.70, -0.40, 0.00), (0.28, -0.23, 0.00), (0.0, 0.0, 0.0)])
    assert (0.28, -0.23, 0.00) in stable
    assert (0.70, -0.40, 0.00) in unstable
    assert (0.0, 0.0, 0.0) in unstable    # neutral shift: rho = 1 fails strict < 1
    assert not indet


@pytest.mark.parametrize("name, n_stable", [("RK3(2)5 3S*+ FSAL", 11_863),
                                             ("BS3(2)3 FSAL", 14_992)])
def test_full_grid_filter_keeps_the_eigenvalue_route_counts(name, n_stable):
    # counts from the 6x6 Jacobian eigenvalues that the quartic test replaced
    space = SearchSpace()
    stable, unstable, indet = filter_stable(catalog_get(name), space.candidates())
    assert len(stable) == n_stable
    assert len(stable) + len(unstable) == space.cardinality and not indet


@pytest.mark.parametrize("name", catalog_names())
def test_zero_sum_controllers_are_unstable(name):
    # b1 + b2 + b3 = 0 puts a root of the control quartic at lam = 1: the
    # radius is 1 and none of these controllers is stable
    zero_sum = [b for b in SearchSpace().candidates() if abs(sum(b)) < 1e-9]
    assert len(zero_sum) == 286
    stable, unstable, _ = filter_stable(catalog_get(name), zero_sum)
    assert not stable and len(unstable) == 286


def test_degenerate_single_candidate_search_matches_direct_run():
    scheme = catalog_get("bs3")
    prob = make_problem("dahlquist", lam=-1.0, t_end=5.0)
    space = SearchSpace(beta1=(0.60,), beta2=(-0.20,), beta3=(0.00,))
    result = run_search(scheme, [prob], space=space, tolerances=(1e-6,))
    assert len(result.stable_candidates()) == 1
    cand = result.stable_candidates()[0]
    cfg = ControllerConfig.for_scheme(scheme, tol=1e-6, beta=(0.60, -0.20, 0.00))
    rep = integrate(scheme, prob.semi, cfg, prob.t0, prob.t_end, prob.u0,
                    error_fn=prob.error_fn)
    assert cand.runs[0][2] == rep.nfe
    ranked = recommend(result)
    assert ranked[0].beta == (0.60, -0.20, 0.00)


def _integrated_row(scheme, problem, beta, tol):
    """A candidate's search row from its own `integrate` run, an abort
    caught from the raise."""
    cfg = ControllerConfig.for_scheme(scheme, tol=tol, beta=beta)
    try:
        rep = integrate(scheme, problem.semi, cfg, problem.t0, problem.t_end,
                        problem.u0, error_fn=problem.error_fn,
                        max_attempts=search.MAX_ATTEMPTS)
    except IntegrationAbort:
        return (problem.name, tol, math.inf, math.inf, math.inf, True)
    err = max(rep.errors.values()) if rep.errors else math.nan
    return (problem.name, tol, rep.nfe, rep.n_rejected, err, False)


@pytest.mark.parametrize("max_attempts", [search.MAX_ATTEMPTS, 30])
def test_search_rows_equal_one_candidate_runs(monkeypatch, max_attempts):
    # each (problem, tol) runs its stable candidates as one ensemble; every
    # row must be the candidate's own run's.  At 30 attempts every source1d
    # member and one dahlquist 1e-5 member leave on the budget while the
    # other members of that ensemble finish.
    monkeypatch.setattr(search, "MAX_ATTEMPTS", max_attempts)
    scheme = catalog_get("rk35-3s+fsal")
    probs = [make_problem("source1d", t_end=0.5), make_problem("dahlquist", t_end=3.0)]
    space = SearchSpace(beta1=(0.1, 0.47, 1.0), beta2=(-0.4, -0.24), beta3=(0.0, 0.1))
    tolerances = (1e-3, 1e-5)
    result = run_search(scheme, probs, space=space, tolerances=tolerances)
    stable = result.stable_candidates()
    assert len(stable) >= 3
    for cand in stable:
        alone = [_integrated_row(scheme, p, cand.beta, tol)
                 for p in probs for tol in tolerances]
        assert repr(cand.runs) == repr(alone), cand.beta
    failed = sorted((run[0], run[1], cand.beta) for cand in stable
                    for run in cand.runs if run[5])
    if max_attempts == 30:
        assert failed == [("dahlquist", 1e-5, (0.47, -0.4, 0.0))] + sorted(
            ("source1d", tol, cand.beta) for tol in tolerances for cand in stable)
    else:
        assert not failed


def test_median_aggregate_arithmetic():
    a = CandidateResult(beta=(0.5, -0.2, 0.0), stable=True,
                        runs=[("p", 1e-5, 10, 0, 0.0, False),
                              ("q", 1e-5, 20, 0, 0.0, False)])
    b = CandidateResult(beta=(0.6, -0.2, 0.0), stable=True,
                        runs=[("p", 1e-5, 15, 0, 0.0, False),
                              ("q", 1e-5, 15, 0, 0.0, False)])
    assert a.aggregate("min-median") == 15.0
    assert b.aggregate("min-median") == 15.0
    assert a.aggregate("min-max") == 20.0
    assert b.aggregate("min-max") == 15.0


def test_tie_break_prefers_deadbeat():
    runs = [("p", 1e-5, 10, 0, 0.0, False)]
    a = CandidateResult(beta=(0.5, -0.3, 0.05), stable=True, runs=list(runs))
    b = CandidateResult(beta=(0.7, -0.3, 0.05), stable=True, runs=list(runs))
    c = CandidateResult(beta=(0.7, -0.1, 0.05), stable=True, runs=list(runs))
    d = CandidateResult(beta=(0.7, -0.1, 0.00), stable=True, runs=list(runs))
    result = type("R", (), {"stable_candidates": lambda self: [a, b, c, d],
                            "scheme": "x"})()
    ranked = recommend(result, "min-max")
    assert [r.beta for r in ranked] == [
        (0.7, -0.1, 0.00), (0.7, -0.1, 0.05), (0.7, -0.3, 0.05), (0.5, -0.3, 0.05)]


def test_failed_runs_cost_infinity():
    cand = CandidateResult(beta=(0.5, -0.2, 0.0), stable=True,
                           runs=[("p", 1e-5, 100, 2, 0.1, False),
                                 ("q", 1e-5, math.inf, math.inf, math.inf, True)])
    assert cand.aggregate("min-max") == math.inf
    assert cand.aggregate("min-median") == math.inf


def test_empty_stable_set_raises():
    result = SearchResult(scheme="x", candidates=[])
    with pytest.raises(EmptyStableSetError, match="^no control-stable candidates for x; "
                       "step size control stability cannot be achieved on this grid$"):
        recommend(result)
    assert issubclass(EmptyStableSetError, stability.EmptyResultError)


def test_search_determinism():
    scheme = catalog_get("bs3")
    prob = make_problem("dahlquist", lam=-2.0, t_end=3.0)
    space = SearchSpace(beta1=(0.4, 0.6), beta2=(-0.2,), beta3=(0.0,))
    r1 = run_search(scheme, [prob], space=space, tolerances=(1e-5, 1e-7))
    r2 = run_search(scheme, [prob], space=space, tolerances=(1e-5, 1e-7))
    assert [c.beta for c in r1.candidates] == [c.beta for c in r2.candidates]
    assert [c.runs for c in r1.stable_candidates()] == \
           [c.runs for c in r2.stable_candidates()]


def test_recommended_candidates_are_stable_by_construction():
    scheme = catalog_get("bs3")
    prob = make_problem("dahlquist", lam=-1.0, t_end=2.0)
    space = SearchSpace(beta1=(0.3, 0.6, 0.9), beta2=(-0.4, -0.2), beta3=(0.0,))
    result = run_search(scheme, [prob], space=space, tolerances=(1e-6,))
    for cand in recommend(result):
        assert cand.stable
