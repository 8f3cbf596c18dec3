"""Brute-force controller-parameter optimization over a (beta1, beta2, beta3) grid.

Candidates are pre-filtered by step-size-control stability, every stable
candidate is integrated on each problem at each tolerance, failed runs cost
+inf, and the aggregation minimizes the maximum, median, or 95th percentile
of the RHS-evaluation counts across runs.  The stable candidates of each
(problem, tolerance) run as one ensemble, bit for bit equal to separate
runs.  A boundary that cannot be traced raises `stability.TraceError`, and
one with no informative sample `stability.NoVerdictError`, out of
`filter_stable` and `run_search`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import stability
from .control import ControllerConfig
# `integrate` is not called here; perfbench/tracing.py wraps search.integrate
from .integrate import integrate, integrate_ensemble  # noqa: F401

DEFAULT_TOLERANCES = tuple(10.0 ** -e for e in range(8, 0, -1))   # 1e-8 .. 1e-1
MAX_ATTEMPTS = 2_000_000     # step attempts per run before it counts as failed

# aggregation policies: name -> reducer of a candidate's finite nfe values
POLICIES = {
    "min-max": max,
    "min-median": lambda vals: float(np.median(vals)),
    "min-p95": lambda vals: float(np.percentile(vals, 95)),
}


class EmptyStableSetError(stability.EmptyResultError):
    """No control-stable candidate exists; the pair is uncontrollable here."""


def _inclusive_grid(lo, hi, step):
    n = int(round((hi - lo) / step)) + 1
    return np.round(lo + step * np.arange(n), 10)


@dataclass(frozen=True)
class SearchSpace:
    beta1: tuple = tuple(_inclusive_grid(0.10, 1.00, 0.01))
    beta2: tuple = tuple(_inclusive_grid(-0.40, -0.05, 0.01))
    beta3: tuple = tuple(_inclusive_grid(0.00, 0.10, 0.01))

    @property
    def cardinality(self):
        return len(self.beta1) * len(self.beta2) * len(self.beta3)

    def candidates(self):
        for b1 in self.beta1:
            for b2 in self.beta2:
                for b3 in self.beta3:
                    yield (float(b1), float(b2), float(b3))

    def subsample(self, budget, seed=0):
        """Deterministic low-discrepancy subsample of `budget` distinct points:
        the first grid cells hit by the scrambled Halton sequence of `seed`.
        A larger budget extends a smaller one's list."""
        if budget is None or budget >= self.cardinality:
            return list(self.candidates())
        axes = (self.beta1, self.beta2, self.beta3)
        sizes = np.array([len(ax) for ax in axes])
        n = 4 * budget       # oversample to absorb grid-rounding duplicates
        while True:
            idx = np.minimum((_halton(n, seed) * sizes).astype(np.int64), sizes - 1)
            cells = np.ravel_multi_index(idx.T, sizes)
            first = np.sort(np.unique(cells, return_index=True)[1])
            if len(first) >= budget:
                break
            n *= 2           # a longer prefix of the same sequence
        return [tuple(float(ax[i]) for ax, i in zip(axes, idx[k]))
                for k in first[:budget]]


def _halton(n, seed):
    """The first `n` points of the scrambled 3-D Halton sequence, bit for bit
    those of scipy.stats.qmc.Halton(d=3, scramble=True, seed=seed): one
    shuffled digit permutation per base-`base` digit that a double resolves,
    summed from the leading digit down."""
    rng = np.random.default_rng(seed)
    out = np.zeros((3, n))
    for row, base in zip(out, (2, 3, 5)):
        perms = np.repeat(np.arange(base)[None],
                          math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        q = np.arange(n, dtype=np.int64)
        scale = 1.0 / base
        for perm in perms:
            row += perm[q % base] * scale
            scale /= base
            q //= base
    return out.T


@dataclass
class CandidateResult:
    beta: tuple
    stable: bool
    runs: list = field(default_factory=list)   # (problem, tol, nfe, n_rejected, error, failed)

    def nfe_values(self):
        return [math.inf if failed else nfe for (_, _, nfe, _, _, failed) in self.runs]

    def aggregate(self, policy):
        reduce = POLICIES[policy]
        vals = self.nfe_values()
        if not vals or any(math.isinf(v) for v in vals):
            return math.inf
        return reduce(vals)


@dataclass
class SearchResult:
    scheme: str
    candidates: list                    # CandidateResult, stable ones carry runs

    def stable_candidates(self):
        return [c for c in self.candidates if c.stable]

    def min_nfe(self, problem=None, tol=None):
        """Smallest finite #FE over stable candidates, optionally filtered."""
        best = math.inf
        for cand in self.stable_candidates():
            for (pname, ptol, nfe, _, _, failed) in cand.runs:
                if failed:
                    continue
                if problem is not None and pname != problem:
                    continue
                if tol is not None and ptol != tol:
                    continue
                best = min(best, nfe)
        return best


def filter_stable(scheme, candidates):
    """Split an iterable of candidates into the control-stable and the
    unstable ones by `stability.control_verdicts`; the third list is always
    empty, as a boundary without an informative sample raises instead."""
    candidates = list(candidates)
    verdicts = stability.control_verdicts(scheme, candidates)
    stable = [b for b, ok in zip(candidates, verdicts) if ok]
    unstable = [b for b, ok in zip(candidates, verdicts) if not ok]
    return stable, unstable, []


def run_search(scheme, problems, space=SearchSpace(), budget=None,
               tolerances=DEFAULT_TOLERANCES, seed=0) -> SearchResult:
    """Evaluate every (stable beta, tolerance, problem) combination.

    Integration failures (aborts, inadmissible blowups) are recorded with
    infinite cost rather than dropped, so min-max aggregation punishes
    fragile controllers.
    """
    tolerances = tuple(tolerances)
    candidates = space.subsample(budget, seed=seed)
    stable, unstable, _ = filter_stable(scheme, candidates)

    results = [CandidateResult(beta=b, stable=False) for b in unstable]
    evaluated = [CandidateResult(beta=beta, stable=True) for beta in stable]
    for problem in problems:
        for tol in tolerances:
            for cand, run in zip(evaluated, _run_ensemble(scheme, problem, stable, tol)):
                cand.runs.append(run)
    results += evaluated
    results.sort(key=lambda c: c.beta)
    return SearchResult(scheme=getattr(scheme, "name", type(scheme).__name__),
                        candidates=results)


def _run_ensemble(scheme, problem, betas, tol):
    """The search rows of the candidates' runs at one (problem, tol), all in
    one ensemble."""
    if not betas:
        return []
    cfgs = [ControllerConfig.for_scheme(scheme, tol=tol, beta=beta) for beta in betas]
    reports = integrate_ensemble(scheme, problem.semi, cfgs, problem.t0, problem.t_end,
                                 problem.u0, error_fn=problem.error_fn,
                                 max_attempts=MAX_ATTEMPTS)
    return [_row(problem, tol, rep) for rep in reports]


def _run_one(scheme, problem, beta, tol):
    """The search row of one candidate's run alone: the one-member
    ensemble."""
    return _run_ensemble(scheme, problem, [beta], tol)[0]


def _row(problem, tol, rep):
    """(problem, tol, nfe, n_rejected, error, failed); an aborted run costs +inf."""
    if rep.aborted:
        return (problem.name, tol, math.inf, math.inf, math.inf, True)
    err = max(rep.errors.values()) if rep.errors else math.nan
    return (problem.name, tol, rep.nfe, rep.n_rejected, err, False)


def recommend(result: SearchResult, policy="min-max"):
    """Rank stable candidates by the aggregation policy.

    Ties break toward deadbeat control: larger beta1, then smaller |beta2|,
    then smaller beta3.
    """
    stable = result.stable_candidates()
    if not stable:
        raise EmptyStableSetError(f"no control-stable candidates for {result.scheme}; "
                                  "step size control stability cannot be achieved on this grid")
    keyed = sorted(
        stable,
        key=lambda c: (c.aggregate(policy), -c.beta[0], abs(c.beta[1]), c.beta[2]))
    return keyed
