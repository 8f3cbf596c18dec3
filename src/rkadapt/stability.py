"""Stability polynomials, region boundaries, and step-size-control stability.

The boundary of the absolute stability region is traced as the locus branch
R(z) = e^{i theta} through the origin, continued in theta until the curve
closes (theta winds through several multiples of 2 pi for higher-order
methods whose boundary hugs the imaginary axis).

Step-size-control stability linearizes the coupled (log step, log error)
recursion at boundary points (a 6x6 Jacobian; the tests keep it as the
reference for the quartic).  Its entries use the real parts r and e of the
logarithmic derivatives z R'(z)/R(z) and z E'(z)/E(z), since the recursion
governs the moduli.  Its eigenvalues are {0, 0} and the roots of the
control quartic

    p(lam) = lam^2 (lam - 1)^2 + ((lam - 1) e + r)(b1 lam^2 + b2 lam + b3) / k.

The stability filter and the boundary scan share one criterion,
`control_verdicts`: every root of p strictly inside the unit circle at every
retained sample (Schur-Cohn), and NoVerdictError where none is retained.
Reported radii are the largest root moduli of p, from Ferrari's closed form
polished by one Newton step, or from the eigenvalues of p's 4x4 companion
matrix where the closed form cannot resolve them, as where two roots nearly
coincide (`_rho_batch`).
Samples are excluded when they carry no controller information:

* degenerate points, |R(z)| or |E(z)| below 1e-14 (E always vanishes at the
  origin);
* tangential points where |Re(z R'/R)| < 1e-3: there the radial error growth
  vanishes to leading order and the Jacobian has a neutral eigenvalue at 1
  regardless of the controller (these cluster where the boundary runs along
  the imaginary axis);
* points with Re(z) > 0, unreachable as z = dt*lambda for dissipative
  semidiscretizations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .lowstorage import to_butcher

polyval = np.polynomial.polynomial.polyval
polyder = np.polynomial.polynomial.polyder

BOUNDARY_TOL = 1e-10
DTHETA = 2 * np.pi / 256       # largest continuation step in theta
MAX_WINDING = 64               # turns of theta before a trace counts as open
DEGENERATE_TOL = 1e-14
TANGENTIAL_TOL = 1e-3
ROOT_SEPARATION = 1e-3          # closer control-quartic roots take eigvals


class TraceError(RuntimeError):
    def __init__(self, msg, theta):
        super().__init__(f"{msg} (last theta = {theta:.6f})")
        self.theta = theta


class EmptyResultError(RuntimeError):
    """No answer exists for this scheme; the CLI's exit 3."""


class NoVerdictError(EmptyResultError):
    """No boundary sample carried controller information."""


@dataclass(frozen=True)
class StabilityPolynomials:
    """Main polynomial R, embedded polynomial, and their difference E."""

    main: np.ndarray        # coefficients of R, ascending powers
    embedded: np.ndarray    # embedded stability polynomial (FSAL-extended tableau)
    diff: np.ndarray        # E = embedded - main
    s_eff: int              # effective stage count for region scaling

    def __post_init__(self):
        for attr in ("main", "embedded", "diff"):
            object.__setattr__(self, attr, np.asarray(getattr(self, attr), dtype=float))


@dataclass(frozen=True)
class BoundaryTrace:
    points: np.ndarray
    thetas: np.ndarray
    total_theta: float        # 2 pi * winding
    winding: int              # turns of theta until the branch closes
    halvings: int             # continuation steps halved (Newton failed or jumped)


@dataclass(frozen=True)
class ControlStabilityReport:
    samples: list                 # (z, rho) at retained boundary samples
    max_rho: float
    stable: bool
    n_skipped: int


def _weight_polynomial(A, w):
    """Coefficients of 1 + sum_j (w A^{j-1} 1) z^j."""
    s = A.shape[0]
    coeffs = [1.0]
    v = np.ones(s)
    for _ in range(s):
        coeffs.append(float(w @ v))
        v = A @ v
    return np.array(coeffs)


def _trim(c):
    nz = np.nonzero(c)[0]
    return c[: nz[-1] + 1] if len(nz) else c[:1]


def stability_polynomials(scheme) -> StabilityPolynomials:
    """R, embedded, and E = embedded - main for a pair or low-storage scheme.

    The embedded polynomial of an FSAL pair is computed on the extended
    tableau whose extra row is b, so it has degree up to s+1.
    """
    pair = to_butcher(scheme)
    R = _weight_polynomial(pair.A, pair.b)
    if pair.fsal:
        Ae, _ = pair.extended()
        Re = _weight_polynomial(Ae, pair.bhat)
    else:
        Re = _weight_polynomial(pair.A, pair.bhat[:pair.s])
    n = max(len(R), len(Re))
    E = np.zeros(n)
    E[:len(Re)] += Re
    E[:len(R)] -= R
    return StabilityPolynomials(main=_trim(R), embedded=_trim(Re), diff=E,
                                s_eff=pair.s)


def _horner(c, x):
    """polyval(x, c) for a Python complex x and a list of float coefficients."""
    y = c[-1] + x * 0
    for ci in c[-2::-1]:
        y = ci + y * x
    return y


def trace_boundary(polys: StabilityPolynomials, n_points=512) -> BoundaryTrace:
    """Trace the boundary-locus branch of |R| = 1 through the origin.

    A coarse continuation in theta (Newton on Python complex scalars, the
    theta step halved whenever Newton fails or the curve jumps) finds the
    branch and closes at the first multiple of 2 pi where it is back at the
    origin.  One batched Newton then solves every sample at its own theta,
    from the last traced point before it; a sample that does not converge
    or leaves the traced step spanning it raises TraceError.
    """
    if n_points < 64:
        raise ValueError("n_points must be at least 64")
    R, Rp = polys.main, polyder(polys.main)
    Rl, Rpl = R.tolist(), Rp.tolist()
    zs, ths = [0j], [0.0]
    z, th, Rz = 0.0 + 0.0j, 0.0, 1.0 + 0.0j     # R(z) = e^{i th} on the branch
    step, halvings, winding = DTHETA, 0, 0
    while True:
        turn = 2 * math.pi * (winding + 1)
        th_new = min(th + step, turn)
        target = cmath.exp(1j * th_new)
        try:
            z0 = z + (target - Rz) / _horner(Rpl, z)
            resid = _horner(Rl, z0) - target
            for _ in range(60):
                if abs(resid) < 1e-12:
                    break
                z0 = z0 - resid / _horner(Rpl, z0)
                resid = _horner(Rl, z0) - target
            else:
                z0 = None
        except (ZeroDivisionError, OverflowError):     # R' vanished or blew up
            z0 = None
        dz = math.inf if z0 is None else abs(z0 - z)
        if dz > 0.2:
            step *= 0.5
            halvings += 1
            if step < 1e-10:
                raise TraceError("Newton continuation stalled", th)
            continue
        z, th, Rz = z0, th_new, target
        zs.append(z)
        ths.append(th)
        if dz < 0.05:
            step = min(step * 1.5, DTHETA)
        if th == turn:
            winding += 1
            if abs(z) < 1e-6:
                break
            if winding == MAX_WINDING:
                raise TraceError("boundary trace did not close", th)
    zs, ths = np.asarray(zs), np.asarray(ths)
    t_out = ths[-1] * (np.arange(n_points) + 0.5) / n_points
    j = np.searchsorted(ths, t_out, side="right") - 1
    start = zs[j]
    target = np.exp(1j * t_out)
    with np.errstate(all="ignore"):
        pts = start + (target - np.exp(1j * ths[j])) / polyval(start, Rp)
        for _ in range(60):
            resid = polyval(pts, R) - target
            live = ~(np.abs(resid) < 1e-12)
            if not live.any():
                break
            pts = np.where(live, pts - resid / polyval(pts, Rp), pts)
        # the ends of a traced step solve R = e^{i theta} to 1e-12 / |R'| each
        slack = 2e-12 / np.abs(polyval(pts, Rp))
    bad = live | ~(np.abs(pts - start) <= np.abs(zs[j + 1] - start) + slack)
    if np.any(bad):
        raise TraceError("a sample did not converge within its traced step",
                         float(t_out[np.argmax(bad)]))
    resid = np.abs(np.abs(polyval(pts, R)) - 1.0)
    if np.max(resid) > BOUNDARY_TOL:
        raise TraceError("traced points violate |R| = 1", float(t_out[np.argmax(resid)]))
    return BoundaryTrace(points=pts, thetas=t_out, total_theta=ths[-1],
                         winding=winding, halvings=halvings)


def grid_boundary(polys: StabilityPolynomials, n_points=512):
    """Radial bisection of |R| = 1 from the origin out to radius 4 s_eff (star-
    shaped regions).  Nothing in the package calls it; it stays only while
    perfbench/tracing.py patches it, as tests/test_tracing.py requires every
    patched name to exist, and ROADMAP item 15 deletes it with that patch.
    """
    R = polys.main
    r_max = 4.0 * polys.s_eff
    out = []
    for phi in np.linspace(0.5 * np.pi, 1.5 * np.pi, n_points):
        d = np.exp(1j * phi)
        lo, hi = 0.0, r_max
        if abs(polyval(hi * d, R)) <= 1.0:
            continue
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if abs(polyval(mid * d, R)) <= 1.0:
                lo = mid
            else:
                hi = mid
        out.append(lo * d)
    return np.asarray(out)


def _region_box(polys: StabilityPolynomials, n_grid):
    """n_grid x n_grid points over the main region's bounding box padded by 0.5."""
    pts = _boundary(polys, 512).points
    re = np.linspace(pts.real.min() - 0.5, pts.real.max() + 0.5, n_grid)
    im = np.linspace(pts.imag.min() - 0.5, pts.imag.max() + 0.5, n_grid)
    return re[None, :] + 1j * im[:, None]


def contains_region(outer: StabilityPolynomials, inner: StabilityPolynomials,
                    n_grid=400):
    """True iff every grid z inside the inner (main) region satisfies
    |R_outer(z)| <= 1 + 1e-12; the grid covers the inner region's bounding box."""
    Z = _region_box(inner, n_grid)
    inside = np.abs(polyval(Z, inner.main)) <= 1.0
    ok = np.abs(polyval(Z, outer.embedded)) <= 1.0 + 1e-12
    bad = inside & ~ok
    violations = Z[bad]
    return not violations.size, violations


def _log_derivatives(polys: StabilityPolynomials, z):
    """R(z), E(z), and r, e = Re(z R'/R), Re(z E'/E) (0 where R or E is 0)."""
    Rz = polyval(z, polys.main)
    Ez = polyval(z, polys.diff)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(np.abs(Rz) > 0, (z * polyval(z, polyder(polys.main)) / Rz).real, 0.0)
        e = np.where(np.abs(Ez) > 0, (z * polyval(z, polyder(polys.diff)) / Ez).real, 0.0)
    return Rz, Ez, r, e


# Boundary traces and boundary samples, memoised by polynomial value: the
# stability command, the control scan, the dense map, the stability filter
# and the containment check all start from the same traces.  Cached arrays
# are read-only, so no caller can change what the next one gets.
_SAMPLE_CACHE = {}


def _freeze(*arrays):
    for a in arrays:
        a.flags.writeable = False


def _boundary(polys: StabilityPolynomials, n_points) -> BoundaryTrace:
    """trace_boundary(polys, n_points), traced once per main polynomial."""
    key = (polys.main.tobytes(), n_points)
    trace = _SAMPLE_CACHE.get(key)
    if trace is None:
        trace = trace_boundary(polys, n_points=n_points)
        _freeze(trace.points, trace.thetas)
        _SAMPLE_CACHE[key] = trace
    return trace


def boundary_samples(scheme, n_points=512):
    """Boundary points with cached logarithmic-derivative data for scanning.

    Returns (z, r, e, keep) arrays; keep marks retained (informative) samples
    per the module's exclusion rules.
    """
    polys = scheme if isinstance(scheme, StabilityPolynomials) else stability_polynomials(scheme)
    key = (polys.main.tobytes(), polys.diff.tobytes(), n_points)
    data = _SAMPLE_CACHE.get(key)
    if data is not None:
        return data
    z = _boundary(polys, n_points).points
    Rz, Ez, r, e = _log_derivatives(polys, z)
    keep = ((np.abs(Rz) >= DEGENERATE_TOL)
            & (np.abs(Ez) >= DEGENERATE_TOL)
            & (np.abs(r) >= TANGENTIAL_TOL)
            & (z.real <= 0.0))
    _freeze(r, e, keep)
    data = _SAMPLE_CACHE[key] = (z, r, e, keep)
    return data


def _quartic(r, e, beta, k):
    """Monic coefficients (a3, a2, a1, a0) of the control quartic p (module
    docstring); r, e and the beta entries broadcast against each other."""
    b1, b2, b3 = beta
    a3 = -2.0 + e * b1 / k
    a2 = 1.0 + (e * b2 + (r - e) * b1) / k
    a1 = (e * b3 + (r - e) * b2) / k
    a0 = (r - e) * b3 / k
    return a3, a2, a1, a0


_BLOCK = 1024   # candidates per Schur-Cohn pass: 4 MB per temporary at 512 samples


def _stable_batch(r, e, betas, k):
    """Per candidate beta: every root of the control quartic strictly inside
    the unit circle at every (r, e) sample.

    Schur-Cohn reduction: p of degree n passes a step iff |c0| < |cn|, and
    is then replaced by (cn p - c0 p*) / lam, p*(lam) = lam^n p(1/lam).
    """
    betas = np.asarray(betas, dtype=float).reshape(-1, 3)
    out = np.empty(len(betas), dtype=bool)
    for lo in range(0, len(betas), _BLOCK):
        beta = betas[lo:lo + _BLOCK].T[:, :, None]     # (3, block, 1) x samples
        c = [1.0, *_quartic(r, e, beta, k)]             # descending powers
        ok = True
        while len(c) > 1:
            cn, c0 = c[0], c[-1]
            ok = ok & (np.abs(c0) < np.abs(cn))
            c = [cn * c[i] - c0 * c[-1 - i] for i in range(len(c) - 1)]
        out[lo:lo + _BLOCK] = np.all(ok, axis=1)
    return out


def _rho_batch(r, e, beta, k):
    """Spectral radii of the control Jacobians for arrays of (r, e) samples:
    the largest root modulus of the control quartic.

    Ferrari's closed form.  With lam = y - a3/4 the quartic is depressed to
    y^4 + p y^2 + q y + s = (y^2 + p/2 + m)^2 - (w y - c)^2, w^2 = 2m, where
    m >= 0 is the resolvent cubic's largest real root (Cardano); c = q/(2w),
    or sqrt(p^2/4 - s) on the biquadratic branch m = 0.  Each root of the
    two real quadratics then takes one Newton step on p.  A sample is
    unresolved when a root is not finite, when the roots' sum misses -a3 by
    more than 1e-10 of the Cauchy bound 1 + max|a_i|, or when two roots lie
    within ROOT_SEPARATION of that bound (near a multiple root no method
    resolves more than about sqrt(eps)); those samples take the eigenvalues
    of their 4x4 companion matrices.
    """
    a3, a2, a1, a0 = _quartic(r, e, beta, k)
    with np.errstate(all="ignore"):
        h = a3 / 4
        hh = h * h
        p = a2 - 6 * hh
        q = a1 - 2 * h * a2 + 8 * hh * h
        s = a0 - h * a1 + hh * a2 - 3 * hh * hh
        # resolvent m^3 + p m^2 + (p^2/4 - s) m - q^2/8 = 0 with m = t - p/3:
        # t^3 + P t + Q = 0, one real root if D > 0, else three
        P = -p * p / 12 - s
        Q = -p * p * p / 108 + p * s / 3 - q * q / 8
        D = Q * Q / 4 + P * P * P / 27
        A = -np.copysign(np.cbrt(np.abs(Q) / 2 + np.sqrt(D)), Q)
        radius = np.sqrt(-P / 3)
        cosine = np.clip(-Q / (2 * radius * radius * radius), -1.0, 1.0)
        t = np.where(D > 0, A - P / (3 * A), 2 * radius * np.cos(np.arccos(cosine) / 3))
        m = t - p / 3
        # a small m cancels in t - p/3; m (m^2 + p m + p^2/4 - s) = q^2/8 then
        # gives it back, contracting its error by 8 m^2 |2m + p| / q^2
        qq = q * q
        m = np.where(8 * m * m * np.abs(2 * m + p) < qq,
                     qq / (8 * (m * m + p * m + p * p / 4 - s)), np.maximum(m, 0.0))
        w = np.sqrt(2 * m)
        c = np.where(w > 0, q / (2 * w), np.sqrt(p * p / 4 - s))
        # y^2 -+ w y + p/2 + m +- c = 0
        disc = w * w - 4 * (p / 2 + m + np.stack([c, -c]))
        half = np.sqrt(np.abs(disc)) / 2
        centre = np.stack([w, -w]) / 2 - h
        root = np.where(disc >= 0, half, 1j * half)
        lam = np.concatenate([centre + root, centre - root])
        value = (((lam + a3) * lam + a2) * lam + a1) * lam + a0
        slope = ((4 * lam + 3 * a3) * lam + 2 * a2) * lam + a1
        lam = lam - value / slope
        scale = 1 + np.max(np.abs([a3, a2, a1, a0]), axis=0)
        gap = np.min([np.abs(lam[i] - lam[j]) for i in range(4) for j in range(i)], axis=0)
        unresolved = ~(np.all(np.isfinite(lam), axis=0)
                       & (np.abs(lam.sum(axis=0) + a3) <= 1e-10 * scale)
                       & (gap >= ROOT_SEPARATION * scale))
        rho = np.max(np.abs(lam), axis=0)
    if unresolved.any():
        C = np.zeros((int(unresolved.sum()), 4, 4))
        C[:, 0] = -np.stack([a[unresolved] for a in (a3, a2, a1, a0)], axis=1)
        C[:, 1, 0] = C[:, 2, 1] = C[:, 3, 2] = 1.0
        rho[unresolved] = np.max(np.abs(np.linalg.eigvals(C)), axis=1)
    return rho


def control_verdicts(scheme, betas, n_points=512):
    """Per candidate beta, the Schur-Cohn verdict at the retained boundary
    samples: the one criterion of the stability filter and the scan.
    NoVerdictError when no sample is retained."""
    _, r, e, keep = boundary_samples(scheme, n_points=n_points)
    if not keep.any():
        raise NoVerdictError(f"no control-stability verdict for {scheme.name}; "
                             "no boundary sample carried controller information")
    return _stable_batch(r[keep], e[keep], betas, scheme.k)


def control_stability_scan(scheme, beta, n_points=512) -> ControlStabilityReport:
    """Spectral radius of the control Jacobian along the stability boundary:
    `control_verdicts`' verdict, and the radii at the same retained samples."""
    stable = bool(control_verdicts(scheme, [beta], n_points)[0])
    z, r, e, keep = boundary_samples(scheme, n_points=n_points)
    rho = _rho_batch(r[keep], e[keep], beta, scheme.k)
    return ControlStabilityReport(samples=list(zip(z[keep], rho)), max_rho=float(rho.max()),
                                  stable=stable, n_skipped=int(len(z) - keep.sum()))


def control_stability_map(scheme, beta, n_grid=101):
    """Dense map of the control-Jacobian spectral radius over the region box.

    Returns (Z, rho) with rho = nan at degenerate points; complements the
    boundary scan for plotting.
    """
    polys = stability_polynomials(scheme)
    Z = _region_box(polys, n_grid)
    Rz, Ez, r, e = _log_derivatives(polys, Z)
    ok = (np.abs(Rz) >= DEGENERATE_TOL) & (np.abs(Ez) >= DEGENERATE_TOL)
    rho = np.full(Z.shape, np.nan)
    if np.any(ok):
        # 64 * _BLOCK samples at a time, to bound _rho_batch's temporaries
        r, e, n = r[ok], e[ok], 64 * _BLOCK
        rho[ok] = np.concatenate([_rho_batch(r[i:i + n], e[i:i + n], beta, scheme.k)
                                  for i in range(0, len(r), n)])
    return Z, rho
