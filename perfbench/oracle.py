"""Independent references for the benchmark's checks.

Nothing here calls rkadapt's stability module or its 6x6 control Jacobian.

* Stability polynomials come from the scheme's own step: one step of
  u' = z u with dt = 1 and a complex state gives R(z) and, through the
  error estimate u_new - uhat_new, the embedded polynomial.  Sampling at
  roots of unity and an FFT recovers the coefficients.
* The control-stability radius is the largest root modulus of the quartic
  p(lam) = lam^2 (lam-1)^2 + ((lam-1) e + r)(b1 lam^2 + b2 lam + b3) / k,
  whose roots, with {0, 0}, are the eigenvalues of the control Jacobian.
"""

from __future__ import annotations

import numpy as np

DEGENERATE_TOL = 1e-14      # |R| or |E| below this carries no information
TANGENTIAL_TOL = 1e-3       # |Re(z R'/R)| below this is a neutral sample
N_FFT = 64                  # > degree of every catalog polynomial


def step_polynomial_values(scheme, z):
    """(R(z), Rhat(z)) from one step of u' = z u with dt = 1, u0 = 1."""
    from rkadapt.stepping import step

    z = np.asarray(z, dtype=complex)
    rhs = lambda t, u: z * u
    res = step(scheme, rhs, 0.0, 1.0, np.ones_like(z), need_estimate=True)
    if not res.finite:
        raise ArithmeticError("step on the linear test equation is not finite")
    return res.u_new, res.u_new - res.err_diff


def step_polynomials(scheme):
    """Coefficients (ascending) of R, Rhat and E = Rhat - R from the step."""
    w = np.exp(2j * np.pi * np.arange(N_FFT) / N_FFT)
    R, Rhat = step_polynomial_values(scheme, w)
    coeffs = []
    for vals in (R, Rhat):
        # sum_k vals_k exp(-2 pi i j k / N) = N c_j for degree < N
        c = np.fft.fft(vals).real / N_FFT
        c[np.abs(c) < 1e-15] = 0.0
        coeffs.append(c)
    R_c, Rhat_c = coeffs
    return R_c, Rhat_c, Rhat_c - R_c


def log_derivatives(poly_R, poly_E, z):
    """r = Re(z R'/R), e = Re(z E'/E) and the retained-sample mask."""
    pv = np.polynomial.polynomial.polyval
    pd = np.polynomial.polynomial.polyder
    Rz, Ez = pv(z, poly_R), pv(z, poly_E)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (z * pv(z, pd(poly_R)) / Rz).real
        e = (z * pv(z, pd(poly_E)) / Ez).real
    keep = ((np.abs(Rz) >= DEGENERATE_TOL) & (np.abs(Ez) >= DEGENERATE_TOL)
            & (np.abs(r) >= TANGENTIAL_TOL) & (z.real <= 0.0))
    return r, e, keep


def quartic_radius(r, e, beta, k):
    """Largest root modulus of the control quartic, one per (r, e) sample."""
    r = np.asarray(r, dtype=float)
    e = np.asarray(e, dtype=float)
    b1, b2, b3 = beta
    # monic coefficients of lam^3, lam^2, lam^1, lam^0
    a3 = -2.0 + e * b1 / k
    a2 = 1.0 + (e * b2 + (r - e) * b1) / k
    a1 = (e * b3 + (r - e) * b2) / k
    a0 = (r - e) * b3 / k
    n = r.size
    C = np.zeros((n, 4, 4))
    C[:, 0, :] = -np.stack([a3, a2, a1, a0], axis=1)
    C[:, 1, 0] = C[:, 2, 1] = C[:, 3, 2] = 1.0
    return np.max(np.abs(np.linalg.eigvals(C)), axis=1)


def stability_verdicts(r, e, candidates, k, margin):
    """Per candidate: max radius and 'stable' / 'unstable' / 'undecided'."""
    out = []
    for beta in candidates:
        rho = float(np.max(quartic_radius(r, e, beta, k)))
        if abs(rho - 1.0) <= margin:
            out.append((rho, "undecided"))
        else:
            out.append((rho, "stable" if rho < 1.0 else "unstable"))
    return out


def read_csv(path):
    """Float rows of a CSV written by the rkadapt CLI, header skipped."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
