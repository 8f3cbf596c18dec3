"""Remake the dg_sweep reference final states (refs/dg_refs.npz).

Run from the repository root:  python3 perfbench/make_refs.py

The references solve the same semidiscretizations as rkadapt, without any
of rkadapt's time integrators:

* advection2d: the linear operator is assembled column by column from the
  right-hand side and applied with scipy.sparse.linalg.expm_multiply;
* vortex2d: scipy.integrate.solve_ivp with DOP853 at rtol = atol = 1e-13.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from workloads import REF_PATH, T_END  # noqa: E402

DOP853_TOL = 1e-13


def advection_reference(t_end):
    import scipy.sparse as sps
    from scipy.sparse.linalg import expm_multiply
    from rkadapt.problems import make_problem

    prob = make_problem("advection2d", t_end=t_end)
    shape, n = prob.u0.shape, prob.u0.size
    L = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        L[:, j] = prob.semi(0.0, e.reshape(shape)).ravel()
    u = expm_multiply(sps.csr_matrix(L) * t_end, prob.u0.ravel())
    return u.reshape(shape)


def euler_reference(name, t_end):
    from scipy.integrate import solve_ivp
    from rkadapt.problems import make_problem

    prob = make_problem(name, t_end=t_end)
    shape = prob.u0.shape
    sol = solve_ivp(lambda t, y: prob.semi(t, y.reshape(shape)).ravel(),
                    (prob.t0, t_end), prob.u0.ravel(), method="DOP853",
                    rtol=DOP853_TOL, atol=DOP853_TOL)
    if sol.status != 0:
        raise RuntimeError(f"DOP853 failed on {name}: {sol.message}")
    return sol.y[:, -1].reshape(shape)


def main():
    out = {}
    for name, t_end in T_END.items():
        t0 = time.perf_counter()
        if name == "advection2d":
            out[name] = advection_reference(t_end)
        else:
            out[name] = euler_reference(name, t_end)
        out[name + "_t_end"] = np.float64(t_end)
        print(f"{name}: t_end {t_end:g}, {out[name].size} values, "
              f"{time.perf_counter() - t0:.1f} s")
    os.makedirs(os.path.dirname(REF_PATH), exist_ok=True)
    np.savez_compressed(REF_PATH, **out)
    print(f"wrote {REF_PATH}")


if __name__ == "__main__":
    main()
