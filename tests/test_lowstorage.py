import os
import tempfile
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rkadapt.butcher import ButcherPair, InvariantViolation
from rkadapt.catalog import (catalog_get, export_coefficients,
                             load_coefficients)
from rkadapt.lowstorage import LowStorageScheme, ReconstructionError, to_butcher
from rkadapt.stepping import butcher_step, lowstorage_step, step


def test_one_stage_identity_is_forward_euler():
    scheme = LowStorageScheme(
        name="fe", scheme_class="3s*+", gamma1=[0.0], gamma2=[1.0], gamma3=[0.0],
        beta=[1.0], delta=[1.0], bhat=[1.0, 0.0], q=1, qhat=1)
    pair = to_butcher(scheme)
    assert pair.A == pytest.approx(np.array([[0.0]]))
    assert pair.b == pytest.approx(np.array([1.0]))


def test_reconstruction_matches_stepper_on_linear_problem():
    scheme = catalog_get("RK3(2)5 3S*+")
    pair = to_butcher(scheme)
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = complex(rng.uniform(-3, 0.5), rng.uniform(-3, 3))
        rhs = lambda t, u: z * u
        u0 = np.array([1.0 + 0.0j])
        a = lowstorage_step(scheme, rhs, 0.0, 1.0, u0)
        b = butcher_step(pair, rhs, 0.0, 1.0, u0)
        assert abs(a.u_new[0] - b.u_new[0]) <= 1e-13 * abs(b.u_new[0])
        assert abs(a.err_diff[0] - b.err_diff[0]) <= 1e-13 * max(abs(b.err_diff[0]), 1e-16)


def test_ssp34_reconstructs_to_exact_rational_tableau():
    pair = to_butcher(catalog_get("SSP3(2)4"), exact=True)
    half, sixth, quarter = F(1, 2), F(1, 6), F(1, 4)
    assert pair.exact["A"] == [[0, 0, 0, 0], [half, 0, 0, 0],
                               [half, half, 0, 0], [sixth, sixth, sixth, 0]]
    assert pair.exact["b"] == [sixth, sixth, sixth, half]
    assert pair.exact["bhat"] == [quarter, quarter, quarter, quarter, 0]
    assert pair.exact["c"] == [0, half, 1, half]


def test_ssp33_reconstructs_to_shu_osher_tableau():
    pair = to_butcher(catalog_get("SSP3(2)3"), exact=True)
    assert pair.exact["b"] == [F(1, 6), F(1, 6), F(2, 3)]
    assert pair.exact["bhat"] == [F(1, 2), F(1, 2), 0, 0]
    assert pair.exact["c"] == [0, 1, F(1, 2)]


def test_inconsistent_scheme_raises_reconstruction_error():
    # second-stage u^n weight is 0.4 + 0.3*(1+1) = 1.0 only if consistent;
    # break gamma2 so the register expansion drifts off u^n weight 1
    with pytest.raises(ReconstructionError, match="u\\^n weight"):
        LowStorageScheme(
            name="broken", scheme_class="3s*+",
            gamma1=[0.0, 0.4], gamma2=[1.0, 0.5], gamma3=[0.0, 0.0],
            beta=[0.3, 0.7], delta=[1.0, 1.0], bhat=[0.5, 0.5, 0.0], q=1, qhat=1)


def test_sum_delta_zero_guard():
    with pytest.raises(InvariantViolation, match="sum\\(delta\\)"):
        LowStorageScheme(
            name="bad", scheme_class="3s*", gamma1=[0.0], gamma2=[1.0], gamma3=[0.0],
            beta=[1.0], delta=[1.0, -1.0], bhat=[0.0, 0.0], q=1, qhat=1)


def three_star_scheme():
    """Consistent plain-register scheme whose embedded comes from delta."""
    return LowStorageScheme(
        name="3s-test", scheme_class="3s*",
        gamma1=[0.0, 0.4, 0.5], gamma2=[1.0, 0.3, 0.2], gamma3=[0.0, 0.0, 0.1],
        beta=[0.2, 0.3, 0.5], delta=[1.0, 1.0, 0.0, 1.0], bhat=[0.0] * 4,
        q=1, qhat=1)


def test_three_star_embedded_path_matches_reconstruction():
    scheme = three_star_scheme()
    pair = to_butcher(scheme)
    rng = np.random.default_rng(5)
    rhs = lambda t, u: np.sin(u) + 0.1 * u
    for _ in range(10):
        u0 = rng.standard_normal(4)
        dt = 10 ** rng.uniform(-2, -0.5)
        a = lowstorage_step(scheme, rhs, 0.0, dt, u0)
        b = butcher_step(pair, rhs, 0.0, dt, u0)
        scale = np.max(np.abs(b.u_new))
        assert np.max(np.abs(a.u_new - b.u_new)) <= 1e-13 * scale
        assert np.max(np.abs(a.err_diff - b.err_diff)) <= 1e-13 * scale


def test_to_butcher_is_identity_on_pairs():
    pair = catalog_get("BS3(2)3 FSAL")
    assert to_butcher(pair) is pair


def test_stage_increment_backsolve_realizes_beta_as_output_weights():
    for name in ("RK3(2)5 3S*+", "RK4(3)9 3S*+ FSAL", "RK5(4)10 3S*+"):
        scheme = catalog_get(name)
        pair = to_butcher(scheme)
        assert pair.b == pytest.approx(scheme.beta, abs=1e-14)


def test_catalog_lowstorage_roundtrip_c_is_consistent():
    scheme = catalog_get("RK4(3)9 3S*+")
    pair = to_butcher(scheme)
    assert scheme.c == pytest.approx(pair.A.sum(axis=1), abs=1e-14)


@st.composite
def threestar_plus_sets(draw):
    """Random consistent 3S*+ sets, FSAL or not, with well-conditioned
    stage increments."""
    s = draw(st.integers(2, 6))
    fsal = draw(st.booleans())
    unit = st.floats(-0.5, 0.5)
    g1 = [0.0] + [draw(unit) for _ in range(s - 1)]
    g2 = [1.0] + [draw(st.floats(0.25, 1.0)) for _ in range(s - 1)]
    delta = [1.0] + [draw(unit) for _ in range(s - 1)]
    # gamma3 keeps the u^n weight of S1 at 1 after every stage; gamma3[1]
    # must vanish, which fixes gamma1[1]
    g3, s2_weight = [], 0.0
    for i in range(s):
        s2_weight += delta[i]
        if i == 1:
            g1[1] = 1.0 - g2[1] * s2_weight
        g3.append(0.0 if i < 2 else 1.0 - g1[i] - g2[i] * s2_weight)
    beta = [draw(st.floats(0.05, 1.0)) for _ in range(s)]
    bhat = [draw(st.floats(0.0, 1.0)) for _ in range(s)]
    bhat.append(1.0 - sum(bhat) if fsal else 0.0)
    try:
        scheme = LowStorageScheme(
            name="random", scheme_class="3s*+", gamma1=g1, gamma2=g2, gamma3=g3,
            beta=beta, delta=delta, bhat=bhat, q=2, qhat=1, fsal=fsal)
    except InvariantViolation:
        assume(False)
    assume(np.max(np.abs(scheme.stage_increments)) < 20.0)
    return scheme


@settings(max_examples=60, deadline=None)
@given(scheme=threestar_plus_sets(), seed=st.integers(0, 2**16),
       dt=st.floats(1e-3, 0.5))
def test_random_register_sweep_equals_reconstructed_dense_step(scheme, seed, dt):
    pair = to_butcher(scheme)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((6, 6)) * 0.3
    rhs = lambda t, u: A @ u + 0.2 * u * u + 0.1 * np.sin(t)
    u = rng.standard_normal(6)
    a = step(scheme, rhs, 0.3, dt, u)
    b = butcher_step(pair, rhs, 0.3, dt, u)
    scale = max(float(np.max(np.abs(b.u_new))), 1.0)
    assert np.max(np.abs(a.u_new - b.u_new)) <= 1e-12 * scale
    assert np.max(np.abs(a.err_diff - b.err_diff)) <= 1e-12 * scale
    assert a.nfe == b.nfe == scheme.s + (1 if scheme.fsal else 0)


@settings(max_examples=60, deadline=None)
@given(scheme=threestar_plus_sets())
def test_random_set_export_load_roundtrip_bit_identical(scheme):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "method.json")
        export_coefficients(scheme, path)
        loaded = load_coefficients(path)
    for attr in ("gamma1", "gamma2", "gamma3", "beta", "delta", "bhat",
                 "stage_increments", "c"):
        assert np.array_equal(getattr(loaded, attr), getattr(scheme, attr)), attr
    assert (loaded.scheme_class, loaded.fsal) == (scheme.scheme_class, scheme.fsal)
