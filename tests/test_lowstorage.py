import hashlib
import os
import tempfile
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rkadapt.butcher import ButcherPair, InvariantViolation
from rkadapt.catalog import (catalog_get, catalog_names, export_coefficients,
                             load_coefficients)
from rkadapt.lowstorage import LowStorageScheme, ReconstructionError, to_butcher
from rkadapt.stability import stability_polynomials
from rkadapt.stepping import butcher_step, lowstorage_step, step


def test_one_stage_identity_is_forward_euler():
    scheme = LowStorageScheme(
        name="fe", scheme_class="3s*+", gamma1=[0.0], gamma2=[1.0], gamma3=[0.0],
        beta=[1.0], delta=[1.0], bhat=[1.0, 0.0], q=1, qhat=1)
    pair = to_butcher(scheme)
    assert pair.A == pytest.approx(np.array([[0.0]]))
    assert pair.b == pytest.approx(np.array([1.0]))


def test_scheme_keeps_no_array_of_its_caller():
    beta, bhat = np.array([1.0]), np.array([1.0, 0.0])
    scheme = LowStorageScheme(
        name="fe", scheme_class="3s*+", gamma1=[0.0], gamma2=[1.0], gamma3=[0.0],
        beta=beta, delta=[1.0], bhat=bhat, q=1, qhat=1)
    beta[0] = bhat[0] = 0.5
    assert scheme.beta[0] == 1.0 and scheme.bhat[0] == 1.0
    assert scheme.stage_increments[0] == to_butcher(scheme).b[0] == 1.0
    for attr in ("gamma1", "gamma2", "gamma3", "beta", "delta", "bhat", "c",
                 "stage_increments"):
        with pytest.raises(ValueError):
            getattr(scheme, attr)[0] = 0.5


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
    assert pair.exact["A"] == [[0, 0, 0], [1, 0, 0], [F(1, 4), F(1, 4), 0]]
    assert pair.exact["b"] == [F(1, 6), F(1, 6), F(2, 3)]
    assert pair.exact["bhat"] == [F(1, 2), F(1, 2), 0, 0]
    assert pair.exact["c"] == [0, 1, F(1, 2)]


def test_exact_reconstruction_needs_rational_coefficients():
    with pytest.raises(ValueError, match="no exact coefficients"):
        to_butcher(catalog_get("RK3(2)5 3S*+"), exact=True)


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


def _reconstruction_digest(scheme):
    """sha256 over the float tableau, abscissae, stage increments and
    stability polynomials of a scheme, with each array's shape."""
    pair = to_butcher(scheme)
    polys = stability_polynomials(scheme)
    arrays = [pair.A, pair.b, pair.bhat, pair.c, scheme.c,
              getattr(scheme, "stage_increments", np.empty(0)),
              polys.main, polys.embedded, polys.diff]
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


# digests of the tableaus reconstructed by the LinComb symbolic sweep that
# preceded the unit-vector sweep; every bit must survive a change of method
RECONSTRUCTION_DIGESTS = {
    "BS3(2)3 FSAL": "8fcd4e078f9c1a23ab9ba5ddd1bb5bf0052ae42e723b7a1589097e0acb7d4cf5",
    "BS5(4)7 FSAL": "ded9b465e6494b0595df306f9d935bd810f6c45c3d6643f98ed918d9a034af62",
    "RK3(2)5 3S*+": "dd0c926ad14ad098890c2cd85226b12fc6651912a84703548fe6498f65d7a7d5",
    "RK3(2)5 3S*+ FSAL": "b3cf1acf67bb655c103b3576a59122a16714f483989ce0afbab50986eb42bdf6",
    "RK4(3)9 3S*+": "9846d1c76df18fef3915a5aea36e125366a296c03d7716f0ee3b41d2bb954ee1",
    "RK4(3)9 3S*+ FSAL": "28fda9f2469f735e12a8ebc37791f702ca5d315a8985ae6d7aa57fd6ad04fc87",
    "RK5(4)10 3S*+": "2f61e5e6a8ad84703f18ed4d9fc87174bf9a89c819be8cd1f5bb57b3f6fee460",
    "RK5(4)10 3S*+ FSAL": "b0b663cc15e443dc70e4063302a7f27894e16ee88e2ecbe5883d696bf0f54cd7",
    "SSP3(2)3": "8623ca0b88535078557275625e5c69507d26c7da6a6699b6f2741ce76ffcea31",
    "SSP3(2)4": "fc0ccd2df25e4ba8c3f000fc8e884920a89249b6cbeb8c8b1e97d82b9d07f39a",
    "3s-test": "c6273d108feb75f9c308173f2cfa2df40efe073c42ca8bee28c6f0dfff0210db",
}


def test_reconstruction_is_bit_identical_to_recorded_digests():
    schemes = {name: catalog_get(name) for name in catalog_names()}
    schemes["3s-test"] = three_star_scheme()
    digests = {name: _reconstruction_digest(sc) for name, sc in schemes.items()}
    assert digests == RECONSTRUCTION_DIGESTS


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
def threestar_sets(draw, orders=False):
    """Random consistent 3S* and 3S*+ sets, FSAL or not, with well-conditioned
    stage increments; with `orders`, sets whose main and embedded weights
    each sum to 1, the order-1 condition, and which claim q = qhat = 1."""
    cls = draw(st.sampled_from(["3s*", "3s*+"]))
    s = draw(st.integers(2, 6))
    fsal = draw(st.booleans())
    unit = st.floats(-0.5, 0.5)
    g1 = [0.0] + [draw(unit) for _ in range(s - 1)]
    g2 = [1.0] + [draw(st.floats(0.25, 1.0)) for _ in range(s - 1)]
    delta = [1.0] + [draw(unit) for _ in range(s - 1)]
    if cls == "3s*":
        # uhat = (S2 + delta[s-1] S1 + delta[s] S3) / sum(delta) has u^n
        # weight 1 only for delta[s-1] = 0
        delta[-1] = 0.0
    # gamma3 keeps the u^n weight of S1 at 1 after every stage; gamma3[1]
    # must vanish, which fixes gamma1[1]
    g3, s2_weight = [], 0.0
    for i in range(s):
        s2_weight += delta[i]
        if i == 1:
            g1[1] = 1.0 - g2[1] * s2_weight
        g3.append(0.0 if i < 2 else 1.0 - g1[i] - g2[i] * s2_weight)
    beta = [draw(st.floats(0.05, 1.0)) for _ in range(s)]
    if orders:      # the main weights b are beta
        beta = [b / sum(beta) for b in beta]
    if cls == "3s*":
        delta.append(draw(st.floats(0.5, 1.5)))
        assume(abs(sum(delta)) >= 0.5)
        bhat = [0.0] * s + [draw(st.floats(0.05, 1.0)) if fsal else 0.0]
    else:
        bhat = [draw(st.floats(0.0, 1.0)) for _ in range(s)]
        if orders and not fsal:
            assume(sum(bhat) >= 0.05)
            bhat = [b / sum(bhat) for b in bhat]
        bhat.append(1.0 - sum(bhat) if fsal else 0.0)

    def build():
        # a zero FSAL weight skips the FSAL evaluation, and the constructor
        # refuses such a set (ReconstructionError), as a coefficient file
        assume(not fsal or bhat[-1] != 0.0)
        try:
            return LowStorageScheme(
                name="random", scheme_class=cls, gamma1=g1, gamma2=g2, gamma3=g3,
                beta=beta, delta=delta, bhat=bhat, q=1 if orders else 2, qhat=1, fsal=fsal)
        except InvariantViolation:
            assume(False)

    scheme = build()
    if orders and cls == "3s*":
        # delta implies the embedded weights but the FSAL one, and they sum
        # to sigma / sum(delta) with sigma fixed by the other coefficients:
        # the FSAL weight, or else the last delta, makes the sum 1
        total = sum(scheme.bhat[:s])
        if fsal:
            bhat[-1] = 1.0 - total
        else:
            sigma = total * sum(delta)
            assume(abs(sigma) >= 0.05)
            delta[-1] = sigma - sum(delta[:-1])
        scheme = build()
    assume(np.max(np.abs(scheme.stage_increments)) < 20.0)
    return scheme


@settings(max_examples=60, deadline=None)
@given(scheme=threestar_sets(), seed=st.integers(0, 2**16),
       dt=st.floats(1e-3, 0.5))
def test_random_register_sweep_equals_reconstructed_dense_step(scheme, seed, dt):
    pair = to_butcher(scheme)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((6, 6)) * 0.3
    rhs = lambda t, u: A @ u + 0.2 * u * u + 0.1 * np.sin(t)
    u = rng.standard_normal(6)
    a = step(scheme, rhs, 0.3, dt, u)
    b = butcher_step(pair, rhs, 0.3, dt, u)
    # each bound is relative to the magnitude of the quantity it compares
    scale = max(float(np.max(np.abs(b.u_new))), 1.0)
    err_scale = max(float(np.max(np.abs(b.err_diff))), 1.0)
    assert np.max(np.abs(a.u_new - b.u_new)) <= 1e-12 * scale
    assert np.max(np.abs(a.err_diff - b.err_diff)) <= 1e-12 * err_scale
    assert a.nfe == b.nfe == scheme.s + (1 if scheme.fsal else 0)


@settings(max_examples=60, deadline=None)
@given(scheme=threestar_sets(orders=True))
def test_random_set_export_load_roundtrip_bit_identical(scheme):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "method.json")
        export_coefficients(scheme, path)
        loaded = load_coefficients(path)
    for attr in ("gamma1", "gamma2", "gamma3", "beta", "delta", "bhat",
                 "stage_increments", "c"):
        assert np.array_equal(getattr(loaded, attr), getattr(scheme, attr)), attr
    assert (loaded.scheme_class, loaded.fsal) == (scheme.scheme_class, scheme.fsal)


def _full_coefficient_sweep(scheme, rhs, t, dt, u):
    """The 3S*/3S*+ register sweep with every gamma, delta and weight
    multiplied and zero registers held as u * 0, as it ran before zero
    coefficients were skipped.  Returns (u_new, err_diff, fsal_f)."""
    g1, g2, g3, be, de, bh = (getattr(scheme, attr) for attr in
                              ("gamma1", "gamma2", "gamma3", "beta", "delta", "bhat"))
    w, c, s = scheme.stage_increments, scheme.c, scheme.s
    S1, S2, S3, E = u, u * 0, u, u * 0
    for i in range(s):
        S2 = S2 + de[i] * S1
        k = dt * rhs(t + c[i] * dt, S1)
        E = E + (be[i] - bh[i]) * k
        S1 = g1[i] * S1 + g2[i] * S2 + g3[i] * S3 + w[i] * k
    if scheme.scheme_class == "3s*+":
        err = E
    else:
        err = S1 - (S2 + de[s - 1] * S1 + de[s] * S3) / np.sum(de)
    fsal_f = None
    if scheme.fsal and bh[s] != 0:
        fsal_f = rhs(t + dt, S1)
        err = err - bh[s] * (dt * fsal_f)
    return S1, err, fsal_f


def _assert_zero_skipping_is_bit_identical(scheme, seed, dt):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((6, 6)) * 0.3
    rhs = lambda t, u: A @ u + 0.2 * u * u + 0.1 * np.sin(t)
    u = rng.standard_normal(6)
    res = step(scheme, rhs, 0.3, dt, u)
    u_new, err, fsal_f = _full_coefficient_sweep(scheme, rhs, 0.3, dt, u)
    assert res.u_new.tobytes() == u_new.tobytes()
    assert res.err_diff.tobytes() == err.tobytes()
    assert (res.fsal_f is None) == (fsal_f is None)
    if fsal_f is not None:
        assert res.fsal_f.tobytes() == fsal_f.tobytes()


@pytest.mark.parametrize("name", [name for name in catalog_names()
                                  if isinstance(catalog_get(name), LowStorageScheme)])
def test_zero_skipping_is_bit_identical_on_catalog_sets(name):
    for seed, dt in ((0, 0.01), (1, 0.1), (2, 0.5)):
        _assert_zero_skipping_is_bit_identical(catalog_get(name), seed, dt)


@settings(max_examples=60, deadline=None)
@given(scheme=threestar_sets(), seed=st.integers(0, 2**16), dt=st.floats(1e-3, 0.5))
def test_zero_skipping_is_bit_identical_on_random_sets(scheme, seed, dt):
    _assert_zero_skipping_is_bit_identical(scheme, seed, dt)


def test_a_register_that_becomes_another_is_not_added_into():
    # stage 2 keeps only S1 <- S2 (gamma2 = 1, its weight 0), so S1 is the
    # sweep's own S2 array; stage 3's S2 <- S2 + delta S1 must then build a
    # new S2 rather than add into the array S1 still names
    scheme = LowStorageScheme(
        name="alias", scheme_class="3s*+", gamma1=[0.0, 0.25, 0.0, 0.25],
        gamma2=[1.0, 0.5, 1.0, 0.5], gamma3=[0.0, 0.0, 0.0, 0.0],
        beta=[0.3, 0.3, 0.0, 0.4], delta=[1.0, 0.5, -0.5, 0.5],
        bhat=[0.25, 0.25, 0.25, 0.25, 0.0], q=1, qhat=1)
    for seed, dt in ((0, 0.01), (1, 0.1)):
        _assert_zero_skipping_is_bit_identical(scheme, seed, dt)
