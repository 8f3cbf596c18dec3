import numpy as np
import pytest

from rkadapt.butcher import ButcherPair
from rkadapt.catalog import catalog_get, catalog_names
from rkadapt.lowstorage import LowStorageScheme, to_butcher
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


@pytest.mark.parametrize("name", catalog_names())
def test_infinite_stage_flags_not_raises(name):
    # zero register coefficients meet the inf registers: no warning escapes
    rhs = lambda t, u: u * np.inf
    res = step(catalog_get(name), rhs, 0.0, 0.1, np.ones(3))
    assert not res.finite
    assert np.all(np.isnan(res.u_new))


def test_a_step_that_fails_leaves_the_callers_state_alone():
    # all weights zero: u_new is u itself, and an infinite stage fails the step
    scheme = LowStorageScheme(
        name="still", scheme_class="3s*+", gamma1=[0.0], gamma2=[1.0], gamma3=[0.0],
        beta=[0.0], delta=[1.0], bhat=[1.0, 0.0], q=1, qhat=1)
    u = np.ones((2, 3))
    res = step(scheme, lambda t, v: v * np.inf, np.zeros(2), np.full(2, 0.1), u,
               f0=[None, None])
    assert res.finite == [False, False] and np.all(np.isnan(res.u_new))
    assert np.all(u == 1.0)


def test_nonfinite_stage_flags_not_raises():
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


class _RowwiseRhs:
    """A stacked RHS made of per-member calls of `row`, counting its calls."""

    batched = True

    def __init__(self, row):
        self.row, self.calls = row, 0

    def __call__(self, t, u):
        self.calls += 1
        return np.stack([self.row(tm, um) for tm, um in zip(t, u)])


class _PlainRhs:
    """`row` as a plain RHS, counting its calls; each must get a Python float
    time and one state."""

    def __init__(self, row):
        self.row, self.calls = row, 0

    def __call__(self, t, u):
        assert type(t) is float and u.shape == (10,)
        self.calls += 1
        return self.row(t, u)


@pytest.mark.parametrize("name", catalog_names())
def test_a_stack_without_f0_has_no_cached_stage(name):
    scheme = catalog_get(name)
    u = np.random.default_rng(5).standard_normal((2, 10))
    t, dt = np.array([0.0, 0.5]), np.array([0.01, 0.02])
    rhs = _RowwiseRhs(quadratic_rhs(seed=3))
    bare = step(scheme, rhs, t, dt, u)
    listed = step(scheme, rhs, t, dt, u, f0=[None, None])
    assert bare.u_new.tobytes() == listed.u_new.tobytes()
    assert bare.err_diff.tobytes() == listed.err_diff.tobytes()
    assert (bare.nfe, bare.finite) == (listed.nfe, listed.finite)
    assert bare.nfe == [scheme.s + scheme.fsal] * 2


@pytest.mark.parametrize("name", catalog_names())
def test_mixed_caches_and_a_death_sweep_once(name):
    """Three members in one stack: the first has a cached first stage, the
    second and third do not, and the second's first RHS call returns NaN.
    Each member's result equals its own step, under a batched RHS (the stack
    swept once) and under a plain one (one call per member evaluation)."""
    scheme = catalog_get(name)
    quadratic = quadratic_rhs(seed=11)

    def row(t, u):
        return np.full_like(u, np.nan) if u[0] == 7.0 else quadratic(t, u)

    rng = np.random.default_rng(4)
    u = rng.standard_normal((3, 10))
    u[1, 0] = 7.0
    t, dt = np.array([0.1, 0.2, 0.3]), np.array([0.01, 0.02, 0.03])
    f0 = [row(t[0], u[0]), None, None]
    for rhs in (_RowwiseRhs(row), _PlainRhs(row)):
        res = step(scheme, rhs, t, dt, u.copy(), f0=f0)
        if isinstance(rhs, _RowwiseRhs):
            assert rhs.calls <= scheme.s + scheme.fsal
        else:
            assert rhs.calls == sum(res.nfe)
        for j in range(3):
            alone = step(scheme, row, t[j], dt[j], u[j].copy(), f0=f0[j])
            assert res.u_new[j].tobytes() == alone.u_new.tobytes(), j
            np.testing.assert_array_equal(res.err_diff[j], alone.err_diff)
            if alone.fsal_f is None:
                assert res.fsal_f is None
            else:
                np.testing.assert_array_equal(res.fsal_f[j], alone.fsal_f)
            assert (res.nfe[j], res.finite[j]) == (alone.nfe, alone.finite), j
        assert res.finite == [True, False, True]
        assert res.nfe[1] == 1


class _RefusingRhs(_RowwiseRhs):
    """_RowwiseRhs whose `is_admissible` refuses a state whose first entry
    exceeds `cap`, per member."""

    def __init__(self, row, cap):
        super().__init__(row)
        self.cap = cap

    def is_admissible(self, u):
        return u[..., 0] <= self.cap


@pytest.mark.parametrize("name", catalog_names())
def test_an_inadmissible_result_is_not_finite(name):
    """The middle member's finite u_new is refused: it gets `finite` False
    and a NaN row after a full sweep, and the others equal their own steps."""
    scheme = catalog_get(name)
    row = quadratic_rhs(seed=7)
    u = np.random.default_rng(6).standard_normal((3, 10)) * 0.1
    u[1, 0] = 5.0
    t, dt = np.array([0.0, 0.1, 0.2]), np.array([0.01, 0.02, 0.03])
    res = step(scheme, _RefusingRhs(row, cap=4.0), t, dt, u)
    assert res.finite == [True, False, True]
    assert np.all(np.isnan(res.u_new[1]))
    assert res.nfe == [scheme.s + scheme.fsal] * 3
    for j in (0, 2):
        alone = step(scheme, row, t[j], dt[j], u[j])
        assert res.u_new[j].tobytes() == alone.u_new.tobytes(), j
        assert res.err_diff[j].tobytes() == alone.err_diff.tobytes(), j
    alone = step(scheme, _RefusingRhs(row, cap=4.0), t[1], dt[1], u[1])
    assert alone.finite is False and np.all(np.isnan(alone.u_new))


@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("m", [None, 1, 3])
@pytest.mark.parametrize("cache", ["none", "given", "mixed"])
@pytest.mark.parametrize("dead", [False, True])
def test_a_step_writes_into_none_of_its_inputs(name, m, cache, dead):
    """The sweeps form their sums and products in place, but only in arrays
    they created: u, each f0 row, t and dt keep their bytes, and the FSAL
    stage shares no memory with u_new, the error estimate or u.  m = None
    steps a single state; with `dead`, the last member's state holds NaN."""
    scheme = catalog_get(name)
    row = quadratic_rhs(seed=2)
    members = 1 if m is None else m
    u = np.random.default_rng(8).standard_normal((members, 10))
    if dead:
        u[-1, 3] = np.nan
    t, dt = np.linspace(0.0, 0.2, members), np.full(members, 0.05)
    f0 = {"none": [None] * members,
          "given": [row(tm, um) for tm, um in zip(t, u)],
          "mixed": [row(t[0], u[0])] + [None] * (members - 1)}[cache]
    if m is None:
        args = (float(t[0]), float(dt[0]), u[0], f0[0])
    else:
        args = (t, dt, u, f0)
    before = [np.asarray(x).tobytes() for x in (t, dt, u)]
    before_f0 = [None if f is None else f.tobytes() for f in f0]
    res = step(scheme, _RowwiseRhs(row), *args)
    assert [np.asarray(x).tobytes() for x in (t, dt, u)] == before
    assert [None if f is None else f.tobytes() for f in f0] == before_f0
    if res.fsal_f is not None:
        for other in (res.u_new, res.err_diff, u):
            assert not np.shares_memory(res.fsal_f, other)
    assert (m is None) == (type(res.nfe) is int)



@pytest.mark.parametrize("name", catalog_names())
def test_a_float32_state_steps_in_float64(name):
    # the coefficients are float64 scalars in both sweeps, and they promote
    # a float32 state; Python floats would keep it in float32
    res = step(catalog_get(name), lambda t, u: -u, 0.0, 0.1, np.ones(3, dtype=np.float32))
    assert res.u_new.dtype == res.err_diff.dtype == np.float64
