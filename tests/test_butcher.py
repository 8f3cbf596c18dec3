import numpy as np
import pytest

from rkadapt.butcher import (ButcherPair, InvariantViolation, N_CONDITIONS,
                             max_order_residual, order_residuals,
                             weight_residuals)
from rkadapt.catalog import catalog_get, catalog_names
from rkadapt.lowstorage import to_butcher


def forward_euler_pair():
    return ButcherPair("euler", [[0.0]], [1.0], [0.0], [1.0, 0.0], q=1, qhat=1)


def as_pair(scheme):
    return scheme if isinstance(scheme, ButcherPair) else to_butcher(scheme)


def test_condition_count():
    assert N_CONDITIONS == 17


def test_forward_euler_first_order_exact():
    res = order_residuals(forward_euler_pair(), up_to=1)
    assert all(r == 0.0 for _, _, _, r in res)


def test_ssp34_main_weights_exact_through_order_3():
    pair = as_pair(catalog_get("SSP3(2)4"))
    res = weight_residuals(pair.A, pair.b, pair.c, up_to=3)
    assert max(abs(r) for _, _, r in res) <= 1e-16


def test_rk49_reconstruction_order_4():
    pair = as_pair(catalog_get("RK4(3)9 3S*+"))
    res = weight_residuals(pair.A, pair.b, pair.c, up_to=4)
    assert max(abs(r) for _, _, r in res) <= 1e-10


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_orders_within_tolerance(name):
    pair = as_pair(catalog_get(name))
    assert max_order_residual(pair) <= 1e-10


def test_bs5_embedded_is_not_fifth_order():
    pair = as_pair(catalog_get("BS5(4)7 FSAL"))
    Ae, ce = pair.extended()
    res5 = [r for _, order, r in weight_residuals(Ae, pair.bhat, ce, 5) if order == 5]
    assert max(abs(r) for r in res5) > 1e-6


def test_order_limit_enforced():
    with pytest.raises(ValueError):
        order_residuals(forward_euler_pair(), up_to=6)


def test_non_explicit_rejected():
    with pytest.raises(InvariantViolation, match="explicit"):
        ButcherPair("bad", [[0.0, 0.5], [0.3, 0.0]], [0.5, 0.5], [0.0, 0.3],
                    [0.5, 0.5, 0.0], q=2, qhat=1)


def test_row_sum_mismatch_rejected():
    with pytest.raises(InvariantViolation, match="row-sum"):
        ButcherPair("bad", [[0.0, 0.0], [0.5, 0.0]], [0.5, 0.5], [0.0, 0.9],
                    [0.5, 0.5, 0.0], q=2, qhat=1)


def test_fsal_tail_weight_guard():
    with pytest.raises(InvariantViolation, match="bhat"):
        ButcherPair("bad", [[0.0]], [1.0], [0.0], [1.0, 0.25], q=1, qhat=1, fsal=False)


def test_pair_keeps_no_array_of_its_caller():
    A, b, c, bhat = np.zeros((1, 1)), np.array([1.0]), np.zeros(1), np.array([1.0, 0.0])
    pair = ButcherPair("euler", A, b, c, bhat, q=1, qhat=1)
    A[0, 0], b[0], c[0], bhat[0] = 0.5, 0.5, 0.5, 0.5
    assert pair.A[0, 0] == 0.0 and pair.b[0] == 1.0
    assert pair.c[0] == 0.0 and pair.bhat[0] == 1.0
    for arr in (pair.A, pair.b, pair.c, pair.bhat):
        with pytest.raises(ValueError):
            arr[0] = 0.5
