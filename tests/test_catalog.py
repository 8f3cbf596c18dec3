import argparse
import json
import logging
from fractions import Fraction as F

import numpy as np
import pytest

from rkadapt import cli
from rkadapt.butcher import ButcherPair, InvariantViolation
from rkadapt.catalog import (CoefficientParseError, UnknownMethodError,
                             catalog_get, catalog_names, export_coefficients,
                             load_coefficients)
from rkadapt.lowstorage import LowStorageScheme, to_butcher


def test_published_digits():
    rk35 = catalog_get("RK3(2)5 3S*+")
    assert rk35.beta[0] == 1.1479315633699007e-01
    ssp34 = to_butcher(catalog_get("SSP3(2)4"), exact=True)
    assert ssp34.exact["b"] == [F(1, 6), F(1, 6), F(1, 6), F(1, 2)]
    assert ssp34.exact["bhat"][:4] == [F(1, 4)] * 4
    rk510f = catalog_get("RK5(4)10 3S*+ FSAL")
    assert rk510f.delta[9] == 0.0


def test_unknown_name_lists_identifiers():
    with pytest.raises(UnknownMethodError, match="RK3\\(2\\)5 3S\\*\\+"):
        catalog_get("nope")


# the CLI aliases of the README's scheme list
README_ALIASES = {
    "rk35-3s+": "RK3(2)5 3S*+", "rk35-3s+fsal": "RK3(2)5 3S*+ FSAL",
    "rk49-3s+": "RK4(3)9 3S*+", "rk49-3s+fsal": "RK4(3)9 3S*+ FSAL",
    "rk510-3s+": "RK5(4)10 3S*+", "rk510-3s+fsal": "RK5(4)10 3S*+ FSAL",
    "ssp33": "SSP3(2)3", "ssp43": "SSP3(2)4",
    "bs3": "BS3(2)3 FSAL", "bs5": "BS5(4)7 FSAL",
}


def test_aliases_resolve():
    assert catalog_get("bs3").name == "BS3(2)3 FSAL"
    assert catalog_get("ssp43").name == "SSP3(2)4"
    assert catalog_get("rk510-3s+fsal").name == "RK5(4)10 3S*+ FSAL"
    # ten names, once each; an alias, in any case, and its name give one object
    assert catalog_names() == sorted(set(README_ALIASES.values()))
    for alias, name in README_ALIASES.items():
        scheme = catalog_get(name)
        assert scheme.name == name
        assert catalog_get(alias) is scheme
        assert catalog_get(f" {alias.upper()} ") is scheme


@pytest.mark.parametrize("name", catalog_names())
def test_export_load_roundtrip_bit_identical(name, tmp_path):
    scheme = catalog_get(name)
    path = tmp_path / "method.json"
    export_coefficients(scheme, path)
    loaded = load_coefficients(path)
    if name.startswith("SSP"):
        assert json.loads(path.read_text())["class"] == "3s*+"
    if isinstance(loaded, ButcherPair):
        for attr in ("A", "b", "c", "bhat"):
            assert np.array_equal(getattr(loaded, attr), getattr(scheme, attr))
    else:
        for attr in ("gamma1", "gamma2", "gamma3", "beta", "delta", "bhat"):
            assert np.array_equal(getattr(loaded, attr), getattr(scheme, attr))
    assert loaded.q == scheme.q and loaded.qhat == scheme.qhat
    assert loaded.fsal == scheme.fsal


def _butcher_doc(**over):
    doc = {
        "name": "SSP3(2)3", "class": "butcher", "s": 3, "q": 3, "qhat": 2,
        "fsal": False,
        "A": ["0", "0", "0", "1", "0", "0", "0.25", "0.25", "0"],
        "b": ["0.16666666666666666", "0.16666666666666666", "0.6666666666666666"],
        "c": ["0", "1", "0.5"],
        "bhat": ["0.5", "0.5", "0", "0"],
    }
    doc.update(over)
    return doc


def _write(tmp_path, doc):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(doc))
    return path


def test_load_ssp33_file(tmp_path):
    pair = load_coefficients(_write(tmp_path, _butcher_doc()))
    assert isinstance(pair, ButcherPair)
    assert pair.s == 3 and pair.q == 3 and pair.qhat == 2


def test_load_rejects_non_explicit(tmp_path):
    doc = _butcher_doc(A=["0", "0.5", "0", "1", "0", "0", "0.25", "0.25", "0"])
    with pytest.raises(InvariantViolation, match="explicit"):
        load_coefficients(_write(tmp_path, doc))


def test_load_rejects_row_sum_mismatch(tmp_path):
    doc = _butcher_doc(c=["0", "0.75", "0.5"])
    with pytest.raises(InvariantViolation, match="row-sum"):
        load_coefficients(_write(tmp_path, doc))


def test_load_rejects_unknown_fields(tmp_path):
    doc = _butcher_doc(extra=[1, 2, 3])
    with pytest.raises(CoefficientParseError, match="unknown fields"):
        load_coefficients(_write(tmp_path, doc))


def test_load_reports_bad_value_with_field(tmp_path):
    doc = _butcher_doc(b=["0.1", "zzz", "0.3"])
    with pytest.raises(CoefficientParseError, match="'b'\\[1\\]"):
        load_coefficients(_write(tmp_path, doc))


def test_load_reports_missing_field(tmp_path):
    doc = _butcher_doc()
    del doc["bhat"]
    with pytest.raises(CoefficientParseError, match="bhat"):
        load_coefficients(_write(tmp_path, doc))


def test_file_shadows_catalog_with_warning(tmp_path, caplog):
    path = _write(tmp_path, _butcher_doc(name="SSP3(2)3"))
    with caplog.at_level(logging.WARNING):
        scheme = cli._resolve(argparse.Namespace(scheme="SSP3(2)4", coeff_file=path))
    assert scheme.name == "SSP3(2)3"
    assert any("shadows" in rec.message for rec in caplog.records)


def test_load_threestar_plus_file_roundtrip(tmp_path):
    scheme = catalog_get("RK3(2)5 3S*+ FSAL")
    path = tmp_path / "m.json"
    export_coefficients(scheme, path)
    loaded = load_coefficients(path)
    assert isinstance(loaded, LowStorageScheme)
    a = to_butcher(scheme)
    b = to_butcher(loaded)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.bhat, b.bhat)
