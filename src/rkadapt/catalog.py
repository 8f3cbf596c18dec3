"""Built-in method catalog and coefficient files.

The optimized 3S*+ coefficient sets are stored as the double-precision
decimal strings of their published tables; the SSP pairs (as 3S*+ sets) and
the Bogacki-Shampine pairs are exact rationals.  Coefficient files are JSON
documents against the schema documented in the README (decimal strings, A
row-major); the loader rejects unknown fields and enforces all structural
invariants.
"""

from __future__ import annotations

import json
import logging
from fractions import Fraction

import numpy as np

from .butcher import ButcherPair, InvariantViolation
from .lowstorage import _COEFFICIENTS, LowStorageScheme

log = logging.getLogger(__name__)

F = Fraction


class UnknownMethodError(KeyError):
    pass


def _bs32(name) -> ButcherPair:
    A = [[0, 0, 0], [F(1, 2), 0, 0], [0, F(3, 4), 0]]
    b = [F(2, 9), F(1, 3), F(4, 9)]
    c = [0, F(1, 2), F(3, 4)]
    bhat = [F(7, 24), F(1, 4), F(1, 3), F(1, 8)]
    return ButcherPair(name, A, b, c, bhat, q=3, qhat=2, fsal=True)


def _bs54(name) -> ButcherPair:
    A = [[0] * 7 for _ in range(7)]
    A[1][0] = F(1, 6)
    A[2][0] = F(2, 27); A[2][1] = F(4, 27)
    A[3][0] = F(183, 1372); A[3][1] = F(-162, 343); A[3][2] = F(1053, 1372)
    A[4][0] = F(68, 297); A[4][1] = F(-4, 11); A[4][2] = F(42, 143); A[4][3] = F(1960, 3861)
    A[5][0] = F(597, 22528); A[5][1] = F(81, 352); A[5][2] = F(63099, 585728)
    A[5][3] = F(58653, 366080); A[5][4] = F(4617, 20480)
    A[6][0] = F(174197, 959244); A[6][1] = F(-30942, 79937); A[6][2] = F(8152137, 19744439)
    A[6][3] = F(666106, 1039181); A[6][4] = F(-29421, 29068); A[6][5] = F(482048, 414219)
    b = [F(587, 8064), 0, F(4440339, 15491840), F(24353, 124800),
         F(387, 44800), F(2152, 5985), F(7267, 94080)]
    c = [0, F(1, 6), F(2, 9), F(3, 7), F(2, 3), F(3, 4), 1]
    bhat = [F(2479, 34992), 0, F(123, 416), F(612941, 3411720),
            F(43, 1440), F(2272, 6561), F(79937, 1113912), F(3293, 556956)]
    return ButcherPair(name, A, b, c, bhat, q=5, qhat=4, fsal=True)


def _with_fsal_weight(bhat, fsal):
    """s embedded weights and the weight of f(t+dt, u_new): for an FSAL pair
    the one that makes the s+1 weights sum to 1, else 0."""
    return [*bhat, 1 - sum(bhat) if fsal else 0]


def _threestar_plus(q, qhat, fsal, table, exact=False):
    """Function making a table's 3S*+ set by name; `exact` also keeps its rationals."""
    def build(name):
        co = {attr: [float(x) for x in vals] for attr, vals in table.items()}
        co["bhat"] = _with_fsal_weight(co["bhat"], fsal)
        rationals = None
        if exact:
            rationals = {attr: [F(x) for x in vals] for attr, vals in table.items()}
            rationals["bhat"] = _with_fsal_weight(rationals["bhat"], fsal)
        return LowStorageScheme(name=name, scheme_class="3s*+", q=q, qhat=qhat,
                                fsal=fsal, exact=rationals, **co)
    return build


# The SSP pairs as exact-rational 3S*+ sets (Ketcheson, JCP 2010): SSP3(2)3
# is the Shu-Osher sweep with the averaged second-order estimator, SSP3(2)4
# the four-stage half-step sweep.

_SSP33_TABLE = dict(
    gamma1=[0, F(1, 4), F(2, 3)], gamma2=[1, F(3, 4), 0], gamma3=[0, 0, F(1, 3)],
    delta=[1, 0, 0], beta=[F(1, 6), F(1, 6), F(2, 3)], bhat=[F(1, 2), F(1, 2), 0],
)

_SSP34_TABLE = dict(
    gamma1=[0, 1, F(1, 3), 1], gamma2=[1, 0, 0, 0], gamma3=[0, 0, F(2, 3), 0],
    delta=[1, 0, 0, 0], beta=[F(1, 6), F(1, 6), F(1, 6), F(1, 2)], bhat=[F(1, 4)] * 4,
)


# Published double-precision tables of the optimized 3S*+ pairs, verbatim.

_RK35_TABLE = dict(
    gamma1=["+0.0000000000000000e+00", "+2.5876690703520788e-01",
            "-1.3243668739945030e-01", "+5.0556012314603993e-02",
            "+5.6705528079028777e-01"],
    gamma2=["+1.0000000000000000e+00", "+5.5284187451021605e-01",
            "+6.7318444003896738e-01", "+2.8031038045076351e-01",
            "+5.5215088735073936e-01"],
    gamma3=["+0.0000000000000000e+00", "+0.0000000000000000e+00",
            "+0.0000000000000000e+00", "+2.7525858134466369e-01",
            "-8.9505487092797853e-01"],
    delta=["+1.0000000000000000e+00", "+3.4076872093214550e-01",
           "+3.4143992805846252e-01", "+7.2293027328755899e-01",
           "+0.0000000000000000e+00"],
    beta=["+1.1479315633699007e-01", "+8.9335592952328596e-02",
          "+4.3558587173792318e-01", "+2.4735852952572862e-01",
          "+1.1292684944702953e-01"],
    bhat=["+1.0463633713540937e-01", "+9.5204315749567586e-02",
          "+4.4824466455686685e-01", "+2.4490302954613102e-01",
          "+1.0701165301202518e-01"],
)

_RK35F_TABLE = dict(
    gamma1=["+0.0000000000000000e+00", "+2.5877719797257331e-01",
            "-1.3243803601407234e-01", "+5.0560339481908259e-02",
            "+5.6705320007393134e-01"],
    gamma2=["+1.0000000000000000e+00", "+5.5283549093013895e-01",
            "+6.7318716082030616e-01", "+2.8031039632976723e-01",
            "+5.5215254470206099e-01"],
    gamma3=["+0.0000000000000000e+00", "+0.0000000000000000e+00",
            "+0.0000000000000000e+00", "+2.7525632733046762e-01",
            "-8.9505261746740339e-01"],
    delta=["+1.0000000000000000e+00", "+3.4076558793345252e-01",
           "+3.4143826550033862e-01", "+7.2292753667879872e-01",
           "+0.0000000000000000e+00"],
    beta=["+1.1479359710235412e-01", "+8.9334428531133159e-02",
          "+4.3558710250086169e-01", "+2.4735761882014512e-01",
          "+1.1292725304550591e-01"],
    bhat=["+9.4841667050357029e-02", "+1.7263713394303537e-01",
          "+3.9982431890843712e-01", "+1.7180168075801786e-01",
          "+5.8819144221557401e-02"],
)

_RK49_TABLE = dict(
    gamma1=["+0.0000000000000000e+00", "-4.6556413012591804e+00",
            "-7.7202649248360644e-01", "-4.0244232134197242e+00",
            "-2.1296852467390187e-02", "-2.4350225192344701e+00",
            "+1.9856274809861678e-02", "-2.8107901128852841e-01",
            "+1.6894348958355357e-01"],
    gamma2=["+1.0000000000000000e+00", "+2.4992627526078262e+00",
            "+5.8668203654361373e-01", "+1.2051413654126708e+00",
            "+3.4747937967008691e-01", "+1.3213461401287232e+00",
            "+3.1196363243793707e-01", "+4.3514190558940874e-01",
            "+2.3596982994407883e-01"],
    gamma3=["+0.0000000000000000e+00", "+0.0000000000000000e+00",
            "+0.0000000000000000e+00", "+7.6210371111381703e-01",
            "-1.9811821590872183e-01", "-6.2289607063175667e-01",
            "-3.7522469934326264e-01", "-3.3554365390009466e-01",
            "-4.5609631107174843e-02"],
    delta=["+1.0000000000000000e+00", "+1.2629238543878065e+00",
           "+7.5749671775608729e-01", "+5.1635911581112226e-01",
           "-2.7463337920428273e-02", "-4.3826746539417710e-01",
           "+1.2735871036683928e+00", "-6.2947400454427949e-01",
           "+0.0000000000000000e+00"],
    beta=["+4.5037319691658841e-02", "+1.8592173220119687e-01",
          "+3.3297275092076306e-02", "-4.7842226210501985e-03",
          "+4.0558480626375678e-03", "+4.1850279996827944e-01",
          "-4.3818945074742778e-03", "+2.7128460973244426e-02",
          "+2.9522268113943101e-01"],
    bhat=["+4.5506559279709452e-02", "+1.1759683104926386e-01",
          "+3.6582573305152133e-02", "-5.3115558343556296e-03",
          "+5.1782500127131271e-03", "+4.9546390221186826e-01",
          "-5.9993031327378659e-03", "+9.4050934345683165e-02",
          "+2.1693180876270352e-01"],
)

_RK49F_TABLE = dict(
    gamma1=["+0.0000000000000000e+00", "-4.6556414473350687e+00",
            "-7.7202650996458722e-01", "-4.0244366905198063e+00",
            "-2.1296762840185311e-02", "-2.4350225097901097e+00",
            "+1.9856272971319869e-02", "-2.8107911467910385e-01",
            "+1.6894341687548597e-01"],
    gamma2=["+1.0000000000000000e+00", "+2.4992627925744948e+00",
            "+5.8668203777188754e-01", "+1.2051460865230945e+00",
            "+3.4747937221867325e-01", "+1.3213460609651131e+00",
            "+3.1196364646941938e-01", "+4.3514195396843791e-01",
            "+2.3596981300287537e-01"],
    gamma3=["+0.0000000000000000e+00", "+0.0000000000000000e+00",
            "+0.0000000000000000e+00", "+7.6210066787213149e-01",
            "-1.9811825043394005e-01", "-6.2289592186990073e-01",
            "-3.7522483807759566e-01", "-3.3554383091351697e-01",
            "-4.5609550050311212e-02"],
    delta=["+1.0000000000000000e+00", "+1.2629238766481143e+00",
           "+7.5749671896859117e-01", "+5.1635894531407278e-01",
           "-2.7463274218026097e-02", "-4.3826731781279443e-01",
           "+1.2735872946026565e+00", "-6.2947402839274003e-01",
           "+0.0000000000000000e+00"],
    beta=["+4.5037326272637540e-02", "+1.8592173036998480e-01",
          "+3.3297296725697173e-02", "-4.7842041809589755e-03",
          "+4.0558359610313108e-03", "+4.1850277725960744e-01",
          "-4.3819019689193264e-03", "+2.7128437964460898e-02",
          "+2.9522270159645919e-01"],
    bhat=["+2.4836759124515911e-02", "+1.8663277745621037e-01",
          "+5.6710807959369842e-02", "-3.4476954391492879e-03",
          "+3.6022450565166364e-03", "+4.5455706221450887e-01",
          "-2.4346652894276124e-04", "+6.6427553611035500e-02",
          "+1.6136970795235051e-01"],
)

_RK510_TABLE = dict(
    gamma1=["+0.0000000000000000e+00", "+4.0436600785046961e-01",
            "-8.5034274642631846e-01", "-6.9508941670724198e+00",
            "+9.2387652253282782e-01", "-2.5631780399574042e+00",
            "+2.5457448699663476e-01", "+3.1258317338631691e-01",
            "-7.0071148005675854e-01", "+4.8396209709807264e-01"],
    gamma2=["+1.0000000000000000e+00", "+6.8714670697523461e-01",
            "+1.0930247604688987e+00", "+3.2259753823301613e+00",
            "+1.0411537008413965e+00", "+1.2928214888647027e+00",
            "+7.3914627692970059e-01", "+1.2391292570393000e-01",
            "+1.8427534793667669e-01", "+5.7127889426970779e-02"],
    gamma3=["+0.0000000000000000e+00", "+0.0000000000000000e+00",
            "+0.0000000000000000e+00", "-2.3934051593421395e+00",
            "-1.9028544220959867e+00", "-2.8200422105832073e+00",
            "-1.8326984641305650e+00", "-2.1990945107506979e-01",
            "-4.0824306603848765e-01", "-1.3776697911212080e-01"],
    delta=["+1.0000000000000000e+00", "-1.3317784091338497e-01",
           "+8.2604227852460299e-01", "+1.5137004305133324e+00",
           "-1.3058100631770482e+00", "+3.0366787893425076e+00",
           "-1.4494582670745926e+00", "+3.8343138733209576e+00",
           "+4.1222939719233249e+00", "+0.0000000000000000e+00"],
    beta=["-2.2801023055963646e-03", "+1.4073930208232305e-02",
          "+2.3326917941728226e-01", "+4.8082667004651816e-02",
          "+4.1190032211396227e-01", "-1.2914610713647529e-01",
          "+1.2207460110385798e-01", "+4.3578588031133875e-02",
          "+1.0250768752899050e-01", "+1.5593923403396062e-01"],
    bhat=["+5.7345884846761938e-02", "+1.9714475180397338e-02",
          "+7.2152966056837173e-02", "+1.7396594898079398e-01",
          "+3.7036936004454879e-01", "-1.2155990390550650e-01",
          "+1.1803729454911216e-01", "+4.1556888233648698e-02",
          "+1.2278866279103799e-01", "+1.4562842322236844e-01"],
)

_RK510F_TABLE = dict(
    gamma1=["+0.0000000000000000e+00", "+4.0436601216857498e-01",
            "-8.5034272895758400e-01", "-6.9508941752621176e+00",
            "+9.2387651927310854e-01", "-2.5631780565098912e+00",
            "+2.5457448793652260e-01", "+3.1258317074119985e-01",
            "-7.0071144144405084e-01", "+4.8396210160238334e-01"],
    gamma2=["+1.0000000000000000e+00", "+6.8714670281614165e-01",
            "+1.0930247489147509e+00", "+3.2259753796071928e+00",
            "+1.0411537025101014e+00", "+1.2928214879121649e+00",
            "+7.3914627557881230e-01", "+1.2391292513718004e-01",
            "+1.8427534723701233e-01", "+5.7127889987965835e-02"],
    gamma3=["+0.0000000000000000e+00", "+0.0000000000000000e+00",
            "+0.0000000000000000e+00", "-2.3934051332441948e+00",
            "-1.9028544224217609e+00", "-2.8200422073999771e+00",
            "-1.8326984652773810e+00", "-2.1990944830846712e-01",
            "-4.0824306358478707e-01", "-1.3776697978802896e-01"],
    delta=["+1.0000000000000000e+00", "-1.3317784195088034e-01",
           "+8.2604228147502079e-01", "+1.5137004257557283e+00",
           "-1.3058100599350237e+00", "+3.0366788029241634e+00",
           "-1.4494582743988951e+00", "+3.8343138991763621e+00",
           "+4.1222937600129850e+00", "+0.0000000000000000e+00"],
    beta=["-2.2801003218369809e-03", "+1.4073931157901863e-02",
          "+2.3326917755084567e-01", "+4.8082667413538623e-02",
          "+4.1190032177069519e-01", "-1.2914610678077362e-01",
          "+1.2207460138487101e-01", "+4.3578585831744204e-02",
          "+1.0250768775680807e-01", "+1.5593923423620598e-01"],
    bhat=["-2.0192554400120660e-02", "+2.7379034809591845e-02",
          "+3.0288186361459657e-01", "-3.6568438806222223e-02",
          "+3.9826647746767679e-01", "-5.7159594211406851e-02",
          "+9.8498551038485579e-02", "+6.6546015524560853e-02",
          "+9.0734795427481127e-02", "+8.4322893253308037e-02"],
)


# CLI alias -> (canonical name, function making the scheme under that name)
_CATALOG = {
    "rk35-3s+": ("RK3(2)5 3S*+", _threestar_plus(3, 2, False, _RK35_TABLE)),
    "rk35-3s+fsal": ("RK3(2)5 3S*+ FSAL", _threestar_plus(3, 2, True, _RK35F_TABLE)),
    "rk49-3s+": ("RK4(3)9 3S*+", _threestar_plus(4, 3, False, _RK49_TABLE)),
    "rk49-3s+fsal": ("RK4(3)9 3S*+ FSAL", _threestar_plus(4, 3, True, _RK49F_TABLE)),
    "rk510-3s+": ("RK5(4)10 3S*+", _threestar_plus(5, 4, False, _RK510_TABLE)),
    "rk510-3s+fsal": ("RK5(4)10 3S*+ FSAL", _threestar_plus(5, 4, True, _RK510F_TABLE)),
    "ssp33": ("SSP3(2)3", _threestar_plus(3, 2, False, _SSP33_TABLE, exact=True)),
    "ssp43": ("SSP3(2)4", _threestar_plus(3, 2, False, _SSP34_TABLE, exact=True)),
    "bs3": ("BS3(2)3 FSAL", _bs32),
    "bs5": ("BS5(4)7 FSAL", _bs54),
}
_BUILDERS = dict(_CATALOG.values())     # canonical name -> its function

_CACHE = {}


def catalog_names():
    return sorted(_BUILDERS)


def catalog_get(name: str):
    """Return a built-in scheme by canonical name or CLI alias; both give the
    same object."""
    key = name if name in _BUILDERS else _CATALOG.get(name.strip().lower(), (None,))[0]
    if key is None:
        raise UnknownMethodError(
            f"unknown method {name!r}; valid identifiers: {', '.join(catalog_names())}")
    if key not in _CACHE:
        _CACHE[key] = _BUILDERS[key](key)
    return _CACHE[key]


# ---------------------------------------------------------------------------
# coefficient files

_COMMON_FIELDS = {"name", "class", "s", "q", "qhat", "fsal"}
_FIELDS = {
    "butcher": _COMMON_FIELDS | {"A", "b", "c", "bhat"},
    "3s*": _COMMON_FIELDS | {"gamma1", "gamma2", "gamma3", "beta", "delta", "bhat_fsal"},
    "3s*+": _COMMON_FIELDS | {"gamma1", "gamma2", "gamma3", "beta", "delta", "bhat"},
}


class CoefficientParseError(ValueError):
    pass


def _floats(doc, field, *lengths):
    try:
        vals = doc[field]
    except KeyError:
        raise CoefficientParseError(f"missing field {field!r}") from None
    if not isinstance(vals, list):
        raise CoefficientParseError(f"field {field!r} must be a list, got {vals!r}")
    if len(vals) not in lengths:
        raise CoefficientParseError(
            f"field {field!r} must have {' or '.join(map(str, lengths))} entries, got {len(vals)}")
    return [_float(f"{field!r}[{i}]", v) for i, v in enumerate(vals)]


def _float(field, v):
    try:
        return float(v)
    except (TypeError, ValueError):
        raise CoefficientParseError(f"field {field}: cannot parse {v!r}") from None


def load_coefficients(path):
    """Load a ButcherPair or LowStorageScheme from a JSON coefficient file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CoefficientParseError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise CoefficientParseError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    cls = doc.get("class")
    if cls not in _FIELDS:
        raise CoefficientParseError(f"{path}: class must be one of {sorted(_FIELDS)}, got {cls!r}")
    unknown = set(doc) - _FIELDS[cls]
    if unknown:
        raise CoefficientParseError(f"{path}: unknown fields {sorted(unknown)}")
    try:
        name = str(doc["name"])
        s, q, qhat, fsal = doc["s"], doc["q"], doc["qhat"], doc["fsal"]
    except KeyError as exc:
        raise CoefficientParseError(f"{path}: missing field {exc.args[0]!r}") from None
    for field, v in (("s", s), ("q", q), ("qhat", qhat)):
        if type(v) is not int or v < 1:
            raise CoefficientParseError(f"{path}: {field} must be a positive integer, got {v!r}")
    if type(fsal) is not bool:
        raise CoefficientParseError(f"{path}: fsal must be true or false, got {fsal!r}")
    if name in _BUILDERS:
        log.warning("coefficient file %s shadows catalog method %r; file wins", path, name)
    if cls == "butcher":
        flat = _floats(doc, "A", s * s)
        A = np.array(flat, dtype=float).reshape(s, s)
        return ButcherPair(name=name, A=A, b=_floats(doc, "b", s), c=_floats(doc, "c", s),
                           bhat=_floats(doc, "bhat", s + 1), q=q, qhat=qhat, fsal=fsal)
    ndelta = s + 1 if cls == "3s*" else s
    kwargs = dict(
        name=name, scheme_class=cls,
        gamma1=_floats(doc, "gamma1", s), gamma2=_floats(doc, "gamma2", s),
        gamma3=_floats(doc, "gamma3", s), beta=_floats(doc, "beta", s),
        delta=_floats(doc, "delta", ndelta), q=q, qhat=qhat, fsal=fsal)
    if cls == "3s*":
        tail = _float("'bhat_fsal'", doc.get("bhat_fsal", 0.0))
        return LowStorageScheme(bhat=[0.0] * s + [tail], **kwargs)
    bh = _floats(doc, "bhat", s, s + 1)
    if len(bh) == s:
        bh = _with_fsal_weight(bh, fsal)
    return LowStorageScheme(bhat=bh, **kwargs)


def export_coefficients(scheme, path):
    """Write a scheme to the JSON coefficient schema, round-trip exact."""
    if isinstance(scheme, ButcherPair):
        cls, arrays = "butcher", ("A", "b", "c", "bhat")
    else:
        cls = scheme.scheme_class
        arrays = _COEFFICIENTS if cls == "3s*+" else _COEFFICIENTS[:-1]    # all but bhat
    doc = {"name": scheme.name, "class": cls, "s": scheme.s,
           "q": scheme.q, "qhat": scheme.qhat, "fsal": scheme.fsal}
    # each array as a list, A row-major
    doc.update((attr, [repr(x) for x in getattr(scheme, attr).ravel().tolist()])
               for attr in arrays)
    if cls == "3s*":
        doc["bhat_fsal"] = repr(float(scheme.bhat[-1]))
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
