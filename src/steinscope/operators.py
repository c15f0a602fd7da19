"""Stein operators, characteristic-function ODEs, and moment recurrences.

A polynomial Stein operator is a differential operator

    S = sum_{i=0..m} sum_{j=0..T} a_{i,j} y^i D^j

with exact rational coefficients, stored sparsely as ``{(i, j): Fraction}``
(i = power of y, j = derivative order).  For a law Y annihilated by S
(E[Sf(Y)] = 0 on a rich enough class), substituting f(y) = e^{ity} turns the
expectation identity into a linear ODE for the characteristic function
phi(t) = E[e^{itY}]:

    sum_{i=0..m} c_i(t) phi^{(i)}(t) = 0,   c_i(t) = sum_j a_{i,j} i^{j-i} t^j,

where the power of y becomes the derivative order on phi and the derivative
order becomes the power of t.  ``psi_transform`` computes this ODE exactly
over the Gaussian rationals; ``psi_inverse`` undoes it.  Substituting
f(y) = y^k instead yields an exact linear recurrence among the moments of Y
(``moment_recurrence``).

``catalog_get`` serves the bundled operators: the Hermite-target operators
H3_T4m3, H3_T5m2, H4_T2m3, H4_T3m2, H5_T13m4, H6_T6m3 (suffix: maximal
derivative order T, maximal y-degree m), the degree-five operator
gauss_semicircle_T5 annihilating both N(0,1) and the centered semicircle law,
the classical Gaussian operator, and the parameterised families PN(p, sigma2)
(product of p centered Gaussians), PRR(s) (Kummer-type law on (0, infinity)),
and the product laws G1X(r, lam, sigma2), BG1(a, b, r), G1G2(r, s, lam).

Each family is declared once, in ``FAMILIES``: its ordered parameters with
defaults and domain rules, and its operator builder.  ``parse_spec`` binds a
spec such as "PN:p=4" to those parameters and renders the canonical spec
"PN:p=4,sigma2=1"; the catalog, the target registry in ``distributions``
and the CLI listing all go through it.  PN's index p is held to the work
budget ``budgets.MAX_INDEX``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from .algebra import (
    QI,
    GaussianRationalPoly,
    RationalPoly,
    _as_fraction,
    _clip,
    accumulate,
    falling_factorials,
    falling_poly,
    unit_ipow,
)
from .budgets import MAX_INDEX


class UnknownOperator(KeyError):
    """Requested catalog name does not exist."""


class BadParameter(ValueError):
    """Catalog parameters are missing, malformed, or out of range."""


class NotInImage(ValueError):
    """ODE coefficients are not i-power-aligned with any rational operator."""


class SteinOperator:
    """Sparse exact representation of sum a_{i,j} y^i D^j."""

    __slots__ = ("a", "name", "target_hint")

    def __init__(self, coeffs, name: str = "", target_hint: str | None = None):
        a = {}
        for (i, j), v in coeffs.items():
            v = _as_fraction(v)
            if v:
                i, j = int(i), int(j)
                if i < 0 or j < 0:
                    raise ValueError("operator indices must be >= 0")
                a[(i, j)] = v
        if not a:
            raise ValueError("a Stein operator needs a nonzero coefficient")
        self.a = a
        self.name = name
        self.target_hint = target_hint

    @property
    def m(self) -> int:
        """Maximal polynomial degree in y (the order of the transformed ODE)."""
        return max(i for i, _ in self.a)

    @property
    def T(self) -> int:
        """Maximal derivative order (the maximal t-degree of the ODE)."""
        return max(j for _, j in self.a)

    def __eq__(self, other):
        if isinstance(other, SteinOperator):
            return self.a == other.a
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.a.items()))

    def __add__(self, other):
        if not isinstance(other, SteinOperator):
            return NotImplemented
        return SteinOperator(accumulate(other.a.items(), dict(self.a)))

    def __rmul__(self, scalar):
        scalar = _as_fraction(scalar)
        return SteinOperator({k: scalar * v for k, v in self.a.items()})

    def coefficient_poly(self, j: int) -> RationalPoly:
        """The y-polynomial multiplying D^j."""
        return RationalPoly({i: v for (i, jj), v in self.a.items() if jj == j})

    def to_json_dict(self) -> dict:
        m, T = self.m, self.T
        return {
            "name": self.name,
            "T": T,
            "m": m,
            "coeff": [
                [str(self.a.get((i, j), Fraction(0))) for j in range(T + 1)]
                for i in range(m + 1)
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SteinOperator":
        try:
            name = d.get("name", "")
            T, m, rows = d["T"], d["m"], d["coeff"]
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed operator JSON: {exc}") from exc
        if type(T) is not int or type(m) is not int:  # not a bool, float or string
            raise ValueError(f"T and m must be JSON integers, got {_clip(f'{T!r}, {m!r}')}")
        if len(rows) != m + 1:
            raise ValueError(f"expected {m + 1} coefficient rows, got {len(rows)}")
        a = {}
        for i, row in enumerate(rows):
            if len(row) != T + 1:
                raise ValueError(
                    f"row {i}: expected {T + 1} entries, got {len(row)}"
                )
            for j, s in enumerate(row):
                try:
                    if not isinstance(s, str):
                        raise ValueError(
                            f"rational entries must be strings, got {_clip(repr(s))}")
                    a[(i, j)] = _as_fraction(s)
                except ValueError as exc:
                    raise ValueError(f"row {i}, column {j}: {exc}") from exc
        op = cls(a, name=name)
        if op.m != m or op.T != T:
            raise ValueError(
                f"declared (T, m) = ({T}, {m}) but nonzero entries give "
                f"({op.T}, {op.m})"
            )
        return op

    def __repr__(self):
        parts = []
        for j in range(self.T + 1):
            p = self.coefficient_poly(j)
            if p.is_zero():
                continue
            parts.append(f"({p})" if j == 0 else f"({p})*D^{j}")
        label = f"{self.name}: " if self.name else ""
        return f"SteinOperator({label}{' + '.join(parts)})"


class CfOde:
    """Linear ODE sum_i c_i(t) phi^{(i)}(t) = 0 with Gaussian-rational c_i.

    ODEs produced by ``psi_transform`` are normalised by the unit
    u in {1, i, -1, -i} that makes the top-degree coefficient of the leading
    polynomial c_n real and positive (coefficients off both axes are left
    untouched); the applied unit is recorded in ``unit`` so the transform can
    be inverted exactly.  Directly constructed ODEs carry ``unit=None``.
    """

    __slots__ = ("coeffs", "unit")

    def __init__(self, coeffs, unit: QI | None = None):
        cs = []
        for c in coeffs:
            if isinstance(c, GaussianRationalPoly):
                cs.append(c)
            elif isinstance(c, RationalPoly):
                cs.append(c.to_gaussian())
            elif isinstance(c, dict):
                cs.append(GaussianRationalPoly(c))
            else:
                raise TypeError(f"cannot build ODE coefficient from {type(c)}")
        if not cs or cs[-1].is_zero():
            raise ValueError("the leading ODE coefficient must be nonzero")
        self.coeffs = tuple(cs)
        self.unit = unit

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if isinstance(other, CfOde):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self):
        terms = []
        for i in range(self.order, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            head = "phi" if i == 0 else f"phi^({i})"
            terms.append(f"({c})*{head}")
        return f"CfOde({' + '.join(terms)} = 0)"


def _normalising_unit(lead: GaussianRationalPoly) -> QI:
    d = lead.leading()
    if d.im == 0:
        return QI(1) if d.re > 0 else QI(-1)
    if d.re == 0:
        return QI(0, -1) if d.im > 0 else QI(0, 1)
    return QI(1)


def psi_transform(op: SteinOperator) -> CfOde:
    """The ODE satisfied by characteristic functions of laws annihilated by op.

    Maps a_{i,j} y^i D^j to a_{i,j} i^{j-i} t^j phi^{(i)}, with the
    coefficients scaled by the normalising unit.
    """
    rows: list[dict] = [{} for _ in range(op.m + 1)]
    for (i, j), v in op.a.items():
        rows[i][j] = unit_ipow(j - i) * v
    coeffs = [GaussianRationalPoly(r) for r in rows]
    u = _normalising_unit(coeffs[-1])
    return CfOde([u * c for c in coeffs], unit=u)


def psi_inverse(ode: CfOde) -> SteinOperator:
    """Recover the Stein operator whose transform is the given ODE.

    The coefficient of t^j in c_i must be a rational multiple of i^{j-i} up
    to one global unit; otherwise the ODE is not the transform of any
    rational operator and ``NotInImage`` is raised.  When the ODE records the
    unit applied by ``psi_transform`` the exact preimage is returned;
    otherwise units are tried in the order 1, i, -1, -i and the preimage is
    determined up to overall sign.
    """
    units = []
    if ode.unit is not None:
        units.append(ode.unit.conjugate())  # inverse of an axis unit
    units += [QI(1), QI(0, 1), QI(-1), QI(0, -1)]
    for w in units:
        a = {}
        ok = True
        for i, c in enumerate(ode.coeffs):
            for d, v in (w * c).c.items():
                av = v * unit_ipow(i - d)
                if av.im:
                    ok = False
                    break
                a[(i, d)] = av.re
            if not ok:
                break
        if ok:
            return SteinOperator(a)
    raise NotInImage(
        "ODE coefficients are not i-power-aligned with a rational operator"
    )


class MomentRecurrence:
    """The exact relation sum_s c_s(k) E[W^{k+s}] = 0 implied by an operator.

    Substituting f(y) = y^k into E[Sf(W)] = 0 gives
    sum_{i,j} a_{i,j} (k)_j E[W^{k+i-j}] = 0 where (k)_j is the falling
    factorial.  Terms are grouped by the moment shift s = i - j, between
    ``min_shift`` and ``max_shift``.  ``coefficients(k)`` reads the integers
    (k)_j from ``algebra.falling_factorials``; (k)_j = 0 for j > k, so a row
    never references a moment of negative order.  Each c_s is a polynomial
    in k; it is built, from ``algebra.falling_poly``, only where a
    polynomial is needed: ``leading_coefficient_poly`` and the repr.
    """

    __slots__ = ("operator", "min_shift", "max_shift")

    def __init__(self, op: SteinOperator):
        self.operator = op
        shifts = [i - j for i, j in op.a]
        self.min_shift, self.max_shift = min(shifts), max(shifts)

    def coefficients(self, k: int) -> dict[int, Fraction]:
        """Nonzero coefficients {shift: c_s(k)} of the order-k relation."""
        if k < 0:
            raise ValueError("k must be >= 0")
        ff = falling_factorials(k, self.operator.T)
        return accumulate((i - j, v * ff[j]) for (i, j), v in self.operator.a.items())

    def residual(self, moment_oracle, k: int) -> Fraction:
        """sum_s c_s(k) E[W^{k+s}] with moments from ``moment_oracle(order)``."""
        return sum(
            (v * _as_fraction(moment_oracle(k + s))
             for s, v in self.coefficients(k).items()),
            Fraction(0),
        )

    def _poly(self, s: int) -> RationalPoly:
        """c_s(k) as a polynomial in k."""
        return sum((v * falling_poly(j) for (i, j), v in self.operator.a.items()
                    if i - j == s), RationalPoly())

    def leading_coefficient_poly(self) -> RationalPoly:
        """c_{s_max}(k): the polynomial multiplying the highest moment."""
        return self._poly(self.max_shift)

    def __repr__(self):
        parts = [
            f"({p}) * E[W^(k{s:+d})]" if s else f"({p}) * E[W^k]"
            for s in range(self.max_shift, self.min_shift - 1, -1) if (p := self._poly(s))
        ]
        return f"MomentRecurrence({' + '.join(parts)} = 0)"


def moment_recurrence(op: SteinOperator) -> MomentRecurrence:
    """Exact moment recurrence obtained by applying op to f(y) = y^k."""
    return MomentRecurrence(op)


def stirling2(p: int, k: int) -> int:
    """Stirling number of the second kind {p, k}, for 1 <= k <= p."""
    if not (1 <= k <= p):
        raise ValueError(f"stirling2 requires 1 <= k <= p, got ({p}, {k})")
    return _stirling_row(p)[k]


@lru_cache(maxsize=None)
def _stirling_row(p: int) -> tuple[int, ...]:
    """({p, 0}, ..., {p, p}), built row by row: {q, k} = k{q-1, k} + {q-1, k-1}."""
    row = [1]
    for q in range(1, p + 1):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, q)] + [1]
    return tuple(row)


# --- catalog ---------------------------------------------------------------

# name -> (target hint, coefficients {(i, j): a_ij})
_STATIC_CATALOG = {
    # classical first-order Gaussian operator D - y
    "gauss_classical": ("N01", {(0, 1): 1, (1, 0): -1}),
    # H3(X) target, (T, m) = (4, 3):
    # 5y - (3y^2+12)D + 207yD^2 + (351y^2-1080)D^3 + (81y^3-324y)D^4
    "H3_T4m3": ("H3", {
        (1, 0): 5,
        (2, 1): -3, (0, 1): -12,
        (1, 2): 207,
        (2, 3): 351, (0, 3): -1080,
        (3, 4): 81, (1, 4): -324,
    }),
    # H3(X) target, (T, m) = (5, 2):
    # y - 6D - 99yD^2 + (216-27y^2)D^3 + 486yD^4 + (486y^2-1944)D^5
    "H3_T5m2": ("H3", {
        (1, 0): 1,
        (0, 1): -6,
        (1, 2): -99,
        (0, 3): 216, (2, 3): -27,
        (1, 4): 486,
        (2, 5): 486, (0, 5): -1944,
    }),
    # H4(X) target, (T, m) = (2, 3):
    # (-y^2+50y+24) + (64y^2+72y-1008)D + (16y^3-48y^2-576y+1728)D^2
    "H4_T2m3": ("H4", {
        (2, 0): -1, (1, 0): 50, (0, 0): 24,
        (2, 1): 64, (1, 1): 72, (0, 1): -1008,
        (3, 2): 16, (2, 2): -48, (1, 2): -576, (0, 2): 1728,
    }),
    # H4(X) target, (T, m) = (3, 2):
    # y - (24+44y)D + (576+144y-16y^2)D^2 + (192y^2+576y-3456)D^3
    "H4_T3m2": ("H4", {
        (1, 0): 1,
        (0, 1): -24, (1, 1): -44,
        (0, 2): 576, (1, 2): 144, (2, 2): -16,
        (2, 3): 192, (1, 3): 576, (0, 3): -3456,
    }),
    # H5(X) target, (T, m) = (13, 4)
    "H5_T13m4": ("H5", {
        (1, 0): 1,
        (0, 1): -120,
        (1, 2): -75325,
        (2, 3): -81875, (0, 3): 7704000,
        (3, 4): -31250, (1, 4): 270600000,
        (4, 5): -3125, (2, 5): 527800000, (0, 5): -39086400000,
        (3, 6): 280000000, (1, 6): -155065000000,
        (4, 7): 35000000, (2, 7): -241335000000, (0, 7): 14306880000000,
        (3, 8): -198750000000, (1, 8): 53403600000000,
        (4, 9): -33125000000, (2, 9): 34950000000000,
        (0, 9): -1170432000000000,
        (3, 10): 39000000000000, (1, 10): -10843200000000000,
        (4, 11): 9750000000000, (2, 11): -6696000000000000,
        (0, 11): 352512000000000000,
        (3, 12): -2160000000000000, (1, 12): 622080000000000000,
        (4, 13): -1080000000000000, (2, 13): 622080000000000000,
        (0, 13): -29859840000000000000,
    }),
    # H6(X) target, (T, m) = (6, 3)
    "H6_T6m3": ("H6", {
        (1, 0): 1,
        (1, 1): -1278, (0, 1): -720,
        (2, 2): -972, (1, 2): 103320, (0, 2): 756000,
        (3, 3): -216, (2, 3): 228960, (1, 3): 16491600, (0, 3): -120528000,
        (3, 4): 71280, (2, 4): 6771600, (1, 4): -307152000,
        (0, 4): -3265920000,
        (2, 5): -314928000, (1, 5): -19945440000, (0, 5): 125971200000,
        (3, 6): -209952000, (2, 6): -19945440000, (1, 6): 251942400000,
        (0, 6): 7558272000000,
    }),
    # degree-5 operator annihilating both N(0,1) and the centered semicircle:
    # (1-y^2)D^5 + (y^3-4y)D^4 + (5-2y^2)D^3 + (3y^3-21y)D^2 + 9y^2 D - 9y
    "gauss_semicircle_T5": ("N01", {
        (0, 5): 1, (2, 5): -1,
        (3, 4): 1, (1, 4): -4,
        (0, 3): 5, (2, 3): -2,
        (3, 2): 3, (1, 2): -21,
        (2, 1): 9,
        (1, 0): -9,
    }),
}


def catalog_names() -> list[str]:
    """All catalog entries; parameterised families are listed by family name."""
    return sorted(_STATIC_CATALOG) + list(FAMILIES)


# --- parameterised families ---------------------------------------------------


class Param(NamedTuple):
    """One family parameter: its name, its default (None: required), its rule.

    The rule is ``(requirement, holds)``: ``read`` raises BadParameter
    "<family> requires <requirement>, got v" for a value v with
    ``not holds(v)``, with the parameter name filled in for ``{}``.
    """

    name: str
    default: int | None
    rule: tuple[str, Callable[[Fraction], bool]]

    def read(self, family: str, value) -> Fraction:
        """``value`` read by ``_as_fraction`` and held to the rule."""
        try:
            v = _as_fraction(value)
        except ValueError as exc:
            raise BadParameter(f"bad value for {self.name!r}: {exc}") from None
        requirement, holds = self.rule
        if not holds(v):
            raise BadParameter(f"{family} requires {requirement.format(self.name)}, "
                               f"got {_clip(str(v))}")
        return v


class Family(NamedTuple):
    """A parameterised operator family: its ordered parameters and builder.

    ``operator`` maps the parsed values, by parameter name, to the sparse
    coefficients ``{(i, j): a_ij}``.
    """

    params: tuple[Param, ...]
    operator: Callable[..., dict]


POSITIVE = ("{} > 0", lambda v: v > 0)
# PN's p and the Hermite target's p
INDEX = (f"integer 1 <= {{}} <= MAX_INDEX = {MAX_INDEX}",
         lambda v: v.denominator == 1 and 1 <= v <= MAX_INDEX)


def _pn_operator(p, sigma2) -> dict:
    p = int(p)
    coeffs = {(k - 1, k): sigma2 * stirling2(p, k) for k in range(1, p + 1)}
    coeffs[(1, 0)] = coeffs.get((1, 0), Fraction(0)) - 1
    return coeffs


#: The parameterised families, in catalog order.  The catalog, the target
#: registry in ``distributions`` and the CLI listing all read this table.
FAMILIES = {
    "PN": Family(
        (Param("p", None, INDEX), Param("sigma2", 1, POSITIVE)),
        _pn_operator,
    ),
    "PRR": Family(
        (Param("s", None, ("{} > 1/2", lambda v: v > Fraction(1, 2))),),
        lambda s: {(1, 2): s, (0, 1): 2 * s, (2, 1): -1, (1, 0): 1 - 2 * s},
    ),
    "G1X": Family(
        (Param("r", None, POSITIVE), Param("lam", None, POSITIVE),
         Param("sigma2", 1, POSITIVE)),
        lambda r, lam, sigma2: {(2, 3): 1, (1, 2): 2 * (r + 1), (0, 1): r * (r + 1),
                                (1, 0): -lam / sigma2},
    ),
    "BG1": Family(
        (Param("a", None, POSITIVE), Param("b", None, POSITIVE),
         Param("r", None, POSITIVE)),
        lambda a, b, r: {(2, 2): 1, (1, 1): a + r - 1, (2, 1): -1, (0, 0): a * r,
                         (1, 0): -(a + b)},
    ),
    "G1G2": Family(
        (Param("r", None, POSITIVE), Param("s", None, POSITIVE),
         Param("lam", None, POSITIVE)),
        lambda r, s, lam: {(2, 2): 1, (1, 1): 1 + r + s, (0, 0): r * s,
                           (1, 0): -lam * lam},
    ),
}

_KEY_ALIASES = {"lambda": "lam"}


def _given(inline: str, family: str) -> dict:
    """The "key=value,..." assignments under their canonical keys; a repeat is an error."""
    out = {}
    for item in inline.split(","):
        item = item.strip()
        if not item:
            continue
        key, eq, value = item.partition("=")
        if not eq:
            raise BadParameter(f"expected key=value, got {_clip(item)!r}")
        key = _KEY_ALIASES.get(key.strip(), key.strip())
        if key in out:
            raise BadParameter(f"{family} got parameter {key!r} more than once")
        out[key] = value
    return out


def parse_spec(spec: str, params_of) -> tuple[str, dict, str]:
    """Bind "NAME:key=value,..." to NAME's parameters.

    ``params_of(NAME)`` gives NAME's ordered ``Param`` tuple and raises for
    unknown names.  ``lambda`` is read as ``lam``; a key given twice, a
    missing required parameter, a value outside its rule and an unknown key
    raise BadParameter.  Returns ``(NAME, values, canonical spec)`` where
    the canonical spec lists every value in parameter order, e.g.
    "PN:p=4,sigma2=1" (just NAME when it takes no parameters).
    """
    family, _, inline = spec.partition(":")
    family = family.strip()
    params = params_of(family)
    given = _given(inline, family)
    values = {}
    for param in params:
        if param.name in given:
            value = given.pop(param.name)
        elif param.default is not None:
            value = param.default
        else:
            raise BadParameter(f"{family} requires parameter {param.name!r}")
        values[param.name] = param.read(family, value)
    if given:
        raise BadParameter(f"unknown parameters for {family}: {sorted(given)}")
    if not values:
        return family, values, family
    rendered = ",".join(f"{k}={v}" for k, v in values.items())
    return family, values, f"{family}:{rendered}"


def _catalog_params(name: str) -> tuple[Param, ...]:
    if name in FAMILIES:
        return FAMILIES[name].params
    if name in _STATIC_CATALOG:
        return ()
    raise UnknownOperator(name)


def catalog_get(name: str) -> SteinOperator:
    """Fetch a catalog operator, e.g. catalog_get("PN:p=4,sigma2=1").

    Parameters follow the name after a colon.  Raises UnknownOperator for
    unknown names and BadParameter for invalid parameters.
    """
    family, values, spec = parse_spec(name, _catalog_params)
    if family in _STATIC_CATALOG:
        hint, coeffs = _STATIC_CATALOG[family]
        return SteinOperator(coeffs, name=family, target_hint=hint)
    coeffs = FAMILIES[family].operator(**values)
    return SteinOperator(coeffs, name=spec, target_hint=spec)
