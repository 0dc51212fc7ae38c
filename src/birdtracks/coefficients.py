"""Exact scalar arithmetic in Q(N), optionally extended by square roots.

Coefficients of invariant-element expansions live in the field of rational
functions of the symbolic dimension N, each stored as a quotient of two
integer-coefficient polynomials.  Normalizing transition operators
additionally needs square roots, so a second layer represents finite sums

    sum_i  m_i(N) * sqrt(r_i(N))

with rational-function multipliers m_i and pairwise distinct radicands r_i.
Radicands are kept canonical: integer-coefficient polynomials, squarefree
both as polynomials and in their integer content, with positive leading
coefficient, so equality of coefficients is a dictionary comparison.

Everything here is exact; no floats enter until a caller asks for one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import (
    DivisionByZero,
    OutOfRange,
    PoleAtN,
    RadicalComparisonUnsupported,
    UnsupportedRadicalDivision,
    ZeroRadicand,
    integer,
)

# ---------------------------------------------------------------------------
# Dense univariate polynomials over Z: tuple of ints, lowest degree first,
# no trailing zeros.  () is the zero polynomial.
# ---------------------------------------------------------------------------

Poly = tuple[int, ...]

_ZERO: Poly = ()
_ONE: Poly = (1,)


def _trim(cs: list[int]) -> Poly:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _p_add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _p_neg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def _p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return _ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return _trim(out)


def _p_exquo(a: Poly, b: Poly) -> Poly:
    """a / b, for a nonzero b that divides a with an integral quotient.

    A primitive b dividing a over Q always does (Gauss's lemma).
    """
    rem = list(a)
    quo = [0] * (len(a) - len(b) + 1)
    for d in range(len(quo) - 1, -1, -1):
        c = quo[d] = rem[d + len(b) - 1] // b[-1]
        if c:
            for i, cb in enumerate(b, d):
                rem[i] -= c * cb
    return tuple(quo)


def _p_primitive(a: Poly) -> Poly:
    """a divided by its integer content, leading coefficient made positive."""
    c = math.gcd(*a)
    if a[-1] < 0:
        c = -c
    return a if c == 1 else tuple(x // c for x in a)


@lru_cache(maxsize=65536)
def _p_gcd(a: Poly, b: Poly) -> Poly:
    """The primitive gcd with positive leading coefficient; a, b not both 0.

    A primitive pseudo-remainder sequence: each remainder of lc(b)^k * a
    by b is integral, and dividing it by its content keeps the integers
    small.  The same small numerator/denominator pairs recur constantly in
    diagram compositions, so the results are worth caching.
    """
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return _ONE
        rem, lead = list(a), b[-1]
        while len(rem) >= len(b):
            c, d = rem[-1], len(rem) - len(b)
            if lead != 1:
                rem = [x * lead for x in rem]
            for i, cb in enumerate(b, d):
                rem[i] -= c * cb
            while rem and rem[-1] == 0:
                rem.pop()
        a, b = b, (_p_primitive(tuple(rem)) if rem else _ZERO)
    return _p_primitive(a)


def _cancel(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """a and b divided by their gcd, which leaves them coprime over Q."""
    g = _p_gcd(a, b)
    return (a, b) if len(g) == 1 else (_p_exquo(a, g), _p_exquo(b, g))


def _p_lcm(a: Poly, b: Poly) -> Poly:
    """A common multiple of nonzero a and b that both divide with integral
    quotients, least up to a constant factor.

    Reducing a / b leaves b over the gcd of the two.
    """
    return _p_mul(a, RationalFunction(a, b).den)


def _p_deriv(a: Poly) -> Poly:
    return _trim([i * c for i, c in enumerate(a)][1:])


def _p_eval(a: Poly, x: int | Fraction) -> int | Fraction:
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _squarefree_split(a: Poly) -> tuple[Poly, Poly]:
    """Write a primitive polynomial with positive leading coefficient as s^2 * r.

    Returns (s, r), both primitive with positive leading coefficient, r
    squarefree.  Yun's algorithm, specialized to characteristic zero; each
    division is by a primitive gcd, so every quotient stays in Z[N].
    """
    g = _p_gcd(a, _p_deriv(a))
    square = rest = _ONE
    b = _p_exquo(a, g)
    d = _p_add(_p_exquo(_p_deriv(a), g), _p_neg(_p_deriv(b)))
    mult = 1
    while len(b) > 1:
        factor = _p_gcd(b, d)
        for _ in range(mult // 2):
            square = _p_mul(square, factor)
        if mult % 2:
            rest = _p_mul(rest, factor)
        b = _p_exquo(b, factor)
        d = _p_add(_p_exquo(d, factor), _p_neg(_p_deriv(b)))
        mult += 1
    return square, rest


def _int_square_split(n: int) -> tuple[int, int]:
    """Write a positive integer as s^2 * r with r squarefree; return (s, r)."""
    s, r = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                r *= d
        d += 1 if d == 2 else 2
    return s, r * n


def _unit_normal(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num/den with their common integer content divided out, den[-1] > 0."""
    c = math.gcd(*num, *den)
    if den[-1] < 0:
        c = -c
    if c == 1:
        return num, den
    return tuple(x // c for x in num), tuple(x // c for x in den)


class RationalFunction:
    """A reduced fraction of polynomials in N with integer coefficients.

    Canonical form: num and den are coprime in Q[N] and share no integer
    factor, den has a positive leading coefficient, and zero is 0/1.  The
    form is unique, so equality and hashing work structurally.  Printers
    show it with den made monic (see monic).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = _ONE, _reduced: bool = False):
        if not den:
            raise DivisionByZero("rational function with zero denominator")
        if not _reduced:
            if not num:
                den = _ONE
            else:
                num, den = _unit_normal(*_cancel(num, den))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_fraction(cls, value: int | Fraction) -> "RationalFunction":
        f = _fraction(value, "coefficient")
        if f == 0:
            return _RF_ZERO
        return cls((f.numerator,), (f.denominator,), _reduced=True)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise OutOfRange(f"{self} is not a constant")
        return Fraction(self.num[0], self.den[0]) if self.num else Fraction(0)

    def monic(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        """Numerator and denominator divided by den's leading coefficient."""
        lead = self.den[-1]
        return (tuple(Fraction(c, lead) for c in self.num),
                tuple(Fraction(c, lead) for c in self.den))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        other = _as_rf(other)
        return _rf_add(self.num, self.den, other.num, other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(_p_neg(self.num), self.den, _reduced=True)

    def __sub__(self, other):
        return self + (-_as_rf(other))

    def __rsub__(self, other):
        return _as_rf(other) + (-self)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        other = _as_rf(other)
        return _rf_mul(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        other = _as_rf(other)
        if other.is_zero():
            raise DivisionByZero("division by zero rational function")
        return self * RationalFunction(other.den, other.num)

    def __rtruediv__(self, other):
        return _as_rf(other) / self

    def __pow__(self, k: int) -> "RationalFunction":
        k = integer(k, "exponent", None)
        if k < 0:
            return _RF_ONE / self ** (-k)
        out = _RF_ONE
        for _ in range(k):
            out = out * self
        return out

    # -- evaluation and display ---------------------------------------------

    def eval_at(self, n: int | Fraction) -> Fraction:
        # at an integer n both polynomials evaluate in integers
        x = n if isinstance(n, int) else _fraction(n, "N")
        d = _p_eval(self.den, x)
        if d == 0:
            raise PoleAtN(f"denominator of {self} vanishes at N={n}")
        return Fraction(_p_eval(self.num, x), d)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.from_fraction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant equals its Fraction, so it must hash like one
        if self.is_constant():
            return hash(self.as_fraction())
        return hash((self.num, self.den))

    def __repr__(self):
        num, den = self.monic()
        if len(den) == 1:
            return _poly_str(num)
        return f"({_poly_str(num)})/({_poly_str(den)})"

    def to_json(self) -> dict:
        num, den = self.monic()
        return {"num": [str(c) for c in num], "den": [str(c) for c in den]}

    @classmethod
    def from_json(cls, data: Mapping) -> "RationalFunction":
        """Inverse of to_json: "num" and "den" are lists of rational strings."""
        num, den = (_json_list(data, part, str) for part in ("num", "den"))
        try:
            num, den = [Fraction(c) for c in num], [Fraction(c) for c in den]
        except (ValueError, ZeroDivisionError):
            raise OutOfRange(f"unreadable rational in {data!r}") from None
        return rf(num, den)


def _json_list(data, field: str, kind: type) -> list:
    """data[field] as to_json writes it: a list whose entries are all kind."""
    items = data.get(field) if isinstance(data, dict) else None
    if not isinstance(items, list) or any(type(c) is not kind for c in items):
        raise OutOfRange(f"{field!r} is not a list of {kind.__name__}: {data!r}")
    return items


def _fraction(x, name: str) -> Fraction:
    """x as an exact scalar: a Fraction as it is, a numpy scalar by its
    Python value, and anything else through integer(), which refuses floats."""
    if isinstance(x, Fraction):
        return x
    return Fraction(integer(x.item() if hasattr(x, "item") else x, name, None))


def _as_rf(x) -> RationalFunction:
    """x as a RationalFunction; scalars are read by _fraction."""
    if isinstance(x, RationalFunction):
        return x
    return RationalFunction.from_fraction(x)


_RF_ZERO = RationalFunction(_ZERO, _ONE, _reduced=True)
_RF_ONE = RationalFunction(_ONE, _ONE, _reduced=True)
_RF_N = RationalFunction((0, 1), _ONE, _reduced=True)


@lru_cache(maxsize=1 << 18)
def _rf_add(num1: Poly, den1: Poly, num2: Poly, den2: Poly) -> RationalFunction:
    # results are immutable, and the same coefficient pairs come up again
    # and again when composing diagram sums, so sharing them pays off.
    # With g = gcd(den1, den2) and den_i = g * e_i, the sum is
    # (num1 e2 + num2 e1) / (g e1 e2); the inputs are reduced, so the
    # numerator shares no factor with e1 e2, and only g is left to cancel
    g = _p_gcd(den1, den2)
    e1, e2 = _p_exquo(den1, g), _p_exquo(den2, g)
    num = _p_add(_p_mul(num1, e2), _p_mul(num2, e1))
    if not num:
        return _RF_ZERO
    num, g = _cancel(num, g)
    return RationalFunction(*_unit_normal(num, _p_mul(_p_mul(e1, e2), g)),
                            _reduced=True)


@lru_cache(maxsize=1 << 18)
def _rf_mul(num1: Poly, den1: Poly, num2: Poly, den2: Poly) -> RationalFunction:
    # cross-reduce first: inputs are reduced, so the result is coprime in
    # Q[N] and only the integer content is left to divide out
    if not num1 or not num2:
        return _RF_ZERO
    a, b = _cancel(num1, den2)
    c, d = _cancel(num2, den1)
    return RationalFunction(*_unit_normal(_p_mul(a, c), _p_mul(b, d)),
                            _reduced=True)


def _poly_str(p: Poly, var: str = "N") -> str:
    if not p:
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{mag}{var}" + (f"^{i}" if i > 1 else "")
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Radical layer
# ---------------------------------------------------------------------------

# Canonical radicand key: integer-coefficient polynomial (low degree first)
# that is squarefree over Q, has squarefree positive integer content, and a
# positive leading coefficient.  The key (1,) marks the rational part.
RadicandKey = tuple[int, ...]

_UNIT_KEY: RadicandKey = (1,)


@lru_cache(maxsize=1 << 12)
def _canonical_sqrt(p: Poly) -> tuple[RationalFunction, RadicandKey]:
    """Split sqrt(p) into multiplier * sqrt(key) with a canonical key.

    p is a nonzero integer polynomial with positive leading coefficient.
    Products of radicands repeat a handful of polynomials, so the results
    are cached.
    """
    if p[-1] < 0:
        raise OutOfRange(
            f"negative leading coefficient in radicand {_poly_str(p)}")
    # p = content * s^2 * r with r squarefree and primitive, and
    # content = sq^2 * sf with sf squarefree
    content = math.gcd(*p)
    s_poly, r_poly = _squarefree_split(_p_primitive(p))
    sq, sf = _int_square_split(content)
    mult = RationalFunction(tuple(sq * c for c in s_poly), _ONE, _reduced=True)
    return mult, tuple(sf * c for c in r_poly)


class RadicalCoefficient:
    """A finite sum of rational-function multiples of canonical square roots.

    A coefficient keeps the list of its first to_json in _json, a slot
    that only to_json sets, so arithmetic never touches it.  Equality and
    hashing ignore it; to_json returns the same list on every call, so
    callers share it and must not modify it.
    """

    __slots__ = ("terms", "_json")

    def __init__(self, terms: Mapping[RadicandKey, RationalFunction] | None = None):
        cleaned = {}
        if terms:
            for key, mult in terms.items():
                if not mult.is_zero():
                    cleaned[key] = mult
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("RadicalCoefficient is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "RadicalCoefficient":
        rf = _as_rf(value)
        return cls({_UNIT_KEY: rf}) if not rf.is_zero() else cls()

    @classmethod
    def zero(cls) -> "RadicalCoefficient":
        return cls()

    @classmethod
    def one(cls) -> "RadicalCoefficient":
        return cls.from_rational(1)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return all(k == _UNIT_KEY for k in self.terms)

    def rational_part(self) -> RationalFunction:
        """The whole coefficient as a RationalFunction; raises if irrational."""
        if not self.is_rational():
            raise RadicalComparisonUnsupported(
                f"{self} has irrational terms")
        return self.terms.get(_UNIT_KEY, _RF_ZERO)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "RadicalCoefficient":
        other = _as_radical(other)
        merged = dict(self.terms)
        for key, mult in other.terms.items():
            cur = merged.get(key)
            merged[key] = mult if cur is None else cur + mult
        return RadicalCoefficient(merged)

    __radd__ = __add__

    def __neg__(self) -> "RadicalCoefficient":
        return RadicalCoefficient({k: -m for k, m in self.terms.items()})

    def __sub__(self, other):
        return self + (-_as_radical(other))

    def __rsub__(self, other):
        return _as_radical(other) + (-self)

    def __mul__(self, other) -> "RadicalCoefficient":
        other = _as_radical(other)
        out: dict[RadicandKey, RationalFunction] = {}
        for k1, m1 in self.terms.items():
            for k2, m2 in other.terms.items():
                m = m1 * m2
                if k1 == k2:
                    key = _UNIT_KEY
                    if k1 != _UNIT_KEY:
                        m = m * RationalFunction(k1, _ONE, _reduced=True)
                elif k1 == _UNIT_KEY:
                    key = k2
                elif k2 == _UNIT_KEY:
                    key = k1
                else:
                    extra, key = _canonical_sqrt(_p_mul(k1, k2))
                    m = m * extra
                cur = out.get(key)
                out[key] = m if cur is None else cur + m
        return RadicalCoefficient(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RadicalCoefficient":
        other = _as_radical(other)
        if other.is_zero():
            raise DivisionByZero("division by zero coefficient")
        if len(other.terms) > 1:
            raise UnsupportedRadicalDivision(
                f"cannot divide by multi-term radical {other}")
        (key, mult), = other.terms.items()
        if key == _UNIT_KEY:
            return RadicalCoefficient(
                {k: m / mult for k, m in self.terms.items()})
        # 1/(m sqrt(r)) = sqrt(r) / (m r)
        r = RationalFunction(key, _ONE, _reduced=True)
        return self * RadicalCoefficient({key: _RF_ONE / (mult * r)})

    def __rtruediv__(self, other):
        return _as_radical(other) / self

    # -- evaluation ---------------------------------------------------------

    def eval_at(self, n: int | Fraction) -> dict[int, Fraction]:
        """Exact value at N=n as {squarefree integer radicand: rational}.

        The key 1 holds the rational part; {} is zero.  A key d != 1
        contributes value * sqrt(d); negative d is kept formal.
        """
        out: dict[int, Fraction] = {}
        x = n if isinstance(n, int) else _fraction(n, "N")
        for key, mult in self.terms.items():
            m = mult.eval_at(n)
            if key != _UNIT_KEY:
                r = _p_eval(key, x)
                if r == 0:
                    continue
                sign = 1 if r > 0 else -1
                r = abs(r)
                # r is an int at an integer n; ints have both fields too
                s_num, d_num = _int_square_split(r.numerator)
                s_den, d_den = _int_square_split(r.denominator)
                # sqrt(dn/dd) = sqrt(dn*dd)/dd
                m = m * Fraction(s_num, s_den * d_den)
                d = sign * d_num * d_den
            else:
                d = 1
            out[d] = out.get(d, Fraction(0)) + m
        return {d: v for d, v in out.items() if v != 0}

    def eval_rational(self, n: int | Fraction) -> Fraction:
        """Exact rational value at N=n; raises if irrational there."""
        vals = self.eval_at(n)
        if set(vals) - {1}:
            raise RadicalComparisonUnsupported(
                f"{self} is irrational at N={n}")
        return vals.get(1, Fraction(0))

    def eval_float(self, n: int | Fraction) -> float:
        total = 0.0
        for d, v in self.eval_at(n).items():
            if d < 0:
                raise RadicalComparisonUnsupported(
                    f"negative radicand {d} at N={n}")
            total += float(v) * math.sqrt(d)
        return total

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, RationalFunction)):
            other = _as_radical(other)
        if not isinstance(other, RadicalCoefficient):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a rational coefficient equals its rational part, so hashes like it
        if self.is_rational():
            return hash(self.rational_part())
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=lambda k: (len(k), k)):
            mult = self.terms[key]
            if key == _UNIT_KEY:
                parts.append(repr(mult))
            else:
                parts.append(f"({mult!r})*sqrt({_poly_str(key)})")
        return " + ".join(parts)

    def to_json(self) -> list:
        rows = getattr(self, "_json", None)
        if rows is None:
            items = sorted(self.terms.items(),
                           key=lambda kv: (len(kv[0]), kv[0]))
            rows = [{"radicand": list(key), "multiplier": mult.to_json()}
                    for key, mult in items]
            object.__setattr__(self, "_json", rows)
        return rows

    @classmethod
    def from_json(cls, data) -> "RadicalCoefficient":
        if not isinstance(data, list):
            raise OutOfRange(f"radical coefficient is not a list: {data!r}")
        terms = {}
        for item in data:
            key = tuple(_json_list(item, "radicand", int))
            # a radicand that splits off a square would break equality
            if not key or not key[-1] or _canonical_sqrt(key) != (1, key):
                raise OutOfRange(f"radicand {list(key)} is not canonical")
            if key in terms:
                raise OutOfRange(f"radicand {list(key)} appears twice")
            terms[key] = RationalFunction.from_json(item.get("multiplier"))
        return cls(terms)


def _as_radical(x) -> RadicalCoefficient:
    if isinstance(x, RadicalCoefficient):
        return x
    return RadicalCoefficient.from_rational(_as_rf(x))


def sqrt(value: RationalFunction | int | Fraction) -> RadicalCoefficient:
    """Canonical square root of a nonzero rational function.

    sqrt(p/q) is normalized to sqrt(p*q)/q before squarefree extraction,
    so the stored radicand is always a polynomial.
    """
    rf = _as_rf(value)
    if rf.is_zero():
        raise ZeroRadicand("square root of zero")
    mult, key = _canonical_sqrt(_p_mul(rf.num, rf.den))
    return RadicalCoefficient(
        {key: mult / RationalFunction(rf.den, _ONE, _reduced=True)})


# Convenience handles used throughout the package.
N = _RF_N
ZERO = RadicalCoefficient.zero()
ONE = RadicalCoefficient.one()


def rf(num: Iterable[int | Fraction],
       den: Iterable[int | Fraction] = (1,)) -> RationalFunction:
    """A RationalFunction from int or Fraction coefficient lists, lowest
    degree first."""
    num = [_fraction(c, "coefficient") for c in num]
    den = [_fraction(c, "coefficient") for c in den]
    scale = math.lcm(*(c.denominator for c in num + den))
    return RationalFunction(_trim([int(c * scale) for c in num]),
                            _trim([int(c * scale) for c in den]))
