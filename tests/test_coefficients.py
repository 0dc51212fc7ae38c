"""Exact scalar layer: rational functions of N and canonical square roots."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from birdtracks.coefficients import (
    N,
    RadicalCoefficient,
    RationalFunction,
    rf,
    sqrt,
)
from birdtracks.errors import (
    BirdtrackError,
    DivisionByZero,
    OutOfRange,
    PoleAtN,
    RadicalComparisonUnsupported,
    UnsupportedRadicalDivision,
    ZeroRadicand,
)


def test_canonical_reduction():
    # (N^2 - 1)/(N + 1) reduces to N - 1
    assert rf([-1, 0, 1], [1, 1]) == rf([-1, 1])


def test_denominator_made_monic():
    # (2N)/(2N + 2) -> N/(N + 1)
    assert rf([0, 2], [2, 2]) == rf([0, 1], [1, 1])


def test_zero_is_unique():
    assert rf([0], [3, 5]) == RationalFunction.from_fraction(0)
    assert rf([0]).is_zero()


def test_field_ops_small():
    a = rf([1, 1])        # N + 1
    b = rf([-1, 1])       # N - 1
    assert a * b == rf([-1, 0, 1])
    assert a - a == rf([0])
    assert (a / b) * b == a
    assert a + b == rf([0, 2])
    assert 1 / (a * b) == rf([1], [-1, 0, 1])


def test_sum_cancels_a_shared_denominator_factor():
    # 1/(N(N-1)) + 1/(N(N+1)) = 2N/(N(N^2-1)) = 2/(N^2-1)
    assert rf([1], [0, -1, 1]) + rf([1], [0, 1, 1]) == rf([2], [-1, 0, 1])
    # 1/(N^2(N-1)) - 1/(N^2(N+1)) = 2/(N^2(N^2-1))
    assert (rf([1], [0, 0, -1, 1]) - rf([1], [0, 0, 1, 1])
            == rf([2], [0, 0, -1, 0, 1]))
    assert rf([1], [0, 2]) - rf([3], [0, 6]) == 0


def test_field_axioms_random():
    rng = random.Random(7)

    def rand_rf():
        num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        den = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        if not any(den):
            den = [1]
        return rf(num, den)

    for _ in range(50):
        a, b, c = rand_rf(), rand_rf(), rand_rf()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        if not b.is_zero():
            assert (a / b) * b == a


def test_division_by_zero_raises():
    with pytest.raises(DivisionByZero):
        rf([1]) / rf([0])


def test_eval_at():
    chi2 = rf([3], [0, -1, 0, 1])  # 3/(N^3 - N)
    assert chi2.eval_at(2) == Fraction(1, 2)
    assert rf([-1, 0, 1]).eval_at(5) == 24


def test_as_fraction_of_a_non_constant_is_out_of_range():
    assert rf([3], [4]).as_fraction() == Fraction(3, 4)
    for caught in (BirdtrackError, ValueError):
        with pytest.raises(caught):
            rf([0, 1]).as_fraction()


def test_eval_at_pole():
    chi3 = rf([6], [0, 2, -3, 1])  # 6/(N(N-1)(N-2))
    with pytest.raises(PoleAtN):
        chi3.eval_at(2)


def test_sqrt_of_constant():
    # sqrt(4/3) = (2/3)*sqrt(3)
    c = sqrt(Fraction(4, 3))
    assert c.terms == {(3,): rf([Fraction(2, 3)])}
    assert sqrt(Fraction(9)) == RadicalCoefficient.from_rational(3)


def test_sqrt_extracts_square_polynomial_part():
    # sqrt(N*(N^2-1)^2) = (N^2 - 1)*sqrt(N)
    poly = rf([0, 1]) * rf([-1, 0, 1]) * rf([-1, 0, 1])
    c = sqrt(poly)
    assert c.terms == {(0, 1): rf([-1, 0, 1])}


def test_sqrt_of_quotient_normalizes_to_polynomial_radicand():
    # sqrt(N/3) = sqrt(3N)/3
    c = sqrt(rf([0, 1], [3]))
    assert c.terms == {(0, 3): rf([Fraction(1, 3)])}


def test_radical_products_recollapse():
    root_n = sqrt(N)
    assert root_n * root_n == RadicalCoefficient.from_rational(N)
    assert sqrt(Fraction(4, 3)) * sqrt(3) == RadicalCoefficient.from_rational(2)
    # sqrt(N^2-1)*sqrt(N+1) = (N+1)*sqrt(N-1)
    prod = sqrt(rf([-1, 0, 1])) * sqrt(rf([1, 1]))
    assert prod.terms == {(-1, 1): rf([1, 1])}


def test_radical_sums_group_by_radicand():
    a = sqrt(N) + sqrt(N)
    assert a.terms == {(0, 1): rf([2])}
    assert (sqrt(N) - sqrt(N)).is_zero()
    mixed = sqrt(N) + RadicalCoefficient.one()
    assert len(mixed.terms) == 2
    assert not mixed.is_rational()


def test_radical_division():
    inv = RadicalCoefficient.one() / sqrt(N)
    # 1/sqrt(N) = sqrt(N)/N
    assert inv.terms == {(0, 1): rf([1], [0, 1])}
    assert inv * sqrt(N) == RadicalCoefficient.one()
    with pytest.raises(UnsupportedRadicalDivision):
        RadicalCoefficient.one() / (sqrt(N) + RadicalCoefficient.one())
    with pytest.raises(DivisionByZero):
        RadicalCoefficient.one() / RadicalCoefficient.zero()


def test_sqrt_of_zero_raises():
    with pytest.raises(ZeroRadicand):
        sqrt(rf([0]))


def test_sqrt_of_negative_radicand_is_out_of_range():
    # 4 - N^2 is nonzero but negative for large N
    with pytest.raises(OutOfRange, match=r"-N\^2 \+ 4"):
        sqrt(rf([4, 0, -1]))
    with pytest.raises(OutOfRange):
        sqrt(Fraction(-3))


def test_eval_radical():
    c = sqrt(rf([-1, 0, 1]))  # sqrt(N^2 - 1)
    assert c.eval_at(3) == {2: Fraction(2)}       # sqrt(8) = 2*sqrt(2)
    assert c.eval_at(Fraction(5, 4)) == {1: Fraction(3, 4)}
    with pytest.raises(RadicalComparisonUnsupported):
        c.eval_rational(3)
    assert abs(c.eval_float(3) - 8 ** 0.5) < 1e-12


def test_eval_radical_rational_value():
    c = sqrt(Fraction(4, 3)) * sqrt(3)
    assert c.eval_rational(7) == 2


def test_json_round_trip():
    c = sqrt(rf([-1, 0, 1])) * rf([1], [0, 1]) + RadicalCoefficient.from_rational(rf([5, 2]))
    again = RadicalCoefficient.from_json(c.to_json())
    assert again == c
    r = rf([1, -2, 1], [0, 3])
    assert RationalFunction.from_json(r.to_json()) == r


def test_json_list_is_built_once_and_ignored_by_equality():
    c = (sqrt(rf([-1, 0, 1])) * rf([1], [0, 1])
         + RadicalCoefficient.from_rational(rf([5, 2])))
    fresh = RadicalCoefficient(c.terms)
    first = c.to_json()
    assert c.to_json() is first
    assert RadicalCoefficient.from_json(first) == c
    assert c == fresh and hash(c) == hash(fresh)
    assert fresh.to_json() == first


@pytest.mark.parametrize("radicand", [[0, 0, 1], [4], [], [0], [1, 0]])
def test_json_refuses_non_canonical_radicands(radicand):
    # sqrt(N^2) and sqrt(4) would compare unequal to N and 2, and an empty
    # radicand would be a nonzero coefficient that evaluates to {}
    data = [{"radicand": radicand, "multiplier": rf([1]).to_json()}]
    with pytest.raises(OutOfRange, match="not canonical"):
        RadicalCoefficient.from_json(data)


_ONE_JSON = {"num": ["1"], "den": ["1"]}


@pytest.mark.parametrize("load, data", [
    (RadicalCoefficient.from_json, [{"radicand": ["x"], "multiplier": _ONE_JSON}]),
    (RadicalCoefficient.from_json, [{"radicand": [1.5], "multiplier": _ONE_JSON}]),
    (RadicalCoefficient.from_json, [{"radicand": [0, 1], "multiplier": _ONE_JSON},
                                    {"radicand": [0, 1], "multiplier": _ONE_JSON}]),
    (RadicalCoefficient.from_json, [{"radicand": [1]}]),
    (RationalFunction.from_json, {"num": ["x"], "den": ["1"]}),
    (RationalFunction.from_json, {"num": ["1"]}),
], ids=["word-radicand", "float-radicand", "repeated-radicand",
        "no-multiplier", "word-coefficient", "no-den"])
def test_json_refuses_what_to_json_never_writes(load, data):
    # [1.5] would truncate to the radicand 1 and a repeated radicand would
    # drop a term; every refusal is an OutOfRange, never a bare ValueError
    with pytest.raises(OutOfRange):
        load(data)


def test_json_round_trip_of_the_builtin_singlet_table():
    from birdtracks.singlets import singlet_table

    coeffs = []
    for row in singlet_table(3, "builtin"):
        for op in row:
            coeffs.append(op.normalization)
            for state in (op.ket, op.bra):
                coeffs.extend(state.terms.values())
    assert any(not c.is_rational() for c in coeffs)
    for c in coeffs:
        assert RadicalCoefficient.from_json(c.to_json()) == c


def test_equal_values_hash_equal():
    # constants compare equal to ints and Fractions, so dict lookups by the
    # plain number must find them
    assert {rf([2]): 0}.get(2) == 0
    assert {rf([1], [2]): 0}.get(Fraction(1, 2)) == 0
    assert {RadicalCoefficient.from_rational(2): 0}.get(2) == 0
    assert {RadicalCoefficient.from_rational(N): 0}.get(N) == 0
    assert {RadicalCoefficient.zero(): 0}.get(0) == 0
    assert hash(sqrt(4)) == hash(2)


# -- properties against sympy -------------------------------------------------

_X = sympy.Symbol("N")

_coeff_lists = st.lists(st.integers(-6, 6), min_size=1, max_size=4)
_nonzero_lists = _coeff_lists.filter(any)


def _sym_poly(coeffs):
    return sum(sympy.Rational(c) * _X ** i for i, c in enumerate(coeffs))


def _cancelled_json(expr) -> dict:
    """sympy.cancel's reduced form of expr, printed as to_json prints."""
    num, den = (sympy.Poly(part, _X) for part in
                sympy.fraction(sympy.cancel(expr)))
    lead = den.LC()
    return {"num": [str(c / lead) for c in reversed(num.all_coeffs())]
            if not num.is_zero else [],
            "den": [str(c / lead) for c in reversed(den.all_coeffs())]}


@st.composite
def rational_functions(draw):
    num, den = draw(_coeff_lists), draw(_nonzero_lists)
    return rf(num, den), _sym_poly(num) / _sym_poly(den)


@settings(max_examples=60, deadline=None)
@given(rational_functions(), rational_functions())
def test_field_ops_match_sympy_cancel(pa, pb):
    (a, sa), (b, sb) = pa, pb
    results = [(a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb)]
    if not b.is_zero():
        results.append((a / b, sa / sb))
    for got, want in results:
        assert got.to_json() == _cancelled_json(want)


@settings(max_examples=30, deadline=None)
@given(_coeff_lists, _coeff_lists, _nonzero_lists, _nonzero_lists,
       _nonzero_lists)
def test_sums_over_a_shared_denominator_factor_match_sympy(num1, num2, shared,
                                                           rest1, rest2):
    # the two denominators share the factor `shared`, which a sum may cancel
    den1 = sympy.expand(_sym_poly(shared) * _sym_poly(rest1))
    den2 = sympy.expand(_sym_poly(shared) * _sym_poly(rest2))

    def coeffs(poly):
        return [int(c) for c in reversed(sympy.Poly(poly, _X).all_coeffs())]

    a, b = rf(num1, coeffs(den1)), rf(num2, coeffs(den2))
    sa, sb = _sym_poly(num1) / den1, _sym_poly(num2) / den2
    assert (a + b).to_json() == _cancelled_json(sa + sb)
    assert (a - b).to_json() == _cancelled_json(sa - sb)


@settings(max_examples=60, deadline=None)
@given(_coeff_lists, _nonzero_lists, _nonzero_lists)
def test_equal_values_give_equal_json_and_hash(num, den, factor):
    # num/den and (num*factor)/(den*factor) are one value written two ways
    scale = _sym_poly(factor)

    def times(coeffs):
        poly = sympy.Poly(sympy.expand(_sym_poly(coeffs) * scale), _X)
        return [int(c) for c in reversed(poly.all_coeffs())]

    a, b = rf(num, den), rf(times(num), times(den))
    assert a == b
    assert a.to_json() == b.to_json()
    assert hash(a) == hash(b)
    ra = RadicalCoefficient.from_rational(a) * sqrt(rf([2, 1]))
    rb = RadicalCoefficient.from_rational(b) * sqrt(rf([2, 1]))
    assert ra.to_json() == rb.to_json() and hash(ra) == hash(rb)


def _assert_squarefree_key(key):
    poly = _sym_poly(key)
    content, factors = sympy.sqf_list(poly)
    assert key[-1] > 0
    assert all(mult == 1 for _, mult in factors)
    assert content > 0 and content.is_integer
    assert all(e == 1 for e in sympy.factorint(int(content)).values())


@settings(max_examples=60, deadline=None)
@given(_nonzero_lists, _nonzero_lists, _nonzero_lists)
def test_sqrt_squares_back_with_squarefree_keys(num, den, square):
    # a radicand with positive leading coefficient and a square factor
    x = rf(num, den)
    if x.to_json()["num"][-1].startswith("-"):
        x = -x
    x = x * rf(square) * rf(square)
    root = sqrt(x)
    assert root * root == RadicalCoefficient.from_rational(x)
    for item in root.to_json():
        _assert_squarefree_key(item["radicand"])


@settings(max_examples=60, deadline=None)
@given(rational_functions(),
       st.one_of(st.integers(-5, 9), st.fractions(-4, 4, max_denominator=4)))
def test_eval_at_matches_sympy_substitution(pa, n):
    a, sa = pa
    value, at = sympy.cancel(sa), sympy.Rational(n.numerator, n.denominator)
    if sympy.denom(value).subs(_X, at) == 0:
        with pytest.raises(PoleAtN):
            a.eval_at(n)
        return
    want = value.subs(_X, at)
    assert a.eval_at(n) == Fraction(int(sympy.numer(want)),
                                    int(sympy.denom(want)))
    if a.is_zero() or a.to_json()["num"][-1].startswith("-"):
        return
    # sqrt(a) at n, squared, is a at n (negative radicands stay formal)
    parts = sqrt(a).eval_at(n)
    total = sum(sympy.Rational(v.numerator, v.denominator) * sympy.sqrt(d)
                for d, v in parts.items())
    assert sympy.expand(total ** 2) == want
