import itertools
import random

from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from birdtracks.coefficients import rf
from birdtracks.diagrams import (
    InvariantElement,
    Signature,
    compose,
    identity,
    inner_product,
    ket_signature,
    permutation_element,
    zero,
)
from birdtracks.errors import OutOfRange, RadicalComparisonUnsupported
from birdtracks.numeric import (
    ExactTensor,
    _act_per_leg,
    evaluate,
    evaluate_float,
    exact_rank,
    integer_entries,
    sample_special_linear,
)
from birdtracks.tracebasis import raw_trace_states
from su_generators import generalized_gell_mann


def random_perm(rng, size):
    perm = list(range(size))
    rng.shuffle(perm)
    return tuple(perm)


def exact_matmul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0])
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            if a[i][k] == 0:
                continue
            for j in range(cols):
                out[i][j] += a[i][k] * b[k][j]
    return out


def test_identity_evaluates_to_identity_matrix():
    t = evaluate(identity(Signature("q")), 3)
    rows = t.matrix_rows(1)
    for i in range(3):
        for j in range(3):
            assert rows[i][j] == (1 if i == j else 0)


def test_antisymmetrizer_on_three_lines_dies_at_n_two():
    sig = Signature("qqq")
    total = None
    for perm in itertools.permutations(range(3)):
        sign = _perm_sign(perm)
        term = permutation_element(sig, perm).scaled(Fraction(sign, 6))
        total = term if total is None else total + term
    t = evaluate(total, 2)
    assert t.entries == {}
    t3 = evaluate(total, 3)
    assert t3.trace() == 1   # binomial(3, 3)


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def test_symmetrizer_trace_at_three():
    sig = Signature("qqq")
    total = None
    for perm in itertools.permutations(range(3)):
        term = permutation_element(sig, perm).scaled(Fraction(1, 6))
        total = term if total is None else total + term
    assert evaluate(total, 3).trace() == 10   # (N+2)(N+1)N/6


def test_evaluate_is_a_homomorphism():
    rng = random.Random(7)
    for orients in ("qqq", "qbq"):
        sig = Signature(orients)
        for n in (2, 3):
            for _ in range(10):
                a = permutation_element(sig, random_perm(rng, 3))
                b = permutation_element(sig, random_perm(rng, 3))
                lhs = evaluate(compose(a, b), n).matrix_rows(3)
                rhs = exact_matmul(evaluate(a, n).matrix_rows(3),
                                   evaluate(b, n).matrix_rows(3))
                assert lhs == rhs


def test_symbolic_trace_matches_numeric_trace():
    rng = random.Random(19)
    sig = Signature("qqb")
    for _ in range(8):
        el = (permutation_element(sig, random_perm(rng, 3))
              + permutation_element(sig, random_perm(rng, 3)).scaled(
                  rf([1], [0, 1])))
        symbolic = el.trace()
        for n in (2, 3, 4, 5):
            assert symbolic.eval_at(n).get(1, Fraction(0)) == evaluate(
                el, n).trace()


def test_symbolic_inner_product_matches_numeric_dot():
    rng = random.Random(29)
    sig = ket_signature(2, 2)
    for _ in range(8):
        u = InvariantElement.from_perm(sig, random_perm(rng, 2))
        v = InvariantElement.from_perm(sig, random_perm(rng, 2))
        symbolic = inner_product(u, v)
        for n in (2, 3, 4):
            eu, ev = evaluate(u, n).entries, evaluate(v, n).entries
            dot = sum(x * ev.get(idx, 0) for idx, x in eu.items())
            assert symbolic.eval_at(n).get(1, Fraction(0)) == dot


def test_evaluate_rejects_irrational_coefficients():
    from birdtracks.coefficients import sqrt
    el = identity(Signature("q")).scaled(sqrt(rf([0, 1])))
    with pytest.raises(RadicalComparisonUnsupported):
        evaluate(el, 3)
    # float path handles the radical
    arr = evaluate_float(el, 3)
    assert abs(arr[0, 0] - np.sqrt(3)) < 1e-12


def test_dense_cap():
    sig = Signature("q" * 10)
    with pytest.raises(OutOfRange):
        evaluate(identity(sig), 5)


def test_exact_rank_basics():
    eye = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
    assert exact_rank(eye) == 6
    ones = [[Fraction(1)] * 3 for _ in range(3)]
    assert exact_rank(ones) == 1
    assert exact_rank([]) == 0
    skewed = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)],
              [Fraction(0), Fraction(1)]]
    assert exact_rank(skewed) == 2


def test_negative_seed_is_refused():
    with pytest.raises(OutOfRange, match="seed"):
        sample_special_linear(2, seed=-1)


def _exact_det(m):
    size = len(m)
    total = 0
    for perm in itertools.permutations(range(size)):
        term = _perm_sign(perm)
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


def test_special_linear_sample_comes_with_its_inverse_transpose():
    for n in (2, 3, 4):
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        for seed in range(30):
            g, h = sample_special_linear(n, seed)
            assert _exact_det(g) == 1
            # h = g^-T, so g h^T = I
            assert [[sum(g[i][t] * h[j][t] for t in range(n))
                     for j in range(n)] for i in range(n)] == eye
            assert g != eye


def test_special_linear_sample_is_seed_stable():
    for n in (2, 3, 4):
        assert sample_special_linear(n, 7) == sample_special_linear(n, 7)
    assert len({str(sample_special_linear(3, seed)[0])
                for seed in range(30)}) > 20


def test_sampled_unitaries_fix_every_trace_state():
    # correlator's action: g on fundamental legs, g^-T on antifundamental
    # ones, for every k <= 3 trace state, compared exactly
    for k in (1, 2, 3):
        states = raw_trace_states(k)
        for n in (2, 3, 4):
            kets = [integer_entries(s, n)[1] for s in states]
            for seed in range(3):
                g, h = sample_special_linear(n, seed)
                for ket in kets:
                    assert _act_per_leg(ket, [g] * k + [h] * k) == ket


def test_delta_ket_is_invariant():
    ket = identity(Signature("q")).bend()
    assert ket.sig.orientations == "qb"
    for n in (2, 3):
        den, entries = integer_entries(ket, n)
        assert den == 1
        for seed in range(3):
            g, h = sample_special_linear(n, seed)
            # g on the fundamental leg, g^-T on the antifundamental one
            assert _act_per_leg(entries, [g, h]) == entries
            # g on both legs moves it: g g^T is not the identity
            assert _act_per_leg(entries, [g, g]) != entries
            # g on one leg of delta leaves g, or its transpose, behind
            eye = [[int(i == j) for j in range(n)] for i in range(n)]
            g_entries = {(a, b): x for a, row in enumerate(g)
                         for b, x in enumerate(row) if x}
            assert _act_per_leg(entries, [g, eye]) == g_entries
            assert _act_per_leg(entries, [eye, g]) == {
                (b, a): x for (a, b), x in g_entries.items()}


def test_dipole_correlator_at_coincidence():
    # both endpoints on the same Wilson line: <delta| g (x) g^-T |delta>
    # is tr(g g^-1) = N for the unnormalised delta ket
    ket = identity(Signature("q")).bend()
    for n in (2, 3, 4):
        _, entries = integer_entries(ket, n)
        for seed in range(3):
            g, h = sample_special_linear(n, seed)
            moved = _act_per_leg(entries, [g, h])
            assert sum(v * moved.get(key, 0)
                       for key, v in entries.items()) == n


def test_fierz_identity_with_explicit_generators():
    for n in (2, 3, 4):
        gens = generalized_gell_mann(n)
        assert len(gens) == n * n - 1
        for a, ta in enumerate(gens):
            assert abs(np.trace(ta)) < 1e-12
            assert np.max(np.abs(ta - ta.conj().T)) < 1e-12
            for b, tb in enumerate(gens):
                want = 1.0 if a == b else 0.0
                assert abs(np.trace(ta @ tb) - want) < 1e-12
        fierz = np.zeros((n, n, n, n), dtype=complex)
        for ta in gens:
            fierz += np.einsum("ij,kl->ijkl", ta, ta)
        delta = np.eye(n)
        swap = np.einsum("il,kj->ijkl", delta, delta)
        sing = np.einsum("ij,kl->ijkl", delta, delta)
        assert np.max(np.abs(fierz - (swap - sing / n))) < 1e-10


def test_fully_traced_element_evaluates_to_a_scalar():
    # no axes left: the one index is (), which itemgetter() cannot build
    traced = identity(Signature("qb")).partial_trace([0, 1])
    assert traced.sig.n_slots == 0
    for n in (1, 2, 3):
        t = evaluate(traced, n)
        assert t.shape == () and t.entries == {(): n * n}
        assert evaluate_float(traced, n)[()] == n * n
    assert evaluate(traced.scaled(rf([1], [0, 1])), 3).entries == {(): 3}


def test_cancelling_index_sums_are_absent():
    sig = Signature("qq")
    diff = identity(sig) - permutation_element(sig, (1, 0))
    for n in (1, 2, 3):
        entries = evaluate(diff, n).entries
        # identity and swap are both 1 where all four indices agree
        assert all(v != 0 for v in entries.values())
        assert not any(key == (i,) * 4 for key in entries for i in range(n))
        assert len(entries) == 2 * (n * n - n)
        den, nums = integer_entries(diff, n)
        assert den == 1 and nums == entries
    assert evaluate(diff, 1).entries == {}


def test_integer_entries_share_one_denominator():
    sig = Signature("qb")
    el = (identity(sig).scaled(Fraction(1, 6))
          + permutation_element(sig, (1, 0)).scaled(rf([1], [0, 2])))
    for n in (2, 3):
        den, nums = integer_entries(el, n)
        assert den > 0 and all(isinstance(v, int) and v for v in nums.values())
        assert {key: Fraction(v, den) for key, v in nums.items()} == (
            evaluate(el, n).entries)
        # slow reference: one Fraction add per (term, index)
        want = {}
        for diag, coeff in el.terms.items():
            value = coeff.eval_rational(n)
            pairs = diag.matching()
            for idx in itertools.product(range(n), repeat=4):
                if all(idx[a] == idx[b] for a, b in pairs.items()):
                    want[idx] = want.get(idx, 0) + value
        assert evaluate(el, n).entries == {k: v for k, v in want.items() if v}


def test_exact_rank_on_ints_mixed_rows_and_big_entries():
    assert exact_rank([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 2
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[1, Fraction(1, 2)], [2, 1]]) == 1
    assert exact_rank([[Fraction(1, 3), 1, 0], [1, 3, Fraction(-2, 7)]]) == 2
    big = 2 ** 64 + 1
    assert exact_rank([[big, 2 ** 65], [3 * big, 3 * 2 ** 65]]) == 1
    assert exact_rank([[big, 1], [1, big]]) == 2
    assert exact_rank([[Fraction(1, big), 1], [1, big]]) == 1
    assert exact_rank([[Fraction(big, 3), 2 ** 70], [big, 3 * 2 ** 70],
                       [Fraction(1, 2 ** 66), 0]]) == 2
    rows = [[1, Fraction(1, 2)], [2, 1]]
    exact_rank(rows)
    assert rows == [[1, Fraction(1, 2)], [2, 1]]


def test_exact_tensor_mode_guards():
    t = ExactTensor((2, 2), entries={(0, 0): Fraction(1)})
    assert t.matrix_rows(1)[0][0] == 1


# -- exact rank against sympy -------------------------------------------------

@st.composite
def sparse_rational_matrices(draw, integral=False):
    """Mostly-zero rational matrices, often wide, with some dependent rows.

    With integral, every cell is a plain int.
    """
    n_rows = draw(st.integers(1, 5))
    n_cols = draw(st.integers(1, 14))
    if integral:
        # small ints and ints above 2^64
        value = st.one_of(st.integers(-4, 4),
                          st.integers(-2 ** 70, 2 ** 70))
        zero = 0
    else:
        # small fractions, plain ints, and fractions with parts above
        # 2^64; a row may mix all three
        value = st.one_of(
            st.fractions(-4, 4, max_denominator=5),
            st.integers(-4, 4),
            st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70),
                      st.integers(1, 2 ** 66)))
        zero = Fraction(0)
    # two zero branches: about two cells in three are zero
    cell = st.one_of(st.just(zero), st.just(zero), value)
    rows = draw(st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols),
                         min_size=n_rows, max_size=n_rows))
    for _ in range(draw(st.integers(0, 3))):
        weights = draw(st.lists(value, min_size=n_rows, max_size=n_rows))
        rows.append([sum(w * row[c] for w, row in zip(weights, rows[:n_rows]))
                     for c in range(n_cols)])
    return draw(st.permutations(rows))


@settings(max_examples=60, deadline=None)
@given(sparse_rational_matrices())
def test_exact_rank_matches_sympy(rows):
    want = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in rows]).rank()
    assert exact_rank(rows) == want
    assert exact_rank([list(col) for col in zip(*rows)]) == want


@settings(max_examples=60, deadline=None)
@given(sparse_rational_matrices(integral=True))
def test_exact_rank_of_int_rows_matches_sympy(rows):
    assert all(type(x) is int for row in rows for x in row)
    want = sympy.Matrix(rows).rank()
    assert exact_rank(rows) == want
    assert exact_rank([list(col) for col in zip(*rows)]) == want


@pytest.mark.parametrize("rows", [
    [[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1], [0, 0, 0, 0]],
    [[1, 1, 0], [0, 1, 1], [1, 0, -1]],
    [[2, -4, 6], [-1, 2, -3], [0, 0, 0]],
    [[0, 2 ** 40, 3], [5, 0, 7], [10, 2 ** 41, 20], [1, 1, 1]],
    # eliminating these overflows int64
    [[2 ** 32, 0, 1], [1, 2 ** 32, 0], [0, 1, 2 ** 32]],
])
def test_exact_rank_reads_int64_bool_and_fraction_rows_like_ints(rows):
    want = exact_rank(rows)
    assert want == sympy.Matrix(rows).rank()
    assert exact_rank(np.array(rows, dtype=np.int64)) == want
    assert exact_rank([[np.int64(x) for x in row] for row in rows]) == want
    assert exact_rank([[Fraction(x) for x in row] for row in rows]) == want
    if all(x in (0, 1) for row in rows for x in row):
        assert exact_rank([[bool(x) for x in row] for row in rows]) == want
        assert exact_rank(np.array(rows, dtype=bool)) == want
    # a row may mix plain ints with the other kinds
    mixed = [[kind(x) for kind, x in zip((int, np.int64, Fraction) * 2, row)]
             for row in rows]
    assert exact_rank(mixed) == want


# -- diagram algebra against dense exact contraction --------------------------

# Largest dense operator, N^(2k) entries, the tests below realise.
_DENSE_ENTRIES = 729
# Denominators that vanish at no N in 2..4.
_DENOMINATORS = ([1], [0, 1], [1, 1], [-1, 1], [2, 0, 1])
_BALANCED = ("qb", "bq", "qqbb", "qbqb", "qbbq", "bqqb", "bqbq", "bbqq")


def random_element(draw, sig):
    size = sig.n_slots if sig.is_operator() else sig.n_anti
    coeff = st.builds(rf, st.lists(st.integers(-3, 3), min_size=1,
                                   max_size=3),
                      st.sampled_from(_DENOMINATORS))
    terms = draw(st.lists(
        st.tuples(st.permutations(range(size)).map(tuple), coeff),
        min_size=1, max_size=4))
    out = zero(sig)
    for perm, c in terms:
        out = out + InvariantElement.from_perm(sig, perm, c)
    return out


@st.composite
def dense_cases(draw, count, ket=False):
    """count random operators, then a ket if asked, on one signature, and N.

    Operators have k <= 3 levels; kets have 2 or 4 legs.  N runs over 2..4
    as far as N^(2k) stays within _DENSE_ENTRIES.
    """
    if ket:
        orients = draw(st.sampled_from(_BALANCED))
    else:
        orients = draw(st.integers(1, 3).flatmap(
            lambda k: st.text("qb", min_size=k, max_size=k)))
    k = len(orients)
    n = draw(st.sampled_from([n for n in (2, 3, 4)
                              if n ** (2 * k) <= _DENSE_ENTRIES]))
    out = [random_element(draw, Signature(orients)) for _ in range(count)]
    if ket:
        out.append(random_element(draw, Signature(orients, "ket")))
    return out, n


def dense_contract(a, b, k):
    """Entries of sum_j A[i, j] B[j, rest], j running over k axes."""
    by_row = {}
    for key, val in b.entries.items():
        by_row.setdefault(key[:k], []).append((key[k:], val))
    out = {}
    for key, val in a.entries.items():
        for rest, weight in by_row.get(key[k:], ()):
            idx = key[:k] + rest
            out[idx] = out.get(idx, 0) + val * weight
    return {idx: v for idx, v in out.items() if v}


def dense_dot(a, b):
    return sum(v * b.entries.get(key, 0) for key, v in a.entries.items())


@settings(max_examples=40, deadline=None)
@given(dense_cases(2))
def test_compose_operators_matches_dense_product(case):
    (a, b), n = case
    k = a.sig.n_slots
    assert evaluate(compose(a, b), n).entries == dense_contract(
        evaluate(a, n), evaluate(b, n), k)


@settings(max_examples=30, deadline=None)
@given(dense_cases(1, ket=True))
def test_compose_operator_with_ket_matches_dense_product(case):
    (a, ket), n = case
    k = a.sig.n_slots
    assert evaluate(compose(a, ket), n).entries == dense_contract(
        evaluate(a, n), evaluate(ket, n), k)


@settings(max_examples=30, deadline=None)
@given(dense_cases(1))
def test_partial_trace_matches_dense_partial_trace(case):
    (a,), n = case
    k = a.sig.n_slots
    dense = evaluate(a, n)
    for size in range(1, k + 1):
        for levels in itertools.combinations(range(k), size):
            keep = [x for x in range(k) if x not in levels]
            want = {}
            for key, val in dense.entries.items():
                if all(key[x] == key[k + x] for x in levels):
                    idx = (tuple(key[x] for x in keep)
                           + tuple(key[k + x] for x in keep))
                    want[idx] = want.get(idx, 0) + val
            got = evaluate(a.partial_trace(levels), n).entries
            assert got == {idx: v for idx, v in want.items() if v}


@settings(max_examples=30, deadline=None)
@given(dense_cases(2))
def test_inner_products_match_dense_dot(case):
    (a, b), n = case
    dot = dense_dot(evaluate(a, n), evaluate(b, n))
    assert inner_product(a, b).eval_rational(n) == dot
    bent_a, bent_b = a.bend(), b.bend()
    assert dense_dot(evaluate(bent_a, n), evaluate(bent_b, n)) == dot
    assert inner_product(bent_a, bent_b).eval_rational(n) == dot
