import math
import random
from fractions import Fraction

import numpy as np
import pytest

from birdtracks import singlets
from birdtracks.checks import _flattened_rank
from birdtracks.coefficients import RadicalCoefficient, rf, sqrt
from birdtracks.diagrams import (
    compose,
    identity,
    inner_product,
    operator_signature,
    zero,
)
from birdtracks.errors import BirdtrackError, OutOfRange, PoleAtN, UnsupportedK
from birdtracks.numeric import (
    _act_per_leg,
    evaluate,
    evaluate_float,
    exact_rank,
    integer_entries,
    sample_special_linear,
)
from birdtracks.singlets import (
    SingletOperator,
    basis_states,
    gram_matrix,
    is_dimensionally_null,
    rank_one_product,
    singlet_basis,
    singlet_count,
    singlet_projector,
    singlet_table,
)
from birdtracks.symmetrizers import antisymmetrizer, builtin_orthogonal_basis, symmetrizer
from birdtracks.tracebasis import (
    derangement_block,
    pair_singlet_projector,
    raw_trace_states,
    trace_basis_state,
)


def rc(num, den=(1,)):
    return RadicalCoefficient.from_rational(rf(num, den))


CHI1 = rc([6], [0, 2, 3, 1])
CHI2 = rc([3], [0, -1, 0, 1])
CHI3 = rc([6], [0, 2, -3, 1])


def test_builtin_basis_normalizations():
    ops = singlet_basis(3, "builtin")
    assert [op.normalization for op in ops] == [CHI1, CHI2, CHI2, CHI2,
                                                CHI2, CHI3]
    assert all(op.kind == "projector" for op in ops)
    assert [op.labels for op in ops] == [(i,) for i in range(6)]
    with pytest.raises(UnsupportedK):
        singlet_basis(4, "builtin")
    with pytest.raises(ValueError):
        singlet_basis(2, "mystery")
    with pytest.raises(BirdtrackError):
        singlet_basis(2, "mystery")


def test_projector_orthogonality_table():
    exp = [op.expand() for op in singlet_basis(3, "builtin")]
    for i, a in enumerate(exp):
        for j, b in enumerate(exp):
            prod = compose(a, b)
            if i == j:
                assert prod == a
            else:
                assert prod.is_zero()


def test_transition_table_algebra():
    table = singlet_table(3)
    exp = [table[i][i].expand() for i in range(6)]
    for i in range(6):
        for j in range(6):
            t = table[i][j]
            assert t.labels == (i, j)
            back = t.dagger()
            assert back.ket == table[j][i].ket
            assert back.bra == table[j][i].bra
            assert back.normalization == table[j][i].normalization
            te = t.expand()
            assert compose(te, table[j][i].expand()) == exp[i]
            assert compose(exp[i], te) == te
            assert compose(te, exp[j]) == te


def test_transition_normalization_geometric_mean():
    table = singlet_table(3)
    t = table[0][5]
    assert t.normalization * t.normalization == CHI1 * CHI3
    assert t.normalization.eval_float(4) == pytest.approx(
        (6 / (6 * 5 * 4) * 6 / (2 * 3 * 4)) ** 0.5)
    assert table[1][2].normalization == CHI2


@pytest.mark.parametrize("k, source", [
    (2, "trace"), (3, "trace"), (4, "trace"), (3, "builtin"),
    (3, "trace+orthogonalize"),
])
def test_transitions_share_one_weight_per_distinct_value(k, source):
    betas = [1 / inner_product(op.ket, op.ket)
             for op in singlet_basis(k, source)]
    table = singlet_table(k, source)
    weights = {}
    for i, row in enumerate(table):
        assert row[i].normalization == betas[i]
        for j, t in enumerate(row):
            if j == i:
                continue
            square = (betas[i] * betas[j]).rational_part()
            assert t.normalization == sqrt(square)
            assert table[j][i].normalization is t.normalization
            weights[id(t.normalization)] = t.normalization
    # one object per distinct weight value
    assert len(weights) == len(set(weights.values()))


@pytest.mark.parametrize("k, source, roots", [
    (2, "trace", 1), (3, "builtin", 4), (3, "trace", 5), (4, "trace", 13),
    (3, "trace+orthogonalize", 7), (4, "trace+orthogonalize", 78),
])
def test_singlet_table_takes_one_root_per_distinct_square(
        monkeypatch, k, source, roots):
    squares = []

    def counting(square):
        squares.append(square)
        return sqrt(square)

    monkeypatch.setattr(singlets, "sqrt", counting)
    singlet_table(k, source)
    assert len(squares) == roots
    assert len(set(squares)) == roots


def test_rank_one_product_matches_expansion():
    table = singlet_table(3)
    flat = [table[i][j] for i in range(6) for j in range(6)]
    rng = random.Random(7)
    for _ in range(20):
        a, b = rng.choice(flat), rng.choice(flat)
        assert rank_one_product(a, b) == compose(a.expand(), b.expand())


def test_product_of_orthogonal_projectors_is_zero():
    p1, p2 = singlet_basis(3, "builtin")[:2]
    product = rank_one_product(p1, p2)
    assert product.is_zero()
    assert product == zero(operator_signature(3, 3))
    assert product == compose(p1.expand(), p2.expand())


def test_zero_operator():
    z = singlet_projector(zero(operator_signature(1, 1)))
    assert z.is_zero()
    assert z.expand().is_zero()


def test_identity_projector_is_pair_singlet():
    p = singlet_projector(identity(operator_signature(1, 0)))
    assert p.normalization == rc([1], [0, 1])
    assert p.expand() == pair_singlet_projector()


def test_gram_matrix_of_bent_builtin_basis():
    states = basis_states(3, "builtin")
    gram = gram_matrix(states)
    want_diag = [1 / CHI1, 1 / CHI2, 1 / CHI2, 1 / CHI2, 1 / CHI2, 1 / CHI3]
    for i in range(6):
        for j in range(6):
            if i == j:
                assert gram[i][j] == want_diag[i]
            else:
                assert gram[i][j].is_zero()
    single = gram_matrix([states[0]])
    assert single == [[1 / CHI1]]


def test_bending_preserves_the_operator_gram():
    ops = builtin_orthogonal_basis(3)
    for a in ops:
        for b in ops:
            assert (inner_product(a.bend(), b.bend())
                    == compose(a.dagger(), b).trace())


def test_dimensional_nullity():
    a123 = antisymmetrizer([1, 2, 3], 3).bend()
    assert is_dimensionally_null(a123, 2)
    assert is_dimensionally_null(a123, 1)
    assert not is_dimensionally_null(a123, 3)
    s123 = symmetrizer([1, 2, 3], 3).bend()
    assert all(not is_dimensionally_null(s123, n) for n in (1, 2, 3, 4))
    # the half-sum of the two 3-cycle states, the d state
    d = (trace_basis_state("(1 2 3)")
         + trace_basis_state("(1 3 2)")).scaled(Fraction(1, 2))
    assert is_dimensionally_null(d, 2)
    assert not is_dimensionally_null(d, 3)
    with pytest.raises(OutOfRange):
        is_dimensionally_null(s123, 0)


def test_singlet_counts():
    assert [singlet_count(3, n) for n in (1, 2, 3, 4, 5)] == [1, 5, 6, 6, 6]
    for source in ("builtin", "trace+orthogonalize"):
        assert [singlet_count(3, n, source) for n in (1, 2, 3)] == [1, 5, 6]
    assert [singlet_count(2, n) for n in (1, 2, 3)] == [1, 2, 2]
    assert singlet_count(1, 1) == 1
    with pytest.raises(OutOfRange):
        singlet_count(2, 0)


@pytest.mark.parametrize("call", [
    lambda n: singlet_count(3, n),
    lambda n: is_dimensionally_null(symmetrizer([1, 2], 2).bend(), n),
    lambda n: evaluate(trace_basis_state("(1 2)"), n),
    lambda n: evaluate_float(trace_basis_state("(1 2)"), n),
], ids=["singlet_count", "is_dimensionally_null", "evaluate", "evaluate_float"])
def test_non_integer_n_is_out_of_range(call):
    for n in (2.5, 2.0, Fraction(5, 2), "2", None):
        with pytest.raises(OutOfRange, match="N must be a positive integer"):
            call(n)
    call(np.int64(2))


def test_singlet_count_refuses_states_with_a_pole():
    # orthogonalized k=4 states 16, 20 and 22 carry coefficients with a
    # pole at N=1, so they have no value there; their norms stay finite
    # (-1, -3/2, -3/2), which is why ranking the Gram matrix alone gave 4
    states = basis_states(4, "trace+orthogonalize")
    with pytest.raises(PoleAtN, match="state 16 .*N=1"):
        singlet_count(4, 1, "trace+orthogonalize")
    for i in (16, 20, 22):
        with pytest.raises(PoleAtN, match="N=1"):
            is_dimensionally_null(states[i], 1)
    assert not is_dimensionally_null(states[16], 2)
    assert singlet_count(4, 1) == 1


def _shapes(k, largest=None):
    """The partitions of k with parts at most largest."""
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest or k), 0, -1):
        for rest in _shapes(k - first, first):
            yield (first,) + rest


def _hook_length_count(k, n):
    """Sum of f_shape^2 over the shapes of k with at most n rows."""
    total = 0
    for shape in _shapes(k):
        if len(shape) > n:
            continue
        hooks = 1
        for i, row in enumerate(shape):
            for j in range(row):
                below = sum(1 for r in shape[i + 1:] if r > j)
                hooks *= row - j + below
        total += (math.factorial(k) // hooks) ** 2
    return total


def test_cached_singlet_counts_match_hook_lengths():
    queries = [(k, n, source) for k in (1, 2, 3, 4) for n in range(1, 9)
               for source in ("builtin", "trace", "trace+orthogonalize")
               if (source != "builtin" or k <= 3)
               and (k, n, source) != (4, 1, "trace+orthogonalize")]
    random.Random(11).shuffle(queries)
    for k, n, source in queries:
        want = _hook_length_count(k, n)
        assert singlet_count(k, n, source) == want, (k, n, source)
        assert singlet_count(k, n, source) == want, (k, n, source)


def test_trace_counts_at_k5_match_hook_lengths():
    want = [1, 42, 103, 119, 120, 120, 120, 120]
    assert [_hook_length_count(5, n) for n in range(1, 9)] == want
    for n in range(1, 9):
        assert singlet_count(5, n, "trace") == want[n - 1], n


def test_trace_counts_at_k6_evaluate_d5_and_d6_in_integers():
    # every n ranks the isotypic blocks of D_6(n), at most 6 by 6
    want = [1, 132, 513, 694, 719, 720, 720, 720]
    assert [_hook_length_count(6, n) for n in range(1, 9)] == want
    assert [singlet_count(6, n, "trace") for n in range(1, 9)] == want


@pytest.mark.parametrize("k, ns", [(4, range(1, 6)), (5, (1, 2))])
def test_trace_counts_match_the_flattened_state_rank(k, ns):
    # the dense oracle: the rank of the k! trace states as integer rows
    states = raw_trace_states(k)
    for n in ns:
        assert singlet_count(k, n, "trace") == _flattened_rank(states, n), n


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_derangement_block_ranks_invert_the_hook_length_counts(s):
    # 1 + sum_s C(k, s) rank D_s(n) = M_k(n), so by binomial inversion
    # rank D_s(n) = sum_j (-1)^(s-j) C(s, j) M_j(n)
    entries, rows = derangement_block(s)
    for n in range(1, 9):
        values = [entry.eval_at(n) for entry in entries]
        rank = exact_rank([[values[j] for j in row] for row in rows])
        want = sum((-1) ** (s - j) * math.comb(s, j) * _hook_length_count(j, n)
                   for j in range(s + 1))
        assert rank == want, n


def test_pole_check_precedes_and_survives_the_cached_gram():
    # no cache sits behind this count: each call rebuilds the basis, and
    # the pole check runs before the count on every call, also a repeat
    with pytest.raises(PoleAtN, match="state 16 .*N=1"):
        singlet_count(4, 1, "trace+orthogonalize")
    assert singlet_count(4, 2, "trace+orthogonalize") == 14
    with pytest.raises(PoleAtN, match="state 16 .*N=1"):
        singlet_count(4, 1, "trace+orthogonalize")


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_orthogonalized_counts_match_the_dense_gram_rank(k):
    # the counts of an orthogonal source read only the basis norms; the
    # full Gram matrix of the kets must be diagonal and have the same rank
    from birdtracks.numeric import exact_rank

    # the orthogonalized k=4 states have a pole at N=1, builtin has none
    sources = [("trace+orthogonalize", 2)] + [("builtin", 1)] * (k <= 3)
    for source, first in sources:
        gram = gram_matrix(basis_states(k, source))
        assert all(entry.is_zero() for i, row in enumerate(gram)
                   for j, entry in enumerate(row) if i != j)
        for n in range(first, 9):
            dense = exact_rank([[entry.eval_rational(n) for entry in row]
                                for row in gram])
            assert singlet_count(k, n, source) == dense, (k, n, source)
    if k == 4:
        with pytest.raises(PoleAtN, match="state 16 .*N=1"):
            singlet_count(4, 1, "trace+orthogonalize")


def test_gram_matrix_returns_fresh_lists():
    singlet_count(2, 2)
    states = basis_states(2, "trace")
    first, second = gram_matrix(states), gram_matrix(states)
    assert isinstance(first, list) and all(isinstance(r, list) for r in first)
    assert first == second and first is not second
    assert all(a is not b for a, b in zip(first, second))
    first[0][0] = None
    first.append([])
    assert gram_matrix(states) == second
    assert singlet_count(2, 2) == 2


def test_orthogonalized_trace_pair_sums_to_subspace_projector():
    ops = singlet_basis(2, "trace+orthogonalize")
    total = ops[0].expand() + ops[1].expand()
    assert compose(total, total) == total
    assert total.dagger() == total
    assert evaluate(total, 3).trace() == 2
    assert evaluate(total, 2).trace() == 2


def test_bent_states_are_invariant_under_sampled_unitaries():
    states = basis_states(2, "builtin")
    for n in (2, 3):
        for seed in (0, 1):
            g, h = sample_special_linear(n, seed)
            for state in states:
                _, entries = integer_entries(state, n)
                legs = [g if o == "q" else h for o in state.sig.orientations]
                assert legs == [g, g, h, h]
                assert _act_per_leg(entries, legs) == entries


def test_singlet_operator_json_round_trip():
    table = singlet_table(3)
    for op in (table[2][2], table[0][5], table[3][1]):
        back = SingletOperator.from_json(op.to_json())
        assert back == op
