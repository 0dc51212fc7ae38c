import itertools
import math
from fractions import Fraction

import pytest

from birdtracks.coefficients import RadicalCoefficient, rf
from birdtracks.diagrams import (
    Signature,
    compose,
    identity,
    inner_product,
    zero,
)
from birdtracks.errors import BirdtrackError, OutOfRange, UnsupportedK
from birdtracks.numeric import evaluate
from birdtracks.symmetrizers import (
    YoungShape,
    _partitions as library_partitions,
    _standard_tableaux,
    _young_groups,
    antisymmetrizer,
    builtin_orthogonal_basis,
    irrep_dimension,
    symmetrizer,
)


def rc(num, den=(1,)):
    return RadicalCoefficient.from_rational(rf(num, den))


def test_symmetrizer_term_structure():
    s = symmetrizer([1, 2, 3], 3)
    assert s.n_terms() == 6
    assert all(c == rc([1], [6]) for c in s.terms.values())
    assert compose(s, s) == s
    assert s.dagger() == s


def test_symmetrizer_trace_is_bosonic_dimension():
    s12 = symmetrizer([1, 2], 2)
    assert s12.trace() == rc([0, 1, 1], [2])        # N(N+1)/2
    s123 = symmetrizer([1, 2, 3], 3)
    assert s123.trace() == rc([0, 2, 3, 1], [6])    # N(N+1)(N+2)/6
    assert evaluate(s123, 3).trace() == 10


def test_antisymmetrizer_trace_and_collapse():
    a = antisymmetrizer([1, 2, 3], 3)
    assert a.trace() == rc([0, 2, -3, 1], [6])      # N(N-1)(N-2)/6
    assert compose(a, a) == a
    assert evaluate(a, 2).entries == {}             # dies below three colors


def test_opposite_symmetry_annihilates():
    s = symmetrizer([1, 2], 3)
    a = antisymmetrizer([1, 2, 3], 3)
    assert compose(s, a) == zero(Signature("qqq"))
    assert compose(a, s) == zero(Signature("qqq"))
    assert compose(symmetrizer([1, 2], 2), antisymmetrizer([1, 2], 2)).is_zero()


def test_absorption_of_aligned_subsets():
    a123 = antisymmetrizer([1, 2, 3], 3)
    a12 = antisymmetrizer([1, 2], 3)
    assert compose(a123, a12) == a123
    assert compose(a12, a123) == a123
    s1234 = symmetrizer([1, 2, 3, 4], 4)
    s234 = symmetrizer([2, 3, 4], 4)
    assert compose(s1234, s234) == s1234
    a1234 = antisymmetrizer([1, 2, 3, 4], 4)
    a123_in4 = antisymmetrizer([1, 2, 3], 4)
    assert compose(a123_in4, a1234) == a1234


def test_partial_trace_prefactor_of_antisymmetrizer():
    # closing p-k lines of A_{1..p} leaves ((N-k)! k!)/((N-p)! p!) A_{1..k}
    a123 = antisymmetrizer([1, 2, 3], 3)
    closed = a123.partial_trace([1, 2])
    expected = identity(Signature("q")).scaled(rf([2, -3, 1], [6]))
    assert closed == expected                        # (N-1)(N-2)/6 times A_1
    a12 = antisymmetrizer([1, 2], 2)
    assert a12.partial_trace([1]) == identity(Signature("q")).scaled(
        rf([-1, 1], [2]))                            # (N-1)/2


def test_slot_validation():
    with pytest.raises(OutOfRange):
        symmetrizer([], 3)
    with pytest.raises(OutOfRange):
        symmetrizer([0, 1], 3)
    with pytest.raises(OutOfRange):
        antisymmetrizer([1, 4], 3)


def test_young_shape_and_tableau_parsing():
    shape = YoungShape.from_text("[2,1]")
    assert shape.rows == (2, 1)
    assert shape.conjugate().rows == (2, 1)
    assert YoungShape((3, 1)).conjugate().rows == (2, 1, 1)
    assert YoungShape((3, 1)).conjugate().conjugate().rows == (3, 1)
    with pytest.raises(OutOfRange):
        YoungShape((1, 2))                           # rows must not grow
    with pytest.raises(BirdtrackError):
        YoungShape.from_text("[2,x]")                # not an integer


def test_irrep_dimension_formula():
    assert irrep_dimension("[1]") == rf([0, 1])
    assert irrep_dimension("[2,1]") == rf([0, -1, 0, 1], [3])
    assert irrep_dimension("[1,1,1]") == rf([0, 2, -3, 1], [6])
    assert irrep_dimension("[2,2]") == rf([0, 0, -1, 0, 1], [12])
    # Schur-Weyl: V^k holds f_lambda copies of each irrep of k boxes, with
    # f_lambda = k!/(hook product) by the hook-length formula
    for k in range(1, 8):
        total = rf([0])
        for rows in _partitions(k):
            cols = [sum(1 for r in rows if r > j) for j in range(rows[0])]
            hooks = math.prod(r - j + cols[j] - i - 1
                              for i, r in enumerate(rows) for j in range(r))
            f = math.factorial(k) // hooks
            total = total + irrep_dimension(YoungShape(rows)) * f
        assert total == rf([0] * k + [1])


@pytest.mark.parametrize("k", range(1, 8))
def test_standard_tableaux_sum_to_the_group_and_its_involutions(k):
    shapes = list(library_partitions(k))
    assert shapes == list(_partitions(k))
    f = [_standard_tableaux(rows) for rows in shapes]
    # f_lambda is the dimension of the irrep: the regular representation
    # holds f_lambda copies of each, and the involutions number sum f_lambda
    perms = list(itertools.permutations(range(k)))
    involutions = sum(1 for p in perms if all(p[x] == i
                                              for i, x in enumerate(p)))
    assert sum(x * x for x in f) == len(perms)
    assert sum(f) == involutions


@pytest.mark.parametrize("rows", [(1,), (2, 1), (3, 1), (2, 2), (3, 2, 1),
                                  (2, 1, 1, 1)])
def test_young_groups_fix_the_rows_and_the_columns(rows):
    row_group, col_group = _young_groups(rows)
    cols = YoungShape(rows).conjugate().rows
    assert len(set(row_group)) == math.prod(map(math.factorial, rows))
    assert len(set(col_group)) == math.prod(map(math.factorial, cols))
    assert set(row_group) & set(col_group) == {tuple(range(sum(rows)))}
    # the row-reading tableau: box (i, j) holds sum(rows[:i]) + j
    box = {sum(rows[:i]) + j: (i, j)
           for i, r in enumerate(rows) for j in range(r)}
    assert all(box[p[x]][0] == box[x][0] for p in row_group for x in box)
    assert all(box[p[x]][1] == box[x][1] for p in col_group for x in box)


def _partitions(k, largest=None):
    """Every partition of k with parts at most largest, as row tuples."""
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest or k), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def test_builtin_basis_small_k():
    assert builtin_orthogonal_basis(1) == [identity(Signature("q"))]
    assert builtin_orthogonal_basis(2) == [symmetrizer([1, 2], 2),
                                           antisymmetrizer([1, 2], 2)]
    with pytest.raises(UnsupportedK):
        builtin_orthogonal_basis(4)
    with pytest.raises(UnsupportedK):
        builtin_orthogonal_basis(0)


def test_builtin_basis_three_strands_structure():
    basis = builtin_orthogonal_basis(3)
    assert len(basis) == 6
    for idx in (0, 1, 4, 5):
        p = basis[idx]
        assert p.dagger() == p
        assert compose(p, p) == p
    assert basis[2].dagger() == basis[3]
    assert compose(basis[2], basis[3]) == basis[1]
    assert compose(basis[3], basis[2]) == basis[4]
    # the mixed projector equals its reflected spelling
    alt = compose(compose(symmetrizer([1, 2], 3), antisymmetrizer([2, 3], 3)),
                  symmetrizer([1, 2], 3)).scaled(Fraction(4, 3))
    assert alt == basis[1]


def test_builtin_basis_three_strands_orthogonality():
    basis = builtin_orthogonal_basis(3)
    for i in range(6):
        for j in range(i + 1, 6):
            assert inner_product(basis[i], basis[j]).is_zero()


def test_builtin_basis_bent_norms():
    basis = builtin_orthogonal_basis(3)
    sym_dim = rc([0, 2, 3, 1], [6])        # (N+2)(N+1)N/6
    mixed_dim = rc([0, -1, 0, 1], [3])     # N(N^2-1)/3
    asym_dim = rc([0, 2, -3, 1], [6])      # (N-2)(N-1)N/6
    expected = [sym_dim, mixed_dim, mixed_dim, mixed_dim, mixed_dim, asym_dim]
    for el, want in zip(basis, expected):
        ket = el.bend()
        assert inner_product(ket, ket) == want
