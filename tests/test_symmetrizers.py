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
from birdtracks.errors import (
    BirdtrackError,
    NotProportional,
    OutOfRange,
    UnsupportedK,
)
from birdtracks.numeric import evaluate
from birdtracks.symmetrizers import (
    StandardTableau,
    YoungShape,
    antisymmetrizer,
    builtin_orthogonal_basis,
    gram_schmidt,
    irrep_dimension,
    proportionality,
    symmetrizer,
    young_projector,
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
    t = StandardTableau.from_text("1 2 / 3")
    assert t.shape.rows == (2, 1)
    assert t.columns() == [(1, 3), (2,)]
    with pytest.raises(OutOfRange):
        StandardTableau.from_text("1 2 / 3 4 5")     # rows must not grow
    with pytest.raises(OutOfRange):
        StandardTableau.from_text("2 1 / 3")         # row not increasing
    with pytest.raises(OutOfRange):
        StandardTableau.from_text("1 2 / 2")         # not a bijection
    with pytest.raises(BirdtrackError):
        StandardTableau.from_text("1 x")             # not an integer
    with pytest.raises(BirdtrackError):
        young_projector("1 x")


def test_young_projector_extremes():
    assert young_projector("1 2 3") == symmetrizer([1, 2, 3], 3)
    assert young_projector("1 / 2 / 3") == antisymmetrizer([1, 2, 3], 3)


def test_young_projector_mixed_normalization():
    # raw S12 A13 squares to 3/4 of itself, so the projector is 4/3 S12 A13
    s12a13 = compose(symmetrizer([1, 2], 3), antisymmetrizer([1, 3], 3))
    c = proportionality(compose(s12a13, s12a13), s12a13)
    assert c == rc([3], [4])
    p = young_projector("1 2 / 3")
    assert p == s12a13.scaled(Fraction(4, 3))
    assert compose(p, p) == p
    assert p.trace() == rc([0, -1, 0, 1], [3])       # N(N^2-1)/3


def test_young_projectors_resolve_identity():
    tabs3 = ["1 2 3", "1 2 / 3", "1 3 / 2", "1 / 2 / 3"]
    total = None
    for t in tabs3:
        p = young_projector(t)
        total = p if total is None else total + p
    assert total == identity(Signature("qqq"))
    tabs2 = ["1 2", "1 / 2"]
    assert (young_projector(tabs2[0]) + young_projector(tabs2[1])
            == identity(Signature("qq")))


def test_young_projectors_idempotent_through_four_boxes():
    tabs4 = ["1 2 3 4", "1 2 3 / 4", "1 2 4 / 3", "1 3 4 / 2", "1 2 / 3 4",
             "1 3 / 2 4", "1 2 / 3 / 4", "1 3 / 2 / 4", "1 4 / 2 / 3",
             "1 / 2 / 3 / 4"]
    total = None
    for t in tabs4:
        p = young_projector(t)
        assert compose(p, p) == p
        total = p if total is None else total + p
    assert total == identity(Signature("qqqq"))


def test_young_projectors_of_different_shapes_are_orthogonal():
    shapes = {"1 2 3": "[3]", "1 2 / 3": "[2,1]", "1 3 / 2": "[2,1]",
              "1 / 2 / 3": "[1,1,1]"}
    ps = {t: young_projector(t) for t in shapes}
    for t1, p1 in ps.items():
        for t2, p2 in ps.items():
            if shapes[t1] != shapes[t2]:
                assert inner_product(p1, p2).is_zero()


def test_irrep_dimension_formula():
    assert irrep_dimension("[1]") == rf([0, 1])
    assert irrep_dimension("[2,1]") == rf([0, -1, 0, 1], [3])
    assert irrep_dimension("[1,1,1]") == rf([0, 2, -3, 1], [6])
    assert irrep_dimension("[2,2]") == rf([0, 0, -1, 0, 1], [12])
    # projector trace equals the hook-content dimension
    p22 = young_projector("1 2 / 3 4")
    assert p22.trace() == rc([0, 0, -1, 0, 1], [12])
    assert evaluate(p22, 3).trace() == 6


def test_proportionality_detects_mismatch():
    s = symmetrizer([1, 2], 2)
    a = antisymmetrizer([1, 2], 2)
    with pytest.raises(NotProportional):
        proportionality(s, a)
    with pytest.raises(NotProportional):
        proportionality(s, zero(Signature("qq")))
    assert proportionality(s.scaled(7), s) == rc([7])


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


def test_gram_schmidt_two_bent_states():
    from birdtracks.diagrams import permutation_element, parse_cycles
    swap = permutation_element(Signature("qq"), parse_cycles("(1 2)", 2))
    kets = [identity(Signature("qq")).bend(), swap.bend()]
    ortho, dropped = gram_schmidt(kets)
    assert dropped == []
    assert ortho[0] == kets[0]
    assert ortho[1] == kets[1] - kets[0].scaled(rf([1], [0, 1]))
    assert inner_product(ortho[0], ortho[1]).is_zero()


def test_gram_schmidt_drops_dependent_states():
    from birdtracks.diagrams import permutation_element, parse_cycles
    swap = permutation_element(Signature("qq"), parse_cycles("(1 2)", 2))
    v = swap.bend()
    ortho, dropped = gram_schmidt([v, v.scaled(3), v])
    assert len(ortho) == 1
    assert dropped == [1, 2]


def test_gram_schmidt_on_all_bent_permutations():
    import itertools
    from birdtracks.diagrams import permutation_element
    sig = Signature("qqq")
    kets = [permutation_element(sig, perm).bend()
            for perm in itertools.permutations(range(3))]
    ortho, dropped = gram_schmidt(kets)
    assert dropped == []
    assert len(ortho) == 6
    for i in range(6):
        for j in range(i + 1, 6):
            assert inner_product(ortho[i], ortho[j]).is_zero()
