import itertools
import math
import random
import re

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birdtracks import diagrams
from birdtracks.coefficients import N, ONE, RadicalCoefficient, rf, sqrt
from birdtracks.diagrams import (
    InvariantElement,
    PrimitiveDiagram,
    Signature,
    compose,
    format_cycles,
    identity,
    inner_product,
    ketbra,
    ket_signature,
    operator_signature,
    parse_cycles,
    permutation_element,
    tensor,
    zero,
    _cycles,
    _perm_sign,
)
from birdtracks.errors import (
    BirdtrackError,
    MixedRoleTensor,
    OutOfRange,
    SignatureMismatch,
)
from birdtracks.numeric import evaluate_float
from birdtracks.symmetrizers import builtin_orthogonal_basis
from birdtracks.tracebasis import (
    CycleDecomposition,
    normalized_trace_basis,
    raw_trace_states,
)


def perm_op(orients, text):
    sig = Signature(orients)
    return permutation_element(sig, parse_cycles(text, len(orients)))


def rc(num, den=(1,)):
    return RadicalCoefficient.from_rational(rf(num, den))


def random_perm(rng, size):
    perm = list(range(size))
    rng.shuffle(perm)
    return tuple(perm)


def test_cycle_parser_round_trip():
    assert parse_cycles("(1 2 3)", 4) == (1, 2, 0, 3)
    assert parse_cycles("(1 3)(2 4)", 4) == (2, 3, 0, 1)
    assert parse_cycles("e", 3) == (0, 1, 2)
    assert format_cycles((1, 2, 0, 3)) == "(1 2 3)"
    assert format_cycles((0, 1, 2)) == "e"
    rng = random.Random(11)
    perms = [random_perm(rng, 6) for _ in range(30)]
    perms += [p for n in range(1, 6) for p in itertools.permutations(range(n))]
    for perm in perms:
        n = len(perm)
        assert parse_cycles(format_cycles(perm), n) == perm
        # the canonical decomposition's text without its fixed points
        text = CycleDecomposition.from_permutation(perm).to_text()
        assert format_cycles(perm) == (re.sub(r"\(\d+\)", "", text) or "e")
        # orbits found by repeated application, and inversions
        orbits = set()
        for start in range(n):
            orbit, j = {start}, perm[start]
            while j != start:
                orbit.add(j)
                j = perm[j]
            orbits.add(frozenset(orbit))
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        assert _perm_sign(perm) == (-1) ** (n - len(orbits))
        assert _perm_sign(perm) == (-1) ** inversions


def test_cycle_parser_rejects_garbage():
    with pytest.raises(OutOfRange):
        parse_cycles("(1 2", 3)
    with pytest.raises(OutOfRange):
        parse_cycles("(1 5)", 3)
    with pytest.raises(OutOfRange):
        parse_cycles("(1 2)(2 3)", 3)
    with pytest.raises(BirdtrackError):
        parse_cycles("(1 a)", 2)


def test_compose_matches_permutation_product_on_fundamentals():
    # left-to-right gluing acts as "left after right"
    a = perm_op("qqq", "(1 2)")
    b = perm_op("qqq", "(1 3 2)")
    assert compose(a, b) == perm_op("qqq", "(1 3)")
    rng = random.Random(23)
    sig = Signature("qqqqq")
    for _ in range(25):
        s = random_perm(rng, 5)
        t = random_perm(rng, 5)
        st = tuple(s[t[x]] for x in range(5))
        lhs = compose(permutation_element(sig, s), permutation_element(sig, t))
        assert lhs == permutation_element(sig, st)


def test_mixed_composition_produces_loop_factor():
    # on V(x)V(x)V* the permutation images of (1 2 3) and (1 3 2) compose
    # to N times the image of (1 3): one closed loop appears
    a = perm_op("qqb", "(1 2 3)")
    b = perm_op("qqb", "(1 3 2)")
    expected = perm_op("qqb", "(1 3)").scaled(N)
    assert compose(a, b) == expected


def test_identity_is_neutral():
    rng = random.Random(5)
    for orients in ("qqq", "qqb", "qbqb", "bbq"):
        sig = Signature(orients)
        e = identity(sig)
        for _ in range(5):
            d = permutation_element(sig, random_perm(rng, len(orients)))
            assert compose(e, d) == d
            assert compose(d, e) == d


def test_trace_counts_cycles():
    assert perm_op("qqq", "e").trace() == rc([0, 0, 0, 1])
    assert perm_op("qqq", "(1 2)").trace() == rc([0, 0, 1])
    assert perm_op("qqq", "(1 2 3)").trace() == rc([0, 1])
    # mixed signature: same rule through the orientation swap
    assert perm_op("qb", "(1 2)").trace() == rc([0, 1])
    assert perm_op("qb", "e").trace() == rc([0, 0, 1])


def test_trace_is_cyclic():
    rng = random.Random(31)
    sig = Signature("qbqb")
    for _ in range(20):
        a = permutation_element(sig, random_perm(rng, 4))
        b = permutation_element(sig, random_perm(rng, 4))
        assert compose(a, b).trace() == compose(b, a).trace()


def test_dagger_is_antihomomorphic_involution():
    rng = random.Random(17)
    sig = Signature("qqbb")
    for _ in range(20):
        a = permutation_element(sig, random_perm(rng, 4))
        b = permutation_element(sig, random_perm(rng, 4))
        assert a.dagger().dagger() == a
        assert compose(a, b).dagger() == compose(b.dagger(), a.dagger())


def test_dagger_fixes_symmetrizer_style_sums():
    sig = Signature("qq")
    s = (identity(sig) + perm_op("qq", "(1 2)")).scaled(Fraction(1, 2))
    assert s.dagger() == s


def test_linear_structure():
    sig = Signature("qq")
    e = identity(sig)
    x = perm_op("qq", "(1 2)")
    combo = e.scaled(2) + x - x
    assert combo == e.scaled(2)
    assert (x - x).is_zero()
    assert zero(sig) + x == x
    assert (x / 2).scaled(2) == x
    with pytest.raises(SignatureMismatch):
        e + identity(Signature("qb"))


def test_partial_trace_of_identity():
    sig = Signature("qqb")
    out = identity(sig).partial_trace([2])
    assert out == identity(Signature("qq")).scaled(N)
    # tracing every level reproduces the full trace
    full = identity(sig).partial_trace([0, 1, 2])
    (diag, coeff), = full.terms.items()
    assert diag.perm == ()
    assert coeff == identity(sig).trace()


def test_partial_trace_of_trace_pair():
    # the swap image on V(x)V* is the trace pair; closing its V line
    # leaves the identity on V* with no loop factor
    t = perm_op("qb", "(1 2)")
    assert t.partial_trace([0]) == identity(Signature("b"))
    assert t.partial_trace([1]) == identity(Signature("q"))


def test_partial_trace_agrees_with_full_trace():
    rng = random.Random(41)
    sig = Signature("qbqb")
    for _ in range(15):
        a = permutation_element(sig, random_perm(rng, 4))
        b = permutation_element(sig, random_perm(rng, 4))
        el = a + b.scaled(rf([1], [0, 1]))
        stepped = el.partial_trace([1, 3]).partial_trace([0, 1])
        (diag, coeff), = stepped.terms.items()
        assert coeff == el.trace()


def test_tensor_multiplies_traces():
    rng = random.Random(59)
    for _ in range(10):
        a = permutation_element(Signature("qq"), random_perm(rng, 2))
        b = permutation_element(Signature("qb"), random_perm(rng, 2))
        t = tensor(a, b)
        assert t.sig.orientations == "qqqb"
        assert t.trace() == a.trace() * b.trace()
    with pytest.raises(MixedRoleTensor):
        tensor(identity(Signature("q")), perm_op("qb", "e").bend())


def test_tensor_respects_composition():
    rng = random.Random(61)
    for _ in range(10):
        a = permutation_element(Signature("qb"), random_perm(rng, 2))
        b = permutation_element(Signature("qb"), random_perm(rng, 2))
        c = permutation_element(Signature("qq"), random_perm(rng, 2))
        d = permutation_element(Signature("qq"), random_perm(rng, 2))
        assert compose(tensor(a, c), tensor(b, d)) == tensor(
            compose(a, b), compose(c, d))


def test_bend_of_identity_links_matched_legs():
    ket = identity(Signature("qq")).bend()
    assert ket.sig == ket_signature(2, 2)
    (diag, coeff), = ket.terms.items()
    assert diag.perm == (0, 1)
    assert coeff == ONE


def test_bend_is_an_isometry():
    rng = random.Random(73)
    for orients in ("qqq", "qqb", "qbqb", "bb"):
        sig = Signature(orients)
        k = len(orients)
        for _ in range(10):
            a = permutation_element(sig, random_perm(rng, k))
            b = permutation_element(sig, random_perm(rng, k))
            lhs = inner_product(a.bend(), b.bend())
            rhs = compose(a.dagger(), b).trace()
            assert lhs == rhs


def test_ket_inner_product_counts_joint_cycles():
    s12 = perm_op("qqq", "(1 2)").bend()
    s13 = perm_op("qqq", "(1 3)").bend()
    assert inner_product(s12, s12) == rc([0, 0, 0, 1])   # N^3
    assert inner_product(s12, s13) == rc([0, 1])         # (1 2)(1 3) is a 3-cycle


def test_operator_applied_to_ket():
    # (|u><v|) |w> = <v|w> |u>
    rng = random.Random(97)
    sig = ket_signature(2, 2)
    for _ in range(15):
        u = InvariantElement.from_perm(sig, random_perm(rng, 2))
        v = InvariantElement.from_perm(sig, random_perm(rng, 2))
        w = InvariantElement.from_perm(sig, random_perm(rng, 2))
        op = ketbra(u, v)
        assert compose(op, w) == u.scaled(inner_product(v, w))


def test_ketbra_trace_is_inner_product():
    rng = random.Random(101)
    sig = ket_signature(3, 3)
    for _ in range(15):
        u = InvariantElement.from_perm(sig, random_perm(rng, 3))
        v = InvariantElement.from_perm(sig, random_perm(rng, 3))
        assert ketbra(u, v).trace() == inner_product(v, u)


def test_ketbra_composition_is_rank_one():
    rng = random.Random(103)
    sig = ket_signature(2, 2)
    for _ in range(10):
        u = InvariantElement.from_perm(sig, random_perm(rng, 2))
        v = InvariantElement.from_perm(sig, random_perm(rng, 2))
        w = InvariantElement.from_perm(sig, random_perm(rng, 2))
        x = InvariantElement.from_perm(sig, random_perm(rng, 2))
        lhs = compose(ketbra(u, v), ketbra(w, x))
        rhs = ketbra(u, x).scaled(inner_product(v, w))
        assert lhs == rhs


def reference_bend(element):
    """The bent ket, built by ranking every operator endpoint directly.

    Left endpoint a is fundamental when level a is, right endpoint k + a
    when level a is antifundamental; the ket pairs each antifundamental
    endpoint's rank with the rank of the fundamental endpoint it meets.
    """
    orients = element.sig.orientations
    k = len(orients)
    fund_src = ([a for a in range(k) if orients[a] == "q"]
                + [k + a for a in range(k) if orients[a] == "b"])
    anti_src = ([a for a in range(k) if orients[a] == "b"]
                + [k + a for a in range(k) if orients[a] == "q"])
    fund_rank = {e: r for r, e in enumerate(fund_src)}
    anti_rank = {e: r for r, e in enumerate(anti_src)}
    sig = ket_signature(k, k)
    out = {}
    for diag, coeff in element.terms.items():
        pairs = diag.matching()
        linking = [0] * k
        for a in range(k):
            src = k + a if orients[a] == "q" else a
            linking[anti_rank[src]] = fund_rank[pairs[src]]
        out[PrimitiveDiagram(sig, tuple(linking))] = coeff
    return InvariantElement(sig, out)


def test_bend_matches_endpoint_ranking_on_every_diagram():
    for size in range(1, 5):
        for letters in itertools.product("qb", repeat=size):
            sig = Signature("".join(letters))
            for perm in itertools.permutations(range(size)):
                el = permutation_element(sig, perm)
                assert el.bend() == reference_bend(el)


def test_bend_matches_endpoint_ranking_on_random_sums():
    rng = random.Random(211)
    for _ in range(40):
        size = rng.randint(1, 4)
        sig = Signature("".join(rng.choice("qb") for _ in range(size)))
        el = zero(sig)
        for _ in range(rng.randint(1, 6)):
            coeff = rf([rng.randint(-3, 3), rng.randint(0, 2)],
                       [rng.randint(1, 3)])
            if rng.random() < 0.3:
                coeff = sqrt(rf([0, 1])) * coeff
            el = el + permutation_element(sig, random_perm(rng, size), coeff)
        assert el.bend() == reference_bend(el)


def test_radical_coefficients_flow_through():
    el = perm_op("qq", "(1 2)").scaled(sqrt(rf([0, 1])))   # sqrt(N) (1 2)
    sq = compose(el, el)
    assert sq == identity(Signature("qq")).scaled(rf([0, 1]))


def test_json_round_trip():
    el = perm_op("qqb", "(1 2 3)").scaled(sqrt(Fraction(4, 3))) + perm_op(
        "qqb", "e").scaled(rf([1, 1], [0, 0, 2]))
    blob = el.to_json()
    assert blob["signature"] == {"orientations": "qqb", "role": "operator"}
    assert InvariantElement.from_json(blob) == el
    ket = perm_op("qb", "(1 2)").bend()
    assert InvariantElement.from_json(ket.to_json()) == ket


def test_json_dict_is_built_once_and_ignored_by_equality():
    el = perm_op("qqb", "(1 2 3)").scaled(sqrt(Fraction(4, 3))) + perm_op(
        "qqb", "e").scaled(rf([1, 1], [0, 0, 2]))
    fresh = InvariantElement(el.sig, el.terms)
    first = el.to_json()
    assert el.to_json() is first
    assert InvariantElement.from_json(el.to_json()) == el
    assert el == fresh and hash(el) == hash(fresh)
    assert fresh.to_json() == first


def test_signature_validation():
    with pytest.raises(OutOfRange):
        Signature("qxq")
    with pytest.raises(OutOfRange):
        Signature("qq", role="bra")
    ket = perm_op("qq", "e").bend()
    with pytest.raises(SignatureMismatch):
        compose(ket, ket)
    with pytest.raises(SignatureMismatch):
        ket.trace()
    with pytest.raises(SignatureMismatch):
        ket.dagger()


def test_operator_signature_helper():
    assert operator_signature(2, 1).orientations == "qqb"
    assert ket_signature(1, 1).role == "ket"


# -- ket inner product against the term-pair walk ----------------------------

def reference_inner_product(a, b):
    """<a|b> for kets, one glued diagram pair at a time."""
    total = RadicalCoefficient.zero()
    b_items = [(diag.matching(), coeff) for diag, coeff in b.terms.items()]
    n = a.sig.n_slots
    for da, ca in a.terms.items():
        ma = da.matching()
        for mb, cb in b_items:
            loops = 0
            seen = [False] * n
            for start in range(n):
                if seen[start]:
                    continue
                loops += 1
                cur = start
                while not seen[cur]:
                    seen[cur] = True
                    step = ma[cur]
                    seen[step] = True
                    cur = mb[step]
            total = total + ca * cb * N ** loops
    return total


@pytest.mark.parametrize("family", ["raw trace k=3", "bent builtin k=3"])
def test_ket_inner_product_matches_term_pair_walk(family):
    if family == "raw trace k=3":
        kets = raw_trace_states(3)
    else:   # the transition elements carry sqrt(4/3)
        kets = [op.bend() for op in builtin_orthogonal_basis(3)]
    for a in kets:
        for b in kets:
            got = inner_product(a, b)
            assert got == reference_inner_product(a, b)
            assert got == inner_product(b, a)


def test_normalized_k4_inner_products_match_term_pair_walk():
    kets = [op.ket for op in normalized_trace_basis(4)]
    # the walk is slow on these dense kets, so take a spread of pairs
    picked = (0, 11, 23)
    for i in picked:
        for j in picked:
            got = inner_product(kets[i], kets[j])
            assert got == reference_inner_product(kets[i], kets[j])
            assert got == inner_product(kets[j], kets[i])
            assert got.is_zero() == (i != j)


_RADICALS = (ONE, sqrt(2), sqrt(Fraction(4, 3)), sqrt(rf([0, 1])),
             sqrt(rf([1, 1])), sqrt(rf([-1, 0, 1])))


@st.composite
def mixed_radical_kets(draw):
    """Two random kets on Mixed(k, k), k <= 3, with mixed radicands."""
    k = draw(st.integers(1, 3))
    sig = ket_signature(k, k)
    perms = st.permutations(range(k)).map(tuple)
    coeff = st.tuples(
        st.lists(st.integers(-3, 3), min_size=1, max_size=3),
        st.sampled_from(([1], [0, 1], [1, 1], [-1, 1], [2, 0, 1])),
        st.sampled_from(_RADICALS))

    def ket():
        terms = draw(st.lists(st.tuples(perms, coeff), max_size=6))
        out = zero(sig)
        for perm, (num, den, root) in terms:
            out = out + InvariantElement.from_perm(
                sig, perm, root * rf(num, den))
        return out

    return ket(), ket()


@settings(max_examples=25, deadline=None)
@given(mixed_radical_kets())
def test_ket_inner_product_random_mixed_radicands(pair):
    a, b = pair
    got = inner_product(a, b)
    assert got == reference_inner_product(a, b)
    assert got == inner_product(b, a)
    for n in (2, 3, 4):
        dense = np.vdot(evaluate_float(a, n), evaluate_float(b, n)).real
        assert got.eval_float(n) == pytest.approx(dense, rel=1e-9, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(mixed_radical_kets())
def test_ketbra_keeps_every_term_pair(pair):
    # u's matching fixes the left side and v's the right, so no two term
    # pairs of |u><v| share a diagram
    u, v = pair
    assert ketbra(u, v).n_terms() == u.n_terms() * v.n_terms()


# -- shared kernels: cached matchings and the loop-count memo -----------------

def test_cached_matchings_are_read_only():
    for sig in (Signature("qbq"), ket_signature(2, 2)):
        size = sig.n_slots if sig.is_operator() else sig.n_anti
        for perm in itertools.permutations(range(size)):
            pairs = PrimitiveDiagram(sig, perm).matching()
            assert dict(pairs) == dict(PrimitiveDiagram(sig, perm).matching())
            assert all(pairs[pairs[e]] == e for e in pairs)
            with pytest.raises(TypeError):
                pairs[0] = pairs[0]
            with pytest.raises(TypeError):
                del pairs[0]
            with pytest.raises(AttributeError):
                pairs.clear()


def test_kernels_give_equal_results_on_repeated_calls():
    rng = random.Random(41)
    sig = Signature("qbqb")
    ops = [permutation_element(sig, random_perm(rng, 4), rf([1, 1], [0, 1]))
           + permutation_element(sig, random_perm(rng, 4), 2)
           for _ in range(4)]
    kets = [op.bend() for op in ops]
    first = ([compose(a, b) for a in ops for b in ops],
             [op.bend() for op in ops],
             [ketbra(u, v) for u in kets for v in kets])
    again = ([compose(a, b) for a in ops for b in ops],
             [op.bend() for op in ops],
             [ketbra(u, v) for u in kets for v in kets])
    assert first == again
    assert first[1] == kets


def test_pair_rows_loop_memo_matches_cycle_counts():
    kets = raw_trace_states(4)
    diagrams._LOOPS.clear()
    cold = [[inner_product(a, b) for b in kets] for a in kets]
    assert [[inner_product(a, b) for b in kets] for a in kets] == cold
    assert diagrams._LOOPS
    for inv_sigma, by_tau in diagrams._LOOPS.items():
        assert len(by_tau) <= math.factorial(len(inv_sigma))
        for tau, loops in by_tau.items():
            assert loops == len(_cycles([inv_sigma[t] for t in tau]))
