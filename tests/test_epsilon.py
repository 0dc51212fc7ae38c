import itertools
import math
from fractions import Fraction

import pytest

from birdtracks import epsilon
from birdtracks.checks import _dual, _lie_action
from birdtracks.coefficients import rf
from birdtracks.diagrams import (
    FUND,
    InvariantElement,
    PrimitiveDiagram,
    compose,
    identity,
    inner_product,
    ket_signature,
    ketbra,
    operator_signature,
    tensor,
    zero,
)
from birdtracks.epsilon import (
    TransientParams,
    epsilon_tensor,
    leibniz_translate,
    lr_decomposition,
    lr_pair_projector,
    pieri_add_antifundamental,
    shape_dimension,
    transient_singlet_params,
    transient_singlet_projector,
    translated_singlet_ket,
    verify_baryon_equivalence,
)
from birdtracks.errors import (
    BadBlockSize,
    BirdtrackError,
    DimensionMismatch,
    NotProportional,
    OutOfRange,
)
from birdtracks.numeric import (
    DENSE_CAP,
    ExactTensor,
    evaluate,
    exact_rank,
    integer_entries,
)
from birdtracks.symmetrizers import antisymmetrizer
from birdtracks.tracebasis import adjoint_pair_diagram, pair_singlet_projector


def test_epsilon_symbol_rank_two():
    eps = epsilon_tensor(2)
    assert eps.shape == (2, 2)
    assert eps.entries == {(0, 1): Fraction(1), (1, 0): Fraction(-1)}


def test_epsilon_pair_contraction_counts_permutations():
    for n in (2, 3, 4):
        eps = epsilon_tensor(n)
        total = sum(v * v for v in eps.entries.values())
        assert total == math.factorial(n)


def test_epsilon_pair_is_the_antisymmetrizer():
    # eps outer eps, divided by N!, is the full antisymmetric projector
    for n in (2, 3, 4):
        eps = epsilon_tensor(n)
        scale = Fraction(1, math.factorial(n))
        paired = {}
        for ko, vo in eps.entries.items():
            for ki, vi in eps.entries.items():
                paired[ko + ki] = vo * vi * scale
        want = evaluate(antisymmetrizer(range(1, n + 1), n), n)
        assert paired == want.entries


def test_epsilon_rejects_small_rank():
    with pytest.raises(OutOfRange):
        epsilon_tensor(1)


def test_pieri_three_branch_example():
    grown = pieri_add_antifundamental("[2,1]", 4)
    assert [s.to_text() for s in grown] == ["[3,2,1]", "[3,1,1,1]", "[2,2,1,1]"]


def test_pieri_from_empty_shape_is_one_column():
    for n in (2, 3, 5):
        grown = pieri_add_antifundamental(None, n)
        assert len(grown) == 1
        assert grown[0].rows == (1,) * (n - 1)


def test_pieri_single_box_has_two_positions():
    grown = pieri_add_antifundamental("[1]", 2)
    assert [s.rows for s in grown] == [(2,), (1, 1)]


def test_pieri_rejects_overdeep_shape():
    with pytest.raises(OutOfRange):
        pieri_add_antifundamental("[1,1,1]", 2)
    with pytest.raises(OutOfRange):
        pieri_add_antifundamental("[2,1]", 1)


def test_lr_decomposition_examples():
    assert [s.rows for s in lr_decomposition(1, 0, 3)] == [(1,)]
    assert shape_dimension("[1]", 3) == 3

    two_quarks = lr_decomposition(2, 0, 3)
    assert [s.rows for s in two_quarks] == [(2,), (1, 1)]
    assert [shape_dimension(s, 3) for s in two_quarks] == [6, 3]

    pair = lr_decomposition(1, 1, 4)
    assert [s.rows for s in pair] == [(2, 1, 1), (1, 1, 1, 1)]
    assert [shape_dimension(s, 4) for s in pair] == [15, 1]


def test_lr_dimension_conservation():
    for m, n in ((1, 1), (2, 1), (2, 2)):
        for n_param in (3, 4):
            shapes = lr_decomposition(m, n, n_param)
            total = sum(shape_dimension(s, n_param) for s in shapes)
            assert total == n_param ** (m + n)


def test_lr_decomposition_empty_product():
    assert lr_decomposition(0, 0, 3) == []


def test_shape_dimension_strips_full_columns():
    # a full height-N column is a determinant factor, not content
    assert shape_dimension("[2,1,1]", 3) == shape_dimension("[1]", 3) == 3
    assert shape_dimension("[1,1,1]", 3) == 1
    assert shape_dimension("[2,2,2]", 3) == 1
    with pytest.raises(OutOfRange):
        shape_dimension("[1,1,1]", 2)


def test_transient_params_baryon_families():
    for n in (3, 4, 5):
        assert transient_singlet_params(n, 0, n) == [
            TransientParams(1, 0, 0, n - 1)]
    assert transient_singlet_params(3, 0, 3) == [TransientParams(1, 0, 0, 2)]
    assert transient_singlet_params(1, 0, 3) == []
    assert transient_singlet_params(3, 0, 4) == []
    assert transient_singlet_params(4, 1, 3) == [TransientParams(1, 0, 1, 3)]


def test_transient_params_consistency():
    for n_param in (3, 4):
        for m in range(7):
            for n in range(7):
                for p in transient_singlet_params(m, n, n_param):
                    assert p.a >= 0 and p.b >= 0 and p.k >= 0
                    assert p.a + p.b >= 1
                    assert m - p.a * n_param == p.k
                    assert n - p.b * n_param == p.k
                    assert p.alpha == (p.a + p.b) * (n_param - 1) + p.k
                    assert p.alpha >= p.k


def test_transient_params_validation():
    with pytest.raises(OutOfRange):
        transient_singlet_params(3, 0, 1)
    with pytest.raises(OutOfRange):
        transient_singlet_params(-1, 0, 3)


def test_transient_params_json_round_trip():
    p = TransientParams(1, 0, 1, 3)
    assert TransientParams.from_json(p.to_json()) == p


def _tensor_matrix_square(t: ExactTensor) -> list[list[Fraction]]:
    half = len(t.shape) // 2
    mat = t.matrix_rows(half)
    size = len(mat)
    out = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for k in range(size):
            if mat[i][k]:
                for j in range(size):
                    if mat[k][j]:
                        out[i][j] += mat[i][k] * mat[k][j]
    return out


def test_transient_projector_baryon_case():
    proj = transient_singlet_projector(TransientParams(1, 0, 0, 2), 3)
    t = evaluate(proj, 3)
    assert t.trace() == 1
    assert _tensor_matrix_square(t) == t.matrix_rows(4)


def test_transient_projector_spot_check_with_generic_pairs():
    proj = transient_singlet_projector(TransientParams(1, 0, 1, 3), 3)
    assert evaluate(proj, 3).trace() == 1


def _sl_generators(n_param):
    """The E_ab (a != b) and E_aa - E_a+1,a+1, which span sl(N)."""
    return ([{(a, b): 1} for a in range(n_param) for b in range(n_param)
             if a != b]
            + [{(a, a): 1, (a + 1, a + 1): -1} for a in range(n_param - 1)])


def test_every_small_transient_projector_is_an_invariant_projector():
    # every layout of Mixed(m, n), m, n <= 6, at N = 2, 3 whose projector
    # on Mixed(alpha, alpha) is small enough to realize densely
    layouts = [(params, n_param) for n_param in (2, 3)
               for m in range(7) for n in range(7)
               for params in transient_singlet_params(m, n, n_param)
               if n_param ** (4 * params.alpha) <= DENSE_CAP]
    assert len(layouts) == 30
    for params, n_param in layouts:
        proj = transient_singlet_projector(params, n_param)
        assert evaluate(proj, n_param).trace() == 1, params
        assert compose(proj, proj) == proj, params
        # as check_unitary_invariance: every sl(N) generator kills it
        ket = proj.bend()
        _, entries = integer_entries(ket, n_param)
        for x in _sl_generators(n_param):
            legs = [x if o == FUND else _dual(x)
                    for o in ket.sig.orientations]
            assert not _lie_action(entries, legs), (params, n_param)


def test_transient_projector_rejects_generic_layout():
    with pytest.raises(OutOfRange):
        transient_singlet_projector(TransientParams(0, 0, 2, 2), 3)
    with pytest.raises(OutOfRange):
        transient_singlet_projector(TransientParams(1, 0, 0, 5), 3)


def reference_transient_projector(params, n_param):
    """|s><s| / <s|s> for the ket of bent blocks, legs sorted by hand."""
    blocks = [antisymmetrizer(range(1, n_param), n_param - 1).bend()
              for _ in range(params.a + params.b)]
    if params.k:
        blocks.append(identity(operator_signature(params.k, 0)).bend())
    ket = blocks[0]
    for extra in blocks[1:]:
        ket = tensor(ket, extra)
    sizes = [n_param - 1] * (params.a + params.b)
    if params.k:
        sizes.append(params.k)
    fund, anti = [], []
    pos = 0
    for size in sizes:
        fund.extend(range(pos, pos + size))
        anti.extend(range(pos + size, pos + 2 * size))
        pos += 2 * size
    # relabel old slot fund[i] as slot i and anti[j] as slot m + j; the
    # ket permutation reads each antifundamental's partner off the matching
    pos = {old: new for new, old in enumerate(fund + anti)}
    sig = ket_signature(len(fund), len(anti))
    ket = InvariantElement(sig, {
        PrimitiveDiagram(sig, tuple(pos[diag.matching()[a]] for a in anti)): c
        for diag, c in ket.terms.items()})
    norm = inner_product(ket, ket)
    return ketbra(ket, ket).scaled(rf([1]) / norm.rational_part())


def test_transient_projector_matches_bent_blocks_up_to_alpha_five():
    checked = 0
    for n_param in (2, 3, 4):
        for blocks in range(1, 6):
            for k in range(6 - blocks * (n_param - 1)):
                for a in range(blocks + 1):
                    params = TransientParams(a, blocks - a, k,
                                             blocks * (n_param - 1) + k)
                    got = transient_singlet_projector(params, n_param)
                    assert got == reference_transient_projector(
                        params, n_param)
                    checked += 1
    assert checked == 70


def test_leibniz_restricted_epsilon_orthogonality():
    # one epsilon against another over their shared N-1 legs: the leftover
    # pair of indices is (N-1)! times the identity line
    translated, count = leibniz_translate(epsilon_tensor(3), 1)
    assert count == 2
    assert translated.shape == (3, 3)
    assert translated.entries == {(i, i): Fraction(2) for i in range(3)}


def test_leibniz_block_size_validation():
    eps = epsilon_tensor(3)
    with pytest.raises(BadBlockSize):
        leibniz_translate(eps, 0)
    with pytest.raises(BadBlockSize):
        leibniz_translate(eps, 3)
    skinny = ExactTensor((3,), entries={(0,): Fraction(1)})
    with pytest.raises(BadBlockSize):
        leibniz_translate(skinny, 1)
    ragged = ExactTensor((3, 2), entries={})
    with pytest.raises(DimensionMismatch):
        leibniz_translate(ragged, 1)


def test_lr_pair_projector_singlet_matches_trace_pair():
    for n in (2, 3, 4):
        assert lr_pair_projector("singlet", n) == evaluate(
            pair_singlet_projector(), n)


def test_lr_pair_projector_adjoint_matches_fierz_form():
    for n in (2, 3, 4):
        assert lr_pair_projector("adjoint", n) == evaluate(
            adjoint_pair_diagram(), n)


def test_lr_pair_projector_entries_are_fractions():
    # the translation runs on integers; the projector is exact rationals
    for n in (2, 3, 4):
        for kind in ("singlet", "adjoint"):
            entries = lr_pair_projector(kind, n).entries.values()
            assert entries
            assert all(type(v) is Fraction for v in entries)


@pytest.mark.parametrize("seed, message", [
    (lambda levels, n: zero(operator_signature(n, 0)), "squares to zero"),
    (lambda levels, n: antisymmetrizer(levels, n)
     + identity(operator_signature(n, 0)), "does not square to itself"),
], ids=["zero-seed", "non-idempotent-seed"])
def test_lr_pair_projector_rejects_a_bad_seed(monkeypatch, seed, message):
    monkeypatch.setattr(epsilon, "antisymmetrizer", seed)
    for n in (2, 3):
        with pytest.raises(NotProportional, match=message):
            lr_pair_projector("singlet", n)


def test_lr_pair_projector_unknown_kind():
    with pytest.raises(ValueError):
        lr_pair_projector("octet", 3)
    with pytest.raises(BirdtrackError):
        lr_pair_projector("octet", 3)


def _small_translated_layouts():
    # every layout of Mixed(m, n), m, n <= 6, at N = 2, 3 whose transient
    # ket on Mixed(alpha, alpha) is small enough to realize densely
    return [(params, n_param, m, n) for n_param in (2, 3)
            for m in range(7) for n in range(7)
            for params in transient_singlet_params(m, n, n_param)
            if n_param ** (2 * params.alpha) <= DENSE_CAP]


def test_every_small_translated_ket_is_a_determinant_singlet():
    layouts = _small_translated_layouts()
    assert len(layouts) == 52
    for params, n_param, m, n in layouts:
        _, ket = translated_singlet_ket(params, n_param)
        assert ket, params
        assert all(len(index) == m + n for index in ket), params
        # every sl(N) generator kills it: X on the m fundamental legs,
        # -X^T on the n antifundamental ones
        for x in _sl_generators(n_param):
            legs = [x] * m + [_dual(x)] * n
            assert not _lie_action(ket, legs), (params, n_param)
        # E_00 counts the epsilons: +1 per fundamental one, -1 per
        # antifundamental one, 0 per pair
        e00 = {(0, 0): 1}
        charge = params.a - params.b
        assert _lie_action(ket, [e00] * m + [_dual(e00)] * n) == {
            index: charge * v for index, v in ket.items() if charge}


def direct_singlet_ket(params, n_param):
    """eps on each group of N fundamental legs, eps on each group of N
    antifundamental legs and delta on the k pairs, legs placed as
    translated_singlet_ket's docstring lists them."""
    a, b, k, width = params.a, params.b, params.k, n_param - 1
    m = a * n_param + k
    groups = ([tuple(range(i * width, (i + 1) * width)) + (a * width + k + i,)
               for i in range(a)]
              + [(m + i,) + tuple(range(m + b + i * width,
                                        m + b + (i + 1) * width))
                 for i in range(b)])
    pairs = [(a * width + j, m + b * n_param + j) for j in range(k)]
    symbols = epsilon_tensor(n_param).entries.items()
    ket = {}
    for epsilons in itertools.product(symbols, repeat=a + b):
        for values in itertools.product(range(n_param), repeat=k):
            index = [0] * (m + b * n_param + k)
            for group, (perm, _) in zip(groups, epsilons):
                for axis, v in zip(group, perm):
                    index[axis] = v
            for (fund, anti), v in zip(pairs, values):
                index[fund] = index[anti] = v
            ket[tuple(index)] = math.prod(int(s) for _, s in epsilons)
    return ket


def test_translated_ket_is_the_direct_epsilon_ket():
    for params, n_param, _, _ in _small_translated_layouts():
        _, ket = translated_singlet_ket(params, n_param)
        direct = direct_singlet_ket(params, n_param)
        assert ket and direct, (params, n_param)
        columns = sorted(ket.keys() | direct.keys())
        rows = [[vec.get(c, 0) for c in columns] for vec in (ket, direct)]
        assert exact_rank(rows) == 1, (params, n_param)


def test_translated_ket_refuses_work_over_the_dense_cap(monkeypatch):
    params, = transient_singlet_params(10, 1, 3)
    assert params == TransientParams(3, 0, 1, 7)
    assert 3 ** (2 * params.alpha) > DENSE_CAP

    def build(*_):
        raise AssertionError("built the operator before the cap check")

    monkeypatch.setattr(epsilon, "_transient_operator", build)
    with pytest.raises(OutOfRange, match="exceeds cap"):
        translated_singlet_ket(params, 3)


def test_baryon_equivalence_holds_at_three():
    params, = transient_singlet_params(3, 0, 3)
    _, ket = translated_singlet_ket(params, 3)
    # the translated three-quark ket is a multiple of epsilon, so its
    # projector is the antisymmetrizer on three strands
    c = ket[(0, 1, 2)]
    assert ket == {perm: c * int(s)
                   for perm, s in epsilon_tensor(3).entries.items()}
    norm = sum(v * v for v in ket.values())
    projector = {out + into: Fraction(x * y, norm)
                 for out, x in ket.items() for into, y in ket.items()}
    assert projector == evaluate(antisymmetrizer([1, 2, 3], 3), 3).entries
    assert verify_baryon_equivalence(3)


def test_baryon_correlator_needs_the_inverse_transpose():
    # antiquarks take the conjugate: every sl(3) generator X kills the
    # (1,0,0,2) transient ket on Mixed(2,2) when it acts as -X^T on the
    # antifundamental legs, and +X^T breaks that
    ket = epsilon._transient_operator(TransientParams(1, 0, 0, 2), 3).bend()
    assert ket.sig.orientations == "qqbb"
    _, entries = integer_entries(ket, 3)

    def transpose(x):
        return {(c, r): v for (r, c), v in x.items()}

    for anti, killed in ((_dual, True), (transpose, False)):
        moved = [_lie_action(entries, [x, x, anti(x), anti(x)])
                 for x in _sl_generators(3)]
        assert (not any(moved)) is killed


def test_baryon_equivalence_fails_off_three():
    # at N=4 the three-box column is binomial(4,3) = 4 dimensional, so the
    # three-quark operator has no singlet partner to be equivalent to
    assert shape_dimension("[1,1,1]", 4) == 4
    assert transient_singlet_params(3, 0, 4) == []
    assert not verify_baryon_equivalence(4)


def test_untwisted_translation_flips_one_sign():
    state = antisymmetrizer([1, 2], 2).bend()
    st = evaluate(state, 3)
    main, _ = leibniz_translate(st.permuted((2, 3, 0, 1)), 1)
    swapped, _ = leibniz_translate(st.permuted((3, 2, 0, 1)), 1)
    assert swapped.entries == {k: -v for k, v in main.entries.items()}


def test_partial_trace_prefactor_at_boundary():
    # closing p - k legs of the length-p antisymmetrizer leaves the
    # length-k one, scaled by (N-k)! k! / ((N-p)! p!); checked at N = p
    # where the symbol would otherwise be on the edge of vanishing
    for p, k in ((3, 1), (3, 2), (4, 2)):
        asym = antisymmetrizer(range(1, p + 1), p)
        closed = asym.partial_trace(range(k, p))
        factor = Fraction(math.factorial(p - k) * math.factorial(k),
                          math.factorial(p))
        want = antisymmetrizer(range(1, k + 1), k).scaled(rf([factor]))
        assert evaluate(closed, p) == evaluate(want, p)


def test_antisymmetrizer_absorption_numeric():
    for short, long in ((2, 3), (3, 4)):
        inner = antisymmetrizer(range(1, short + 1), long)
        outer = antisymmetrizer(range(1, long + 1), long)
        for n in (3, 4, 5):
            assert evaluate(compose(outer, inner), n) == evaluate(outer, n)
