import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from birdtracks import coefficients, tracebasis
from birdtracks.coefficients import RadicalCoefficient, rf
from birdtracks.diagrams import (
    InvariantElement,
    Signature,
    _gram_form,
    compose,
    identity,
    inner_product,
    operator_signature,
    permutation_element,
)
from birdtracks.errors import InvalidDecomposition, OutOfRange
from birdtracks.numeric import evaluate, exact_rank, integer_entries
from birdtracks.singlets import _ket_projector, gram_matrix, singlet_count
from birdtracks.tracebasis import (
    CycleDecomposition,
    adjoint_pair_diagram,
    all_decompositions,
    derangement_block,
    derangement_states,
    normalized_trace_basis,
    pair_singlet_projector,
    raw_trace_states,
    trace_basis_state,
)
from su_generators import generalized_gell_mann


def rc(num, den=(1,)):
    return RadicalCoefficient.from_rational(rf(num, den))


def test_cycle_decomposition_canonical_form():
    rho = CycleDecomposition.from_text("(2 3 1)")
    assert rho.cycles == ((1, 2, 3),)
    assert rho.k == 3
    rho = CycleDecomposition.from_text("(3 1)", k=3)
    assert rho.cycles == ((1, 3), (2,))
    assert rho.to_text() == "(1 3)(2)"
    assert sorted(map(len, rho.cycles), reverse=True) == [2, 1]
    assert not all(len(c) > 1 for c in rho.cycles)
    assert all(len(c) > 1
               for c in CycleDecomposition.from_text("(1 2)(3 4)").cycles)
    e = CycleDecomposition.from_text("e", k=2)
    assert e.cycles == ((1,), (2,))


def test_cycle_decomposition_permutation_round_trip():
    for perm in itertools.permutations(range(4)):
        rho = CycleDecomposition.from_permutation(perm)
        assert rho.to_permutation() == perm
        again = CycleDecomposition(rho.cycles)
        assert again == rho and hash(again) == hash(rho)


def test_cycle_decomposition_rejects_bad_input():
    with pytest.raises(InvalidDecomposition):
        CycleDecomposition([(1, 2), (2, 3)])
    with pytest.raises(InvalidDecomposition):
        CycleDecomposition([(0, 1)])
    with pytest.raises(InvalidDecomposition):
        CycleDecomposition([(1, 4)], k=3)
    with pytest.raises(InvalidDecomposition):
        CycleDecomposition.from_text("e")
    with pytest.raises(InvalidDecomposition):
        CycleDecomposition.from_text("(1 2")
    with pytest.raises(InvalidDecomposition):
        CycleDecomposition.from_permutation((1, 2, 0, 0))


def test_identity_state_is_delta_pairs():
    e = trace_basis_state("(1)(2)(3)")
    assert e.n_terms() == 1
    assert inner_product(e, e) == rc([0, 0, 0, 1])
    only = next(iter(e.terms))
    assert only.perm == (0, 1, 2)


def test_two_cycle_state_terms():
    t = trace_basis_state("(1 2)")
    swap = permutation_element(Signature("qqbb", role="ket"), (1, 0))
    ident = permutation_element(Signature("qqbb", role="ket"), (0, 1))
    assert t == swap - ident.scaled(rf([1], [0, 1]))
    assert inner_product(t, t) == rc([-1, 0, 1])
    t3 = trace_basis_state("(1 2)(3)")
    assert inner_product(t3, t3) == rc([0, -1, 0, 1])


def test_fierz_projection_orthogonalizes_short_states():
    e = trace_basis_state("(1)(2)(3)")
    t12 = trace_basis_state("(1 2)(3)")
    t13 = trace_basis_state("(1 3)(2)")
    s123 = trace_basis_state("(1 2 3)")
    assert inner_product(t12, e).is_zero()
    assert inner_product(t12, t13).is_zero()
    assert inner_product(s123, e).is_zero()
    assert inner_product(s123, t12).is_zero()


def test_three_cycle_inner_products():
    s123 = trace_basis_state("(1 2 3)")
    s132 = trace_basis_state("(1 3 2)")
    # diagonal (N^2-1)(N^2-2)/N; the two orientations overlap at
    # -2(N^2-1)/N, fixed by Tr(t^a t^b) = delta^ab and cross-checked
    # against explicit generators in test_three_cycle_overlap_of_generators
    x = rc([2, 0, -3, 0, 1], [0, 1])
    y = rc([2, 0, -2], [0, 1])
    assert inner_product(s123, s123) == x
    assert inner_product(s132, s132) == x
    assert inner_product(s123, s132) == y
    assert inner_product(s132, s123) == y


def _generator_state(n, k, order):
    # trace of a generator word, one generator per pair, as a tensor with
    # fundamental axes first; pair p receives the generator at position
    # order.index(p) of the trace
    gens = generalized_gell_mann(n)
    total = np.zeros((n,) * (2 * k), dtype=complex)
    ein_in = ",".join(chr(97 + p) + chr(97 + k + p) for p in range(k))
    ein = ein_in + "->" + "".join(chr(97 + i) for i in range(2 * k))
    for combo in itertools.product(range(len(gens)), repeat=k):
        word = gens[combo[0]]
        for c in combo[1:]:
            word = word @ gens[c]
        weight = np.trace(word)
        if abs(weight) < 1e-14:
            continue
        placed = [None] * k
        for pos, p in enumerate(order):
            placed[p - 1] = gens[combo[pos]]
        total += weight * np.einsum(ein, *placed)
    return total


def _as_dense(state, n, k):
    out = np.zeros((n,) * (2 * k), dtype=complex)
    for key, val in evaluate(state, n).entries.items():
        out[key] = float(val)
    return out


def test_three_cycle_state_matches_explicit_generators():
    # a generator trace read left to right steps each pair's
    # antifundamental leg to the previous pair in the word, so trace
    # order (1,2,3) is the state of the reversed cycle
    for cycle, order in (("(1 3 2)", (1, 2, 3)), ("(1 2 3)", (1, 3, 2))):
        state = trace_basis_state(cycle)
        for n in (2, 3):
            num = _generator_state(n, 3, order)
            assert abs(num - _as_dense(state, n, 3)).max() < 1e-12


def test_three_cycle_overlap_of_generators():
    # Tr(t^a t^b t^c) = (d^abc + i f^abc)/sqrt(2), so the overlap of the two
    # orientations is (d.d - f.f)/2 with d.d = (N^2-4)(N^2-1)/N and
    # f.f = N(N^2-1)
    for n in (2, 3, 4):
        forward = _generator_state(n, 3, (1, 2, 3))
        backward = _generator_state(n, 3, (1, 3, 2))
        assert abs(np.vdot(forward, backward) + 2 * (n * n - 1) / n) < 1e-12


def test_four_cycle_state_matches_explicit_generators():
    state = trace_basis_state("(1 4 3 2)")
    for n in (2, 3):
        num = _generator_state(n, 4, (1, 2, 3, 4))
        assert abs(num - _as_dense(state, n, 4)).max() < 1e-12


def test_five_cycle_state_matches_explicit_generators():
    # 3^5 generator words at N=2; the closed form is general in the length
    state = trace_basis_state("(1 5 4 3 2)")
    num = _generator_state(2, 5, (1, 2, 3, 4, 5))
    assert abs(num - _as_dense(state, 2, 5)).max() < 1e-12


def test_four_cycle_norm():
    c4 = trace_basis_state("(1 2 3 4)")
    assert inner_product(c4, c4) == rc([-3, 0, 6, 0, -4, 0, 1], [0, 0, 1])


def test_df_states_split():
    # the half-sum and half-difference of the two 3-cycle states
    s123 = trace_basis_state("(1 2 3)")
    s132 = trace_basis_state("(1 3 2)")
    d = (s123 + s132).scaled(Fraction(1, 2))
    f = (s123 - s132).scaled(Fraction(1, 2))
    assert inner_product(d, f).is_zero()
    assert inner_product(f, f) == rc([0, -1, 0, 1], [2])
    assert inner_product(d, d) == rc([4, 0, -5, 0, 1], [0, 2])
    assert evaluate(d, 2).entries == {}
    assert evaluate(d, 3).entries != {}


def test_gram_of_raw_states_drops_rank_at_small_n():
    states = raw_trace_states(3)
    gram = [[inner_product(a, b) for b in states] for a in states]

    def rank_at(n):
        rows = [[entry.eval_rational(n) for entry in row] for row in gram]
        return exact_rank(rows)

    assert rank_at(2) == 5
    assert rank_at(1) == 1
    assert all(rank_at(n) == 6 for n in (3, 4, 5))


def test_symbolic_gram_matches_numeric_tensors():
    states = raw_trace_states(3)
    dense = {}
    for n in (2, 3, 4, 5):
        dense[n] = [evaluate(s, n) for s in states]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            sym = inner_product(a, b)
            for n in (2, 3, 4, 5):
                num = Fraction(0)
                tb = dense[n][j].entries
                for key, val in dense[n][i].entries.items():
                    other = tb.get(key)
                    if other is not None:
                        num += val * other
                assert sym.eval_rational(n) == num


def test_trace_states_span_the_bent_permutations():
    for k in (2, 3):
        states = raw_trace_states(k)
        diags = sorted({d for st in states for d in st.terms},
                       key=lambda d: d.perm)
        assert len(diags) == len(states)
        rows = []
        for st in states:
            rows.append([st.terms[d].eval_rational(7) if d in st.terms
                         else Fraction(0) for d in diags])
        assert exact_rank(rows) == len(states)


def test_all_decompositions_order():
    texts = [rho.to_text() for rho in all_decompositions(3)]
    assert texts == ["(1)(2)(3)", "(1)(2 3)", "(1 2)(3)", "(1 3)(2)",
                     "(1 2 3)", "(1 3 2)"]
    assert len(all_decompositions(4)) == 24
    with pytest.raises(OutOfRange):
        all_decompositions(0)


def _order_key(perm):
    # fewer moved points, then cycle type (longest cycle first, fixed
    # points included) in lexicographic order, then the one-line tuple
    lengths, seen = [], set()
    for start in range(len(perm)):
        n, j = 0, start
        while j not in seen:
            seen.add(j)
            j, n = perm[j], n + 1
        if n:
            lengths.append(n)
    moved = sum(1 for i, x in enumerate(perm) if x != i)
    return moved, tuple(sorted(lengths, reverse=True)), perm


@pytest.mark.parametrize("k", [4, 5])
def test_all_decompositions_follow_the_documented_key(k):
    got = [rho.to_permutation() for rho in all_decompositions(k)]
    assert got == sorted(itertools.permutations(range(k)), key=_order_key)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_trace_states_stay_paired_with_their_labels(k):
    # the CLI pairs labels and states by index
    rhos = all_decompositions(k)
    states = raw_trace_states(k)
    assert len(states) == len(rhos)
    for rho, state in zip(rhos, states):
        assert state == trace_basis_state(rho), rho
    if k > 1:
        fixed_point_free = [state for rho, state in zip(rhos, states)
                            if all(len(c) > 1 for c in rho.cycles)]
        assert derangement_states(k) == fixed_point_free


def test_the_trace_route_builds_no_cycle_decomposition(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("the trace route built a CycleDecomposition")

    monkeypatch.setattr(CycleDecomposition, "__init__", refuse)
    derangement_block.cache_clear()
    assert len(raw_trace_states(4)) == 24
    assert len(derangement_block.__wrapped__(5)[1]) == 44
    assert len(normalized_trace_basis(4)) == 24
    assert [singlet_count(4, n) for n in range(1, 6)] == [1, 14, 23, 24, 24]


def test_derangement_states_count_and_annihilation():
    assert len(derangement_states(2)) == 1
    assert len(derangement_states(3)) == 2
    assert len(derangement_states(4)) == 9
    with pytest.raises(OutOfRange):
        derangement_states(1)
    for state in derangement_states(3):
        for pair in (1, 2, 3):
            assert compose(pair_singlet_projector(3, pair), state).is_zero()
    assert compose(pair_singlet_projector(2, 1), derangement_states(2)[0]).is_zero()


def test_trace_state_denominators_are_monomials():
    # every coefficient is a product of weights c (-1/N)^j, so it is
    # rational over c N^j, which no integer N >= 1 makes vanish; the trace
    # route of singlet_count relies on this and takes no pole check
    states = [state for k in range(1, 6) for state in raw_trace_states(k)]
    states += derangement_states(6)
    coefficients = [c for state in states for c in state.terms.values()]
    assert len(coefficients) == 11787
    for c in coefficients:
        assert c.is_rational()
        den = c.rational_part().den
        assert not any(den[:-1]), den


def _perm_forms(form):
    # a Gram form as {(radicand, perm): (num, den)}, with the inverse
    # perm checked on the way
    out = {}
    for key, den, rows in form:
        for perm, inverse, num in rows:
            assert tuple(perm[x] for x in inverse) == tuple(range(len(perm)))
            out[key, perm] = (num, den)
    return out


def test_trace_states_carry_the_gram_form_of_their_terms():
    # _trace_state attaches the Gram form as it builds the state; it is
    # the one _gram_form reads off the terms of an equal fresh element.
    # A cycle of length l >= 2 expands into 2^l - l distinct maps, so the
    # state has one term per expansion term: none merge
    states = [(rho.cycles, state) for k in range(1, 6) for rho, state
              in zip(all_decompositions(k), raw_trace_states(k))]
    moved = [rho for rho in all_decompositions(6)
             if all(len(c) > 1 for c in rho.cycles)]
    states += zip((rho.cycles for rho in moved), derangement_states(6))
    assert len(states) == 153 + 265
    for cycles, state in states:
        assert state._gram is not None
        fresh = _gram_form(InvariantElement(state.sig, dict(state.terms)))
        assert _perm_forms(state._gram) == _perm_forms(fresh), cycles
        assert state.n_terms() == math.prod(2 ** len(c) - len(c)
                                            for c in cycles if len(c) > 1)


def test_trace_states_build_without_rational_function_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("a trace state multiplied or added over Q(N)")

    monkeypatch.setattr(coefficients, "_rf_mul", refuse)
    monkeypatch.setattr(coefficients, "_rf_add", refuse)
    assert len(raw_trace_states(4)) == 24
    assert len(derangement_states(5)) == 44


def test_pair_singlet_projector():
    p = pair_singlet_projector()
    assert compose(p, p) == p
    assert p.trace() == rc([1])
    p2 = pair_singlet_projector(2, 2)
    assert compose(p2, p2) == p2
    with pytest.raises(OutOfRange):
        pair_singlet_projector(2, 3)


def test_adjoint_pair_diagram():
    adj = adjoint_pair_diagram()
    sing = pair_singlet_projector()
    assert adj.trace() == rc([-1, 0, 1])
    assert compose(adj, adj) == adj
    assert adj + sing == identity(operator_signature(1, 1))
    assert compose(adj, sing).is_zero()
    assert compose(sing, adj).is_zero()
    assert evaluate(adj, 3).trace() == 8


def test_normalized_trace_basis_xi_pattern():
    ops = normalized_trace_basis(3)
    assert len(ops) == 6
    betas = [op.normalization for op in ops]
    xi2sq = rc([1], [0, -1, 0, 1])
    assert betas[0] == rc([1], [0, 0, 0, 1])
    assert betas[1] == betas[2] == betas[3] == xi2sq
    assert betas[4] == rc([1], [0, -2, 0, 2])
    assert betas[5] == rc([0, 1], [8, 0, -10, 0, 2])
    kets = [op.ket for op in ops]
    for i in range(6):
        for j in range(i + 1, 6):
            assert inner_product(kets[i], kets[j]).is_zero()


def test_normalized_trace_basis_small_k():
    ops1 = normalized_trace_basis(1)
    assert len(ops1) == 1
    assert ops1[0].normalization == rc([1], [0, 1])
    assert ops1[0].ket.n_terms() == 1
    ops2 = normalized_trace_basis(2)
    assert [op.normalization for op in ops2] == [rc([1], [0, 0, 1]),
                                                 rc([1], [-1, 0, 1])]
    # the two k=2 trace states are orthogonal as built: Fierz projection
    # has already removed the delta component from the swap state
    states = raw_trace_states(2)
    assert inner_product(states[0], states[1]).is_zero()
    assert inner_product(states[0], states[0]) == rc([0, 0, 1])
    assert inner_product(states[1], states[1]) == rc([-1, 0, 1])


def reference_normalized_trace_basis(k):
    """normalized_trace_basis by Gram-Schmidt on whole states."""
    states = raw_trace_states(k)
    if k == 3:
        s123, s132 = states[4], states[5]
        states[4] = s123 - s132
        states[5] = s123 + s132
    ortho, norms = [], []
    for v in states:
        for w, nw in zip(ortho, norms):
            overlap = inner_product(w, v)
            if not overlap.is_zero():
                v = v - w.scaled(overlap / nw)
        assert not v.is_zero()
        ortho.append(v)
        norms.append(inner_product(v, v))
    return [_ket_projector(ket, labels=(i,)) for i, ket in enumerate(ortho)]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_normalized_trace_basis_matches_gram_schmidt(k):
    got = normalized_trace_basis(k)
    want = reference_normalized_trace_basis(k)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.ket.terms == b.ket.terms
        assert a.normalization == b.normalization
        assert a.labels == b.labels and a.kind == b.kind
        assert a.bra == a.ket


@pytest.mark.parametrize("n", [2, 3, 4])
def test_k4_normalized_kets_are_orthogonal_as_dense_tensors(n):
    # an oracle outside the symbolic layer: the exact tensors of the 24
    # kets, dotted entry by entry, are orthogonal with norms 1/beta_i
    basis = normalized_trace_basis(4)
    tensors = [integer_entries(op.ket, n) for op in basis]

    def dot(a, b):
        (den_a, nums_a), (den_b, nums_b) = a, b
        total = sum(num * nums_b.get(key, 0) for key, num in nums_a.items())
        return Fraction(total, den_a * den_b)

    off_diagonal = [dot(tensors[i], tensors[j])
                    for i in range(len(basis)) for j in range(i)]
    assert len(off_diagonal) == 276
    assert not any(off_diagonal)
    for op, tensor in zip(basis, tensors):
        assert dot(tensor, tensor) == (1 / op.normalization).eval_rational(n)


def test_dependent_trace_states_are_refused(monkeypatch):
    # the basis factors the derangement Gram blocks, so make the k=2 block
    # that of the swap state and twice the swap state
    (swap,) = derangement_states(2)
    states = (swap, swap.scaled(2))
    gram = tuple(inner_product(a, b).rational_part()
                 for a in states for b in states)
    monkeypatch.setattr(tracebasis, "derangement_block",
                        lambda s: (gram, ((0, 1), (2, 3))))
    with pytest.raises(InvalidDecomposition, match="linearly dependent"):
        normalized_trace_basis(2)


def _moved_set(rho):
    return frozenset(i for i, x in enumerate(rho.to_permutation()) if x != i)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_trace_gram_is_block_diagonal_by_moved_set(k):
    # in the full Gram matrix, states with different moved sets are
    # orthogonal, and the block of a moved set S is N^(k-|S|) D_|S|
    moved = [_moved_set(rho) for rho in all_decompositions(k)]
    gram = gram_matrix(raw_trace_states(k))
    blocks = {}
    for i, ms in enumerate(moved):
        blocks.setdefault(ms, []).append(i)
    for i, row in enumerate(gram):
        for j, entry in enumerate(row):
            if moved[i] != moved[j]:
                assert entry.is_zero(), (i, j)
    for ms, indices in blocks.items():
        s = len(ms)
        if s:
            entries, rows = derangement_block(s)
            d = [[entries[j] for j in row] for row in rows]
        else:
            d = [[rf([1])]]
        assert len(d) == len(indices)
        scale = rf([0] * (k - s) + [1])
        for a, i in enumerate(indices):
            for b, j in enumerate(indices):
                assert gram[i][j] == scale * d[a][b], (ms, i, j)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_trace_singlet_count_is_the_rank_of_the_full_gram(k):
    # the reference route: the k!-by-k! Gram matrix of the raw states
    gram = gram_matrix(raw_trace_states(k))
    for n in range(1, 9):
        want = exact_rank([[entry.eval_rational(n) for entry in row]
                           for row in gram])
        assert singlet_count(k, n, "trace") == want, (k, n)


def _relabel(pi, perm):
    # pi perm pi^-1: the matching perm with every pair p renamed pi(p)
    out = [None] * len(perm)
    for j, x in enumerate(perm):
        out[pi[j]] = pi[x]
    return tuple(out)


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_derangement_block_matches_the_pairwise_gram(s):
    # the reference route: an inner product for every pair of states
    states = tuple(derangement_states(s))
    want = tuple(tuple(entry.rational_part() for entry in row)
                 for row in gram_matrix(states))
    entries, rows = derangement_block(s)
    got = [[entries[j] for j in row] for row in rows]
    assert len(got) == len(want)
    for i, (got_row, want_row) in enumerate(zip(got, want)):
        assert len(got_row) == len(want_row)
        for j, (a, b) in enumerate(zip(got_row, want_row)):
            assert (a.num, a.den) == (b.num, b.den), (s, i, j)


@pytest.mark.parametrize("s, distinct", [(2, 1), (3, 2), (4, 7), (5, 16)])
def test_derangement_block_keeps_each_entry_once(s, distinct):
    entries, rows = derangement_block(s)
    assert len(entries) == distinct
    assert all(a != b for a, b in itertools.combinations(entries, 2))
    assert len(rows) == len(derangement_states(s))
    assert all(len(row) == len(rows) for row in rows)
    assert {j for row in rows for j in row} == set(range(distinct))
    d = [[entries[j] for j in row] for row in rows]
    assert all(d[i][j] == d[j][i]
               for i in range(len(d)) for j in range(i))


def _block_at(block, values):
    return [[sum(w * v for w, v in zip(cell, values)) for cell in row]
            for row in block]


def _det(rows):
    """Determinant of a rational matrix by Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(rows)):
        p = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            q = rows[r][c] / rows[c][c]
            rows[r] = [a - q * b for a, b in zip(rows[r], rows[c])]
    return det


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_isotypic_block_ranks_add_up_to_the_derangement_rank(s):
    # the reference: exact_rank of the whole D_s(N)
    entries, rows = derangement_block(s)
    blocks = tracebasis._isotypic_blocks(s)
    for n in range(1, 9):
        values = [entry.eval_at(n) for entry in entries]
        want = exact_rank([[values[j] for j in row] for row in rows])
        got = sum(f * exact_rank(_block_at(block, values))
                  for f, block in blocks)
        assert got == want, n


@pytest.mark.parametrize("s, d", [(2, 1), (3, 2), (4, 9), (5, 44), (6, 265)])
def test_isotypic_blocks_fill_the_derangement_block(s, d):
    entries, rows = derangement_block(s)
    blocks = tracebasis._isotypic_blocks(s)
    assert len(rows) == d
    assert sum(f * len(block) for f, block in blocks) == d
    for _, block in blocks:
        assert all(len(row) == len(block) for row in block)
        assert all(len(cell) == len(entries) for row in block for cell in row)
        assert all(block[a][b] == block[b][a]
                   for a in range(len(block)) for b in range(a))
    if s == 4:
        assert [(f, len(block)) for f, block in blocks] == [
            (1, 2), (2, 2), (3, 1)]
    if s == 6:
        assert max(len(block) for _, block in blocks) == 6


@pytest.mark.parametrize("s", [3, 4, 5])
def test_isotypic_blocks_keep_the_determinant_up_to_a_constant(s):
    # the blocks are D_s in another basis, up to f_mu-fold copies, so the
    # ratio of determinants does not depend on N
    entries, rows = derangement_block(s)
    ratios = set()
    for n in range(s, s + 4):
        values = [entry.eval_at(n) for entry in entries]
        product = math.prod(_det(_block_at(block, values)) ** f
                            for f, block in tracebasis._isotypic_blocks(s))
        ratios.add(product / _det([[values[j] for j in row] for row in rows]))
    assert len(ratios) == 1 and 0 not in ratios, ratios


@pytest.mark.parametrize("s", [3, 4, 5])
def test_trace_states_relabel_under_conjugation(s):
    def state(perm):
        return trace_basis_state(CycleDecomposition.from_permutation(perm))

    rng = random.Random(2500 + s)
    perms = list(itertools.permutations(range(s)))
    derangements = [rho.to_permutation() for rho in all_decompositions(s)
                    if all(len(c) > 1 for c in rho.cycles)]
    for _ in range(3):
        pi = rng.choice(perms)
        for rho in rng.sample(derangements, min(4, len(derangements))):
            relabelled = {_relabel(pi, d.perm): c
                          for d, c in state(rho).terms.items()}
            moved = state(_relabel(pi, rho))
            assert {d.perm: c for d, c in moved.terms.items()} == relabelled
        for _ in range(3):
            rho, sigma = rng.choice(derangements), rng.choice(derangements)
            assert inner_product(state(rho), state(sigma)) == inner_product(
                state(_relabel(pi, rho)), state(_relabel(pi, sigma))), \
                (pi, rho, sigma)


@pytest.mark.parametrize("s, most", [(2, 1), (3, 2), (4, 9), (5, 21)])
def test_derangement_block_takes_one_row_per_cycle_type(monkeypatch, s, most):
    # all pairs would take 1, 3, 45 and 990 inner products
    calls = []

    def counting(a, b):
        calls.append(None)
        return inner_product(a, b)

    monkeypatch.setattr(tracebasis, "inner_product", counting)
    tracebasis.derangement_block.__wrapped__(s)
    assert 0 < len(calls) <= most
