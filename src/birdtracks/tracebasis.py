"""Singlet states on Mixed(k,k) built from permutation cycle structure.

A permutation of k objects, written in disjoint cycle form, labels a
product of traces of fundamental-representation generators: each cycle
(c1 c2 ... cl) stands for Tr(t^{a1} t^{a2} ... t^{al}) with the generator
t^{as} attached to the (V, V*) pair c_s.  Eliminating every generator
line through the Fierz identity (with Tr(t^a t^b) = delta^{ab}) turns the
whole expression into a sum of Kronecker-delta diagrams with rational
coefficients in N.  This module builds those states, the d/f-type
combinations that appear at k = 3, and normalized projector families.
"""

import itertools
from functools import lru_cache

from .coefficients import (
    RadicalCoefficient,
    RationalFunction,
    _ONE,
    _RF_N,
    _RF_ONE,
    _RF_ZERO,
    _UNIT_KEY,
    _p_add,
    _p_exquo,
    _p_lcm,
    _p_mul,
    rf,
)
from .diagrams import (
    InvariantElement,
    _Record,
    _conjugate,
    _cycle_entries,
    _cycles,
    _diagram,
    _gram_form,
    _one_line,
    _perm_inverse,
    _perm_sign,
    _permutation,
    identity,
    inner_product,
    ket_signature,
    operator_signature,
    permutation_element,
)
from .errors import InvalidDecomposition, integer
from .symmetrizers import _partitions, _standard_tableaux, _young_groups


class CycleDecomposition(_Record):
    """A permutation of 1..k in canonical disjoint cycle form.

    Every element appears exactly once, fixed points included.  Each cycle
    is rotated so its smallest element comes first, and the cycles are
    sorted by their smallest elements.
    """

    __slots__ = ("k", "cycles")

    def __init__(self, cycles, k=None):
        cycles = [tuple(c) for c in cycles]
        if k is None:
            # the largest entry; _one_line checks every entry against it
            k = max((integer(e, "cycle entry", 1, error=InvalidDecomposition)
                     for c in cycles for e in c), default=0)
        k = integer(k, "k", 1, error=InvalidDecomposition)
        canon = _cycles(_one_line(cycles, k, InvalidDecomposition))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "cycles",
                           tuple(tuple(x + 1 for x in c) for c in canon))

    @classmethod
    def from_text(cls, text: str, k: int | None = None) -> "CycleDecomposition":
        """Parse notation like "(1 2 3)" or "(1 2)(3)"; "e" is the identity.

        Unlisted elements of 1..k become explicit fixed points.
        """
        cycles = _cycle_entries(text, InvalidDecomposition)
        if not cycles and k is None:
            raise InvalidDecomposition("identity shorthand needs k")
        return cls(cycles, k)

    @classmethod
    def from_permutation(cls, perm) -> "CycleDecomposition":
        """Build from a 0-based one-line permutation tuple."""
        perm = tuple(perm)
        perm = _permutation(perm, len(perm), InvalidDecomposition)
        return cls([[x + 1 for x in c] for c in _cycles(perm)], len(perm))

    def to_permutation(self) -> tuple[int, ...]:
        """The 0-based one-line form."""
        return _one_line(self.cycles, self.k)

    def to_text(self) -> str:
        return "".join("(" + " ".join(str(x) for x in c) + ")"
                       for c in self.cycles)

    def __repr__(self):
        return f"CycleDecomposition({self.to_text()!r}, k={self.k})"


def _cycle_terms(cycle: tuple[int, ...]):
    """Delta-diagram expansion of one generator trace cycle.

    Returns (partial pair-map, c, j) terms, each of weight c (-1/N)^j
    with ints c and j.  The map sends each pair label of the cycle to the
    pair label its antifundamental leg connects to on the fundamental
    side; unlisted connections are within the pair itself.

    A length-l cycle expands, after Fierz elimination of the l adjoint
    lines, into one term per subset of at least two pairs threaded in the
    cycle's own cyclic order, with c = 1 and j = l - |subset|, the
    removed pairs closing into deltas, plus all deltas with c = j = l - 1.
    These 2^l - l maps are distinct.
    """
    ell = len(cycle)
    terms = []
    for size in range(2, ell + 1):
        for subset in itertools.combinations(cycle, size):
            part = {p: p for p in cycle}
            for i, p in enumerate(subset):
                part[p] = subset[(i + 1) % size]
            terms.append((part, 1, ell - size))
    terms.append(({p: p for p in cycle}, ell - 1, ell - 1))
    return terms


def trace_basis_state(rho) -> InvariantElement:
    """The generator-trace singlet ket on Mixed(k,k) labeled by rho.

    rho may be a CycleDecomposition or cycle text.  Fixed points
    contribute a bare delta pair; longer cycles contribute their full
    Fierz expansion.  Coefficients are rational functions of N.
    """
    if isinstance(rho, str):
        rho = CycleDecomposition.from_text(rho)
    if not isinstance(rho, CycleDecomposition):
        raise InvalidDecomposition(f"cannot interpret {rho!r}")
    return _trace_state(rho.to_permutation())


def _trace_state(perm: tuple[int, ...]) -> InvariantElement:
    """trace_basis_state of a 0-based one-line permutation.

    Each term takes one _cycle_terms term per cycle (a fixed point's is
    c = 1, j = 0) and multiplies their weights in ints: the c's multiply,
    the j's add.  Cycles touch distinct pairs, so no two terms merge.  The
    Gram form is attached in the same pass: over N^J, J = k - (number of
    cycles) being the largest j, weight c (-1/N)^j has numerator
    (-1)^j c N^(J-j).  Terms of one weight share one coefficient.
    """
    k = len(perm)
    sig = ket_signature(k, k)
    per_cycle = [[({c[0]: c[0]}, 1, 0)] if len(c) == 1 else _cycle_terms(c)
                 for c in _cycles(perm)]
    top = k - len(per_cycle)  # the largest j
    weights = {}  # (c, j) -> (coefficient, Gram-form numerator)
    terms, rows = {}, []
    for combo in itertools.product(*per_cycle):
        links = {}
        c, j = 1, 0
        for part, c_part, j_part in combo:
            links.update(part)
            c *= c_part
            j += j_part
        if (c, j) not in weights:
            num = (-c if j % 2 else c,)
            weights[c, j] = (RadicalCoefficient.from_rational(RationalFunction(
                num, (0,) * j + (1,), _reduced=True)), (0,) * (top - j) + num)
        coeff, num = weights[c, j]
        image = tuple(links[p] for p in range(k))
        terms[_diagram(sig, image)] = coeff
        rows.append((image, _perm_inverse(image), num))
    state = InvariantElement(sig, terms)
    object.__setattr__(state, "_gram", [(_UNIT_KEY, (0,) * top + (1,), rows)])
    return state


def pair_singlet_projector(k: int = 1, pair: int = 1) -> InvariantElement:
    """Projector of one (V, V*) pair of Mixed(k,k) onto its singlet.

    Acts as (1/N) |delta><delta| on the chosen pair and as the identity
    on every other pair.
    """
    k = integer(k, "k", 1)
    pair = integer(pair, "pair", 1, k)
    sig = operator_signature(k, k)
    perm = list(range(2 * k))
    perm[pair - 1], perm[k + pair - 1] = perm[k + pair - 1], perm[pair - 1]
    return permutation_element(sig, perm, rf([1], [0, 1]))


def adjoint_pair_diagram(k: int = 1, pair: int = 1) -> InvariantElement:
    """Projector of one (V, V*) pair of Mixed(k,k) onto its adjoint part.

    The Fierz identity splits the pair identity into singlet plus
    adjoint, so this is the identity minus the pair singlet projector.
    It is idempotent and at k = 1 has trace N^2 - 1.
    """
    return identity(operator_signature(k, k)) - pair_singlet_projector(k, pair)


def all_decompositions(k: int):
    """Every CycleDecomposition on 1..k in a fixed deterministic order.

    The identity comes first, then fewer moved points before more, then
    coarser cycle type, then one-line lexicographic order.
    """
    return [CycleDecomposition.from_permutation(p) for p in _ordered(k)]


def _ordered(k: int) -> list[tuple[int, ...]]:
    """The 0-based one-line permutations in all_decompositions(k) order."""
    def key(perm):
        lengths = sorted(map(len, _cycles(perm)), reverse=True)
        return (sum(n for n in lengths if n > 1), tuple(lengths), perm)

    return sorted(itertools.permutations(range(integer(k, "k", 1))), key=key)


@lru_cache(maxsize=None)
def _derangements(s: int) -> tuple[tuple[int, ...], ...]:
    """The fixed-point-free permutations among _ordered(s), in its order."""
    return tuple(p for p in _ordered(s)
                 if all(x != i for i, x in enumerate(p)))


def derangement_states(k: int):
    """Trace states of the fixed-point-free permutations of 1..k.

    There are subfactorial(k) of them.  Every pair of such a state sits
    entirely inside a generator trace, so projecting any single pair onto
    its singlet annihilates the state.
    """
    return [_trace_state(p) for p in _derangements(integer(k, "k", 2))]


def raw_trace_states(k: int):
    """All k! trace states in the order of all_decompositions(k)."""
    return [_trace_state(p) for p in _ordered(k)]


@lru_cache(maxsize=None)
def derangement_block(s: int):
    """The Gram matrix D_s of the derangement trace states on s points.

    Returns (entries, rows) as tuples: each distinct inner product <i|j>
    over Q(N) once, and rows[i][j], the index in entries of D_s[i][j],
    for the states of derangement_states(s) in order.  The Gram matrix of
    raw_trace_states(k) is block diagonal by moved set.  The states whose
    moved set S has s points, in all_decompositions(k) order, have the
    block N^(k-s) D_s: relabelling S onto 1..s in order keeps that order,
    and each fixed point is a delta pair that closes one loop.  States
    with different moved sets are orthogonal, since a delta pair glued to
    a moved pair traces a generator, and Tr t^a = 0.

    Relabelling the s pairs by a permutation pi is unitary and maps
    T_rho to T_{pi rho pi^-1}, so <T_rho|T_sigma> = <T_rho0|T_{pi^-1
    sigma pi}> whenever pi rho0 pi^-1 = rho.  D_s is therefore built from
    one row per cycle type, that of its first derangement rho0: an entry
    is constant on the orbits of rho0's centralizer C acting by
    conjugation, so each sigma is keyed by the least c sigma c^-1 over c
    in C and one inner product is taken per key.  Every other row rho of
    that type is read off it through the pi that maps the cycles of rho0
    onto those of rho, equal lengths together.
    """
    s = integer(s, "k", 2)
    perms = _derangements(s)
    states = tuple(_trace_state(p) for p in perms)
    distinct = {}  # each distinct entry of D_s -> its index
    firsts = {}  # cycle type -> (cycles of rho0, row of rho0 by sigma)
    rows = []
    for perm, state in zip(perms, states):
        cycles = sorted(_cycles(perm), key=len)
        kind = tuple(map(len, cycles))
        if kind not in firsts:
            centralizer = [c for c in itertools.permutations(range(s))
                           if _conjugate(c, perm) == perm]
            orbits, row = {}, {}
            for sigma, other in zip(perms, states):
                key = min(_conjugate(c, sigma) for c in centralizer)
                if key not in orbits:
                    value = inner_product(state, other).rational_part()
                    orbits[key] = distinct.setdefault(value, len(distinct))
                row[sigma] = orbits[key]
            firsts[kind] = (cycles, row)
        first_cycles, row = firsts[kind]
        back = [0] * s  # pi^-1, the cycles of rho onto those of rho0
        for ours, theirs in zip(cycles, first_cycles):
            for x, y in zip(ours, theirs):
                back[x] = y
        rows.append(tuple(row[_conjugate(back, sigma)] for sigma in perms))
    return tuple(distinct), tuple(rows)


@lru_cache(maxsize=None)
def _isotypic_blocks(s: int):
    """D_s split into blocks by the conjugation action of S_s.

    Returns (f_mu, block) per shape mu of s that occurs, in _partitions
    order; block[a][b] holds integer weights, one per entry of
    derangement_block(s), and rank D_s(N) = sum f_mu rank block(N).

    D_s commutes with conjugation.  With R, C the row and column groups of
    mu's row-reading tableau, y = b_C a_R (signed sum over C, sum over R)
    is a primitive idempotent up to scale: D_s maps W = y Q^(d_s), of
    dimension m_mu, into itself, and the mu-isotypic part holds f_mu
    copies of that map.  W is spanned by the B_O = b_C 1_O over R-orbits
    O; the independent ones are kept.  b_C^T b_C = |C| b_C, so the block
    [B_O^T D_s B_P] / |C| is [1_O^T D_s B_P], read at one derangement per
    R-orbit, where 1_O^T D_s is constant.  The walk stops once
    sum f_mu m_mu reaches d_s.
    """
    entries, rows = derangement_block(s)
    perms = _derangements(s)
    where = {p: i for i, p in enumerate(perms)}
    blocks, total = [], 0
    for shape in _partitions(s):
        row_group, col_group = _young_groups(shape)
        f = _standard_tableaux(shape)
        signed = [(c, _perm_sign(c)) for c in col_group]
        orbit_of, orbits = {}, []
        for i, p in enumerate(perms):
            if i not in orbit_of:
                orbit = sorted({where[_conjugate(r, p)] for r in row_group})
                orbit_of.update(dict.fromkeys(orbit, len(orbits)))
                orbits.append(orbit)
        echelon, kept = [], []  # (pivot, reduced B_O); (O, B_O by R-orbit)
        for orbit in orbits:
            vector = {}
            for c, sign in signed:
                for i in orbit:
                    j = where[_conjugate(c, perms[i])]
                    vector[j] = vector.get(j, 0) + sign
            reduced = {j: x for j, x in vector.items() if x}
            for pivot, row in echelon:
                if factor := reduced.get(pivot):
                    reduced = {j: x for j in reduced.keys() | row.keys()
                               if (x := row[pivot] * reduced.get(j, 0)
                                   - factor * row.get(j, 0))}
            if reduced:
                echelon.append((next(iter(reduced)), reduced))
                sums = [0] * len(orbits)
                for j, x in vector.items():
                    sums[orbit_of[j]] += x
                kept.append((orbit, sums))
                total += f
                if total == len(perms):
                    break
        block = []
        for orbit, _ in kept:
            cells = [[0] * len(entries) for _ in kept]
            for q, members in enumerate(orbits):
                for i in orbit:
                    for cell, (_, sums) in zip(cells, kept):
                        cell[rows[members[0]][i]] += sums[q]
            block.append(tuple(map(tuple, cells)))
        if block:
            blocks.append((f, tuple(block)))
        if total == len(perms):
            break
    return tuple(blocks)


def normalized_trace_basis(k: int):
    """k! singlet projectors built from orthogonalized trace states.

    The states are orthogonalized in all_decompositions order, which is
    what Gram-Schmidt would give, but from their Gram matrix G alone: G
    factors as L D L^T over Q(N) with L unit lower triangular, ket i is
    row i of L^-1 applied to the states, and its norm is the pivot D_i.
    G is block diagonal by moved set (see derangement_block), so L is
    too: the block of every moved set with s points is N^(k-s) D_s, which
    is factored once per s, and each ket combines only the states of its
    own block.  For k = 3 the two 3-cycle states are first replaced by
    their difference and sum, reproducing the xi-pattern normalizations;
    the family is then already orthogonal and passes through unchanged.
    """
    from .singlets import _ket_projector

    perms = _ordered(k)
    states = [_trace_state(p) for p in perms]
    if k == 3:
        s123, s132 = states[4], states[5]
        states[4] = s123 - s132
        states[5] = s123 + s132
    blocks = {}
    for i, perm in enumerate(perms):
        moved = tuple(p for p, x in enumerate(perm) if x != p)
        blocks.setdefault(moved, []).append(i)
    factors = {}
    ops = [None] * len(states)
    for moved, indices in blocks.items():
        s = len(moved)
        if s not in factors:
            entries, rows = (derangement_block(s) if s
                             else ((_RF_ONE,), ((0,),)))
            gram = [[entries[j] for j in row] for row in rows]
            if k == 3 and s == 3:
                # the Gram matrix of the difference and the sum
                (a, b), (_, c) = gram
                gram = ((a - 2 * b + c, a - c), (a - c, a + 2 * b + c))
            inverse, block_pivots = _ldl(gram)
            scale = _RF_N ** (k - s)
            factors[s] = (inverse, [scale * pivot for pivot in block_pivots])
        inverse, block_pivots = factors[s]
        block_kets = _combine(inverse, [states[i] for i in indices])
        for i, ket, pivot in zip(indices, block_kets, block_pivots):
            ops[i] = _ket_projector(
                ket, labels=(i,), norm=RadicalCoefficient.from_rational(pivot))
    return ops


def _ldl(gram):
    """G = L D L^T for a symmetric matrix over Q(N); returns (L^-1, D).

    L is unit lower triangular.  Each row i of L^-1 is taken as soon as
    row i of L is known: M_i = e_i - sum_j L_ij M_j.  A zero pivot means
    a state depends on its predecessors.
    """
    lower, inverse, pivots = [], [], []
    for i, row in enumerate(gram):
        scaled = []  # L_ij D_j
        for j in range(i):
            scaled.append(row[j] - _dot(scaled, lower[j]))
        coeffs = [e / d for e, d in zip(scaled, pivots)]
        pivot = row[i] - _dot(scaled, coeffs)
        if pivot.is_zero():
            raise InvalidDecomposition(
                "trace states are linearly dependent over Q(N)")
        lower.append(coeffs)
        pivots.append(pivot)
        inverse.append([-_dot(coeffs[j:], [m[j] for m in inverse[j:]])
                        for j in range(i)] + [_RF_ONE])
    return inverse, pivots


def _dot(a, b) -> RationalFunction:
    """sum_m a_m b_m, skipping the zero terms."""
    total = _RF_ZERO
    for x, y in zip(a, b):
        if not (x.is_zero() or y.is_zero()):
            total = total + x * y
    return total


def _combine(rows, states):
    """The kets sum_j rows[i][j] * states[j], for states with rational
    coefficients.

    Each state is read through its Gram form: integer numerators by perm
    over one denominator D_j.  Ket i is summed in integer polynomials
    over the lcm of its row's m_ij.den * D_j, and each of its
    coefficients is reduced once.
    """
    forms = [_gram_form(state) for state in states]
    diagrams = {diag.perm: diag for state in states for diag in state.terms}
    kets = []
    for row in rows:
        parts = [(m, _p_mul(m.den, state_den), terms)
                 for m, form in zip(row, forms) if not m.is_zero()
                 for _, state_den, terms in form]
        den = _ONE
        for _, part_den, _ in parts:
            den = _p_lcm(den, part_den)
        sums = {}
        for m, part_den, terms in parts:
            factor = _p_mul(m.num, _p_exquo(den, part_den))
            for perm, _, num in terms:
                sums[perm] = _p_add(sums.get(perm, ()), _p_mul(factor, num))
        kets.append(InvariantElement(states[0].sig, {
            diagrams[perm]:
                RadicalCoefficient.from_rational(RationalFunction(num, den))
            for perm, num in sums.items()}))
    return kets
