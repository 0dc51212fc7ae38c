"""Named verification suite shared by the command line and the tests.

Every check is self-contained and returns a plain bool, so the caller can
print a full table even when something breaks halfway through.  Every
comparison is exact, in integers or rationals: group invariance is
tested through the Lie algebra or on integer group elements, never on
sampled floats, so no check imports numpy.
"""

from fractions import Fraction

from .coefficients import RadicalCoefficient, rf
from .coefficients import sqrt as sqrt_coeff
from .diagrams import (
    FUND,
    InvariantElement,
    compose,
    inner_product,
    operator_signature,
    parse_cycles,
    permutation_element,
)
from .epsilon import (
    lr_decomposition,
    lr_pair_projector,
    pieri_add_antifundamental,
    shape_dimension,
    verify_baryon_equivalence,
)
from .errors import OutOfRange
from .numeric import evaluate, exact_rank, integer_entries
from .singlets import (
    gram_matrix,
    rank_one_product,
    singlet_count,
    singlet_table,
)
from .symmetrizers import builtin_orthogonal_basis
from .tracebasis import (
    adjoint_pair_diagram,
    normalized_trace_basis,
    pair_singlet_projector,
    raw_trace_states,
    trace_basis_state,
)

_CHI_INVERSE = (
    rf([0, 2, 3, 1], [6]),    # (N+2)(N+1)N / 6
    rf([0, -1, 0, 1], [3]),   # N(N^2-1) / 3
    rf([0, 2, -3, 1], [6]),   # (N-2)(N-1)N / 6
)

_XI_INVERSE_SQUARED = (
    rf([0, 0, 0, 1]),             # N^3
    rf([0, -1, 0, 1]),            # N(N^2-1)
    rf([0, -2, 0, 2]),            # 2N(N^2-1)
    rf([8, 0, -10, 0, 2], [0, 1]),  # 2(N^2-4)(N^2-1)/N
)


def check_chi_constants() -> bool:
    """Bent three-strand basis elements have the advertised squared norms."""
    bent = [element.bend() for element in builtin_orthogonal_basis(3)]
    pattern = (0, 1, 1, 1, 1, 2)
    return len(bent) == len(pattern) and all(
        inner_product(state, state) == _CHI_INVERSE[which]
        for state, which in zip(bent, pattern))


def check_xi_constants() -> bool:
    """Orthogonalized k=3 trace states have the advertised squared norms."""
    basis = normalized_trace_basis(3)
    pattern = (0, 1, 1, 1, 2, 3)
    if len(basis) != len(pattern) or not all(
            inner_product(op.ket, op.ket) == _XI_INVERSE_SQUARED[w]
            for op, w in zip(basis, pattern)):
        return False
    # the raw three-cycle states are not orthogonal; their overlap is what
    # forces the plus/minus combinations above
    overlap = inner_product(trace_basis_state("(1 2 3)"),
                            trace_basis_state("(1 3 2)"))
    return overlap == rf([2, 0, -2], [0, 1])


def check_operator_algebra() -> bool:
    """The 36 three-strand operators close under composition row-on-column.

    Entry T_ij is n_ij |i><j| over the six diagonal kets, so
    T_ij T_kl = n_ij n_kl <j|k> |i><l|; with G the kets' Gram matrix, the
    table closes iff every weight n_ij n_kl G_jk is n_il for j == k and
    zero otherwise.  Those 1296 weights are checked as coefficients, once
    each entry is known to be n_ij |i><j|; the products T_i0 T_0l are
    composed and compared with the expanded T_il.
    """
    table = singlet_table(3, "builtin")
    size = len(table)
    kets = [table[i][i].ket for i in range(size)]
    gram = gram_matrix(kets)
    norms = [[op.normalization for op in row] for row in table]
    for i in range(size):
        for j in range(size):
            op = table[i][j]
            if (op.dagger() != table[j][i] or op.ket != kets[i]
                    or op.bra != kets[j]):
                return False
            for k in range(size):
                left = norms[i][j] * gram[j][k]
                for l in range(size):
                    weight = left * norms[k][l]
                    if j == k:
                        if weight != norms[i][l]:
                            return False
                    elif not weight.is_zero():
                        return False
    return all(rank_one_product(table[i][0], table[0][l])
               == table[i][l].expand()
               for i in range(size) for l in range(size))


def check_singlet_counts() -> bool:
    """Exact Gram ranks, cross-checked against flattened-state ranks."""
    expected = {1: (1, 1, 1), 2: (1, 2, 2, 2), 3: (1, 5, 6, 6, 6)}
    for k, counts in expected.items():
        states = raw_trace_states(k)
        for n, count in enumerate(counts, 1):
            if singlet_count(k, n, "trace") != count:
                return False
            if _flattened_rank(states, n) != count:
                return False
    return True


def _flattened_rank(states, n) -> int:
    """Exact rank of the states flattened to rows at N = n.

    Each row holds a state's integer entries over its own denominator, on
    the columns where some state is nonzero; neither changes the rank.
    """
    rows = [integer_entries(state, n)[1] for state in states]
    columns = set().union(*rows)
    return exact_rank([[row.get(c, 0) for c in columns] for row in rows])


def check_loop_factor() -> bool:
    """Closed interface loops pay a factor N; plain gluing does not."""
    mixed = operator_signature(2, 1)
    left = permutation_element(mixed, parse_cycles("(1 2 3)", 3))
    right = permutation_element(mixed, parse_cycles("(1 3 2)", 3))
    target = permutation_element(mixed, parse_cycles("(1 3)", 3),
                                 rf([0, 1]))
    if compose(left, right) != target:
        return False
    plain = operator_signature(3, 0)
    swap = permutation_element(plain, parse_cycles("(1 2)", 3))
    cycle = permutation_element(plain, parse_cycles("(1 3 2)", 3))
    return compose(swap, cycle) == permutation_element(
        plain, parse_cycles("(1 3)", 3))


def check_lr_projectors() -> bool:
    """Epsilon-translated column projectors land on the Fierz pair."""
    for n in (3, 4):
        if lr_pair_projector("singlet", n) != evaluate(
                pair_singlet_projector(), n):
            return False
        if lr_pair_projector("adjoint", n) != evaluate(
                adjoint_pair_diagram(), n):
            return False
    return True


def check_baryon_equivalence() -> bool:
    """Three quarks match the balanced pair at N=3 and nowhere nearby."""
    return verify_baryon_equivalence(3) and not verify_baryon_equivalence(4)


def check_pieri_dimensions() -> bool:
    """The worked Pieri branching plus dimension conservation."""
    grown = [s.rows for s in pieri_add_antifundamental("[2,1]", 4)]
    if grown != [(3, 2, 1), (3, 1, 1, 1), (2, 2, 1, 1)]:
        return False
    for m, n in ((1, 1), (2, 1), (2, 2)):
        for n_param in (3, 4):
            shapes = lr_decomposition(m, n, n_param)
            total = sum(shape_dimension(s, n_param) for s in shapes)
            if total != n_param ** (m + n):
                return False
    return True


def check_unitary_invariance() -> bool:
    """The Chevalley generators of sl(N) kill every k <= 3 trace state.

    Exact at N = 2, 3.  A generator X acts as X on a fundamental leg and
    as -X^T on an antifundamental one, the derivative of U and conj(U).
    What they kill sl(N) kills (see _sl_generators), and SU(N) is
    connected, so such a state is fixed by the whole group.
    """
    for k in (1, 2, 3):
        states = raw_trace_states(k)
        for n in (2, 3):
            for state in states:
                _, entries = integer_entries(state, n)
                for x in _sl_generators(n):
                    legs = [x if o == FUND else _dual(x)
                            for o in state.sig.orientations]
                    if _lie_action(entries, legs):
                        return False
    return True


def _sl_generators(n: int) -> list[dict]:
    """The 2(N - 1) Chevalley generators E_a,a+1 and E_a+1,a of sl(N).

    Brackets of neighbours give every E_ab with a != b, and [E_ab, E_ba]
    = E_aa - E_bb, so they generate sl(N) as a Lie algebra; what kills a
    state kills its brackets too, so sl(N) kills every state they kill.
    """
    return [{pair: 1} for a in range(n - 1)
            for pair in ((a, a + 1), (a + 1, a))]


def _dual(x: dict) -> dict:
    """-X^T, the action on an antifundamental leg of X on a fundamental."""
    return {(c, r): -v for (r, c), v in x.items()}


def _lie_action(entries: dict, legs) -> dict:
    """Nonzero entries of sum over legs l of legs[l] applied to axis l.

    Each leg matrix is {(row, col): value}; the tensor is {index: value}.
    """
    out = {}
    for idx, value in entries.items():
        for axis, matrix in enumerate(legs):
            for (row, col), x in matrix.items():
                if idx[axis] == col:
                    key = idx[:axis] + (row,) + idx[axis + 1:]
                    out[key] = out.get(key, 0) + x * value
    return {key: v for key, v in out.items() if v}


def _radical_parts(element):
    """Split an element as sum over radicands d of sqrt(d) * rational part."""
    grouped = {}
    for diag, coeff in element.terms.items():
        for key, mult in coeff.terms.items():
            part = RadicalCoefficient.from_rational(mult)
            grouped.setdefault(key, {})[diag] = part
    return [(sqrt_coeff(rf(list(key))),
             InvariantElement(element.sig, terms))
            for key, terms in sorted(grouped.items())]


def _radical_dot(a, b, n):
    """Exact <a|b> at N=n by direct index contraction, radicals allowed.

    The same {squarefree radicand: rational} layout RadicalCoefficient
    evaluation produces, so results compare exactly.  A self-pair a is b
    is split and evaluated once.
    """
    parts_a = [(root, integer_entries(part, n))
               for root, part in _radical_parts(a)]
    parts_b = parts_a if a is b else [(root, integer_entries(part, n))
                                      for root, part in _radical_parts(b)]
    out = {}
    for root_a, (den_a, left) in parts_a:
        for root_b, (den_b, right) in parts_b:
            total = sum(left[key] * right[key]
                        for key in left.keys() & right.keys())
            if not total:
                continue
            dot = Fraction(total, den_a * den_b)
            for d, w in (root_a * root_b).eval_at(n).items():
                out[d] = out.get(d, Fraction(0)) + dot * w
    return {d: v for d, v in out.items() if v != 0}


def check_symbolic_numeric_agreement() -> bool:
    """Symbolic norms and overlaps specialize to the numeric oracle."""
    bent = [element.bend() for element in builtin_orthogonal_basis(3)]
    trace = [op.ket for op in normalized_trace_basis(3)]
    cycles = (trace_basis_state("(1 2 3)"), trace_basis_state("(1 3 2)"))
    pairs = ([(s, s) for s in bent] + [(s, s) for s in trace]
             + [cycles, (cycles[0], cycles[0])])
    for left, right in pairs:
        symbolic = inner_product(left, right)
        for n in (2, 3, 4, 5):
            if symbolic.eval_at(n) != _radical_dot(left, right, n):
                return False
    return True


CHECKS = (
    ("chi-constants", check_chi_constants),
    ("xi-constants", check_xi_constants),
    ("operator-algebra", check_operator_algebra),
    ("singlet-counts", check_singlet_counts),
    ("loop-factor", check_loop_factor),
    ("lr-projectors", check_lr_projectors),
    ("baryon-equivalence", check_baryon_equivalence),
    ("pieri-dimensions", check_pieri_dimensions),
    ("unitary-invariance", check_unitary_invariance),
    ("symbolic-numeric", check_symbolic_numeric_agreement),
)


def run_checks(names=None) -> list[tuple[str, bool]]:
    """Run the named checks (all of them by default), in table order."""
    known = dict(CHECKS)
    if names:
        missing = [name for name in names if name not in known]
        if missing:
            raise OutOfRange(f"unknown checks: {', '.join(missing)}")
        selected = [(name, known[name]) for name in names]
    else:
        selected = list(CHECKS)
    return [(name, bool(fn())) for name, fn in selected]
