"""End-to-end gate: one printed line per criterion, exact where possible.

Each test prints its verdict before asserting, so a full run always shows
the complete table.  Expected values are pinned literally here; nothing
is read back from the code under test.
"""

import numpy as np

from birdtracks.checks import (
    check_operator_algebra,
    check_singlet_counts,
    check_symbolic_numeric_agreement,
    check_unitary_invariance,
)
from birdtracks.coefficients import RadicalCoefficient, rf
from birdtracks.diagrams import (
    compose,
    identity,
    inner_product,
    ketbra,
    operator_signature,
    parse_cycles,
    permutation_element,
)
from birdtracks.epsilon import (
    TransientParams,
    lr_decomposition,
    lr_pair_projector,
    pieri_add_antifundamental,
    shape_dimension,
    transient_singlet_params,
    translated_singlet_ket,
    verify_baryon_equivalence,
)
from birdtracks.numeric import evaluate
from birdtracks.symmetrizers import builtin_orthogonal_basis
from birdtracks.tracebasis import normalized_trace_basis, trace_basis_state


def _rc(value) -> RadicalCoefficient:
    return RadicalCoefficient.from_rational(value)


def _report(capsys, number: int, label: str, ok: bool,
            witness: str = "") -> None:
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number} failed: {label}" + (
        f" ({witness})" if witness else "")


def test_criterion_1_embedded_basis_norms(capsys):
    bent = [element.bend() for element in builtin_orthogonal_basis(3)]
    expected = [
        rf([0, 2, 3, 1], [6]),
        rf([0, -1, 0, 1], [3]),
        rf([0, -1, 0, 1], [3]),
        rf([0, -1, 0, 1], [3]),
        rf([0, -1, 0, 1], [3]),
        rf([0, 2, -3, 1], [6]),
    ]
    ok = (len(bent) == 6
          and all(inner_product(s, s) == _rc(e)
                  for s, e in zip(bent, expected)))
    _report(capsys, 1, "embedded basis squared norms", ok)


def test_criterion_2_trace_basis_constants(capsys):
    basis = normalized_trace_basis(3)
    expected = [
        rf([0, 0, 0, 1]),
        rf([0, -1, 0, 1]),
        rf([0, -1, 0, 1]),
        rf([0, -1, 0, 1]),
        rf([0, -2, 0, 2]),
        rf([8, 0, -10, 0, 2], [0, 1]),
    ]
    failures = []
    if len(basis) != len(expected):
        failures.append(f"basis size: measured {len(basis)}, "
                        f"pinned {len(expected)}")
    else:
        for index, (op, e) in enumerate(zip(basis, expected)):
            norm = inner_product(op.ket, op.ket)
            if norm != _rc(e):
                failures.append(f"norm {index}: measured {norm}, "
                                f"pinned {_rc(e)}")
    # pinned three-cycle overlap B = -2(N^2 - 1)/N.  With the diagonal
    # A = (N^4 - 3N^2 + 2)/N, the norms pinned above are
    # |s123 - s132|^2 = 2A - 2B = 2N(N^2 - 1) (index 4) and
    # |s123 + s132|^2 = 2A + 2B = 2(N^2 - 1)(N^2 - 4)/N (index 5), and
    # both force this value of B
    overlap = inner_product(trace_basis_state("(1 2 3)"),
                            trace_basis_state("(1 3 2)"))
    pinned = _rc(rf([2, 0, -2], [0, 1]))
    if overlap != pinned:
        failures.append(f"overlap: measured {overlap}, pinned {pinned}")
    _report(capsys, 2, "trace basis squared norms and overlap",
            not failures, "; ".join(failures))


def test_criterion_3_projector_transition_algebra(capsys):
    _report(capsys, 3, "projector and transition operator algebra",
            check_operator_algebra())


def test_criterion_4_singlet_counts(capsys):
    _report(capsys, 4, "singlet counts with independent rank oracle",
            check_singlet_counts())


def test_criterion_5_loop_factor(capsys):
    mixed = operator_signature(2, 1)
    closed = compose(
        permutation_element(mixed, parse_cycles("(1 2 3)", 3)),
        permutation_element(mixed, parse_cycles("(1 3 2)", 3)))
    ok = closed == permutation_element(
        mixed, parse_cycles("(1 3)", 3), rf([0, 1]))
    plain = operator_signature(3, 0)
    open_glue = compose(
        permutation_element(plain, parse_cycles("(1 2)", 3)),
        permutation_element(plain, parse_cycles("(1 3 2)", 3)))
    ok = ok and open_glue == permutation_element(
        plain, parse_cycles("(1 3)", 3))
    _report(capsys, 5, "closed loop pays a factor of N", ok)


def test_criterion_6_translated_pair_projectors(capsys):
    delta = identity(operator_signature(1, 0)).bend()
    trace_pair = ketbra(delta, delta).scaled(rf([1], [0, 1]))
    adjoint = identity(operator_signature(1, 1)) - trace_pair
    ok = True
    for n in (3, 4):
        ok = ok and lr_pair_projector("singlet", n) == evaluate(
            trace_pair, n)
        ok = ok and lr_pair_projector("adjoint", n) == evaluate(adjoint, n)
    _report(capsys, 6, "translated pair projectors at N=3,4", ok)


def test_criterion_7_three_quark_equivalence(capsys):
    # the one layout of three quarks translates back to a multiple of
    # the epsilon on their three legs
    layouts = transient_singlet_params(3, 0, 3)
    ok = layouts == [TransientParams(1, 0, 0, 2)]
    if ok:
        _, ket = translated_singlet_ket(layouts[0], 3)
        c = ket.get((0, 1, 2), 0)
        ok = c != 0 and ket == {(0, 1, 2): c, (1, 2, 0): c, (2, 0, 1): c,
                                (0, 2, 1): -c, (2, 1, 0): -c, (1, 0, 2): -c}
    ok = ok and verify_baryon_equivalence(3)
    _report(capsys, 7, "three quarks match the balanced pair at N=3", ok)


def test_criterion_8_shape_growth_and_dimensions(capsys):
    grown = [s.rows for s in pieri_add_antifundamental("[2,1]", 4)]
    ok = grown == [(3, 2, 1), (3, 1, 1, 1), (2, 2, 1, 1)]
    for m, n in ((1, 1), (2, 1), (2, 2)):
        for n_param in (3, 4):
            shapes = lr_decomposition(m, n, n_param)
            total = sum(shape_dimension(s, n_param) for s in shapes)
            ok = ok and total == n_param ** (m + n)
    _report(capsys, 8, "shape growth and dimension conservation", ok)


def test_criterion_9_sampled_invariance(capsys):
    _report(capsys, 9, "the Lie algebra of SU(N) kills the singlet states",
            check_unitary_invariance())


def test_criterion_10_symbolic_numeric_agreement(capsys):
    _report(capsys, 10, "symbolic values match the numeric oracle",
            check_symbolic_numeric_agreement())
