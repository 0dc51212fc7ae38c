"""Guards of the named verification checks."""

import os
import subprocess
import sys

import pytest

from birdtracks import checks
from birdtracks.coefficients import rf
from birdtracks.errors import OutOfRange
from birdtracks.numeric import exact_rank
from birdtracks.singlets import SingletOperator


@pytest.mark.parametrize("check, source", [
    (checks.check_chi_constants, "builtin_orthogonal_basis"),
    (checks.check_xi_constants, "normalized_trace_basis"),
])
def test_short_basis_fails_the_check(monkeypatch, check, source):
    full = getattr(checks, source)
    monkeypatch.setattr(checks, source, lambda k: full(k)[:5])
    assert check() is False
    monkeypatch.undo()
    assert check() is True


def _perturbed_weight(real):
    def product(a, b):
        weight = a.normalization * rf([1, 1], [0, 1])
        perturbed = SingletOperator(a.ket, a.bra, weight, a.kind, a.labels)
        return real(perturbed, b)
    return product


def _perturbed_entry(target):
    # one entry of the state target() at N=3 gains 1
    def fake(real):
        state = target()

        def entries(element, n):
            den, nums = real(element, n)
            if n == 3 and element == state:
                key = min(nums)
                nums = {**nums, key: nums[key] + 1}
            return den, nums
        return entries
    return fake


def _nonzero_off_diagonal(real):
    def gram(states):
        rows = [row[:] for row in real(states)]
        rows[0][1] = rows[0][0]
        return rows
    return gram


def _doubled_first_norm(real):
    def gram(states):
        rows = [row[:] for row in real(states)]
        rows[0][0] = rows[0][0] * 2
        return rows
    return gram


def _foreign_state(side):
    # T_12 carries state 3's ket or bra; T_21 stays its dagger
    def fake(real):
        def table(k, source):
            rows = [row[:] for row in real(k, source)]
            op = rows[1][2]
            fields = {"ket": op.ket, "bra": op.bra, side: rows[3][3].ket}
            rows[1][2] = SingletOperator(normalization=op.normalization,
                                         kind=op.kind, labels=op.labels,
                                         **fields)
            rows[2][1] = rows[1][2].dagger()
            return rows
        return table
    return fake


@pytest.mark.parametrize("check, name, fake", [
    (checks.check_symbolic_numeric_agreement, "inner_product",
     lambda real: lambda a, b: real(a, b) * 2),
    (checks.check_singlet_counts, "singlet_count",
     lambda real: lambda k, n, source: real(k, n, source) + 1),
    # the Gram side builds its own states, so only the dense side loses one
    (checks.check_singlet_counts, "raw_trace_states",
     lambda real: lambda k: real(k)[1:]),
    (checks.check_lr_projectors, "pair_singlet_projector",
     lambda real: checks.adjoint_pair_diagram),
    (checks.check_operator_algebra, "rank_one_product", _perturbed_weight),
    (checks.check_operator_algebra, "gram_matrix", _nonzero_off_diagonal),
    (checks.check_operator_algebra, "singlet_table", _foreign_state("ket")),
    (checks.check_operator_algebra, "singlet_table", _foreign_state("bra")),
    (checks.check_unitary_invariance, "integer_entries",
     _perturbed_entry(lambda: checks.raw_trace_states(3)[-1])),
    # a self-pair is evaluated once, and both of its sides see the change
    (checks.check_symbolic_numeric_agreement, "integer_entries",
     _perturbed_entry(lambda: checks.builtin_orthogonal_basis(3)[1].bend())),
    # +X^T instead of -X^T on the antifundamental legs
    (checks.check_unitary_invariance, "_dual",
     lambda real: lambda x: {(c, r): v for (r, c), v in x.items()}),
    (checks.check_operator_algebra, "gram_matrix", _doubled_first_norm),
    (checks.check_loop_factor, "compose",
     lambda real: lambda a, b: real(a, b).scaled(2)),
    (checks.check_lr_projectors, "adjoint_pair_diagram",
     lambda real: checks.pair_singlet_projector),
    (checks.check_baryon_equivalence, "verify_baryon_equivalence",
     lambda real: lambda n: True),
    (checks.check_pieri_dimensions, "pieri_add_antifundamental",
     lambda real: lambda shape, n: real(shape, n)[::-1]),
    (checks.check_pieri_dimensions, "shape_dimension",
     lambda real: lambda shape, n: real(shape, n) + 1),
], ids=["scaled-inner-product", "off-by-one-count", "dropped-dense-state",
        "wrong-pair-projector", "perturbed-product-weight",
        "nonzero-off-diagonal-gram", "transition-with-foreign-ket",
        "transition-with-foreign-bra", "perturbed-trace-state",
        "perturbed-bent-state", "transpose-on-antifundamental",
        "doubled-diagonal-gram", "scaled-composition",
        "wrong-adjoint-projector", "baryon-equivalence-everywhere",
        "reordered-pieri-shapes", "off-by-one-dimension"])
def test_wrong_input_fails_the_check(monkeypatch, check, name, fake):
    monkeypatch.setattr(checks, name, fake(getattr(checks, name)))
    assert check() is False
    monkeypatch.undo()
    assert check() is True


def _bracket(x, y):
    """[X, Y] = XY - YX of two {(row, col): value} matrices."""
    out = {}
    for (a, b), u in x.items():
        for (c, d), v in y.items():
            if b == c:
                out[a, d] = out.get((a, d), 0) + u * v
            if d == a:
                out[c, b] = out.get((c, b), 0) - v * u
    return {key: v for key, v in out.items() if v}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sl_generators_generate_sl_n(n):
    # the Lie closure of the 2(N - 1) generators has dimension N^2 - 1:
    # bracket every basis element with every generator, and keep a
    # bracket when it raises the rank of the flattened N x N matrices
    generators = checks._sl_generators(n)
    assert len(generators) == 2 * (n - 1)

    def flat(x):
        return [x.get((a, b), 0) for a in range(n) for b in range(n)]

    basis = list(generators)
    assert exact_rank([flat(x) for x in basis]) == len(basis)
    for x in basis:  # grows as brackets join
        for y in generators:
            z = _bracket(x, y)
            if exact_rank([flat(w) for w in basis + [z]]) > len(basis):
                basis.append(z)
    assert len(basis) == n * n - 1
    assert all(sum(x.get((a, a), 0) for a in range(n)) == 0 for x in basis)


def test_unknown_check_name_is_out_of_range():
    with pytest.raises(OutOfRange, match="nonesuch"):
        checks.run_checks(["loop-factor", "nonesuch"])


def test_checks_pass_in_reverse_order_in_a_fresh_interpreter():
    # nothing is warmed first, so no check can lean on a cache or a ket's
    # Gram form that a check earlier in the table filled
    script = """
from birdtracks import checks
failed = [name for name, fn in reversed(checks.CHECKS) if fn() is not True]
assert not failed, failed
"""
    src = os.path.dirname(os.path.dirname(checks.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
