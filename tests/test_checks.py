"""Guards of the named verification checks."""

from dataclasses import replace

import pytest

from birdtracks import checks
from birdtracks.coefficients import rf
from birdtracks.errors import OutOfRange


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
        return real(replace(a, normalization=weight), b)
    return product


def _perturbed_entry(real):
    # one entry of the k=3 trace state (1 3 2) at N=3 gains 1
    target = checks.raw_trace_states(3)[-1]

    def entries(state, n):
        den, nums = real(state, n)
        if n == 3 and state == target:
            key = min(nums)
            nums = {**nums, key: nums[key] + 1}
        return den, nums
    return entries


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
    (checks.check_unitary_invariance, "integer_entries", _perturbed_entry),
    # +X^T instead of -X^T on the antifundamental legs
    (checks.check_unitary_invariance, "_dual",
     lambda real: lambda x: {(c, r): v for (r, c), v in x.items()}),
], ids=["scaled-inner-product", "off-by-one-count", "dropped-dense-state",
        "wrong-pair-projector", "perturbed-product-weight",
        "perturbed-trace-state", "transpose-on-antifundamental"])
def test_wrong_input_fails_the_check(monkeypatch, check, name, fake):
    monkeypatch.setattr(checks, name, fake(getattr(checks, name)))
    assert check() is False
    monkeypatch.undo()
    assert check() is True


def test_unknown_check_name_is_out_of_range():
    with pytest.raises(OutOfRange, match="nonesuch"):
        checks.run_checks(["loop-factor", "nonesuch"])
