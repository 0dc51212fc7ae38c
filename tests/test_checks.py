"""Guards of the named verification checks."""

import pytest

from birdtracks import checks


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
