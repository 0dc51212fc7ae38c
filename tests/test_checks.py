"""Guards of the named verification checks."""

import pytest

from birdtracks import checks
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


def test_unknown_check_name_is_out_of_range():
    with pytest.raises(OutOfRange, match="nonesuch"):
        checks.run_checks(["loop-factor", "nonesuch"])
