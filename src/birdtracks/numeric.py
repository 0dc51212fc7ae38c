"""Exact fixed-N realization of invariant elements, plus one float evaluation.

Everything rank- or nullity-shaped runs in exact arithmetic on integers:
an element at integer N is summed as integer entries over one common
denominator, and a rank is taken by fraction-free elimination on rows
scaled to integers.  Group elements come in one kind: integer matrices
of SL(N, Z) together with their inverse transposes.  numpy is imported
inside evaluate_float only, so exact work never loads it.
Index placement: a fundamental leg transforms with g, an antifundamental
leg with its inverse transpose, so a ket on Mixed(k, k) is invariant
under g applied to every leg this way.  For unitary g the inverse
transpose is the complex conjugate.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from operator import itemgetter
from typing import TYPE_CHECKING, Sequence

from .coefficients import _fraction
from .diagrams import InvariantElement
from .errors import DimensionMismatch, OutOfRange, integer

if TYPE_CHECKING:
    import numpy as np

DENSE_CAP = 10 ** 6


class ExactTensor:
    """A dense-shape tensor of exact entries, stored sparsely.

    Entries are ints or Fractions: the Leibniz pipeline stores integers.
    """

    __slots__ = ("shape", "entries")

    def __init__(self, shape, entries=None):
        self.shape = tuple(shape)
        self.entries = {k: v for k, v in (entries or {}).items() if v}

    def matrix_rows(self, row_axes: int) -> list[list[Fraction]]:
        """Flatten to a matrix of Fractions, first row_axes axes as rows."""
        row_axes = integer(row_axes, "row_axes", 0, len(self.shape))
        row_dims = self.shape[:row_axes]
        col_dims = self.shape[row_axes:]
        n_rows = math.prod(row_dims) if row_dims else 1
        n_cols = math.prod(col_dims) if col_dims else 1
        rows = [[Fraction(0)] * n_cols for _ in range(n_rows)]
        for idx, val in self.entries.items():
            r = _flatten(idx[:row_axes], row_dims)
            c = _flatten(idx[row_axes:], col_dims)
            rows[r][c] = val
        return rows

    def permuted(self, order) -> "ExactTensor":
        """Reorder axes so that new axis i is old axis order[i]."""
        order = tuple(integer(o, "axis", 0) for o in order)
        if sorted(order) != list(range(len(self.shape))):
            raise DimensionMismatch(f"{order} is not an axis permutation")
        shape = tuple(self.shape[o] for o in order)
        entries = {tuple(idx[o] for o in order): v
                   for idx, v in self.entries.items()}
        return ExactTensor(shape, entries=entries)

    def trace(self) -> Fraction:
        """Matrix trace, pairing axis i with axis rank/2 + i."""
        half = len(self.shape) // 2
        if self.shape[:half] != self.shape[half:]:
            raise DimensionMismatch(f"non-square shape {self.shape}")
        total = Fraction(0)
        for idx, val in self.entries.items():
            if idx[:half] == idx[half:]:
                total += val
        return total

    def __eq__(self, other):
        if not isinstance(other, ExactTensor):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries


def _flatten(idx: tuple[int, ...], dims: tuple[int, ...]) -> int:
    flat = 0
    for i, d in zip(idx, dims):
        flat = flat * d + i
    return flat


def _element_axes(element: InvariantElement) -> int:
    k = element.sig.n_slots
    return 2 * k if element.sig.is_operator() else k


def _check_cap(n: int, axes: int):
    if n ** axes > DENSE_CAP:
        raise OutOfRange(
            f"dense realization of {n}^{axes} entries exceeds cap {DENSE_CAP}")


def _diagram_indices(diag, n: int, axes: int):
    """Every index tuple at which a delta diagram is 1 at N = n."""
    # operator endpoints are already axis labels: left a -> output axis a,
    # right k+a -> input axis k+a; ket legs are their own axes.  Strand s
    # carries value assign[s] to both of its endpoints.
    strand_of = [0] * axes
    strands = (pair for pair in diag.matching().items() if pair[0] < pair[1])
    for s, (a, b) in enumerate(strands):
        strand_of[a] = strand_of[b] = s
    assigns = itertools.product(range(n), repeat=axes // 2)
    # a zero-slot element has the one empty index, which itemgetter() with
    # no items cannot give
    return map(itemgetter(*strand_of), assigns) if axes else assigns


def integer_entries(element: InvariantElement,
                    n: int) -> tuple[int, dict[tuple[int, ...], int]]:
    """The exact tensor of an element at N = n as (den, {index: num}).

    Entry index is num / den, with one positive den for the whole tensor
    and only the nonzero nums kept.  Coefficients must evaluate
    rationally.
    """
    n = integer(n, "N", 1)
    axes = _element_axes(element)
    _check_cap(n, axes)
    values = [(diag, coeff.eval_rational(n))
              for diag, coeff in element.terms.items()]
    values = [(diag, v) for diag, v in values if v]
    den = math.lcm(*(v.denominator for _, v in values))
    sums: dict[tuple[int, ...], int] = {}
    get = sums.get
    for diag, v in values:
        num = v.numerator * (den // v.denominator)
        for key in _diagram_indices(diag, n, axes):
            sums[key] = get(key, 0) + num
    return den, {key: num for key, num in sums.items() if num}


def evaluate(element: InvariantElement, n: int) -> ExactTensor:
    """The exact tensor of an element at integer N = n.

    Operators come out with output axes first, then input axes, so the
    matrix view is matrix_rows(k).  Coefficients must evaluate rationally.
    """
    den, nums = integer_entries(element, n)
    return ExactTensor((n,) * _element_axes(element),
                       entries={key: Fraction(num, den)
                                for key, num in nums.items()})


def evaluate_float(element: InvariantElement, n: int) -> np.ndarray:
    """Dense complex tensor of an element at N = n; radicals allowed."""
    import numpy as np

    n = integer(n, "N", 1)
    axes = _element_axes(element)
    _check_cap(n, axes)
    out = np.zeros((n,) * axes, dtype=complex)
    for diag, coeff in element.terms.items():
        value = coeff.eval_float(n)
        if value == 0.0:
            continue
        for idx in _diagram_indices(diag, n, axes):
            out[idx] += value
    return out


def exact_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of an exact rational matrix by fraction-free elimination.

    Each row is scaled to coprime integers and kept as {column: nonzero
    entry}.  Eliminating with a pivot row replaces a row by
    lead * row - factor * pivot (Bareiss, Math. Comp. 22, 1968), which
    stays integral, and then divides it by its content, which keeps it
    small.  Only the row's own columns and the pivot's are touched.
    """
    pending = [_integer_row(row) for row in rows]
    rank = 0
    while pending:
        pivot = pending.pop()
        if not pivot:
            continue
        rank += 1
        col, lead = next(iter(pivot.items()))
        for row in pending:
            factor = row.get(col)
            if factor is None:
                continue
            g = math.gcd(lead, factor)
            scale, factor = lead // g, factor // g
            if scale != 1:
                for c in row:
                    row[c] *= scale
            for c, x in pivot.items():
                value = row.get(c, 0) - factor * x
                if value:
                    row[c] = value
                else:
                    del row[c]
            content = math.gcd(*row.values())
            if content > 1:
                for c in row:
                    row[c] //= content
    return rank


def _integer_row(row: Sequence) -> dict[int, int]:
    """{column: entry} of a row's nonzero entries, scaled to coprime
    integers; any entry but an int, zero too, is read by _fraction."""
    cells = {c: x for c, x in enumerate(row) if x or type(x) is not int}
    if any(type(x) is not int for x in cells.values()):
        cells = {c: f for c, x in cells.items()
                 if (f := _fraction(x, "matrix entry"))}
        scale = math.lcm(*(x.denominator for x in cells.values()))
        cells = {c: x.numerator * (scale // x.denominator)
                 for c, x in cells.items()}
    content = math.gcd(*cells.values())
    if content > 1:
        cells = {c: x // content for c, x in cells.items()}
    return cells


def sample_special_linear(n: int,
                          seed: int) -> tuple[list[list[int]], list[list[int]]]:
    """A deterministic pseudo-random g in SL(n, Z) and its inverse transpose.

    g is a product of 2n elementary factors I + t E_ab (a != b, t != 0),
    each of determinant 1.  The inverse transpose of such a factor is
    I - t E_ba, so the same walk builds g^-T alongside g, in integers.
    """
    n, seed = integer(n, "N", 2), integer(seed, "seed", 0)
    rng = random.Random(seed)
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    h = [row[:] for row in g]
    for _ in range(2 * n):
        a, b = rng.sample(range(n), 2)
        t = rng.choice((-2, -1, 1, 2))
        # right multiplication: column b of g gains t times column a, and
        # column a of h loses t times column b
        for row_g, row_h in zip(g, h):
            row_g[b] += t * row_g[a]
            row_h[a] -= t * row_h[b]
    return g, h


def _act_per_leg(entries: dict, matrices) -> dict:
    """Nonzero entries of a tensor with integer matrix i applied to axis i.

    The tensor is {index: value}; each matrix is a list of integer rows.
    """
    for axis, matrix in enumerate(matrices):
        columns = [[(row, x) for row, x in enumerate(col) if x]
                   for col in zip(*matrix)]
        out = {}
        get = out.get
        for idx, value in entries.items():
            head, tail = idx[:axis], idx[axis + 1:]
            for row, x in columns[idx[axis]]:
                key = head + (row,) + tail
                out[key] = get(key, 0) + x * value
        entries = {key: v for key, v in out.items() if v}
    return entries
