"""Symmetrizers, Young shapes, and the embedded k<=3 Hermitian bases.

Strand labels in the public functions are 1-based, matching cycle notation.
All operators here live on all-fundamental signatures.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .coefficients import (
    RadicalCoefficient,
    RationalFunction,
    rf,
    sqrt,
)
from .diagrams import (
    InvariantElement,
    Signature,
    _Record,
    _diagram,
    _perm_inverse,
    _perm_sign,
    compose,
    identity,
    parse_cycles,
    permutation_element,
)
from .errors import OutOfRange, UnsupportedK, integer


class YoungShape(_Record):
    """A partition: weakly decreasing positive row lengths."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[int, ...]):
        lengths = tuple(integer(r, "row length", 1) for r in rows)
        if not lengths or any(a < b for a, b in zip(lengths, lengths[1:])):
            raise OutOfRange(f"shape {rows} is empty or a row grows")
        object.__setattr__(self, "rows", lengths)

    @classmethod
    def from_text(cls, text: str) -> "YoungShape":
        body = text.strip()
        if body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
        try:
            rows = tuple(int(x) for x in body.replace(",", " ").split())
        except ValueError:
            raise OutOfRange(f"cannot parse shape {text!r}") from None
        return cls(rows)

    def to_text(self) -> str:
        return "[" + ",".join(str(r) for r in self.rows) + "]"

    def conjugate(self) -> "YoungShape":
        cols = tuple(sum(1 for r in self.rows if r > j)
                     for j in range(self.rows[0]))
        return YoungShape(cols)


def _partitions(k: int, largest: int | None = None):
    """The partitions of k with parts at most largest, (k) first."""
    if k == 0:
        yield ()
    for first in range(min(k, largest or k), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def _boxes(rows: tuple[int, ...]):
    """(content, hook length) of each box of a shape, row by row."""
    for i, row_len in enumerate(rows):
        for j in range(row_len):
            yield j - i, row_len - j + sum(r > j for r in rows[i + 1:])


def _standard_tableaux(rows: tuple[int, ...]) -> int:
    """f_shape, the number of standard tableaux: |shape|!/(hook product)."""
    return math.factorial(sum(rows)) // math.prod(h for _, h in _boxes(rows))


def _young_groups(rows: tuple[int, ...]):
    """Yields the row group, then the column group, as 0-based one-line
    permutations, of the row-reading tableau: box (i, j) holds
    sum(rows[:i]) + j."""
    starts = list(itertools.accumulate(rows, initial=0))
    flat = itertools.chain.from_iterable
    for lines in ([range(a, a + r) for a, r in zip(starts, rows)],
                  [[a + j for a, r in zip(starts, rows) if r > j]
                   for j in range(rows[0])]):
        place = _perm_inverse(tuple(flat(lines)))  # box -> its slot in lines
        yield [tuple(map(tuple(flat(images)).__getitem__, place))
               for images in itertools.product(
                   *map(itertools.permutations, lines))]


def _shape_rows(shape) -> tuple[int, ...]:
    """The row lengths of a shape given as a YoungShape, as text like
    "[2,1]", as a sequence of lengths or as None; the empty shape is ()."""
    if shape is None:
        return ()
    if isinstance(shape, YoungShape):
        return shape.rows
    if isinstance(shape, str):
        text = shape.strip()
        return () if text in ("", "[]") else YoungShape.from_text(text).rows
    rows = tuple(shape)
    return YoungShape(rows).rows if rows else ()


def _embedded_sum(slots: Sequence[int], total: int,
                  signed: bool) -> InvariantElement:
    total = integer(total, "total", 1)
    slots = sorted(integer(s, "slot", 1, total) for s in slots)
    if not slots or len(set(slots)) != len(slots):
        raise OutOfRange(f"slots {slots} are empty or repeated")
    sig = Signature("q" * total)
    weight = RadicalCoefficient.from_rational(
        Fraction(1, math.factorial(len(slots))))
    terms = {}
    for image in itertools.permutations(slots):
        perm = list(range(total))
        for src, dst in zip(slots, image):
            perm[src - 1] = dst - 1
        coeff = -weight if signed and _perm_sign(perm) < 0 else weight
        terms[_diagram(sig, tuple(perm))] = coeff
    return InvariantElement(sig, terms)


def symmetrizer(slots: Iterable[int], total: int) -> InvariantElement:
    """Average of all permutations of the given strands (1-based labels)."""
    return _embedded_sum(list(slots), total, signed=False)


def antisymmetrizer(slots: Iterable[int], total: int) -> InvariantElement:
    """Signed average of all permutations of the given strands."""
    return _embedded_sum(list(slots), total, signed=True)


def irrep_dimension(shape) -> RationalFunction:
    """Product over boxes of (N + column - row) over the hook lengths.

    shape is read by _shape_rows; the empty shape has dimension 1.
    """
    boxes = list(_boxes(_shape_rows(shape)))
    num = math.prod((rf([content, 1]) for content, _ in boxes), start=rf([1]))
    return num / rf([math.prod(hook for _, hook in boxes)])


def builtin_orthogonal_basis(k: int) -> list[InvariantElement]:
    """The embedded Hermitian projection/transition sets for k <= 3.

    k=3 returns six elements: the symmetric projector, the two mixed-symmetry
    projectors with their pair of transition operators between them, and the
    antisymmetric projector.  Pairwise orthogonal under the operator inner
    product; all six bend to the known normalization pattern.
    """
    k = integer(k, "k of the built-in basis", 1, 3, UnsupportedK)
    if k == 1:
        return [identity(Signature("q"))]
    if k == 2:
        return [symmetrizer([1, 2], 2), antisymmetrizer([1, 2], 2)]
    s123 = symmetrizer([1, 2, 3], 3)
    a123 = antisymmetrizer([1, 2, 3], 3)
    s12 = symmetrizer([1, 2], 3)
    a12 = antisymmetrizer([1, 2], 3)
    a13 = antisymmetrizer([1, 3], 3)
    s13 = symmetrizer([1, 3], 3)
    swap23 = permutation_element(Signature("qqq"), parse_cycles("(2 3)", 3))
    four_thirds = Fraction(4, 3)
    root = sqrt(four_thirds)
    p_mixed_sym = compose(compose(s12, a13), s12).scaled(four_thirds)
    p_mixed_asym = compose(compose(a12, s13), a12).scaled(four_thirds)
    t_down = compose(compose(s12, swap23), a12).scaled(root)
    return [s123, p_mixed_sym, t_down, t_down.dagger(), p_mixed_asym, a123]
