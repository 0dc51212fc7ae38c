"""Symmetrizers, Young projectors, and the embedded k<=3 Hermitian bases.

Strand labels in the public functions are 1-based, matching cycle notation.
All operators here live on all-fundamental signatures.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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
    PrimitiveDiagram,
    Signature,
    _perm_sign,
    compose,
    identity,
    inner_product,
    parse_cycles,
    permutation_element,
)
from .errors import NotProportional, OutOfRange, UnsupportedK


@dataclass(frozen=True)
class YoungShape:
    """A partition: weakly decreasing positive row lengths."""

    rows: tuple[int, ...]

    def __post_init__(self):
        if not self.rows or any(r < 1 for r in self.rows):
            raise OutOfRange(f"bad shape {self.rows}")
        if any(self.rows[i] < self.rows[i + 1] for i in range(len(self.rows) - 1)):
            raise OutOfRange(f"rows not weakly decreasing: {self.rows}")

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

    @property
    def boxes(self) -> int:
        return sum(self.rows)

    def conjugate(self) -> "YoungShape":
        cols = tuple(sum(1 for r in self.rows if r > j)
                     for j in range(self.rows[0]))
        return YoungShape(cols)

    def column_lengths(self) -> tuple[int, ...]:
        return self.conjugate().rows


@dataclass(frozen=True)
class StandardTableau:
    """A standard filling: rows of entries increasing along rows and columns."""

    filling: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = [len(r) for r in self.filling]
        YoungShape(tuple(rows))  # validates the underlying shape
        entries = [e for row in self.filling for e in row]
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise OutOfRange(f"filling is not a bijection onto 1..{len(entries)}")
        for row in self.filling:
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                raise OutOfRange(f"row not increasing: {row}")
        for col in self.columns():
            if any(col[i] >= col[i + 1] for i in range(len(col) - 1)):
                raise OutOfRange(f"column not increasing: {col}")

    @classmethod
    def from_text(cls, text: str) -> "StandardTableau":
        try:
            rows = [tuple(int(x) for x in chunk.split())
                    for chunk in text.split("/")]
        except ValueError:
            raise OutOfRange(f"cannot parse tableau {text!r}") from None
        return cls(tuple(row for row in rows if row))

    @property
    def shape(self) -> YoungShape:
        return YoungShape(tuple(len(r) for r in self.filling))

    @property
    def boxes(self) -> int:
        return sum(len(r) for r in self.filling)

    def columns(self) -> list[tuple[int, ...]]:
        width = len(self.filling[0])
        out = []
        for j in range(width):
            out.append(tuple(row[j] for row in self.filling if len(row) > j))
        return out


def _embedded_sum(slots: Sequence[int], total: int,
                  signed: bool) -> InvariantElement:
    slots = sorted(slots)
    if not slots:
        raise OutOfRange("empty slot set")
    if slots[0] < 1 or slots[-1] > total or len(set(slots)) != len(slots):
        raise OutOfRange(f"slots {slots} not within 1..{total}")
    sig = Signature("q" * total)
    weight = RadicalCoefficient.from_rational(
        Fraction(1, math.factorial(len(slots))))
    terms = {}
    for image in itertools.permutations(slots):
        perm = list(range(total))
        for src, dst in zip(slots, image):
            perm[src - 1] = dst - 1
        coeff = -weight if signed and _perm_sign(perm) < 0 else weight
        terms[PrimitiveDiagram(sig, tuple(perm))] = coeff
    return InvariantElement(sig, terms)


def symmetrizer(slots: Iterable[int], total: int) -> InvariantElement:
    """Average of all permutations of the given strands (1-based labels)."""
    return _embedded_sum(list(slots), total, signed=False)


def antisymmetrizer(slots: Iterable[int], total: int) -> InvariantElement:
    """Signed average of all permutations of the given strands."""
    return _embedded_sum(list(slots), total, signed=True)


def proportionality(a: InvariantElement,
                    b: InvariantElement) -> RadicalCoefficient:
    """The scalar c with a = c*b, or NotProportional."""
    if a.sig != b.sig:
        raise NotProportional("different signatures")
    if b.is_zero():
        raise NotProportional("right element is zero")
    probe_diag = next(iter(b.terms))
    num = a.terms.get(probe_diag)
    if num is None:
        raise NotProportional("support mismatch")
    c = num / b.terms[probe_diag]
    if a != b.scaled(c):
        raise NotProportional(f"ratio {c} does not hold on all terms")
    return c


def young_projector(tableau: StandardTableau | str,
                    total: int | None = None) -> InvariantElement:
    """Idempotent row-symmetrized, column-antisymmetrized projector.

    The raw product e = (row symmetrizers)(column antisymmetrizers)
    satisfies e∘e = c·e for an N-independent constant; the result is e/c.
    """
    if isinstance(tableau, str):
        tableau = StandardTableau.from_text(tableau)
    m = tableau.boxes if total is None else total
    if m < tableau.boxes:
        raise OutOfRange(f"{m} strands cannot hold {tableau.boxes} boxes")
    e = identity(Signature("q" * m))
    for row in tableau.filling:
        if len(row) > 1:
            e = compose(e, symmetrizer(row, m))
    for col in tableau.columns():
        if len(col) > 1:
            e = compose(e, antisymmetrizer(col, m))
    c = proportionality(compose(e, e), e)
    return e.scaled(RadicalCoefficient.one() / c)


def irrep_dimension(shape: YoungShape | str) -> RationalFunction:
    """Product over boxes of (N + column - row) over the hook lengths."""
    if isinstance(shape, str):
        shape = YoungShape.from_text(shape)
    cols = shape.column_lengths()
    num = rf([1])
    hooks = 1
    for i, row_len in enumerate(shape.rows):
        for j in range(row_len):
            num = num * rf([j - i, 1])
            hooks *= (row_len - j) + (cols[j] - i) - 1
    return num / rf([hooks])


def builtin_orthogonal_basis(k: int) -> list[InvariantElement]:
    """The embedded Hermitian projection/transition sets for k <= 3.

    k=3 returns six elements: the symmetric projector, the two mixed-symmetry
    projectors with their pair of transition operators between them, and the
    antisymmetric projector.  Pairwise orthogonal under the operator inner
    product; all six bend to the known normalization pattern.
    """
    if k < 1 or k > 3:
        raise UnsupportedK(
            f"no embedded basis for k={k}; orthogonalize the trace basis")
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
    t_up = compose(compose(a12, swap23), s12).scaled(root)
    return [s123, p_mixed_sym, t_down, t_up, p_mixed_asym, a123]


def gram_schmidt(states: Sequence[InvariantElement],
                 ) -> tuple[list[InvariantElement], list[int]]:
    """Orthogonalize kets over Q(N) without normalizing.

    Returns (orthogonal states, indices of inputs dropped as dependent).
    A state with identically zero norm is a genuine linear combination of
    its predecessors, so dropping exactly the zero vectors is sound.
    """
    ortho: list[InvariantElement] = []
    norms: list[RadicalCoefficient] = []
    dropped: list[int] = []
    for i, v in enumerate(states):
        u = v
        for w, nw in zip(ortho, norms):
            overlap = inner_product(w, u)
            if not overlap.is_zero():
                u = u - w.scaled(overlap / nw)
        if u.is_zero():
            dropped.append(i)
        else:
            ortho.append(u)
            norms.append(inner_product(u, u))
    return ortho, dropped
