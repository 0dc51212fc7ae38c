"""Levi-Civita constructions at fixed N.

Symbolic-N reasoning never touches an epsilon directly, since its rank
would be N; everything here either counts (Pieri growth, transient
parameters) or contracts honest integer tensors at one concrete N.  A
lone epsilon stays raw, entries in {-1, 0, 1}: the 1/sqrt(N!) of the
usual normalization and its phase only ever appear squared, so paired
identities carry a rational 1/N! per pair and no phase at all.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import reduce

from .diagrams import (
    _Record,
    _perm_sign,
    compose,
    identity,
    operator_signature,
    tensor,
)
from .errors import (
    BadBlockSize,
    DimensionMismatch,
    NotProportional,
    OutOfRange,
    integer,
)
from .numeric import (
    DENSE_CAP,
    ExactTensor,
    _check_cap,
    evaluate,
    integer_entries,
)
from .singlets import singlet_projector
from .symmetrizers import (
    YoungShape,
    _shape_rows,
    antisymmetrizer,
    irrep_dimension,
    symmetrizer,
)


class TransientParams(_Record):
    """One way to absorb the leg imbalance of Mixed(m, n) into eps blocks.

    a blocks trade N fundamental legs each, b blocks do the same on the
    antifundamental side, and k = m - aN = n - bN generic pairs remain.
    The balanced problem then lives on Mixed(alpha, alpha) with
    alpha = (a + b)(N - 1) + k.
    """

    __slots__ = ("a", "b", "k", "alpha")

    def __init__(self, a: int, b: int, k: int, alpha: int):
        for name, value in zip(self.__slots__, (a, b, k, alpha)):
            object.__setattr__(self, name, integer(value, name, 0))
        if self.a + self.b < 1:
            raise OutOfRange(f"not a transient layout: {self}")

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_json(cls, data: dict) -> "TransientParams":
        if not isinstance(data, dict):
            raise OutOfRange(f"transient parameters not an object: {data!r}")
        return cls(*(data.get(name) for name in cls.__slots__))


def pieri_add_antifundamental(shape, n_param: int) -> list[YoungShape]:
    """Shapes reachable from `shape` by tensoring on one V* leg.

    A single antifundamental is the column of N - 1 boxes: by the Pieri
    rule every row but one of the N grows by a box, as in the steps of
    lr_decomposition.  Sorted longest-row-first.
    """
    rows, n_param = _shape_rows(shape), integer(n_param, "N", 2)
    if len(rows) > n_param:
        raise OutOfRange(f"shape {list(rows)} has more than {n_param} rows")
    return sorted((YoungShape(grown) for grown
                   in _column_additions(rows, n_param - 1, n_param)),
                  key=lambda s: s.rows, reverse=True)


def _column_additions(rows: tuple[int, ...], size: int, n_param: int):
    padded = rows + (0,) * (n_param - len(rows))
    for grown in itertools.combinations(range(n_param), size):
        cand = list(padded)
        for r in grown:
            cand[r] += 1
        if all(cand[i] >= cand[i + 1] for i in range(n_param - 1)):
            yield tuple(x for x in cand if x)


def lr_decomposition(m: int, n: int, n_param: int) -> list[YoungShape]:
    """Irrep multiset of V^m x V*^n at N = n_param, duplicates included.

    Starts from the empty shape and tensors on one column per factor: a
    fundamental is the column of one box and an antifundamental the
    column of N - 1 boxes.  By the Pieri rule a column of c boxes grows
    c distinct rows, and the result has to stay a shape on at most N
    rows.  Shapes keep any full height-N columns; shape_dimension strips
    those, and summing it over the result gives n_param^(m + n).  The
    m = n = 0 product is only the trivial representation, which has no
    boxes, so the list comes back empty.
    """
    n_param = integer(n_param, "N", 2)
    m, n = integer(m, "m", 0), integer(n, "n", 0)
    current: list[tuple[int, ...]] = [()]
    for size in (1,) * m + (n_param - 1,) * n:
        current = [grown for rows in current
                   for grown in _column_additions(rows, size, n_param)]
    return sorted((YoungShape(rows) for rows in current if rows),
                  key=lambda s: s.rows, reverse=True)


def shape_dimension(shape, n_param: int) -> int:
    """Size of the SU(N) irrep labelled by `shape` at N = n_param.

    Full height-N columns are pure determinant factors and get stripped
    first; a shape that is nothing but full columns has dimension 1.
    """
    rows, n_param = _shape_rows(shape), integer(n_param, "N", 2)
    if len(rows) > n_param:
        raise OutOfRange(f"shape {list(rows)} does not fit in {n_param} rows")
    if len(rows) == n_param:
        full = rows[-1]
        rows = tuple(r - full for r in rows if r > full)
    return int(irrep_dimension(rows).eval_at(n_param))


def transient_singlet_params(m: int, n: int,
                             n_param: int) -> list[TransientParams]:
    """All epsilon-block layouts that balance Mixed(m, n) at N = n_param.

    Solves m - a*N = n - b*N = k over non-negative integers with
    a + b >= 1; the a = b = 0 solution is the generic singlet and is not
    listed.  Each solution is one family of transient singlets living on
    Mixed(alpha, alpha), alpha = (a + b)(N - 1) + k.
    """
    n_param = integer(n_param, "N", 2)
    m, n = integer(m, "m", 0), integer(n, "n", 0)
    out = []
    for a in range(m // n_param + 1):
        k = m - a * n_param
        rest = n - k
        if rest < 0 or rest % n_param:
            continue
        b = rest // n_param
        if a + b < 1:
            continue
        alpha = (a + b) * (n_param - 1) + k
        out.append(TransientParams(a, b, k, alpha))
    return out


def epsilon_tensor(n_param: int) -> ExactTensor:
    """The rank-N alternating symbol at N = n_param, entries -1, 0, 1.

    Deliberately phase-unnormalized: identities that pair two of these
    apply 1/N! per pair on the outside instead.
    """
    n_param = integer(n_param, "N", 2)
    if n_param ** n_param > DENSE_CAP:
        raise OutOfRange(f"rank-{n_param} symbol exceeds the dense cap")
    entries = {perm: Fraction(_perm_sign(perm))
               for perm in itertools.permutations(range(n_param))}
    return ExactTensor((n_param,) * n_param, entries=entries)


def leibniz_translate(tensor_in: ExactTensor, j: int):
    """Trade the leading N - j legs of a tensor for j antifundamental ones.

    Contracts one rank-N alternating symbol against the leading block of
    N - j axes (epsilon index order = axis order); the j leftover epsilon
    indices become new leading axes.  N is read off the axis dimension.
    Returns the translated tensor together with the count of legs
    contracted, which is the caller's handle for scalar bookkeeping: the
    second translation of a pair owes a 1/N!, and projector constructions
    owe whatever extra factor idempotency demands on top.
    """
    if not tensor_in.shape:
        raise BadBlockSize("tensor has no legs to translate")
    n_param = tensor_in.shape[0]
    if any(d != n_param for d in tensor_in.shape):
        raise DimensionMismatch(f"mixed axis dimensions {tensor_in.shape}")
    j = integer(j, "j", 1, n_param - 1, BadBlockSize)
    block = n_param - j
    if block > len(tensor_in.shape):
        raise BadBlockSize(
            f"block of {block} legs, but the tensor only has "
            f"{len(tensor_in.shape)}")
    groups: dict[tuple, list] = {}
    for idx, val in tensor_in.entries.items():
        groups.setdefault(idx[:block], []).append((idx[block:], val))
    out: dict[tuple, Fraction] = {}
    for perm in itertools.permutations(range(n_param)):
        bucket = groups.get(perm[:block])
        if not bucket:
            continue
        sign = _perm_sign(perm)
        fresh = perm[block:]
        for rest, val in bucket:
            key = fresh + rest
            out[key] = out.get(key, 0) + sign * val
    shape = (n_param,) * j + tensor_in.shape[block:]
    return ExactTensor(shape, entries=out), block


def _swallow_columns(t: ExactTensor, columns) -> ExactTensor:
    """Contract each column of N - 1 axes of t into an epsilon, in turn.

    Columns name t's own axes, in epsilon index order.  The fresh leg of
    a column takes the place of the column's first axis, and every other
    axis keeps its order.
    """
    labels = list(range(len(t.shape)))
    for column in columns:
        front = [labels.index(axis) for axis in column]
        rest = [pos for pos in range(len(labels)) if pos not in front]
        t, _ = leibniz_translate(t.permuted(front + rest), 1)
        labels = [column[0]] + [labels[pos] for pos in rest]
    return t.permuted(sorted(range(len(labels)), key=labels.__getitem__))


def lr_pair_projector(kind: str, n_param: int) -> ExactTensor:
    """The singlet or adjoint projector on V x V*, built the long way.

    Starts from the N-strand projector whose shape column-reduces to the
    requested irrep: the full antisymmetric column for the singlet, and
    for the adjoint S12 A(2..N) S12, a positive multiple of the hermitian
    one-row-of-two projector (S12 absorbs the swap of levels 1 and 2, so
    this is S12 A(1,3..N) S12).  Both sides then have their legs 2..N
    swallowed by an epsilon.  Axes run (fund out, anti out, fund in, anti
    in); the results agree with the Fierz forms (1/N) trace-pair and
    identity - (1/N) trace-pair.

    Only the seed's integer numerators are translated, so every positive
    scale is lost, and idempotency pins it: the translated operator M,
    rows keyed by the output axes and columns by the input axes, must
    square to p/x times itself, x its entry at its least index and p the
    square's entry there, and the projector is M x / p.
    """
    n = integer(n_param, "N", 2)
    if kind == "singlet":
        seed = antisymmetrizer(range(1, n + 1), n)
    elif kind == "adjoint":
        sym = symmetrizer([1, 2], n)
        seed = compose(compose(sym, antisymmetrizer(range(2, n + 1), n)), sym)
    else:
        raise OutOfRange(f"unknown projector kind {kind!r}")
    t = ExactTensor((n,) * (2 * n), entries=integer_entries(seed, n)[1])
    mat = _swallow_columns(t, [range(1, n), range(n + 1, 2 * n)]).entries
    rows: dict[tuple, list] = {}
    for idx, val in mat.items():
        rows.setdefault(idx[:2], []).append((idx[2:], val))
    square = Counter()
    for idx, val in mat.items():
        for col, y in rows.get(idx[2:], ()):
            square[idx[:2] + col] += val * y
    first = min(mat, default=None)
    x, p = mat.get(first, 0), square[first]
    if not p:
        raise NotProportional("translated operator squares to zero")
    if any(square[key] * x != p * mat.get(key, 0)
           for key in mat.keys() | square.keys()):
        raise NotProportional("translated operator does not square to itself")
    return ExactTensor((n,) * 4, entries={
        key: Fraction(val * x, p) for key, val in mat.items()})


def _transient_operator(params: TransientParams, n_param: int):
    """The a + b antisymmetrizers on N - 1 levels (the translated
    epsilons), tensored with the identity on the k generic pairs."""
    if (params.a + params.b) * (n_param - 1) + params.k != params.alpha:
        raise OutOfRange(f"alpha of {params} is inconsistent at N={n_param}")
    blocks = ([antisymmetrizer(range(1, n_param), n_param - 1)]
              * (params.a + params.b))
    if params.k:
        blocks.append(identity(operator_signature(params.k, 0)))
    return reduce(tensor, blocks)


def transient_singlet_projector(params: TransientParams, n_param: int):
    """The canonical balanced singlet projector for one parameter set.

    The expanded |s><s| / <s|s> of the transient operator's ket s on
    Mixed(alpha, alpha).  Symbolic in N; evaluated at n_param, its trace
    is exactly 1.
    """
    n_param = integer(n_param, "N", 2)
    return singlet_projector(_transient_operator(params, n_param)).expand()


def translated_singlet_ket(params: TransientParams,
                           n_param: int) -> tuple[int, dict]:
    """The transient singlet of one layout, translated onto Mixed(m, n).

    Swallows one column of N - 1 legs of the transient ket per epsilon
    block: an a block's antifundamental legs become one fundamental leg,
    a b block's fundamental legs one antifundamental leg; the k pairs
    stay.  Legs run: every a block's own N - 1 legs, the k pair legs,
    each a block's new leg (m fundamental); each b block's new leg, every
    b block's own N - 1 legs, the k pair legs (n antifundamental).  The
    ket comes as integer_entries gives one, (den, {index: num}), at
    N = n_param; it is SU(N) invariant, and U(1) acts as det^(a - b).
    """
    n_param = integer(n_param, "N", 2)
    _check_cap(n_param, 2 * params.alpha)
    den, nums = integer_entries(
        _transient_operator(params, n_param).bend(), n_param)
    alpha, width = params.alpha, n_param - 1
    # bend puts the alpha fundamental legs first, then their partners
    starts = ([alpha + i * width for i in range(params.a)]
              + [i * width for i in range(params.a, params.a + params.b)])
    columns = [range(start, start + width) for start in starts]
    t = _swallow_columns(
        ExactTensor((n_param,) * (2 * alpha), entries=nums), columns)
    gone = {axis for column in columns for axis in column[1:]}
    anti = [(axis < alpha) == (axis in starts)
            for axis in range(2 * alpha) if axis not in gone]
    order = sorted(range(len(anti)), key=anti.__getitem__)
    return den, t.permuted(order).entries


def verify_baryon_equivalence(n_param: int = 3) -> bool:
    """True iff Mixed(3, 0) has a transient layout at N = n_param (only
    N = 3 does) and its translated ket t has |t><t| / <t|t> = A(1, 2, 3).
    """
    n_param = integer(n_param, "N", 2)
    layouts = transient_singlet_params(3, 0, n_param)
    if not layouts:
        return False
    _, ket = translated_singlet_ket(layouts[0], n_param)
    norm = sum(v * v for v in ket.values())
    paired = {out + into: Fraction(x * y, norm)
              for out, x in ket.items() for into, y in ket.items()}
    want = evaluate(antisymmetrizer([1, 2, 3], n_param), n_param).entries
    return paired == want
