"""Singlet projectors and transition operators on Mixed(k,k).

Bending an invariant operator on a tensor power of V turns it into a
state on a mixed space with equally many fundamental and antifundamental
legs, and every such state is invariant under the simultaneous group
action.  Distinct invariant operators bend into states of the same
single isotypic block, so between any two nonzero bent states there is a
transition operator, and every bent state normalizes into a projector.
This module keeps those operators in rank-one form, multiplies two of
them through one inner product of the kets between them, counts how
many survive at a given integer N, and spots states that are
dimensionally null.
"""

import math

from .coefficients import RadicalCoefficient, _json_list, _p_eval, sqrt
from .diagrams import (
    OPERATOR,
    InvariantElement,
    Signature,
    _Record,
    format_cycles,
    inner_product,
    ketbra,
    zero,
)
from .errors import OutOfRange, PoleAtN, integer
from .numeric import exact_rank
from .symmetrizers import builtin_orthogonal_basis
from .tracebasis import (
    derangement_block,
    normalized_trace_basis,
    raw_trace_states,
)

PROJECTOR = "projector"
TRANSITION = "transition"


class SingletOperator(_Record):
    """A normalization times |ket><bra| between singlet states.

    The bra is stored as a ket and daggered on use.  Projectors have
    ket == bra and normalization 1/<ket|ket>, making them idempotent;
    transitions carry the geometric mean of the two projector
    normalizations.  A normalization of zero marks the zero operator,
    which stands in for states that vanish identically.  The repr leaves
    out the ket and the bra.
    """

    __slots__ = ("ket", "bra", "normalization", "kind", "labels")
    _hidden = ("ket", "bra")

    def __init__(self, ket: InvariantElement, bra: InvariantElement,
                 normalization: RadicalCoefficient, kind: str,
                 labels: tuple = ()):
        object.__setattr__(self, "ket", ket)
        object.__setattr__(self, "bra", bra)
        object.__setattr__(self, "normalization", normalization)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "labels", labels)

    def is_zero(self) -> bool:
        return self.normalization.is_zero()

    def dagger(self) -> "SingletOperator":
        return SingletOperator(ket=self.bra, bra=self.ket,
                               normalization=self.normalization,
                               kind=self.kind,
                               labels=tuple(reversed(self.labels)))

    def expand(self) -> InvariantElement:
        """The full diagram operator on Mixed(k,k)."""
        return ketbra(self.ket, self.bra.scaled(self.normalization))

    def to_json(self) -> dict:
        return {"kind": self.kind, "labels": list(self.labels),
                "normalization": self.normalization.to_json(),
                "ket": self.ket.to_json(), "bra": self.bra.to_json()}

    @classmethod
    def from_json(cls, data) -> "SingletOperator":
        labels = tuple(_json_list(data, "labels", int))
        if data.get("kind") not in (PROJECTOR, TRANSITION):
            raise OutOfRange(f"unknown operator kind {data.get('kind')!r}")
        return cls(ket=InvariantElement.from_json(data.get("ket")),
                   bra=InvariantElement.from_json(data.get("bra")),
                   normalization=RadicalCoefficient.from_json(
                       data.get("normalization")),
                   kind=data["kind"], labels=labels)


def _ket_projector(ket: InvariantElement, labels: tuple = (),
                   norm: RadicalCoefficient | None = None) -> SingletOperator:
    """The normalized projector onto a ket; zero if the ket's norm is.

    norm is <ket|ket>, computed here unless the caller already has it.
    """
    if norm is None:
        norm = inner_product(ket, ket)
    beta = RadicalCoefficient.zero() if norm.is_zero() else 1 / norm
    return SingletOperator(ket=ket, bra=ket, normalization=beta,
                           kind=PROJECTOR, labels=labels)


def singlet_projector(operator: InvariantElement,
                      labels: tuple = ()) -> SingletOperator:
    """The normalized projector onto the bent image of an operator.

    A state with identically zero norm produces the zero operator.
    """
    return _ket_projector(operator.bend(), labels)


def rank_one_product(a: SingletOperator, b: SingletOperator) -> InvariantElement:
    """Compose two rank-one operators through one ket inner product.

    The weight is <bra_a|ket_b> times both normalizations, and the result
    is that weight times the outer product of a's ket with b's bra,
    expanded by ketbra; a zero weight gives the zero operator unexpanded.
    """
    weight = a.normalization * b.normalization * inner_product(a.bra, b.ket)
    if weight.is_zero():
        return zero(Signature(a.ket.sig.orientations, OPERATOR))
    return ketbra(a.ket, b.bra.scaled(weight))


SOURCES = ("builtin", "trace", "trace+orthogonalize")


def singlet_basis(k: int, source: str = "builtin"):
    """All k! singlet operators of Mixed(k,k) from the chosen source.

    builtin bends the hard-coded orthogonal symmetry-type elements
    (k up to 3); trace uses the generator-trace states as they come, so
    for k of 3 or more some pairs are not orthogonal;
    trace+orthogonalize post-processes them into an orthogonal family.
    """
    if source == "builtin":
        ops = builtin_orthogonal_basis(k)
        return [singlet_projector(op, labels=(i,))
                for i, op in enumerate(ops)]
    if source == "trace":
        return [_ket_projector(ket, labels=(i,))
                for i, ket in enumerate(raw_trace_states(k))]
    if source == "trace+orthogonalize":
        return normalized_trace_basis(k)
    raise OutOfRange(f"unknown source {source!r}")


def basis_states(k: int, source: str = "builtin"):
    """The bent kets behind singlet_basis, in the same order."""
    if source == "trace":
        return raw_trace_states(k)
    return [op.ket for op in singlet_basis(k, source)]


def singlet_table(k: int = 3, source: str = "builtin"):
    """The full table of projectors and transitions over one basis.

    Entry [i][j] is the projector for i == j and the transition operator
    from state j to state i otherwise.  A transition's weight is the
    geometric mean sqrt(beta_i beta_j) of the two projector
    normalizations, which are rational.  It is taken once per distinct
    product beta_i beta_j, so transitions whose weights are equal, T_ij
    and T_ji among them, hold the same weight object.
    """
    basis = singlet_basis(k, source)
    betas = [op.normalization.rational_part() for op in basis]
    roots = {}  # beta_i beta_j -> its square root, the transition weight
    table = [[None] * len(basis) for _ in basis]
    for i, row_op in enumerate(basis):
        table[i][i] = SingletOperator(row_op.ket, row_op.bra,
                                      row_op.normalization, row_op.kind,
                                      (i, i))
        for j in range(i + 1, len(basis)):
            square = betas[i] * betas[j]
            if square not in roots:
                roots[square] = sqrt(square)
            table[i][j] = SingletOperator(row_op.ket, basis[j].ket,
                                          roots[square], TRANSITION, (i, j))
            table[j][i] = table[i][j].dagger()
    return table


def gram_matrix(states):
    """Matrix of pairwise inner products <i|j> of a shared-signature family.

    Coefficients are real, so <j|i> = <i|j> and only the upper triangle is
    computed.
    """
    gram = [[None] * len(states) for _ in states]
    for i, a in enumerate(states):
        for j in range(i, len(states)):
            gram[i][j] = gram[j][i] = inner_product(a, states[j])
    return gram


def _require_finite(states, n: int, name) -> None:
    """Raise PoleAtN if a coefficient of one of the states has a pole at n.

    One walk over the states' terms; the message names the first such
    term: name(state index) and its diagram.
    """
    for i, state in enumerate(states):
        for diag, coeff in state.terms.items():
            if any(not _p_eval(mult.den, n) for mult in coeff.terms.values()):
                raise PoleAtN(
                    f"{name(i)} has a pole at N={n} in the coefficient "
                    f"of {format_cycles(diag.perm)}")


def is_dimensionally_null(state: InvariantElement, n: int) -> bool:
    """Whether a ket vanishes at N = n.

    The inner product is positive definite at integer N >= 1, so the
    state is the zero tensor exactly when its norm evaluates to zero.
    A state with a coefficient that has a pole at n raises PoleAtN.
    """
    n = integer(n, "N", 1)
    _require_finite([state], n, lambda i: "the state")
    parts = inner_product(state, state).eval_at(n)
    return all(value == 0 for value in parts.values())


def singlet_count(k: int, n: int, source: str = "trace") -> int:
    """Number of independent singlet states of Mixed(k,k) at N = n.

    Two routes, by source.  builtin and trace+orthogonalize are
    orthogonal, so their count builds the basis on each call, keeping
    none of it, and counts the norms <i|i> = 1/beta_i that do not vanish
    at n.  Each trace+orthogonalize call thus rebuilds
    normalized_trace_basis(k), about 3 s at k = 5; the trace route
    answers the same counts from the cached D_s blocks.  The trace
    states' Gram matrix is block diagonal by moved set, the block of
    each of the C(k, s) moved sets with s points being
    N^(k-s) D_s (see derangement_block), so the trace count is
    1 + sum_{s=2..k} C(k, s) rank D_s(n): the identity state, then the
    derangement states on s points.  Each distinct entry of D_s is
    evaluated once at n, as an integer over the lcm of the block's
    denominators, and placed by derangement_block's index rows; the k!
    trace states are never built.  Only an orthogonal source can have a
    pole at n: a trace-state coefficient is a product of weights
    c (-1/N)^j, so every denominator on the trace route is c N^j, which
    is never 0 at n >= 1.  A source state with a coefficient that has a
    pole at n does not specialize, and raises PoleAtN.
    """
    k, n = integer(k, "k", 1), integer(n, "N", 1)
    if source != "trace":
        basis = singlet_basis(k, source)
        _require_finite([op.ket for op in basis], n,
                        lambda i: f"{source} state {i}")
        return sum(1 for op in basis
                   if (1 / op.normalization).rational_part().eval_at(n))
    count = 1
    for s in range(2, k + 1):
        entries, rows = derangement_block(s)
        scale = math.lcm(*(_p_eval(e.den, n) for e in entries))
        values = [_p_eval(e.num, n) * scale // _p_eval(e.den, n)
                  for e in entries]
        count += math.comb(k, s) * exact_rank([[values[j] for j in row]
                                               for row in rows])
    return count
