"""Primitive invariant diagrams on mixed tensor powers and their algebra.

An operator on V^(x)m (x) V*^(x)n is spanned by primitive diagrams: perfect
matchings of delta lines between 2(m+n) endpoints.  Each diagram is stored
through the one-to-one correspondence with a permutation of the m+n levels:
start from the permutation's all-fundamental diagram (a strand from right
endpoint a to left endpoint perm[a]) and swap the left and right endpoints
of every antifundamental level.

Kets (invariant states, all legs outgoing) use the same class with a ket
signature; their linking permutation pairs the j-th antifundamental leg with
the perm[j]-th fundamental leg, counting each orientation in slot order.

Composition glues diagrams endpoint to endpoint; every closed loop created
by the gluing contributes a factor N.  The convention is fixed so that
compose(A, B) acts as "A after B", matching left-to-right concatenation of
the pictures: composing the permutation operators (12) and (132) on V^(x)3
yields (13).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .coefficients import (
    RadicalCoefficient,
    RationalFunction,
    _ONE,
    _RF_ONE,
    _UNIT_KEY,
    _as_radical,
    _json_list,
    _p_exquo,
    _p_lcm,
    _p_mul,
    _trim,
    rf,
)
from .errors import (
    MixedRoleTensor,
    OutOfRange,
    SignatureMismatch,
    integer,
)

FUND = "q"
ANTI = "b"

OPERATOR = "operator"
KET = "ket"


class _Record:
    """An immutable record whose fields are its class's __slots__.

    __init__ sets each field once through object.__setattr__; afterwards
    assignment raises AttributeError.  Records of one class compare and
    hash by their fields, and print as the class called with them, except
    the fields named in _hidden.
    """

    __slots__ = ()
    _hidden = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__
                          if name not in self._hidden)
        return f"{type(self).__qualname__}({shown})"


class Signature(_Record):
    """Orientation string ('q' fundamental / 'b' antifundamental) plus role."""

    __slots__ = ("orientations", "role")

    def __init__(self, orientations: str, role: str = OPERATOR):
        if role not in (OPERATOR, KET):
            raise OutOfRange(f"unknown role {role!r}")
        if (not isinstance(orientations, str)
                or set(orientations) - {FUND, ANTI}):
            raise OutOfRange(f"bad orientation string {orientations!r}")
        object.__setattr__(self, "orientations", orientations)
        object.__setattr__(self, "role", role)

    # every diagram compares and hashes its signature: spelled out for speed
    def __eq__(self, other):
        if other.__class__ is not Signature:
            return NotImplemented
        return (self.orientations == other.orientations
                and self.role == other.role)

    def __hash__(self):
        return hash((self.orientations, self.role))

    @property
    def n_slots(self) -> int:
        return len(self.orientations)

    @property
    def n_fund(self) -> int:
        return self.orientations.count(FUND)

    @property
    def n_anti(self) -> int:
        return self.orientations.count(ANTI)

    def is_operator(self) -> bool:
        return self.role == OPERATOR

    def to_json(self) -> dict:
        return {"orientations": self.orientations, "role": self.role}

    @classmethod
    def from_json(cls, data: Mapping) -> "Signature":
        if not isinstance(data, dict):
            raise OutOfRange(f"signature is not an object: {data!r}")
        return cls(data.get("orientations"), data.get("role"))


def operator_signature(m: int, n: int) -> Signature:
    """The canonical operator signature on Mixed(m, n): m 'q' then n 'b'."""
    return Signature(FUND * integer(m, "m", 0) + ANTI * integer(n, "n", 0))


def ket_signature(m: int, n: int) -> Signature:
    return Signature(operator_signature(m, n).orientations, KET)


class PrimitiveDiagram(_Record):
    """One delta-line matching, encoded by a signature and a permutation.

    perm is 0-based.  For operators, perm maps each level to its image in
    the underlying all-fundamental permutation.  For kets, perm maps the
    rank of each antifundamental leg to the rank of its fundamental partner.
    """

    __slots__ = ("sig", "perm")

    def __init__(self, sig: Signature, perm: Iterable[int]):
        size = sig.n_slots if sig.is_operator() else sig.n_anti
        if not sig.is_operator() and sig.n_fund != sig.n_anti:
            raise SignatureMismatch(
                f"ket diagram needs equal leg counts, got {sig.orientations!r}")
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "perm", _permutation(perm, size))

    # diagrams key every element's terms: spelled out for speed
    def __eq__(self, other):
        if other.__class__ is not PrimitiveDiagram:
            return NotImplemented
        return self.perm == other.perm and self.sig == other.sig

    def __hash__(self):
        return hash((self.sig, self.perm))

    def matching(self) -> Mapping[int, int]:
        """The physical endpoint pairing, as a symmetric read-only mapping.

        Operators: endpoints 0..k-1 are the left side, k..2k-1 the right.
        Kets: endpoints are the slots themselves.  Each pairing is built
        once per (orientations, perm) and shared by every caller.
        """
        if self.sig.is_operator():
            return _operator_matching(self.sig.orientations, self.perm)
        return _ket_matching(self.sig.orientations, self.perm)


def _diagram(sig: Signature, perm: tuple[int, ...]) -> PrimitiveDiagram:
    """The diagram of a perm tuple that is a permutation by construction."""
    diag = object.__new__(PrimitiveDiagram)
    object.__setattr__(diag, "sig", sig)
    object.__setattr__(diag, "perm", perm)
    return diag


@lru_cache(maxsize=1 << 14)
def _operator_matching(orients: str,
                       perm: tuple[int, ...]) -> Mapping[int, int]:
    k = len(orients)
    pairs = {}
    for a in range(k):
        src = k + a if orients[a] == FUND else a          # P(a)
        b = perm[a]
        dst = b if orients[b] == FUND else k + b          # Q(perm[a])
        pairs[src] = dst
        pairs[dst] = src
    return MappingProxyType(pairs)


@lru_cache(maxsize=1 << 14)
def _ket_matching(orients: str, perm: tuple[int, ...]) -> Mapping[int, int]:
    fund_slots = [i for i, o in enumerate(orients) if o == FUND]
    anti_slots = [i for i, o in enumerate(orients) if o == ANTI]
    pairs = {}
    for j, a_slot in enumerate(anti_slots):
        f_slot = fund_slots[perm[j]]
        pairs[a_slot] = f_slot
        pairs[f_slot] = a_slot
    return MappingProxyType(pairs)


def _matching_to_ket_perm(orients: str, pairs: Mapping[int, int]) -> tuple[int, ...]:
    fund_rank = {s: r for r, s in
                 enumerate(i for i, o in enumerate(orients) if o == FUND)}
    anti_slots = [i for i, o in enumerate(orients) if o == ANTI]
    return tuple(fund_rank[pairs[a]] for a in anti_slots)


def _matching_to_op_perm(orients: str, pairs: Mapping[int, int]) -> tuple[int, ...]:
    k = len(orients)
    perm = []
    for a in range(k):
        src = k + a if orients[a] == FUND else a
        dst = pairs[src]
        b = dst % k
        expected = b if orients[b] == FUND else k + b
        if dst != expected:
            raise SignatureMismatch("matching is not orientation-consistent")
        perm.append(b)
    return tuple(perm)


def _permutation(perm, size: int, error=OutOfRange) -> tuple[int, ...]:
    """perm as a tuple; error unless it is a one-line perm of 0..size-1."""
    perm = tuple(perm)
    if set(map(type, perm)) <= {int} and sorted(perm) == list(range(size)):
        return perm  # plain ints, which integer() would pass unchanged
    perm = tuple(integer(x, "permutation entry", 0, size - 1, error)
                 for x in perm)
    if sorted(perm) != list(range(size)):
        raise error(f"{perm} is not a permutation of 0..{size - 1}")
    return perm


def _cycles(perm: Sequence[int]) -> list[list[int]]:
    """Disjoint cycles of a 0-based permutation, fixed points included.

    Each cycle starts at its smallest entry, in order of those entries.
    """
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = []
        j = start
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = perm[j]
        out.append(cycle)
    return out


def _perm_sign(perm: Sequence[int]) -> int:
    """Sign of a 0-based permutation: (-1)^(size - number of cycles)."""
    return -1 if (len(perm) - len(_cycles(perm))) % 2 else 1


def _perm_inverse(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for a, b in enumerate(perm):
        inv[b] = a
    return tuple(inv)


def _conjugate(c: Sequence[int], sigma: Sequence[int]) -> tuple[int, ...]:
    """c sigma c^-1 for 0-based one-line permutations."""
    out = [0] * len(c)
    for j, x in enumerate(sigma):
        out[c[j]] = c[x]
    return tuple(out)


@lru_cache(maxsize=None)
def _n_power(k: int) -> RationalFunction:
    return rf([0] * k + [1])


class InvariantElement:
    """A finite linear combination of primitive diagrams on one signature.

    Kets also carry their Gram form (see _gram_form), built on the first
    inner product, and every element keeps the dict of its first to_json.
    Equality and hashing ignore both; to_json returns the same dict on
    every call, so callers share it and must not modify it.
    """

    __slots__ = ("sig", "terms", "_gram", "_json")

    def __init__(self, sig: Signature,
                 terms: Mapping[PrimitiveDiagram, RadicalCoefficient] | None = None):
        cleaned = {}
        if terms:
            for diag, coeff in terms.items():
                if diag.sig != sig:
                    raise SignatureMismatch(
                        f"term signature {diag.sig} != element signature {sig}")
                if not coeff.is_zero():
                    cleaned[diag] = coeff
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "_gram", None)
        object.__setattr__(self, "_json", None)

    def __setattr__(self, name, value):
        raise AttributeError("InvariantElement is immutable")

    # -- construction helpers -----------------------------------------------

    @classmethod
    def from_perm(cls, sig: Signature, perm: Iterable[int],
                  coeff=1) -> "InvariantElement":
        return cls(sig, {PrimitiveDiagram(sig, perm): _as_radical(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def n_terms(self) -> int:
        return len(self.terms)

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "InvariantElement") -> "InvariantElement":
        if self.sig != other.sig:
            raise SignatureMismatch(f"{self.sig} + {other.sig}")
        return _collect(self.sig, itertools.chain(self.terms.items(),
                                                  other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return InvariantElement(self.sig, {d: -c for d, c in self.terms.items()})

    def scaled(self, factor) -> "InvariantElement":
        factor = _as_radical(factor)
        return InvariantElement(
            self.sig, {d: c * factor for d, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, InvariantElement):
            return compose(self, other)
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    def __truediv__(self, other):
        return self.scaled(RadicalCoefficient.one() / _as_radical(other))

    def __eq__(self, other):
        if not isinstance(other, InvariantElement):
            return NotImplemented
        return self.sig == other.sig and self.terms == other.terms

    def __hash__(self):
        return hash((self.sig, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return f"<zero element on {self.sig.orientations!r}>"
        bits = []
        for diag in sorted(self.terms, key=lambda d: d.perm):
            bits.append(f"({self.terms[diag]!r}) {format_cycles(diag.perm)}")
        return " + ".join(bits)

    # -- diagram operations ---------------------------------------------------

    def dagger(self) -> "InvariantElement":
        """Flip about the vertical axis and reverse arrows (operator adjoint)."""
        if not self.sig.is_operator():
            raise SignatureMismatch("dagger is defined on operators")
        out = {}
        for diag, coeff in self.terms.items():
            flipped = _diagram(self.sig, _perm_inverse(diag.perm))
            out[flipped] = coeff  # coefficients are real
        return InvariantElement(self.sig, out)

    def trace(self) -> RadicalCoefficient:
        """Full trace; each primitive contributes N^(cycle count)."""
        if not self.sig.is_operator():
            raise SignatureMismatch("trace is defined on operators")
        total = RadicalCoefficient.zero()
        for diag, coeff in self.terms.items():
            total = total + coeff * _n_power(len(_cycles(diag.perm)))
        return total

    def partial_trace(self, levels: Iterable[int]) -> "InvariantElement":
        """Glue left to right endpoints on the given levels (0-based)."""
        if not self.sig.is_operator():
            raise SignatureMismatch("partial trace is defined on operators")
        k = self.sig.n_slots
        glued = sorted({integer(a, "level", 0, k - 1) for a in levels})
        keep = [a for a in range(k) if a not in set(glued)]
        new_sig = Signature("".join(self.sig.orientations[a] for a in keep),
                            OPERATOR)
        # endpoint -> result endpoint: left a -> i, right k + a -> kept + i
        new_of_old = {}
        for i, a in enumerate(keep):
            new_of_old[a] = i
            new_of_old[k + a] = len(keep) + i
        joins = {}
        for a in glued:
            joins[a] = k + a
            joins[k + a] = a
        out = []
        for diag, coeff in self.terms.items():
            free, loops = _glue(diag.matching(), joins)
            reduced = {new_of_old[e]: new_of_old[f] for e, f in free.items()}
            perm = _matching_to_op_perm(new_sig.orientations, reduced)
            out.append((_diagram(new_sig, perm),
                        coeff * _n_power(loops)))
        return _collect(new_sig, out)

    def bend(self) -> "InvariantElement":
        """Reshape an operator into a ket on Mixed(k, k), k = m + n.

        Output legs keep their orientation; input legs flip.  The canonical
        leg order puts all fundamental legs first, then all antifundamental
        ones, each block preserving the original level order with the left
        (output) side before the right (input) side.
        """
        if not self.sig.is_operator():
            raise SignatureMismatch("bend is defined on operators")
        # endpoint e becomes a leg: left legs keep their orientation, right
        # legs flip; order lists the endpoints in final leg order
        k = self.sig.n_slots
        legs = self.sig.orientations + self.sig.orientations.translate(
            {ord(FUND): ANTI, ord(ANTI): FUND})
        order = ([e for e, o in enumerate(legs) if o == FUND]
                 + [e for e, o in enumerate(legs) if o == ANTI])
        slot = _perm_inverse(tuple(order))
        sig = ket_signature(k, k)
        # distinct matchings give distinct kets, so no terms merge
        terms = {}
        for diag, coeff in self.terms.items():
            pairs = diag.matching()
            perm = tuple(slot[pairs[e]] for e in order[k:])
            terms[_diagram(sig, perm)] = coeff
        return InvariantElement(sig, terms)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        if self._json is None:
            rows = [{"perm": [p + 1 for p in diag.perm],
                     "coeff": self.terms[diag].to_json()}
                    for diag in sorted(self.terms, key=lambda d: d.perm)]
            object.__setattr__(self, "_json", {"signature": self.sig.to_json(),
                                               "terms": rows})
        return self._json

    @classmethod
    def from_json(cls, data: Mapping) -> "InvariantElement":
        rows = _json_list(data, "terms", dict)
        sig = Signature.from_json(data.get("signature"))
        terms = {}
        for row in rows:
            perm = _json_list(row, "perm", int)
            diag = PrimitiveDiagram(sig, tuple(p - 1 for p in perm))
            if diag in terms:
                raise OutOfRange(f"perm {perm} appears twice")
            terms[diag] = RadicalCoefficient.from_json(row.get("coeff"))
        return cls(sig, terms)


def _collect(sig: Signature, pairs) -> InvariantElement:
    """The element on sig summing (diagram, coefficient) pairs."""
    out: dict[PrimitiveDiagram, RadicalCoefficient] = {}
    for diag, coeff in pairs:
        cur = out.get(diag)
        out[diag] = coeff if cur is None else cur + coeff
    return InvariantElement(sig, out)


def _glue(pairs: Mapping[int, int],
          joins: Mapping[int, int]) -> tuple[dict[int, int], int]:
    """Contract a perfect matching along joins.

    pairs matches endpoints by delta lines; joins is an involution on some
    of them, and gluing e to joins[e] fuses the two lines ending there.
    Returns the matching this induces on the endpoints joins leaves free,
    and the number of closed loops, each worth a factor N.
    """
    free = {}
    seen = set()
    for start in pairs:
        if start in joins or start in free:
            continue
        e = pairs[start]
        while e in joins:
            seen.add(e)
            e = joins[e]
            seen.add(e)
            e = pairs[e]
        free[start] = e
        free[e] = start
    # every joined endpoint not passed by an open line lies on a loop
    loops = 0
    for start in joins:
        if start in seen:
            continue
        loops += 1
        e = start
        while e not in seen:
            seen.add(e)
            e = pairs[e]
            seen.add(e)
            e = joins[e]
    return free, loops


# ---------------------------------------------------------------------------
# Binary operations
# ---------------------------------------------------------------------------

def identity(sig: Signature) -> InvariantElement:
    if not sig.is_operator():
        raise SignatureMismatch("identity needs an operator signature")
    return InvariantElement.from_perm(sig, range(sig.n_slots))


def zero(sig: Signature) -> InvariantElement:
    return InvariantElement(sig, {})


def permutation_element(sig: Signature, perm: Iterable[int],
                        coeff=1) -> InvariantElement:
    return InvariantElement.from_perm(sig, perm, coeff)


def compose(a: InvariantElement, b: InvariantElement) -> InvariantElement:
    """Glue a's input side to b's output side: the result acts as a after b.

    b may be a ket with matching orientations, in which case the result is
    the ket a|b>.
    """
    if not a.sig.is_operator():
        raise SignatureMismatch("left factor of compose must be an operator")
    if a.sig.orientations != b.sig.orientations:
        raise SignatureMismatch(
            f"{a.sig.orientations!r} cannot act on {b.sig.orientations!r}")
    orients = a.sig.orientations
    k = len(orients)
    # a keeps endpoints 0..2k-1 and b's move up by 2k; a's right endpoint
    # k + i meets b's left endpoint (operator) or leg (ket) i
    joins = {}
    for i in range(k):
        joins[k + i] = 2 * k + i
        joins[2 * k + i] = k + i
    to_perm = (_matching_to_op_perm if b.sig.is_operator()
               else _matching_to_ket_perm)
    b_items = [({e + 2 * k: f + 2 * k for e, f in diag.matching().items()},
                coeff) for diag, coeff in b.terms.items()]

    def terms():
        for da, ca in a.terms.items():
            ma = da.matching()
            for mb, cb in b_items:
                free, loops = _glue({**ma, **mb}, joins)
                # b's right endpoints 3k..4k-1 become the result's k..2k-1
                perm = to_perm(orients, {e % (2 * k): f % (2 * k)
                                         for e, f in free.items()})
                term = ca * cb * _n_power(loops) if loops else ca * cb
                yield _diagram(b.sig, perm), term

    # an operator b has a's signature; a ket b keeps its own
    return _collect(b.sig, terms())


def inner_product(a: InvariantElement, b: InvariantElement) -> RadicalCoefficient:
    """<a|b>: Tr(a^dagger b) for operators, full leg gluing for kets.

    Coefficients are real, so conjugation is the identity on them, and
    bending is an isometry: operators are paired as their bent kets.  Gluing
    ket diagram sigma onto ket diagram tau closes c(sigma^-1 tau) loops,
    the cycle count of sigma^-1 tau, so <sigma|tau> = N^c(sigma^-1 tau).
    Each ket is paired through its Gram form: per radicand r, the
    multiplier of sqrt(r) on diagram sigma is P_sigma / D, with one integer
    polynomial D shared by all of the ket's sqrt(r) terms and integer
    polynomials P_sigma.  Then

        <a|b> = sum_{r1, r2} sqrt(r1) sqrt(r2)
                  [sum_sigma P_sigma sum_tau Q_tau N^c(sigma^-1 tau)]
                  / (D_a D_b)

    with the bracket summed in integers and reduced once per radicand pair.
    """
    if a.sig != b.sig:
        raise SignatureMismatch(f"{a.sig} vs {b.sig}")
    if a.sig.is_operator():
        return inner_product(a.bend(), b.bend())
    total = RadicalCoefficient.zero()
    b_form = _gram_form(b)
    for key_a, den_a, rows_a in _gram_form(a):
        for key_b, den_b, rows_b in b_form:
            bracket = _pair_rows(rows_a, rows_b)
            if not bracket:
                continue
            mult = RationalFunction(bracket, _p_mul(den_a, den_b))
            term = RadicalCoefficient({key_a: mult})
            if key_b != _UNIT_KEY:
                term = term * RadicalCoefficient({key_b: _RF_ONE})
            total = total + term
    return total


def _gram_form(ket: InvariantElement):
    """The ket's terms split by radicand, each over one common denominator.

    A list of (radicand, den, rows), rows holding one
    (perm, inverse perm, num) per diagram: the multiplier of sqrt(radicand)
    on that diagram is num / den.  Built once and kept on the ket, or
    attached by tracebasis._trace_state as it builds the ket.
    """
    form = ket._gram
    if form is not None:
        return form
    by_key: dict = {}
    for diag, coeff in ket.terms.items():
        for key, mult in coeff.terms.items():
            by_key.setdefault(key, []).append((diag.perm, mult))
    form = []
    for key, items in by_key.items():
        den = _ONE
        for _, mult in items:
            den = _p_lcm(den, mult.den)
        rows = [(perm, _perm_inverse(perm),
                 _p_mul(mult.num, _p_exquo(den, mult.den)))
                for perm, mult in items]
        form.append((key, den, rows))
    object.__setattr__(ket, "_gram", form)
    return form


# c(sigma^-1 tau) by sigma^-1, then by tau.  Keys are permutations of
# 0..k-1, so the memo holds at most k! * k! small ints for each k.
_LOOPS: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}


def _pair_rows(rows_a, rows_b) -> tuple[int, ...]:
    """sum_sigma P_sigma sum_tau Q_tau N^c(sigma^-1 tau), trimmed, in ints."""
    n = len(rows_a[0][0])
    len_q = max(len(q) for _, _, q in rows_b)
    out = [0] * (max(len(p) for _, _, p in rows_a) + len_q + n - 1)
    for _, inv_sigma, p in rows_a:
        memo = _LOOPS.get(inv_sigma)
        if memo is None:
            memo = _LOOPS[inv_sigma] = {}
        inner = [0] * (len_q + n)
        for tau, _, q in rows_b:
            loops = memo.get(tau)
            if loops is None:
                # cycles of sigma^-1 tau
                loops = 0
                seen = [False] * n
                for start in range(n):
                    if seen[start]:
                        continue
                    loops += 1
                    j = start
                    while not seen[j]:
                        seen[j] = True
                        j = inv_sigma[tau[j]]
                memo[tau] = loops
            for j, c in enumerate(q, loops):
                inner[j] += c
        for i, c in enumerate(p):
            if c:
                for j, d in enumerate(inner, i):
                    out[j] += c * d
    return _trim(out)


def tensor(a: InvariantElement, b: InvariantElement) -> InvariantElement:
    """Place b's slots after a's; no lines are glued."""
    if a.sig.role != b.sig.role:
        raise MixedRoleTensor(f"{a.sig.role} (x) {b.sig.role}")
    sig = Signature(a.sig.orientations + b.sig.orientations, a.sig.role)
    # b's entries count past a's levels (operators) or fundamental legs (kets)
    offset = a.sig.n_slots if a.sig.is_operator() else a.sig.n_fund
    return _collect(sig, (
        (_diagram(sig, da.perm + tuple(p + offset for p in db.perm)),
         ca * cb)
        for da, ca in a.terms.items() for db, cb in b.terms.items()))


def ketbra(ket: InvariantElement, bra_ket: InvariantElement) -> InvariantElement:
    """|u><v| as an operator whose levels carry the kets' slot orientations."""
    if ket.sig != bra_ket.sig or ket.sig.is_operator():
        raise SignatureMismatch("ketbra needs two kets on one signature")
    orients = ket.sig.orientations
    sig = Signature(orients, OPERATOR)
    bra_items = [(dv.matching(), cv) for dv, cv in bra_ket.terms.items()]
    # the matching is u's on the left and v's on the right, so distinct
    # (u, v) diagram pairs give distinct diagrams and no terms merge
    terms = {}
    for du, cu in ket.terms.items():
        mu = du.matching()
        for mv, cv in bra_items:
            perm = tuple(mv[a] if o == FUND else mu[a]
                         for a, o in enumerate(orients))
            terms[_diagram(sig, perm)] = cu * cv
    return InvariantElement(sig, terms)


# ---------------------------------------------------------------------------
# Cycle-notation text I/O (1-based)
# ---------------------------------------------------------------------------

def _cycle_entries(text: str, error: type[Exception]) -> list[tuple[int, ...]]:
    """The integer entries of each cycle in cycle notation like "(1 2)(3)".

    "e", "id", "()" and "" denote the identity and give no cycles.  Commas
    are accepted as separators inside a cycle.  Malformed text raises error.
    """
    text = text.strip()
    if text in ("e", "id", "()", ""):
        return []
    if text.count("(") != text.count(")") or not text.startswith("("):
        raise error(f"malformed cycle notation {text!r}")
    cycles = []
    for chunk in text.replace(")", ")\n").split("\n"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise error(f"malformed cycle {chunk!r}")
        body = chunk[1:-1].replace(",", " ").split()
        try:
            cycles.append(tuple(int(x) for x in body))
        except ValueError:
            raise error(f"non-integer cycle entry in {chunk!r}") from None
    return cycles


def parse_cycles(text: str, size: int) -> tuple[int, ...]:
    """Parse disjoint cycle notation like "(1 2 3)(4)" into a 0-based perm.

    "e", "id" and "()" all denote the identity.  Commas are accepted as
    separators inside a cycle.
    """
    return _one_line(_cycle_entries(text, OutOfRange),
                     integer(size, "size", 0))


def _one_line(cycles: Iterable[Sequence[int]], size: int,
              error: type[Exception] = OutOfRange) -> tuple[int, ...]:
    """The 0-based permutation of disjoint 1-based cycles on 1..size.

    Raises error unless every cycle is non-empty, every entry is an
    integer in 1..size and no entry appears twice.
    """
    perm = list(range(size))
    seen = set()
    for c in cycles:
        c = [integer(e, "cycle entry", 1, size, error) for e in c]
        if not c or seen.intersection(c) or len(set(c)) != len(c):
            raise error(f"cycle {c} is empty or repeats an entry")
        seen.update(c)
        for i, e in enumerate(c):
            perm[e - 1] = c[(i + 1) % len(c)] - 1
    return tuple(perm)


def format_cycles(perm: tuple[int, ...]) -> str:
    """Format a 0-based permutation in 1-based disjoint cycle notation."""
    return "".join("(" + " ".join(str(x + 1) for x in cycle) + ")"
                   for cycle in _cycles(perm) if len(cycle) > 1) or "e"
