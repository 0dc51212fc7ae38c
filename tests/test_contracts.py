"""Input contracts: every integer argument, cycle and JSON payload that the
library refuses is refused with a BirdtrackError, before any work."""

import re
from fractions import Fraction

import numpy as np
import pytest

from birdtracks.coefficients import N, ONE, RationalFunction, rf, sqrt
from birdtracks.diagrams import (
    InvariantElement,
    PrimitiveDiagram,
    Signature,
    compose,
    identity,
    inner_product,
    ket_signature,
    ketbra,
    operator_signature,
    parse_cycles,
    permutation_element,
)
from birdtracks.epsilon import (
    TransientParams,
    epsilon_tensor,
    leibniz_translate,
    lr_decomposition,
    lr_pair_projector,
    pieri_add_antifundamental,
    shape_dimension,
    transient_singlet_params,
    transient_singlet_projector,
    translated_singlet_ket,
    verify_baryon_equivalence,
)
from birdtracks.errors import (
    BadBlockSize,
    DimensionMismatch,
    DivisionByZero,
    InvalidDecomposition,
    OutOfRange,
    RadicalComparisonUnsupported,
    SignatureMismatch,
    UnsupportedK,
    integer,
)
from birdtracks.numeric import (
    ExactTensor,
    evaluate,
    evaluate_float,
    exact_rank,
    integer_entries,
    sample_special_linear,
)
from birdtracks.singlets import (
    SingletOperator,
    basis_states,
    is_dimensionally_null,
    singlet_basis,
    singlet_count,
    singlet_table,
)
from birdtracks.symmetrizers import (
    YoungShape,
    antisymmetrizer,
    builtin_orthogonal_basis,
    irrep_dimension,
    symmetrizer,
)
from birdtracks.tracebasis import (
    CycleDecomposition,
    adjoint_pair_diagram,
    all_decompositions,
    derangement_block,
    derangement_states,
    normalized_trace_basis,
    pair_singlet_projector,
    raw_trace_states,
    trace_basis_state,
)

_KET = identity(Signature("q")).bend()
_OP = identity(Signature("qq"))
_BLOCKS = TransientParams(1, 0, 0, 2)

# (id, call of the one argument under test, its least value, the error,
# the argument's name in the message)
INTEGER_ARGUMENTS = [
    ("evaluate-N", lambda v: evaluate(_KET, v), 1, OutOfRange, "N"),
    ("evaluate_float-N", lambda v: evaluate_float(_KET, v), 1, OutOfRange,
     "N"),
    ("integer_entries-N", lambda v: integer_entries(_KET, v), 1, OutOfRange,
     "N"),
    ("sample_special_linear-N", lambda v: sample_special_linear(v, 0), 2,
     OutOfRange, "N"),
    ("sample_special_linear-seed", lambda v: sample_special_linear(2, v), 0,
     OutOfRange, "seed"),
    ("ExactTensor.matrix_rows-row_axes",
     lambda v: ExactTensor((2, 2)).matrix_rows(v), 0, OutOfRange, "row_axes"),
    ("ExactTensor.permuted-axis",
     lambda v: ExactTensor((2, 2)).permuted((v, 0)), 0, OutOfRange, "axis"),
    ("operator_signature-m", lambda v: operator_signature(v, 1), 0,
     OutOfRange, "m"),
    ("operator_signature-n", lambda v: operator_signature(1, v), 0,
     OutOfRange, "n"),
    ("ket_signature-m", lambda v: ket_signature(v, 1), 0, OutOfRange, "m"),
    ("parse_cycles-size", lambda v: parse_cycles("e", v), 0, OutOfRange,
     "size"),
    ("partial_trace-level", lambda v: _OP.partial_trace([v]), 0, OutOfRange,
     "level"),
    ("symmetrizer-total", lambda v: symmetrizer([1], v), 1, OutOfRange,
     "total"),
    ("symmetrizer-slot", lambda v: symmetrizer([v], 2), 1, OutOfRange,
     "slot"),
    ("antisymmetrizer-slot", lambda v: antisymmetrizer([v, 2], 2), 1,
     OutOfRange, "slot"),
    ("YoungShape-row", lambda v: YoungShape((v,)), 1, OutOfRange,
     "row length"),
    ("builtin_orthogonal_basis-k", builtin_orthogonal_basis, 1, UnsupportedK,
     "k of the built-in basis"),
    ("PrimitiveDiagram-perm", lambda v: PrimitiveDiagram(_OP.sig, (v, 0)), 0,
     OutOfRange, "permutation entry"),
    ("CycleDecomposition-k", lambda v: CycleDecomposition([], v), 1,
     InvalidDecomposition, "k"),
    ("CycleDecomposition.from_text-k",
     lambda v: CycleDecomposition.from_text("e", v), 1, InvalidDecomposition,
     "k"),
    ("CycleDecomposition.from_permutation-perm",
     lambda v: CycleDecomposition.from_permutation((v, 0)), 0,
     InvalidDecomposition, "permutation entry"),
    ("pair_singlet_projector-k", lambda v: pair_singlet_projector(v, 1), 1,
     OutOfRange, "k"),
    ("pair_singlet_projector-pair", lambda v: pair_singlet_projector(2, v), 1,
     OutOfRange, "pair"),
    ("adjoint_pair_diagram-pair", lambda v: adjoint_pair_diagram(2, v), 1,
     OutOfRange, "pair"),
    ("all_decompositions-k", all_decompositions, 1, OutOfRange, "k"),
    ("raw_trace_states-k", raw_trace_states, 1, OutOfRange, "k"),
    ("derangement_states-k", derangement_states, 2, OutOfRange, "k"),
    ("derangement_block-s", derangement_block, 2, OutOfRange, "k"),
    ("normalized_trace_basis-k", normalized_trace_basis, 1, OutOfRange, "k"),
    ("singlet_basis-builtin-k", lambda v: singlet_basis(v, "builtin"), 1,
     UnsupportedK, "k of the built-in basis"),
    ("singlet_basis-trace-k", lambda v: singlet_basis(v, "trace"), 1,
     OutOfRange, "k"),
    ("basis_states-k", lambda v: basis_states(v, "trace+orthogonalize"), 1,
     OutOfRange, "k"),
    ("singlet_table-k", lambda v: singlet_table(v, "trace"), 1, OutOfRange,
     "k"),
    ("singlet_count-k", lambda v: singlet_count(v, 3), 1, OutOfRange, "k"),
    ("singlet_count-builtin-k", lambda v: singlet_count(v, 3, "builtin"), 1,
     OutOfRange, "k"),
    ("singlet_count-N", lambda v: singlet_count(3, v), 1, OutOfRange, "N"),
    ("is_dimensionally_null-N", lambda v: is_dimensionally_null(_KET, v), 1,
     OutOfRange, "N"),
    ("pieri_add_antifundamental-N",
     lambda v: pieri_add_antifundamental(None, v), 2, OutOfRange, "N"),
    ("lr_decomposition-m", lambda v: lr_decomposition(v, 1, 3), 0,
     OutOfRange, "m"),
    ("lr_decomposition-n", lambda v: lr_decomposition(1, v, 3), 0,
     OutOfRange, "n"),
    ("lr_decomposition-N", lambda v: lr_decomposition(1, 1, v), 2,
     OutOfRange, "N"),
    ("shape_dimension-N", lambda v: shape_dimension("[1]", v), 2, OutOfRange,
     "N"),
    ("transient_singlet_params-m", lambda v: transient_singlet_params(v, 0, 3),
     0, OutOfRange, "m"),
    ("transient_singlet_params-n", lambda v: transient_singlet_params(3, v, 3),
     0, OutOfRange, "n"),
    ("transient_singlet_params-N", lambda v: transient_singlet_params(3, 0, v),
     2, OutOfRange, "N"),
    ("TransientParams-a", lambda v: TransientParams(v, 1, 0, 2), 0,
     OutOfRange, "a"),
    ("TransientParams-alpha", lambda v: TransientParams(1, 0, 0, v), 0,
     OutOfRange, "alpha"),
    ("epsilon_tensor-N", epsilon_tensor, 2, OutOfRange, "N"),
    ("leibniz_translate-j", lambda v: leibniz_translate(epsilon_tensor(3), v),
     1, BadBlockSize, "j"),
    ("lr_pair_projector-N", lambda v: lr_pair_projector("singlet", v), 2,
     OutOfRange, "N"),
    ("transient_singlet_projector-N",
     lambda v: transient_singlet_projector(_BLOCKS, v), 2, OutOfRange, "N"),
    ("translated_singlet_ket-N",
     lambda v: translated_singlet_ket(_BLOCKS, v), 2, OutOfRange, "N"),
    ("verify_baryon_equivalence-N", verify_baryon_equivalence, 2, OutOfRange,
     "N"),
]


# k=None asks CycleDecomposition to take k from the largest entry
INFERRED = {"CycleDecomposition-k", "CycleDecomposition.from_text-k"}


@pytest.mark.parametrize(
    "case, call, least, error, name", INTEGER_ARGUMENTS,
    ids=[case[0] for case in INTEGER_ARGUMENTS])
def test_integer_arguments_are_checked(case, call, least, error, name):
    bad_values = [2.5, Fraction(5, 2), "3", least - 1]
    if case not in INFERRED:
        bad_values.append(None)
    for bad in bad_values:
        message = f"^{re.escape(name)} must be .*, got {re.escape(repr(bad))}$"
        with pytest.raises(error, match=message):
            call(bad)


def test_integer_takes_numpy_integers_and_returns_ints():
    value = integer(np.int64(3), "k", 1, 3)
    assert value == 3 and type(value) is int
    assert shape_dimension([2, 1], np.int64(3)) == 8
    assert TransientParams(np.int64(1), 0, 0, 2) == _BLOCKS


def test_the_silent_wrong_values_are_refused():
    # each of these returned a value before its argument was checked
    with pytest.raises(OutOfRange):
        shape_dimension([2, 1], 2.5)                 # gave 4
    with pytest.raises(OutOfRange):
        singlet_count(2.5, 3, "builtin")             # gave the k=3 count 6
    with pytest.raises(InvalidDecomposition):
        CycleDecomposition([(1.5, 2)])               # gave (1 2)
    with pytest.raises(OutOfRange):
        TransientParams.from_json(                   # gave a=1
            {"a": 1.5, "b": 0, "k": 0, "alpha": 2})
    blob = _KET.to_json()
    twice = {**blob, "terms": blob["terms"] * 2}
    with pytest.raises(OutOfRange, match="appears twice"):
        InvariantElement.from_json(twice)            # kept the last term
    assert InvariantElement.from_json(blob) == _KET


def test_float_exponents_and_axes_are_refused():
    # each of these raised a bare TypeError; 1.0 == 1 also passed the
    # axis-permutation test of permuted
    with pytest.raises(OutOfRange, match="exponent"):
        rf([0, 1]) ** 2.5
    with pytest.raises(OutOfRange, match="row_axes"):
        ExactTensor((2, 2)).matrix_rows(1.5)
    with pytest.raises(OutOfRange, match="axis"):
        ExactTensor((2, 2)).permuted((1.0, 0.0))
    assert rf([0, 1]) ** np.int64(-2) == rf([1], [0, 0, 1])
    # exact scalars: a float, string, None or NaN was read as a binary
    # fraction, dropped as a zero or raised a bare error
    for bad in (0.5, "1", None, float("nan")):
        with pytest.raises(OutOfRange, match="matrix entry"):
            exact_rank([[bad, 1]])
        with pytest.raises(OutOfRange, match="^N must be an integer"):
            rf([0, 1]).eval_at(bad)
        with pytest.raises(OutOfRange, match="^N must be an integer"):
            sqrt(rf([0, 1])).eval_at(bad)
    assert exact_rank([[np.bool_(True), Fraction(1, 2)]]) == 1
    assert rf([0, 1]).eval_at(Fraction(1, 2)) == Fraction(1, 2)


# (id, a call of one coefficient argument): each raised a bare TypeError
# for a numpy integer or read a float as a binary fraction
COEFFICIENT_ARGUMENTS = [
    ("sqrt", sqrt),
    ("rf", lambda v: rf([v])),
    ("RationalFunction.from_fraction", RationalFunction.from_fraction),
    ("RationalFunction-mul", lambda v: rf([0, 1]) * v),
    ("RationalFunction-div", lambda v: rf([0, 1]) / v),
    ("RadicalCoefficient-mul", lambda v: ONE * v),
    ("InvariantElement.scaled", lambda v: _KET.scaled(v)),
]


@pytest.mark.parametrize("case, call", COEFFICIENT_ARGUMENTS,
                         ids=[case for case, _ in COEFFICIENT_ARGUMENTS])
def test_coefficients_take_numpy_integers_and_refuse_floats(case, call):
    assert call(np.int64(3)) == call(3)
    with pytest.raises(OutOfRange, match="^coefficient must be an integer"):
        call(2.5)


_OTHER_KET = InvariantElement.from_perm(Signature("bq", "ket"), (0,))

# (id, a call that is refused, the error, a fragment of its message)
ERROR_PATHS = [
    ("compose-orientations",
     lambda: compose(identity(Signature("q")), identity(Signature("b"))),
     SignatureMismatch, "cannot act on"),
    ("inner_product-signatures", lambda: inner_product(_KET, _OTHER_KET),
     SignatureMismatch, " vs "),
    ("ketbra-operators", lambda: ketbra(_OP, _OP), SignatureMismatch,
     "two kets"),
    ("identity-ket", lambda: identity(_KET.sig), SignatureMismatch,
     "needs an operator signature"),
    ("bend-ket", lambda: _KET.bend(), SignatureMismatch,
     "bend is defined on operators"),
    ("partial_trace-ket", lambda: _KET.partial_trace([0]), SignatureMismatch,
     "partial trace is defined on operators"),
    ("PrimitiveDiagram-unequal-legs",
     lambda: PrimitiveDiagram(Signature("qqb", "ket"), (0,)),
     SignatureMismatch, "equal leg counts"),
    ("InvariantElement-foreign-term",
     lambda: InvariantElement(_KET.sig, {PrimitiveDiagram(_OP.sig, (0, 1)):
                                         ONE}),
     SignatureMismatch, "!= element signature"),
    ("ExactTensor.permuted-repeated-axis",
     lambda: ExactTensor((2, 2)).permuted((0, 0)), DimensionMismatch,
     "not an axis permutation"),
    ("ExactTensor.trace-non-square", lambda: ExactTensor((2, 3)).trace(),
     DimensionMismatch, "non-square shape"),
    ("epsilon_tensor-cap", lambda: epsilon_tensor(8), OutOfRange,
     "exceeds the dense cap"),
    ("parse_cycles-stray-entry", lambda: parse_cycles("(1 2)3(4)", 4),
     OutOfRange, "malformed cycle '3(4)'"),
    ("leibniz_translate-no-legs",
     lambda: leibniz_translate(ExactTensor(()), 1), BadBlockSize,
     "no legs to translate"),
    ("trace_basis_state-int", lambda: trace_basis_state(42),
     InvalidDecomposition, "cannot interpret 42"),
    ("RationalFunction-zero-denominator",
     lambda: RationalFunction((1,), ()), DivisionByZero, "zero denominator"),
    ("rational_part-irrational", lambda: sqrt(N).rational_part(),
     RadicalComparisonUnsupported, "irrational terms"),
    ("eval_float-negative-radicand",
     lambda: sqrt(rf([-2, 0, 1])).eval_float(1),
     RadicalComparisonUnsupported, "negative radicand"),
]


@pytest.mark.parametrize("case, call, error, fragment", ERROR_PATHS,
                         ids=[case[0] for case in ERROR_PATHS])
def test_public_error_paths_raise_their_subclass(case, call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()


def test_product_of_two_operators_composes_them():
    op = identity(Signature("qq")) + permutation_element(
        Signature("qq"), (1, 0), 2)
    assert op * op == compose(op, op)
    assert op * op != op


def test_one_line_permutations_are_read_as_int_tuples():
    # (1.0, 0) made a diagram, and from_permutation raised a bare
    # TypeError for it; a list perm was stored as it came, unhashable
    with pytest.raises(OutOfRange, match="permutation entry"):
        PrimitiveDiagram(_OP.sig, (1.0, 0))
    with pytest.raises(InvalidDecomposition, match="permutation entry"):
        CycleDecomposition.from_permutation((1.0, 0))
    with pytest.raises(OutOfRange, match="not a permutation"):
        PrimitiveDiagram(_OP.sig, (1, 1))
    with pytest.raises(OutOfRange, match="not a permutation"):
        PrimitiveDiagram(_OP.sig, (0,))
    diag = PrimitiveDiagram(_OP.sig, [np.int64(1), False])
    assert diag.perm == (1, 0) and {type(x) for x in diag.perm} == {int}
    assert hash(diag) == hash(PrimitiveDiagram(_OP.sig, (1, 0)))
    assert CycleDecomposition.from_permutation([1, 0]).to_text() == "(1 2)"


def test_irrep_dimension_reads_every_shape_spelling():
    want = irrep_dimension("[2,1]")
    for shape in ([2, 1], (2, 1), YoungShape((2, 1)), " [2, 1] "):
        assert irrep_dimension(shape) == want
    assert irrep_dimension(None) == irrep_dimension(()) == 1


_SIGNATURE = {"orientations": "qb", "role": "ket"}
_TERM = {"perm": [1], "coeff": [{"radicand": [1],
                                  "multiplier": {"num": ["1"], "den": ["1"]}}]}
_ELEMENT = {"signature": _SIGNATURE, "terms": [_TERM]}
_OPERATOR = {"kind": "projector", "labels": [0],
             "normalization": _TERM["coeff"], "ket": _ELEMENT,
             "bra": _ELEMENT}


@pytest.mark.parametrize("load, data", [
    (Signature.from_json, ["qb", "ket"]),
    (Signature.from_json, {"orientations": "qb"}),
    (Signature.from_json, {"orientations": ["q", "b"], "role": "ket"}),
    (InvariantElement.from_json, {"terms": [_TERM]}),
    (InvariantElement.from_json, {"signature": _SIGNATURE}),
    (InvariantElement.from_json, {"signature": _SIGNATURE,
                                  "terms": [{**_TERM, "perm": [1.0]}]}),
    (InvariantElement.from_json, {"signature": _SIGNATURE,
                                  "terms": [{"perm": [1]}]}),
    (InvariantElement.from_json, {"signature": _SIGNATURE,
                                  "terms": [_TERM, _TERM]}),
    (SingletOperator.from_json, {**_OPERATOR, "kind": 5}),
    (SingletOperator.from_json, {**_OPERATOR, "labels": ["0"]}),
    (SingletOperator.from_json, {**_OPERATOR, "ket": None}),
    (TransientParams.from_json, {"a": "x", "b": 0, "k": 0, "alpha": 2}),
    (TransientParams.from_json, {"a": 1.5, "b": 0, "k": 0, "alpha": 2}),
    (TransientParams.from_json, {"a": 1, "b": 0, "k": 0}),
    (TransientParams.from_json, [1, 0, 0, 2]),
], ids=["signature-list", "signature-no-role", "signature-list-orientations",
        "element-no-signature", "element-no-terms", "element-float-perm",
        "element-no-coeff", "element-repeated-perm", "operator-kind-5",
        "operator-word-label", "operator-no-ket", "transient-word",
        "transient-fraction", "transient-no-alpha", "transient-list"])
def test_json_readers_refuse_what_to_json_never_writes(load, data):
    with pytest.raises(OutOfRange):
        load(data)


def test_json_readers_read_what_to_json_writes():
    op = SingletOperator.from_json(_OPERATOR)
    assert op.kind == "projector" and op.labels == (0,)
    assert op.ket == _KET
    assert SingletOperator.from_json(op.to_json()) == op
    assert TransientParams.from_json(_BLOCKS.to_json()) == _BLOCKS


# the same malformed cycles as text and as entry tuples, on 1..3
MALFORMED_CYCLES = [
    ("(1.5 2)", [(1.5, 2)]),
    ("(a 2)", [("a", 2)]),
    ("(0 1)", [(0, 1)]),
    ("(1 2)(2 3)", [(1, 2), (2, 3)]),
    ("(1 2 1)", [(1, 2, 1)]),
    ("(1 4)", [(1, 4)]),
    ("(1 2)()", [(1, 2), ()]),
]


@pytest.mark.parametrize("text, cycles", MALFORMED_CYCLES,
                         ids=[text for text, _ in MALFORMED_CYCLES])
def test_cycle_readers_refuse_the_same_cycles(text, cycles):
    with pytest.raises(OutOfRange):
        parse_cycles(text, 3)
    with pytest.raises(InvalidDecomposition):
        CycleDecomposition.from_text(text, 3)
    with pytest.raises(InvalidDecomposition):
        CycleDecomposition(cycles, 3)
