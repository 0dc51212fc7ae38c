import re
import types

import pytest

import birdtracks
from birdtracks.diagrams import KET, OPERATOR, PrimitiveDiagram, Signature
from birdtracks.epsilon import TransientParams
from birdtracks.errors import OutOfRange
from birdtracks.singlets import TRANSITION, SingletOperator, singlet_table
from birdtracks.symmetrizers import YoungShape


def test_all_names_exactly_the_public_bindings():
    bound = {name for name, value in vars(birdtracks).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert len(set(birdtracks.__all__)) == len(birdtracks.__all__)
    assert set(birdtracks.__all__) == bound
    namespace = {}
    exec("from birdtracks import *", namespace)
    assert set(birdtracks.__all__) <= namespace.keys()


# -- the immutable records ---------------------------------------------------

def _records():
    """(record, an equal record built apart, a record that differs) for
    each record class."""
    table = singlet_table(2, "trace")
    transition = table[0][1]
    return [
        (Signature("qb"), Signature("qb", OPERATOR), Signature("qb", KET)),
        (PrimitiveDiagram(Signature("qb"), (1, 0)),
         PrimitiveDiagram(Signature("qb"), (1, 0)),
         PrimitiveDiagram(Signature("qb"), (0, 1))),
        (YoungShape([2, 1]), YoungShape((2, 1)), YoungShape((2,))),
        (TransientParams(1, 0, 0, 2), TransientParams(a=1, b=0, k=0, alpha=2),
         TransientParams(0, 1, 0, 2)),
        (transition,
         SingletOperator(transition.ket, transition.bra,
                         transition.normalization, TRANSITION, (0, 1)),
         transition.dagger()),
    ]


def test_records_print_like_the_class_called_with_their_fields():
    sig = "Signature(orientations='qb', role='operator')"
    assert repr(Signature("qb")) == sig
    assert repr(Signature("qqbb", KET)) == (
        "Signature(orientations='qqbb', role='ket')")
    assert repr(PrimitiveDiagram(Signature("qb"), (1, 0))) == (
        f"PrimitiveDiagram(sig={sig}, perm=(1, 0))")
    assert repr(YoungShape([2, 1])) == "YoungShape(rows=(2, 1))"
    assert repr(TransientParams(1, 0, 0, 2)) == (
        "TransientParams(a=1, b=0, k=0, alpha=2)")
    # the ket and the bra stay out of an operator's repr
    table = singlet_table(2, "trace")
    assert repr(table[0][1]) == (
        "SingletOperator(normalization=((1)/(N^3 - N))*sqrt(N^2 - 1), "
        "kind='transition', labels=(0, 1))")
    assert repr(table[1][1]) == (
        "SingletOperator(normalization=(1)/(N^2 - 1), kind='projector', "
        "labels=(1, 1))")


def test_record_validation_messages_name_the_record():
    with pytest.raises(OutOfRange, match=re.escape(
            "not a transient layout: TransientParams(a=0, b=0, k=1, "
            "alpha=1)")):
        TransientParams(0, 0, 1, 1)
    with pytest.raises(OutOfRange, match=re.escape(
            "shape [1, 2] is empty or a row grows")):
        YoungShape([1, 2])


@pytest.mark.parametrize("index", range(5))
def test_records_compare_and_hash_by_field_and_refuse_assignment(index):
    record, equal, other = _records()[index]
    assert record is not equal
    assert record == equal and hash(record) == hash(equal)
    assert record != other
    assert record != tuple(getattr(record, name)
                           for name in type(record).__slots__)
    for name in type(record).__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == equal
