"""Result records: constructors, value equality, repr, fresh mutable defaults."""

import ast
import inspect
import textwrap

import pytest

from treeshift.asymptote import (AdjointAsymptoteDescriptor, AsymptoteDescriptor,
                                 SimilarityAnswer)
from treeshift.asymptotics import (AdjointAsymptotics, AsymptoticProfile, ClassificationC,
                                   HVector, StableSubtree, VertexEstimate)
from treeshift.cyclicity import CyclicCandidate, CyclicityVerdict, KrylovVerification
from treeshift.records import Record
from treeshift.shifts import NormBound
from treeshift.similarity import RatioCertificate, SimilarityWitness
from treeshift.sparse import SparseVector

# Positional constructor arguments of one instance of every record class.
EXAMPLES = {
    VertexEstimate: ("a", 0.5, 0.5, "converged", 3),
    AsymptoticProfile: ({}, "window"),
    StableSubtree: ({"a"}, "window", 1e-9, (0, True)),
    HVector: (SparseVector({"a": 1.0}), 1.0),
    AdjointAsymptotics: ("profile", {}),
    ClassificationC: ("C1dot", "Cdot0", True, False),
    AsymptoteDescriptor: ({"a": 0.5}, "unilateral", 1, None, "stable"),
    AdjointAsymptoteDescriptor: ("simple-bilateral", {1: 0.5}, {}),
    SimilarityAnswer: ("yes", "because"),
    CyclicCandidate: ([(0, 1)], [0.5]),
    KrylovVerification: (2, 2, 3, True, 7, 2),
    CyclicityVerdict: ("cyclic", "R3", [], "backward shift"),
    NormBound: (0.9, 0.8, True),
    RatioCertificate: ("bounded", 1.0, True),
    SimilarityWitness: ("leaf-similarity", "similar", [], 0.0, None),
}

# The constructor parameters with a default, and the default; None stands for
# a fresh empty list or dict where the field is a collection.
DEFAULTS = {
    AsymptoticProfile: {"evaluator": None},
    ClassificationC: {"notes": None},
    CyclicCandidate: {"modifications": None},
    CyclicityVerdict: {"blockers": None},
    RatioCertificate: {"at": None, "value": None},
}


def _all_records(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_records(sub)


def test_every_record_class_has_an_example():
    assert set(_all_records()) == set(EXAMPLES)


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda cls: cls.__name__)
def test_records_compare_by_field_and_are_unhashable(cls):
    args = EXAMPLES[cls]
    record = cls(*args)
    assert record == cls(*args) and not record != cls(*args)
    assert record != args and record != object()
    with pytest.raises(TypeError):
        hash(record)
    for name in cls._fields:
        other = cls(*args)
        setattr(other, name, object())
        assert record != other, name
    assert not hasattr(record, "__dict__")


def test_record_repr_lists_the_shown_fields():
    assert repr(VertexEstimate(*EXAMPLES[VertexEstimate])) == (
        "VertexEstimate(vertex='a', estimate=0.5, upper=0.5, status='converged', depth=3)")
    assert repr(ClassificationC(*EXAMPLES[ClassificationC])) == (
        "ClassificationC(forward='C1dot', adjoint='Cdot0', forward_certified=True, "
        "adjoint_certified=False, notes=[])")
    assert repr(AsymptoteDescriptor(*EXAMPLES[AsymptoteDescriptor])) == (
        "AsymptoteDescriptor(beta={'a': 0.5}, classification='unilateral', multiplicity=1, "
        "cnu_value=None, stable='stable')")
    assert repr(SimilarityWitness(*EXAMPLES[SimilarityWitness])) == (
        "SimilarityWitness(kind='leaf-similarity', mode='similar', blocks=[], residual=0.0, "
        "ratio=None)")


def test_result_records_hold_what_they_report():
    """No record carries the operator, an evaluator or a table that only a
    dense matrix would read, and none hides a field from its repr."""
    assert SimilarityWitness._fields == ("kind", "mode", "blocks", "residual", "ratio")
    assert AsymptoteDescriptor._fields == ("beta", "classification", "multiplicity",
                                           "cnu_value", "stable")
    assert StableSubtree._fields == ("members", "window", "zero_threshold", "branching")
    assert not hasattr(Record, "_unshown")


def test_defaulted_mutable_fields_are_fresh_per_instance():
    for cls, names in ((ClassificationC, ("notes",)), (CyclicityVerdict, ("blockers",)),
                       (CyclicCandidate, ("modifications",))):
        first, second = cls(*EXAMPLES[cls]), cls(*EXAMPLES[cls])
        for name in names:
            mine, theirs = getattr(first, name), getattr(second, name)
            assert mine == theirs and not mine and mine is not theirs, (cls, name)
    given = ["kept"]
    assert ClassificationC("C1dot", "Cdot0", True, False, given).notes is given
    assert ClassificationC("C1dot", "Cdot0", True, False, notes=given).notes is given


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda cls: cls.__name__)
def test_constructor_parameters_are_the_fields_in_order(cls):
    params = inspect.signature(cls).parameters.values()
    assert [p.name for p in params] == list(cls._fields)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert {p.name: p.default for p in params if p.default is not p.empty} == \
        DEFAULTS.get(cls, {})


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda cls: cls.__name__)
def test_keyword_construction_equals_positional(cls):
    args = EXAMPLES[cls]
    assert cls(**dict(zip(cls._fields, args))) == cls(*args)
    required = len(cls._fields) - len(DEFAULTS.get(cls, {}))
    with pytest.raises(TypeError):  # a missing argument
        cls(*args[:required - 1])
    with pytest.raises(TypeError):  # an unknown one
        cls(*args, unknown=1)
    with pytest.raises(TypeError):  # one too many
        cls(*args, *[None] * (len(cls._fields) - len(args) + 1))


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda cls: cls.__name__)
def test_no_record_class_body_defines_init(cls):
    """Each field is named once, in ``_fields``: ``Record`` writes the
    constructor from it."""
    (node,) = ast.parse(textwrap.dedent(inspect.getsource(cls))).body
    assert not [item for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name == "__init__"]
