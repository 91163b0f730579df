"""The contract of the package's record types.

Every result type is an immutable value object: built positionally or by
keyword, compared, hashed, printed, pickled and copied by value, as frozen
dataclasses are.  Each type is taken from two real reports, of a gap-branch
and of a Donaldson tuple.  A frozen dataclass with the same
fields, built in this test, is the reference for equality, hashing and repr.
"""

import copy
import dataclasses
import functools
import pickle
from itertools import chain

import numpy as np
import pytest

from seifert_gate import verdict
from seifert_gate.families import transverse_contact_exists
from seifert_gate.plumbing import IntersectionForm, PlumbingGraph
from seifert_gate.seifert import GluingData, NormalizedPresentation, SeifertPresentation, gluing_data

REPORTS = {"gap": verdict((2, 3, 13)), "donaldson": verdict((2, 3, 5))}
# built anew, at a cap no other call uses so that verdict's memo cannot answer:
# equal to the gap report's records but for the certificate's cap, and not the same objects
AGAIN = verdict((2, 3, 13), cap=10**6 - 1)

RECORDS = {
    "Multiplicities": lambda r: r.multiplicities,
    "SeifertPresentation": lambda r: r.presentation,
    "NormalizedPresentation": lambda r: r.normalized,
    "GluingData": lambda r: gluing_data(r.presentation),
    "PlumbingGraph": lambda r: r.graph,
    "IntersectionForm": lambda r: r.form,
    "DiagonalizationCertificate": lambda r: r.certificate,
    "TwistBound": lambda r: r.twist_bound,
    "TauBounds": lambda r: r.tau,
    "TwistCertificate": lambda r: r.twist_certificate,
    "ObstructionReport": lambda r: r,
    "TransverseWitness": lambda r: transverse_contact_exists(r.normalized),
}
# fields computed at construction, and fields left out of ==, hash and repr
DERIVED = {
    "IntersectionForm": ("minors", "levels"),
    "SeifertPresentation": ("pairs",),
    "TwistBound": ("tw_min",),
    "ObstructionReport": ("twist_bound", "tau", "gap_lower"),
}
UNCOMPARED = {
    "IntersectionForm": ("minors", "levels"),
    "DiagonalizationCertificate": ("form",),
}


def build(name, kind):
    record = RECORDS[name](REPORTS[kind])
    assert type(record).__name__ == name
    return record


def arguments(record):
    """The constructor's fields of record, by name, in declaration order."""
    derived = DERIVED.get(type(record).__name__, ())
    return {n: getattr(record, n) for n in type(record).__annotations__ if n not in derived}


@functools.cache
def reference_class(cls):
    """A frozen dataclass with cls's fields and field options."""
    hidden = UNCOMPARED.get(cls.__name__, ())
    fields = [(n, object, dataclasses.field(compare=n not in hidden, repr=n not in hidden)) for n in cls.__annotations__]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def reference(record):
    """record's values in its reference dataclass."""
    return reference_class(type(record))(**{n: getattr(record, n) for n in type(record).__annotations__})


def outcome(fn, *args):
    try:
        return fn(*args)
    except TypeError as exc:
        return type(exc)


@pytest.fixture(params=sorted(RECORDS))
def name(request):
    return request.param


@pytest.mark.parametrize("kind", sorted(REPORTS))
def test_fields_cannot_be_assigned_or_deleted(name, kind):
    record = build(name, kind)
    before = dict(vars(record))
    for field in [*type(record).__annotations__, "unknown"]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert vars(record) == before


def test_equality_hash_and_repr_match_a_frozen_dataclass(name):
    records = [build(name, kind) for kind in sorted(REPORTS)] + [RECORDS[name](AGAIN)]
    for a in records:
        assert repr(a) == repr(reference(a))
        assert outcome(hash, a) == outcome(hash, reference(a))
        assert a != reference(a) and a != object()
        for b in records:
            assert (a == b) is (reference(a) == reference(b))
            assert (a != b) is (reference(a) != reference(b))


def test_the_second_gap_report_is_built_anew():
    assert AGAIN is not REPORTS["gap"] and AGAIN.form is not REPORTS["gap"].form


def test_every_record_hashes_and_equal_records_hash_alike(name):
    # a report's elapsed_ms differs between two runs; its records do not
    records = [build(name, kind) for kind in sorted(REPORTS)] + [RECORDS[name](AGAIN)]
    for a in records:
        assert isinstance(hash(a), int)
        for b in records:
            assert a != b or hash(a) == hash(b)
    # a certificate carries its cap, which AGAIN's differs in
    assert name in ("ObstructionReport", "DiagonalizationCertificate") or records[-1] == build(name, "gap")


def test_a_certificate_differs_only_in_its_cap():
    gap, again = build("DiagonalizationCertificate", "gap"), AGAIN.certificate
    assert (gap.form, gap.units, gap.nodes) == (again.form, again.units, again.nodes)
    assert (gap.cap, again.cap) == (10**6, 10**6 - 1) and gap != again


def test_a_form_cannot_be_changed_through_its_entries_or_derived_arrays():
    form = REPORTS["gap"].form
    before = (form.diagonal, form.upper, form.det, form.minors, form.levels)
    scale, dens, cs, feeds = form.levels
    for sequence in (form.diagonal, form.upper, *form.upper, form.minors, dens, cs, feeds, *feeds, *chain(*feeds)):
        with pytest.raises(TypeError):
            sequence[0] = (0, 5)
    assert (form.diagonal, form.upper, form.det, form.minors, form.levels) == before


def test_a_form_built_from_lists_keeps_tuples():
    diagonal, upper = [-2, -2], [[0], [1], [1]]
    form = IntersectionForm(diagonal=diagonal, upper=upper)
    assert (form.diagonal, form.upper) == ((-2, -2), ((0,), (1,), (1,)))
    again = IntersectionForm(diagonal=form.diagonal, upper=form.upper)
    assert form == again and hash(form) == hash(again) and vars(form) == vars(again)
    diagonal[0], upper[2][0] = -5, 2
    assert (form.diagonal, form.upper) == ((-2, -2), ((0,), (1,), (1,)))


def test_presentations_keep_ints_and_tuples():
    m = REPORTS["donaldson"].multiplicities
    p = SeifertPresentation(m, np.array([-1, 1, 1], dtype=np.int64))
    assert p == REPORTS["donaldson"].presentation and all(type(b) is int for b in p.coefficients)
    # 30 * (-1.0/2 + 1/3 + 1/5) = 1, so only the type refuses the float
    with pytest.raises(TypeError):
        SeifertPresentation(m, (-1.0, 1, 1))
    norm = REPORTS["donaldson"].normalized
    again = NormalizedPresentation(np.int64(norm.e0), iter(norm.r))
    assert again == norm and type(again.e0) is int and type(again.r) is tuple


def test_two_types_with_the_same_values_differ():
    values = (-2, ((-2,),))
    graph, gluing = PlumbingGraph(*values), GluingData(*values)
    assert graph != gluing and gluing != graph


def test_form_equality_ignores_the_derived_arrays_but_compares_the_entries():
    form = REPORTS["gap"].form
    for field in UNCOMPARED["IntersectionForm"]:
        forged = copy.copy(form)
        object.__setattr__(forged, field, None)
        assert forged == form and repr(forged) == repr(form)
    for field, value in (("diagonal", (-2, *form.diagonal[1:])), ("upper", (*form.upper[:2], (1, 1, 1, 2)))):
        forged = copy.copy(form)
        object.__setattr__(forged, field, value)
        assert forged != form and repr(forged) != repr(form)


@pytest.mark.parametrize("kind", sorted(REPORTS))
def test_pickle_and_deepcopy_round_trip(name, kind):
    record = build(name, kind)
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(clone) is type(record)
        assert clone == record
        assert vars(clone) == vars(record)


def test_constructor_takes_each_field_once(name):
    record = build(name, "gap")
    kwargs = arguments(record)
    args = list(kwargs.values())
    cls = type(record)
    assert vars(cls(**kwargs)) == vars(record)
    assert vars(cls(*args)) == vars(record)
    assert vars(cls(*args[:1], **dict(list(kwargs.items())[1:]))) == vars(record)
    first = next(iter(kwargs))
    for bad_args, bad_kwargs in [
        (args[:-1], {}),
        ((), {n: v for n, v in kwargs.items() if n != first}),
        ((), {**kwargs, "unknown": 1}),
        (args, {first: kwargs[first]}),
        ([*args, None], {}),
    ]:
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)
    for derived in DERIVED.get(cls.__name__, ()):
        with pytest.raises(TypeError):
            cls(**kwargs, **{derived: getattr(record, derived)})
