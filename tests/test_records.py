"""Every record class behaves as the ``dataclass(frozen=True)`` it replaces.

``lattices.record`` lets ``dataclass`` generate ``__init__`` only and shares
one equality, hash, repr and frozen guard among all records.  Each record
class is compared here with a twin: a class rebuilt from its own namespace
and fields under ``dataclass(frozen=True)``, so it runs the same
``__post_init__`` and properties with every generated method.  Instances
come from real library results, and the field values tried are the ones
those instances hold, mixed across instances and with a few bad values.
"""

import dataclasses
import importlib
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bfree
from bfree.families import RectEntry, Template, parse_family, preset
from bfree.lattices import _RECORD_METHODS, Lattice, UnimodularMap, intersect_all, record
from bfree.proximality import (
    SearchBudget,
    check_covering,
    check_fixed_translate,
    conditions_report,
    crt_window_certificate,
    decide,
)
from bfree.quadratic import ProductIdeal, QuadraticRing, principal
from bfree.windows import Box, Shape, density_profile, free_window

MODULES = [importlib.import_module(f"bfree.{info.name}") for info in pkgutil.iter_modules(bfree.__path__)]
RECORDS = sorted(
    {
        val
        for mod in MODULES
        for val in vars(mod).values()
        if isinstance(val, type) and val.__module__ == mod.__name__ and dataclasses.is_dataclass(val)
    },
    key=lambda cls: (cls.__module__, cls.__qualname__),
)
# what dataclass or record put on the class, which the twin must make itself
MADE = {"__init__", "__dataclass_fields__", "__dataclass_params__", "__match_args__", "__dict__", "__weakref__"}


def twin_of(cls):
    made = MADE | {name for name in vars(cls) if name.startswith("_record")}
    made |= {name for name, method in _RECORD_METHODS.items() if vars(cls).get(name) is method}
    namespace = {name: value for name, value in vars(cls).items() if name not in made}
    for f in dataclasses.fields(cls):
        namespace[f.name] = dataclasses.field(
            default=f.default, default_factory=f.default_factory, init=f.init, repr=f.repr, hash=f.hash, compare=f.compare
        )
    namespace["__qualname__"] = cls.__qualname__
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, cls.__bases__, namespace))


TWINS = {cls: twin_of(cls) for cls in RECORDS}


def twin(obj):
    """The twin instance with the same field values (and extra attributes)."""
    out = object.__new__(TWINS[type(obj)])
    out.__dict__.update(obj.__dict__)
    return out


def reachable_records(root):
    """Every record instance reachable from ``root`` through fields,
    tuples, lists and dict values."""
    found, todo, seen = [], [root], set()
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if type(obj) in TWINS:
            found.append(obj)
            todo += [getattr(obj, f.name) for f in dataclasses.fields(obj)]
        elif isinstance(obj, (tuple, list)):
            todo += obj
        elif isinstance(obj, dict):
            todo += obj.values()
    return found


def library_results():
    transformed = parse_family("dim 2\ntransform [[1,1],[0,1]]\nrect [2,1]\nrecttemplate [t,t] params=geometric:3:1\n")
    explicit = parse_family("dim 2\nrect [2,1]\nrecttemplate [t,1] params=explicit:3,5\n")
    ex1, ex2, demo = preset("ex1"), preset("ex2"), preset("rect-demo")
    covering = decide(demo).certificate
    box = Box((-3, -3), (3, 3))
    ring = QuadraticRing(-1)
    a, b = principal(ring, (2, 1)), principal(ring, (3, 0))
    yield [preset(name) for name in ("ex1", "ex2", "squarefree-1d", "rect-demo")]
    yield [transformed, explicit, UnimodularMap.identity(3)]
    yield [decide(spec) for spec in (ex1, preset("squarefree-1d"), demo, transformed, explicit)]
    yield check_covering(demo, covering.covers), check_covering(ex2, [Lattice.from_diagonal((2, 2))])
    yield check_fixed_translate(demo, covering.missed_coset, intersect_all(covering.covers))
    yield crt_window_certificate(demo, Shape.parse("0:1x0:0"))
    yield conditions_report(ex2, SearchBudget(max_side=1, search_radius=3))
    yield conditions_report(demo, SearchBudget(max_side=1, search_radius=3))
    yield free_window(ex2, box), density_profile(ex2, [0, 1], box)
    yield Shape.parse("0:1x0:1"), Shape.from_offsets([(0, 0), (2, -1)]), SearchBudget(), SearchBudget(max_side=0)
    yield preset("squarefree-1d").entries[0].schema(), RectEntry(), RectEntry(3, 2)
    yield ring, a, b, ProductIdeal((a, b)), ProductIdeal((b,))


POOL = {}
for result in library_results():
    for obj in reachable_records(result):
        POOL.setdefault(type(obj), []).append(obj)
BAD = (None, 0, -1, (), ((0,),))


def test_every_record_class_is_in_the_pool():
    assert len(RECORDS) == 29
    assert [cls.__qualname__ for cls in RECORDS if cls not in POOL] == []


def test_records_are_dataclasses_with_their_twins_fields():
    for cls in RECORDS:
        assert [(f.name, f.init, f.repr, f.compare) for f in dataclasses.fields(cls)] == [
            (f.name, f.init, f.repr, f.compare) for f in dataclasses.fields(TWINS[cls])
        ]
        # dataclass generated __init__ alone
        shared = ("__eq__", "__hash__", "__setattr__", "__delattr__")
        assert all(getattr(cls, name).__module__ == record.__module__ for name in shared)
    assert Lattice.__repr__.__qualname__ == "Lattice.__repr__"


def outcome(make):
    """("ok", value) or ("raised", exception type, text)."""
    try:
        return ("ok", make())
    except Exception as exc:  # noqa: BLE001 - the kind and the text are what is compared
        return ("raised", type(exc), str(exc))


def same_hash(x, tx):
    got, want = outcome(lambda: hash(x)), outcome(lambda: hash(tx))
    return got == want


@st.composite
def kwargs_for(draw, cls):
    """Keyword arguments for ``cls``: per init field a value some pooled
    instance holds, a bad value, or (when it has a default) nothing."""
    out = {}
    for f in dataclasses.fields(cls):
        if not f.init:
            continue
        choices = [getattr(obj, f.name) for obj in POOL[cls]] + list(BAD)
        has_default = f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
        if has_default and draw(st.booleans()):
            continue
        out[f.name] = draw(st.sampled_from(choices))
    return out


CLASSES = st.sampled_from(RECORDS)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_construction_and_replace_agree_with_the_twin(data):
    cls = data.draw(CLASSES)
    kwargs = data.draw(kwargs_for(cls))
    got, want = outcome(lambda: cls(**kwargs)), outcome(lambda: TWINS[cls](**kwargs))
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got[1:] == want[1:]  # __post_init__ validation, unchanged
        return
    x, tx = got[1], want[1]
    assert x.__dict__ == tx.__dict__
    assert repr(x) == repr(tx)
    assert same_hash(x, tx)
    base = data.draw(st.sampled_from(POOL[cls]))
    got = outcome(lambda: dataclasses.replace(base, **kwargs))
    want = outcome(lambda: dataclasses.replace(twin(base), **kwargs))
    assert got[0] == want[0]
    if got[0] == "ok":
        assert type(got[1]) is cls and got[1].__dict__ == want[1].__dict__


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_equality_hash_and_repr_agree_with_the_twin(data):
    cls = data.draw(CLASSES)
    x, y = data.draw(st.sampled_from(POOL[cls])), data.draw(st.sampled_from(POOL[cls]))
    tx, ty = twin(x), twin(y)
    assert (x == y) is (tx == ty)
    assert (x != y) is (tx != ty)
    assert x == x and x.__eq__(tx) is NotImplemented and tx.__eq__(x) is NotImplemented
    other = data.draw(st.sampled_from([obj for objs in POOL.values() for obj in objs]))
    assert (x == other) is (tx == (twin(other) if type(other) is cls else other))
    assert same_hash(x, tx)
    if x == y and outcome(lambda: hash(x))[0] == "ok":
        assert hash(x) == hash(y)
    assert repr(x) == repr(tx)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_assignment_and_deletion_raise_as_the_twin_does(data):
    cls = data.draw(CLASSES)
    x = data.draw(st.sampled_from(POOL[cls]))
    tx = twin(x)
    names = sorted({f.name for f in dataclasses.fields(cls)} | {n for n in dir(x) if not n.startswith("__")})
    name = data.draw(st.sampled_from(names + ["nope"]))
    before = dict(x.__dict__)
    for action in (lambda obj: setattr(obj, name, 1), lambda obj: delattr(obj, name)):
        with pytest.raises(dataclasses.FrozenInstanceError) as got:
            action(x)
        with pytest.raises(dataclasses.FrozenInstanceError) as want:
            action(tx)
        assert str(got.value) == str(want.value)
    assert x.__dict__ == before


def test_code_that_writes_around_the_guard_still_works():
    spec = parse_family("dim 2\ntransform [[1,1],[0,1]]\nrect [2,1]\n")
    assert spec.pullback((3, 1)) == (2, 1)  # FamilySpec._inverse, set in __post_init__
    ideal = ProductIdeal((principal(QuadraticRing(-1), (2, 1)),))
    assert ideal.norm == 5  # ProductIdeal.module, an init=False field
    entry = preset("ex2").entries[2]
    assert entry._rows is entry._rows  # Template._rows, a cached_property
    with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field 'module'$"):
        ideal.module = ideal.module
    with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field '_inverse'$"):
        spec._inverse = None


CACHED = ("_rows", "span")  # Template's cached_property values


def test_a_filled_cache_leaves_comparison_to_the_fields_and_is_not_copied():
    # a cached_property writes the instance __dict__ around the guard; the
    # fields alone still decide equality, hash and repr, as for the twin,
    # and dataclasses.replace builds a copy that computes its own
    for base in POOL[Template]:
        filled, empty = dataclasses.replace(base), dataclasses.replace(base)
        filled._rows, filled.span
        assert set(CACHED) <= vars(filled).keys() and not set(CACHED) & vars(empty).keys()
        for x, y in ((filled, empty), (empty, filled), (filled, filled)):
            tx, ty = twin(x), twin(y)
            assert (x == y) is (tx == ty) is True
            assert hash(x) == hash(y) == hash(tx) == hash(ty)
            assert repr(x) == repr(y) == repr(tx) == repr(ty)
        for copy in (dataclasses.replace(filled), dataclasses.replace(twin(filled))):
            assert not set(CACHED) & vars(copy).keys()
            assert copy == filled if type(copy) is Template else copy == twin(filled)
            assert copy.span == filled.span and copy.span is not filled.span


def test_validation_still_runs_on_construction_and_replace():
    lat = Lattice.from_diagonal((2, 3))
    with pytest.raises(ValueError, match="^diagonal entries must be positive$"):
        dataclasses.replace(lat, basis=((0, 0), (0, 1)))
    with pytest.raises(ValueError, match="^matrix must have determinant"):
        UnimodularMap(((2, 0), (0, 1)))
    assert dataclasses.replace(lat, basis=((4, 0), (1, 3))) == Lattice(((4, 0), (1, 3)))
