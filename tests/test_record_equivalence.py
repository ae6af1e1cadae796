"""Records against the standard library's dataclasses, as a reference.

Every record class of the package is built a second time here, as a twin:
its class statement, read from the source, is run again with
dataclasses.dataclass and dataclasses.field in place of record and field, so
the twin has the same fields, options and methods.  A record and its twin,
built from the same field values, must agree on equality and hashing, the
orderings, repr, the error that assignment and deletion raise, replace (and
its refusal of a field outside __init__), the names and init flags of
fields(), and a copy.copy and a pickle round trip; for records of equal
values, and of values that differ in one field.
"""

import __future__
import copy
import dataclasses
import importlib
import inspect
import io
import operator
import pickle
import pkgutil
import sys
import textwrap

import pytest

import chainsim
from chainsim import _record

def record_classes() -> list[type]:
    found = []
    for info in pkgutil.iter_modules(chainsim.__path__):
        if info.name == "__main__":  # running it runs the command line
            continue
        module = importlib.import_module(f"chainsim.{info.name}")
        found += [
            value for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
            and "__record_fields__" in vars(value)
        ]
    return found


RECORDS = record_classes()


def twin(cls: type) -> type:
    """cls's class statement, from its module's source, run again in its
    module's namespace with dataclasses.dataclass for record and
    dataclasses.field for field."""
    module = sys.modules[cls.__module__]
    scope = {**vars(module), "record": dataclasses.dataclass, "field": dataclasses.field}
    source = textwrap.dedent(inspect.getsource(cls))
    flags = __future__.annotations.compiler_flag  # as the module compiles it
    exec(compile(source, module.__file__, "exec", flags=flags, dont_inherit=True), scope)
    return scope[cls.__name__]


TWINS = {cls: twin(cls) for cls in RECORDS}
TWIN_NAMES = {reference: cls.__qualname__ for cls, reference in TWINS.items()}
TWINS_BY_NAME = {cls.__qualname__: reference for cls, reference in TWINS.items()}


class TwinPickler(pickle.Pickler):
    """Saves a twin class by name: no module holds it."""

    def persistent_id(self, obj):
        return TWIN_NAMES.get(obj) if isinstance(obj, type) else None


class TwinUnpickler(pickle.Unpickler):
    def persistent_load(self, pid):
        return TWINS_BY_NAME[pid]


def pickle_round_trip(obj):
    buffer = io.BytesIO()
    TwinPickler(buffer).dump(obj)
    buffer.seek(0)
    return TwinUnpickler(buffer).load()


# the fields whose __post_init__ or own repr needs more than an integer
SAMPLES = {
    ("PoaParams", "authorities"): lambda v: {v: 0},
    ("KeyPair", "public_key"): lambda v: bytes([v]),
}


def sample(cls: type, name: str, v: int):
    """Field name's value in variant v: the small positive integer v where
    an integer will do."""
    return SAMPLES.get((cls.__name__, name), int)(v)


def init_names(cls: type) -> list[str]:
    return [f.name for f in _record.fields(cls) if f.init]


def variants(cls: type) -> list[dict]:
    """Keyword arguments: all fields at 1, then each init field at 2 alone."""
    base = {name: sample(cls, name, 1) for name in init_names(cls)}
    return [base] + [{**base, name: sample(cls, name, 2)} for name in base]


def outcome(action):
    """What action returns, or the name and message of what it raises and
    whether that is an AttributeError."""
    try:
        return ("returns", action())
    except Exception as error:  # noqa: BLE001 - the error is the outcome compared
        return ("raises", type(error).__name__, str(error), isinstance(error, AttributeError))


UNSET = object()


def state(obj) -> tuple:
    """obj's class name and every field's value, unset slots as UNSET."""
    return type(obj).__name__, tuple(
        getattr(obj, name, UNSET) for name in type(obj).__annotations__)


def pairs(cls: type):
    """(record, twin instance) for each variant, and for the required
    fields alone, so that defaults and factories fill the rest."""
    required = {
        f.name: sample(cls, f.name, 1) for f in _record.fields(cls)
        if f.init and f.default is _record._MISSING and f.default_factory is _record._MISSING
    }
    for kwargs in variants(cls) + [required]:
        yield cls(**kwargs), TWINS[cls](**kwargs)


def test_every_module_with_records_is_covered():
    modules = {cls.__module__ for cls in RECORDS}
    assert modules == {f"chainsim.{name}" for name in (
        "chain", "consensus", "contracts", "crypto", "ledger", "netsim", "scenario")}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_record_matches_its_dataclass_twin(cls):
    reference = TWINS[cls]
    built = list(pairs(cls))
    first, first_twin = built[0]
    for spec in ((cls, reference), (first, first_twin)):
        assert [(f.name, f.init) for f in _record.fields(spec[0])] == \
            [(f.name, f.init) for f in dataclasses.fields(spec[1])]

    # the first record against each (itself, one differing in a field, one
    # built from defaults), and against one of equal values built apart
    built.append((cls(**variants(cls)[0]), reference(**variants(cls)[0])))
    for rec, ref in built:
        assert type(rec) is cls
        assert repr(rec) == repr(ref)
        assert state(rec) == state(ref)
        assert outcome(lambda: hash(rec)) == outcome(lambda: hash(ref))
        for op in (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge):
            assert outcome(lambda: op(first, rec)) == outcome(lambda: op(first_twin, ref))
            assert outcome(lambda: op(rec, first)) == outcome(lambda: op(ref, first_twin))
        assert (rec == (1,)) is (ref == (1,)) is False

    # zeros, which a __post_init__ may refuse
    zeros = dict.fromkeys(init_names(cls), 0)
    assert outcome(lambda: state(cls(**zeros))) == outcome(lambda: state(reference(**zeros)))

    # a filled cache slot is outside equality, hashing and repr
    rec, ref = cls(**variants(cls)[0]), reference(**variants(cls)[0])
    for f in _record.fields(cls):
        if not f.init:
            object.__setattr__(rec, f.name, 5)
            object.__setattr__(ref, f.name, 5)
    assert outcome(lambda: (rec == first, hash(rec) == hash(first), repr(rec))) == \
        outcome(lambda: (ref == first_twin, hash(ref) == hash(first_twin), repr(ref)))

    # a default factory makes a new value for each record
    for f in _record.fields(cls):
        if f.default_factory is not _record._MISSING:
            kwargs = {k: v for k, v in variants(cls)[0].items() if k != f.name}
            for maker in (cls, reference):
                assert getattr(maker(**kwargs), f.name) is not getattr(maker(**kwargs), f.name)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_assignment_deletion_and_replace_match_the_twin(cls):
    # Fields only: on a name that is not a field, a frozen slotted dataclass
    # raises the TypeError of a super() call with the class slots replaced.
    kwargs = variants(cls)[0]
    for name in cls.__annotations__:
        rec, ref = cls(**kwargs), TWINS[cls](**kwargs)
        assert outcome(lambda: setattr(rec, name, 7)) == outcome(lambda: setattr(ref, name, 7))
        assert state(rec) == state(ref)
        assert outcome(lambda: delattr(rec, name)) == outcome(lambda: delattr(ref, name))
        assert state(rec) == state(ref)

    for name in cls.__annotations__:
        rec, ref = cls(**kwargs), TWINS[cls](**kwargs)
        changes = {name: sample(cls, name, 2)}
        assert outcome(lambda: state(_record.replace(rec, **changes))) == \
            outcome(lambda: state(dataclasses.replace(ref, **changes)))
    rec, ref = cls(**kwargs), TWINS[cls](**kwargs)
    assert state(_record.replace(rec)) == state(dataclasses.replace(ref))
    assert outcome(lambda: _record.replace(rec, not_a_field=1)) == \
        outcome(lambda: dataclasses.replace(ref, not_a_field=1))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_copy_and_pickle_match_the_twin(cls):
    for rec, ref in pairs(cls):
        # a cache slot a method filled travels with the record, as with a dataclass
        for f in _record.fields(cls):
            if not f.init:
                object.__setattr__(rec, f.name, 5)
                object.__setattr__(ref, f.name, 5)
        copied, copied_twin = copy.copy(rec), copy.copy(ref)
        assert type(copied) is cls
        assert state(copied) == state(copied_twin) == state(rec)
        loaded, loaded_twin = pickle.loads(pickle.dumps(rec)), pickle_round_trip(ref)
        assert type(loaded) is cls
        assert state(loaded) == state(loaded_twin) == state(rec)
        # replace starts every cache slot afresh
        if any(not f.init for f in _record.fields(cls)):
            assert state(_record.replace(rec)) == state(dataclasses.replace(ref))
            assert state(_record.replace(rec)) != state(rec)
