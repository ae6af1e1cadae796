"""Record classes: the part of the standard library's dataclass module that
the package uses, without importing that module.

``record`` turns a class of annotated fields into a record.  It gives the
class an ``__init__`` that takes the fields in order, a repr, and equality
over the fields' values; a frozen record also hashes, and ``order=True`` adds
the four orderings.  Equality, hashing and ordering compare the tuple of the
fields that compare, so a one-field record hashes a 1-tuple, as a dataclass
does.  A frozen record raises FrozenInstanceError on assignment and deletion,
and ``slots=True`` rebuilds the class with ``__slots__``.  ``field`` gives a
field a default factory, or makes it a cache slot outside ``__init__``, repr
and comparisons; ``replace`` and ``fields`` read a record's fields.

The methods that name each field (``__init__``, equality, hashing, ordering)
are compiled from one source per class, by a single ``exec``; repr, the
frozen guards and the pickling state are shared by every record.  The
standard module compiles each method apart, and its import loads inspect,
ast, dis and tokenize.
"""

_MISSING = object()  # no default given
_FACTORY = object()  # __init__'s default for a field with a default factory


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion from, a frozen record."""


class Field:
    """One field of a record, as fields() returns it."""

    __slots__ = ("name", "default", "default_factory", "init", "repr", "compare")

    def __init__(self, default, default_factory, init, repr, compare):
        self.name = None  # set by record
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.repr = repr
        self.compare = compare


def field(*, default=_MISSING, default_factory=_MISSING, init=True, repr=True, compare=True):
    """A field whose default is default_factory(), called for each record
    built; or, with init, repr and compare False, a cache slot that starts as
    default and that the record's own methods fill."""
    return Field(default, default_factory, init, repr, compare)


def fields(class_or_instance) -> tuple[Field, ...]:
    """The record's fields, in order."""
    return class_or_instance.__record_fields__


def replace(obj, /, **changes):
    """A new record of obj's class with obj's field values, changes applied;
    a field outside __init__ starts afresh and cannot be changed."""
    for f in obj.__record_fields__:
        if not f.init:
            if f.name in changes:
                raise ValueError(
                    f"field {f.name} is declared with init=False, it cannot be specified with replace()"
                )
        elif f.name not in changes:
            changes[f.name] = getattr(obj, f.name)
    return obj.__class__(**changes)


def record(cls=None, /, *, frozen=False, order=False, slots=False):
    """Make cls a record; usable bare (@record) or with options."""
    if cls is None:
        return lambda cls: _build(cls, frozen, order, slots)
    return _build(cls, frozen, order, slots)


def _repr(self):
    shown = (f"{f.name}={getattr(self, f.name)!r}" for f in self.__record_fields__ if f.repr)
    return f"{self.__class__.__qualname__}({', '.join(shown)})"


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _getstate(self):
    return [getattr(self, f.name) for f in self.__record_fields__]


def _setstate(self, state):
    for f, value in zip(self.__record_fields__, state):
        object.__setattr__(self, f.name, value)


_ORDERINGS = (("__lt__", "<"), ("__le__", "<="), ("__gt__", ">"), ("__ge__", ">="))


def _build(cls, frozen, order, slots):
    own = cls.__dict__
    fields = []
    for name in own.get("__annotations__", ()):
        f = own.get(name, _MISSING)
        if isinstance(f, Field):
            delattr(cls, name)  # a class attribute keeps only a plain default
        else:
            f = field(default=f)
        f.name = name
        fields.append(f)
    names = tuple(f.name for f in fields)

    methods = {"__record_fields__": tuple(fields), **_compile(cls, fields, frozen, order)}
    if "__repr__" not in own:
        methods["__repr__"] = _repr
    if frozen:
        methods.update(__setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
    else:
        methods["__hash__"] = None  # a mutable record is unhashable
    if not slots:
        for name, value in methods.items():
            setattr(cls, name, value)
        return cls
    body = {k: v for k, v in own.items() if k not in (*names, "__dict__", "__weakref__")}
    body.update(methods, __slots__=names, __qualname__=cls.__qualname__)
    if frozen:  # copy and pickle would otherwise set each slot through the guard
        body.update(__getstate__=_getstate, __setstate__=_setstate)
    return type(cls.__name__, cls.__bases__, body)


def _compile(cls, fields, frozen, order) -> dict:
    """__init__, __eq__, and __hash__ when frozen and the orderings when
    order, compiled from one source."""
    scope = {"_setattr": object.__setattr__, "_FACTORY": _FACTORY}
    params, lines = ["self"], []
    for f in fields:
        name = f.name
        if f.default_factory is not _MISSING:
            scope[f"_factory_{name}"] = f.default_factory
            params.append(f"{name}=_FACTORY")
            value = f"_factory_{name}() if {name} is _FACTORY else {name}"
        elif not f.init:
            scope[f"_default_{name}"] = f.default
            value = f"_default_{name}"
        elif f.default is not _MISSING:
            scope[f"_default_{name}"] = f.default
            params.append(f"{name}=_default_{name}")
            value = name
        else:
            params.append(name)
            value = name
        lines.append(f"_setattr(self, {name!r}, {value})" if frozen else f"self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        lines.append("self.__post_init__()")
    source = [f"def __init__({', '.join(params)}):", *(f" {line}" for line in lines or ["pass"])]

    compared = [f.name for f in fields if f.compare]
    key = "(" + "".join(f"self.{name}," for name in compared) + ")"
    other_key = key.replace("self.", "other.")
    comparisons = [("__eq__", "==")] + (list(_ORDERINGS) if order else [])
    for name, op in comparisons:
        source += [
            f"def {name}(self, other):",
            " if other.__class__ is self.__class__:",
            f"  return {key} {op} {other_key}",
            " return NotImplemented",
        ]
    generated = ["__init__", *(name for name, _ in comparisons)]
    if frozen:
        source += ["def __hash__(self):", f" return hash({key})"]
        generated.append("__hash__")
    exec(compile("\n".join(source), f"<record {cls.__qualname__}>", "exec"), scope)
    for name in generated:
        scope[name].__qualname__ = f"{cls.__qualname__}.{name}"
    return {name: scope[name] for name in generated}
