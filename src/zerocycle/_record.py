"""The base class of the package's immutable records.

A record's fields are its ``__slots__``, and one rule decides how it is
built.  A class that defines no ``__init__`` gets one from ``Record``: it
takes the slots in order and stores each argument through its slot's
descriptor.  A class whose ``__init__`` checks or converts its arguments
(``FiniteAbelianGroup``, ``IntegerMatrix``, ``SpecialFiber``) writes its
own, which takes the same fields."""

from __future__ import annotations

from operator import attrgetter


class Record:
    """An immutable record that stores its fields in ``__slots__``.

    A subclass lists its fields in ``__slots__``, in order (adding
    ``"__dict__"`` if it has cached properties); ``_fields`` holds them
    without ``"__dict__"``.  Unless it defines ``__init__``, it gets
    ``__init__(self, <fields>)``, compiled once per class, with the trailing
    defaults given in the class dict ``_defaults`` (slot name to value).  A
    class that defines ``__init__`` takes its fields too.  Any class may set
    ``_compared``, the fields equality, hashing and the repr see when not
    all of them.  Equality holds only between instances of the same class
    with equal compared fields, and the hash is that of their tuple;
    assigning or deleting an attribute raises AttributeError.
    ``__replace__`` (``copy.replace`` on Python 3.13+) and ``__reduce__``
    (``copy`` and ``pickle``) rebuild a record through ``__init__``, so its
    checks run again and no cached value is carried over."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        declared = vars(cls).get("__slots__", ())
        slots = tuple(s for s in declared if s != "__dict__")
        if slots:  # a subclass that declares no field keeps its parent's
            cls._fields = slots
            cls._compared = compared = vars(cls).get("_compared", slots)
            get = attrgetter(*compared)
            cls._key = staticmethod(get if len(compared) > 1 else lambda record: (get(record),))
            if "__init__" not in vars(cls):
                cls.__init__ = _store_only_init(cls, slots, vars(cls).get("_defaults", {}))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, f) for f in self._fields)

    def __replace__(self, /, **changes: object) -> Record:
        return self.__class__(**{**{f: getattr(self, f) for f in self._fields}, **changes})


def _store_only_init(cls: type, slots: tuple[str, ...], defaults: dict[str, object]):
    """``__init__(self, *slots)`` for ``cls``, storing each argument with
    its slot descriptor's ``__set__``.  Like ``namedtuple``'s ``__new__``,
    the source is compiled with ``exec``, so the signature, the TypeErrors
    and ``help()`` are Python's own."""
    if tuple(defaults) != slots[len(slots) - len(defaults):]:
        raise TypeError(f"{cls.__qualname__}._defaults must name its trailing slots, in order")
    namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in slots}
    body = "".join(f"\n    _set_{name}(self, {name})" for name in slots)
    exec(f"def __init__(self, {', '.join(slots)}):{body}", namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(defaults.values()) or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init
