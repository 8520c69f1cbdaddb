"""The base class of the package's immutable records."""

from __future__ import annotations

from operator import attrgetter


class Record:
    """An immutable record that stores its fields in ``__slots__``.

    A subclass lists its fields in ``__slots__``, in order (adding
    ``"__dict__"`` if it has cached properties), and its ``__init__`` takes
    them in that order and stores each with ``object.__setattr__``.  It may
    set ``_fields``, the names ``__init__`` takes when they are not the
    slots, and ``_compared``, the fields equality, hashing and the repr see
    when not all of them.  Equality holds only between instances of the
    same class with equal compared fields, and the hash is that of their
    tuple; assigning or deleting an attribute raises AttributeError.
    ``__replace__`` (``copy.replace`` on Python 3.13+) and ``__reduce__``
    (``copy`` and ``pickle``) rebuild a record through ``__init__``, so its
    checks run again and no cached value is carried over."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        slots = tuple(s for s in vars(cls).get("__slots__", ()) if s != "__dict__")
        if not slots:  # a subclass that declares no field keeps its parent's
            return
        cls._fields = vars(cls).get("_fields", slots)
        cls._compared = compared = vars(cls).get("_compared", slots)
        get = attrgetter(*compared)
        cls._key = staticmethod(get if len(compared) > 1 else lambda record: (get(record),))

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
