"""The base class of the package's immutable records.

A record is built one of two ways.  ``__init__`` is the public constructor
and the only one for a class whose ``__init__`` checks or converts its
arguments (``FiniteAbelianGroup``, ``IntegerMatrix``).  ``_from_columns``
builds a whole column of records at once, for the hot loops that already
hold each field as a list (the fiber's column pass, the triple point audit,
a chain's certificate steps); it may serve only a store-only class, one
whose ``__init__`` does nothing but store each argument in the same-named
slot, in slot order, so both paths give the same record.  A test reads
every call site and checks that ``__init__`` of each class it builds."""

from __future__ import annotations

from collections import deque
from itertools import repeat
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

    #: the slots ``_from_columns`` fills, in order, or None where a record
    #: is not just its slots (``_fields`` differ from them, or a ``__dict__``)
    _columns: tuple[str, ...] | None = None

    def __init_subclass__(cls) -> None:
        declared = vars(cls).get("__slots__", ("__dict__",))  # no __slots__: a __dict__
        slots = tuple(s for s in declared if s != "__dict__")
        if slots:  # a subclass that declares no field keeps its parent's
            cls._fields = fields = vars(cls).get("_fields", slots)
            cls._compared = compared = vars(cls).get("_compared", slots)
            get = attrgetter(*compared)
            cls._key = staticmethod(get if len(compared) > 1 else lambda record: (get(record),))
            cls._columns = slots if fields == slots else None
        if "__dict__" in declared:
            cls._columns = None

    @classmethod
    def _from_columns(cls, *columns):
        """One record per row of ``columns``, the k-th column holding every
        record's k-th field: bare instances whose slots are filled a column
        at a time, with no ``__init__`` run.  Only for a store-only class
        (see the module docstring); the columns are sequences of one
        length."""
        names = cls._columns
        if names is None:
            raise TypeError(f"{cls.__qualname__} records are not built from columns")
        if len(columns) != len(names) or len(set(map(len, columns))) > 1:
            raise ValueError(f"{cls.__qualname__} needs {len(names)} columns of one length")
        records = tuple(map(object.__new__, repeat(cls, len(columns[0]))))
        for name, column in zip(names, columns):
            deque(map(getattr(cls, name).__set__, records, column), 0)
        return records

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
