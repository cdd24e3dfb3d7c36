"""Value classes: records compared, hashed and printed by their fields.

The package's records (expression nodes, letters, partitions, normal forms,
rewrite steps and reports) are plain classes over these two bases, not
``dataclasses``: importing ``dataclasses`` pulls in ``inspect``, ``ast``,
``dis`` and ``tokenize``, and building each decorated class compiles
generated code; together that was most of ``import freeprod``, which every
command pays at cold start.  ``python -X importtime -c "import freeprod.cli"``
shows the import tree.

A record class names its fields, in constructor order, in ``_fields`` and
writes its own ``__init__``.  The bases add what the decorator generated:

* ``==`` between two instances of one class compares the field tuples; any
  other operand gives ``NotImplemented``;
* ``repr`` is ``Name(field=value, ...)``;
* ``to_json`` is the dict of the fields in ``_fields`` order, which is the
  key order the CLI prints (a report that adds a key or converts a value
  extends this dict);
* ``Record`` is mutable and unhashable; ``FrozenRecord`` hashes its field
  tuple and raises ``AttributeError`` on any assignment, so its ``__init__``
  stores around it, in one of two ways.  ``object.__setattr__`` per field
  keeps the instance's attributes in the compact per-class layout (the
  normal forms, letters and partitions).  One ``vars(self).update(...)``
  materializes a dict per instance but builds faster when a class stores
  many values at once: the ``expr`` nodes store their fields and cached
  values this way.  On Python 3.11, 100k ``Mat2Of`` nodes (six values) took
  0.12-0.13 s to build against 0.15-0.17 s, with a 184-byte instance dict
  against 112 bytes; attribute reads cost the same.

Each class gets ``_values``, an ``operator.attrgetter`` over its fields
(called as ``cls._values(record)``), so comparing and hashing build the
field tuple in C.

Attributes outside ``_fields`` (the cached values of expression nodes) take
no part in ``==``, hash or ``repr``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Tuple


def _getter(fields: Tuple[str, ...]) -> Callable[[object], tuple]:
    """The record -> field tuple function; ``attrgetter`` gives a bare value
    for one name and takes no zero."""
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:
        get = attrgetter(fields[0])
        return lambda record: (get(record),)
    return lambda record: ()


class Record:
    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    _values = staticmethod(_getter(()))
    __hash__ = None  # mutable

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = staticmethod(_getter(cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def to_json(self) -> dict:
        return dict(zip(self._fields, self._values(self)))


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
