"""Plain record classes: the value semantics of a dataclass, without importing
:mod:`dataclasses` (which loads :mod:`inspect` and its imports on every start).

A record class lists its fields in ``_fields``, in the order of its own
``__init__`` arguments, and sets them there.  Its repr is
``Name(field=value, ...)``, and two records are equal when they are of the
same class with equal fields.  A :class:`Record` is mutable and unhashable;
a :class:`Frozen` one refuses assignment (its ``__init__`` sets the fields
with :meth:`Frozen._set`) and hashes as the tuple of its fields.  Records
copy and pickle through ``__init__``, and :func:`dataclasses.replace`,
:func:`dataclasses.fields` and :func:`dataclasses.asdict` accept them.

This module holds the value semantics of records and nothing else: no
simulation logic, so that the dense oracle may derive its result from
:class:`Record` and stay independent of the sparse engine.
"""

from __future__ import annotations


class _DataclassFields:
    """A record class's ``__dataclass_fields__``, made on first read and kept
    on the class: :mod:`dataclasses` is imported only by a caller that asks."""

    def __get__(self, record, cls):
        from dataclasses import make_dataclass

        fields = make_dataclass(cls.__name__, cls._fields).__dataclass_fields__
        setattr(cls, "__dataclass_fields__", fields)
        return fields


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __dataclass_fields__ = _DataclassFields()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _replace(self, **changes):
        """A copy with ``changes`` to some fields, built by ``__init__``, so
        that its checks run on the new values."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return type(self)(**values)

    def __reduce__(self):
        return type(self), self._astuple()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented


class Frozen(Record):
    __slots__ = ()

    def _set(self, *values):
        """Set the fields, in ``_fields`` order, to ``values``."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
