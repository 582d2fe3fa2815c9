"""Bases for the package's value classes, written without generated code.

A `Record` compares and prints by a per-class key: its class defines
`_key()`, the tuple of fields that identify the value, so a field left
out of the key (the resolver's annotations on AST nodes, an equation's
`approx`) takes part in neither. Equality is class-aware: records of two
classes are unequal even when their keys agree. A `Record` is mutable and
unhashable.

A `Frozen` record is fixed once built. It hashes by its key, and
assigning or deleting an attribute raises
`dataclasses.FrozenInstanceError`. Its `__init__` sets the fields with
`setfield`, which is `object.__setattr__`.
"""

setfield = object.__setattr__


class Record:
    __slots__ = ()
    __hash__ = None

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._key()))})"


class Frozen(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        _refuse(name)

    def __delattr__(self, name):
        _refuse(name)


def _refuse(name: str):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot change field {name!r}")
