"""The base of the package's immutable result records.

A record's fields are the parameters of its `__init__`, in order, which
validates its arguments and stores them with `_set`; their names are kept
in `__match_args__`, which class patterns in `match` read too.  The base
gives each record a `Name(field=value, ...)` repr, equality and a hash
over `_key()` (every field unless the record says otherwise), and an
AttributeError on assigning or deleting an attribute.  Pickling and
copying need nothing more: they restore the instance `__dict__` without
calling `__setattr__`.
"""

from __future__ import annotations


class Record:
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls.__match_args__ = code.co_varnames[1:code.co_argcount]

    def _set(self, *values: object) -> None:
        self.__dict__.update(zip(self.__match_args__, values, strict=True))

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self.__match_args__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
