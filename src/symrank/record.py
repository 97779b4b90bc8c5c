"""`Record`, the base of `symrank`'s immutable value types.

A subclass lists its fields in order, `__slots__ = _fields = (...)`, and its
own `__init__` stores them through `object.__setattr__` and checks them.
`Record` supplies what a frozen dataclass would: assignment and deletion
raise `AttributeError`, equality and hashing go by the field tuple of
objects of one class, the repr is the dataclass repr, copy and pickle
rebuild through the constructor, and `_asdict` gives the fields as a dict.

The value types are not dataclasses because `dataclasses` imports
`inspect`, `ast`, `dis` and `tokenize` and compiles each class's generated
methods at import, the larger part of a fresh process's start-up, which
every CLI call pays.
"""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._astuple()
