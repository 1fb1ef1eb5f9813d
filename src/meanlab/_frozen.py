"""The base of the slotted value types that hold callables or validate their fields.

A subclass lists its fields as `__slots__`, in the order its `__init__`
takes them, and sets each once in `__init__` through `set_field`.
Instances refuse assignment and deletion, compare and hash by field
values, and leave the fields named in `_hidden` out of their repr.  The
plain records of the package are `collections.namedtuple` subclasses.
"""

from __future__ import annotations

#: Binds a field past `Frozen.__setattr__`; only `__init__` methods call it.
set_field = object.__setattr__


class Frozen:
    __slots__ = ()
    _hidden: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__ if name not in self._hidden)
        return f"{self.__class__.__qualname__}({shown})"
