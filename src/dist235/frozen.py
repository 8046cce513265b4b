"""The read-only base of records that are built once and never change.

A subclass's `__init__` writes each attribute into the instance
`__dict__` (or, for `__slots__`, with `object.__setattr__`); afterwards
assigning or deleting an attribute raises `AttributeError`.  Caches kept
in `__dict__` (`functools.cached_property` and the like) write there
directly, and copies and pickles restore `__dict__` as it was.
"""


class Frozen:
    """Read-only attributes.  `_key`, an `operator.attrgetter` of the
    attributes that equality and hashing read, makes `==` hold between
    two instances of one class with equal key attributes, and the hash
    that of those attributes, as for a frozen dataclass."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))
