"""The plain record class with value equality, written out instead of taken
from ``dataclasses``: importing that module pulls in ``inspect``, ``ast``,
``dis`` and ``tokenize``, about a fifth of the package's cold start.

A record's ``__init__`` keeps its own signature and sets the fields named in
``FIELDS`` once, by ``_set``; two records are equal when they are of the
same class and their fields are equal, compared as one tuple in ``FIELDS``
order.  Attributes outside ``FIELDS`` (caches) take no part in equality or
the repr.
"""

from __future__ import annotations


class Frozen:
    """A record whose fields are read-only once ``_set`` has set them; it
    hashes as the tuple of its fields (so not at all when one of them is a
    list or a dict, whose contents may still change in place)."""

    FIELDS: tuple[str, ...] = ()

    def _set(self, *values):
        self.__dict__.update(zip(self.FIELDS, values))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")
