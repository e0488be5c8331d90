"""The base class of the result records that the analyses return."""


class Record:
    """A result record compares equal to a record of its own class whose
    fields are equal, as a tuple of the fields in order, and shows them in
    its repr.  A subclass names its fields, its constructor's parameters in
    order, in ``_fields`` and the ones its repr leaves out in ``_unshown``.
    Records are mutable, so they are unhashable."""

    __slots__ = ()
    _fields = ()
    _unshown = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields
                          if name not in self._unshown)
        return f"{type(self).__qualname__}({shown})"
