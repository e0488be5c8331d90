"""Records whose costly fields are computed on their first read."""


class Deferred:
    """Base of a record some of whose fields, the class's ``pending`` names,
    can be left to a callable.

    ``deferred(build, **fields)`` makes a record of ``fields`` whose pending
    fields are the dict ``build()`` returns, computed together on the first
    read of any of them, once.  Copying or pickling settles the record first:
    the callable may hold what cannot be pickled, the values it gives can be.
    """

    pending = ()

    @classmethod
    def deferred(cls, build, **fields):
        record = object.__new__(cls)
        record.__dict__.update(fields, _build=build)
        return record

    def __getattr__(self, name):
        # Reached only for unset attributes: a deferred record's pending fields.
        if name in self.pending and "_build" in self.__dict__:
            self._settle()
            return getattr(self, name)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def _settle(self):
        self.__dict__.update(self.__dict__.pop("_build")())

    def __getstate__(self):
        if "_build" in self.__dict__:
            self._settle()
        return self.__dict__
