"""The base class of the result records that the analyses return, and the
JSON spelling of their field values."""

import json
from json.encoder import encode_basestring_ascii

# json.dumps(doc, sort_keys=True), without a new encoder per call.
dumps_sorted = json.JSONEncoder(sort_keys=True).encode


def json_value(value, encode=dumps_sorted) -> str:
    """The bytes ``encode(value)`` gives, written directly for the field
    types of a per-line record: an int or a float as its repr, with json's
    ``NaN``, ``Infinity`` and ``-Infinity`` for the floats that are not finite,
    a str through ``encode_basestring_ascii``, the escaper json's C encoder
    itself uses.  A value of any other type goes to ``encode``: ``dumps_sorted``
    for a record with sorted keys, ``json.dumps`` for one whose keys keep
    their order, as the two differ only inside a dict."""
    kind = type(value)
    if kind is float:
        if value - value == 0.0:  # finite
            return repr(value)
        return "NaN" if value != value else "Infinity" if value > 0.0 else "-Infinity"
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return repr(value)
    return encode(value)


class Record:
    """A result record holds what it reports: it compares equal to a record
    of its own class whose fields are equal, as a tuple of the fields in
    order, and shows every field in its repr and its ``to_json``.  A
    subclass names its fields, its constructor's parameters in order, in
    ``_fields``, and the defaults of the trailing ones in ``_defaults``,
    where an empty list or dict stands for a fresh one per record.  Records
    are mutable, so they are unhashable."""

    __slots__ = ()
    _fields = ()
    _defaults = {}
    __hash__ = None

    def __init_subclass__(cls):
        cls.__init__ = _constructor(cls)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def to_json(self) -> dict:
        """The fields by name, in field order."""
        return {name: getattr(self, name) for name in self._fields}


def _constructor(cls):
    """The ``__init__`` of a record class, written as source from its
    ``_fields`` and ``_defaults`` and compiled once, as ``collections.namedtuple``
    builds its ``__new__``: a loop of ``setattr`` would cost several times as
    much per record, and one record is built per window vertex."""
    params, body = [], []
    for name in cls._fields:
        value = name
        if name not in cls._defaults:
            params.append(name)
        elif type(cls._defaults[name]) in (list, dict):  # a fresh empty one when None
            params.append(f"{name}=None")
            value = f"{cls._defaults[name]!r} if {name} is None else {name}"
        else:
            params.append(f"{name}=_defaults[{name!r}]")
        body.append(f"\n    self.{name} = {value}")
    namespace = {"_defaults": cls._defaults}
    exec(f"def __init__(self, {', '.join(params)}):{''.join(body)}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init
