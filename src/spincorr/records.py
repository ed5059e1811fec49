"""The construction rules shared by the package's validated named tuples.

Each record is `class X(Record, namedtuple(...))` with its own validating
__new__.  This module imports nothing of the package, so any module can
build on it.
"""


class Record(tuple):
    """Base of a validated, immutable named tuple.

    namedtuple's _make (and _replace, which calls it) skips __new__; the
    _make here calls the record's validating __new__, so every route to a
    new record validates it.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
