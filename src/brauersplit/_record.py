"""`Record`, the mixin of the library's records, each a named tuple
`class R(Record, namedtuple("R", "a b"))` that checks its fields in `__new__`.

It keeps what the frozen dataclasses they replaced meant (no module imports
`dataclasses`, whose `inspect` and `ast` take about 1 MB of every process):
a record equals only a record of its own class, never a plain tuple; it
neither adds nor repeats; and `_make` and `_replace` build through the
class, so its checks run.  What a tuple adds: a record iterates, indexes and
orders like its fields, and `_asdict()` names them.
"""


class Record:
    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __mul__(self, other):
        # a tuple would concatenate or repeat
        raise TypeError(f"unsupported operand for {type(self).__name__}")

    __add__ = __radd__ = __rmul__ = __mul__

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
