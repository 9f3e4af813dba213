"""Immutable records: typing.NamedTuple classes made type-strict by @record.

A NamedTuple is a tuple, so on its own Undecided(3) == (3,) and
QAnd(parts) == QOr(parts).  @record makes a record equal only to a record of
its own class, field by field, and unequal to everything else, plain tuples
included; the hash stays the tuple hash of the fields.  A record with no
fields is an empty tuple, hence false, so such a class defines __bool__
itself (group_core.Circle).  A record that validates its fields subclasses
its NamedTuple and checks them in __new__ (ml_checker.MLDecomposition).

Everything else stays tuple behaviour: len, indexing, unpacking, ordering,
and + and * concatenate or repeat.  So p + q on two Affine points is a
4-tuple, not their sum; the group law is group_core.add and scalar_mul.
"""


def _eq(self, other):
    return type(other) is type(self) and tuple.__eq__(self, other)


def _ne(self, other):
    return not _eq(self, other)


def record(cls):
    cls.__eq__ = _eq
    cls.__ne__ = _ne
    return cls
