"""The records of the package are typing.NamedTuple classes (mordell.records).

A bare NamedTuple is a tuple: it equals any tuple with the same items, and
one without fields is false.  These tests pin what the records keep of the
frozen dataclasses they replace: reprs, hashes, defaults, immutability,
validation, and equality that sees the type.
"""

from fractions import Fraction

import pytest

from mordell import cli
from mordell.coset_engine import CosetUnion, dke
from mordell.errors import InputError
from mordell.fg_group import Coords, GammaSpec, Histogram, Undecided
from mordell.formula_eval import QAnd, QOr, TriBool
from mordell.group_core import Affine, Circle, Curve, make_curve, point
from mordell.ml_checker import Inconclusive, MLDecomposition, Verified

HALF = Fraction(1, 2)


def test_a_record_without_fields_is_true():
    assert bool(Circle())
    assert Circle() == Circle() and hash(Circle()) == hash(())


@pytest.mark.parametrize(
    "a,b",
    [
        (QAnd((1, 2)), QOr((1, 2))),
        (Verified(3), Undecided(3)),
        (Curve(HALF, HALF), Affine(HALF, HALF)),
        (Undecided(3), (3,)),
        (Coords((1,), ()), ((1,), ())),
        (Circle(), ()),
    ],
    ids=["QAnd-QOr", "Verified-Undecided", "Curve-Affine", "Undecided-tuple", "Coords-tuple", "Circle-tuple"],
)
def test_records_of_different_types_never_compare_equal(a, b):
    assert a != b and b != a
    assert not (a == b or b == a)
    assert len({a, b}) == 2


def test_equal_records_compare_and_hash_as_their_fields():
    a, b = Coords((1, -2), (3,)), Coords((1, -2), (3,))
    assert a == b and not a != b
    # the frozen dataclasses hashed the tuple of their fields, so set and
    # dict orders do not change
    assert hash(a) == hash(((1, -2), (3,)))
    assert hash(make_curve(0, -2)) == hash((Fraction(0), Fraction(-2)))


def test_setting_a_field_raises():
    c = Coords((1,))
    with pytest.raises(AttributeError):
        c.free = (2,)
    with pytest.raises(AttributeError):
        c.other = 1
    u = dke(_gamma(), (1,), 2)
    with pytest.raises(AttributeError):
        u.modulus = 4


def test_defaults_and_reprs():
    assert Coords((1,)).torsion == ()
    assert TriBool("false") == TriBool("false", (), None)
    assert Inconclusive("r").unexplained == ()
    assert repr(make_curve(0, -2)) == "Curve(a=Fraction(0, 1), b=Fraction(-2, 1))"
    assert repr(Circle()) == "Circle()"
    assert repr(Coords((1,))) == "Coords(free=(1,), torsion=())"
    assert repr(TriBool("false")) == "TriBool(kind='false', witnesses=(), bound=None)"
    assert repr(MLDecomposition(())) == "MLDecomposition(pairs=())"
    assert repr(Histogram(HALF, 1, (2,))) == "Histogram(lo=Fraction(1, 2), hi=1, counts=(2,))"


def _gamma():
    curve = make_curve(0, -2)
    return GammaSpec(curve, [point(curve, 3, 5)])


def test_coset_union_equality_ignores_gamma():
    a, b = dke(_gamma(), (1, 1), 2), dke(_gamma(), (1, 1), 2)
    assert a.gamma is not b.gamma
    assert a == b and not a != b
    assert hash(a) == hash((a.n, a.modulus, a.residues))
    assert a != dke(a.gamma, (1, 1), 4)
    assert a != (a.gamma, a.n, a.modulus, a.residues)


@pytest.mark.parametrize(
    "args,message",
    [
        ((0, 2, ()), "arity must be >= 1"),
        ((1, 0, ()), "modulus must be >= 1"),
        ((1, 2, (((0,), (0,)),)), "residue ((0,), (0,)) has arity 2, expected 1"),
        ((1, 2, (((2,),),)), "residue slot (2,) is not reduced mod (2,)"),
    ],
)
def test_coset_union_validation_messages(args, message):
    with pytest.raises(InputError) as exc:
        CosetUnion(_gamma(), *args)
    assert str(exc.value) == message


def test_ml_decomposition_validation_message():
    with pytest.raises(InputError) as exc:
        MLDecomposition((((Coords((0,)),), (1, 2)),))
    assert str(exc.value) == "base arity 1 does not match character (1, 2)"


def test_point_cache_key_is_unchanged(tmp_path):
    # the key embeds repr(backend); the file is named by the key's CRC-32,
    # so a file written under the former SHA-256 name is a miss once
    key, path = cli.PointCache(tmp_path)._key_path(make_curve(0, -2), 30)
    assert key == "v2 Curve(a=Fraction(0, 1), b=Fraction(-2, 1)) h=30"
    assert path == tmp_path / "points-6d200d58.json"
