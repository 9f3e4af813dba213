import itertools
from fractions import Fraction

import pytest

from mordell.coset_engine import (
    CosetUnion,
    complement,
    density_sample,
    difference,
    dke,
    from_kernel_cosets,
    full_union,
    intersect,
    kernel_lattice,
    member,
    rescale,
    union,
)
from mordell.errors import InputError, QuotientCeilingError
from mordell.fg_group import Coords, GammaSpec, Undecided
from mordell.group_core import IDENTITY, point, scalar_mul


def _as_ints(u):
    # rank-1 torsion-free residues are one int per slot
    return {tuple(slot[0] for slot in res) for res in u.residues}


def _oracle(k, e, l, n):
    """Exhaustive enumeration of the kernel condition over (Z/l)^n."""
    return {
        v
        for v in itertools.product(range(l), repeat=n)
        if sum(ki * vi for ki, vi in zip(k, v)) % e == 0
    }


# -- kernel lattices ----------------------------------------------------------------


def test_kernel_lattice_zero_char(gamma_p):
    desc = kernel_lattice(gamma_p, (0, 0))
    assert len(desc.free_basis) == 2  # all of Z^2


def test_kernel_lattice_difference_char(gamma_p):
    desc = kernel_lattice(gamma_p, (1, -1))
    assert len(desc.free_basis) == 1
    v = desc.free_basis[0]
    assert v[0] == v[1] != 0


def test_kernel_lattice_injective_char(gamma_p):
    desc = kernel_lattice(gamma_p, (2,))
    assert desc.free_basis == ()


# -- dke ----------------------------------------------------------------------------


def test_dke_modulus_one(gamma_p):
    u = dke(gamma_p, (3,), 1)
    assert u.modulus == 1
    assert len(u.residues) == 1


def test_dke_examples(gamma_p):
    u = dke(gamma_p, (2,), 4)
    assert u.modulus == 4
    assert _as_ints(u) == {(0,), (2,)}
    assert u.residues == (((0,),), ((2,),))  # printed order

    diag = dke(gamma_p, (1, 1), 2)
    assert _as_ints(diag) == {(0, 0), (1, 1)}


def test_dke_against_oracle_small(gamma_p):
    for n in (1, 2):
        for e in range(1, 5):
            for k in itertools.product(range(-2, 3), repeat=n):
                u = dke(gamma_p, k, e)
                assert u.modulus == e
                assert _as_ints(u) == _oracle(k, e, e, n)


def test_dke_is_a_subgroup(gamma_p):
    u = dke(gamma_p, (2, 3), 4)
    res = _as_ints(u)
    assert (0, 0) in res
    for a, b in itertools.product(res, res):
        s = tuple((x + y) % 4 for x, y in zip(a, b))
        assert s in res


def test_dke_ceiling(gamma_p):
    with pytest.raises(QuotientCeilingError) as exc:
        dke(gamma_p, (1, 1), 10**4)
    assert exc.value.attempted == 10**8


@pytest.mark.parametrize(
    "query,answer",
    [
        (lambda gamma, p3: gamma.divisible_in_gamma(p3, 3), Coords((1,), ())),
        (lambda gamma, p3: gamma.linear_dependence([gamma.free_gens[0], p3]), (3, -1)),
        (lambda gamma, p3: from_kernel_cosets(gamma, [((p3,), (1,))], 2).residues, (((1,),),)),
        (lambda gamma, p3: member(dke(gamma, (1,), 2), [p3]), False),
    ],
    ids=["divisible_in_gamma", "linear_dependence", "from_kernel_cosets", "member"],
)
def test_gamma_ceiling_bounds_every_decomposition(curve_m2, query, answer):
    # decomposing 3P indexes shells 0..3, and shell 3's box holds 7 points;
    # every other enumeration here is smaller
    p = point(curve_m2, 3, 5)
    p3 = scalar_mul(curve_m2, 3, p)
    with pytest.raises(QuotientCeilingError) as exc:
        query(GammaSpec(curve_m2, [p], ceiling=6), p3)
    assert (exc.value.attempted, exc.value.ceiling) == (7, 6)
    assert query(GammaSpec(curve_m2, [p], ceiling=7), p3) == answer


# -- rescale ------------------------------------------------------------------------


def test_rescale(gamma_p):
    u = dke(gamma_p, (1,), 2)  # {0 mod 2}
    w = rescale(u, 4)
    assert w.modulus == 4
    assert _as_ints(w) == {(0,), (2,)}
    assert rescale(u, 2) == u
    assert _as_ints(rescale(CosetUnion(gamma_p, 1, 2, ()), 6)) == set()
    with pytest.raises(InputError):
        rescale(u, 3)


def test_rescale_preserves_membership(gamma_p, curve_m2):
    p = point(curve_m2, 3, 5)
    pts = [
        (IDENTITY,),
        (p,),
        (scalar_mul(curve_m2, 2, p),),
        (scalar_mul(curve_m2, -3, p),),
    ]
    u = dke(gamma_p, (2,), 4)
    w = rescale(u, 12)
    for t in pts:
        assert member(u, t) == member(w, t)


# -- boolean algebra ----------------------------------------------------------------


def test_combine_examples(gamma_p):
    a = dke(gamma_p, (1,), 2)
    b = dke(gamma_p, (1,), 3)
    both = intersect(a, b)
    assert both.modulus == 6
    assert _as_ints(both) == {(0,)}
    assert both.residues == (((0,),),)

    c = dke(gamma_p, (1,), 4)
    assert _as_ints(difference(a, c)) == {(2,)}


def test_complement_partition(gamma_p):
    for k, e in [((1,), 2), ((2,), 4), ((1, 1), 2), ((2, 3), 6)]:
        u = dke(gamma_p, k, e)
        comp = complement(u)
        assert union(u, comp) == full_union(gamma_p, u.n, u.modulus)
        assert intersect(u, comp).residues == ()


def test_boolean_laws_exhaustive(gamma_p):
    fam = [
        dke(gamma_p, (1,), 2),
        dke(gamma_p, (1,), 3),
        dke(gamma_p, (2,), 4),
        dke(gamma_p, (3,), 6),
    ]
    for a, b in itertools.product(fam, fam):
        assert union(a, b) == union(b, a)
        assert intersect(a, b) == intersect(b, a)
        # absorption
        assert union(a, intersect(a, b)) == rescale(
            a, union(a, intersect(a, b)).modulus
        )
        # de Morgan at the common modulus
        assert complement(union(a, b)) == intersect(complement(a), complement(b))
        assert complement(intersect(a, b)) == union(complement(a), complement(b))
    for a, b, c in itertools.product(fam, fam, fam):
        assert union(union(a, b), c) == union(a, union(b, c))
        assert intersect(intersect(a, b), c) == intersect(a, intersect(b, c))


def test_complement_involution(gamma_p):
    u = dke(gamma_p, (2,), 4)
    assert complement(complement(u)) == u
    assert difference(u, u).residues == ()


def test_mixed_arity_rejected(gamma_p):
    with pytest.raises(InputError):
        union(dke(gamma_p, (1,), 2), dke(gamma_p, (1, 1), 2))


# -- membership ---------------------------------------------------------------------


def test_member_examples(gamma_p, curve_m2):
    u = dke(gamma_p, (2,), 4)
    p = point(curve_m2, 3, 5)
    assert member(u, (IDENTITY,)) is True
    assert member(u, (scalar_mul(curve_m2, 2, p),)) is True
    assert member(u, (p,)) is False
    diag = dke(gamma_p, (1, -1), 1)
    assert member(diag, (p, p)) is True


def test_member_undecided(gamma_2p, curve_m2):
    u = dke(gamma_2p, (1,), 2)
    res = member(u, (point(curve_m2, 3, 5),), bound=8)
    assert isinstance(res, Undecided)
    assert res.bound == 8


def test_member_arity_check(gamma_p, curve_m2):
    u = dke(gamma_p, (1, 1), 2)
    with pytest.raises(InputError):
        member(u, (point(curve_m2, 3, 5),))


# -- kernel coset assembly ----------------------------------------------------------


def test_from_kernel_cosets_diagonal(gamma_p):
    zero = (Coords((0,), ()), Coords((0,), ()))
    u = from_kernel_cosets(gamma_p, [(zero, (1, -1))], 3)
    assert _as_ints(u) == {(0, 0), (1, 1), (2, 2)}
    # the diagonal has infinite index, so its mod-3 shadow is marked as an
    # over-approximation
    assert u.coarsened is True


def test_from_kernel_cosets_shifted(gamma_p, curve_m2):
    p = point(curve_m2, 3, 5)
    u = from_kernel_cosets(gamma_p, [((p, IDENTITY), (1, -1))], 2)
    assert _as_ints(u) == {(1, 0), (0, 1)}


def test_from_kernel_cosets_zero_char(gamma_p):
    zero = (Coords((0,), ()), Coords((0,), ()))
    u = from_kernel_cosets(gamma_p, [(zero, (0, 0))], 2)
    assert len(u.residues) == 4  # everything
    assert u.coarsened is False


def test_from_kernel_cosets_coarsens_nonzero_char(gamma_p):
    zero = (Coords((0,), ()),)
    u = from_kernel_cosets(gamma_p, [(zero, (2,))], 4)
    assert u.coarsened is True
    # still an over-approximation containing the kernel image
    assert (0,) in _as_ints(u)


def test_from_kernel_cosets_torsion_exactness(gamma_torsion):
    # d = 6 divides l*k = 2*3, so the image stays exact
    zero = (Coords((), (0,)),)
    u = from_kernel_cosets(gamma_torsion, [(zero, (3,))], 2)
    assert u.coarsened is False
    v = from_kernel_cosets(gamma_torsion, [(zero, (1,))], 2)
    assert v.coarsened is True


def test_from_kernel_cosets_undecomposable_base(gamma_2p, curve_m2):
    with pytest.raises(InputError):
        from_kernel_cosets(gamma_2p, [((point(curve_m2, 3, 5),), (1,))], 2)


# -- density ------------------------------------------------------------------------


def test_density_sample_empty(gamma_p):
    u = CosetUnion(gamma_p, 1, 2, ())
    hist = density_sample(gamma_p, u, Fraction(0), Fraction(10), 150, 4)
    assert hist.counts == (0, 0, 0, 0)


def test_density_sample_full_matches_projection(gamma_p):
    u = full_union(gamma_p, 1, 1)
    hist = density_sample(gamma_p, u, Fraction(0), Fraction(10), 150, 4)
    assert hist == gamma_p.projection_density(Fraction(0), Fraction(10), 150, 4)


def test_density_sample_subgroup(gamma_p):
    u = dke(gamma_p, (2,), 4)
    hist = density_sample(gamma_p, u, Fraction(0), Fraction(10), 150, 4)
    # x(2P) = 129/100 falls in the first bin; P itself is excluded
    assert hist.counts == (2, 0, 0, 0)


def test_density_sample_rejects_tuples(gamma_p):
    u = dke(gamma_p, (1, 1), 2)
    with pytest.raises(InputError):
        density_sample(gamma_p, u, Fraction(0), Fraction(1), 10, 2)


# -- construction validation ---------------------------------------------------------


def test_union_validation(gamma_p):
    with pytest.raises(InputError):
        CosetUnion(gamma_p, 1, 4, (((4,),),))  # residue out of range
    with pytest.raises(InputError):
        CosetUnion(gamma_p, 0, 2, ())


def test_render_tuple_arity(gamma_p):
    # one quotient vector per slot; the CLI prints them in this order
    u = dke(gamma_p, (1, 1), 2)
    assert u.residues == (((0,), (0,)), ((1,), (1,)))
