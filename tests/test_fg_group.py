import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mordell.errors import (
    InputError,
    PreconditionError,
    QuotientCeilingError,
    SpecValidationError,
)
from mordell.fg_group import Coords, GammaSpec, Undecided
from mordell.group_core import (
    IDENTITY,
    Circle,
    add,
    format_point,
    make_curve,
    negate,
    point,
    scalar_mul,
)

from .oracles import audit_by_torsion_set


def test_generator_split_and_rank(gamma_p, gamma_torsion, gamma_circle):
    assert gamma_p.rank == 1
    assert gamma_p.torsion_factors == ()
    assert gamma_torsion.rank == 0
    assert gamma_torsion.torsion_factors == (6,)
    assert gamma_circle.rank == 1
    assert gamma_circle.torsion_factors == (4,)


def test_claimed_rank_mismatch(curve_m2):
    with pytest.raises(SpecValidationError):
        GammaSpec(curve_m2, [point(curve_m2, 3, 5)], claimed_rank=2)


def test_dependent_generators_fail_audit(curve_m2):
    p = point(curve_m2, 3, 5)
    with pytest.raises(SpecValidationError):
        GammaSpec(curve_m2, [p, scalar_mul(curve_m2, 2, p)])


def test_audit_reports_a_relation_of_least_norm():
    # 2*g1 + g2 = O on y^2 = x^3 - 7x + 10; a lexicographic scan of the
    # audit box would first meet the multiple -8*g1 - 4*g2
    curve = make_curve(-7, 10)
    with pytest.raises(SpecValidationError) as exc:
        GammaSpec(curve, [point(curve, 1, 2), point(curve, -1, 4)])
    assert str(exc.value).endswith(": -2*g1 + -1*g2 is torsion")


# (a, b, points of infinite order, torsion points); on y^2 = x^3 - 7x + 10
# the two points satisfy 2*g1 + g2 = O
_AUDIT_FAMILIES = [
    (0, -2, [(3, 5)], []),
    (0, 17, [(-2, 3), (-1, 4)], []),
    (0, 8, [(1, 3)], [(-2, 0)]),
    (-36, 0, [(-3, 9)], [(0, 0), (6, 0), (-6, 0)]),
    (-7, 10, [(1, 2), (-1, 4)], []),
    (None, None, [(Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13))],
     [(0, 1), (-1, 0), (0, -1)]),
]


@st.composite
def _audit_spec(draw):
    """A backend and a rank-1 or rank-2 generator list: g1 = c*F + T, and g2
    either another such combination or the dependent m*g1 + t; curves are
    optionally moved to rational a and b by (t^2 x, t^3 y), and a torsion
    generator may ride along."""
    a, b, free, tors = draw(st.sampled_from(_AUDIT_FAMILIES))
    if a is None:
        backend, scale = Circle(), Fraction(1)
    else:
        scale = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3)]))
        backend = make_curve(a * scale**4, b * scale**6)
    pts = [point(backend, x * scale**2, y * scale**3) for x, y in free + tors]
    free_pts, tors_pts = pts[: len(free)], [IDENTITY, *pts[len(free):]]

    def combo():
        c = draw(st.sampled_from([1, -1, 2, -3]))
        f = draw(st.sampled_from(free_pts))
        return add(backend, scalar_mul(backend, c, f), draw(st.sampled_from(tors_pts)))

    gens = [combo()]
    if draw(st.booleans()):
        if draw(st.booleans()):
            gens.append(combo())
        else:
            m = draw(st.integers(-3, 3))
            gens.append(add(backend, scalar_mul(backend, m, gens[0]), draw(st.sampled_from(tors_pts))))
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), draw(st.sampled_from(tors_pts)))
    return backend, gens


@settings(max_examples=80, deadline=None)
@given(_audit_spec())
def test_screened_audit_matches_exact_oracle(case):
    backend, gens = case
    try:
        GammaSpec(backend, gens)
        got = None
    except SpecValidationError as exc:
        got = str(exc)
    assert got == audit_by_torsion_set(backend, gens)


def test_coords_rendering():
    assert str(Coords((2,), ())) == "free=[2] tors=[]"
    assert str(Coords((2, -1), (3,))) == "free=[2 -1] tors=[3]"
    assert str(Undecided(16)) == "undecided(bound=16)"
    assert Coords((2, -1), (3,)).max_norm() == 2


def test_realize_and_decompose(gamma_p, curve_m2):
    p = point(curve_m2, 3, 5)
    two_p = scalar_mul(curve_m2, 2, p)
    assert gamma_p.realize(Coords((2,), ())) == two_p
    assert gamma_p.decompose(two_p) == Coords((2,), ())
    assert gamma_p.decompose(negate(curve_m2, p)) == Coords((-1,), ())
    assert gamma_p.decompose(IDENTITY) == Coords((0,), ())


def test_decompose_unreachable_point(gamma_2p, curve_m2):
    # P generates the ambient group but not the index-2 subgroup
    res = gamma_2p.decompose(point(curve_m2, 3, 5), bound=8)
    assert isinstance(res, Undecided)
    assert res.bound == 8


def test_decompose_stops_at_first_shell_holding_the_point(curve_m2):
    gamma = GammaSpec(curve_m2, [point(curve_m2, 3, 5)], claimed_rank=1)
    assert gamma.decompose(point(curve_m2, 3, 5), bound=300) == Coords((1,), ())
    assert gamma._index_bound == 1
    three_p = gamma.realize(Coords((3,), ()))
    assert gamma.decompose(three_p, bound=5) == Coords((3,), ())
    assert gamma._index_bound == 3
    # an indexed hit beyond a smaller bound is still undecided there
    assert gamma.decompose(three_p, bound=2) == Undecided(2)


def test_decompose_ceiling_applies_to_shells_searched(curve_m2):
    g = point(curve_m2, Fraction(129, 100), Fraction(-383, 1000))
    assert GammaSpec(curve_m2, [g], ceiling=3).decompose(g, bound=300) == Coords((1,), ())
    gamma = GammaSpec(curve_m2, [g], ceiling=21)
    p = point(curve_m2, 3, 5)  # not in <2P>
    assert gamma.decompose(p, bound=10) == Undecided(10)
    # shell 11 has a box of 23 points
    with pytest.raises(QuotientCeilingError):
        gamma.decompose(p, bound=300)
    assert gamma._index_bound == 10


def test_decompose_off_variety(gamma_p, curve_m2):
    with pytest.raises(InputError):
        gamma_p.decompose(point(curve_m2, 3, 4))


def test_realize_validates_shape(gamma_p):
    with pytest.raises(InputError):
        gamma_p.realize(Coords((1, 2), ()))
    with pytest.raises(InputError):
        gamma_p.realize(Coords((), (1,)))


def test_torsion_coordinates(gamma_torsion, curve_01):
    # 3 * (2, 3) is the order-2 point (-1, 0)
    assert gamma_torsion.realize(Coords((), (3,))) == point(curve_01, -1, 0)
    assert gamma_torsion.decompose(point(curve_01, -1, 0)) == Coords((), (3,))
    # torsion residues reduce mod the factor
    g = gamma_torsion.realize(Coords((), (1,)))
    assert scalar_mul(curve_01, 7, g) == g


def test_decompose_is_additive(gamma_p, gamma_circle):
    for gamma in (gamma_p, gamma_circle):
        r = gamma.rank
        t = len(gamma.torsion_factors)
        samples = [
            Coords(tuple(f), tuple(torsion))
            for f in itertools.product((-2, 0, 1), repeat=r)
            for torsion in itertools.product((0, 1), repeat=t)
        ]
        for a, b in itertools.product(samples, samples):
            pa, pb = gamma.realize(a), gamma.realize(b)
            s = add(gamma.backend, pa, pb)
            expect = Coords(
                tuple(x + y for x, y in zip(a.free, b.free)),
                tuple(
                    (x + y) % d
                    for x, y, d in zip(a.torsion, b.torsion, gamma.torsion_factors)
                ),
            )
            assert gamma.decompose(s, bound=8) == expect


def test_iter_coords_shell_order(gamma_p, gamma_circle):
    for gamma in (gamma_p, gamma_circle):
        seen = list(gamma.iter_coords(3))
        norms = [c.max_norm() for c in seen]
        assert norms == sorted(norms)
        assert len(seen) == len(set(seen))
        # full box: (2*3+1)^rank times torsion order
        torsion_size = 1
        for d in gamma.torsion_factors:
            torsion_size *= d
        assert len(seen) == 7**gamma.rank * torsion_size


def test_divisibility(gamma_p, curve_m2):
    p = point(curve_m2, 3, 5)
    two_p = scalar_mul(curve_m2, 2, p)
    assert gamma_p.divisible_in_gamma(two_p, 2) == Coords((1,), ())
    assert gamma_p.divisible_in_gamma(p, 2) is None
    assert gamma_p.divisible_in_gamma(p, 1) == Coords((1,), ())
    with pytest.raises(InputError):
        gamma_p.divisible_in_gamma(p, 0)


def test_divisibility_needs_decomposition(gamma_2p, curve_m2):
    with pytest.raises(PreconditionError):
        gamma_2p.divisible_in_gamma(point(curve_m2, 3, 5), 2)


def test_divisibility_torsion(gamma_torsion):
    # in Z/6: 2*s = 4 has a solution, 2*s = 3 does not
    four = gamma_torsion.realize(Coords((), (4,)))
    three = gamma_torsion.realize(Coords((), (3,)))
    got = gamma_torsion.divisible_in_gamma(four, 2)
    assert got is not None
    assert (2 * got.torsion[0]) % 6 == 4
    assert gamma_torsion.divisible_in_gamma(three, 2) is None


def test_divisibility_round_trip(gamma_circle):
    # n * (n-th part) lands back on the original point
    for c in gamma_circle.iter_coords(2):
        for n in (2, 3):
            target = gamma_circle.realize(
                Coords(
                    tuple(n * v for v in c.free),
                    tuple(
                        (n * v) % d
                        for v, d in zip(c.torsion, gamma_circle.torsion_factors)
                    ),
                )
            )
            got = gamma_circle.divisible_in_gamma(target, n)
            assert got is not None
            assert gamma_circle.realize(
                Coords(
                    tuple(n * v for v in got.free),
                    tuple(
                        (n * v) % d
                        for v, d in zip(got.torsion, gamma_circle.torsion_factors)
                    ),
                )
            ) == target


def test_gamma_mod(gamma_p, gamma_torsion, gamma_circle):
    q = gamma_p.gamma_mod(4)
    assert q.shape == (4,)
    assert q.size == 4

    q = gamma_torsion.gamma_mod(2)
    assert q.shape == (2,)
    assert q.size == 2

    q = gamma_circle.gamma_mod(2)
    assert q.shape == (2, 2)
    assert q.size == 4

    q = gamma_circle.gamma_mod(6)
    # free part Z/6, torsion part Z/gcd(6,4) = Z/2
    assert q.shape == (6, 2)
    assert q.size == 12

    assert gamma_p.gamma_mod(1).size == 1


def test_gamma_mod_ceiling(gamma_p):
    with pytest.raises(QuotientCeilingError) as exc:
        gamma_p.gamma_mod(10**7)
    assert exc.value.attempted == 10**7
    assert exc.value.ceiling == 10**6


def test_quotient_reduce(gamma_circle):
    # shape (3, gcd(3, 4)) = (3, 1): reduce takes each coordinate mod shape,
    # and the coords of the box meet every residue
    q = gamma_circle.gamma_mod(3)
    hit = set()
    for c in gamma_circle.iter_coords(2):
        res = q.reduce(c)
        assert res == tuple(v % f for v, f in zip(c.free + c.torsion, q.shape))
        hit.add(res)
    assert hit == set(q.residues()) == {(0, 0), (1, 0), (2, 0)}


def test_linear_dependence(gamma_p, curve_m2):
    p = point(curve_m2, 3, 5)
    two_p = scalar_mul(curve_m2, 2, p)
    assert gamma_p.linear_dependence([p, two_p]) == (2, -1)
    assert gamma_p.linear_dependence([p, p]) == (1, -1)
    assert gamma_p.linear_dependence([p]) is None
    assert gamma_p.linear_dependence([p, negate(curve_m2, p)]) == (1, 1)
    with pytest.raises(InputError):
        gamma_p.linear_dependence([])


def test_linear_dependence_canonical_sign(gamma_p, curve_m2):
    # first nonzero entry positive, lexicographically least in its shell
    p = point(curve_m2, 3, 5)
    three_p = scalar_mul(curve_m2, 3, p)
    k = gamma_p.linear_dependence([three_p, p])
    assert k == (1, -3)
    assert k[0] > 0


def test_bounded_points(gamma_p):
    pts = dict(gamma_p.bounded_points(150))
    rendered = {str(c): format_point(p) for c, p in pts.items()}
    assert rendered == {
        "free=[0] tors=[]": "O",
        "free=[1] tors=[]": "(3, 5)",
        "free=[-1] tors=[]": "(3, -5)",
        "free=[2] tors=[]": "(129/100, -383/1000)",
        "free=[-2] tors=[]": "(129/100, 383/1000)",
    }


def test_bounded_points_torsion_only(gamma_torsion):
    pts = gamma_torsion.bounded_points(10)
    assert len(pts) == 6  # the whole finite subgroup fits the budget


def test_projection_density(gamma_p):
    hist = gamma_p.projection_density(Fraction(0), Fraction(10), 150, 4)
    assert hist.counts == (2, 2, 0, 0)
    one_bin = gamma_p.projection_density(Fraction(0), Fraction(10), 150, 1)
    assert one_bin.counts == (4,)
    assert one_bin.total() == hist.total()


def test_histogram_edges_exact(gamma_p):
    hist = gamma_p.projection_density(Fraction(0), Fraction(1), 150, 3)
    assert hist.edges() == [Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)]


def test_axioms_report_purity(gamma_2p, curve_m2):
    report = gamma_2p.check_axioms_bounded(
        2, 30, (Fraction(-4), Fraction(4), 8), bound=16
    )
    finds = [f for c in report.checks for f in c.purity_findings]
    witnesses = {format_point(f.witness) for f in finds}
    assert witnesses == {"(3, -5)", "(3, 5)"}
    assert all(f.n == 2 for f in finds)
    assert "evidence" in report.note


def test_axioms_report_quotients(gamma_p):
    report = gamma_p.check_axioms_bounded(
        3, 30, (Fraction(-4), Fraction(4), 8), bound=16
    )
    assert [c.quotient_size for c in report.checks] == [1, 2, 3]
    assert not any(c.purity_findings for c in report.checks)


def test_axioms_density_flags_thin_subgroups(gamma_torsion):
    report = gamma_torsion.check_axioms_bounded(
        1, 100, (Fraction(-10), Fraction(10), 10), bound=4
    )
    assert report.density.low_coverage is True
