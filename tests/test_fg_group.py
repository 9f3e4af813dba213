import itertools
import json
import time
import tracemalloc
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mordell.errors import (
    InputError,
    PreconditionError,
    QuotientCeilingError,
    SpecValidationError,
)
from mordell import cli, fg_group, group_core
from mordell.fg_group import Coords, GammaSpec, Undecided, _span, shell
from mordell.group_core import (
    IDENTITY,
    Circle,
    add,
    enumerate_rational_points,
    format_point,
    make_curve,
    negate,
    point,
    scalar_mul,
)

from .oracles import (
    audit_by_torsion_set,
    shell_search_decompose,
    shell_search_linear_dependence,
)


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
    (
        None,
        None,
        [(Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)), (Fraction(8, 17), Fraction(15, 17))],
        [(0, 1), (-1, 0), (0, -1)],
    ),
]


@st.composite
def _audit_spec(draw):
    """A backend and a generator list of rank up to 2, or 3 on the circle:
    g1 = c*F + T, and each later g_i either another such combination or the
    dependent m_1*g_1 + ... + m_{i-1}*g_{i-1} + t; curves are optionally
    moved to rational a and b by (t^2 x, t^3 y), and a torsion generator
    may ride along."""
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

    def dependent(gens):
        acc = draw(st.sampled_from(tors_pts))
        for g in gens:
            acc = add(backend, acc, scalar_mul(backend, draw(st.integers(-3, 3)), g))
        return acc

    gens = [combo()]
    for _ in range(draw(st.integers(0, 2 if len(free) == 3 else 1))):
        gens.append(combo() if draw(st.booleans()) else dependent(gens))
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


@settings(max_examples=60, deadline=None)
@given(_audit_spec(), st.integers(3, 50))
def test_screened_audit_from_small_primes_matches_exact_oracle(case, start):
    # in tiny fields most vectors survive the screen, so the order in which
    # the survivors are summed decides the relation reported
    backend, gens = case
    try:
        with mock.patch.object(fg_group, "good_reduction", partial(group_core.good_reduction, start=start)):
            GammaSpec(backend, gens)
        got = None
    except SpecValidationError as exc:
        got = str(exc)
    assert got == audit_by_torsion_set(backend, gens)


# the Pythagorean primes 5, 13, 17, 29, 37 and 41 give independent points of
# the circle, whose group of rational points has infinite rank
_CIRCLE_RANK6 = [["3/5", "4/5"], ["5/13", "12/13"], ["8/17", "15/17"], ["20/29", "21/29"], ["12/37", "35/37"], ["9/41", "40/41"]]


def test_rank_six_audit_meets_in_the_middle(spec_file, capsys):
    # the audit box holds 17^6 - 1 vectors; tabulating half of each keeps
    # the build far from that
    gens = [point(Circle(), Fraction(x), Fraction(y)) for x, y in _CIRCLE_RANK6]
    t0 = time.perf_counter()
    assert GammaSpec(Circle(), gens).rank == 6
    assert time.perf_counter() - t0 < 2.0
    path = spec_file({"kind": "circle", "generators": _CIRCLE_RANK6, "rank": 6})
    assert cli.main(["curve-info", "--spec", path, "--machine"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["rank"] == 6
    assert record["subgroup_torsion_factors"] == []


# the Pythagorean primes up to 61
_CIRCLE_RANK8 = _CIRCLE_RANK6 + [["45/53", "28/53"], ["11/61", "60/61"]]


def test_rank_eight_circle_audit_uses_exponent_four():
    # 27720*g_i would lie in subgroups of order 139 and 251 mod 10007 and
    # 10039, so most of the 17^8 sums would collide there; 4 kills the
    # circle's rational torsion and leaves subgroups of order 2502 and 2510
    gens = [point(Circle(), Fraction(x), Fraction(y)) for x, y in _CIRCLE_RANK8]
    t0 = time.perf_counter()
    assert GammaSpec(Circle(), gens).rank == 8
    assert time.perf_counter() - t0 < 5.0


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
    # only coords matching the point mod both good primes are realized
    assert set(gamma._realized) == {((1,), ())}
    three_p = gamma.realize(Coords((3,), ()))
    assert gamma.decompose(three_p, bound=5) == Coords((3,), ())
    assert set(gamma._realized) == {((1,), ()), ((3,), ())}
    # a hit beyond a smaller bound is still undecided there
    assert gamma.decompose(three_p, bound=2) == Undecided(2)


def test_decompose_ceiling_applies_to_shells_searched(curve_m2):
    g = point(curve_m2, Fraction(129, 100), Fraction(-383, 1000))
    assert GammaSpec(curve_m2, [g], ceiling=3).decompose(g, bound=300) == Coords((1,), ())
    gamma = GammaSpec(curve_m2, [g], ceiling=21)
    p = point(curve_m2, 3, 5)  # not in <2P>
    assert gamma.decompose(p, bound=10) == Undecided(10)
    # shell 11 has a box of 23 points
    with pytest.raises(QuotientCeilingError) as excinfo:
        gamma.decompose(p, bound=300)
    assert excinfo.value.attempted == 23
    assert excinfo.value.what == "decompose shell"


def test_decompose_excluded_point_at_a_large_bound(curve_m2):
    # (3, 5) is not in <2P>: none of its 200001 coords matches it mod both
    # good primes, so none is realized, where the exact shell search would
    # build points of millions of digits
    g = point(curve_m2, Fraction(129, 100), Fraction(-383, 1000))
    t0 = time.perf_counter()
    assert GammaSpec(curve_m2, [g]).decompose(point(curve_m2, 3, 5), 100000) == Undecided(100000)
    assert time.perf_counter() - t0 < 10.0


def _non_members():
    c17, m2 = make_curve(0, 17), make_curve(0, -2)
    a, b = point(c17, -2, 3), point(c17, -1, 4)
    return {
        # (-2, 3) is A, outside <2A, B>; its box at bound 300 holds 601^2 coords
        "c17": (lambda: GammaSpec(c17, [scalar_mul(c17, 2, a), b]), a, 300),
        # (3, 5) is P, outside <2P>; the ceiling caps its box at 200001 coords
        "m2": (
            lambda: GammaSpec(m2, [point(m2, Fraction(129, 100), Fraction(-383, 1000))]),
            point(m2, 3, 5),
            100000,
        ),
    }


@pytest.mark.parametrize("name", ["c17", "m2"])
def test_decompose_non_member_costs_the_square_root_of_its_box(name):
    spec, p, bound = _non_members()[name]
    gamma = spec()
    t0 = time.perf_counter()
    assert gamma.decompose(p, bound) == Undecided(bound)
    assert time.perf_counter() - t0 < 0.1
    gamma = spec()
    tracemalloc.start()
    try:
        assert gamma.decompose(p, bound) == Undecided(bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def _decompose_groups():
    m2, c17, c36, circle = make_curve(0, -2), make_curve(0, 17), make_curve(-36, 0), Circle()
    return {
        "m2": (m2, [point(m2, 3, 5)]),
        "m2-2p": (m2, [point(m2, Fraction(129, 100), Fraction(-383, 1000))]),
        "c17": (c17, [point(c17, -2, 3), point(c17, -1, 4)]),
        "circ": (circle, [point(circle, Fraction(3, 5), Fraction(4, 5)), point(circle, 0, 1)]),
        # rank 1 with torsion Z/2 x Z/2
        "c36": (c36, [point(c36, -3, 9), point(c36, 0, 0), point(c36, 6, 0)]),
    }


_DECOMPOSE_GROUPS = _decompose_groups()
_NON_MEMBERS = {name: enumerate_rational_points(b, 60) for name, (b, _) in _DECOMPOSE_GROUPS.items()}
# one spec per group kept across draws, so its realize cache meets bounds
# that grow and shrink
_REUSED = {name: GammaSpec(b, gens) for name, (b, gens) in _DECOMPOSE_GROUPS.items()}


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(_DECOMPOSE_GROUPS)),
    st.sampled_from(["fresh", "reused", "small primes"]),
    st.integers(0, 6),
    st.data(),
)
def test_decompose_matches_shell_search(name, mode, bound, data):
    backend, gens = _DECOMPOSE_GROUPS[name]
    gamma = _REUSED[name] if mode == "reused" else GammaSpec(backend, gens)
    if data.draw(st.booleans(), label="member"):
        free = tuple(data.draw(st.integers(-8, 8)) for _ in range(gamma.rank))
        tors = tuple(data.draw(st.integers(0, d - 1)) for d in gamma.torsion_factors)
        p = gamma.realize(Coords(free, tors))
    else:
        p = data.draw(st.sampled_from(_NON_MEMBERS[name]))
    if mode == "small primes":
        # tiny fields file many coords under one point, so the second prime
        # and the exact check decide
        start = data.draw(st.integers(3, 50), label="start")
        with mock.patch.object(fg_group, "good_reduction", partial(group_core.good_reduction, start=start)):
            got = GammaSpec(backend, gens).decompose(p, bound)
    else:
        got = gamma.decompose(p, bound)
    assert got == shell_search_decompose(GammaSpec(backend, gens), p, bound)


_BATCH_GROUPS = {name: _DECOMPOSE_GROUPS[name] for name in ("c17", "m2-2p", "circ", "c36")}
# every rational torsion point of each backend, whether in the group or not
_TORSION = {
    name: _span(b, group_core.torsion_subgroup(b).generators) for name, (b, _) in _BATCH_GROUPS.items()
}


def _outcomes(results):
    """The results of a lazy decompose, up to and including the error that
    ends it, as values and error texts."""
    out = []
    try:
        for r in results:
            out.append(r)
    except QuotientCeilingError as exc:
        out.append(str(exc))
    return out


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(_BATCH_GROUPS)),
    st.sampled_from(["default", "small primes"]),
    st.integers(0, 5),
    st.data(),
)
def test_decompose_many_matches_shell_search_point_by_point(name, primes, bound, data):
    # one baby-step table serves the whole batch, so members, non-members,
    # torsion points and the identity share it in any order
    backend, gens = _BATCH_GROUPS[name]
    start = data.draw(st.integers(3, 50), label="start") if primes == "small primes" else 10007
    with mock.patch.object(fg_group, "good_reduction", partial(group_core.good_reduction, start=start)):
        gamma = GammaSpec(backend, gens)
    kinds = st.sampled_from(["member", "non-member", "torsion", "identity"])
    points = []
    for kind in data.draw(st.lists(kinds, min_size=1, max_size=6), label="kinds"):
        if kind == "member":
            free = tuple(data.draw(st.integers(-7, 7)) for _ in range(gamma.rank))
            tors = tuple(data.draw(st.integers(0, d - 1)) for d in gamma.torsion_factors)
            points.append(gamma.realize(Coords(free, tors)))
        else:
            pool = {"non-member": _NON_MEMBERS[name], "torsion": _TORSION[name], "identity": [IDENTITY]}[kind]
            points.append(data.draw(st.sampled_from(pool)))
    oracle = GammaSpec(backend, gens)
    assert list(gamma.decompose_many(points, bound)) == [shell_search_decompose(oracle, p, bound) for p in points]
    # under a ceiling the batch stops where a per-point loop first raises
    ceiling = data.draw(st.integers(1, 200), label="ceiling")
    capped = GammaSpec(backend, gens, ceiling=ceiling)
    per_point = _outcomes(GammaSpec(backend, gens, ceiling=ceiling).decompose(p, bound) for p in points)
    assert _outcomes(capped.decompose_many(points, bound)) == per_point


@settings(max_examples=80, deadline=None)
@given(_audit_spec(), st.sampled_from([10007, 5]))
def test_generator_split_by_reduction_matches_exact_order_scan(case, start):
    # e*g != O mod either prime proves g free; mod 7 and 11 most products
    # vanish at both primes, so the exact order scan decides there
    backend, gens = case
    with mock.patch.object(fg_group, "good_reduction", partial(group_core.good_reduction, start=start)):
        try:
            gamma = GammaSpec(backend, gens)
        except SpecValidationError:
            assume(False)
    free = [g for g in gens if not group_core.is_torsion(backend, g)]
    assert gamma.free_gens == tuple(free)
    tors = [g for g in gens if group_core.is_torsion(backend, g)]
    assert gamma.torsion == group_core.group_structure(backend, _span(backend, tors))


def test_generators_whose_products_vanish_take_the_exact_order_scan():
    # y^2 = x^3 - 36x has 8 points mod 7 and 12 mod 11, so 27720 kills every
    # reduced point there, and each generator falls back on the exact scan
    backend, gens = _DECOMPOSE_GROUPS["c36"]
    small = partial(group_core.good_reduction, start=5)
    with mock.patch.object(fg_group, "good_reduction", small), mock.patch.object(
        fg_group, "is_torsion", wraps=group_core.is_torsion
    ) as scan:
        gamma = GammaSpec(backend, gens)
    assert [red.ell for red in gamma._reds] == [7, 11]
    # the split's scans come first; the audit's follow
    assert [c.args[1] for c in scan.call_args_list][:3] == gens
    assert (gamma.rank, gamma.torsion_factors) == (1, (2, 2))
    # at the default primes the free generator is settled by reduction
    with mock.patch.object(fg_group, "is_torsion", wraps=group_core.is_torsion) as scan:
        GammaSpec(backend, gens)
    assert [c.args[1] for c in scan.call_args_list][:2] == gens[1:]


def _unimodular(data, r):
    """An r x r integer matrix of determinant +-1, a product of up to four
    elementary row operations with small multipliers."""
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(data.draw(st.integers(0, 4), label="ops")):
        i, j = data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, r - 1))
        k = -1 if i == j else data.draw(st.sampled_from([-2, -1, 1, 2]))
        u[i] = [x * k for x in u[i]] if i == j else [x + k * y for x, y in zip(u[i], u[j])]
    return u


def _scaled(backend, u, p):
    """p moved to the model (u^4 a, u^6 b) by (x, y) -> (u^2 x, u^3 y)."""
    return p if p == IDENTITY else point(backend, u**2 * p.x, u**3 * p.y)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["c17", "c36"]), st.integers(0, 5), st.data())
def test_decompose_is_equivariant_under_basis_and_model_change(name, bound, data):
    backend, gens = _DECOMPOSE_GROUPS[name]
    gamma = GammaSpec(backend, gens)
    r, factors = gamma.rank, gamma.torsion_factors
    tors = tuple(data.draw(st.integers(0, d - 1)) for d in factors)
    # a unimodular change of the free basis: g'_j = sum_i U[i][j]*g_i, so the
    # coords c' on g' are U*c' on g
    u = _unimodular(data, r)
    free = [gamma.realize(Coords(col, (0,) * len(factors))) for col in zip(*u)]
    moved = GammaSpec(backend, free + list(gamma.torsion.generators))
    assert (moved.rank, moved.torsion_factors) == (r, factors)
    c_new = tuple(data.draw(st.integers(-3, 3)) for _ in range(r))
    c_old = tuple(sum(x * y for x, y in zip(row, c_new)) for row in u)
    p = moved.realize(Coords(c_new, tors))
    assert p == gamma.realize(Coords(c_old, tors))
    for spec, c in ((moved, c_new), (gamma, c_old)):
        expect = Coords(c, tors) if max(map(abs, c), default=0) <= bound else Undecided(bound)
        assert spec.decompose(p, bound) == expect
    # the model change (a, b) -> (u^4 a, u^6 b) is an isomorphism of groups
    s = data.draw(st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(2), Fraction(3)]), label="u")
    scaled_curve = make_curve(s**4 * backend.a, s**6 * backend.b)
    scaled = GammaSpec(scaled_curve, [_scaled(scaled_curve, s, g) for g in gens])
    assert (scaled.rank, scaled.torsion_factors) == (r, factors)
    assert scaled.decompose(_scaled(scaled_curve, s, p), bound) == gamma.decompose(p, bound)


def test_shell_rank_one_and_generic_form():
    assert list(shell(1, 0)) == [(0,)]
    assert list(shell(1, 7)) == [(-7,), (7,)]
    for rank in range(1, 4):
        for m in range(7):
            box = itertools.product(range(-m, m + 1), repeat=rank)
            assert list(shell(rank, m)) == [v for v in box if max(map(abs, v)) == m]


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
    assert exc.value.what == "quotient"


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


_C01 = make_curve(0, 1)
_LINDEP = {
    "c01": GammaSpec(_C01, [point(_C01, 2, 3)]),  # rank 0, Z/6
    **{name: _REUSED[name] for name in ("m2", "circ", "c17")},
}


@st.composite
def _lindep_case(draw):
    """A spec and 1-4 coords from its box |free| <= 3, so that the free
    coordinate vectors span kernels of every rank the spec allows."""
    name = draw(st.sampled_from(sorted(_LINDEP)))
    gamma = _LINDEP[name]
    free = st.tuples(*[st.integers(-3, 3)] * gamma.rank)
    tors = st.tuples(*[st.integers(0, d - 1) for d in gamma.torsion_factors])
    return name, draw(st.lists(st.tuples(free, tors), min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(_lindep_case())
# kernels of rank 2 on rank 2 and rank 1, of rank 4 on rank 0
@example(("c17", [((1, 0), ()), ((2, 0), ()), ((0, 1), ()), ((0, 3), ())]))
@example(("m2", [((1,), ()), ((-2,), ()), ((3,), ())]))
@example(("circ", [((2,), (1,)), ((0,), (3,)), ((-1,), (0,))]))
@example(("c01", [((), (1,)), ((), (5,)), ((), (0,)), ((), (2,))]))
def test_linear_dependence_matches_shell_search(case):
    name, coords = case
    gamma = _LINDEP[name]
    points = [gamma.realize(Coords(f, t)) for f, t in coords]
    assert gamma.linear_dependence(points, 3) == shell_search_linear_dependence(gamma, points, 3)


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
