import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from mordell import group_core
from mordell.errors import InputError
from mordell.fg_group import Coords, GammaSpec
from mordell.group_core import (
    IDENTITY,
    Circle,
    _add_raw,
    add,
    component_of,
    enumerate_rational_points,
    format_point,
    good_reduction,
    is_identity,
    is_torsion,
    make_curve,
    naive_height,
    negate,
    on_variety,
    parse_point,
    point,
    point_order,
    real_components,
    scalar_mul,
    torsion_subgroup,
)

from .oracles import (
    brute_point_order,
    brute_torsion_points,
    double_and_add_mul,
    unbounded_branch_separator,
)


def test_singular_curve_rejected():
    with pytest.raises(InputError):
        make_curve(0, 0)
    with pytest.raises(InputError):
        make_curve(-3, 2)  # 4*(-27) + 27*4 = 0


def test_double_of_generator(curve_m2):
    p = point(curve_m2, 3, 5)
    d = add(curve_m2, p, p)
    assert d.x == Fraction(129, 100)
    assert d.y == Fraction(-383, 1000)


def test_circle_rotation_law(circle):
    g = point(circle, Fraction(3, 5), Fraction(4, 5))
    d = add(circle, g, g)
    # double angle: (2c^2 - 1, 2cs)
    assert (d.x, d.y) == (Fraction(-7, 25), Fraction(24, 25))
    assert is_identity(point(circle, 1, 0))


def test_off_variety_rejected(curve_m2, circle):
    with pytest.raises(InputError):
        point(curve_m2, 3, 4)
    with pytest.raises(InputError):
        point(circle, Fraction(1, 2), Fraction(1, 2))


def _collinear(p, q, r) -> bool:
    return (q.x - p.x) * (r.y - p.y) == (q.y - p.y) * (r.x - p.x)


def test_chord_and_tangent_geometry(curve_m2, curve_01):
    # the sum is defined by the third intersection point: P, Q, -(P+Q) lie
    # on one line (tangent line when P == Q)
    for backend in (curve_m2, curve_01):
        pts = [p for p in enumerate_rational_points(backend, 20) if not is_identity(p)]
        for p, q in itertools.product(pts, pts):
            s = add(backend, p, q)
            if is_identity(s):
                continue
            r = negate(backend, s)
            if p == q:
                if p.y == 0:
                    continue
                slope = (3 * p.x**2 + backend.a) / (2 * p.y)
                assert r.y - p.y == slope * (r.x - p.x)
            elif p.x != q.x:
                assert _collinear(p, q, r)


def test_group_laws_sample(curve_m2, curve_01, circle):
    for backend in (curve_m2, curve_01, circle):
        pts = enumerate_rational_points(backend, 10)
        for p in pts:
            assert add(backend, p, IDENTITY) == p
            assert is_identity(add(backend, p, negate(backend, p)))
            for q in pts:
                assert add(backend, p, q) == add(backend, q, p)
        for p, q, r in itertools.product(pts[:5], pts[:5], pts[:5]):
            lhs = add(backend, add(backend, p, q), r)
            assert lhs == add(backend, p, add(backend, q, r))


def test_scalar_mul(curve_01, curve_m2):
    t = point(curve_01, 2, 3)
    assert is_identity(scalar_mul(curve_01, 6, t))
    assert scalar_mul(curve_01, -1, t) == negate(curve_01, t)
    assert is_identity(scalar_mul(curve_01, 0, t))
    p = point(curve_m2, 3, 5)
    assert scalar_mul(curve_m2, 4, p) == add(
        curve_m2, scalar_mul(curve_m2, 2, p), scalar_mul(curve_m2, 2, p)
    )
    assert scalar_mul(curve_m2, -3, p) == negate(curve_m2, scalar_mul(curve_m2, 3, p))


def _assert_same_multiple(backend, k, p, q=None):
    """scalar_mul (or q, when given) equals the double-and-add oracle in
    numerator and denominator, and is in lowest terms."""
    got = scalar_mul(backend, k, p) if q is None else q
    want = double_and_add_mul(backend, k, p)
    if is_identity(want):
        assert is_identity(got)
        return
    for g, w in ((got.x, want.x), (got.y, want.y)):
        assert (g.numerator, g.denominator) == (w.numerator, w.denominator)
        assert math.gcd(g.numerator, g.denominator) == 1
        assert g.denominator > 0


@st.composite
def _integral_case(draw):
    """(a, b, x, y) with an integral point (x, y), |a| <= 40 and |b| <= 150;
    y = 0 gives a point of order 2."""
    a = draw(st.integers(-40, 40))
    x = draw(st.integers(-6, 6))
    y = draw(st.integers(0, 14))
    b = y * y - x**3 - a * x
    assume(abs(b) <= 150 and 4 * a**3 + 27 * b * b != 0)
    return Fraction(a), Fraction(b), Fraction(x), Fraction(y)


# (a, b, x, y) of points of order 3, 4, 6 and 7
_TORSION_CASES = st.sampled_from(
    [(0, 1, 0, 1), (0, 4, 0, 2), (4, 0, 2, 4), (0, 1, 2, 3), (-43, 166, 3, 8)]
).map(lambda c: tuple(Fraction(v) for v in c))


@st.composite
def _curve_point(draw):
    """A curve with a point on it: integral or torsion, optionally replaced
    by a small multiple (non-integral points), then optionally moved to a
    curve with rational a and b by (x, y) -> (t^2 x, t^3 y)."""
    a, b, x, y = draw(st.one_of(_integral_case(), _TORSION_CASES))
    curve = make_curve(a, b)
    p = point(curve, x, y)
    j = draw(st.integers(1, 3))
    p = double_and_add_mul(curve, j, p)
    assume(not is_identity(p))
    t = Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    curve = make_curve(a * t**4, b * t**6)
    return curve, point(curve, p.x * t**2, p.y * t**3)


@settings(max_examples=150, deadline=None)
@given(_curve_point(), st.integers(-80, 80))
def test_scalar_mul_matches_double_and_add(case, k):
    curve, p = case
    _assert_same_multiple(curve, k, p)


def test_scalar_mul_matches_double_and_add_pinned(curve_m2, gamma_2p):
    p = point(curve_m2, 3, 5)
    for k in (200, 300):
        _assert_same_multiple(curve_m2, k, p)
    c17 = make_curve(0, 17)
    _assert_same_multiple(c17, 150, point(c17, -1, 4))
    g = gamma_2p.free_gens[0]
    for k in range(-60, 61):
        _assert_same_multiple(curve_m2, k, g)
        _assert_same_multiple(curve_m2, k, g, gamma_2p.realize(Coords((k,))))
    rational = make_curve(Fraction(1, 16), Fraction(3, 64))
    for q in (point(rational, Fraction(3, 2), Fraction(15, 8)),
              point(rational, Fraction(-1, 4), Fraction(1, 8))):
        for k in range(-40, 41):
            _assert_same_multiple(rational, k, q)


def test_naive_height(curve_m2):
    p = point(curve_m2, 3, 5)
    assert naive_height(p) == 3
    assert naive_height(scalar_mul(curve_m2, 2, p)) == 129
    assert naive_height(scalar_mul(curve_m2, 3, p)) == 164323
    assert naive_height(IDENTITY) == 0


def test_enumeration(curve_m2):
    assert enumerate_rational_points(curve_m2, 2) == [IDENTITY]
    pts = enumerate_rational_points(curve_m2, 5)
    assert [format_point(p) for p in pts] == ["O", "(3, -5)", "(3, 5)"]
    two_torsion_curve = make_curve(-1, 0)
    pts = enumerate_rational_points(two_torsion_curve, 10)
    assert [format_point(p) for p in pts] == ["O", "(-1, 0)", "(0, 0)", "(1, 0)"]
    heights = [naive_height(p) for p in pts]
    assert heights == sorted(heights)


def test_enumeration_circle(circle):
    pts = enumerate_rational_points(circle, 5)
    assert [format_point(p) for p in pts] == [
        "O",
        "(-1, 0)",
        "(0, -1)",
        "(0, 1)",
        "(-4/5, -3/5)",
        "(-4/5, 3/5)",
        "(-3/5, -4/5)",
        "(-3/5, 4/5)",
        "(3/5, -4/5)",
        "(3/5, 4/5)",
        "(4/5, -3/5)",
        "(4/5, 3/5)",
    ]
    for p in pts:
        assert on_variety(circle, p)


def test_real_components(curve_01, curve_m2, circle):
    assert real_components(curve_01) == 1
    assert real_components(curve_m2) == 1
    assert real_components(make_curve(-1, 0)) == 2
    assert real_components(circle) == 1


def test_component_of():
    c = make_curve(-1, 0)
    # the oval holds the roots -1 and 0; the unbounded branch starts at 1
    assert component_of(c, point(c, 1, 0)) is True
    assert component_of(c, point(c, 0, 0)) is False
    assert component_of(c, point(c, -1, 0)) is False
    assert component_of(c, IDENTITY) is True
    one_piece = make_curve(0, -2)
    assert component_of(one_piece, point(one_piece, 3, 5)) is True


@st.composite
def _two_component_point(draw):
    """A curve with two real components and a point on it: integral a, b
    and point, then optionally moved to rational a and b by
    (x, y) -> (t^2 x, t^3 y), which keeps the order of the x-coordinates."""
    a = draw(st.integers(-40, -1))
    x = draw(st.integers(-6, 6))
    y = draw(st.integers(0, 14))
    b = y * y - x**3 - a * x
    assume(4 * a**3 + 27 * b * b < 0)
    t = Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    curve = make_curve(a * t**4, b * t**6)
    return curve, point(curve, x * t**2, y * t**3)


@settings(max_examples=60, deadline=None)
@given(_two_component_point())
def test_component_of_matches_the_separator_oracle(case):
    curve, p = case
    sep = unbounded_branch_separator(curve)
    # doubling moves an oval point onto the identity branch, tripling keeps it
    for q in [p, scalar_mul(curve, 2, p), scalar_mul(curve, 3, p)] + enumerate_rational_points(curve, 12):
        assert component_of(curve, q) is (is_identity(q) or q.x > sep)


def test_point_order(curve_01, curve_m2):
    assert point_order(curve_01, point(curve_01, 2, 3)) == 6
    assert point_order(curve_01, point(curve_01, 0, 1)) == 3
    assert point_order(curve_01, point(curve_01, -1, 0)) == 2
    assert point_order(curve_01, IDENTITY) == 1
    assert point_order(curve_m2, point(curve_m2, 3, 5)) is None


def test_point_order_matches_brute(curve_01):
    for p in enumerate_rational_points(curve_01, 20):
        fast = point_order(curve_01, p)
        brute = brute_point_order(curve_01, p, cap=12)
        assert fast == brute


# (a, b, x, y): a generator of each table curve's torsion group (orders 6,
# 3, 4 and 7; y^2 = x^3 - 2 has none) and the 2-torsion of y^2 = x^3 - x
_TABLE_TORSION = [
    (0, 1, 2, 3), (0, 4, 0, 2), (4, 0, 2, 4), (-43, 166, 3, 8),
    (-1, 0, 0, 0), (-1, 0, 1, 0), (-1, 0, -1, 0),
]


@st.composite
def _order_case(draw):
    """A backend and a point whose order is in question: a multiple of a
    table curve's torsion point, or of an integral point (non-integral from
    2P on, as a rule), moved to rational a and b by (t^2 x, t^3 y); or a
    multiple of a circle point, the four torsion points included."""
    j = draw(st.integers(0, 8))
    if draw(st.booleans()):
        circle = Circle()
        m, n = draw(st.integers(-7, 7)), draw(st.integers(1, 7))
        p = draw(st.sampled_from([
            point(circle, 0, 1),
            point(circle, -1, 0),
            point(circle, Fraction(n * n - m * m, n * n + m * m), Fraction(2 * m * n, n * n + m * m)),
        ]))
        return circle, double_and_add_mul(circle, j, p)
    a, b, x, y = draw(st.one_of(
        st.sampled_from(_TABLE_TORSION).map(lambda c: tuple(Fraction(v) for v in c)),
        _integral_case(),
    ))
    t = Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    curve = make_curve(a * t**4, b * t**6)
    return curve, double_and_add_mul(curve, j, point(curve, x * t**2, y * t**3))


def test_point_order_of_table_torsion():
    # every multiple j*P of each table generator, on the curve itself and
    # moved to a = a*t^4, b = b*t^6 with t = 2/3, has order n/gcd(j, n)
    orders = [6, 3, 4, 7, 2, 2, 2]
    for (a, b, x, y), n in zip(_TABLE_TORSION, orders):
        for t in (Fraction(1), Fraction(2, 3)):
            curve = make_curve(a * t**4, b * t**6)
            p = point(curve, x * t**2, y * t**3)
            for j in range(1, n + 1):
                assert point_order(curve, scalar_mul(curve, j, p)) == n // math.gcd(j, n)


def test_is_torsion_stops_at_the_first_non_integral_multiple(curve_m2, monkeypatch):
    # 2*(3, 5) = (129/100, -383/1000) settles (3, 5) after one addition
    calls = []

    def counted(backend, p, q):
        calls.append((p, q))
        return _add_raw(backend, p, q)

    monkeypatch.setattr(group_core, "_add_raw", counted)
    assert not is_torsion(curve_m2, point(curve_m2, 3, 5))
    assert len(calls) == 1


@settings(max_examples=200, deadline=None)
@given(_order_case())
def test_is_torsion_matches_brute_order(case):
    backend, p = case
    assert is_torsion(backend, p) == (brute_point_order(backend, p, cap=12) is not None)


def test_is_torsion_pinned(curve_01, curve_m2, circle):
    assert is_torsion(curve_01, IDENTITY)
    assert is_torsion(curve_01, point(curve_01, 2, 3))
    assert not is_torsion(curve_m2, point(curve_m2, 3, 5))
    assert not is_torsion(curve_m2, point(curve_m2, Fraction(129, 100), Fraction(-383, 1000)))
    assert is_torsion(circle, point(circle, 0, -1))
    assert not is_torsion(circle, point(circle, Fraction(3, 5), Fraction(4, 5)))
    big = make_curve(-10012, 346900)
    assert not is_torsion(big, point(big, 4, 554))
    # (2, 4) of order 4 on y^2 = x^3 + 4x moved to a = 4/81, b = 0: it is
    # integral only on the integral model
    c = make_curve(Fraction(4, 81), 0)
    assert is_torsion(c, point(c, Fraction(2, 9), Fraction(4, 27)))


@settings(max_examples=100, deadline=None)
@given(
    _order_case(),
    st.integers(-12, 12),
    st.integers(-12, 12),
    st.one_of(st.integers(2, 60), st.just(10007)),
)
def test_reduction_is_a_homomorphism(case, i, j, start):
    # small primes divide denominators of some multiples: those points lie in
    # the kernel and must reduce to the identity
    backend, p = case
    p1, p2 = double_and_add_mul(backend, i, p), double_and_add_mul(backend, j, p)
    s = _add_raw(backend, p1, p2)
    red = next(good_reduction(backend, start=start))
    assert red.ell >= start and red.ell % 4 == 3
    assert red.point(s) == red.add(red.point(p1), red.point(p2))
    assert red.mul(i, red.point(p)) == red.point(p1)


def test_reduction_at_the_kernel(curve_m2):
    p = point(curve_m2, 3, 5)
    red = next(good_reduction(curve_m2, start=19))
    assert red.ell == 19
    three_p = scalar_mul(curve_m2, 3, p)
    assert three_p.x == Fraction(164323, 29241) and three_p.x.denominator == 171**2
    assert red.point(three_p) is None
    for k in range(-40, 41):
        assert red.point(scalar_mul(curve_m2, k, p)) == red.mul(k, red.point(p))


def test_good_reduction_primes(curve_m2, circle):
    # an even start moves on to the next prime = 3 (mod 4)
    assert next(good_reduction(curve_m2, start=20)).ell == 23
    assert [r.ell for r in itertools.islice(good_reduction(curve_m2), 2)] == [10007, 10039]
    # 3 divides 6(4a^3 + 27b^2); 19 divides the denominator of 3*(3, 5)
    assert next(good_reduction(curve_m2, start=3)).ell == 7
    three_p = scalar_mul(curve_m2, 3, point(curve_m2, 3, 5))
    assert next(good_reduction(curve_m2, [three_p], start=19)).ell == 23
    # circle denominators are sums of two squares: primes = 3 (mod 4) never
    # divide them, so no multiple of a circ generator reduces badly
    reds = list(itertools.islice(good_reduction(circle, start=2), 8))
    assert [r.ell for r in reds] == [3, 7, 11, 19, 23, 31, 43, 47]
    for g in (point(circle, Fraction(3, 5), Fraction(4, 5)), point(circle, 0, 1)):
        for k in range(1, 60):
            q = scalar_mul(circle, k, g)
            assert is_identity(q) or all(q.x.denominator % r.ell for r in reds)


def test_integral_model_trial_division_is_bounded():
    # 10^18 + 3 has no prime factor below the trial-division bound, so it
    # enters u whole instead of being factored up to its square root
    q = 10**18 + 3
    curve = make_curve(Fraction(1, q), Fraction(-1, q))
    g = point(curve, 1, 1)
    t0 = time.perf_counter()
    gamma = GammaSpec(curve, [g])
    kp = scalar_mul(curve, 5, g)
    assert time.perf_counter() - t0 < 2.0
    assert gamma.rank == 1
    assert kp == double_and_add_mul(curve, 5, g)


def test_torsion_subgroup_structures(curve_01, curve_m2, circle):
    t = torsion_subgroup(curve_01)
    assert t.invariant_factors == (6,)
    assert t.order() == 6
    gen = t.generators[0]
    assert gen.x == 2 and gen.y in (3, -3)

    assert torsion_subgroup(curve_m2).invariant_factors == ()

    tc = torsion_subgroup(circle)
    assert tc.invariant_factors == (4,)
    assert {format_point(g) for g in tc.generators} <= {"(0, 1)", "(0, -1)"}

    t22 = torsion_subgroup(make_curve(-1, 0))
    assert t22.invariant_factors == (2, 2)


def test_torsion_matches_exhaustion(curve_01, curve_m2):
    for backend in (curve_01, curve_m2, make_curve(-1, 0)):
        brute = set(brute_torsion_points(backend, height_bound=60, cap=12))
        t = torsion_subgroup(backend)
        spanned = set()
        frontier = [IDENTITY]
        while frontier:
            q = frontier.pop()
            if q in spanned:
                continue
            spanned.add(q)
            for g in t.generators:
                frontier.append(add(backend, q, g))
        assert spanned == brute


def test_parse_format_round_trip(curve_m2):
    for text in ["O", "(3, 5)", "(129/100, -383/1000)"]:
        assert format_point(parse_point(curve_m2, text)) == text
    with pytest.raises(InputError):
        parse_point(curve_m2, "(3, 4)")
    with pytest.raises(InputError):
        parse_point(curve_m2, "3, 5")
