import itertools

import pytest

from mordell import ml_checker
from mordell.errors import InputError
from mordell.exact_num import poly_eval, sum_of_squares_combine
from mordell.fg_group import Coords, GammaSpec
from mordell.formula_eval import parse_poly
from mordell.group_core import (
    IDENTITY,
    format_point,
    is_identity,
    make_curve,
    point,
    scalar_mul,
)
from mordell.ml_checker import (
    Counterexample,
    Inconclusive,
    MISSING_FROM_UNION,
    MLDecomposition,
    NOT_A_SOLUTION,
    Verified,
    character_image,
    in_coset,
    solutions_bounded,
    suggest_decomposition,
    verify_decomposition,
)

ZERO1 = Coords((0,), ())


def _pairs(*chars):
    n = len(chars[0])
    base = (ZERO1,) * n
    return MLDecomposition(tuple((base, k) for k in chars))


def _flat(points):
    out = []
    for p in points:
        out.extend((p.x, p.y))
    return tuple(out)


# -- bounded solutions --------------------------------------------------------------


def test_zero_poly_catches_everything(gamma_p):
    p = parse_poly("0", 2)
    skipped = []
    sols = solutions_bounded(gamma_p, p, 1, bound=2, skipped=skipped)
    assert len(sols) == 5  # identity plus +-1, +-2 multiples
    assert skipped == []  # no variable used, so identity slots never matter


def test_diagonal_solutions(gamma_p, curve_m2):
    p = parse_poly("(- x1 x3)", 4)
    skipped = []
    sols = solutions_bounded(gamma_p, p, 2, bound=3, skipped=skipped)
    gen = point(curve_m2, 3, 5)
    expected = set()
    for m in (-3, -2, -1, 1, 2, 3):
        g = scalar_mul(curve_m2, m, gen)
        h = scalar_mul(curve_m2, -m, gen)
        expected.add((g, g))
        expected.add((g, h))
    assert set(sols) == expected
    assert len(sols) == 12
    # 7x7 box minus the 36 tuples avoiding the identity row and column
    assert len(skipped) == 13
    assert all(any(is_identity(q) for q in t) for t in skipped)


def test_y_coordinate_poly_has_no_solutions(gamma_p):
    p = parse_poly("x2", 2)
    skipped = []
    sols = solutions_bounded(gamma_p, p, 1, bound=3, skipped=skipped)
    assert sols == []
    assert skipped == [(IDENTITY,)]


def test_solutions_monotone_in_bound(gamma_p):
    p = parse_poly("(- x1 x3)", 4)
    prev = set()
    for b in range(1, 5):
        cur = set(solutions_bounded(gamma_p, p, 2, bound=b))
        assert prev <= cur
        prev = cur


def test_arity_must_match_slots(gamma_p):
    with pytest.raises(InputError):
        solutions_bounded(gamma_p, parse_poly("x1", 2), 2)


# -- verification -------------------------------------------------------------------


def test_verify_diagonal_decomposition(gamma_p):
    p = parse_poly("(- x1 x3)", 4)
    verdict = verify_decomposition(gamma_p, p, 2, _pairs((1, -1), (1, 1)), bound=5)
    assert verdict == Verified(bound=5)
    assert str(verdict) == "verified(bound=5)"


def test_verified_downward_closed(gamma_p):
    p = parse_poly("(- x1 x3)", 4)
    d = _pairs((1, -1), (1, 1))
    for b in range(1, 5):
        assert isinstance(verify_decomposition(gamma_p, p, 2, d, bound=b), Verified)


def test_dropped_character_yields_counterexample(gamma_p):
    p = parse_poly("(- x1 x3)", 4)
    for kept in [(1, -1), (1, 1)]:
        verdict = verify_decomposition(gamma_p, p, 2, _pairs(kept), bound=3)
        assert isinstance(verdict, Counterexample)
        assert verdict.direction == MISSING_FROM_UNION
        # the witness really solves the polynomial
        assert poly_eval(p, _flat(verdict.points)) == 0
        # and really misses the claimed coset: chi_k differs from the base
        assert not is_identity(character_image(gamma_p, kept, verdict.points))


def test_counterexample_rendering(gamma_p):
    p = parse_poly("(- x1 x3)", 4)
    verdict = verify_decomposition(gamma_p, p, 2, _pairs((1, -1)), bound=3)
    assert str(verdict) == "counterexample: missing-from-union ((3, -5), (3, 5))"


def test_overclaiming_union_yields_not_a_solution(gamma_p):
    # y1 = y2 holds only on the strict diagonal, but the claimed union also
    # sweeps in the anti-diagonal
    p = parse_poly("(- x2 x4)", 4)
    verdict = verify_decomposition(gamma_p, p, 2, _pairs((1, -1), (1, 1)), bound=3)
    assert isinstance(verdict, Counterexample)
    assert verdict.direction == NOT_A_SOLUTION
    assert poly_eval(p, _flat(verdict.points)) != 0
    in_some_coset = any(
        is_identity(character_image(gamma_p, k, verdict.points))
        for k in [(1, -1), (1, 1)]
    )
    assert in_some_coset


@pytest.mark.parametrize("which", ["gamma_p", "gamma_circle"])
def test_in_coset_agrees_with_group_law(which, request):
    # the coordinate predicate against character images computed with
    # scalar_mul; the circle's Z/4 torsion makes k = 2 a real test
    gamma = request.getfixturevalue(which)
    box = list(gamma.box(2, 2))
    bases = [box[0][0], box[7][0], box[-1][0]]
    for k in [(1, -1), (2, 1), (0, 2), (2, 2)]:
        for base in bases:
            target = character_image(gamma, k, [gamma.realize(c) for c in base])
            for coords, points in box:
                expect = character_image(gamma, k, points) == target
                assert in_coset(gamma, k, base, coords) == expect


def test_identity_slots_skip_both_directions(gamma_p):
    # all solutions of x2 = 0 in the box are identity tuples, which the slot
    # convention removes, so the empty decomposition verifies
    p = parse_poly("x2", 2)
    verdict = verify_decomposition(gamma_p, p, 1, MLDecomposition(()), bound=2)
    assert verdict == Verified(bound=2)


def test_identity_base_with_injective_character(gamma_p):
    # the claimed coset {g : a1 = 0} consists of identity tuples only; those
    # are skipped, so every genuine solution is missing from the union
    p = parse_poly("(- x1 x3)", 4)
    d = MLDecomposition((((ZERO1, ZERO1), (1, 0)),))
    verdict = verify_decomposition(gamma_p, p, 2, d, bound=2)
    assert isinstance(verdict, Counterexample)
    assert verdict.direction == MISSING_FROM_UNION
    assert poly_eval(p, _flat(verdict.points)) == 0


def test_counterexamples_revalidate_across_bounds(gamma_p):
    p = parse_poly("(- x1 x3)", 4)
    for b in (2, 3, 4):
        verdict = verify_decomposition(gamma_p, p, 2, _pairs((1, 1)), bound=b)
        assert isinstance(verdict, Counterexample)
        assert poly_eval(p, _flat(verdict.points)) == 0


# -- suggestion ---------------------------------------------------------------------


def test_suggest_recovers_diagonal(gamma_p):
    p = parse_poly("(- x1 x3)", 4)
    d = suggest_decomposition(gamma_p, p, 2, bound=5)
    assert isinstance(d, MLDecomposition)
    chars = {k for _, k in d.pairs}
    # sign-normalized difference and sum characters
    assert {tuple(abs(x) for x in k) for k in chars} == {(1, 1)}
    assert verify_decomposition(gamma_p, p, 2, d, bound=5) == Verified(bound=5)


def test_suggest_no_solutions_gives_empty_decomposition(gamma_p):
    p = parse_poly("x2", 2)
    d = suggest_decomposition(gamma_p, p, 1, bound=3)
    assert isinstance(d, MLDecomposition)
    assert d.pairs == ()


def test_suggest_singleton_by_sum_of_squares(gamma_p):
    # pins the point 2P = (129/100, -383/1000) exactly
    p = parse_poly("(+ (^ (- x1 129/100) 2) (^ (- x2 -383/1000) 2))", 2)
    d = suggest_decomposition(gamma_p, p, 1, bound=4)
    assert isinstance(d, MLDecomposition)
    assert len(d.pairs) == 1
    base, k = d.pairs[0]
    assert base == (Coords((2,), ()),)
    assert k == (1,) or k == (-1,)
    assert isinstance(verify_decomposition(gamma_p, p, 1, d, bound=4), Verified)


def test_sum_of_squares_solutions_intersect(gamma_p):
    p1 = parse_poly("(- x1 x3)", 4)
    p2 = parse_poly("(- x1 129/100)", 4)
    combined = sum_of_squares_combine([p1, p2])
    a = set(solutions_bounded(gamma_p, p1, 2, bound=3))
    b = set(solutions_bounded(gamma_p, p2, 2, bound=3))
    c = set(solutions_bounded(gamma_p, combined, 2, bound=3))
    assert c == a & b
    assert c  # (+-2P, +-2P) pairs are in range


def test_suggest_output_revalidates(gamma_circle):
    # same-x condition on the circle subgroup; whatever comes back must verify
    p = parse_poly("(- x1 x3)", 4)
    d = suggest_decomposition(gamma_circle, p, 2, bound=3)
    if isinstance(d, MLDecomposition):
        assert isinstance(
            verify_decomposition(gamma_circle, p, 2, d, bound=3), Verified
        )
    else:
        assert isinstance(d, Inconclusive)
        assert d.unexplained


@pytest.fixture(scope="module")
def gamma_c17():
    # rank 2: y^2 = x^3 + 17 with (-2, 3) and (-1, 4)
    curve = make_curve(0, 17)
    return GammaSpec(curve, [point(curve, -2, 3), point(curve, -1, 4)], claimed_rank=2)


def _c2(*free):
    return Coords(tuple(free), ())


@pytest.mark.parametrize(
    "poly,pairs",
    [
        ("(- x2 x4)", (((_c2(-1, -1), _c2(-1, -1)), (-1, 1)),)),
        (
            "(- x1 x3)",
            (
                ((_c2(-1, -1), _c2(-1, -1)), (-1, 1)),
                ((_c2(-1, -1), _c2(1, 1)), (1, 1)),
            ),
        ),
    ],
)
def test_suggest_rank_two_pinned(gamma_c17, poly, pairs):
    d = suggest_decomposition(gamma_c17, parse_poly(poly, 4), 2, bound=3)
    assert d == MLDecomposition(pairs)


def test_suggest_rank_two_inconclusive_pinned(gamma_c17):
    res = suggest_decomposition(gamma_c17, parse_poly("(- (+ x1 x3) 1)", 4), 2, bound=3)
    assert isinstance(res, Inconclusive)
    assert res.reason == "no single character cuts the cluster at this bound"
    a, b = "(-1, -4)", "(-1, 4)"
    c, e = "(2, -5)", "(2, 5)"
    assert [tuple(format_point(q) for q in t) for t in res.unexplained] == [
        (a, c), (a, e), (b, c), (b, e), (c, a), (c, b), (e, a), (e, b)
    ]


def test_suggest_classifies_each_tuple_once(gamma_c17, monkeypatch):
    seen = []
    classify = ml_checker._classify

    def recorder(p, slot_used, points):
        seen.append(points)
        return classify(p, slot_used, points)

    monkeypatch.setattr(ml_checker, "_classify", recorder)
    d = suggest_decomposition(gamma_c17, parse_poly("(- x1 x3)", 4), 2, bound=3)
    assert len(d.pairs) == 2
    assert len(seen) == len(set(seen))
    assert len(seen) >= (7 * 7) ** 2  # the whole box, plus window points


def test_inconclusive_rendering():
    v = Inconclusive(reason="no single character cuts the cluster at this bound")
    assert str(v) == "inconclusive: no single character cuts the cluster at this bound"
