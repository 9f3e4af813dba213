"""End-to-end acceptance checks, one test per contract line.

Each check is oracle-based or property-based at desk scale and asserts its
own wall-clock budget, so a red line here names both the broken behaviour
and the blown budget.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from mordell import cli
from mordell.coset_engine import complement, difference, dke, intersect, rescale, union
from mordell.fg_group import Coords, GammaSpec
from mordell.formula_eval import eval_formula, format_formula, parse, parse_poly
from mordell.group_core import (
    Circle,
    add,
    enumerate_rational_points,
    is_identity,
    make_curve,
    negate,
    point,
    scalar_mul,
    torsion_subgroup,
)
from mordell.intlinalg import smith_normal_form
from mordell.ml_checker import (
    MISSING_FROM_UNION,
    Counterexample,
    MLDecomposition,
    Verified,
    solutions_bounded,
    suggest_decomposition,
    verify_decomposition,
)

from .corpus import formula_corpus
from .oracles import determinant, mat_mul, naive_invariant_factors, nagell_lutz_torsion
from .test_cli import GOLDEN, GOLDEN_CASES, SPECS


def _gamma_p():
    curve = make_curve(0, -2)
    return GammaSpec(curve, [point(curve, 3, 5)], claimed_rank=1)


def test_c1_exact_group_law():
    start = time.monotonic()
    m2 = make_curve(0, -2)
    p = point(m2, 3, 5)
    double = add(m2, p, p)
    assert (double.x, double.y) == (Fraction(129, 100), Fraction(-383, 1000))

    for backend in (make_curve(0, 1), m2, Circle()):
        pts = enumerate_rational_points(backend, 20)
        for q in pts:
            assert is_identity(add(backend, q, negate(backend, q)))
        for q, r in itertools.combinations(pts, 2):
            assert add(backend, q, r) == add(backend, r, q)
        for q, r, s in itertools.product(pts, repeat=3):
            left = add(backend, add(backend, q, r), s)
            right = add(backend, q, add(backend, r, s))
            assert left == right
    assert time.monotonic() - start < 30


def test_c2_torsion_subgroups():
    start = time.monotonic()
    c01 = make_curve(0, 1)
    t01 = torsion_subgroup(c01)
    assert t01.invariant_factors == (6,)
    (gen,) = t01.generators
    assert (gen.x, abs(gen.y)) == (2, 3)

    # the independent candidate exhaustion must agree with the span of the
    # reported generator
    oracle = {(q.x, q.y) for q in nagell_lutz_torsion(c01)}
    span = set()
    acc = gen
    while not is_identity(acc):
        span.add((acc.x, acc.y))
        acc = add(c01, acc, gen)
    assert oracle == span
    assert len(oracle) == 5

    m2 = make_curve(0, -2)
    assert torsion_subgroup(m2).invariant_factors == ()
    assert nagell_lutz_torsion(m2) == []

    circ = Circle()
    tc = torsion_subgroup(circ)
    assert tc.invariant_factors == (4,)
    (cgen,) = tc.generators
    finite_order = set()
    acc = cgen
    while not is_identity(acc):
        finite_order.add((acc.x, acc.y))
        acc = add(circ, acc, cgen)
    assert finite_order == {(-1, 0), (0, 1), (0, -1)}
    assert time.monotonic() - start < 10


def _flatten_union(u):
    return frozenset(tuple(slot[0] for slot in res) for res in u.residues)


def _oracle_dke(k, e, modulus, n):
    # membership in D_{k,e} for a residue tuple mod `modulus` (e divides it):
    # the character value must land in e*Gamma, and Gamma is infinite cyclic
    return {
        t
        for t in itertools.product(range(modulus), repeat=n)
        if sum(ki * ti for ki, ti in zip(k, t)) % e == 0
    }


def test_c3_coset_algebra_matches_exhaustive_enumeration():
    start = time.monotonic()
    gamma = _gamma_p()
    for n in (1, 2):
        units = []
        seen = {}
        for k in itertools.product(range(-3, 4), repeat=n):
            for e in range(1, 7):
                u = dke(gamma, k, e)
                assert u.modulus == e
                assert _flatten_union(u) == _oracle_dke(k, e, e, n)
                # boolean combinations only depend on the subset, so compare
                # each distinct subset once (canonical form: residues mod 60)
                key = _flatten_union(rescale(u, 60))
                if key not in seen:
                    seen[key] = None
                    units.append((k, e, u))

        for i, (k1, e1, u1) in enumerate(units):
            full = _oracle_dke((0,) * n, 1, e1, n)
            assert _flatten_union(complement(u1)) == full - _oracle_dke(k1, e1, e1, n)
            for k2, e2, u2 in units[i:]:
                l = math.lcm(e1, e2)
                s1 = _oracle_dke(k1, e1, l, n)
                s2 = _oracle_dke(k2, e2, l, n)
                got = union(u1, u2)
                assert got.modulus == l
                assert _flatten_union(got) == s1 | s2
                assert _flatten_union(intersect(u1, u2)) == s1 & s2
                assert _flatten_union(difference(u1, u2)) == s1 - s2
                assert _flatten_union(difference(u2, u1)) == s2 - s1
    assert time.monotonic() - start < 60


def test_c4_decomposition_verification():
    start = time.monotonic()
    gamma = _gamma_p()
    poly = parse_poly("(- x1 x3)", arity=4)
    zero = Coords((0,), ())
    diag = ((zero, zero), (1, -1))
    anti = ((zero, zero), (1, 1))

    verdict = verify_decomposition(gamma, poly, 2, MLDecomposition((diag, anti)), 5)
    assert isinstance(verdict, Verified)
    assert verdict.bound == 5

    # the box solutions are exactly the pairs (g, +/-g): x(g) = x(h) iff h = +/-g
    p = point(gamma.backend, 3, 5)
    expected = set()
    for m in range(-5, 6):
        if m == 0:
            continue
        g = scalar_mul(gamma.backend, m, p)
        expected.add((g, g))
        expected.add((g, negate(gamma.backend, g)))
    assert set(solutions_bounded(gamma, poly, 2, 5)) == expected

    for kept, explained_by_neg in ((diag, True), (anti, False)):
        verdict = verify_decomposition(gamma, poly, 2, MLDecomposition((kept,)), 5)
        assert isinstance(verdict, Counterexample)
        assert verdict.direction == MISSING_FROM_UNION
        g, h = verdict.points
        assert g.x == h.x  # really a solution
        if explained_by_neg:
            assert h == negate(gamma.backend, g) and h != g
        else:
            assert h == g

    suggested = suggest_decomposition(gamma, poly, 2, 5)
    assert isinstance(suggested, MLDecomposition)
    assert isinstance(verify_decomposition(gamma, poly, 2, suggested, 5), Verified)
    chars = set()
    for _, k in suggested.pairs:
        if k[0] < 0 or (k[0] == 0 and k[1] < 0):
            k = tuple(-c for c in k)
        chars.add(k)
    assert chars == {(1, 1), (1, -1)}
    assert time.monotonic() - start < 60


def test_c5_evaluator_semantics():
    start = time.monotonic()
    gamma = _gamma_p()
    f = parse("(exists-gamma 1 (= x1 y1))")

    res = eval_formula(gamma, f, [Fraction(3)], 16)
    assert res.kind == "true"
    (witness,) = res.witnesses[0]
    assert witness.x == 3
    point(gamma.backend, witness.x, witness.y)  # on the variety
    assert isinstance(gamma.decompose(witness, 16), Coords)  # in the subgroup

    for bound in range(1, 65):
        assert eval_formula(gamma, f, [Fraction(2)], bound).kind == "unknown"

    values = [Fraction(0), Fraction(3), Fraction(129, 100)]
    texts = formula_corpus(500)
    for text in texts:
        g = parse(text)
        xs = values[: g.free_arity]
        r1 = eval_formula(gamma, g, xs, 1)
        double_neg = parse(f"(not (not {text}))", g.free_arity)
        assert eval_formula(gamma, double_neg, xs, 1).kind == r1.kind
        if r1.kind != "unknown":
            assert eval_formula(gamma, g, xs, 2).kind == r1.kind
    for a, b in zip(texts[0::2], texts[1::2]):
        fa, fb = parse(a), parse(b)
        s = max(fa.free_arity, fb.free_arity)
        xs = values[:s]
        lhs = eval_formula(gamma, parse(f"(not (and {a} {b}))", s), xs, 1)
        rhs = eval_formula(gamma, parse(f"(or (not {a}) (not {b}))", s), xs, 1)
        assert lhs.kind == rhs.kind
    assert time.monotonic() - start < 60


def test_c6_round_trips(tmp_path, capsys):
    start = time.monotonic()
    curve = make_curve(0, -2)
    gamma = GammaSpec(curve, [point(curve, 3, 5)], claimed_rank=1)
    circle = Circle()
    gamma_circle = GammaSpec(
        circle, [point(circle, Fraction(3, 5), Fraction(4, 5)), point(circle, 0, 1)]
    )
    for m in range(-10, 11):
        coords = Coords((m,), ())
        assert gamma.decompose(gamma.realize(coords), bound=10) == coords
    for m in range(-10, 11):
        for t in range(4):
            coords = Coords((m,), (t,))
            assert gamma_circle.decompose(gamma_circle.realize(coords), bound=10) == coords

    for text in formula_corpus(200):
        f = parse(text)
        printed = format_formula(f)
        again = parse(printed, free_arity=f.free_arity)
        assert again.root == f.root
        assert format_formula(again) == printed

    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    for name, payload in SPECS.items():
        (spec_dir / name).write_text(json.dumps(payload), encoding="utf-8")
    cache_dir = tmp_path / "cache"
    for name, spec, args in GOLDEN_CASES:
        golden = (GOLDEN / f"{name}.machine.jsonl").read_text()
        base = args + ["--spec", str(spec_dir / spec), "--machine"]
        for extra in (
            ["--no-cache"],
            ["--cache-dir", str(cache_dir)],  # cold
            ["--cache-dir", str(cache_dir)],  # warm
        ):
            rc = cli.main(base + extra)
            out = capsys.readouterr().out
            assert rc == 0
            assert out == golden
    assert time.monotonic() - start < 30


def test_c7_smith_normal_form_oracle():
    start = time.monotonic()
    rng = random.Random(20240517)
    for _ in range(100):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(mat)
        assert mat_mul(mat_mul(u, mat), v) == d
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i, row in enumerate(d):
            for j, entry in enumerate(row):
                if i != j:
                    assert entry == 0
        for x, y in zip(diag, diag[1:]):
            if y:
                assert x != 0 and y % x == 0
        assert [x for x in diag if x] == naive_invariant_factors(mat)
    assert time.monotonic() - start < 10
