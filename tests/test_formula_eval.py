from fractions import Fraction

import pytest

from mordell.errors import InputError
from mordell.formula_eval import (
    Block,
    Cmp,
    ParseError,
    QAnd,
    TriBool,
    eval_formula,
    format_formula,
    parse,
    parse_poly,
)
from mordell.group_core import format_point

from .corpus import formula_corpus


# -- parsing ------------------------------------------------------------------------


def test_parse_shapes():
    f = parse("(exists-gamma 1 (= x1 y1))")
    assert f.free_arity == 1
    assert isinstance(f.root, Block)
    assert f.root.n == 1

    f = parse("(and (= x1 0) (< x1 1))")
    assert isinstance(f.root, QAnd)
    assert all(isinstance(p, Cmp) for p in f.root.parts)

    # blocks and comparisons share the same connectives
    f = parse("(and (exists-gamma 1 (= y1 x1)) (= x1 x1))")
    assert isinstance(f.root, QAnd)
    assert isinstance(f.root.parts[0], Block)
    assert isinstance(f.root.parts[1], Cmp)


def test_parse_declared_arity():
    f = parse("(= x1 0)", free_arity=3)
    assert f.free_arity == 3
    with pytest.raises(InputError):
        parse("(= x3 0)", free_arity=2)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty input"),
        ("(= x1", "missing ')'"),
        ("(= x1 0))", "trailing input ')'"),
        ("(= x1 0) (= x1 1)", "trailing input '('"),
        ("(= y1 0)", "y-variables only live inside exists-gamma"),
        ("(exists-gamma 1 (= y3 0))", "block binds y1..y2"),
        ("(exists-gamma 1 (exists-gamma 1 (= y1 0)))", "blocks cannot nest"),
        ("(exists-gamma 0 (= y1 0))", "at least one bound element"),
        ("(exists-gamma x (= y1 0))", "count must be an integer"),
        ("(exists-gamma 1 (= y1 0) (= y2 0))", "a count and a body"),
        ("(= x0 1)", "variable indices start at 1"),
        ("(= (- x1) 0)", "exactly two arguments"),
        ("(= (^ x1 0) 0)", "exponent must be a positive integer"),
        ("(= (^ x1 x2) 0)", "exponent must be a positive integer"),
        ("(= (+) 0)", "at least one argument"),
        ("(not (= x1 0) (= x1 1))", "exactly one argument"),
        ("(= x1 1/0)", "expected a rational or variable"),
        ("(foo x1 2)", "expected a condition, got 'foo'"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(InputError) as exc:
        parse(text)
    assert fragment in str(exc.value)


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse("(= x1\n   (bogus y9))")
    assert exc.value.line == 2
    assert exc.value.col == 11
    assert str(exc.value).startswith("line 2, column 11: ")


@pytest.mark.parametrize(
    "text,message",
    [
        (")", "line 1, column 1: unexpected ')'"),
        ("(and (= x1 0)\n  (= x1", "line 2, column 3: missing ')'"),
        ("(= (* ) 0)", "line 1, column 4: (* ...) needs at least one argument"),
        ("(= (^ x1) 0)", "line 1, column 4: (^ ...) takes a base and an exponent"),
        ("(= x1)", "line 1, column 1: (= ...) takes exactly two polynomials"),
        ("(and)", "line 1, column 1: (and ...) needs at least one argument"),
        ("(\n\t(= x1 0)) \f", "line 2, column 12: trailing input '\\x0c'"),
    ],
)
def test_parse_error_message_and_position(text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_parse_poly_rejects_comparisons():
    with pytest.raises(InputError):
        parse_poly("(= x1 0)")


@pytest.mark.parametrize(
    "text,arity,fragment",
    [
        ("(- y1 x1)", None, "y-variables only live inside exists-gamma"),
        ("(exists-gamma 1 y1)", None, "expected a polynomial, got 'exists-gamma'"),
        ("(* x0 x1)", None, "variable indices start at 1"),
        ("(- x1 x3)", 2, "declared free arity 2 but x3 is used"),
    ],
)
def test_parse_poly_shares_the_formula_scan(text, arity, fragment):
    with pytest.raises(InputError, match=fragment):
        parse_poly(text, arity)


# -- printing -----------------------------------------------------------------------


def test_canonical_poly_printing():
    f = parse("(= (+ x1 (* x2 x2 3) -5) 0)", free_arity=2)
    # graded lex, descending; coefficient folded into the product form
    assert format_formula(f) == "(= (+ (* 3 (^ x2 2)) x1 -5) 0)"

    g = parse("(= (- (* 2 x1) (* 2 x1)) 0)", free_arity=1)
    assert format_formula(g) == "(= 0 0)"

    h = parse("(<= (* 1 x1) (* -1 x1))", free_arity=1)
    assert format_formula(h) == "(<= x1 (* -1 x1))"


def test_print_parse_round_trip_corpus():
    for text in formula_corpus(200):
        f = parse(text)
        printed = format_formula(f)
        again = parse(printed, free_arity=f.free_arity)
        assert again.root == f.root
        assert format_formula(again) == printed  # printing is idempotent


def test_block_body_sees_free_and_bound_variables():
    f = parse("(exists-gamma 2 (= (+ x1 y1) y3))")
    assert f.free_arity == 1
    assert format_formula(f) == "(exists-gamma 2 (= (+ x1 y1) y3))"


# -- quantifier-free evaluation ------------------------------------------------------


def test_eval_qf_exact():
    qf = parse("(and (< x1 x2) (= (* x1 x2) 2))", free_arity=2).root
    assert qf.evaluate((Fraction(1), Fraction(2))) is True
    assert qf.evaluate((Fraction(2), Fraction(1))) is False
    assert parse("(<= 129/100 129/100)", free_arity=0).root.evaluate(()) is True


# -- bounded blocks -----------------------------------------------------------------


def test_eval_true_with_witness(gamma_p):
    f = parse("(exists-gamma 1 (= x1 y1))")
    res = eval_formula(gamma_p, f, [Fraction(3)], 16)
    assert res.kind == "true"
    assert [format_point(q) for q in res.witnesses[0]] == ["(3, -5)"]


def test_witness_is_first_in_shell_order(gamma_p):
    # both P and -P match x = 3; within the shell of norm 1 the coefficient
    # -1 (the point (3, -5)) comes first
    f = parse("(exists-gamma 1 (= x1 y1))")
    res = eval_formula(gamma_p, f, [Fraction(3)], 16)
    assert format_point(res.witnesses[0][0]) == "(3, -5)"
    g = parse("(exists-gamma 1 (and (= x1 y1) (= x2 y2)))")
    res = eval_formula(gamma_p, g, [Fraction(3), Fraction(5)], 16)
    assert format_point(res.witnesses[0][0]) == "(3, 5)"


def test_witness_does_not_move_with_the_bound(gamma_p):
    # shell order tries small coefficients first, so a larger box only
    # appends candidates after the witness found in a smaller one
    f = parse("(exists-gamma 1 (< 0 y2))")
    for b in (2, 4):
        res = eval_formula(gamma_p, f, [], b)
        assert [format_point(q) for q in res.witnesses[0]] == ["(3, 5)"]


def test_eval_unknown(gamma_p):
    f = parse("(exists-gamma 1 (= x1 y1))")
    for b in (2, 8, 16):
        res = eval_formula(gamma_p, f, [Fraction(2)], b)
        assert res.kind == "unknown"
        assert res.bound == b
        assert str(res) == f"unknown(bound={b})"


def test_eval_false_without_blocks(gamma_p):
    f = parse("(< x1 0)")
    assert eval_formula(gamma_p, f, [Fraction(3)], 4).kind == "false"


def test_negation_of_confirmed_block_is_false(gamma_p):
    f = parse("(not (exists-gamma 1 (= x1 y1)))")
    assert eval_formula(gamma_p, f, [Fraction(3)], 16).kind == "false"


def test_identity_slots_are_skipped(gamma_p):
    # y1 = 0 would hold for the identity under a dummy value; the convention
    # keeps the identity out, so nothing in the subgroup has x-coordinate 0
    f = parse("(exists-gamma 1 (= y1 0))")
    assert eval_formula(gamma_p, f, [], 4).kind == "unknown"


def test_identity_allowed_when_slot_unused(gamma_p):
    # a two-point block where only the first point is inspected still
    # quantifies the second slot over the identity
    f = parse("(exists-gamma 2 (= y1 3))")
    res = eval_formula(gamma_p, f, [], 2)
    assert res.kind == "true"


def test_kleene_connectives(gamma_p):
    unknown = "(exists-gamma 1 (= x1 y1))"  # x=2: undecidable at small bounds
    assert eval_formula(gamma_p, parse(f"(and {unknown} (< x1 0))"), [Fraction(2)], 2).kind == "false"
    assert eval_formula(gamma_p, parse(f"(and {unknown} (< 0 x1))"), [Fraction(2)], 2).kind == "unknown"
    assert eval_formula(gamma_p, parse(f"(or {unknown} (< 0 x1))"), [Fraction(2)], 2).kind == "true"
    assert eval_formula(gamma_p, parse(f"(or {unknown} (< x1 0))"), [Fraction(2)], 2).kind == "unknown"
    assert eval_formula(gamma_p, parse(f"(not {unknown})"), [Fraction(2)], 2).kind == "unknown"
    assert (
        eval_formula(gamma_p, parse(f"(not (not {unknown}))"), [Fraction(2)], 2).kind
        == "unknown"
    )


def test_and_collects_witnesses_per_block(gamma_p):
    f = parse(
        "(and (exists-gamma 1 (= y1 3)) (exists-gamma 1 (= y1 129/100)))"
    )
    res = eval_formula(gamma_p, f, [], 4)
    assert res.kind == "true"
    assert len(res.witnesses) == 2
    xs = {q.x for block in res.witnesses for q in block}
    assert xs == {Fraction(3), Fraction(129, 100)}


def test_or_short_circuits_with_first_true_witness(gamma_p):
    f = parse("(or (exists-gamma 1 (= y1 3)) (exists-gamma 1 (= y1 129/100)))")
    res = eval_formula(gamma_p, f, [], 4)
    assert res.kind == "true"
    assert len(res.witnesses) == 1
    assert res.witnesses[0][0].x == 3


def test_kleene_suite_on_corpus(gamma_p):
    # double negation, De Morgan, and refinement: definite results survive a
    # larger bound
    texts = formula_corpus(60, seed=7)
    values = [Fraction(0), Fraction(3), Fraction(129, 100)]
    for text in texts:
        f = parse(text)
        xs = values[: f.free_arity]
        r2 = eval_formula(gamma_p, f, xs, 2)
        nn = eval_formula(gamma_p, parse(f"(not (not {text}))", f.free_arity), xs, 2)
        assert nn.kind == r2.kind
        r4 = eval_formula(gamma_p, f, xs, 4)
        if r2.kind != "unknown":
            assert r4.kind == r2.kind
    for a, b in zip(formula_corpus(20, seed=8), formula_corpus(20, seed=9)):
        fa, fb = parse(a), parse(b)
        s = max(fa.free_arity, fb.free_arity)
        xs = values[:s]
        lhs = eval_formula(gamma_p, parse(f"(not (and {a} {b}))", s), xs, 2)
        rhs = eval_formula(gamma_p, parse(f"(or (not {a}) (not {b}))", s), xs, 2)
        assert lhs.kind == rhs.kind


def test_eval_formula_arity_validation(gamma_p):
    f = parse("(= x1 0)")
    with pytest.raises(InputError):
        eval_formula(gamma_p, f, [], 4)
    with pytest.raises(InputError):
        eval_formula(gamma_p, f, [Fraction(1), Fraction(2)], 4)


def test_tribool_is_plain_data():
    t = TriBool("true", witnesses=())
    assert t.is_true() and not t.is_false()
    assert str(t) == "true"
    u = TriBool("unknown", bound=16)
    assert str(u) == "unknown(bound=16)"
