"""S-expression formulas over the group's affine chart and their bounded
three-valued evaluation.

The shape is a boolean combination of comparisons and existential blocks
"(exists-gamma n qf)": the block asks for n group elements whose coordinate
pairs, bound to y1..y(2n), satisfy the block-free body together with the
free variables x1..xs.  One tree holds both: Cmp is the atom, QAnd, QOr
and QNot are the connectives wherever they stand, and Block appears only
at the free arity s, since blocks do not nest.

Gamma is infinite, so a block search over a coefficient box can confirm an
existential but never refute one.  Evaluation is therefore Kleene's strong
three-valued logic: True carries re-checkable witnesses, False only arises
from comparisons and negation, and exhausted searches yield Unknown tagged
with the bound they died at.  Inside a block body the connectives' exact
two-valued `evaluate` runs once per candidate tuple.

Identity convention (shared with ml_checker through group_core.slots_used
and group_core.affine_values): a candidate tuple is skipped, not judged,
when it puts the identity in a slot whose y-variables the body mentions.
"""

from __future__ import annotations

import functools
import operator
import re
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import ArityCeilingError, InputError
from .exact_num import (
    MultiPoly,
    _as_fraction,
    format_rational,
    parse_integer,
    parse_rational,
    poly_eval,
)
from .fg_group import DEFAULT_COEFF_BOUND, GammaSpec
from .group_core import GroupPoint, affine_values, is_identity, slots_used
from .records import record

__all__ = [
    "ParseError",
    "Cmp",
    "QAnd",
    "QOr",
    "QNot",
    "Block",
    "Formula",
    "TriBool",
    "parse",
    "format_formula",
    "eval_block",
    "eval_formula",
]


class ParseError(InputError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# -- AST -----------------------------------------------------------------------


@record
class Cmp(NamedTuple):
    """Atomic comparison of two polynomials; op is '=', '<' or '<='."""

    op: str
    lhs: MultiPoly
    rhs: MultiPoly

    def evaluate(self, values: Sequence) -> bool:
        a = poly_eval(self.lhs, values)
        b = poly_eval(self.rhs, values)
        if self.op == "=":
            return a == b
        if self.op == "<":
            return a < b
        return a <= b

    def used_vars(self) -> frozenset[int]:
        return frozenset(self.lhs.used_variables() | self.rhs.used_variables())


@record
class QAnd(NamedTuple):
    parts: tuple

    def evaluate(self, values: Sequence) -> bool:
        return all(p.evaluate(values) for p in self.parts)

    def used_vars(self) -> frozenset[int]:
        return frozenset().union(*(p.used_vars() for p in self.parts))


@record
class QOr(NamedTuple):
    parts: tuple

    def evaluate(self, values: Sequence) -> bool:
        return any(p.evaluate(values) for p in self.parts)

    def used_vars(self) -> frozenset[int]:
        return frozenset().union(*(p.used_vars() for p in self.parts))


@record
class QNot(NamedTuple):
    part: object

    def evaluate(self, values: Sequence) -> bool:
        return not self.part.evaluate(values)

    def used_vars(self) -> frozenset[int]:
        return self.part.used_vars()


QFFormula = Cmp | QAnd | QOr | QNot


@record
class Block(NamedTuple):
    """Existential over n group elements; body arity is s + 2n."""

    n: int
    body: QFFormula


FormulaNode = QFFormula | Block


@record
class Formula(NamedTuple):
    root: FormulaNode
    free_arity: int


@record
class TriBool(NamedTuple):
    """Three-valued verdict.  True carries one witness tuple per confirmed
    block (re-checkable exactly); Unknown carries the search bound."""

    kind: str  # "true" | "false" | "unknown"
    witnesses: tuple[tuple[GroupPoint, ...], ...] = ()
    bound: int | None = None

    def __str__(self):
        if self.kind == "unknown":
            return f"unknown(bound={self.bound})"
        return self.kind

    def is_true(self) -> bool:
        return self.kind == "true"

    def is_false(self) -> bool:
        return self.kind == "false"


TB_FALSE = TriBool("false")


def _tb_true(witnesses=()) -> TriBool:
    return TriBool("true", tuple(witnesses))


def _tb_unknown(bound: int) -> TriBool:
    return TriBool("unknown", (), bound)


# -- reader ----------------------------------------------------------------------

# a newline, a parenthesis or an atom; spaces, tabs and carriage returns
# separate tokens and match nothing
_TOKEN_RE = re.compile(r"\n|[()]|[^ \t\r\n()]+")


@record
class _Node(NamedTuple):
    """Raw s-expression: either an atom (items is None) or a list."""

    text: str | None
    items: tuple | None
    line: int
    col: int

    @property
    def is_atom(self) -> bool:
        return self.items is None


# every later pass (scan, build, print, evaluate) recurses once or twice per
# level, so the reader keeps the depth well inside Python's recursion limit
MAX_NESTING = 200


def _read_all(text: str) -> _Node:
    """The one s-expression of text.  items collects the innermost open
    list, or the top level; each '(' pushes the enclosing items with its
    own line and column."""
    items: list[_Node] = []
    stack: list[tuple[list[_Node], int, int]] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        tok = m.group()
        if tok == "\n":
            line, line_start = line + 1, m.end()
            continue
        col = m.start() - line_start + 1
        if items and not stack:
            raise ParseError(f"trailing input {tok!r}", line, col)
        if tok == "(":
            if len(stack) == MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING} levels", line, col)
            stack.append((items, line, col))
            items = []
        elif tok == ")":
            if not stack:
                raise ParseError("unexpected ')'", line, col)
            outer, open_line, open_col = stack.pop()
            outer.append(_Node(None, tuple(items), open_line, open_col))
            items = outer
        else:
            items.append(_Node(tok, None, line, col))
    if stack:
        raise ParseError("missing ')'", *stack[-1][1:])
    if not items:
        raise ParseError("empty input", 1, 1)
    return items[0]


# -- semantic analysis ------------------------------------------------------------

_VAR_RE = re.compile(r"([xy])(\d+)")
_INT_RE = re.compile(r"\d+")
_FOLDS = {"+": operator.add, "*": operator.mul}


def _head(node: _Node) -> str | None:
    if node.is_atom or not node.items or not node.items[0].is_atom:
        return None
    return node.items[0].text


def _found(node: _Node) -> str:
    """What a builder found where it wanted a polynomial or a condition."""
    return repr(_head(node) or node.text) if node.is_atom or _head(node) else "a list"


def _scan_vars(node: _Node, in_block_n: int | None, seen: dict) -> None:
    """Record the largest x index and block count; validate y usage and
    block shape."""
    if node.is_atom:
        m = _VAR_RE.fullmatch(node.text)
        if not m:
            return
        kind, idx = m.group(1), parse_integer(m.group(2))
        if idx < 1:
            raise ParseError(
                f"variable indices start at 1: {node.text}", node.line, node.col
            )
        if kind == "x":
            seen["max_x"] = max(seen["max_x"], idx)
        else:
            if in_block_n is None:
                raise ParseError(
                    f"unbound variable {node.text}: y-variables only live "
                    "inside exists-gamma",
                    node.line,
                    node.col,
                )
            if idx > 2 * in_block_n:
                raise ParseError(
                    f"unbound variable {node.text}: block binds y1..y{2 * in_block_n}",
                    node.line,
                    node.col,
                )
        return
    if _head(node) == "exists-gamma":
        if in_block_n is not None:
            raise ParseError("blocks cannot nest", node.line, node.col)
        if len(node.items) != 3:
            raise ParseError(
                "exists-gamma needs a count and a body", node.line, node.col
            )
        count = node.items[1]
        if not (count.is_atom and _INT_RE.fullmatch(count.text or "")):
            raise ParseError(
                "exists-gamma count must be an integer", count.line, count.col
            )
        n = parse_integer(count.text)
        if n < 1:
            raise ParseError(
                "exists-gamma needs at least one bound element",
                count.line,
                count.col,
            )
        seen["max_n"] = max(seen["max_n"], n)
        _scan_vars(node.items[2], n, seen)
        return
    for it in node.items:
        _scan_vars(it, in_block_n, seen)


def _build_poly(node: _Node, arity: int, s: int) -> MultiPoly:
    if node.is_atom:
        text = node.text
        m = _VAR_RE.fullmatch(text)
        if m:
            kind, idx = m.group(1), parse_integer(m.group(2))
            pos = idx - 1 if kind == "x" else s + idx - 1
            return MultiPoly.variable(arity, pos)
        try:
            return MultiPoly.constant(arity, parse_rational(text))
        except InputError:
            raise ParseError(
                f"expected a rational or variable, got {text!r}",
                node.line,
                node.col,
            ) from None
    head = _head(node)
    args = node.items[1:]
    if head in _FOLDS:
        if not args:
            raise ParseError(f"({head} ...) needs at least one argument", node.line, node.col)
        return functools.reduce(_FOLDS[head], (_build_poly(a, arity, s) for a in args))
    if head == "-":
        if len(args) != 2:
            raise ParseError("(- ...) takes exactly two arguments", node.line, node.col)
        return _build_poly(args[0], arity, s) - _build_poly(args[1], arity, s)
    if head == "^":
        if len(args) != 2:
            raise ParseError("(^ ...) takes a base and an exponent", node.line, node.col)
        exp = args[1]
        e = parse_integer(exp.text) if exp.is_atom and _INT_RE.fullmatch(exp.text or "") else 0
        if e < 1:
            raise ParseError(
                "exponent must be a positive integer", exp.line, exp.col
            )
        return _build_poly(args[0], arity, s) ** e
    raise ParseError(f"expected a polynomial, got {_found(node)}", node.line, node.col)


def _build_qf(node: _Node, arity: int, s: int) -> FormulaNode:
    head = _head(node)
    if head in ("=", "<", "<="):
        if len(node.items) != 3:
            raise ParseError(
                f"({head} ...) takes exactly two polynomials", node.line, node.col
            )
        return Cmp(
            head,
            _build_poly(node.items[1], arity, s),
            _build_poly(node.items[2], arity, s),
        )
    if head == "and" or head == "or":
        if len(node.items) < 2:
            raise ParseError(
                f"({head} ...) needs at least one argument", node.line, node.col
            )
        parts = tuple(_build_qf(it, arity, s) for it in node.items[1:])
        return QAnd(parts) if head == "and" else QOr(parts)
    if head == "not":
        if len(node.items) != 2:
            raise ParseError("(not ...) takes exactly one argument", node.line, node.col)
        return QNot(_build_qf(node.items[1], arity, s))
    if head == "exists-gamma":
        # _scan_vars forbids nesting, so this is reached at arity s only
        n = parse_integer(node.items[1].text)
        return Block(n, _build_qf(node.items[2], s + 2 * n, s))
    raise ParseError(f"expected a condition, got {_found(node)}", node.line, node.col)


def _scan(text: str, free_arity: int | None) -> tuple[_Node, int, int]:
    """Read and validate text; return the tree, the free arity s (the
    largest x index unless given explicitly; an explicit s below a used
    index is an arity clash) and the largest exists-gamma count."""
    tree = _read_all(text)
    seen = {"max_x": 0, "max_n": 0}
    _scan_vars(tree, None, seen)
    if free_arity is None:
        return tree, seen["max_x"], seen["max_n"]
    if free_arity < seen["max_x"]:
        raise InputError(
            f"declared free arity {free_arity} but x{seen['max_x']} is used"
        )
    return tree, free_arity, seen["max_n"]


def parse(
    text: str, free_arity: int | None = None, max_arity: int | None = None
) -> Formula:
    """Parse a formula over the free arity s (see _scan).  The largest
    polynomial arity, s + 2 * (largest exists-gamma count), above max_arity
    raises ArityCeilingError before any polynomial is built."""
    tree, s, max_n = _scan(text, free_arity)
    arity = s + 2 * max_n
    if max_arity is not None and arity > max_arity:
        raise ArityCeilingError(arity, max_arity)
    return Formula(_build_qf(tree, s, s), s)


def parse_poly(text: str, arity: int | None = None) -> MultiPoly:
    """Parse a bare polynomial over x-variables (no comparisons, no blocks)."""
    tree, s, _ = _scan(text, arity)
    if arity is None and s == 0:
        s = 1  # constant polynomial still needs a slot count
    return _build_poly(tree, s, s)


# -- canonical printing -----------------------------------------------------------


def _var_name(pos: int, s: int) -> str:
    return f"x{pos + 1}" if pos < s else f"y{pos - s + 1}"


def _fmt_poly(p: MultiPoly, s: int) -> str:
    if p.is_zero():
        return "0"
    terms = []
    for exps, coeff in sorted(
        p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True
    ):
        factors = []
        for pos, e in enumerate(exps):
            if e == 0:
                continue
            name = _var_name(pos, s)
            factors.append(name if e == 1 else f"(^ {name} {e})")
        if not factors:
            terms.append(format_rational(coeff))
        elif coeff == 1 and len(factors) == 1:
            terms.append(factors[0])
        elif coeff == 1:
            terms.append("(* " + " ".join(factors) + ")")
        else:
            terms.append("(* " + format_rational(coeff) + " " + " ".join(factors) + ")")
    if len(terms) == 1:
        return terms[0]
    return "(+ " + " ".join(terms) + ")"


def _fmt_node(node, s: int) -> str:
    if isinstance(node, Cmp):
        return f"({node.op} {_fmt_poly(node.lhs, s)} {_fmt_poly(node.rhs, s)})"
    if isinstance(node, QAnd):
        return "(and " + " ".join(_fmt_node(p, s) for p in node.parts) + ")"
    if isinstance(node, QOr):
        return "(or " + " ".join(_fmt_node(p, s) for p in node.parts) + ")"
    if isinstance(node, QNot):
        return f"(not {_fmt_node(node.part, s)})"
    if isinstance(node, Block):
        return f"(exists-gamma {node.n} {_fmt_node(node.body, s)})"
    raise InputError(f"not a formula node: {node!r}")


def format_formula(f: Formula) -> str:
    return _fmt_node(f.root, f.free_arity)


def format_poly(p: MultiPoly) -> str:
    """Render a bare polynomial; every position prints as an x-variable."""
    return _fmt_poly(p, p.arity)


# -- evaluation --------------------------------------------------------------------


def eval_block(
    gamma: GammaSpec,
    block: Block,
    xs: list[Fraction],
    bound: int = DEFAULT_COEFF_BOUND,
) -> TriBool:
    """Search the coefficient box for a witness tuple; xs are the free
    values as eval_formula checked and converted them, so s = len(xs).

    Candidates run in the box's canonical shell order (slot 1 varying
    slowest), so a one-element block reports the witness of least
    max-norm, and that witness stays put as the bound grows.  Exhaustion
    is Unknown, never False: the group is infinite and the search is not.
    """
    slot_used = slots_used(block.body.used_vars(), block.n, len(xs))
    for _, points in gamma.box(block.n, bound):
        if any(u and is_identity(p) for u, p in zip(slot_used, points)):
            continue
        if block.body.evaluate(xs + affine_values(points)):
            return _tb_true((points,))
    return _tb_unknown(bound)


def eval_formula(
    gamma: GammaSpec,
    f: Formula,
    x_assign: Sequence,
    bound: int = DEFAULT_COEFF_BOUND,
) -> TriBool:
    """Kleene strong three-valued evaluation, short-circuiting as soon as a
    connective's value is determined.  Each block's box is held to gamma's
    ceiling."""
    if len(x_assign) != f.free_arity:
        raise InputError(
            f"expected {f.free_arity} free values, got {len(x_assign)}"
        )
    xs = [_as_fraction(v) for v in x_assign]
    return _eval_node(gamma, f.root, xs, bound)


def _eval_node(gamma, node, xs, bound: int) -> TriBool:
    """The Kleene evaluator: Cmp is the two-valued atom, Block the bounded
    search, and every connective combines three values."""
    if isinstance(node, Cmp):
        return _tb_true() if node.evaluate(xs) else TB_FALSE
    if isinstance(node, Block):
        return eval_block(gamma, node, xs, bound)
    if isinstance(node, QNot):
        inner = _eval_node(gamma, node.part, xs, bound)
        if inner.is_true():
            return TB_FALSE
        if inner.is_false():
            return _tb_true()
        return _tb_unknown(bound)
    if isinstance(node, (QAnd, QOr)):
        # dual loops: the first false part decides an and, the first true
        # part (with its witnesses) an or
        decisive = "false" if isinstance(node, QAnd) else "true"
        witnesses = []
        saw_unknown = False
        for part in node.parts:
            v = _eval_node(gamma, part, xs, bound)
            if v.kind == decisive:
                return v
            saw_unknown = saw_unknown or v.kind == "unknown"
            witnesses.extend(v.witnesses)
        if saw_unknown:
            return _tb_unknown(bound)
        return _tb_true(witnesses) if decisive == "false" else TB_FALSE
    raise InputError(f"not a formula node: {node!r}")
