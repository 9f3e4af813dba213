"""Exact scalar and polynomial arithmetic over the rationals.

Scalars are `fractions.Fraction` values (always lowest terms, positive
denominator); this module adds the strict text round-trip the rest of the
package relies on.  Polynomials are sparse maps from exponent vectors to
nonzero rational coefficients, with a fixed variable count per polynomial.
No floating point anywhere.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DigitLimitError, InputError

# The one rational type used across the package.
Rational = Fraction

# optional minus, digits, optional /digits -- no whitespace, no floats
_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")


def parse_rational(text: str) -> Fraction:
    """Parse a canonical rational literal ("5", "-383/1000").

    Rejects anything outside the strict grammar: floats, exponents, leading
    '+', internal whitespace, zero denominators.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise InputError(f"not a canonical rational literal: {text!r}")
    num, slash, den = text.partition("/")
    num, den = parse_integer(num), parse_integer(den) if slash else 1
    if den == 0:
        raise InputError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def parse_integer(text: str) -> int:
    """int() of a literal already matched as optional minus and digits.

    More digits than Python's int-from-str limit raise InputError instead of
    the bare ValueError int() would raise."""
    try:
        return int(text)
    except ValueError:
        raise InputError(
            f"integer literal of {len(text)} characters exceeds the digit limit"
            f" {sys.get_int_max_str_digits()}"
        ) from None


if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12+

    def coprime_fraction(n: int, d: int) -> Fraction:
        """Fraction(n, d) for coprime n and d > 0, without a second gcd."""
        return Fraction._from_coprime_ints(n, d)

else:  # Python 3.10 and 3.11

    def coprime_fraction(n: int, d: int) -> Fraction:
        """Fraction(n, d) for coprime n and d > 0, without a second gcd."""
        return Fraction(n, d, _normalize=False)


def _decimal_digits(v: int) -> int:
    v = abs(v)
    digits = int((v.bit_length() - 1) * math.log10(2)) + 1
    while v >= 10**digits:
        digits += 1
    return digits


def format_rational(q: Fraction) -> str:
    """Canonical text: "num/den" in lowest terms, integers without "/1".

    A numerator or denominator too long for Python's int-to-str digit limit
    raises DigitLimitError (exit 3) instead of the bare ValueError str()
    would raise."""
    limit = sys.get_int_max_str_digits()
    if limit:
        for v in (q.numerator, q.denominator):
            # below 2**(3*limit) < 10**limit, str() is safe without counting
            if v.bit_length() > 3 * limit:
                digits = _decimal_digits(v)
                if digits > limit:
                    raise DigitLimitError(digits, limit)
    return str(q)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise InputError(f"expected an exact rational, got {type(value).__name__}")


class MultiPoly:
    """Sparse multivariate polynomial with rational coefficients.

    `terms` maps exponent tuples of length `arity` to nonzero coefficients.
    Instances are immutable by convention; all operations return new objects.
    Variables are addressed by 0-based index; display names are supplied by
    callers at print time.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[tuple, object] | None = None):
        if arity < 0:
            raise InputError("polynomial arity must be >= 0")
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != arity:
                raise InputError(
                    f"exponent vector {exps} does not match arity {arity}"
                )
            if any(e < 0 or not isinstance(e, int) for e in exps):
                raise InputError(f"exponents must be nonnegative ints: {exps}")
            c = _as_fraction(coeff)
            if c != 0:
                clean[exps] = clean.get(exps, Fraction(0)) + c
                if clean[exps] == 0:
                    del clean[exps]
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, arity: int, value) -> MultiPoly:
        return cls(arity, {(0,) * arity: _as_fraction(value)})

    @classmethod
    def variable(cls, arity: int, index: int) -> MultiPoly:
        """The monomial X_index (0-based)."""
        if not 0 <= index < arity:
            raise InputError(f"variable index {index} out of range for arity {arity}")
        exps = tuple(1 if i == index else 0 for i in range(arity))
        return cls(arity, {exps: Fraction(1)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def used_variables(self) -> set[int]:
        used = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used.add(i)
        return used

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __repr__(self):
        return f"MultiPoly({self.arity}, {self.terms!r})"

    # -- ring operations ---------------------------------------------------

    def _check_same_arity(self, other: MultiPoly):
        if self.arity != other.arity:
            raise InputError(
                f"arity mismatch: {self.arity} vs {other.arity}"
            )

    def __add__(self, other: MultiPoly) -> MultiPoly:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_arity(other)
        acc = dict(self.terms)
        for exps, c in other.terms.items():
            acc[exps] = acc.get(exps, Fraction(0)) + c
        return MultiPoly(self.arity, acc)

    def __neg__(self) -> MultiPoly:
        return MultiPoly(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: MultiPoly) -> MultiPoly:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> MultiPoly:
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return MultiPoly(self.arity, {e: c * v for e, v in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_arity(other)
        acc: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                acc[exps] = acc.get(exps, Fraction(0)) + c1 * c2
        return MultiPoly(self.arity, acc)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> MultiPoly:
        if not isinstance(k, int) or k < 0:
            raise InputError(f"polynomial exponent must be a nonnegative int: {k}")
        result = MultiPoly.constant(self.arity, 1)
        base = self
        while k:  # square and multiply
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result


def poly_eval(p: MultiPoly, point: Sequence) -> Fraction:
    """Evaluate exactly at a rational point; length must equal arity."""
    if len(point) != p.arity:
        raise InputError(f"evaluation point has length {len(point)}, arity is {p.arity}")
    vals = [_as_fraction(v) for v in point]
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        term = coeff
        for v, e in zip(vals, exps):
            if e:
                term *= v ** e
        total += term
    return total
