"""Group law and point utilities for the two supported one-dimensional
groups over Q: elliptic curves y^2 = x^3 + a*x + b in short Weierstrass
form, and the unit circle x^2 + y^2 = 1 with rotation as addition.

All arithmetic is exact.  The point at infinity (resp. the rotation
identity (1, 0)) is the abstract IDENTITY tag; on the circle the affine
pair (1, 0) is normalized to that tag on construction and after every
operation, so it never appears as an Affine value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Collection, Iterator, NamedTuple, Sequence

from .errors import InputError
from .exact_num import _as_fraction, coprime_fraction, format_rational, parse_rational
from .records import record

# -- backends ---------------------------------------------------------------


@record
class Curve(NamedTuple):
    """y^2 = x^3 + a*x + b; must be nonsingular (4a^3 + 27b^2 != 0)."""

    a: Fraction
    b: Fraction


@record
class Circle(NamedTuple):
    """x^2 + y^2 = 1 under (x1,y1)*(x2,y2) = (x1x2 - y1y2, x1y2 + x2y1)."""

    def __bool__(self):  # an empty tuple would be false
        return True


Backend = Curve | Circle


def make_curve(a, b) -> Curve:
    c = Curve(_as_fraction(a), _as_fraction(b))
    validate_backend(c)
    return c


def validate_backend(backend: Backend) -> None:
    if isinstance(backend, Curve):
        if discriminant_term(backend) == 0:
            raise InputError(
                f"singular curve: 4a^3 + 27b^2 = 0 for a={backend.a}, b={backend.b}"
            )
    elif not isinstance(backend, Circle):
        raise InputError(f"unknown backend {backend!r}")


def discriminant_term(curve: Curve) -> Fraction:
    """The nonsingularity quantity 4a^3 + 27b^2 (zero exactly when singular)."""
    return 4 * curve.a**3 + 27 * curve.b**2


# -- points ------------------------------------------------------------------


class _Identity:
    """Singleton tag for the group identity (no affine coordinates)."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "IDENTITY"

    def __reduce__(self):
        return (_Identity, ())


IDENTITY = _Identity()


@record
class Affine(NamedTuple):
    x: Fraction
    y: Fraction


GroupPoint = Affine | _Identity


def is_identity(p: GroupPoint) -> bool:
    return p is IDENTITY or isinstance(p, _Identity)


def point(backend: Backend, x, y) -> GroupPoint:
    """Build a point from coordinates, validating it lies on the variety.

    On the circle, (1, 0) comes back as IDENTITY.
    """
    p = Affine(_as_fraction(x), _as_fraction(y))
    if not on_variety(backend, p):
        raise InputError(f"({p.x}, {p.y}) is not on the variety")
    return _normalize(backend, p)


def _normalize(backend: Backend, p: GroupPoint) -> GroupPoint:
    if isinstance(backend, Circle) and isinstance(p, Affine) and p.x == 1 and p.y == 0:
        return IDENTITY
    return p


def on_variety(backend: Backend, p: GroupPoint) -> bool:
    """Exact membership test; IDENTITY always belongs."""
    if is_identity(p):
        return True
    if isinstance(backend, Curve):
        return p.y**2 == p.x**3 + backend.a * p.x + backend.b
    return p.x**2 + p.y**2 == 1


def _require_on_variety(backend: Backend, p: GroupPoint) -> None:
    if not on_variety(backend, p):
        where = "IDENTITY" if is_identity(p) else f"({p.x}, {p.y})"
        raise InputError(f"point {where} is not on the variety")


def negate(backend: Backend, p: GroupPoint) -> GroupPoint:
    _require_on_variety(backend, p)
    if is_identity(p):
        return IDENTITY
    return _normalize(backend, Affine(p.x, -p.y))


def add(backend: Backend, p: GroupPoint, q: GroupPoint) -> GroupPoint:
    """Exact group addition (chord-tangent law on curves, rotation on the
    circle).  Off-variety inputs are rejected."""
    _require_on_variety(backend, p)
    _require_on_variety(backend, q)
    return _add_raw(backend, p, q)


def _add_raw(backend: Backend, p: GroupPoint, q: GroupPoint) -> GroupPoint:
    if is_identity(p):
        return q
    if is_identity(q):
        return p
    if isinstance(backend, Circle):
        return _normalize(
            backend, Affine(p.x * q.x - p.y * q.y, p.x * q.y + q.x * p.y)
        )
    if p.x == q.x:
        if p.y == -q.y:
            # includes the tangent-vertical case y == 0
            return IDENTITY
        # doubling; y != 0 here
        lam = (3 * p.x**2 + backend.a) / (2 * p.y)
    else:
        lam = (q.y - p.y) / (q.x - p.x)
    x3 = lam**2 - p.x - q.x
    y3 = lam * (p.x - x3) - p.y
    return Affine(x3, y3)


def scalar_mul(backend: Backend, k: int, p: GroupPoint) -> GroupPoint:
    """k*p: from division values on curves, by binary double-and-add on the
    circle; negative k goes through the inverse."""
    if not isinstance(k, int):
        raise InputError(f"scalar must be an int, got {type(k).__name__}")
    _require_on_variety(backend, p)
    if k < 0:
        p = negate(backend, p)
        k = -k
    if isinstance(backend, Curve):
        return _curve_multiple(backend, k, p)
    # circle heights grow linearly in k, so plain Fraction steps stay cheap
    acc: GroupPoint = IDENTITY
    base = p
    while k:
        if k & 1:
            acc = _add_raw(backend, acc, base)
        k >>= 1
        if k:
            base = _add_raw(backend, base, base)
    return acc


def _curve_multiple(curve: Curve, k: int, p: GroupPoint) -> GroupPoint:
    """k*p for k >= 0 from the division values psi_n(P) (Ward's elliptic
    divisibility recurrences), with coordinates reduced by gcds against a
    small number only.

    The point is scaled to (X, Y) = (s^2 x, s^3 y), integral on the integral
    curve y^2 = x^3 + A x + B with A = s^4 a, B = s^6 b.  There
        x(kP) = (X psi_k^2 - psi_{k-1} psi_{k+1}) / (psi_k^2 s^2),
        y(kP) = (psi_{k+2} psi_{k-1}^2 - psi_{k-2} psi_{k+1}^2) / (4 Y psi_k^3 s^3),
    and a prime dividing a numerator and its denominator divides
    S = 6 (4A^3 + 27B^2) Y s: the integral parts share only primes of bad
    reduction (Ayad, Manuscripta Math. 76, 1992), and 4Y and s add their own.
    """
    if is_identity(p) or k < 2 or p.y == 0:  # O or P; y == 0 means order 2
        return p if k % 2 else IDENTITY
    u, _, _ = _integral_model(curve)
    den = (p.x * u**2).denominator
    w = math.isqrt(den)
    if w * w != den:
        raise ArithmeticError(f"x-denominator {den} on the integral model is not a square")
    s = u * w
    A, B = (curve.a * s**4).numerator, (curve.b * s**6).numerator
    X, Y = (p.x * s**2).numerator, (p.y * s**3).numerator
    psi = _division_values(range(k - 2, k + 3), X, Y, A, B)
    if psi[k] == 0:
        return IDENTITY
    sq = psi[k] * psi[k]
    bad = 6 * (4 * A**3 + 27 * B**2) * Y * s
    x = _reduced(X * sq - psi[k - 1] * psi[k + 1], sq * s**2, bad)
    y = _reduced(
        psi[k + 2] * psi[k - 1] ** 2 - psi[k - 2] * psi[k + 1] ** 2,
        4 * Y * sq * psi[k] * s**3,
        bad,
    )
    return Affine(x, y)


def _division_values(wanted, X: int, Y: int, A: int, B: int) -> dict[int, int]:
    """psi_n at the integral point (X, Y), Y != 0, for every n >= 0 in
    wanted and the halved indices they are built from."""
    needed: set[int] = set()
    frontier = set(wanted)
    while frontier:
        needed |= frontier
        # psi_{2m+1} uses psi_{m-1}..psi_{m+2}; psi_{2m} uses psi_{m-2}..psi_{m+2}
        frontier = {
            j
            for n in frontier
            if n > 4
            for j in range(n // 2 - 2 + n % 2, n // 2 + 3)
        } - needed
    X2 = X * X
    psi = {
        0: 0,
        1: 1,
        2: 2 * Y,
        3: 3 * X2 * X2 + 6 * A * X2 + 12 * B * X - A * A,
        4: 4 * Y * (X2**3 + 5 * A * X2 * X2 + 20 * B * X2 * X - 5 * A * A * X2
                    - 4 * A * B * X - 8 * B * B - A**3),
    }
    two_y = 2 * Y
    for n in sorted(needed):
        if n <= 4:
            continue
        m = n // 2
        if n % 2:
            psi[n] = psi[m + 2] * psi[m] ** 3 - psi[m - 1] * psi[m + 1] ** 3
        else:
            q, r = divmod(
                psi[m] * (psi[m + 2] * psi[m - 1] ** 2 - psi[m - 2] * psi[m + 1] ** 2),
                two_y,
            )
            if r:
                raise ArithmeticError(f"division value psi_{n} is not integral")
            psi[n] = q
    return psi


def _reduced(n: int, d: int, bad: int) -> Fraction:
    """n/d in lowest terms, given that every prime shared by n and d divides
    bad; each gcd has the small bad as one argument, so it takes linear time."""
    if d < 0:
        n, d = -n, -d
    g = math.gcd(math.gcd(n, bad), d)
    while g > 1:
        n //= g
        d //= g
        g = math.gcd(math.gcd(n, bad), d)
    return coprime_fraction(n, d)


def naive_height(p: GroupPoint) -> int:
    """max(|num|, den) of the x-coordinate; 0 for IDENTITY."""
    if is_identity(p):
        return 0
    return max(abs(p.x.numerator), p.x.denominator)


def affine_values(points: Sequence[GroupPoint]) -> list[Fraction]:
    """x then y of each point, in order.  The identity has no affine
    coordinates and stands in as (0, 0); callers only evaluate it where the
    condition ignores that slot."""
    vals: list[Fraction] = []
    for p in points:
        if is_identity(p):
            vals.extend((Fraction(0), Fraction(0)))
        else:
            vals.extend((p.x, p.y))
    return vals


def slots_used(used: Collection[int], n: int, offset: int = 0) -> list[bool]:
    """Whether each of n slots has a coordinate among the used variable
    positions; slot j owns positions offset + 2j (x) and offset + 2j + 1
    (y), as laid out by affine_values after offset free values."""
    return [offset + 2 * j in used or offset + 2 * j + 1 in used for j in range(n)]


# -- exact square roots and enumeration --------------------------------------


def _exact_sqrt(q: Fraction) -> Fraction | None:
    """The nonnegative rational square root, or None if q is not a square."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    if rn * rn != q.numerator:
        return None
    rd = math.isqrt(q.denominator)
    if rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


def enumerate_rational_points(backend: Backend, height_bound: int) -> list[GroupPoint]:
    """All rational points with naive height <= height_bound, IDENTITY
    included, in a deterministic order (height, then x, then y)."""
    validate_backend(backend)
    if height_bound < 0:
        raise InputError("height bound must be >= 0")
    affine: list[Affine] = []
    for v in range(1, height_bound + 1):
        for u in range(-height_bound, height_bound + 1):
            if math.gcd(u, v) != 1:
                continue
            x = Fraction(u, v)
            if isinstance(backend, Curve):
                rhs = x**3 + backend.a * x + backend.b
            else:
                rhs = 1 - x**2
            y = _exact_sqrt(rhs)
            if y is None:
                continue
            if y == 0:
                candidates = [Affine(x, Fraction(0))]
            else:
                candidates = [Affine(x, -y), Affine(x, y)]
            for c in candidates:
                if not is_identity(_normalize(backend, c)):
                    affine.append(c)
    affine.sort(key=lambda p: (naive_height(p), p.x, p.y))
    return [IDENTITY, *affine]


# -- real connected components ------------------------------------------------


def real_components(backend: Backend) -> int:
    """1 or 2; a curve has two real components iff its cubic has three real
    roots, decided by the sign of -(4a^3 + 27b^2)."""
    validate_backend(backend)
    if isinstance(backend, Circle):
        return 1
    return 2 if discriminant_term(backend) < 0 else 1


def component_of(backend: Backend, p: GroupPoint) -> bool:
    """True iff p lies on the identity component.

    With two components the cubic has roots e1 < e2 < e3, the oval is
    x in [e1, e2] and the identity branch x >= e3.  Three real roots force
    a < 0, and the cubic's local minimum t = sqrt(-a/3) lies strictly
    between e2 and e3, so x > t, that is x > 0 and 3x^2 + a > 0, decides
    the branch exactly."""
    _require_on_variety(backend, p)
    if is_identity(p):
        return True
    if isinstance(backend, Circle) or real_components(backend) == 1:
        return True
    return p.x > 0 and 3 * p.x**2 + backend.a > 0


# -- torsion -------------------------------------------------------------------

# Over Q the torsion order of a curve point never exceeds 12 (and 11 does
# not occur); scanning multiples up to 12 is therefore a complete order test.
_MAX_CURVE_TORSION_ORDER = 12


def point_order(backend: Backend, p: GroupPoint, cap: int = _MAX_CURVE_TORSION_ORDER) -> int | None:
    """The exact order of p if it is at most cap, else None.

    Every multiple of a torsion point is a torsion point, and by Nagell-Lutz
    a torsion point is integral on the integral model (the circle's are the
    four with integer coordinates).  So the scan stops with None at the
    first multiple whose x is not integral there; y follows x, since y^2 is
    then an integer."""
    _require_on_variety(backend, p)
    u2 = _integral_model(backend)[0] ** 2 if isinstance(backend, Curve) else 1
    acc = p
    for k in range(1, cap + 1):
        if is_identity(acc):
            return k
        if u2 % acc.x.denominator:
            return None
        acc = _add_raw(backend, acc, p)
    return None


def is_torsion(backend: Backend, p: GroupPoint) -> bool:
    """Whether p has finite order, without the torsion subgroup: a point of
    infinite order is settled at its first non-integral multiple
    (point_order), (3, 5) on y^2 = x^3 - 2 after one addition."""
    return point_order(backend, p) is not None


# lcm(1..12) kills every rational torsion point of a curve or the circle
TORSION_EXPONENT = 27720


@record
class Reduction(NamedTuple):
    """The group law mod a prime ell of good reduction, on the integral model.

    Reduction is a homomorphism there (Silverman VII.3), so a point of order
    n reduces to one whose order divides n.  A reduced point is a pair of
    residues; None is the identity.  point() maps a curve point whose
    integral-model x-denominator ell divides to None: it lies in the kernel
    of reduction."""

    backend: Backend
    ell: int
    u: int
    a: int  # a' mod ell on curves

    def point(self, p: GroupPoint) -> tuple[int, int] | None:
        if is_identity(p):
            return None
        x, y = p.x * self.u**2, p.y * self.u**3
        ell = self.ell
        if x.denominator % ell == 0:
            return None
        r = (
            x.numerator * pow(x.denominator, -1, ell) % ell,
            y.numerator * pow(y.denominator, -1, ell) % ell,
        )
        return None if isinstance(self.backend, Circle) and r == (1, 0) else r

    def add(self, p, q):
        if p is None:
            return q
        if q is None:
            return p
        ell = self.ell
        (x1, y1), (x2, y2) = p, q
        if isinstance(self.backend, Circle):
            r = ((x1 * x2 - y1 * y2) % ell, (x1 * y2 + x2 * y1) % ell)
            return None if r == (1, 0) else r
        if x1 == x2:
            if (y1 + y2) % ell == 0:
                return None
            lam = (3 * x1 * x1 + self.a) * pow(2 * y1, -1, ell) % ell
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, ell) % ell
        x3 = (lam * lam - x1 - x2) % ell
        return x3, (lam * (x1 - x3) - y1) % ell

    def mul(self, k: int, p):
        if k < 0:
            k = -k
            if p is not None:
                p = (p[0], -p[1] % self.ell)
        acc = None
        while k:
            if k & 1:
                acc = self.add(acc, p)
            k >>= 1
            if k:
                p = self.add(p, p)
        return acc


def good_reduction(
    backend: Backend, points: Sequence[GroupPoint] = (), start: int = 10007
) -> Iterator[Reduction]:
    """Reductions mod the successive primes ell >= start, ell = 3 (mod 4),
    that divide neither 6(4a'^3 + 27b'^2) of the integral model nor any
    coordinate denominator of points there.

    No primitive Pythagorean denominator has a prime factor = 3 (mod 4), so
    no circle point meets ell in a denominator; a curve point that does
    reduces to the identity (Reduction.point)."""
    if isinstance(backend, Curve):
        u, a, b = _integral_model(backend)
        bad = 6 * (4 * a**3 + 27 * b**2)
    else:
        u, a, bad = 1, 0, 1
    for p in points:
        if not is_identity(p):
            bad *= (p.x * u**2).denominator * (p.y * u**3).denominator
    ell = start + (3 - start) % 4
    while True:
        if bad % ell and all(ell % d for d in range(3, math.isqrt(ell) + 1, 2)):
            yield Reduction(backend, ell, u, a % ell)
        ell += 4


@record
class TorsionGroup(NamedTuple):
    """A finite abelian group given by invariant factors d1 | d2 | ... and
    matching generators (generator j has exact order invariant_factors[j]).
    The trivial group has empty factors and generators."""

    invariant_factors: tuple[int, ...]
    generators: tuple[GroupPoint, ...]

    def order(self) -> int:
        return math.prod(self.invariant_factors)


# trial division tries no divisor above this, so a denominator with only
# large prime factors costs a few hundred divisions, not sqrt(denominator)
_TRIAL_DIVISION_BOUND = 1000


def _int_prime_factors(n: int) -> tuple[dict[int, int], int]:
    """The prime factorization of |n| as far as trial division up to
    _TRIAL_DIVISION_BOUND gets, and the cofactor left: 1, or a product of
    primes above the bound."""
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n and d <= _TRIAL_DIVISION_BOUND:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1 and d * d > n:  # no factor below sqrt(n): n is prime
        out[n] = out.get(n, 0) + 1
        n = 1
    return out, n


def _integral_model(curve: Curve) -> tuple[int, int, int]:
    """A u >= 1 with a*u^4 and b*u^6 integral; returns (u, a', b').

    (x, y) -> (u^2 x, u^3 y) carries y^2 = x^3 + ax + b to
    y'^2 = x'^3 + a'x' + b' with a' = a u^4, b' = b u^6.  u is the smallest
    such when trial division factors both denominators; an unfactored
    cofactor enters u whole, which keeps the model integral, if not minimal.
    """
    exps: dict[int, int] = {}
    rest = 1
    for den, w in ((curve.a.denominator, 4), (curve.b.denominator, 6)):
        factors, cofactor = _int_prime_factors(den)
        for p, e in factors.items():
            exps[p] = max(exps.get(p, 0), -(-e // w))
        rest = math.lcm(rest, cofactor)
    u = rest * math.prod(p**e for p, e in exps.items())
    a_i = curve.a * u**4
    b_i = curve.b * u**6
    assert a_i.denominator == 1 and b_i.denominator == 1
    return u, a_i.numerator, b_i.numerator


def _integer_cubic_roots(a: int, b: int) -> list[int]:
    """Integer roots of x^3 + a*x + b (monic, so roots divide b)."""
    if b == 0:
        roots = [0]
        if a <= 0:
            r = math.isqrt(-a)
            if r * r == -a and r != 0:
                roots.extend([r, -r])
        return roots
    roots = []
    d = 1
    nb = abs(b)
    while d * d <= nb:
        if nb % d == 0:
            for r in {d, -d, nb // d, -nb // d}:
                if r**3 + a * r + b == 0:
                    roots.append(r)
        d += 1
    return sorted(set(roots))


def _torsion_points(curve: Curve) -> list[GroupPoint]:
    """All rational torsion points, by exhausting the integral-coordinate
    candidates on an integral model: y = 0 or y^2 dividing the (scaled)
    discriminant 16(4a^3+27b^2), then keeping points of finite order."""
    u, ai, bi = _integral_model(curve)
    disc = abs(16 * (4 * ai**3 + 27 * bi**2))
    candidates: set[tuple[int, int]] = set()
    for x in _integer_cubic_roots(ai, bi):
        candidates.add((x, 0))
    y = 1
    while y * y <= disc:
        if disc % (y * y) == 0:
            for x in _integer_cubic_roots(ai, bi - y * y):
                candidates.add((x, y))
                candidates.add((x, -y))
        y += 1
    found: list[GroupPoint] = [IDENTITY]
    for xi, yi in candidates:
        p = Affine(Fraction(xi, u**2), Fraction(yi, u**3))
        if not on_variety(curve, p):
            continue
        if point_order(curve, p) is not None:
            found.append(p)
    return found


def _point_sort_key(p: GroupPoint):
    if is_identity(p):
        return (0, Fraction(0), Fraction(0))
    return (1, p.x, p.y)


def group_structure(backend: Backend, elements: Sequence[GroupPoint]) -> TorsionGroup:
    """Invariant factors and generators of a finite subgroup given as a full
    set of elements.  Relies on the group being cyclic or 2 x cyclic, which
    covers every rational torsion group the backends admit."""
    elems = sorted(set(elements), key=_point_sort_key)
    n = len(elems)
    if n == 1:
        return TorsionGroup((), ())
    best = None
    for p in elems:
        if is_identity(p):
            continue
        d = point_order(backend, p, cap=n)
        if d is None:
            raise InputError("element of infinite order in claimed finite group")
        if best is None or d > best[0]:
            best = (d, p)
    d, g = best
    if d == n:
        return TorsionGroup((n,), (g,))
    if 2 * d != n:
        raise InputError(f"unsupported torsion shape: order {n}, max element order {d}")
    cyclic = set()
    acc: GroupPoint = IDENTITY
    for _ in range(d):
        cyclic.add(acc)
        acc = _add_raw(backend, acc, g)
    for p in elems:
        if p not in cyclic and point_order(backend, p, cap=2) == 2:
            return TorsionGroup((2, d), (p, g))
    raise InputError("could not split torsion as 2 x cyclic")


def torsion_subgroup(backend: Backend) -> TorsionGroup:
    """The full rational torsion subgroup of the backend."""
    validate_backend(backend)
    if isinstance(backend, Circle):
        # the only rational points of finite order are the 4th roots of unity
        return TorsionGroup((4,), (Affine(Fraction(0), Fraction(1)),))
    return group_structure(backend, _torsion_points(backend))


# -- text round-trip -----------------------------------------------------------


def format_point(p: GroupPoint) -> str:
    """Canonical text of a point; see format_rational for the digit limit."""
    if is_identity(p):
        return "O"
    return f"({format_rational(p.x)}, {format_rational(p.y)})"


def parse_point(backend: Backend, text: str) -> GroupPoint:
    """Inverse of format_point, with on-variety validation."""
    t = text.strip()
    if t == "O":
        return IDENTITY
    if not (t.startswith("(") and t.endswith(")")):
        raise InputError(f"not a point literal: {text!r}")
    parts = t[1:-1].split(",")
    if len(parts) != 2:
        raise InputError(f"not a point literal: {text!r}")
    x = parse_rational(parts[0].strip())
    y = parse_rational(parts[1].strip())
    return point(backend, x, y)
