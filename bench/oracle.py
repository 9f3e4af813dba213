"""Independent exact reference arithmetic for checking answers.

Nothing here imports `mordell`: the group laws, coefficient boxes,
polynomial and formula evaluation, quotient residues and point enumeration
are re-implemented from their definitions so that a checked answer does not
vouch for itself.  Points are `None` for the identity or `(x, y)` pairs of
`Fraction`s.  Polynomials and formulas are the small tuple ASTs built by
`library.py` and `session.py`, rendered to s-expression text only when
handed to the program.

Zero tests over a whole coefficient box run through a filter modulo a large
prime first; a tuple is evaluated exactly only when the filter cannot rule
it out (its value vanishes mod q, or a coordinate denominator is divisible
by q).  The filter only discards tuples whose exact value is nonzero, so
the answer is exact.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# primes of good reduction for every curve used by the workloads
PRIMES = (2_147_483_647, 2_305_843_009_213_693_951)


# -- groups ---------------------------------------------------------------------


class Group:
    """y^2 = x^3 + a x + b (kind "curve") or x^2 + y^2 = 1 (kind "circle")."""

    def __init__(self, kind: str, a=0, b=0):
        self.kind = kind
        self.a = Fraction(a)
        self.b = Fraction(b)

    def on(self, p) -> bool:
        if p is None:
            return True
        x, y = p
        if self.kind == "curve":
            return y * y == x**3 + self.a * x + self.b
        return x * x + y * y == 1

    def norm(self, p):
        if self.kind == "circle" and p == (1, 0):
            return None
        return p

    def neg(self, p):
        return None if p is None else (p[0], -p[1])

    def add(self, p, q):
        if p is None:
            return q
        if q is None:
            return p
        (x1, y1), (x2, y2) = p, q
        if self.kind == "circle":
            return self.norm((x1 * x2 - y1 * y2, x1 * y2 + x2 * y1))
        if x1 == x2:
            if y1 == -y2:
                return None
            lam = (3 * x1 * x1 + self.a) / (2 * y1)
        else:
            lam = (y2 - y1) / (x2 - x1)
        x3 = lam * lam - x1 - x2
        return (x3, lam * (x1 - x3) - y1)

    def mul(self, k: int, p):
        if k < 0:
            k, p = -k, self.neg(p)
        acc = None
        while k:
            if k & 1:
                acc = self.add(acc, p)
            k >>= 1
            if k:
                p = self.add(p, p)
        return acc

    def order(self, p, cap: int = 12):
        acc = p
        for k in range(1, cap + 1):
            if acc is None:
                return k
            acc = self.add(acc, p)
        return None

    def identity_component(self, p) -> bool:
        """Curves with two real components: the identity branch is x > t with
        t = sqrt(-a/3), the local minimum of the cubic, which lies strictly
        between the oval and the unbounded branch."""
        if p is None or self.kind == "circle" or self.components() == 1:
            return True
        x = p[0]
        return x > 0 and 3 * x * x > -self.a

    def components(self) -> int:
        if self.kind == "circle":
            return 1
        return 2 if 4 * self.a**3 + 27 * self.b**2 < 0 else 1


def naive_height(p) -> int:
    if p is None:
        return 0
    return max(abs(p[0].numerator), p[0].denominator)


def reduce_mod(v: Fraction, q: int):
    """v mod q, or None when q divides the denominator."""
    if v.denominator % q == 0:
        return None
    return v.numerator * pow(v.denominator, -1, q) % q


def curve_mul_mod(g: Group, k: int, p, q: int):
    """k*p in E(F_q) for a curve point whose coordinates reduce mod q."""
    a = reduce_mod(g.a, q)
    pt = (reduce_mod(p[0], q), reduce_mod(p[1], q))

    def add(u, v):
        if u is None:
            return v
        if v is None:
            return u
        if u[0] == v[0]:
            if (u[1] + v[1]) % q == 0:
                return None
            lam = (3 * u[0] * u[0] + a) * pow(2 * u[1], -1, q) % q
        else:
            lam = (v[1] - u[1]) * pow(v[0] - u[0], -1, q) % q
        x3 = (lam * lam - u[0] - v[0]) % q
        return (x3, (lam * (u[0] - x3) - u[1]) % q)

    if k < 0:
        k, pt = -k, (pt[0], -pt[1] % q)
    acc = None
    while k:
        if k & 1:
            acc = add(acc, pt)
        k >>= 1
        if k:
            pt = add(pt, pt)
    return acc


def same_mod(p, reduced, q: int) -> bool:
    """Whether an exact curve point reduces to `reduced` (None = infinity)."""
    if p is None:
        return reduced is None
    if p[0].denominator % q == 0:
        return reduced is None
    return reduced == (reduce_mod(p[0], q), reduce_mod(p[1], q))


# -- torsion ----------------------------------------------------------------------


def torsion_points(g: Group) -> set:
    """Rational torsion of a curve with integer coefficients.  By
    Nagell-Lutz torsion points are integral with y = 0 or y^2 dividing
    16(4a^3 + 27b^2), which bounds |x|; keep the points of order <= 12."""
    a, b = int(g.a), int(g.b)
    disc = abs(16 * (4 * a**3 + 27 * b**2))
    reach = max(round((3 * disc) ** (1 / 3)), math.isqrt(3 * abs(a)), round((3 * abs(b)) ** (1 / 3)))
    out = {None}
    for x in range(-reach - 2, reach + 3):
        r = x**3 + a * x + b
        if r < 0:
            continue
        y = math.isqrt(r)
        if y * y != r or (y and disc % (y * y)):
            continue
        for p in {(Fraction(x), Fraction(y)), (Fraction(x), Fraction(-y))}:
            if g.order(p) is not None:
                out.add(p)
    return out


def span(g: Group, gens) -> set:
    elems = {None}
    frontier = [None]
    while frontier:
        nxt = []
        for p in frontier:
            for h in gens:
                s = g.add(p, h)
                if s not in elems:
                    if len(elems) > 64:
                        raise ValueError("torsion span too large")
                    elems.add(s)
                    nxt.append(s)
        frontier = nxt
    return elems


def torsion_basis_ok(g: Group, factors, gens) -> bool:
    """Each generator lies on the variety with exact order equal to its
    factor, and together they span a group of the product order."""
    factors, gens = list(factors), list(gens)
    if len(factors) != len(gens) or any(f < 2 for f in factors):
        return False
    if any(factors[i + 1] % factors[i] for i in range(len(factors) - 1)):
        return False
    for f, p in zip(factors, gens):
        if not g.on(p) or g.order(p, cap=f) != f:
            return False
    return len(span(g, gens)) == math.prod(factors)


def torsion_complete(g: Group, factors, gens) -> bool:
    """A valid basis whose order is the whole rational torsion: the four
    roots of unity on the circle, the Nagell-Lutz count on a curve."""
    if not torsion_basis_ok(g, factors, gens):
        return False
    full = 4 if g.kind == "circle" else len(torsion_points(g))
    return math.prod(factors) == full


# -- coefficient boxes ---------------------------------------------------------------


class Box:
    """Every element sum c_i g_i + sum t_j h_j with |c_i| <= bound and
    0 <= t_j < d_j, keyed by coordinates, with the inverse map."""

    def __init__(self, g: Group, free, tors, factors, bound: int):
        self.g = g
        self.bound = bound
        self.factors = tuple(factors)
        free_mults = []
        for gen in free:
            m = {0: None}
            for sign in (1, -1):
                acc, step = None, gen if sign > 0 else g.neg(gen)
                for c in range(1, bound + 1):
                    acc = g.add(acc, step)
                    m[sign * c] = acc
            free_mults.append(m)
        tors_mults = []
        for gen, d in zip(tors, factors):
            m, acc = [], None
            for _ in range(d):
                m.append(acc)
                acc = g.add(acc, gen)
            tors_mults.append(m)
        self.points = {}
        for fc in itertools.product(range(-bound, bound + 1), repeat=len(free)):
            base = None
            for m, c in zip(free_mults, fc):
                base = g.add(base, m[c])
            for tc in itertools.product(*(range(d) for d in factors)):
                p = base
                for m, t in zip(tors_mults, tc):
                    p = g.add(p, m[t])
                self.points[(fc, tc)] = p
        self.coords_of = {}
        for c, p in self.points.items():
            self.coords_of.setdefault(p, c)
        self.items = list(self.points.items())

    def mod_table(self, q: int):
        """Per box element: (x mod q, y mod q), or None when the identity or
        a denominator divisible by q forces the exact path."""
        out = []
        for c, p in self.items:
            if p is None:
                out.append(None)
                continue
            x, y = reduce_mod(p[0], q), reduce_mod(p[1], q)
            out.append(None if x is None or y is None else (x, y))
        return out


# -- polynomials and formulas --------------------------------------------------------
#
# poly nodes: ("c", "p/q") | ("x", i) | ("y", i) | (op, child, ...) with op in
# "+", "*", "-" (binary) and "^" (child, exponent int); variables 1-based.
# formula nodes: ("=", l, r) | ("<", l, r) | ("<=", l, r) | ("and", ...) |
# ("or", ...) | ("not", f) | ("exists", n, body)


def render(node) -> str:
    tag = node[0]
    if tag == "c":
        return node[1]
    if tag in ("x", "y"):
        return f"{tag}{node[1]}"
    if tag == "exists":
        return f"(exists-gamma {node[1]} {render(node[2])})"
    if tag == "^":
        return f"(^ {render(node[1])} {node[2]})"
    if tag == "not":
        return f"(not {render(node[1])})"
    return "(" + tag + " " + " ".join(render(c) for c in node[1:]) + ")"


def poly_value(node, env, q: int | None = None):
    """Exact value (q None) or value mod q; env maps ("x", i)/("y", i) to
    Fractions (exact) or residues (mod q)."""
    tag = node[0]
    if tag == "c":
        v = Fraction(node[1])
        return v if q is None else reduce_mod(v, q)
    if tag in ("x", "y"):
        return env[node]
    if tag == "^":
        base = poly_value(node[1], env, q)
        return base ** node[2] if q is None else pow(base, node[2], q)
    vals = [poly_value(c, env, q) for c in node[1:]]
    if tag == "+":
        out = sum(vals[1:], vals[0])
    elif tag == "*":
        out = math.prod(vals[1:], start=vals[0])
    else:
        out = vals[0] - vals[1]
    return out if q is None else out % q


def poly_vars(node, tag: str) -> set:
    if node[0] == tag:
        return {node[1]}
    if node[0] in ("c", "x", "y"):
        return set()
    if node[0] == "exists":
        return poly_vars(node[2], tag)
    out = set()
    for c in node[1:]:
        if isinstance(c, tuple):
            out |= poly_vars(c, tag)
    return out


def qf_true(node, env) -> bool:
    tag = node[0]
    if tag in ("=", "<", "<="):
        a, b = poly_value(node[1], env), poly_value(node[2], env)
        return a == b if tag == "=" else (a < b if tag == "<" else a <= b)
    if tag == "and":
        return all(qf_true(c, env) for c in node[1:])
    if tag == "or":
        return any(qf_true(c, env) for c in node[1:])
    return not qf_true(node[1], env)


def slot_env(points, var: str, base: dict) -> dict | None:
    env = dict(base)
    for j, p in enumerate(points):
        if p is None:
            env[(var, 2 * j + 1)] = Fraction(0)
            env[(var, 2 * j + 2)] = Fraction(0)
        else:
            env[(var, 2 * j + 1)], env[(var, 2 * j + 2)] = p
    return env


def used_slots(node, var: str, n: int) -> list[bool]:
    used = poly_vars(node, var)
    return [(2 * j + 1 in used) or (2 * j + 2 in used) for j in range(n)]


def skipped(points, slots_used) -> bool:
    return any(u and p is None for u, p in zip(slots_used, points))


def zero_set(box: Box, poly, n: int):
    """(solutions, skipped count, tuples) of poly over box^n, with the slot
    j variables x(2j+1), x(2j+2) holding the j-th point's coordinates."""
    slots_used = used_slots(poly, "x", n)
    q = PRIMES[0]
    table = box.mod_table(q)
    idx = range(len(box.items))
    sols, skip, total = set(), 0, 0
    for combo in itertools.product(idx, repeat=n):
        total += 1
        points = tuple(box.items[i][1] for i in combo)
        if skipped(points, slots_used):
            skip += 1
            continue
        mods = [table[i] for i in combo]
        if all(m is not None or not u for m, u in zip(mods, slots_used)):
            env = {}
            for j, m in enumerate(mods):
                env[("x", 2 * j + 1)], env[("x", 2 * j + 2)] = m if m else (0, 0)
            if poly_value(poly, env, q) != 0:
                continue
        if poly_value(poly, slot_env(points, "x", {})) == 0:
            sols.add(tuple(box.items[i][0] for i in combo))
    return sols, skip, total


def in_union(coords_tuple, pairs, factors) -> bool:
    """Coordinate test for membership of a tuple in base + ker(k)."""
    for base, k in pairs:
        r = len(coords_tuple[0][0])
        free_ok = all(
            sum(ki * (c[0][m] - b[0][m]) for ki, c, b in zip(k, coords_tuple, base)) == 0
            for m in range(r)
        )
        tors_ok = all(
            sum(ki * (c[1][j] - b[1][j]) for ki, c, b in zip(k, coords_tuple, base)) % d == 0
            for j, d in enumerate(factors)
        )
        if free_ok and tors_ok:
            return True
    return False


def block_search(box: Box, block, xs_env):
    """First witness tuple (as coordinates) of an exists block, or None."""
    n, body = block[1], block[2]
    slots_used = used_slots(body, "y", n)
    for combo in itertools.product(box.items, repeat=n):
        points = tuple(p for _, p in combo)
        if skipped(points, slots_used):
            continue
        if qf_true(body, slot_env(points, "y", xs_env)):
            return tuple(c for c, _ in combo)
    return None


def kleene(node, xs_env, box: Box):
    """'true' | 'false' | 'unknown', by bounded search over the box."""
    tag = node[0]
    if tag == "exists":
        return "true" if block_search(box, node, xs_env) is not None else "unknown"
    if tag in ("=", "<", "<="):
        return "true" if qf_true(node, xs_env) else "false"
    if tag == "not":
        v = kleene(node[1], xs_env, box)
        return {"true": "false", "false": "true"}.get(v, "unknown")
    vals = [kleene(c, xs_env, box) for c in node[1:]]
    if tag == "and":
        if "false" in vals:
            return "false"
        return "unknown" if "unknown" in vals else "true"
    if "true" in vals:
        return "true"
    return "unknown" if "unknown" in vals else "false"


def blocks_of(node) -> list:
    if node[0] == "exists":
        return [node]
    if node[0] in ("and", "or", "not"):
        return [b for c in node[1:] for b in blocks_of(c)]
    return []


# -- quotients --------------------------------------------------------------------


def quotient_shape(rank: int, factors, e: int) -> tuple[int, ...]:
    return (e,) * rank + tuple(math.gcd(e, d) for d in factors)


def dke_residues(rank: int, factors, k, e: int) -> set:
    shape = quotient_shape(rank, factors, e)
    slot = list(itertools.product(*(range(s) for s in shape)))
    return {
        t
        for t in itertools.product(slot, repeat=len(k))
        if all(sum(ki * v[m] for ki, v in zip(k, t)) % shape[m] == 0 for m in range(len(shape)))
    }


def lift_residues(res: set, rank: int, factors, e: int, e2: int) -> set:
    """The same set of tuples written modulo e2, a multiple of e."""
    old = quotient_shape(rank, factors, e)
    new = quotient_shape(rank, factors, e2)
    out = set()
    for t in res:
        per_slot = [
            list(
                itertools.product(
                    *(range(v, ns, os) for v, os, ns in zip(vec, old, new))
                )
            )
            for vec in t
        ]
        out.update(itertools.product(*per_slot))
    return out


# -- enumeration --------------------------------------------------------------------


def _sqrt(q: Fraction):
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


def rational_points(g: Group, h: int) -> set:
    """All points of naive height <= h.  On an integral curve model x has a
    square denominator, so only u/d^2 is tried; the circle is scanned in
    full (its heights stay small here)."""
    out = {None}
    integral = g.kind == "curve" and g.a.denominator == 1 and g.b.denominator == 1
    dens = [d * d for d in range(1, math.isqrt(h) + 1)] if integral else range(1, h + 1)
    for v in dens:
        for u in range(-h, h + 1):
            if math.gcd(u, v) != 1:
                continue
            x = Fraction(u, v)
            rhs = x**3 + g.a * x + g.b if g.kind == "curve" else 1 - x * x
            y = _sqrt(rhs)
            if y is None:
                continue
            for p in {(x, y), (x, -y)}:
                p = g.norm(p)
                if p is not None:
                    out.add(p)
    return out


def bounded_coords(g: Group, free, tors, factors, h: int) -> dict:
    """Shell expansion with the documented stop rule: coefficient shells
    grow until two consecutive shells hold no element within height h."""
    out = {}
    if not free:
        box = Box(g, free, tors, factors, 0)
        return {c: p for c, p in box.items if naive_height(p) <= h}
    misses, m = 0, 0
    while misses < 2:
        hit = False
        box = Box(g, free, tors, factors, m)
        for c, p in box.items:
            if max((abs(v) for v in c[0]), default=0) == m and naive_height(p) <= h:
                out[c] = p
                hit = True
        misses = 0 if hit else misses + 1
        m += 1
    return out


def histogram(points, lo: Fraction, hi: Fraction, bins: int) -> list[int]:
    width = (hi - lo) / bins
    counts = [0] * bins
    for p in points:
        if p is None or p[0] < lo or p[0] > hi:
            continue
        counts[min(int((p[0] - lo) / width), bins - 1)] += 1
    return counts
