"""Correctness checks, run after the timed loop.

Every answer is checked by what it means, against `oracle`: solution sets
and verdict kinds must match the oracle's, and every witness, counterexample,
coordinate vector and suggested decomposition must re-verify exactly.  The
order in which a search reports its findings is never checked, so a change
of enumeration order that keeps the contract keeps passing.

Checks take answers in one plain form (points are `None` or `(x, y)`
Fractions, coordinates are `(free, torsion)` tuples), so in-process results
and parsed `--machine` records share them.  Each check returns None when the
answer is right and a short reason otherwise.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import oracle
import specs


def pt(p):
    """A program point (Affine or IDENTITY) in the oracle's form."""
    return (p.x, p.y) if hasattr(p, "x") else None


def coords(c) -> tuple:
    return (tuple(c.free), tuple(c.torsion))


class Checker:
    """Oracle state shared by the checks of one run: verified generator
    bases, realized coefficient boxes, zero sets and torsion verdicts."""

    def __init__(self):
        self._bases = {}
        self._boxes = {}
        self._zero_sets = {}
        self._torsion = {}

    def basis(self, label: str):
        """(group, free, torsion gens, factors) in the program's torsion basis,
        after checking that basis against the oracle."""
        if label not in self._bases:
            g = specs.group(label)
            gamma = specs.build(label)
            tors = [pt(p) for p in gamma.torsion.generators]
            factors = tuple(gamma.torsion.invariant_factors)
            free = [q for q in specs.generators(label) if g.order(q) is None]
            finite = [q for q in specs.generators(label) if g.order(q) is not None]
            if not oracle.torsion_basis_ok(g, factors, tors) or oracle.span(g, tors) != oracle.span(g, finite):
                raise AssertionError(f"program torsion basis of {label} is wrong")
            self._bases[label] = (g, free, tors, factors)
        return self._bases[label]

    def box(self, label: str, bound: int) -> oracle.Box:
        key = (label, bound)
        if key not in self._boxes:
            g, free, tors, factors = self.basis(label)
            self._boxes[key] = oracle.Box(g, free, tors, factors, bound)
        return self._boxes[key]

    def zero_set(self, label: str, bound: int, poly, n: int):
        key = (label, bound, poly, n)
        if key not in self._zero_sets:
            self._zero_sets[key] = oracle.zero_set(self.box(label, bound), poly, n)
        return self._zero_sets[key]

    def torsion_ok(self, g: oracle.Group, factors, gens) -> bool:
        key = (g.kind, g.a, g.b, tuple(factors), tuple(gens))
        if key not in self._torsion:
            self._torsion[key] = oracle.torsion_complete(g, factors, gens)
        return self._torsion[key]


def _tuple_coords(box: oracle.Box, points):
    out = []
    for p in points:
        if p not in box.coords_of:
            return None
        out.append(box.coords_of[p])
    return tuple(out)


def check_solve(chk: Checker, label, bound, poly, n, ans):
    box = chk.box(label, bound)
    want, want_skipped, _ = chk.zero_set(label, bound, poly, n)
    got = []
    for t in ans["solutions"]:
        c = _tuple_coords(box, t)
        if c is None:
            return "solution tuple outside the coefficient box"
        got.append(c)
    if len(got) != len(set(got)):
        return "duplicate solution tuples"
    if set(got) != want:
        return f"solution set differs: {len(got)} reported, {len(want)} expected"
    if ans["skipped"] != want_skipped:
        return f"skipped {ans['skipped']}, expected {want_skipped}"
    return None


def _mismatch(chk: Checker, label, bound, poly, n, pairs):
    """First non-skipped box tuple where solution and union membership
    disagree, as (coords tuple, is_solution), or None."""
    box = chk.box(label, bound)
    sols = chk.zero_set(label, bound, poly, n)[0]
    used = oracle.used_slots(poly, "x", n)
    for combo in itertools.product(box.items, repeat=n):
        if oracle.skipped([p for _, p in combo], used):
            continue
        c = tuple(cc for cc, _ in combo)
        if (c in sols) != oracle.in_union(c, pairs, box.factors):
            return c, c in sols
    return None


def check_verify(chk: Checker, label, bound, poly, n, pairs, ans):
    miss = _mismatch(chk, label, bound, poly, n, pairs)
    if ans["verdict"] == "verified":
        return None if miss is None else "verified, but the decomposition is wrong on the box"
    if ans["verdict"] != "counterexample":
        return f"unexpected verdict {ans['verdict']}"
    if miss is None:
        return "counterexample to a decomposition that holds on the box"
    box = chk.box(label, bound)
    c = _tuple_coords(box, ans["tuple"])
    if c is None:
        return "counterexample outside the coefficient box"
    if oracle.skipped(ans["tuple"], oracle.used_slots(poly, "x", n)):
        return "counterexample is a skipped tuple"
    is_sol = c in chk.zero_set(label, bound, poly, n)[0]
    in_u = oracle.in_union(c, pairs, box.factors)
    want = {"missing-from-union": (True, False), "not-a-solution": (False, True)}.get(ans["direction"])
    if (is_sol, in_u) != want:
        return f"counterexample does not re-verify as {ans['direction']}"
    return None


def check_suggest(chk: Checker, label, bound, poly, n, ans):
    sols = chk.zero_set(label, bound, poly, n)[0]
    if ans["verdict"] == "inconclusive":
        box = chk.box(label, bound)
        left = [_tuple_coords(box, t) for t in ans["unexplained"]]
        if not left or any(c not in sols for c in left):
            return "inconclusive with unexplained tuples that are not solutions"
        return None
    if _mismatch(chk, label, bound, poly, n, ans["pairs"]) is not None:
        return "suggested decomposition does not re-verify on the box"
    return None


def xs_env(xs) -> dict:
    return {("x", i + 1): Fraction(v) for i, v in enumerate(xs)}


def check_eval(chk: Checker, label, bound, formula, xs, ans):
    box = chk.box(label, bound)
    env = xs_env(xs)
    want = oracle.kleene(formula, env, box)
    if ans["result"] != want:
        return f"result {ans['result']}, expected {want}"
    blocks = oracle.blocks_of(formula)
    for w in ans.get("witnesses", []):
        ok = False
        for b in blocks:
            if b[1] != len(w) or _tuple_coords(box, w) is None:
                continue
            if oracle.skipped(w, oracle.used_slots(b[2], "y", b[1])):
                continue
            if oracle.qf_true(b[2], oracle.slot_env(w, "y", env)):
                ok = True
                break
        if not ok:
            return "witness does not re-verify"
    return None


def check_multiple(g: oracle.Group, k: int, base, ans):
    """ans must be k*base: on the curve, and equal to k*base in E(F_q) for
    two large primes q."""
    if not g.on(ans):
        return "multiple is off the curve"
    for q in oracle.PRIMES:
        if not oracle.same_mod(ans, oracle.curve_mul_mod(g, k, base, q), q):
            return f"multiple differs from k*P mod {q}"
    return None


def check_sum(label: str, p, q, ans):
    g = specs.group(label)
    return None if g.add(p, q) == ans else "sum differs"


def check_decompose(chk: Checker, label, bound, target, ans):
    """A found answer must realize the target inside the bound; Undecided is
    right only when no box element is the target."""
    box = chk.box(label, bound)
    if ans == "undecided":
        return None if target not in box.coords_of else "undecided, but the point is in the box"
    if ans not in box.points:
        return "coordinates outside the box or not reduced"
    return None if box.points[ans] == target else "coordinates realize another point"


def check_divisible(c, n, ans):
    if any(v % n for v in c[0]):
        return None if ans is None else "reported a quotient for an indivisible point"
    want = (tuple(v // n for v in c[0]), ())
    return None if ans == want else f"quotient {ans}, expected {want}"


def check_dependence(cols, ans):
    """cols: free coordinate vectors of the points; ans: shortest kernel
    vector.  Points are drawn so the kernel has rank one, spanned by the
    primitive vector of signed maximal minors."""
    r, m = len(cols[0]), len(cols)
    minors = []
    for j in range(m):
        rest = [cols[i] for i in range(m) if i != j]
        minors.append((-1) ** j * _det([[v[t] for v in rest] for t in range(r)]))
    g = math.gcd(*minors)
    want_norm = max(abs(v) for v in minors) // g
    if ans is None or not any(ans):
        return "no dependence reported"
    if any(sum(k * col[t] for k, col in zip(ans, cols)) for t in range(r)):
        return "reported vector is not a dependence"
    if max(abs(v) for v in ans) != want_norm:
        return "reported dependence is not the shortest"
    return None


def _det(mat) -> int:
    if len(mat) == 1:
        return mat[0][0]
    return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]


def check_points(g: oracle.Group, h: int, ans):
    want = oracle.rational_points(g, h)
    if len(ans) != len(set(ans)):
        return "duplicate points"
    return None if set(ans) == want else f"{len(ans)} points, expected {len(want)}"


def check_torsion(chk: Checker, g: oracle.Group, factors, gens):
    return None if chk.torsion_ok(g, factors, gens) else "torsion subgroup is wrong"


def check_bounded(chk: Checker, label, h, ans):
    want = oracle.bounded_coords(*chk.basis(label), h)
    return None if dict(ans) == want else "bounded points differ"


def check_histogram(chk: Checker, label, h, lo, hi, bins, ans):
    pts = oracle.bounded_coords(*chk.basis(label), h).values()
    want = oracle.histogram(pts, Fraction(lo), Fraction(hi), bins)
    return None if list(ans) == want else f"histogram {list(ans)}, expected {want}"
