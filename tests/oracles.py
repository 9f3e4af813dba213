"""Independent reference implementations used only by the tests.

These deliberately avoid the production code paths: the Smith form oracle
diagonalizes with explicit elementary operations and never tracks the
transforms; the torsion oracles find finite-order points by exhaustion,
once over an enumerated point list and once over the classical integral
candidates (y = 0 or y^2 dividing the discriminant term); multiples k*P
come from binary double-and-add over the chord-tangent law, not from
division values; the independence audit tests every sum of its box against
the full torsion subgroup, with no screen mod a prime; decompose is an
exact shell search that realizes every coefficient vector in turn, with no
search mod a prime; linear dependence scans coefficient shells for the
kernel of the free coordinates, told empty by the rank of a Fraction
elimination, not by a kernel basis.  Matrix products and Bareiss
determinants check the Smith transforms, and character images
k1*t1 + ... + kn*tn summed by the group law check coordinate membership.
On a two-component curve the identity branch is told from the oval by a
rational point of the gap between them, found by bisection until the cubic
is negative, not by the closed-form x^2 > -a/3 test.
"""

import itertools
import math

from fractions import Fraction

from mordell.fg_group import Undecided, _span, shell
from mordell.group_core import (
    IDENTITY,
    _add_raw,
    add,
    discriminant_term,
    enumerate_rational_points,
    is_identity,
    negate,
    point,
    scalar_mul,
    torsion_subgroup,
)


def naive_invariant_factors(mat) -> list[int]:
    """Smallest-pivot elementary-operations diagonalization."""
    m = [list(row) for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    out = []
    top = 0
    while top < rows and top < cols:
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                if m[i][j] and (
                    best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])
                ):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best
        m[top], m[i0] = m[i0], m[top]
        for row in m:
            row[top], row[j0] = row[j0], row[top]
        pivot = m[top][top]
        dirty = False
        for i in range(top + 1, rows):
            q = m[i][top] // pivot
            if q:
                for j in range(top, cols):
                    m[i][j] -= q * m[top][j]
            if m[i][top]:
                dirty = True
        for j in range(top + 1, cols):
            q = m[top][j] // pivot
            if q:
                for i in range(top, rows):
                    m[i][j] -= q * m[i][top]
            if m[top][j]:
                dirty = True
        if dirty:
            continue  # a remainder became the new smallest pivot candidate
        bad_row = None
        for i in range(top + 1, rows):
            if any(m[i][j] % pivot for j in range(top + 1, cols)):
                bad_row = i
                break
        if bad_row is not None:
            # fold the offending row in so the pivot can shrink to the gcd
            for j in range(top, cols):
                m[top][j] += m[bad_row][j]
            continue
        out.append(abs(pivot))
        top += 1
    return out


def mat_mul(a, b):
    """The integer matrix product a*b."""
    if not a or not b:
        return []
    assert all(len(row) == len(b) for row in a), "matrix shape mismatch in multiply"
    assert all(len(row) == len(b[0]) for row in b), "ragged right factor"
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def determinant(mat) -> int:
    """Exact determinant of a square matrix by fraction-free Bareiss
    elimination."""
    a = [list(row) for row in mat]
    n = len(a)
    if n == 0:
        return 1
    assert all(len(row) == n for row in a), "determinant needs a square matrix"
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def character_image(gamma, k, points):
    """k1*t1 + ... + kn*tn, computed by the group laws alone."""
    assert len(k) == len(points)
    acc = IDENTITY
    for ki, p in zip(k, points):
        acc = _add_raw(gamma.backend, acc, scalar_mul(gamma.backend, ki, p))
    return acc


def brute_torsion_points(backend, height_bound: int = 200, cap: int = 16):
    """All enumerated points whose order divides some n <= cap."""
    found = []
    for p in enumerate_rational_points(backend, height_bound):
        acc = p
        for _ in range(cap):
            if is_identity(acc):
                found.append(p)
                break
            acc = add(backend, acc, p)
    return found


def brute_point_order(backend, p, cap: int = 30):
    """Order by repeated addition; None when it exceeds cap."""
    acc = p
    for n in range(1, cap + 1):
        if is_identity(acc):
            return n
        acc = add(backend, acc, p)
    return None


def nagell_lutz_torsion(curve, cap: int = 16):
    """Affine finite-order points on an integral-coefficient curve.

    A finite-order affine point has integer coordinates with y = 0 or
    y^2 dividing 16(4a^3 + 27b^2), so scanning those candidates and
    discarding points whose order exceeds cap is exhaustive.
    """
    a = int(curve.a)
    b = int(curve.b)
    disc = abs(16 * (4 * a**3 + 27 * b**2))
    ys = [0]
    y = 1
    while y * y <= disc:
        if disc % (y * y) == 0:
            ys.extend((y, -y))
        y += 1
    found = []
    for y0 in ys:
        c = b - y0 * y0
        xs = set()
        if c == 0:
            xs.add(0)
            r = math.isqrt(abs(a))
            if a < 0 and r * r == -a:
                xs.update((r, -r))
        else:
            # the cubic is monic, so an integer root divides the constant term
            for d in range(1, abs(c) + 1):
                if abs(c) % d == 0:
                    xs.update((d, -d))
        for x0 in sorted(xs):
            if x0**3 + a * x0 + c == 0:
                p = point(curve, x0, y0)
                if brute_point_order(curve, p, cap) is not None:
                    found.append(p)
    return found


def double_and_add_mul(backend, k: int, p):
    """k*p by binary double-and-add; negative k goes through the inverse."""
    if k < 0:
        p = negate(backend, p)
        k = -k
    acc = IDENTITY
    base = p
    while k:
        if k & 1:
            acc = _add_raw(backend, acc, base)
        k >>= 1
        if k:
            base = _add_raw(backend, base, base)
    return acc


def audit_by_torsion_set(backend, generators, audit_bound: int = 8):
    """The independence audit summed exactly over its whole box.

    The generators of infinite order are combined over every coefficient
    vector of max-norm 1..audit_bound in shell order, and each sum is looked
    up in the full torsion subgroup.  Returns the audit's message for the
    first relation found, or None."""
    free = [g for g in generators if brute_point_order(backend, g, cap=12) is None]
    torsion = set(_span(backend, torsion_subgroup(backend).generators))
    for m in range(1, audit_bound + 1):
        for k in shell(len(free), m):
            s = IDENTITY
            for ki, g in zip(k, free):
                s = _add_raw(backend, s, double_and_add_mul(backend, ki, g))
            if s in torsion:
                rel = " + ".join(f"{ki}*g{i+1}" for i, ki in enumerate(k) if ki)
                return f"free generators fail the independence audit: {rel} is torsion"
    return None


def shell_search_decompose(gamma, p, bound: int):
    """decompose by exact shell search: the first coords in canonical order
    (free max-norm shells ascending) that realize p, or Undecided(bound)."""
    for c in gamma.iter_coords(bound):
        if gamma.realize(c) == p:
            return c
    return Undecided(bound)


def shell_search_linear_dependence(gamma, points, bound: int):
    """linear_dependence by exact shell search: None when the free coords
    of the points are independent over Q, else the lexicographically least
    vector with first nonzero entry positive in the first shell holding a
    k with k1*c1 + ... + km*cm = 0."""
    cols = [gamma.decompose(p, bound).free for p in points]
    m = len(cols)
    if rational_rank(cols) == m:
        return None
    for norm in itertools.count(1):
        hits = [
            k
            for k in shell(m, norm)
            if next(x for x in k if x) > 0
            and all(sum(kj * c[i] for kj, c in zip(k, cols)) == 0 for i in range(gamma.rank))
        ]
        if hits:
            return min(hits)


def rational_rank(vectors) -> int:
    """Rank over Q of a list of integer vectors, by Gaussian elimination."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in rows[rank:] if r[col]), None)
        if piv is None:
            continue
        rows.remove(piv)
        rows.insert(rank, piv)
        for r in rows[rank + 1 :]:
            f = r[col] / piv[col]
            r[:] = [a - f * b for a, b in zip(r, piv)]
        rank += 1
    return rank


def unbounded_branch_separator(curve) -> Fraction | None:
    """A rational c strictly between the two largest real roots of the
    cubic, or None when there is a single real root.

    With roots e1 < e2 < e3 the curve's real points split into the bounded
    oval (x in [e1, e2]) and the unbounded identity branch (x >= e3), so
    comparing x against c classifies every point exactly.  Found by
    bisecting toward the local minimum of the cubic at sqrt(-a/3), where
    the cubic is strictly negative; only rational arithmetic is used.
    """
    if discriminant_term(curve) > 0:
        return None
    # three distinct real roots force a < 0, so the local minimum is at
    # t = sqrt(-a/3) > 0 and lies strictly between e2 and e3
    lo = Fraction(0)
    hi = 1 + max(Fraction(0), -curve.a / 3)
    while True:
        mid = (lo + hi) / 2
        if mid**3 + curve.a * mid + curve.b < 0:
            # mid >= 0 and cubic negative puts mid strictly inside (e2, e3)
            return mid
        if 3 * mid**2 + curve.a <= 0:
            lo = mid
        else:
            hi = mid
