"""Exact integer matrix utilities: Smith normal form with transform
tracking, integer kernels, determinants, and a small lattice-of-rows helper.

Everything works on plain Python ints (arbitrary precision); matrices are
lists of row lists and are never mutated in place by the public functions.
"""

from __future__ import annotations

from .errors import InputError


def _copy_matrix(mat) -> list[list[int]]:
    rows = [list(map(int, row)) for row in mat]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise InputError("ragged matrix")
    return rows


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    if not a or not b:
        return []
    if len(a[0]) != len(b):
        raise InputError("matrix shape mismatch in multiply")
    cols = len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(cols)]
        for i in range(len(a))
    ]


def smith_normal_form(mat) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (U, D, V) with U*M*V = D, U and V unimodular, D diagonal with
    nonnegative entries in a divisibility chain d1 | d2 | ...

    Classic elimination with smallest-pivot selection; division steps only
    ever use Euclidean quotients, so everything stays integral.
    """
    a = _copy_matrix(mat)
    m = len(a)
    n = len(a[0]) if a else 0
    u = _identity(m)
    v = _identity(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row_dst += q * row_src
        arow, asrc = a[dst], a[src]
        for idx in range(n):
            arow[idx] += q * asrc[idx]
        urow, usrc = u[dst], u[src]
        for idx in range(m):
            urow[idx] += q * usrc[idx]

    def add_col(src, dst, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # smallest nonzero entry of the trailing submatrix becomes the pivot
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(pivot[2])):
                    pivot = (i, j, a[i][j])
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # shrink column t
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            # shrink row t
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the submatrix; if not, fold the
            # offending row in and keep reducing
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    return u, a, v


def invariant_factors(mat) -> list[int]:
    """Nonzero diagonal of the Smith form."""
    _, d, _ = smith_normal_form(mat)
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if d[i][i] != 0:
            out.append(d[i][i])
    return out


def kernel_basis(mat, width: int | None = None) -> list[list[int]]:
    """Basis of the integer kernel {x : M x = 0}, as a list of vectors.

    `width` must be given when the matrix has no rows (the kernel is then
    all of Z^width).
    """
    a = _copy_matrix(mat)
    if not a:
        if width is None:
            raise InputError("kernel of an empty matrix needs an explicit width")
        return _identity(width)
    n = len(a[0])
    _, d, v = smith_normal_form(a)
    rank = sum(1 for i in range(min(len(d), n)) if d[i][i] != 0)
    # columns of V past the rank span the kernel
    return [[v[i][j] for i in range(n)] for j in range(rank, n)]


def determinant(mat) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    a = _copy_matrix(mat)
    n = len(a)
    if n == 0:
        return 1
    if len(a[0]) != n:
        raise InputError("determinant needs a square matrix")
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


def row_echelon_lattice_basis(vectors, dim: int) -> list[list[int]]:
    """Echelon basis (strictly increasing pivot columns, each row's first
    nonzero entry is its pivot) of the lattice spanned by the given vectors.
    """
    rows = []
    for v in vectors:
        v = list(map(int, v))
        if len(v) != dim:
            raise InputError(f"vector length {len(v)} != lattice dim {dim}")
        if any(v):
            rows.append(v)
    basis: list[list[int]] = []
    for col in range(dim):
        live = [r for r in rows if r[col] != 0]
        rows = [r for r in rows if r[col] == 0]
        if not live:
            continue
        piv = live[0]
        for r in live[1:]:
            # unimodular 2x2 step leaving gcd at (piv, col) and 0 at (r, col)
            g, s, t = _xgcd(piv[col], r[col])
            qp, qr = piv[col] // g, r[col] // g
            piv, r = (
                [s * piv[j] + t * r[j] for j in range(dim)],
                [qp * r[j] - qr * piv[j] for j in range(dim)],
            )
            if any(r):
                rows.append(r)
        if piv[col] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
    return basis


class ZLattice:
    """A sublattice of Z^n built from generating vectors, with exact
    membership tests against an echelon basis.  Sizes here are tiny, so the
    basis is just recomputed when generators change."""

    def __init__(self, dim: int, vectors=()):
        self.dim = dim
        self._gens: list[list[int]] = []
        self._basis: list[list[int]] = []
        for v in vectors:
            self.add_vector(v)

    def basis(self) -> list[list[int]]:
        return [row[:] for row in self._basis]

    @property
    def rank(self) -> int:
        return len(self._basis)

    def copy(self) -> ZLattice:
        dup = ZLattice(self.dim)
        dup._gens = [g[:] for g in self._gens]
        dup._basis = [b[:] for b in self._basis]
        return dup

    def add_vector(self, vec) -> None:
        v = list(map(int, vec))
        if len(v) != self.dim:
            raise InputError(f"vector length {len(v)} != lattice dim {self.dim}")
        self._gens.append(v)
        self._basis = row_echelon_lattice_basis(self._gens, self.dim)

    def __contains__(self, vec) -> bool:
        v = list(map(int, vec))
        if len(v) != self.dim:
            return False
        for row in self._basis:
            col = next(j for j, x in enumerate(row) if x != 0)
            if v[col] == 0:
                continue
            if v[col] % row[col] != 0:
                return False
            q = v[col] // row[col]
            v = [v[j] - q * row[j] for j in range(self.dim)]
        return all(x == 0 for x in v)

    def coset_points(self, anchor, radius: int):
        """The points of anchor + L inside [-radius, radius]^dim, in
        lexicographic order, straight from the echelon basis.

        Pivots are positive and strictly increasing, so a point's order is
        the order of its multipliers (c_1, c_2, ...): c_i alone moves the
        pivot column of row i, and its range is read off that column.  The
        columns between two pivots are settled once the earlier multiplier
        is chosen and are checked right then."""
        anchor = list(map(int, anchor))
        if len(anchor) != self.dim:
            raise InputError(f"vector length {len(anchor)} != lattice dim {self.dim}")
        basis = self._basis
        pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
        # row i settles the columns from its pivot up to the next pivot
        ends = pivots[1:] + [self.dim]

        def inside(v, lo, hi):
            return all(-radius <= v[j] <= radius for j in range(lo, hi))

        def walk(i, v):
            if i == len(basis):
                yield tuple(v)
                return
            row, col = basis[i], pivots[i]
            for c in range(-((radius + v[col]) // row[col]), (radius - v[col]) // row[col] + 1):
                w = [x + c * y for x, y in zip(v, row)]
                if inside(w, col + 1, ends[i]):
                    yield from walk(i + 1, w)

        if inside(anchor, 0, pivots[0] if basis else self.dim):
            yield from walk(0, anchor)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t
