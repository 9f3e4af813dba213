"""Finitely generated subgroups given by generator lists.

A GammaSpec fixes coordinates on the subgroup: the free generators give a
Z^r part, the torsion generators a product of cyclic factors, and every
element a GammaSpec can name is an integer coordinate vector.  Membership is
only semi-decided: decompose searches a bounded coefficient box and
returns the first-class value Undecided(bound) when the box is exhausted.
Generators are trusted input; rank claims are audited only up to a bound
and never proved.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import InputError, PreconditionError, QuotientCeilingError, SpecValidationError
from . import group_core
from .group_core import (
    Backend,
    Circle,
    GroupPoint,
    IDENTITY,
    TORSION_EXPONENT,
    TorsionGroup,
    _add_raw,
    _multiple,
    good_reduction,
    group_structure,
    is_identity,
    is_torsion,
    naive_height,
    validate_backend,
)
from .records import record

DEFAULT_COEFF_BOUND = 16
DEFAULT_AUDIT_BOUND = 8
DEFAULT_QUOTIENT_CEILING = 10**6


@record
class Coords(NamedTuple):
    """Coordinates of a group element: integer coefficients on the free
    generators plus one residue per torsion invariant factor."""

    free: tuple[int, ...]
    torsion: tuple[int, ...] = ()

    def __str__(self):
        f = " ".join(str(c) for c in self.free)
        t = " ".join(str(c) for c in self.torsion)
        return f"free=[{f}] tors=[{t}]"

    def max_norm(self) -> int:
        return max((abs(c) for c in self.free), default=0)


@record
class Undecided(NamedTuple):
    """Search exhausted the coefficient box without a hit.  Not a 'no':
    membership beyond the bound is simply not known."""

    bound: int

    def __str__(self):
        return f"undecided(bound={self.bound})"


@record
class QuotientDesc(NamedTuple):
    """Structure of Gamma/l*Gamma.

    `shape` lists the order of each coordinate's image: l for every free
    coordinate, gcd(l, d_j) for the torsion factor d_j.  Factors of 1 are
    kept so residue vectors stay aligned with Coords.
    """

    shape: tuple[int, ...]
    size: int

    def reduce(self, coords: Coords) -> tuple[int, ...]:
        vals = list(coords.free) + list(coords.torsion)
        if len(vals) != len(self.shape):
            raise InputError("coords do not match quotient shape")
        return tuple(v % f for v, f in zip(vals, self.shape))

    def residues(self) -> Iterator[tuple[int, ...]]:
        yield from itertools.product(*(range(f) for f in self.shape))


@record
class Histogram(NamedTuple):
    lo: Fraction
    hi: Fraction
    counts: tuple[int, ...]

    @property
    def bins(self) -> int:
        return len(self.counts)

    def total(self) -> int:
        return sum(self.counts)

    def edges(self) -> list[Fraction]:
        width = (self.hi - self.lo) / self.bins
        return [self.lo + i * width for i in range(self.bins + 1)]


class GammaSpec:
    """A finitely generated subgroup of a backend group, with coordinates.

    Construction reduces the generators mod two good primes and splits them
    into free and torsion parts: g is free when e*g (e kills all rational
    torsion) is not O mod either prime, and point_order decides the rest.
    It closes the torsion part into an explicit finite group and audits the
    free part for small integer dependencies with the same products,
    summing exactly only the rare vectors that vanish at both primes.
    Instances are immutable after construction except for two caches:
    generator multiples k*g and realized sums.

    Gamma is infinite, so every search over it is bounded: `ceiling` caps
    each coefficient box, decompose shell and quotient enumerated over it,
    each histogram's bin count and the point enumeration of axioms, here
    and in the modules built on it (check_ceiling).
    """

    def __init__(
        self,
        backend: Backend,
        generators: Sequence[GroupPoint],
        claimed_rank: int | None = None,
        label: str | None = None,
        ceiling: int = DEFAULT_QUOTIENT_CEILING,
    ):
        validate_backend(backend)
        self.backend = backend
        self.label = label
        self.audit_bound = DEFAULT_AUDIT_BOUND
        self.ceiling = ceiling
        # torsion points are integral on the integral model, so they leave the
        # primes alone.  e kills all rational torsion (mu_4 on the circle) and
        # reduction is a homomorphism: e*g != O at either prime proves g free
        self._reds = tuple(itertools.islice(good_reduction(backend, generators), 2))
        e = 4 if isinstance(backend, Circle) else TORSION_EXPONENT
        free, torsion_gens, self._images, products = [], [], [], []
        for g in generators:
            if not group_core.on_variety(backend, g):
                raise SpecValidationError(
                    f"generator {group_core.format_point(g)} is not on the variety"
                )
            img = tuple(red.point(g) for red in self._reds)
            h = tuple(red.mul(e, i) for red, i in zip(self._reds, img))
            if h != (None, None) or not is_torsion(backend, g):
                free.append(g)
                self._images.append(img)
                products.append(h)
            else:
                torsion_gens.append(g)
        self.free_gens: tuple[GroupPoint, ...] = tuple(free)
        self.torsion: TorsionGroup = group_structure(
            backend, _span(backend, torsion_gens)
        )
        if claimed_rank is not None and claimed_rank != len(self.free_gens):
            raise SpecValidationError(
                f"claimed rank {claimed_rank}, but {len(self.free_gens)} generators "
                f"have infinite order"
            )
        # the free then the torsion generators: coordinate i belongs to _gens[i]
        self._gens = self.free_gens + self.torsion.generators
        self._mults: dict[tuple[int, int], GroupPoint] = {}  # (i, k) -> k*_gens[i]
        self._realized: dict[tuple[tuple[int, ...], tuple[int, ...]], GroupPoint] = {}
        self._images += [tuple(red.point(g) for red in self._reds) for g in self.torsion.generators]
        self._audit_free_generators(products)

    # -- construction helpers ------------------------------------------------

    def _audit_free_generators(self, products) -> None:
        """Raise on the least relation in shell order: a nonzero k with
        |k_i| <= audit_bound and k_1*g_1 + ... + k_r*g_r torsion.  Its sum
        of k_i*h_i, h_i = e*g_i reduced (products, from the generator split),
        is zero mod both good primes; only the vectors _matches finds are
        summed exactly, in shell order."""
        b, tors = self.audit_bound, (0,) * len(self.torsion_factors)
        # the zero vector comes first, alone in shell 0
        for k in self._matches(products, [(-b, b)] * self.rank)((None, None))[1:]:
            if is_torsion(self.backend, self.realize(Coords(k, tors))):
                rel = " + ".join(f"{ki}*g{i+1}" for i, ki in enumerate(k) if ki)
                raise SpecValidationError(
                    f"free generators fail the independence audit: {rel} is torsion"
                )

    def _matches(self, images, ranges) -> Callable[[tuple], list[tuple[int, ...]]]:
        """A search: reduced target -> every integer vector c with lo_i <=
        c_i <= hi_i, (lo_i, hi_i) = ranges[i], whose sum c_1*images[1] + ...
        is the target mod both good primes, in shell order: max-norm of the
        first rank entries, then lexicographic.

        Baby-step giant-step (Shanks): c_i = a_i + s_i*b_i with p_i <= a_i <
        p_i + s_i, the strides s_i chosen so that the a-vectors and the
        b-vectors each number about the square root of the box; p_i keeps
        a_i near 0.  The sums of the a-vectors are tabulated and those of
        -s_i*b_i formed once, so a target costs one addition per b-vector mod
        the first prime, and one mod the second only on a hit there."""
        strides, babies, giants = [], [], []
        left = math.isqrt(math.prod(hi - lo + 1 for lo, hi in ranges))
        for lo, hi in ranges:
            s = min(hi - lo + 1, left)
            left, p = -(-left // s), max(lo, -(s // 2))
            strides.append(s)
            babies.append(range(p, p + s))
            giants.append(range((lo - p) // s, (hi - p) // s + 1))
        table: dict = {}
        for a, s1, s2 in self._sums(images, babies, [1] * len(ranges)):
            table.setdefault(s1, {}).setdefault(s2, []).append(a)
        giants = self._sums(images, giants, [-s for s in strides])
        red1, red2 = self._reds

        def search(target):
            t1, t2 = target
            found = [
                c
                for b, g1, g2 in giants
                for by_second in [table.get(red1.add(t1, g1))]
                if by_second
                for a in by_second.get(red2.add(t2, g2), ())
                for c in [tuple(ai + s * bi for ai, s, bi in zip(a, strides, b))]
                if all(lo <= ci <= hi for ci, (lo, hi) in zip(c, ranges))
            ]
            return sorted(found, key=lambda c: (max(map(abs, c[: self.rank]), default=0), c))

        return search

    def _sums(self, images, ranges, steps) -> list[tuple]:
        """(k, sum mod the first good prime, sum mod the second) for every
        vector k with k_i in ranges[i] (ranges holding 0), lexicographic, the
        sum being k_1*steps[1]*images[1] + ... reduced: multiples k >= 0 by
        successive addition, k < 0 by negation, and O is never added in."""
        out = [list(itertools.product(*ranges))]
        for j, red in enumerate(self._reds):
            sums = [None]
            for img, ks, step in zip(images, ranges, steps):
                n = max(-ks[0], ks[-1])
                pos = [None, red.mul(step, img[j]) if n else None]
                while len(pos) <= n:
                    pos.append(red.add(pos[-1], pos[1]))
                row = [pos[k] if k >= 0 else red.neg(pos[-k]) for k in ks]
                sums = [red.add(s, r) if s and r else s or r for s in sums for r in row]
            out.append(sums)
        return list(zip(*out))

    # -- basic structure -------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.free_gens)

    @property
    def torsion_factors(self) -> tuple[int, ...]:
        return self.torsion.invariant_factors

    def check_ceiling(self, size: int, what: str) -> None:
        """Refuse an enumeration of more than `ceiling` elements; what names
        it in the error."""
        if size > self.ceiling:
            raise QuotientCeilingError(size, self.ceiling, what)

    # -- realize ----------------------------------------------------------------

    def check_coords(self, coords: Coords) -> None:
        """Reject coords that do not fit the rank and torsion factors or are
        not integers."""
        if len(coords.free) != self.rank or len(coords.torsion) != len(
            self.torsion_factors
        ):
            raise InputError(
                f"coords {coords} do not fit rank {self.rank} and torsion "
                f"factors {self.torsion_factors}"
            )
        if any(not isinstance(c, int) for c in coords.free + coords.torsion):
            raise InputError(f"coords must be integers: {coords}")

    def realize(self, coords: Coords) -> GroupPoint:
        """Sum of coefficient multiples of the generators, exactly."""
        self.check_coords(coords)
        key = (coords.free, tuple(t % d for t, d in zip(coords.torsion, self.torsion_factors)))
        cached = self._realized.get(key)
        if cached is not None:
            return cached
        acc: GroupPoint = IDENTITY
        for i, c in enumerate(key[0] + key[1]):
            if c:
                mult = self._mults.get((i, c))
                if mult is None:
                    mult = self._mults[i, c] = _multiple(self.backend, c, self._gens[i])
                acc = _add_raw(self.backend, acc, mult)
        self._realized[key] = acc
        return acc

    # -- canonical coordinate enumeration ---------------------------------------

    def shell_coords(self, m: int) -> Iterator[Coords]:
        """All coords with free max-norm exactly m: free vectors in shell
        order, torsion residues lexicographic within each."""
        tors_space = list(
            itertools.product(*(range(d) for d in self.torsion_factors))
        )
        for free in shell(self.rank, m):
            for t in tors_space:
                yield Coords(free, t)

    def iter_coords(self, bound: int) -> Iterator[Coords]:
        """All coords with |free coefficient| <= bound, every torsion
        residue, in the canonical order: free max-norm shells ascending,
        lexicographic within a shell, torsion residues lexicographic."""
        if bound < 0:
            raise InputError("coefficient bound must be >= 0")
        for m in range(bound + 1):
            yield from self.shell_coords(m)

    def box(
        self, n: int, bound: int
    ) -> Iterator[tuple[tuple[Coords, ...], tuple[GroupPoint, ...]]]:
        """Every n-tuple of the coefficient box as (coords, points): each
        slot in canonical order, slot 1 varying slowest.  The bound and the
        box size (2*bound+1)^(rank*n) * |torsion|^n are checked against the
        ceiling on the call; points are realized once iteration starts."""
        if bound < 0:
            raise InputError("coefficient bound must be >= 0")
        self.check_ceiling(
            ((2 * bound + 1) ** self.rank * math.prod(self.torsion_factors)) ** n, "coefficient box"
        )

        def tuples():
            coords = list(self.iter_coords(bound))
            points = [self.realize(c) for c in coords]
            yield from zip(itertools.product(coords, repeat=n), itertools.product(points, repeat=n))

        return tuples()

    # -- decompose and friends ----------------------------------------------------

    def decompose(self, p: GroupPoint, bound: int = DEFAULT_COEFF_BOUND) -> Coords | Undecided:
        """decompose_many of the one point p."""
        return next(self.decompose_many([p], bound))

    def decompose_many(
        self, points: Iterable[GroupPoint], bound: int = DEFAULT_COEFF_BOUND
    ) -> Iterator[Coords | Undecided]:
        """Coords realizing each point in turn with all |free coefficients| <=
        bound, or Undecided(bound); lazily, so an error comes at its point.

        Reduction is a homomorphism, so the coords of p are among those whose
        reduced sum is p mod both good primes (_matches, one baby-step table
        for all the points), and only those are realized, in shell order;
        the first that realizes p exactly is the minimal-norm representative.
        The search covers the shells m <= m*, m* the largest whose box
        (2m+1)^rank * |torsion| fits the ceiling; with no hit there and
        m* < bound, shell m* + 1 raises QuotientCeilingError."""
        if bound < 0:
            raise InputError("coefficient bound must be >= 0")
        r, factors = self.rank, self.torsion_factors
        # m*, -1 when not even shell 0 fits
        top = bisect.bisect_right(
            range(bound + 1), self.ceiling, key=lambda m: (2 * m + 1) ** r * math.prod(factors)
        ) - 1
        if top >= 0:
            search = self._matches(self._images, [(-top, top)] * r + [(0, d - 1) for d in factors])
        for p in points:
            group_core._require_on_variety(self.backend, p)
            for c in search(tuple(red.point(p) for red in self._reds)) if top >= 0 else ():
                if self.realize(Coords(c[:r], c[r:])) == p:
                    yield Coords(c[:r], c[r:])
                    break
            else:
                if top < bound:
                    # the box of shell m* + 1
                    self.check_ceiling((2 * top + 3) ** r * math.prod(factors), "decompose shell")
                yield Undecided(bound)

    def divisible_in_gamma(
        self, p: GroupPoint, n: int, bound: int = DEFAULT_COEFF_BOUND
    ) -> Coords | None:
        """Coords of some q in Gamma with n*q = p, or None when no such q
        exists in Gamma.  p itself must decompose at the bound."""
        if n < 1:
            raise InputError(f"divisor must be >= 1, got {n}")
        c = self.decompose(p, bound)
        if isinstance(c, Undecided):
            raise PreconditionError(
                f"point does not decompose at bound {bound}; divisibility undecided"
            )
        if any(ci % n for ci in c.free):
            return None
        tors = []
        for t, d in zip(c.torsion, self.torsion_factors):
            g = math.gcd(n, d)
            if t % g:
                return None
            # smallest nonnegative s with n*s = t (mod d)
            tors.append((t // g) * pow(n // g, -1, d // g) % (d // g))
        q = Coords(tuple(ci // n for ci in c.free), tuple(tors))
        return q

    def gamma_mod(self, l: int) -> QuotientDesc:
        """Structure of Gamma/l*Gamma."""
        if l < 1:
            raise InputError(f"modulus must be >= 1, got {l}")
        shape = (l,) * self.rank + tuple(math.gcd(l, d) for d in self.torsion_factors)
        size = math.prod(shape) if shape else 1
        self.check_ceiling(size, "quotient")
        return QuotientDesc(shape=shape, size=size)

    def linear_dependence(
        self, points: Sequence[GroupPoint], bound: int = DEFAULT_COEFF_BOUND
    ) -> tuple[int, ...] | None:
        """A shortest (max-norm) nonzero integer vector k with
        k1*p1 + ... + km*pm in the torsion subgroup, or None when the free
        coordinate vectors are independent.  Ties go to the lexicographically
        least k whose first nonzero entry is positive.  Such k form the kernel
        lattice of the free coordinate matrix, walked in the box of its
        shortest basis vector."""
        from .intlinalg import ZLattice, kernel_basis

        if not points:
            raise InputError("need at least one point")
        cols = []
        for idx, c in enumerate(self.decompose_many(points, bound)):
            if isinstance(c, Undecided):
                raise PreconditionError(
                    f"point {idx + 1} of {len(points)} does not decompose at "
                    f"bound {bound}; dependence undecided"
                )
            cols.append(c.free)
        m = len(points)
        matrix = [[cols[j][i] for j in range(m)] for i in range(self.rank)]
        basis = kernel_basis(matrix, width=m)
        if not basis:
            return None
        radius = min(max(map(abs, v)) for v in basis)
        return min(
            (max(map(abs, k)), k)
            for k in ZLattice(m, basis).coset_points((0,) * m, radius)
            if next((x for x in k if x), 0) > 0
        )[1]

    # -- density probes -------------------------------------------------------------

    def bounded_points(self, height_bound: int) -> list[tuple[Coords, GroupPoint]]:
        """Realized elements with naive height <= height_bound, found by
        expanding coefficient shells until two consecutive shells stay over
        budget.  Heights grow quadratically along multiples, so the early
        stop loses nothing at practical bounds."""
        if height_bound < 0:
            raise InputError("height bound must be >= 0")
        out = []
        misses = 0
        m = 0
        while misses < 2:
            hit = False
            for c in self.shell_coords(m):
                p = self.realize(c)
                if naive_height(p) <= height_bound:
                    out.append((c, p))
                    hit = True
            misses = 0 if hit else misses + 1
            m += 1
        return out

    def projection_density(
        self, lo: Fraction, hi: Fraction, height_bound: int, bins: int
    ) -> Histogram:
        """Histogram of x-coordinates of realized elements within the
        height budget.  Identity has no x-coordinate and is not counted.
        More bins than the ceiling raise QuotientCeilingError."""
        self.check_ceiling(bins, "histogram")
        pts = [p for _, p in self.bounded_points(height_bound)]
        return make_histogram((p for p in pts if not is_identity(p)), lo, hi, bins)


def shell(rank: int, m: int) -> Iterator[tuple[int, ...]]:
    """The integer vectors of length rank and max-norm exactly m, in
    lexicographic order."""
    if rank == 0:
        if m == 0:
            yield ()
        return

    def face(c):
        return ((c, *tail) for tail in itertools.product(range(-m, m + 1), repeat=rank - 1))

    yield from face(-m)
    if m == 0:
        return
    if rank > 1:
        # the vectors off both faces; rank 1 has none and scans nothing
        for c in range(1 - m, m):
            yield from ((c, *tail) for tail in shell(rank - 1, m))
    yield from face(m)


def _span(backend: Backend, gens: Sequence[GroupPoint]) -> list[GroupPoint]:
    """Closure of a finite set of finite-order points under the group law."""
    elems = {IDENTITY}
    frontier = [IDENTITY]
    gens = [g for g in gens]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _add_raw(backend, p, g)
                if q not in elems:
                    if len(elems) > 10**4:
                        raise InputError("torsion closure exploded; bad generators?")
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    return list(elems)


def make_histogram(points, lo: Fraction, hi: Fraction, bins: int) -> Histogram:
    """Counts of x-coordinates in [lo, hi] split into equal bins; the right
    endpoint lands in the last bin."""
    if not lo < hi:
        raise InputError("interval needs lo < hi")
    if bins < 1:
        raise InputError("bins must be >= 1")
    width = (Fraction(hi) - Fraction(lo)) / bins
    counts = [0] * bins
    for p in points:
        x = p.x
        if x < lo or x > hi:
            continue
        idx = min(int((x - lo) / width), bins - 1)
        counts[idx] += 1
    return Histogram(lo=Fraction(lo), hi=Fraction(hi), counts=tuple(counts))
