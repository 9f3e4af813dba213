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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import InputError, PreconditionError, QuotientCeilingError, SpecValidationError
from . import group_core
from .group_core import (
    Backend,
    GroupPoint,
    IDENTITY,
    TORSION_EXPONENT,
    TorsionGroup,
    _add_raw,
    good_reduction,
    group_structure,
    is_identity,
    is_torsion,
    naive_height,
    scalar_mul,
    validate_backend,
)
from .intlinalg import kernel_basis

DEFAULT_COEFF_BOUND = 16
DEFAULT_AUDIT_BOUND = 8
DEFAULT_QUOTIENT_CEILING = 10**6


@dataclass(frozen=True)
class Coords:
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


@dataclass(frozen=True)
class Undecided:
    """Search exhausted the coefficient box without a hit.  Not a 'no':
    membership beyond the bound is simply not known."""

    bound: int

    def __str__(self):
        return f"undecided(bound={self.bound})"


@dataclass(frozen=True)
class QuotientDesc:
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


@dataclass(frozen=True)
class DensityEvidence:
    """Grid coverage of the identity component's x-projection by realized
    group elements.  Evidence only; bounded search proves nothing about
    density."""

    lo: Fraction
    hi: Fraction
    bins: int
    hit_bins: int
    points_seen: int
    low_coverage: bool


@dataclass(frozen=True)
class PurityFinding:
    """q is an enumerated rational point with n*q decomposable in Gamma but
    q itself Undecided at the bound: evidence against purity (axiom-style
    divisibility), not a proof."""

    witness: GroupPoint
    n: int
    bound: int


@dataclass(frozen=True)
class AxiomCheck:
    n: int
    quotient_size: int
    purity_findings: tuple[PurityFinding, ...]


@dataclass(frozen=True)
class AxiomsReport:
    density: DensityEvidence
    checks: tuple[AxiomCheck, ...]
    note: str = (
        "density and purity entries are bounded evidence, not proofs; "
        "decomposition-shape conditions are exercised by the ml verify command"
    )


@dataclass(frozen=True)
class Histogram:
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

    Construction splits the generator list into free and torsion parts by
    exact order computation, closes the torsion part into an explicit
    finite group, and audits the free part for small integer dependencies.
    Instances are immutable after construction except for internal
    realize caches.

    Gamma is infinite, so every search over it is bounded: `ceiling` caps
    each coefficient box, decompose shell and quotient enumerated over it,
    and each histogram's bin count, here and in the modules built on it
    (check_ceiling).
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
        free: list[GroupPoint] = []
        torsion_gens: list[GroupPoint] = []
        for g in generators:
            if not group_core.on_variety(backend, g):
                raise SpecValidationError(
                    f"generator {group_core.format_point(g)} is not on the variety"
                )
            if is_torsion(backend, g):
                torsion_gens.append(g)
            else:
                free.append(g)
        self.free_gens: tuple[GroupPoint, ...] = tuple(free)
        self.torsion: TorsionGroup = group_structure(
            backend, _span(backend, torsion_gens)
        )
        if claimed_rank is not None and claimed_rank != len(self.free_gens):
            raise SpecValidationError(
                f"claimed rank {claimed_rank}, but {len(self.free_gens)} generators "
                f"have infinite order"
            )
        self._free_mults: list[dict[int, GroupPoint]] = [
            {0: IDENTITY} for _ in self.free_gens
        ]
        self._tors_mults: list[dict[int, GroupPoint]] = [
            {0: IDENTITY} for _ in self.torsion.generators
        ]
        self._realized: dict[tuple[tuple[int, ...], tuple[int, ...]], GroupPoint] = {}
        self._index: dict[GroupPoint, Coords] = {}
        self._index_bound = -1
        self._audit_free_generators()

    # -- construction helpers ------------------------------------------------

    def _audit_free_generators(self) -> None:
        r = self.rank
        if r == 0:
            return
        # Screen mod a good prime: a torsion sum of the k_i*g_i reduces to a
        # point that TORSION_EXPONENT kills, so a vector whose reduced sum of
        # k_i*h_i, h_i = TORSION_EXPONENT*g_i, is not the identity has a sum
        # of infinite order.  Only the rare survivors are summed exactly.
        red = good_reduction(self.backend, self.free_gens)
        b = self.audit_bound
        mults = []
        for g in self.free_gens:
            h = red.mul(TORSION_EXPONENT, red.point(g))
            mults.append({k: red.mul(k, h) for k in range(-b, b + 1)})
        # shell order reports a relation of least max-norm
        for m in range(1, b + 1):
            for k in shell(r, m):
                s = None
                for i, ki in enumerate(k):
                    s = red.add(s, mults[i][ki])
                if s is not None:
                    continue
                p: GroupPoint = IDENTITY
                for i, ki in enumerate(k):
                    p = _add_raw(self.backend, p, self._free_multiple(i, ki))
                if is_torsion(self.backend, p):
                    rel = " + ".join(f"{ki}*g{i+1}" for i, ki in enumerate(k) if ki)
                    raise SpecValidationError(
                        f"free generators fail the independence audit: {rel} is torsion"
                    )

    # -- basic structure -------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.free_gens)

    @property
    def torsion_factors(self) -> tuple[int, ...]:
        return self.torsion.invariant_factors

    def check_ceiling(self, size: int) -> None:
        """Refuse an enumeration of more than `ceiling` elements."""
        if size > self.ceiling:
            raise QuotientCeilingError(size, self.ceiling)

    # -- realize ----------------------------------------------------------------

    def _free_multiple(self, i: int, k: int) -> GroupPoint:
        cache = self._free_mults[i]
        if k not in cache:
            cache[k] = scalar_mul(self.backend, k, self.free_gens[i])
        return cache[k]

    def _tors_multiple(self, j: int, t: int) -> GroupPoint:
        d = self.torsion_factors[j]
        t %= d
        cache = self._tors_mults[j]
        if t not in cache:
            gen = self.torsion.generators[j]
            start = max(c for c in cache if c <= t)
            acc = cache[start]
            for c in range(start + 1, t + 1):
                acc = _add_raw(self.backend, acc, gen)
                cache[c] = acc
        return cache[t]

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
        for i, c in enumerate(coords.free):
            if c:
                acc = _add_raw(self.backend, acc, self._free_multiple(i, c))
        for j, t in enumerate(key[1]):
            if t:
                acc = _add_raw(self.backend, acc, self._tors_multiple(j, t))
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
        self.check_ceiling(((2 * bound + 1) ** self.rank * math.prod(self.torsion_factors)) ** n)

        def tuples():
            slot = [(c, self.realize(c)) for c in self.iter_coords(bound)]
            for combo in itertools.product(slot, repeat=n):
                yield tuple(c for c, _ in combo), tuple(p for _, p in combo)

        return tuples()

    # -- decompose and friends ----------------------------------------------------

    def decompose(self, p: GroupPoint, bound: int = DEFAULT_COEFF_BOUND) -> Coords | Undecided:
        """Find coords realizing p with all |free coefficients| <= bound, by
        shell search; Undecided(bound) when the box is exhausted.

        The point index grows one shell at a time (_index_bound is the last
        shell fully indexed) and the search stops at the first shell that
        holds p.  Shells ascend and the first coords seen are kept, so the
        answer is the minimal-norm representative.  Indexing a shell m whose
        box (2m+1)^rank * |torsion| exceeds the ceiling raises
        QuotientCeilingError; a hit in a lower shell is still answered."""
        if bound < 0:
            raise InputError("coefficient bound must be >= 0")
        group_core._require_on_variety(self.backend, p)
        found = self._index.get(p)
        # with no free generators every shell past 0 is empty
        last = bound if self.rank else 0
        while found is None and self._index_bound < last:
            m = self._index_bound + 1
            self.check_ceiling((2 * m + 1) ** self.rank * math.prod(self.torsion_factors))
            for c in self.shell_coords(m):
                self._index.setdefault(self.realize(c), c)
            self._index_bound = m
            found = self._index.get(p)
        if found is not None and found.max_norm() <= bound:
            return found
        return Undecided(bound)

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
        self.check_ceiling(size)
        return QuotientDesc(shape=shape, size=size)

    def linear_dependence(
        self, points: Sequence[GroupPoint], bound: int = DEFAULT_COEFF_BOUND
    ) -> tuple[int, ...] | None:
        """A shortest (max-norm) nonzero integer vector k with
        k1*p1 + ... + km*pm in the torsion subgroup, or None when the free
        coordinate vectors are independent."""
        if not points:
            raise InputError("need at least one point")
        cols = []
        for idx, p in enumerate(points):
            c = self.decompose(p, bound)
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
        shortest = min(max(abs(x) for x in v) for v in basis)

        def in_kernel(k):
            return all(
                sum(kj * cols[j][i] for j, kj in enumerate(k)) == 0
                for i in range(self.rank)
            )

        for norm in range(1, shortest + 1):
            hits = []
            for k in shell(m, norm):
                if not in_kernel(k):
                    continue
                canon = k
                first = next(x for x in k if x)
                if first < 0:
                    canon = tuple(-x for x in k)
                hits.append(canon)
            if hits:
                return min(hits)
        # a kernel basis vector itself has the minimal norm, so this line is
        # unreachable; keep a hard failure rather than a silent wrong answer
        raise AssertionError("kernel search missed its own basis vector")

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
        self.check_ceiling(bins)
        pts = [p for _, p in self.bounded_points(height_bound)]
        return make_histogram((p for p in pts if not is_identity(p)), lo, hi, bins)

    def check_axioms_bounded(
        self,
        n_max: int,
        height_bound: int,
        sample_grid: tuple[Fraction, Fraction, int],
        bound: int = DEFAULT_COEFF_BOUND,
        rational_points: Sequence[GroupPoint] | None = None,
    ) -> AxiomsReport:
        """Bounded evidence for the subgroup axioms: grid coverage of the
        identity component (density), divisibility spot-checks over all
        enumerated rational points (purity), and quotient sizes.

        rational_points, when given, replaces the variety enumeration at
        height_bound (callers may hold a cached copy).  More bins than the
        ceiling raise QuotientCeilingError."""
        if n_max < 1:
            raise InputError("nMax must be >= 1")
        lo, hi, bins = sample_grid
        if not (lo < hi and bins >= 1):
            raise InputError("sample grid needs lo < hi and bins >= 1")
        self.check_ceiling(bins)
        gamma_pts = [
            p
            for _, p in self.bounded_points(height_bound)
            if not is_identity(p) and group_core.component_of(self.backend, p)
        ]
        hist = make_histogram(gamma_pts, lo, hi, bins)
        hit = sum(1 for c in hist.counts if c)
        density = DensityEvidence(
            lo=lo,
            hi=hi,
            bins=bins,
            hit_bins=hit,
            points_seen=len(gamma_pts),
            low_coverage=Fraction(hit, bins) < Fraction(1, 2),
        )
        if rational_points is None:
            enumerated = group_core.enumerate_rational_points(self.backend, height_bound)
        else:
            enumerated = list(rational_points)
        checks = []
        for n in range(1, n_max + 1):
            findings = []
            for q in enumerated:
                nq = scalar_mul(self.backend, n, q)
                if isinstance(self.decompose(nq, bound), Undecided):
                    continue
                if isinstance(self.decompose(q, bound), Undecided):
                    findings.append(PurityFinding(witness=q, n=n, bound=bound))
            checks.append(
                AxiomCheck(
                    n=n,
                    quotient_size=self.gamma_mod(n).size,
                    purity_findings=tuple(findings),
                )
            )
        return AxiomsReport(density=density, checks=tuple(checks))


def shell(rank: int, m: int) -> Iterator[tuple[int, ...]]:
    """The integer vectors of length rank and max-norm exactly m, in
    lexicographic order."""
    if rank == 0:
        if m == 0:
            yield ()
        return
    for c in range(-m, m + 1):
        if abs(c) == m:
            rest = itertools.product(range(-m, m + 1), repeat=rank - 1)
        else:
            rest = shell(rank - 1, m)
        for tail in rest:
            yield (c, *tail)


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
