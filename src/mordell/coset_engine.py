"""Integer characters on n-tuples and finite-modulus coset unions with exact
boolean algebra.

A character k = (k1, ..., kn) sends a tuple (t1, ..., tn) in Gamma^n to
k1*t1 + ... + kn*tn.  A CosetUnion is a union of classes of (l*Gamma)^n in
Gamma^n, given by explicit residue vectors in (Gamma/l*Gamma)^n, and it is
exactly the set it lists: dke finds its classes by enumerating the finite
quotient, and the set operations rescale both operands to one modulus, which
loses nothing.  in_coset decides whether a tuple, given by its coordinates,
lies in a coset base + ker(k); ml_checker's decompositions are finite unions
of such cosets.

Every quotient and residue enumeration here, every decomposition behind
member, and density_sample's bin count are bounded by the group's one
ceiling (GammaSpec.ceiling, default 10**6) and fail loudly past it.  The CLI
sets it with --ceiling, which so bounds coset dke, combine and member and
density --char, as it bounds point decompose, ml solve/verify/suggest, eval
and axioms.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError
from .fg_group import (
    DEFAULT_COEFF_BOUND,
    Coords,
    GammaSpec,
    Histogram,
    Undecided,
    make_histogram,
)
from .group_core import GroupPoint, is_identity

__all__ = [
    "Character",
    "CosetUnion",
    "dke",
    "in_coset",
    "full_union",
    "rescale",
    "union",
    "intersect",
    "difference",
    "complement",
    "member",
    "density_sample",
]

Character = tuple[int, ...]

# a residue is one element of (Gamma/lGamma)^n: an n-tuple of per-point
# quotient coordinate vectors
Residue = tuple[tuple[int, ...], ...]


def _check_character(k: Sequence[int]) -> Character:
    k = tuple(k)
    if not k:
        raise InputError("character needs length >= 1")
    if any(not isinstance(x, int) for x in k):
        raise InputError(f"character entries must be ints: {k}")
    return k


class _CosetUnionFields(NamedTuple):
    gamma: GammaSpec
    n: int
    modulus: int
    residues: tuple[Residue, ...]


class CosetUnion(_CosetUnionFields):
    """A finite union of residue classes of (l*Gamma)^n inside Gamma^n.

    The union is exactly the set of tuples whose residues it lists.
    residues are kept sorted and duplicate-free, so equal sets compare
    equal.  Equality and the hash leave gamma out.
    """

    __slots__ = ()

    def __new__(cls, gamma, n, modulus, residues):
        if n < 1:
            raise InputError("arity must be >= 1")
        if modulus < 1:
            raise InputError("modulus must be >= 1")
        shape = (modulus,) * gamma.rank + tuple(
            math.gcd(modulus, d) for d in gamma.torsion_factors
        )
        for res in residues:
            if len(res) != n:
                raise InputError(f"residue {res} has arity {len(res)}, expected {n}")
            for slot in res:
                if len(slot) != len(shape) or any(
                    not (0 <= v < s) for v, s in zip(slot, shape)
                ):
                    raise InputError(f"residue slot {slot} is not reduced mod {shape}")
        return super().__new__(cls, gamma, n, modulus, residues)

    def __eq__(self, other):
        return type(other) is CosetUnion and self[1:] == other[1:]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[1:])

    def residue_set(self) -> frozenset[Residue]:
        return frozenset(self.residues)


def _make(gamma: GammaSpec, n: int, modulus: int, residues: Iterable[Residue]) -> CosetUnion:
    return CosetUnion(
        gamma=gamma, n=n, modulus=modulus, residues=tuple(sorted(set(residues)))
    )


def _same_setting(a: CosetUnion, b: CosetUnion) -> None:
    if a.gamma is not b.gamma:
        raise InputError("coset unions come from different groups")
    if a.n != b.n:
        raise InputError(f"arity mismatch: {a.n} vs {b.n}")


def full_union(gamma: GammaSpec, n: int, modulus: int) -> CosetUnion:
    """All of Gamma^n, written at the given modulus."""
    desc = gamma.gamma_mod(modulus)
    gamma.check_ceiling(desc.size**n, "residue enumeration")
    return _make(
        gamma, n, modulus, itertools.product(desc.residues(), repeat=n)
    )


def dke(gamma: GammaSpec, k: Sequence[int], e: int) -> CosetUnion:
    """The set of tuples whose character image is divisible by e, i.e. the
    kernel of the induced map (Gamma/eGamma)^n -> Gamma/eGamma, found by
    enumerating the finite quotient."""
    k = _check_character(k)
    if e < 1:
        raise InputError(f"e must be >= 1, got {e}")
    n = len(k)
    desc = gamma.gamma_mod(e)
    gamma.check_ceiling(desc.size**n, "residue enumeration")
    shape = desc.shape
    hits = []
    for t in itertools.product(desc.residues(), repeat=n):
        if all(
            sum(ki * v[m] for ki, v in zip(k, t)) % shape[m] == 0
            for m in range(len(shape))
        ):
            hits.append(t)
    return _make(gamma, n, e, hits)


def in_coset(
    gamma: GammaSpec,
    k: Sequence[int],
    base: Sequence[Coords],
    coords: Sequence[Coords],
) -> bool:
    """Whether the tuple with these coords lies in base + ker(k): the
    combination k1*(c1 - b1) + ... + kn*(cn - bn) is zero in every free
    coordinate and zero mod d_j in every torsion coordinate.  Coordinates
    are trusted to fit gamma (see GammaSpec.check_coords)."""
    for m in range(gamma.rank):
        if sum(ki * (c.free[m] - b.free[m]) for ki, c, b in zip(k, coords, base)):
            return False
    for j, d in enumerate(gamma.torsion_factors):
        if sum(ki * (c.torsion[j] - b.torsion[j]) for ki, c, b in zip(k, coords, base)) % d:
            return False
    return True


def rescale(u: CosetUnion, modulus: int) -> CosetUnion:
    """The same point set re-expressed mod (modulus*Gamma)^n."""
    if modulus % u.modulus:
        raise InputError(
            f"cannot rescale modulus {u.modulus} to non-multiple {modulus}"
        )
    old = u.gamma.gamma_mod(u.modulus)
    new = u.gamma.gamma_mod(modulus)
    per_point = new.size // old.size
    u.gamma.check_ceiling(len(u.residues) * per_point**u.n, "residue enumeration")
    if modulus == u.modulus:
        return u
    def lifts(vec):
        # the preimage of v under Z/ns -> Z/os is v, v + os, ... below ns, coordinatewise
        return itertools.product(*map(range, vec, new.shape, old.shape))

    out = [lift for res in u.residues for lift in itertools.product(*map(lifts, res))]
    return _make(u.gamma, u.n, modulus, out)


def _combine(a: CosetUnion, b: CosetUnion, op) -> CosetUnion:
    """op of the two residue sets, both rescaled to the lcm of the moduli."""
    _same_setting(a, b)
    l = math.lcm(a.modulus, b.modulus)
    residues = op(rescale(a, l).residue_set(), rescale(b, l).residue_set())
    return _make(a.gamma, a.n, l, residues)


def union(a: CosetUnion, b: CosetUnion) -> CosetUnion:
    return _combine(a, b, operator.or_)


def intersect(a: CosetUnion, b: CosetUnion) -> CosetUnion:
    return _combine(a, b, operator.and_)


def difference(a: CosetUnion, b: CosetUnion) -> CosetUnion:
    return _combine(a, b, operator.sub)


def complement(u: CosetUnion) -> CosetUnion:
    """Complement relative to Gamma^n, at the union's own modulus."""
    return difference(full_union(u.gamma, u.n, u.modulus), u)


def member(
    u: CosetUnion,
    points: Sequence[GroupPoint],
    bound: int = DEFAULT_COEFF_BOUND,
) -> bool | Undecided:
    """Whether the tuple lies in the union.  Decomposition failures are not
    negative answers: the first Undecided propagates out."""
    if len(points) != u.n:
        raise InputError(f"expected {u.n} points, got {len(points)}")
    desc = u.gamma.gamma_mod(u.modulus)
    vecs = []
    for p in points:
        c = u.gamma.decompose(p, bound)
        if isinstance(c, Undecided):
            return c
        vecs.append(desc.reduce(c))
    return tuple(vecs) in u.residue_set()


def density_sample(
    gamma: GammaSpec,
    u: CosetUnion,
    lo: Fraction,
    hi: Fraction,
    height_bound: int,
    bins: int,
) -> Histogram:
    """Histogram of x-coordinates of union members found within the height
    budget.  Arity 1 only; the evidence says nothing beyond the budget.
    More bins than gamma's ceiling raise QuotientCeilingError."""
    if u.n != 1:
        raise InputError("density sampling is unsupported for arity > 1")
    gamma.check_ceiling(bins, "histogram")
    desc = gamma.gamma_mod(u.modulus)
    wanted = u.residue_set()
    members = [
        p
        for c, p in gamma.bounded_points(height_bound)
        if (desc.reduce(c),) in wanted and not is_identity(p)
    ]
    return make_histogram(members, lo, hi, bins)
