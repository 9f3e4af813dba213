"""Integer characters on n-tuples and finite-modulus coset unions with exact
boolean algebra.

A character k = (k1, ..., kn) sends a tuple (t1, ..., tn) in Gamma^n to
k1*t1 + ... + kn*tn.  A CosetUnion is a union of classes of (l*Gamma)^n in
Gamma^n, given by explicit residue vectors in (Gamma/l*Gamma)^n, and it is
exactly the set it lists: dke finds its classes by enumerating the finite
quotient, and the set operations rescale both operands to one modulus, which
loses nothing.

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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError
from .fg_group import (
    DEFAULT_COEFF_BOUND,
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


@dataclass(frozen=True)
class CosetUnion:
    """A finite union of residue classes of (l*Gamma)^n inside Gamma^n.

    The union is exactly the set of tuples whose residues it lists.
    residues are kept sorted and duplicate-free, so equal sets compare
    equal.
    """

    gamma: GammaSpec = field(compare=False)
    n: int
    modulus: int
    residues: tuple[Residue, ...]

    def __post_init__(self):
        if self.n < 1:
            raise InputError("arity must be >= 1")
        if self.modulus < 1:
            raise InputError("modulus must be >= 1")
        shape = (self.modulus,) * self.gamma.rank + tuple(
            math.gcd(self.modulus, d) for d in self.gamma.torsion_factors
        )
        for res in self.residues:
            if len(res) != self.n:
                raise InputError(f"residue {res} has arity {len(res)}, expected {self.n}")
            for slot in res:
                if len(slot) != len(shape) or any(
                    not (0 <= v < s) for v, s in zip(slot, shape)
                ):
                    raise InputError(f"residue slot {slot} is not reduced mod {shape}")

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
    # preimage of v under Z/new -> Z/old is {v + old*t}, coordinatewise
    expansions = [
        range(ns // os) for os, ns in zip(old.shape, new.shape)
    ]
    out = []
    for res in u.residues:
        lifted_per_point = []
        for vec in res:
            lifted_per_point.append(
                [
                    tuple(
                        v + os * t
                        for v, os, t in zip(vec, old.shape, steps)
                    )
                    for steps in itertools.product(*expansions)
                ]
            )
        out.extend(itertools.product(*lifted_per_point))
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
