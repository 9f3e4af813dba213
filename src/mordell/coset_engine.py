"""Integer characters on n-tuples, their kernels, and finite-modulus coset
unions with exact boolean algebra.

A character k = (k1, ..., kn) sends a tuple (t1, ..., tn) in Gamma^n to
k1*t1 + ... + kn*tn.  Its kernel splits into a free lattice in Z^(rn) and
per-invariant-factor residue solutions; that exact object is a KernelDesc.
CosetUnion is reserved for finite-modulus sets: subsets of (Gamma/l*Gamma)^n
given by explicit residue vectors.  Kernels of infinite index have no exact
finite-modulus picture, so from_kernel_cosets marks its output as coarsened
whenever the reduction can lose information.

Every quotient and residue enumeration here, and every decomposition behind
member and from_kernel_cosets, is bounded by the group's one ceiling
(GammaSpec.ceiling, default 10**6) and fails loudly past it.  The CLI sets
it with --ceiling, which so bounds coset dke, combine and member and
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
    Coords,
    DEFAULT_COEFF_BOUND,
    GammaSpec,
    Histogram,
    Undecided,
    make_histogram,
)
from .group_core import GroupPoint, is_identity
from .intlinalg import kernel_basis, smith_normal_form

__all__ = [
    "Character",
    "KernelDesc",
    "CosetUnion",
    "smith_normal_form",
    "kernel_lattice",
    "dke",
    "full_union",
    "empty_union",
    "rescale",
    "union",
    "intersect",
    "difference",
    "complement",
    "member",
    "from_kernel_cosets",
    "induced_member",
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
class KernelDesc:
    """Exact description of ker(character) inside Gamma^n.

    free_basis spans the integer lattice of free coordinate vectors
    (blocked point-by-point, r entries per point) killed by the character;
    torsion_solutions[j] lists the residue tuples mod the j-th invariant
    factor that the character annihilates.
    """

    n: int
    rank: int
    torsion_factors: tuple[int, ...]
    free_basis: tuple[tuple[int, ...], ...]
    torsion_solutions: tuple[frozenset[tuple[int, ...]], ...]


def kernel_lattice(gamma: GammaSpec, k: Sequence[int]) -> KernelDesc:
    """ker(chi_k) in Gamma^n as free lattice plus torsion solution sets."""
    k = _check_character(k)
    n = len(k)
    r = gamma.rank
    rows = [[0] * (r * n) for _ in range(r)]
    for i in range(r):
        for j in range(n):
            rows[i][j * r + i] = k[j]
    basis = kernel_basis(rows, width=r * n)
    tors = []
    for d in gamma.torsion_factors:
        sols = frozenset(
            t
            for t in itertools.product(range(d), repeat=n)
            if sum(ki * ti for ki, ti in zip(k, t)) % d == 0
        )
        tors.append(sols)
    return KernelDesc(
        n=n,
        rank=r,
        torsion_factors=gamma.torsion_factors,
        free_basis=tuple(tuple(v) for v in basis),
        torsion_solutions=tuple(tors),
    )


@dataclass(frozen=True)
class CosetUnion:
    """A finite union of residue classes of (l*Gamma)^n inside Gamma^n.

    residues are kept sorted and duplicate-free, so equal sets compare
    equal.  coarsened marks unions produced by reducing an infinite-index
    kernel to a finite modulus (a sound overapproximation, not the set
    itself) and survives every operation; it does not take part in
    equality.
    """

    gamma: GammaSpec = field(compare=False)
    n: int
    modulus: int
    residues: tuple[Residue, ...]
    coarsened: bool = field(default=False, compare=False)

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

    def __len__(self):
        return len(self.residues)

    def residue_set(self) -> frozenset[Residue]:
        return frozenset(self.residues)


def _make(
    gamma: GammaSpec,
    n: int,
    modulus: int,
    residues: Iterable[Residue],
    coarsened: bool = False,
) -> CosetUnion:
    return CosetUnion(
        gamma=gamma,
        n=n,
        modulus=modulus,
        residues=tuple(sorted(set(residues))),
        coarsened=coarsened,
    )


def _same_setting(a: CosetUnion, b: CosetUnion) -> None:
    if a.gamma is not b.gamma:
        raise InputError("coset unions come from different groups")
    if a.n != b.n:
        raise InputError(f"arity mismatch: {a.n} vs {b.n}")


def full_union(gamma: GammaSpec, n: int, modulus: int) -> CosetUnion:
    """All of Gamma^n, written at the given modulus."""
    desc = gamma.gamma_mod(modulus)
    gamma.check_ceiling(desc.size**n)
    return _make(
        gamma, n, modulus, itertools.product(desc.residues(), repeat=n)
    )


def empty_union(gamma: GammaSpec, n: int, modulus: int) -> CosetUnion:
    return _make(gamma, n, modulus, ())


def dke(gamma: GammaSpec, k: Sequence[int], e: int) -> CosetUnion:
    """The set of tuples whose character image is divisible by e, i.e. the
    kernel of the induced map (Gamma/eGamma)^n -> Gamma/eGamma, found by
    enumerating the finite quotient."""
    k = _check_character(k)
    if e < 1:
        raise InputError(f"e must be >= 1, got {e}")
    n = len(k)
    desc = gamma.gamma_mod(e)
    gamma.check_ceiling(desc.size**n)
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
    u.gamma.check_ceiling(len(u.residues) * per_point**u.n)
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
    return _make(u.gamma, u.n, modulus, out, u.coarsened)


def _combine(a: CosetUnion, b: CosetUnion, op) -> CosetUnion:
    """op of the two residue sets, both rescaled to the lcm of the moduli."""
    _same_setting(a, b)
    l = math.lcm(a.modulus, b.modulus)
    residues = op(rescale(a, l).residue_set(), rescale(b, l).residue_set())
    return _make(a.gamma, a.n, l, residues, a.coarsened or b.coarsened)


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


def _kernel_image_mod(gamma: GammaSpec, kd: KernelDesc, modulus: int) -> list[Residue]:
    """Image of the kernel subgroup in (Gamma/modulus)^n, as residues."""
    desc = gamma.gamma_mod(modulus)
    r = gamma.rank
    n = kd.n
    # free part: subgroup of (Z/modulus)^(rn) spanned by the basis images
    zero = (0,) * (r * n)
    free_img = {zero}
    frontier = [zero]
    gens = [tuple(x % modulus for x in v) for v in kd.free_basis]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                s = tuple((a + b) % modulus for a, b in zip(w, g))
                if s not in free_img:
                    gamma.check_ceiling(len(free_img) + 1)
                    free_img.add(s)
                    nxt.append(s)
        frontier = nxt
    # torsion part: solutions reduced per factor to gcd(modulus, d)
    tors_shape = desc.shape[r:]
    tors_imgs = []
    for j, sols in enumerate(kd.torsion_solutions):
        tors_imgs.append(
            sorted({tuple(t % tors_shape[j] for t in sol) for sol in sols})
        )
    total = len(free_img) * math.prod(len(s) for s in tors_imgs)
    gamma.check_ceiling(total)
    out = []
    for v in sorted(free_img):
        for tor_choice in itertools.product(*tors_imgs):
            # tor_choice[j][i] is point i's residue mod factor j
            res = tuple(
                v[i * r : (i + 1) * r]
                + tuple(tor_choice[j][i] for j in range(len(tors_imgs)))
                for i in range(n)
            )
            out.append(res)
    return out


def _residue_add(res_a: Residue, res_b: Residue, shape: tuple[int, ...]) -> Residue:
    return tuple(
        tuple((x + y) % s for x, y, s in zip(va, vb, shape))
        for va, vb in zip(res_a, res_b)
    )


def from_kernel_cosets(
    gamma: GammaSpec,
    pairs: Sequence[tuple[Sequence[GroupPoint | Coords], Sequence[int]]],
    modulus: int,
    bound: int = DEFAULT_COEFF_BOUND,
) -> CosetUnion:
    """Reduce a union of kernel cosets base_i + ker(k_i) mod (modulus*Gamma)^n.

    The result always contains the image of the true set, but a kernel of
    infinite index is not a union of classes at any finite modulus, so the
    class union can be strictly larger; such outputs carry coarsened=True.
    Base tuples may be given as points (decomposed here, and a failed
    decomposition is an error) or directly as Coords.
    """
    if modulus < 1:
        raise InputError("modulus must be >= 1")
    if not pairs:
        raise InputError("need at least one (base, character) pair")
    n = len(_check_character(pairs[0][1]))
    desc = gamma.gamma_mod(modulus)
    shape = desc.shape
    residues: set[Residue] = set()
    coarsened = False
    for base, k in pairs:
        k = _check_character(k)
        if len(k) != n:
            raise InputError("all characters must share one arity")
        if len(base) != n:
            raise InputError(f"base tuple needs {n} entries, got {len(base)}")
        base_res = []
        for entry in base:
            c = entry if isinstance(entry, Coords) else gamma.decompose(entry, bound)
            if isinstance(c, Undecided):
                raise InputError(
                    f"base point does not decompose at bound {bound}"
                )
            base_res.append(desc.reduce(c))
        base_res = tuple(base_res)
        kd = kernel_lattice(gamma, k)
        for img in _kernel_image_mod(gamma, kd, modulus):
            residues.add(_residue_add(base_res, img, shape))
            gamma.check_ceiling(len(residues))
        # reduction is exact iff (modulus*Gamma)^n sits inside the kernel
        free_exact = gamma.rank == 0 or all(ki == 0 for ki in k)
        tors_exact = all(
            (modulus * ki) % d == 0
            for d in gamma.torsion_factors
            for ki in k
        )
        if not (free_exact and tors_exact):
            coarsened = True
    return _make(gamma, n, modulus, residues, coarsened)


def induced_member(
    gamma: GammaSpec,
    qf,
    u: CosetUnion,
    points: Sequence[GroupPoint],
    bound: int = DEFAULT_COEFF_BOUND,
) -> bool | Undecided:
    """Conjunction of a quantifier-free condition on the tuple's affine
    coordinates (anything with evaluate(values) -> bool, e.g. a parsed
    formula body) and coset-union membership.

    The condition sees 2n values: x then y of each point in order.  A tuple
    containing the identity has no affine coordinates and is rejected.
    """
    if len(points) != u.n:
        raise InputError(f"expected {u.n} points, got {len(points)}")
    vals = []
    for p in points:
        if is_identity(p):
            raise InputError(
                "identity has no affine coordinates; condition undefined"
            )
        vals.extend((p.x, p.y))
    if not qf.evaluate(vals):
        return False
    return member(u, points, bound)


def density_sample(
    gamma: GammaSpec,
    u: CosetUnion,
    lo: Fraction,
    hi: Fraction,
    height_bound: int,
    bins: int,
) -> Histogram:
    """Histogram of x-coordinates of union members found within the height
    budget.  Arity 1 only; the evidence says nothing beyond the budget."""
    if u.n != 1:
        raise InputError("density sampling is unsupported for arity > 1")
    desc = gamma.gamma_mod(u.modulus)
    wanted = u.residue_set()
    members = [
        p
        for c, p in gamma.bounded_points(height_bound)
        if (desc.reduce(c),) in wanted and not is_identity(p)
    ]
    return make_histogram(members, lo, hi, bins)
