"""Bounded search for polynomial solutions on Gamma^n and verification of
claimed coset decompositions of the solution set.

Identity convention, used everywhere in this module: the identity element
has no affine coordinates, so a tuple containing it is evaluated against a
polynomial only when the polynomial does not mention that slot's variables
(slot j owns variables 2j-1 and 2j, 1-based; group_core.slots_used states
the rule for this module and formula_eval's blocks).  Otherwise the tuple is
skipped outright -- in enumeration and in both verification directions.
A skipped tuple is neither a solution nor a non-solution; only
solutions_bounded reports them, through its optional `skipped` list.

Verdicts are honest about their reach: Verified carries the coefficient
bound it was checked at and promises nothing beyond it.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

# bench/tracer.py finds coset_engine in sys.modules only through this import:
# the library workloads load this module but never coset_engine itself
from .coset_engine import in_coset
from .errors import InputError
from .exact_num import MultiPoly, poly_eval
from .fg_group import Coords, DEFAULT_COEFF_BOUND, GammaSpec
from .group_core import (
    GroupPoint,
    affine_values,
    format_point,
    is_identity,
    slots_used,
)
from .intlinalg import ZLattice, kernel_basis
from .records import record

__all__ = [
    "MLDecomposition",
    "Verified",
    "Counterexample",
    "Inconclusive",
    "Verdict",
    "MISSING_FROM_UNION",
    "NOT_A_SOLUTION",
    "solutions_bounded",
    "verify_decomposition",
    "suggest_decomposition",
]

MISSING_FROM_UNION = "missing-from-union"
NOT_A_SOLUTION = "not-a-solution"


class _MLDecompositionFields(NamedTuple):
    pairs: tuple[tuple[tuple[Coords, ...], tuple[int, ...]], ...]


@record
class MLDecomposition(_MLDecompositionFields):
    """A claimed finite-union shape for the solution set: each pair is a
    base tuple (as per-slot Coords) and one integer character; the claim is
    that solutions are exactly the tuples agreeing with some base under its
    character."""

    __slots__ = ()

    def __new__(cls, pairs):
        for base, k in pairs:
            if len(base) != len(k):
                raise InputError(
                    f"base arity {len(base)} does not match character {k}"
                )
        return super().__new__(cls, pairs)


@record
class Verified(NamedTuple):
    bound: int

    def __str__(self):
        return f"verified(bound={self.bound})"


@record
class Counterexample(NamedTuple):
    points: tuple[GroupPoint, ...]
    direction: str  # MISSING_FROM_UNION or NOT_A_SOLUTION

    def __str__(self):
        inner = ", ".join(format_point(p) for p in self.points)
        return f"counterexample: {self.direction} ({inner})"


@record
class Inconclusive(NamedTuple):
    reason: str
    unexplained: tuple[tuple[GroupPoint, ...], ...] = ()

    def __str__(self):
        return f"inconclusive: {self.reason}"


Verdict = Verified | Counterexample | Inconclusive


def _classify(
    p: MultiPoly,
    slot_used: Sequence[bool],
    points: Sequence[GroupPoint],
) -> str:
    if any(u and is_identity(pt) for u, pt in zip(slot_used, points)):
        return "skipped"
    if poly_eval(p, affine_values(points)) == 0:
        return "solution"
    return "other"


def solutions_bounded(
    gamma: GammaSpec,
    p: MultiPoly,
    n: int,
    bound: int = DEFAULT_COEFF_BOUND,
    skipped: list | None = None,
) -> list[tuple[GroupPoint, ...]]:
    """Every tuple in the coefficient box realizing an exact zero of p, in
    the canonical enumeration order.  Tuples falling under the identity
    convention go to `skipped` (when given) instead of being judged.  A box
    larger than gamma's ceiling raises QuotientCeilingError."""
    if n < 1:
        raise InputError("arity must be >= 1")
    if p.arity != 2 * n:
        raise InputError(f"polynomial arity {p.arity}, expected {2 * n}")
    slot_used = slots_used(p.used_variables(), n)
    out = []
    for _, points in gamma.box(n, bound):
        verdict = _classify(p, slot_used, points)
        if verdict == "solution":
            out.append(points)
        elif verdict == "skipped" and skipped is not None:
            skipped.append(points)
    return out


def verify_decomposition(
    gamma: GammaSpec,
    p: MultiPoly,
    n: int,
    d: MLDecomposition,
    bound: int = DEFAULT_COEFF_BOUND,
) -> Verdict:
    """Check both inclusions over the coefficient box.

    A tuple belongs to base + ker(character) exactly when
    character(tuple) = character(base); that equation is decided in
    coordinates (in_coset), so no decomposition search is involved.  The
    first failing tuple in enumeration order becomes the Counterexample:
    a solution matching no pair (missing-from-union), or a non-solution
    matching some pair (not-a-solution).  Skipped tuples (identity
    convention) are exempt from both directions.
    """
    if p.arity != 2 * n:
        raise InputError(f"polynomial arity {p.arity}, expected {2 * n}")
    for base, k in d.pairs:
        if len(k) != n:
            raise InputError(f"character {k} has arity {len(k)}, expected {n}")
        for c in base:
            gamma.check_coords(c)
    slot_used = slots_used(p.used_variables(), n)
    box = gamma.box(n, bound)
    classified = ((c, pts, _classify(p, slot_used, pts)) for c, pts in box)
    return _check_union(gamma, d, classified, bound)


def _check_union(
    gamma: GammaSpec,
    d: MLDecomposition,
    classified,
    bound: int,
) -> Verdict:
    """Both inclusions over (coords, points, class) triples in enumeration
    order; the first failing tuple becomes the Counterexample."""
    for coords, points, verdict in classified:
        if verdict == "skipped":
            continue
        in_union = any(in_coset(gamma, k, base, coords) for base, k in d.pairs)
        if verdict == "solution" and not in_union:
            return Counterexample(points, MISSING_FROM_UNION)
        if verdict == "other" and in_union:
            return Counterexample(points, NOT_A_SOLUTION)
    return Verified(bound)


# -- suggestion heuristic ------------------------------------------------------


def _free_concat(coords: tuple[Coords, ...]) -> tuple[int, ...]:
    return tuple(x for c in coords for x in c.free)


def _tors_concat(coords: tuple[Coords, ...]) -> tuple[tuple[int, ...], ...]:
    return tuple(c.torsion for c in coords)


def _annihilator_characters(
    lattice: ZLattice, n: int, rank: int
) -> list[tuple[int, ...]]:
    """Integer vectors k with k1*v_1 + ... + kn*v_n = 0 (blockwise, r entries
    per slot) for every lattice basis vector v."""
    rows = []
    for v in lattice.basis():
        for m in range(rank):
            rows.append([v[i * rank + m] for i in range(n)])
    return [tuple(v) for v in kernel_basis(rows, width=n)]


def suggest_decomposition(
    gamma: GammaSpec,
    p: MultiPoly,
    n: int,
    bound: int = DEFAULT_COEFF_BOUND,
) -> MLDecomposition | Inconclusive:
    """Guess a decomposition from the box solutions and keep it only if it
    verifies at the same bound.

    Every box tuple is classified once.  Solutions sharing torsion residues
    are clustered greedily: a difference vector joins the cluster's lattice
    only if the whole lattice coset, enumerated from its echelon basis over
    the doubled window, stays inside the solution set.  The cluster's
    lattice is then cut by one annihilator character; a character is
    accepted only if every box tuple it captures is a solution (or
    skipped).  The candidate is then re-verified in both inclusions over
    the whole box, from the classes already computed: the polynomial is
    deterministic, so re-evaluating it would only repeat the same verdicts.
    Existence of a true finite decomposition gives no bound, so failure
    here is Inconclusive, never a refutation.  Both the box and the doubled
    window are checked against gamma's ceiling first; a full-rank lattice
    still visits every window point.
    """
    if p.arity != 2 * n:
        raise InputError(f"polynomial arity {p.arity}, expected {2 * n}")
    slot_used = slots_used(p.used_variables(), n)
    r = gamma.rank
    box = gamma.box(n, bound)
    gamma.check_ceiling((4 * bound + 1) ** (r * n), "coefficient box")  # the doubled window

    entries = []  # (coords, points, class)
    # keyed by the box's own coords tuples, so the box adds no new keys
    classes: dict[tuple[Coords, ...], str] = {}
    for coords, points in box:
        v = _classify(p, slot_used, points)
        entries.append((coords, points, v))
        classes[coords] = v
    solutions = [(c, pts) for c, pts, v in entries if v == "solution"]
    if not solutions:
        return MLDecomposition(())

    def class_at(free: tuple[int, ...], tors) -> str:
        key = tuple(Coords(free[i * r : (i + 1) * r], tors[i]) for i in range(n))
        if key not in classes:
            pts = tuple(gamma.realize(cc) for cc in key)
            classes[key] = _classify(p, slot_used, pts)
        return classes[key]

    def hull_sound(lattice: ZLattice, anchor_free, anchor_tors) -> bool:
        """The coset anchor + lattice must stay inside the solution set
        (skipped tuples allowed).  Checked on a doubled box: two genuine
        cosets can share every box point of a mixed lattice, and the wider
        window rejects most such accidents.  The coset's window points are
        enumerated from the lattice's echelon basis in lexicographic order,
        so only members of the coset are ever classified."""
        return not any(
            class_at(w, anchor_tors) == "other"
            for w in lattice.coset_points(anchor_free, 2 * bound)
        )

    def coset_ok(k: tuple[int, ...], anchor: tuple[Coords, ...]) -> bool:
        """Every box tuple in anchor + ker(k) must be a solution or
        skipped."""
        return not any(
            verdict == "other" and in_coset(gamma, k, anchor, coords)
            for coords, _, verdict in entries
        )

    pairs = []
    unexplained = list(solutions)
    while unexplained:
        anchor_coords, anchor_pts = unexplained[0]
        anchor_free = _free_concat(anchor_coords)
        anchor_tors = _tors_concat(anchor_coords)
        lattice = ZLattice(r * n)
        # greedy hull over same-torsion solutions; a difference enters only
        # if its enlarged coset stays inside the solution set on the box
        for coords, _ in unexplained[1:]:
            if _tors_concat(coords) != anchor_tors:
                continue
            diff = tuple(
                a - b for a, b in zip(_free_concat(coords), anchor_free)
            )
            if diff in lattice:
                continue
            trial = lattice.copy()
            trial.add_vector(diff)
            if hull_sound(trial, anchor_free, anchor_tors):
                lattice = trial
        candidates = _annihilator_characters(lattice, n, r)
        if not candidates:
            # full-rank difference lattice: only the zero character is left
            candidates = [(0,) * n]
        chosen = None
        for k in candidates:
            if coset_ok(k, anchor_coords):
                chosen = k
                break
        if chosen is None:
            return Inconclusive(
                "no single character cuts the cluster at this bound",
                tuple(pts for _, pts in unexplained),
            )
        pairs.append((anchor_coords, chosen))
        unexplained = [
            (c, pts)
            for c, pts in unexplained
            if not in_coset(gamma, chosen, anchor_coords, c)
        ]
    d = MLDecomposition(tuple(pairs))
    verdict = _check_union(gamma, d, entries, bound)
    if isinstance(verdict, Verified):
        return d
    return Inconclusive(
        f"candidate decomposition failed re-verification: {verdict}",
        tuple(pts for _, pts in solutions),
    )
