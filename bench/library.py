"""The two in-process workloads, `box-search` and `height-growth`.

Each workload is an endless stream of blocks.  A block holds one op of every
op class in a fixed order; the seed draws each op's parameters (bounds,
constants, free values, multipliers) inside the ranges its class pins, and
the block index cycles the polynomial templates.  Every block therefore
costs about the same, which keeps a run's figures steady across seeds while
each seed still sends the program different inputs.

An op is plain data.  `run(prog, op)` makes the program call, which is the
timed part.  `plain(op, result)` turns the result into the checks' form
right after the call, outside its timing, and `check(chk, op, answer)`
judges it after the loop.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

import checks
import oracle
import specs


@dataclass
class Op:
    id: int
    kind: str
    cls: str
    spec: str
    params: dict = field(default_factory=dict)


def X(i):
    return ("x", i)


def Y(i):
    return ("y", i)


def C(v):
    return ("c", str(Fraction(v)))


def point_text(p) -> list:
    return None if p is None else [str(p[0]), str(p[1])]


def text_point(t):
    return None if t is None else (Fraction(t[0]), Fraction(t[1]))


class Gen:
    """Seeded op factory with the generator-side view of each spec's points."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.next_id = 0
        self._points = {}

    def op(self, kind: str, cls: str, spec: str, **params) -> Op:
        self.next_id += 1
        return Op(self.next_id, kind, cls, spec, params)

    def box_points(self, label: str, bound: int) -> list:
        """Non-identity elements of the spec's coefficient box, in a fixed
        order (the torsion part as the span of the finite-order generators)."""
        key = (label, bound)
        if key not in self._points:
            g = specs.group(label)
            gens = specs.generators(label)
            free = [q for q in gens if g.order(q) is None]
            tors = sorted(oracle.span(g, [q for q in gens if g.order(q) is not None]), key=repr)
            box = oracle.Box(g, free, [], (), bound)
            sums = (g.add(p, t) for p in box.points.values() for t in tors)
            self._points[key] = [p for p in sums if p is not None]
        return self._points[key]

    def x_value(self, label: str, bound: int, hit: bool) -> str:
        """An x-coordinate of a box element, or a rational that is most
        likely none."""
        if hit:
            return str(self.rng.choice(self.box_points(label, bound))[0])
        return str(Fraction(self.rng.randint(-400, 400), self.rng.randint(2, 9)) + Fraction(1, 7))


# -- box-search ------------------------------------------------------------------------

HEAVY = (
    lambda c: ("-", ("*", X(1), X(3)), ("+", X(2), X(4))),
    lambda c: ("-", ("*", X(2), X(4)), ("+", ("*", C(c), X(1)), X(3))),
    lambda c: ("-", ("+", ("*", X(1), X(1)), X(3)), ("*", C(c), X(4))),
)
LIGHT = (
    lambda c: ("-", X(2), ("*", C(c), X(4))),
    lambda c: ("-", X(1), X(3)),
    lambda c: ("-", ("+", X(1), X(3)), C(c)),
    lambda c: ("-", X(2), X(4)),
)
SINGLE = (
    lambda c: ("-", X(1), C(c)),
    lambda c: ("-", X(2), ("*", C(c), X(1))),
    lambda c: ("-", ("^", X(2), 2), ("+", ("^", X(1), 3), C(c))),
)
# (polynomial, pairs): decompositions that hold on every box; base tuples
# are per-slot (free, torsion) coordinates, shifted by the seed along the
# kernel, which leaves the coset unchanged
DECOMPOSITIONS = {
    "m2": (
        (("-", X(1), X(3)), ((1, -1), (1, 1))),
        (("-", X(2), X(4)), ((1, -1),)),
    ),
    "circ": ((("-", X(1), X(3)), ((1, -1), (1, 1))),),
}


def _base(label: str, k, shift: int):
    tors = (0,) if label == "circ" else ()
    # k = (1, -1) kills (s, s); k = (1, 1) kills (s, -s)
    second = shift if k[1] == -1 else -shift
    return (((shift,), tors), ((second,), tors))


def _solve(gen: Gen, label, n, bound, poly, cls):
    return gen.op("solve", cls, label, n=n, bound=bound, poly=poly)


def _verify(gen: Gen, label: str, i: int, bound: int):
    poly, ks = DECOMPOSITIONS[label][i % len(DECOMPOSITIONS[label])]
    pairs = [(_base(label, k, gen.rng.randint(-3, 3)), k) for k in ks]
    variant = ("exact", "drop", "bad-k")[i % 3]
    if variant == "drop":
        pairs = pairs[:-1]
    elif variant == "bad-k":
        pairs[-1] = (pairs[-1][0], (1, -2))
    return gen.op("verify", f"verify.{label}.{variant}", label, n=2, bound=bound, poly=poly, pairs=tuple(pairs))


def _eval(gen: Gen, i: int, which: int):
    rng = gen.rng
    hit = rng.random() < 0.5
    if which == 0:
        b = rng.randint(8, 16)
        f = ("exists", 1, ("=", X(1), Y(1)))
        return gen.op("eval", "eval.m2.n1.eq", "m2", bound=b, formula=f, xs=(gen.x_value("m2", b, hit),))
    if which == 1:
        b = rng.randint(3, 5)
        f = ("exists", 2, ("and", ("=", ("+", Y(1), Y(3)), X(1)), ("<", Y(2), Y(4))))
        if hit:
            p, q = rng.choice(gen.box_points("m2", b)), rng.choice(gen.box_points("m2", b))
            x = str(p[0] + q[0])
        else:
            x = gen.x_value("m2", b, False)
        return gen.op("eval", "eval.m2.n2.lt", "m2", bound=b, formula=f, xs=(x,))
    if which == 2:
        b = rng.randint(5, 9)
        f = ("exists", 1, ("and", ("=", Y(1), X(1)), ("<=", C(0), Y(2))))
        return gen.op("eval", "eval.circ.n1.le", "circ", bound=b, formula=f, xs=(gen.x_value("circ", b, hit),))
    if which == 3:
        b = rng.randint(3, 5)
        f = ("exists", 1, ("<", ("*", Y(1), Y(1)), X(1)))
        return gen.op("eval", "eval.c17.n1.lt", "c17", bound=b, formula=f, xs=(str(rng.randint(-6, 12)),))
    if which == 4:
        b = rng.randint(6, 10)
        f = ("and", ("exists", 1, ("=", X(1), Y(1))), ("<=", X(2), C(5)))
        xs = (gen.x_value("m2", b, hit), str(rng.randint(0, 10)))
        return gen.op("eval", "eval.m2.kleene.and", "m2", bound=b, formula=f, xs=xs)
    b = rng.randint(4, 8)
    f = ("or", ("not", ("exists", 1, ("<", Y(2), X(1)))), ("=", X(2), C(1)))
    xs = (str(rng.randint(-60, -20)) if hit else str(rng.randint(-5, 5)), str(rng.randint(0, 1)))
    return gen.op("eval", "eval.m2.kleene.or", "m2", bound=b, formula=f, xs=xs)


def box_search_block(gen: Gen, i: int) -> list[Op]:
    rng = gen.rng
    ops = [
        _solve(gen, "m2", 2, rng.randint(24, 27), HEAVY[i % 3](rng.choice((1, 2, 3, -1))), "solve.m2.n2.heavy"),
        _solve(gen, "m2", 1, rng.randint(30, 35), SINGLE[i % 3](rng.choice((3, -2, 5))), "solve.m2.n1"),
        _solve(gen, "circ", 2, rng.randint(4, 7), LIGHT[i % 4](rng.choice((1, -1))), "solve.circ.n2"),
        _solve(gen, "circ", 2, rng.randint(4, 7), LIGHT[(i + 2) % 4](rng.choice((1, -1))), "solve.circ.n2"),
        _solve(gen, "c17", 2, 3, LIGHT[(i + 1) % 4](rng.choice((1, -1))), "solve.c17.n2"),
        _solve(gen, "c17", 2, 3, LIGHT[(i + 2) % 4](rng.choice((1, -1))), "solve.c17.n2"),
        _solve(gen, "c17", 2, 3, LIGHT[(i + 3) % 4](rng.choice((1, -1))), "solve.c17.n2"),
        _solve(gen, "c17", 1, rng.randint(4, 6), SINGLE[(i + 1) % 3](rng.choice((17, -1, 2))), "solve.c17.n1"),
        _verify(gen, "m2", i, rng.randint(5, 9)),
        _verify(gen, "circ", i, rng.randint(3, 5)),
        gen.op("suggest", "suggest.m2", "m2", n=2, bound=rng.randint(4, 5), poly=LIGHT[(1, 3)[i % 2]](1)),
        gen.op("suggest", "suggest.circ", "circ", n=2, bound=rng.randint(3, 4), poly=LIGHT[(3, 1)[i % 2]](1)),
        gen.op("suggest", "suggest.c17", "c17", n=2, bound=3, poly=LIGHT[3](1)),
    ]
    # the median op of a run falls in the middle of these ten: every other
    # class is clearly cheaper or dearer, and as many ops are dearer as are
    # cheaper.  So a share of blocks that a busy or idle host slowed or sped
    # up moves the median little.  One template at one bound, the seed
    # drawing the constant
    for _ in range(10):
        ops.append(_solve(gen, "m2", 2, 11, LIGHT[0](rng.choice((2, -2, 3, -3))), "solve.m2.n2.light"))
    ops.extend(_eval(gen, i, w) for w in range(6))
    return ops


# -- height-growth ---------------------------------------------------------------------

# curves with every torsion shape the scan meets: Z/6, Z/2 x Z/2, Z/3, Z/4,
# Z/7 and trivial
TORSION_CURVES = ((0, 1), (-1, 0), (0, 4), (4, 0), (-43, 166), (0, -2))
# generator pairs on y^2 = x^3 + 17 that pass the independence audit
RANK2_PAIRS = (
    (("-2", "3"), ("-1", "4")),
    (("-2", "3"), ("2", "5")),
    (("-1", "4"), ("4", "9")),
    (("2", "5"), ("43", "282")),
    (("-1", "4"), ("52", "375")),
)


def _small_curve(rng: random.Random, reach_a: int, reach_b: int) -> tuple[int, int]:
    while True:
        a, b = rng.randint(-reach_a, reach_a), rng.randint(-reach_b, reach_b)
        if 4 * a**3 + 27 * b**2:
            return a, b


def _nonzero(rng: random.Random, size: int, reach: int) -> tuple:
    """A nonzero coefficient vector, so the point it names is not the identity."""
    while True:
        v = tuple(rng.randint(-reach, reach) for _ in range(size))
        if any(v):
            return v


def _multiple(label: str, c) -> list:
    g = specs.group(label)
    p = None
    for q, k in zip(specs.generators(label), c):
        p = g.add(p, g.mul(k, q))
    return point_text(p)


def height_growth_block(gen: Gen, i: int) -> list[Op]:
    rng = gen.rng
    ops = []
    for lo, hi in ((150, 170), (180, 220), (260, 290)):
        ops.append(gen.op("scalar_mul", f"scalar_mul.m2.k{lo}-{hi}", "m2", k=rng.randint(lo, hi), base=["3", "5"]))
    ops.append(gen.op("scalar_mul", "scalar_mul.c17.k150-200", "c17", k=rng.randint(150, 200), base=["-1", "4"]))
    k = rng.choice((1, -1)) * rng.randint(40, 60)
    bound = abs(k) - 1 if i % 4 == 3 else abs(k) + rng.randint(0, 3)
    ops.append(gen.op("decompose", "decompose.m2.fresh", "m2", coords=(k,), point=_multiple("m2", (k,)), bound=bound))
    # the median op of a run falls in the middle of these five, and every
    # other class is clearly cheaper or dearer; one cost profile keeps the
    # median steady
    for _ in range(5):
        c = _nonzero(rng, 2, 5)
        ops.append(gen.op("decompose", "decompose.c17.fresh", "c17", coords=c, point=_multiple("c17", c), bound=5))
    kk, n = _nonzero(rng, 1, bound)[0], rng.randint(2, 5)
    ops.append(gen.op("divisible", "divisible.m2", "m2", coords=(kk,), point=_multiple("m2", (kk,)), n=n, bound=bound))
    a, b = rng.choice((1, -1)) * rng.randint(1, 12), rng.choice((1, -1)) * rng.randint(1, 12)
    ops.append(
        gen.op("lindep", "lindep.m2", "m2", cols=((a,), (b,)), points=[_multiple("m2", (a,)), _multiple("m2", (b,))], bound=bound)
    )
    while True:
        cols = tuple(_nonzero(rng, 2, 2) for _ in range(3))
        if any(u[0] * v[1] - u[1] * v[0] for u, v in itertools.combinations(cols, 2)):
            break
    ops.append(gen.op("lindep", "lindep.c17", "c17", cols=cols, points=[_multiple("c17", v) for v in cols], bound=5))
    for lo, hi in ((100, 160), (240, 280)):
        ops.append(gen.op("enumerate", f"enumerate.h{lo}-{hi}", "small", curve=_small_curve(rng, 20, 50), h=rng.randint(lo, hi)))
    ops.append(gen.op("torsion", "torsion.table", "table", curve=TORSION_CURVES[i % len(TORSION_CURVES)]))
    ops.append(gen.op("torsion", "torsion.small", "small", curve=_small_curve(rng, 40, 150)))
    ops.append(gen.op("torsion", "torsion.big-disc", "big-disc", curve=(-10012, 346900)))
    label = ("m2", "circ", "c17", "big-disc")[i % 4]
    ops.append(gen.op("bounded", f"bounded.{label}", label, h=10 ** rng.randint(3, 9)))
    label = ("m2", "circ")[i % 2]
    lo = rng.randint(-3, 2)
    ops.append(
        gen.op("density", f"density.{label}", label, lo=str(lo), hi=str(lo + rng.randint(2, 8)), bins=rng.randint(2, 8), h=10 ** rng.randint(4, 9))
    )
    ops.append(gen.op("build_rank2", "build_rank2.c17", "c17", gens=RANK2_PAIRS[i % len(RANK2_PAIRS)]))
    return ops


BLOCKS = {"box-search": box_search_block, "height-growth": height_growth_block}


def op_stream(workload: str, seed: int):
    """Endless op stream of a workload, one block at a time."""
    gen = Gen(seed)
    make = BLOCKS[workload]
    for i in itertools.count():
        yield make(gen, i)


# -- running ops --------------------------------------------------------------------


class Program:
    """The program under test, imported from source, with the workload's
    specs built once and the per-block fresh specs of `decompose`."""

    def __init__(self, labels):
        from mordell import fg_group, formula_eval, group_core, ml_checker

        self.fg, self.fe, self.gc, self.ml = fg_group, formula_eval, group_core, ml_checker
        self.specs = {label: specs.build(label) for label in labels}
        self.fresh = {}

    def backend(self, label: str):
        return self.specs[label].backend

    def point(self, label: str, text):
        return self.gc.point(self.backend(label), Fraction(text[0]), Fraction(text[1]))

    def curve(self, ab):
        return self.gc.make_curve(*ab)


def _decomposition(prog: Program, pairs):
    Coords = prog.fg.Coords
    return prog.ml.MLDecomposition(
        tuple((tuple(Coords(f, t) for f, t in base), k) for base, k in pairs)
    )


def run(prog: Program, op: Op):
    p, kind = op.params, op.kind
    if kind in ("solve", "verify", "suggest"):
        gamma = prog.specs[op.spec]
        poly = prog.fe.parse_poly(oracle.render(p["poly"]), 2 * p["n"])
        if kind == "solve":
            skipped: list = []
            sols = prog.ml.solutions_bounded(gamma, poly, p["n"], p["bound"], skipped)
            return sols, len(skipped)
        if kind == "verify":
            return prog.ml.verify_decomposition(gamma, poly, p["n"], _decomposition(prog, p["pairs"]), p["bound"])
        return prog.ml.suggest_decomposition(gamma, poly, p["n"], p["bound"])
    if kind == "eval":
        f = prog.fe.parse(oracle.render(p["formula"]))
        return prog.fe.eval_formula(prog.specs[op.spec], f, [Fraction(v) for v in p["xs"]], p["bound"])
    if kind == "scalar_mul":
        return prog.gc.scalar_mul(prog.backend(op.spec), p["k"], prog.point(op.spec, p["base"]))
    if kind == "decompose":
        gamma = prog.fresh[op.spec] = specs.build(op.spec)
        return gamma.decompose(prog.point(op.spec, p["point"]), p["bound"])
    if kind == "divisible":
        return prog.fresh[op.spec].divisible_in_gamma(prog.point(op.spec, p["point"]), p["n"], p["bound"])
    if kind == "lindep":
        pts = [prog.point(op.spec, t) for t in p["points"]]
        return prog.fresh[op.spec].linear_dependence(pts, p["bound"])
    if kind == "enumerate":
        return prog.gc.enumerate_rational_points(prog.curve(p["curve"]), p["h"])
    if kind == "torsion":
        return prog.gc.torsion_subgroup(prog.curve(p["curve"]))
    if kind == "bounded":
        return prog.specs[op.spec].bounded_points(p["h"])
    if kind == "density":
        return prog.specs[op.spec].projection_density(Fraction(p["lo"]), Fraction(p["hi"]), p["h"], p["bins"])
    if kind == "build_rank2":
        backend = prog.backend("c17")
        gens = [prog.gc.point(backend, Fraction(x), Fraction(y)) for x, y in p["gens"]]
        return prog.fg.GammaSpec(backend, gens, claimed_rank=2)
    raise ValueError(f"unknown op kind {kind}")


def plain(op: Op, res):
    """The result in the checks' form (see checks.py)."""
    kind = op.kind
    if kind == "solve":
        sols, nskip = res
        return {"solutions": [tuple(checks.pt(q) for q in t) for t in sols], "skipped": nskip}
    if kind in ("verify", "suggest"):
        name = type(res).__name__
        if name == "Verified":
            return {"verdict": "verified"}
        if name == "Counterexample":
            return {"verdict": "counterexample", "direction": res.direction, "tuple": tuple(checks.pt(q) for q in res.points)}
        if name == "Inconclusive":
            return {"verdict": "inconclusive", "unexplained": [tuple(checks.pt(q) for q in t) for t in res.unexplained]}
        pairs = [(tuple(checks.coords(c) for c in base), tuple(k)) for base, k in res.pairs]
        return {"verdict": "decomposition", "pairs": pairs}
    if kind == "eval":
        return {"result": res.kind, "witnesses": [tuple(checks.pt(q) for q in w) for w in res.witnesses]}
    if kind == "scalar_mul":
        return checks.pt(res)
    if kind == "decompose":
        return "undecided" if type(res).__name__ == "Undecided" else checks.coords(res)
    if kind == "divisible":
        return None if res is None else checks.coords(res)
    if kind == "lindep":
        return None if res is None else tuple(res)
    if kind == "enumerate":
        return [checks.pt(q) for q in res]
    if kind == "torsion":
        return (tuple(res.invariant_factors), tuple(checks.pt(q) for q in res.generators))
    if kind == "bounded":
        return [(checks.coords(c), checks.pt(q)) for c, q in res]
    if kind == "density":
        return list(res.counts)
    if kind == "build_rank2":
        return (res.rank, tuple(res.torsion_factors))
    raise ValueError(f"unknown op kind {kind}")


def check(chk: checks.Checker, op: Op, ans):
    p, kind, label = op.params, op.kind, op.spec
    if kind == "solve":
        return checks.check_solve(chk, label, p["bound"], p["poly"], p["n"], ans)
    if kind == "verify":
        return checks.check_verify(chk, label, p["bound"], p["poly"], p["n"], p["pairs"], ans)
    if kind == "suggest":
        return checks.check_suggest(chk, label, p["bound"], p["poly"], p["n"], ans)
    if kind == "eval":
        return checks.check_eval(chk, label, p["bound"], p["formula"], p["xs"], ans)
    if kind == "scalar_mul":
        return checks.check_multiple(specs.group(label), p["k"], text_point(p["base"]), ans)
    if kind == "decompose":
        return checks.check_decompose(chk, label, p["bound"], text_point(p["point"]), ans)
    if kind == "divisible":
        return checks.check_divisible((p["coords"], ()), p["n"], ans)
    if kind == "lindep":
        return checks.check_dependence(p["cols"], ans)
    if kind == "enumerate":
        return checks.check_points(oracle.Group("curve", *p["curve"]), p["h"], ans)
    if kind == "torsion":
        return checks.check_torsion(chk, oracle.Group("curve", *p["curve"]), *ans)
    if kind == "bounded":
        return checks.check_bounded(chk, label, p["h"], ans)
    if kind == "density":
        return checks.check_histogram(chk, label, p["h"], p["lo"], p["hi"], p["bins"], ans)
    if kind == "build_rank2":
        return None if ans == (2, ()) else f"rank/torsion {ans}, expected (2, ())"
    raise ValueError(f"unknown op kind {kind}")
