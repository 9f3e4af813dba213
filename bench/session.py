"""The `cli-session` workload: one `python -m mordell.cli` process per op.

A block holds eight ops in a fixed order: one op on big-disc (whose spec load
runs the long torsion scan), one on c17, one `axioms` at height 200-300
(a fresh cache directory in even blocks, which writes, and in odd blocks the
directory the previous block wrote, which reads), one `point mul` on m2
with k above 70, and four of the golden command shapes in turn, each on a
golden spec in turn.  Arguments are drawn from the seed; which shape runs on
which spec is not, so every seed's blocks cost about the same.  Every op runs
with `--machine` and a `--cache-dir` under the harness's own temporary
directory.

Argument lists hold the placeholders {spec} and {cache}; `resolve` fills
them for one pass, so a traced replay sees fresh cache directories too.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import checks
import oracle
import specs
from library import DECOMPOSITIONS, LIGHT, SINGLE, Gen, Op, X, Y

# the 17 golden CLI cases, as shapes, plus `ml verify`
SHAPES = (
    "curve-info@m2",
    "curve-info@c01",
    "curve-info@circ",
    "point-add",
    "point-mul",
    "point-decompose",
    "coset-dke",
    "coset-intersect",
    "coset-complement",
    "coset-member-true",
    "coset-member-false",
    "ml-solve",
    "ml-suggest",
    "eval-true",
    "eval-unknown",
    "density",
    "axioms",
    "ml-verify",
)
GOLDEN_SPECS = ("m2", "c01", "circ", "m2-2p", "sing")
BIG_DISC_SHAPES = ("curve-info", "point-add", "point-decompose", "coset-dke", "eval-true", "ml-solve", "point-mul")
C17_SHAPES = ("ml-solve", "ml-suggest", "coset-dke", "coset-ceiling", "point-decompose", "eval-unknown", "curve-info")
TORS_LEN = {"c01": 1, "circ": 1}
GOLDEN_PER_BLOCK = 4
OP_BUDGET_S = 60.0
CEILING = 1_000_000


def fmt(p) -> str:
    return "O" if p is None else f"({p[0]}, {p[1]})"


def parse_point(text: str):
    if text == "O":
        return None
    x, y = text[1:-1].split(",")
    return (Fraction(x.strip()), Fraction(y.strip()))


class SessionGen(Gen):
    def pick(self, label: str, bound: int, count: int = 1) -> list[str]:
        if label == "sing":
            return ["(1, 1)"] * count
        return [fmt(self.rng.choice(self.box_points(label, bound))) for _ in range(count)]

    def char(self, n: int) -> list[int]:
        # a leading minus would make argparse read the value as an option
        return [self.rng.randint(1, 3)] + [self.rng.randint(-3, 3) for _ in range(n - 1)]

    def cli(self, shape: str, label: str, args: list, cache: str = "shared", **check) -> Op:
        argv = [str(a) for a in args] + ["--spec", "{spec}", "--machine", "--cache-dir", "{cache}"]
        return self.op("cli", f"cli.{shape}.{label}", label, argv=argv, cache=cache, shape=shape, **check)

    def shape(self, shape: str, label: str, **kw) -> Op:
        rng = self.rng
        if shape.startswith("curve-info"):
            return self.cli("curve-info", label, ["curve-info"])
        if shape == "point-add":
            p, q = self.pick(label, 3, 2)
            return self.cli(shape, label, ["point", "add", p, q], p=p, q=q)
        if shape == "point-mul":
            k = kw.get("k", rng.randint(2, 30))
            p = kw.get("p", self.pick(label, 2)[0])
            return self.cli(shape, label, ["point", "mul", k, p], k=k, p=p)
        if shape == "point-decompose":
            b = rng.randint(3, 5)
            p = "(3, 5)" if label == "m2-2p" and rng.random() < 0.5 else self.pick(label, b)[0]
            return self.cli(shape, label, ["point", "decompose", p, "--bound", b], p=p, bound=b)
        if shape in ("coset-dke", "coset-ceiling"):
            n = 3 if shape == "coset-ceiling" else rng.randint(1, 2)
            e = rng.randint(11, 12) if shape == "coset-ceiling" else rng.randint(2, 12)
            k = self.char(n)
            return self.cli(shape, label, ["coset", "dke", "--char", ",".join(map(str, k)), "--exponent", e], k=k, e=e)
        if shape in ("coset-intersect", "coset-complement"):
            n = rng.randint(1, 2)
            ops = [(self.char(n), rng.randint(2, 6)) for _ in range(2 if shape == "coset-intersect" else 1)]
            words = [",".join(map(str, k)) + f":{e}" for k, e in ops]
            op = "intersect" if shape == "coset-intersect" else "complement"
            return self.cli(shape, label, ["coset", "combine", "--op", op, *words], operands=ops)
        if shape.startswith("coset-member"):
            n = rng.randint(1, 2)
            k, e = self.char(n), rng.randint(2, 8)
            pts = self.pick(label, 4, n)
            args = ["coset", "member", "--char", ",".join(map(str, k)), "--exponent", e, *pts, "--bound", 6]
            return self.cli(shape, label, args, k=k, e=e, points=pts, bound=6)
        if shape in ("ml-solve", "ml-suggest", "ml-verify"):
            n = 1 if shape == "ml-solve" and rng.random() < 0.3 else 2
            templates = SINGLE if n == 1 else LIGHT
            poly = templates[rng.randrange(len(templates))](rng.choice((1, -1, 2)))
            b = kw.get("bound", rng.randint(2, 3))
            args = ["ml", shape[3:], oracle.render(poly), "--slots", n, "--bound", b]
            pairs = None
            if shape == "ml-verify":
                poly, ks = DECOMPOSITIONS.get(label, DECOMPOSITIONS["m2"])[rng.randrange(2 if label == "m2" else 1)]
                zero = {"free": [0] * specs.SPECS[label]["rank"], "tors": [0] * TORS_LEN.get(label, 0)}
                pairs = [{"base": [zero, zero], "k": list(k)} for k in ks]
                args = ["ml", "verify", oracle.render(poly), "--slots", 2, "--bound", b, "--decomposition", json.dumps({"pairs": pairs})]
            return self.cli(shape, label, args, poly=poly, n=n, bound=b, pairs=pairs)
        if shape.startswith("eval"):
            b = kw.get("bound", rng.randint(4, 8))
            f = ("exists", 1, ("=", X(1), Y(1)))
            x = self.x_value(label, b, shape == "eval-true") if label != "sing" else "3"
            return self.cli(shape, label, ["eval", oracle.render(f), f"--x={x}", "--bound", b], formula=f, xs=[x], bound=b)
        if shape == "density":
            lo = rng.randint(-3, 2)
            hi, bins, h = lo + rng.randint(2, 10), rng.randint(2, 8), 10 ** rng.randint(3, 9)
            args = ["density", f"--lo={lo}", f"--hi={hi}", "--bins", bins, "--height", h]
            return self.cli(shape, label, args, lo=lo, hi=hi, bins=bins, h=h)
        if shape == "axioms":
            n_max, h = kw.get("n_max", 2), kw.get("h", rng.randint(30, 60))
            args = ["axioms", "--n-max", n_max, "--height", h, "--bound", 6]
            return self.cli(shape, label, args, cache=kw.get("cache", f"cold-{self.next_id + 1}"), n_max=n_max, h=h, bound=6)
        raise ValueError(shape)


def block(gen: SessionGen, i: int) -> list[Op]:
    rng = gen.rng
    ops = [
        gen.shape(BIG_DISC_SHAPES[i % len(BIG_DISC_SHAPES)], "big-disc", k=rng.randint(5, 20), bound=rng.randint(1, 2)),
        gen.shape(C17_SHAPES[i % len(C17_SHAPES)], "c17", bound=rng.randint(2, 3)),
    ]
    # cold axioms in even blocks write a fresh directory; the next block reads it
    pair = i // 2
    label = ("m2", "m2-2p", "c01", "c17")[pair % 4]
    if i % 2 == 0:
        gen.axioms_height = rng.randint(200, 300)
    h = gen.axioms_height
    cache = f"axioms-{pair}"
    ops.append(gen.shape("axioms", label, n_max=2 + i % 2, h=h, cache=cache))
    ops[-1].cls = f"cli.axioms.{'warm' if i % 2 else 'cold'}.{label}"
    ops.append(gen.shape("point-mul", "m2", k=rng.randint(72, 110), p="(3, 5)"))
    ops[-1].cls = "cli.point-mul.k72-110.m2"
    for s in range(GOLDEN_PER_BLOCK):
        j = GOLDEN_PER_BLOCK * i + s
        shape = SHAPES[j % len(SHAPES)]
        label = shape.split("@")[1] if "@" in shape else GOLDEN_SPECS[j % len(GOLDEN_SPECS)]
        ops.append(gen.shape(shape, label))
    return ops


def op_stream(seed: int):
    """Endless op stream of cli-session, one block at a time."""
    gen = SessionGen(seed)
    for i in itertools.count():
        yield block(gen, i)


# -- running ---------------------------------------------------------------------------


class PassDir:
    """Spec files and cache directories for one pass, under a directory the
    harness owns."""

    def __init__(self, root: Path):
        self.root = root
        (root / "specs").mkdir(parents=True)
        (root / "cache").mkdir()
        for label, payload in specs.SPECS.items():
            (root / "specs" / f"{label}.json").write_text(json.dumps(payload), encoding="utf-8")

    def resolve(self, op: Op) -> list[str]:
        spec = str(self.root / "specs" / f"{op.spec}.json")
        cache = str(self.root / "cache" / op.params["cache"])
        return [spec if a == "{spec}" else cache if a == "{cache}" else a for a in op.params["argv"]]


def child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MORDELL_CACHE_DIR"}
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    return env


def run_subprocess(argv: list[str], env: dict, workdir: Path):
    """(wall s, exit code, stdout, stderr, peak RSS in KB) of one CLI process;
    it is killed when it overruns the op budget."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "mordell.cli", *argv], stdout=out, stderr=err, env=env)
        timer = threading.Timer(OP_BUDGET_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, out_path.read_text(), err_path.read_text(), usage.ru_maxrss


def run_in_process(argv: list[str]):
    """(wall s, exit code, stdout, stderr) of cli.main on argv in this
    process; an exception escaping main is exit code 1, as in a process."""
    from mordell import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash of the program under test is a failed op
            print(f"Traceback: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()


# -- checking ---------------------------------------------------------------------------


def expected_exits(chk: checks.Checker, op: Op) -> set:
    """Exit codes that are right answers: 2 for the singular spec, 3 when the
    residue enumeration exceeds the ceiling, and for `point mul` also 3, a
    size ceiling the contract allows."""
    p = op.params
    if op.spec == "sing":
        return {2}
    if p["shape"] in ("coset-dke", "coset-ceiling"):
        _, free, _, factors = chk.basis(op.spec)
        size = math.prod(oracle.quotient_shape(len(free), factors, p["e"])) ** len(p["k"])
        return {3} if size > CEILING else {0}
    if p["shape"] == "point-mul":
        return {0, 3}
    return {0}


def check(chk: checks.Checker, op: Op, code: int, out: str, err: str):
    """None when the process answered correctly, else a reason."""
    want = expected_exits(chk, op)
    if code not in want:
        return f"exit {code}, expected {sorted(want)}"
    if code:
        lines = err.splitlines()
        if out or len(lines) != 1 or not lines[0].startswith("error:"):
            return "error exit without exactly one error: line"
        return None
    if err:
        return "unexpected stderr output"
    lines = out.splitlines()
    if len(lines) != 1:
        return "machine output is not exactly one record"
    return check_record(chk, op, json.loads(lines[0]))


def check_record(chk: checks.Checker, op: Op, rec: dict):
    p, label, shape = op.params, op.spec, op.params["shape"]
    g = specs.group(label)
    if shape == "curve-info":
        _, free, tors, factors = chk.basis(label)
        full = 4 if g.kind == "circle" else len(oracle.torsion_points(g))
        if (rec["rank"], rec["components"], rec["torsion_order"]) != (len(free), g.components(), full):
            return "rank, components or torsion order differ"
        if tuple(rec["subgroup_torsion_factors"]) != factors:
            return "subgroup torsion differs"
        return None
    if shape == "point-add":
        return checks.check_sum(label, parse_point(p["p"]), parse_point(p["q"]), parse_point(rec["result"]))
    if shape == "point-mul":
        ans = parse_point(rec["result"])
        if g.kind == "circle":
            return None if g.mul(p["k"], parse_point(p["p"])) == ans else "multiple differs"
        return checks.check_multiple(g, p["k"], parse_point(p["p"]), ans)
    if shape == "point-decompose":
        ans = "undecided" if rec["result"] == "undecided" else (tuple(rec["free"]), tuple(rec["tors"]))
        return checks.check_decompose(chk, label, p["bound"], parse_point(p["p"]), ans)
    if shape in ("coset-dke", "coset-ceiling", "coset-intersect", "coset-complement"):
        _, free, _, factors = chk.basis(label)
        rank = len(free)
        got = {tuple(tuple(v) for v in res) for res in rec["residues"]}
        if shape in ("coset-dke", "coset-ceiling"):
            want, modulus = oracle.dke_residues(rank, factors, p["k"], p["e"]), p["e"]
        else:
            sets = [(oracle.dke_residues(rank, factors, k, e), e) for k, e in p["operands"]]
            if shape == "coset-intersect":
                (a, ea), (b, eb) = sets
                modulus = math.lcm(ea, eb)
                want = oracle.lift_residues(a, rank, factors, ea, modulus) & oracle.lift_residues(b, rank, factors, eb, modulus)
            else:
                (a, modulus), = sets
                n = len(p["operands"][0][0])
                want = oracle.dke_residues(rank, factors, [0] * n, modulus) - a
        if rec["modulus"] != modulus or len(rec["residues"]) != len(got):
            return "modulus or duplicate residues"
        return None if got == want else f"{len(got)} residues, expected {len(want)}"
    if shape.startswith("coset-member"):
        box = chk.box(label, p["bound"])
        _, free, _, factors = chk.basis(label)
        shape_mod = oracle.quotient_shape(len(free), factors, p["e"])
        res = []
        for t in p["points"]:
            c = box.coords_of[parse_point(t)]
            res.append(tuple(v % s for v, s in zip(c[0] + c[1], shape_mod)))
        want = tuple(res) in oracle.dke_residues(len(free), factors, p["k"], p["e"])
        return None if rec["result"] is want else f"membership {rec['result']}, expected {want}"
    if shape == "ml-solve":
        ans = {"solutions": [tuple(parse_point(t) for t in tup) for tup in rec["solutions"]], "skipped": rec["skipped"]}
        return checks.check_solve(chk, label, p["bound"], p["poly"], p["n"], ans)
    if shape == "ml-suggest":
        ans = {"verdict": rec["verdict"]}
        if rec["verdict"] == "inconclusive":
            ans["unexplained"] = [tuple(parse_point(t) for t in tup) for tup in rec["unexplained"]]
        else:
            ans["pairs"] = _pairs(rec["pairs"])
        return checks.check_suggest(chk, label, p["bound"], p["poly"], p["n"], ans)
    if shape == "ml-verify":
        ans = {"verdict": rec["verdict"], "direction": rec.get("direction")}
        if "tuple" in rec:
            ans["tuple"] = tuple(parse_point(t) for t in rec["tuple"])
        return checks.check_verify(chk, label, p["bound"], p["poly"], 2, _pairs(p["pairs"]), ans)
    if shape.startswith("eval"):
        ans = {"result": rec["result"], "witnesses": [tuple(parse_point(t) for t in w) for w in rec.get("witnesses", [])]}
        return checks.check_eval(chk, label, p["bound"], p["formula"], p["xs"], ans)
    if shape == "density":
        return checks.check_histogram(chk, label, p["h"], p["lo"], p["hi"], p["bins"], rec["counts"])
    if shape == "axioms":
        return check_axioms(chk, label, p, rec)
    raise ValueError(shape)


def _pairs(json_pairs) -> list:
    """Decomposition pairs from their JSON form."""
    return [(tuple((tuple(c["free"]), tuple(c["tors"])) for c in pr["base"]), tuple(pr["k"])) for pr in json_pairs]


def check_axioms(chk: checks.Checker, label: str, p: dict, rec: dict):
    g, free, tors, factors = chk.basis(label)
    for c in rec["checks"]:
        if c["quotient_size"] != math.prod(oracle.quotient_shape(len(free), factors, c["n"])):
            return "quotient size differs"
    lo, hi, bins = Fraction(-4), Fraction(4), 8
    pts = [q for q in oracle.bounded_coords(g, free, tors, factors, p["h"]).values() if q is not None and g.identity_component(q)]
    counts = oracle.histogram(pts, lo, hi, bins)
    d = rec["density"]
    if (d["hit_bins"], d["points_seen"]) != (sum(1 for v in counts if v), len(pts)):
        return "density evidence differs"
    box = chk.box(label, p["bound"])
    enumerated = oracle.rational_points(g, p["h"])
    for c in rec["checks"]:
        want = {q for q in enumerated if g.mul(c["n"], q) in box.coords_of and q not in box.coords_of}
        got = [parse_point(t) for t in c["purity"]]
        if len(got) != len(set(got)) or set(got) != want:
            return f"purity findings differ at n={c['n']}"
    return None
