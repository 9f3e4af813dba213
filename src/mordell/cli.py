"""Command-line front end.

Every command takes --spec pointing at a JSON group description:

    {"kind": "curve", "a": "0", "b": "-2",
     "generators": [["3", "5"]],
     "rank": 1, "label": "example"}

or {"kind": "circle", "generators": [["3/5", "4/5"]]}.  Rationals are
canonical strings ("129/100", "-3", "0"), the same form the outputs use.
Flags go after the final subcommand: mordell point add P Q --spec f.json.

Exit codes: 0 success, 2 invalid input (bad spec file, off-variety point,
malformed formula, a rational literal over the int digit limit, a --cache-dir
that cannot be written), 3 resource ceiling (a quotient or residue
enumeration, a coefficient box search, a decompose shell, a histogram's bin
count or the rational point enumeration of axioms, height * (2 * height + 1)
candidates, would exceed the configured ceiling, or a number in the answer
is too long to print).

Each command computes its result once, as one record.  --machine prints
that record as a line of JSON with fixed field names; field order is part of
the format.  Without it the human text is rendered from the same record
(HUMAN), meant for eyeballs and not parsed by anything here.  Output is all
or nothing: an error while building or rendering the record leaves stdout
empty.

axioms builds its bounded evidence here, from the subgroup's primitives:
grid coverage of the identity component by Gamma's points of height <=
--height (density), the variety's rational points q of that height with n*q
in Gamma but q undecided (purity), and the sizes of Gamma/n*Gamma.

With --cache-dir DIR, axioms keeps its enumerated rational points in DIR,
one file per backend and height bound; without it nothing is cached.  A
file whose key (format version, backend, height bound) differs, that does
not parse, or that holds a point off the variety is a miss and is
rewritten.  Output is identical with the cache on or off.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

# each command is its own process: what only some commands use (formula_eval,
# ml_checker, coset_engine) is imported inside them
from .errors import ArityCeilingError, InputError, PreconditionError, QuotientCeilingError
from .exact_num import format_rational, parse_rational
from .fg_group import (
    Coords,
    DEFAULT_COEFF_BOUND,
    DEFAULT_QUOTIENT_CEILING,
    GammaSpec,
    Undecided,
    make_histogram,
)
from .group_core import (
    Circle,
    Curve,
    add,
    component_of,
    discriminant_term,
    enumerate_rational_points,
    format_point,
    is_identity,
    make_curve,
    parse_point,
    point,
    real_components,
    scalar_mul,
    torsion_subgroup,
)

DEFAULT_HEIGHT_BOUND = 100
CACHE_FORMAT_VERSION = 2


# -- input files --------------------------------------------------------------------


def _json_input(text: str, what: str):
    """json.loads for the spec, a decomposition or a cache file: bad syntax,
    an integer past the digit limit or too deep a nesting is an InputError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise InputError(f"{what} is not valid JSON: {exc}")


_SPEC_KEYS = {"kind", "a", "b", "generators", "rank", "label"}


def load_group_spec(path: str, ceiling: int = DEFAULT_QUOTIENT_CEILING) -> GammaSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read spec file {path}: {exc}")
    raw = _json_input(text, f"spec file {path}")
    if not isinstance(raw, dict):
        raise InputError("spec file must hold a JSON object")
    unknown = sorted(set(raw) - _SPEC_KEYS)
    if unknown:
        raise InputError(f"unknown spec file keys: {', '.join(unknown)}")

    kind = raw.get("kind")
    if kind == "curve":
        if "a" not in raw or "b" not in raw:
            raise InputError("curve spec needs coefficient strings 'a' and 'b'")
        backend = make_curve(_spec_rational(raw["a"], "a"), _spec_rational(raw["b"], "b"))
    elif kind == "circle":
        if "a" in raw or "b" in raw:
            raise InputError("circle spec takes no coefficients")
        backend = Circle()
    else:
        raise InputError("spec 'kind' must be \"curve\" or \"circle\"")

    gens_raw = raw.get("generators")
    if not isinstance(gens_raw, list):
        raise InputError("spec 'generators' must be a list of [x, y] pairs")
    gens = []
    for item in gens_raw:
        if not (isinstance(item, list) and len(item) == 2):
            raise InputError(f"generator {item!r} is not an [x, y] pair")
        gens.append(
            point(backend, _spec_rational(item[0], "x"), _spec_rational(item[1], "y"))
        )

    rank = raw.get("rank")
    if rank is not None and (not isinstance(rank, int) or isinstance(rank, bool)):
        raise InputError("spec 'rank' must be an integer")
    label = raw.get("label")
    if label is not None and not isinstance(label, str):
        raise InputError("spec 'label' must be a string")
    return GammaSpec(backend, gens, claimed_rank=rank, label=label, ceiling=ceiling)


def _spec_rational(value, what: str) -> Fraction:
    if not isinstance(value, str):
        raise InputError(f"spec field {what!r} must be a canonical rational string")
    return parse_rational(value)


# -- point cache --------------------------------------------------------------------


class PointCache:
    """Enumerated rational points, one file per (backend, height bound),
    holding its key string and the points as format_point prints them.
    root=None turns the cache off.  Writes go through a temp file and
    os.replace, so readers never see a torn file."""

    def __init__(self, root: Path | None):
        self.root = root

    def _key_path(self, backend, height_bound: int) -> tuple[str, Path]:
        import binascii  # loaded at start-up, unlike hashlib and its OpenSSL

        key = f"v{CACHE_FORMAT_VERSION} {backend!r} h={height_bound}"
        # load checks the key, so two keys that share a CRC-32 only miss
        return key, self.root / f"points-{binascii.crc32(key.encode('utf-8')):08x}.json"

    def load(self, backend, height_bound: int):
        if self.root is None:
            return None
        key, path = self._key_path(backend, height_bound)
        try:
            raw = _json_input(path.read_text(encoding="utf-8"), f"cache file {path}")
            entries = raw.get("points") if isinstance(raw, dict) and raw.get("key") == key else None
            if not (isinstance(entries, list) and all(isinstance(t, str) for t in entries)):
                return None
            # parse_point re-checks the variety: one bad entry is a miss
            return [parse_point(backend, text) for text in entries]
        except (OSError, ValueError):  # unreadable, not UTF-8, not JSON or off the variety
            return None

    def store(self, backend, height_bound: int, points) -> None:
        if self.root is None:
            return
        key, path = self._key_path(backend, height_bound)
        tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps({"key": key, "points": _printed(points)}), encoding="utf-8")
            os.replace(tmp, path)
        except OSError as exc:
            if tmp.exists():
                tmp.unlink()
            raise InputError(f"cannot write the point cache in {self.root}: {exc}")


def cached_rational_points(cache: PointCache, backend, height_bound: int):
    points = cache.load(backend, height_bound)
    if points is None:
        points = enumerate_rational_points(backend, height_bound)
        cache.store(backend, height_bound, points)
    return points


# -- record pieces ------------------------------------------------------------------


def _printed(points) -> list[str]:
    return [format_point(p) for p in points]


def _coords_json(c: Coords) -> dict:
    return {"free": list(c.free), "tors": list(c.torsion)}


def _coords_from_json(obj) -> Coords:
    if not (isinstance(obj, dict) and set(obj) == {"free", "tors"}):
        raise InputError("coordinate objects need exactly the keys 'free' and 'tors'")
    free, tors = obj["free"], obj["tors"]
    if not (isinstance(free, list) and all(_is_int(v) for v in free)):
        raise InputError("'free' must be a list of integers")
    if not (isinstance(tors, list) and all(_is_int(v) for v in tors)):
        raise InputError("'tors' must be a list of integers")
    return Coords(tuple(free), tuple(tors))


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def decomposition_to_json(d) -> dict:
    return {
        "pairs": [
            {"base": [_coords_json(c) for c in base], "k": list(k)}
            for base, k in d.pairs
        ]
    }


def decomposition_from_json(obj):
    from .ml_checker import MLDecomposition

    if not (isinstance(obj, dict) and set(obj) == {"pairs"}):
        raise InputError("decomposition JSON needs exactly the key 'pairs'")
    pairs = obj["pairs"]
    if not isinstance(pairs, list):
        raise InputError("'pairs' must be a list")
    out = []
    for entry in pairs:
        if not (isinstance(entry, dict) and set(entry) == {"base", "k"}):
            raise InputError("each pair needs exactly the keys 'base' and 'k'")
        base, k = entry["base"], entry["k"]
        if not isinstance(base, list):
            raise InputError("'base' must be a list of coordinate objects")
        if not (isinstance(k, list) and all(_is_int(v) for v in k)):
            raise InputError("'k' must be a list of integers")
        out.append((tuple(_coords_from_json(c) for c in base), tuple(k)))
    return MLDecomposition(tuple(out))


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    parts = [s.strip() for s in text.split(",")]
    try:
        return tuple(int(s) for s in parts)
    except ValueError:
        raise InputError(f"{what} must be a comma-separated integer list, got {text!r}")


def _union_json(u) -> dict:
    return {
        "arity": u.n,
        "modulus": u.modulus,
        "residues": [[list(slot) for slot in res] for res in u.residues],
        "coarsened": False,  # every union is exact; the key keeps the record format
    }


# -- commands: each computes its result once and returns its machine record ---------


def cmd_curve_info(args, gamma: GammaSpec) -> dict:
    backend = gamma.backend
    full_torsion = torsion_subgroup(backend)
    record = {"command": "curve-info", "kind": "circle"}
    if isinstance(backend, Curve):
        record.update(
            kind="curve",
            a=format_rational(backend.a),
            b=format_rational(backend.b),
            discriminant_term=format_rational(discriminant_term(backend)),
        )
    record.update(
        components=real_components(backend),
        torsion_factors=list(full_torsion.invariant_factors),
        torsion_order=full_torsion.order(),
        subgroup_torsion_factors=list(gamma.torsion.invariant_factors),
        rank=gamma.rank,
        audit_bound=gamma.audit_bound,
        label=gamma.label,
    )
    return record


def cmd_point(args, gamma: GammaSpec) -> dict:
    backend = gamma.backend
    if args.point_op == "add":
        r = add(backend, parse_point(backend, args.p), parse_point(backend, args.q))
        return {"command": "point-add", "result": format_point(r)}
    if args.point_op == "mul":
        r = scalar_mul(backend, args.k, parse_point(backend, args.p))
        return {"command": "point-mul", "k": args.k, "result": format_point(r)}
    c = gamma.decompose(parse_point(backend, args.p), args.bound)
    record = {"command": "point-decompose", "bound": args.bound}
    if isinstance(c, Undecided):
        record["result"] = "undecided"
    else:
        record["result"] = "coords"
        record.update(_coords_json(c))
    return record


def cmd_coset(args, gamma: GammaSpec) -> dict:
    from . import coset_engine

    if args.coset_op == "combine":
        operands = [_operand_union(gamma, text) for text in args.operand]
        if args.op == "complement":
            if len(operands) != 1:
                raise InputError("complement takes exactly one operand")
            u = coset_engine.complement(operands[0])
        else:
            if len(operands) != 2:
                raise InputError(f"{args.op} takes exactly two operands")
            fn = {
                "union": coset_engine.union,
                "intersect": coset_engine.intersect,
                "diff": coset_engine.difference,
            }[args.op]
            u = fn(operands[0], operands[1])
        return {"command": "coset-combine", "op": args.op, **_union_json(u)}
    k = _parse_int_list(args.char, "--char")
    u = coset_engine.dke(gamma, k, args.exponent)
    if args.coset_op == "dke":
        record = {"command": "coset-dke", "char": list(k), "exponent": args.exponent}
        return {**record, **_union_json(u)}
    points = [parse_point(gamma.backend, t) for t in args.points]
    res = coset_engine.member(u, points, args.bound)
    return {
        "command": "coset-member",
        "bound": args.bound,
        "result": "undecided" if isinstance(res, Undecided) else res,
    }


def _operand_union(gamma: GammaSpec, text: str):
    """Operand syntax K:E, the kernel union of character K at exponent E."""
    from . import coset_engine

    head, sep, tail = text.partition(":")
    if not sep:
        raise InputError(f"coset operand must look like K:E, got {text!r}")
    k = _parse_int_list(head, "coset operand character")
    try:
        e = int(tail)
    except ValueError:
        raise InputError(f"coset operand exponent must be an integer, got {tail!r}")
    return coset_engine.dke(gamma, k, e)


def cmd_ml(args, gamma: GammaSpec) -> dict:
    from . import ml_checker
    from .formula_eval import format_poly, parse_poly

    n = args.slots
    if n < 1:
        raise InputError("--slots must be >= 1")
    if 2 * n > gamma.ceiling:  # every exponent vector and box tuple has length 2n
        raise ArityCeilingError(2 * n, gamma.ceiling)
    p = parse_poly(args.poly, 2 * n)
    poly = format_poly(p)
    record = {"command": f"ml-{args.ml_op}", "poly": poly, "slots": n, "bound": args.bound}
    if args.ml_op == "solve":
        skipped: list = []
        sols = ml_checker.solutions_bounded(gamma, p, n, args.bound, skipped)
        record["solutions"] = [_printed(t) for t in sols]
        record["skipped"] = len(skipped)
    elif args.ml_op == "verify":
        d = _read_decomposition(args.decomposition)
        verdict = ml_checker.verify_decomposition(gamma, p, n, d, args.bound)
        if isinstance(verdict, ml_checker.Verified):
            record["verdict"] = "verified"
        else:
            tup = _printed(verdict.points)
            record.update(verdict="counterexample", direction=verdict.direction, tuple=tup)
    else:
        out = ml_checker.suggest_decomposition(gamma, p, n, args.bound)
        if isinstance(out, ml_checker.Inconclusive):
            unexplained = [_printed(t) for t in out.unexplained]
            record.update(verdict="inconclusive", reason=out.reason, unexplained=unexplained)
        else:
            record.update(verdict="decomposition", **decomposition_to_json(out))
    return record


def _read_decomposition(text: str):
    if text.startswith("@"):
        try:
            text = Path(text[1:]).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read decomposition file: {exc}")
    return decomposition_from_json(_json_input(text, "decomposition"))


def cmd_eval(args, gamma: GammaSpec) -> dict:
    from .formula_eval import eval_formula, format_formula, parse

    # every polynomial is built at the largest arity, so it counts first
    f = parse(args.formula, max_arity=gamma.ceiling)
    if args.x is None or args.x.strip() == "":
        xs: list[Fraction] = []
    else:
        xs = [parse_rational(s.strip()) for s in args.x.split(",")]
    res = eval_formula(gamma, f, xs, args.bound)
    record = {
        "command": "eval",
        "formula": format_formula(f),
        "x": [format_rational(v) for v in xs],
        "result": res.kind,
    }
    if res.kind == "true":
        record["witnesses"] = [_printed(block) for block in res.witnesses]
    elif res.kind == "unknown":
        record["bound"] = res.bound
    return record


def cmd_density(args, gamma: GammaSpec) -> dict:
    lo = parse_rational(args.lo)
    hi = parse_rational(args.hi)
    if args.char is not None:
        if args.exponent is None:
            raise InputError("--char needs --exponent")
        from . import coset_engine

        k = _parse_int_list(args.char, "--char")
        u = coset_engine.dke(gamma, k, args.exponent)
        hist = coset_engine.density_sample(gamma, u, lo, hi, args.height, args.bins)
    elif args.exponent is not None:
        raise InputError("--exponent needs --char")
    else:
        hist = gamma.projection_density(lo, hi, args.height, args.bins)
    return {
        "command": "density",
        "lo": format_rational(lo),
        "hi": format_rational(hi),
        "bins": hist.bins,
        "height_bound": args.height,
        "edges": [format_rational(e) for e in hist.edges()],
        "counts": list(hist.counts),
        "total": hist.total(),
    }


def cmd_axioms(args, gamma: GammaSpec) -> dict:
    lo = parse_rational(args.lo)
    hi = parse_rational(args.hi)
    if args.n_max < 1:
        raise InputError("nMax must be >= 1")
    if not (lo < hi and args.bins >= 1):
        raise InputError("sample grid needs lo < hi and bins >= 1")
    if args.height < 0:
        raise InputError("height bound must be >= 0")
    # every budget is checked before the cache is read, so runs with the
    # cache on and off answer alike
    gamma.check_ceiling(args.bins, "histogram")
    gamma.check_ceiling(args.height * (2 * args.height + 1), "point enumeration")
    backend = gamma.backend
    points = cached_rational_points(PointCache(args.cache_dir), backend, args.height)
    seen = [
        p
        for _, p in gamma.bounded_points(args.height)
        if not is_identity(p) and component_of(backend, p)
    ]
    hit = sum(1 for c in make_histogram(seen, lo, hi, args.bins).counts if c)
    checks = []
    # one batch: over the ceiling, the first q that misses raises, as at n = 1
    found = list(gamma.decompose_many(points, args.bound))
    for n in range(1, args.n_max + 1):
        multiples = found if n == 1 else gamma.decompose_many(
            (scalar_mul(backend, n, q) for q in points), args.bound
        )
        # q with n*q in Gamma but q itself undecided: evidence against purity
        purity = [
            format_point(q)
            for q, c, m in zip(points, found, multiples)
            if not isinstance(m, Undecided) and isinstance(c, Undecided)
        ]
        checks.append({"n": n, "quotient_size": gamma.gamma_mod(n).size, "purity": purity})
    return {
        "command": "axioms",
        "note": (
            "density and purity entries are bounded evidence, not proofs; "
            "decomposition-shape conditions are exercised by the ml verify command"
        ),
        "density": {
            "lo": format_rational(lo),
            "hi": format_rational(hi),
            "bins": args.bins,
            "hit_bins": hit,
            "points_seen": len(seen),
            "low_coverage": Fraction(hit, args.bins) < Fraction(1, 2),
        },
        "checks": checks,
    }


# -- human text, rendered from the machine record alone -----------------------------


def _torsion_text(factors) -> str:
    if not factors:
        return "trivial"
    return " x ".join(f"Z/{d}" for d in factors)


def _tuple_text(printed) -> str:
    return "(" + ", ".join(printed) + ")"


def _curve_info_text(rec):
    if rec["kind"] == "curve":
        yield f"kind: curve (a={rec['a']}, b={rec['b']})"
        yield f"discriminant term: {rec['discriminant_term']}"
    else:
        yield "kind: circle"
    yield f"components: {rec['components']}"
    yield f"torsion: {_torsion_text(rec['torsion_factors'])}"
    yield f"subgroup torsion: {_torsion_text(rec['subgroup_torsion_factors'])}"
    yield f"rank: {rec['rank']}"
    if rec["rank"]:
        yield (
            f"audit: {rec['rank']} free generator(s) pass the independence check"
            f" (bound {rec['audit_bound']})"
        )
    else:
        yield "audit: no free generators"
    if rec["label"] is not None:
        yield f"label: {rec['label']}"


def _bounded_text(rec):
    """point decompose and coset member: coordinates, a bool or undecided."""
    if rec["result"] == "undecided":
        yield str(Undecided(rec["bound"]))
    elif rec["result"] == "coords":
        yield str(_coords_from_json({"free": rec["free"], "tors": rec["tors"]}))
    else:
        yield str(rec["result"]).lower()


def _union_text(rec):
    vecs = [["[" + " ".join(map(str, v)) + "]" for v in res] for res in rec["residues"]]
    parts = [v[0] if rec["arity"] == 1 else "(" + ", ".join(v) + ")" for v in vecs]
    yield f"mod {rec['modulus']}: {{{', '.join(parts)}}}"


def _solve_text(rec):
    for t in rec["solutions"]:
        yield _tuple_text(t)
    yield f"solutions: {len(rec['solutions'])}, skipped: {rec['skipped']}"


def _verify_text(rec):
    from .ml_checker import Verified

    if rec["verdict"] == "verified":
        yield str(Verified(rec["bound"]))
    else:
        yield f"counterexample: {rec['direction']} {_tuple_text(rec['tuple'])}"


def _suggest_text(rec):
    from .ml_checker import Inconclusive

    if rec["verdict"] == "inconclusive":
        yield str(Inconclusive(rec["reason"]))
        for t in rec["unexplained"]:
            yield f"unexplained: {_tuple_text(t)}"
        return
    pairs = decomposition_from_json({"pairs": rec["pairs"]}).pairs
    for base, k in pairs:
        base_txt = "; ".join(str(c) for c in base)
        k_txt = " ".join(str(v) for v in k)
        yield f"base ({base_txt}) k [{k_txt}]"
    yield f"pairs: {len(pairs)}"


def _eval_text(rec):
    from .formula_eval import TriBool

    if rec.get("witnesses"):
        wit = "; ".join(_tuple_text(block) for block in rec["witnesses"])
        yield f"true (witness: {wit})"
    else:
        yield str(TriBool(rec["result"], bound=rec.get("bound")))


def _density_text(rec):
    edges = rec["edges"]
    for i, count in enumerate(rec["counts"]):
        closer = "]" if i == rec["bins"] - 1 else ")"
        yield f"[{edges[i]}, {edges[i + 1]}{closer}: {count}"
    yield f"total: {rec['total']}"


def _axioms_text(rec):
    d = rec["density"]
    yield rec["note"]
    flag = " [low coverage]" if d["low_coverage"] else ""
    yield (
        f"density: {d['hit_bins']}/{d['bins']} bins hit on [{d['lo']}, {d['hi']}]"
        f" ({d['points_seen']} points seen){flag}"
    )
    for c in rec["checks"]:
        witnesses = ", ".join(c["purity"]) or "none"
        yield f"n={c['n']}: quotient size {c['quotient_size']}; purity findings: {witnesses}"


# record -> its lines of human text, keyed by the record's "command" field
HUMAN = {
    "curve-info": _curve_info_text,
    "point-add": lambda rec: [rec["result"]],
    "point-mul": lambda rec: [rec["result"]],
    "point-decompose": _bounded_text,
    "coset-dke": _union_text,
    "coset-combine": _union_text,
    "coset-member": _bounded_text,
    "ml-solve": _solve_text,
    "ml-verify": _verify_text,
    "ml-suggest": _suggest_text,
    "eval": _eval_text,
    "density": _density_text,
    "axioms": _axioms_text,
}


# -- parser -------------------------------------------------------------------------


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", required=True, help="path to a JSON group spec file")
    common.add_argument(
        "--bound",
        type=int,
        default=DEFAULT_COEFF_BOUND,
        help="coefficient search bound for decomposition and bounded quantifiers",
    )
    common.add_argument(
        "--height",
        type=int,
        default=DEFAULT_HEIGHT_BOUND,
        help="naive height bound for rational point enumeration",
    )
    common.add_argument(
        "--ceiling",
        type=int,
        default=DEFAULT_QUOTIENT_CEILING,
        help=(
            "largest quotient, residue enumeration, coefficient box or "
            "decompose shell allowed before giving up (exit 3), for every "
            "search over the subgroup: coset dke/combine/member, density "
            "--char, point decompose, ml solve/verify/suggest, eval and "
            "axioms; ml also exits 3 when 2 * --slots exceeds it, eval "
            "when its largest x index + 2 * exists-gamma count does, "
            "density/axioms when --bins does, and axioms when its point "
            "enumeration of --height * (2 * --height + 1) candidates does"
        ),
    )
    common.add_argument(
        "--machine", action="store_true", help="line-delimited JSON output"
    )
    common.add_argument(
        "--cache-dir",
        type=Path,
        help="keep the points that axioms enumerates in this directory; no cache without it",
    )
    # accepted and ignored, so argv written for the old default cache still parse
    common.add_argument("--no-cache", action="store_true", help=argparse.SUPPRESS)
    return common


def _build_parser() -> argparse.ArgumentParser:
    common = _common_parser()
    top = argparse.ArgumentParser(
        prog="mordell",
        description=(
            "exact arithmetic in finitely generated subgroups of curve and "
            "circle groups"
        ),
    )
    sub = top.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "curve-info", parents=[common], help="backend and subgroup summary"
    ).set_defaults(run=cmd_curve_info)

    p_point = sub.add_parser("point", help="group arithmetic on points")
    p_point.set_defaults(run=cmd_point)
    point_sub = p_point.add_subparsers(dest="point_op", required=True)
    pa = point_sub.add_parser("add", parents=[common], help="add two points")
    pa.add_argument("p")
    pa.add_argument("q")
    pm = point_sub.add_parser("mul", parents=[common], help="integer multiple of a point")
    pm.add_argument("k", type=int)
    pm.add_argument("p")
    pd = point_sub.add_parser(
        "decompose", parents=[common], help="coordinates of a point in the subgroup"
    )
    pd.add_argument("p")

    p_coset = sub.add_parser("coset", help="kernel coset unions")
    p_coset.set_defaults(run=cmd_coset)
    coset_sub = p_coset.add_subparsers(dest="coset_op", required=True)
    cd = coset_sub.add_parser(
        "dke", parents=[common], help="kernel union of a character at an exponent"
    )
    cd.add_argument("--char", required=True, help="comma-separated character, e.g. 2 or 1,-1")
    cd.add_argument("--exponent", type=int, required=True)
    cc = coset_sub.add_parser(
        "combine", parents=[common], help="boolean combinations of kernel unions"
    )
    cc.add_argument(
        "--op", required=True, choices=["union", "intersect", "diff", "complement"]
    )
    cc.add_argument("operand", nargs="+", help="kernel union descriptor K:E, e.g. 1,-1:2")
    cm = coset_sub.add_parser(
        "member", parents=[common], help="membership of a point tuple"
    )
    cm.add_argument("--char", required=True)
    cm.add_argument("--exponent", type=int, required=True)
    cm.add_argument("points", nargs="+", help="point literals, one per slot")

    p_ml = sub.add_parser("ml", help="polynomial solution sets over the subgroup")
    p_ml.set_defaults(run=cmd_ml)
    ml_sub = p_ml.add_subparsers(dest="ml_op", required=True)
    ms = ml_sub.add_parser(
        "solve", parents=[common], help="bounded solution tuples of a polynomial"
    )
    ms.add_argument("poly")
    ms.add_argument(
        "--slots",
        type=int,
        required=True,
        help="tuple length n; the polynomial sees 2n coordinates",
    )
    mv = ml_sub.add_parser(
        "verify", parents=[common], help="check a claimed coset decomposition"
    )
    mv.add_argument("poly")
    mv.add_argument("--slots", type=int, required=True)
    mv.add_argument(
        "--decomposition",
        required=True,
        help="decomposition JSON, or @file to read it from a file",
    )
    mg = ml_sub.add_parser(
        "suggest", parents=[common], help="search for a coset decomposition"
    )
    mg.add_argument("poly")
    mg.add_argument("--slots", type=int, required=True)

    pe = sub.add_parser(
        "eval", parents=[common], help="evaluate a formula with bounded quantifiers"
    )
    pe.set_defaults(run=cmd_eval)
    pe.add_argument("formula")
    pe.add_argument(
        "--x",
        default=None,
        help="one comma-separated list of rational values for x1, x2, ..., "
        "e.g. --x 3,1/2 (not repeatable: a later --x replaces an earlier one)",
    )

    pd2 = sub.add_parser(
        "density", parents=[common], help="histogram of first coordinates"
    )
    pd2.set_defaults(run=cmd_density)
    pd2.add_argument("--lo", required=True)
    pd2.add_argument("--hi", required=True)
    pd2.add_argument("--bins", type=int, required=True)
    pd2.add_argument(
        "--char", default=None, help="restrict to a kernel union (with --exponent)"
    )
    pd2.add_argument("--exponent", type=int, default=None)

    px = sub.add_parser("axioms", parents=[common], help="bounded evidence report")
    px.set_defaults(run=cmd_axioms)
    px.add_argument("--n-max", type=int, default=3)
    px.add_argument("--lo", default="-4")
    px.add_argument("--hi", default="4")
    px.add_argument("--bins", type=int, default=8)

    return top


def main(argv=None) -> int:
    # built on each call, so each subcommand's `run` is the module-level
    # cmd_* function as it is bound at that moment
    args = _build_parser().parse_args(argv)
    try:
        record = args.run(args, load_group_spec(args.spec, args.ceiling))
        if args.machine:
            text = json.dumps(record)
        else:
            text = "\n".join(HUMAN[record["command"]](record))
    except QuotientCeilingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
