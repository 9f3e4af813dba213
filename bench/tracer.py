"""Layer tracing from outside the program.

`Tracer.install()` replaces each traced function with a timing wrapper at
every place a `mordell` module binds it (a function imported by name into
three modules is wrapped in all three), and methods on their classes;
`restore()` puts every original back.  Nothing inside `src/` changes.

Each call is a span: name, start, end, parent span and op id.  A layer is a
module, except that the CLI's point-cache functions form their own layer.
Self time is a span's duration minus the time covered by spans of other
layers below it; nested calls within the same layer count as the outer
span's own work (so `scalar_mul` owns the group-law steps it makes), and a
layer's total counts only its outermost spans.  Spans are kept in memory
and written out by `dump()`.  The hottest leaf functions (one call per box
tuple or per group-law step) are not stored one by one: their calls, total
and self time are summed per name, and their time still counts below the
span that called them.
"""

from __future__ import annotations

import json
import math
import sys
import time
import weakref
from collections import Counter, defaultdict

# (module, function or Class.method) of every traced name, by layer
TRACED = {
    "exact_num": ["poly_eval"],
    "intlinalg": [
        "kernel_basis",
        "smith_normal_form",
        "invariant_factors",
        "determinant",
        "ZLattice.__init__",
        "ZLattice.add_vector",
        "ZLattice.copy",
        "ZLattice.basis",
        "ZLattice.__contains__",
    ],
    "group_core": ["_add_raw", "add", "scalar_mul", "enumerate_rational_points", "torsion_subgroup"],
    "fg_group": [
        "GammaSpec.__init__",
        "GammaSpec.realize",
        "GammaSpec.decompose",
        "GammaSpec.divisible_in_gamma",
        "GammaSpec.linear_dependence",
        "GammaSpec.gamma_mod",
        "GammaSpec.transversal",
        "GammaSpec.bounded_points",
        "GammaSpec.projection_density",
        "GammaSpec.check_axioms_bounded",
    ],
    "ml_checker": [
        "solutions_bounded",
        "verify_decomposition",
        "suggest_decomposition",
        "character_image",
        "_classify",
    ],
    "formula_eval": ["parse", "parse_poly", "eval_formula", "eval_block", "eval_qf"],
    "coset_engine": [
        "dke",
        "full_union",
        "rescale",
        "union",
        "intersect",
        "difference",
        "complement",
        "member",
        "from_kernel_cosets",
        "induced_member",
        "density_sample",
        "kernel_lattice",
    ],
    "cli": [
        "main",
        "load_group_spec",
        "PointCache.load",
        "PointCache.store",
        "cached_rational_points",
        "cmd_curve_info",
        "cmd_point",
        "cmd_coset",
        "cmd_ml",
        "cmd_eval",
        "cmd_density",
        "cmd_axioms",
    ],
}
CACHE_LAYER = {"cli.PointCache.load", "cli.PointCache.store", "cli.cached_rational_points"}
# summed per name instead of stored per call
HOT = {
    "exact_num.poly_eval",
    "group_core._add_raw",
    "fg_group.GammaSpec.realize",
    "ml_checker._classify",
    "intlinalg.ZLattice.__contains__",
}


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.op = None
        self.spans = []
        self.stack = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.layer_self = Counter()
        self.counts = Counter()
        self.max_height_bits = 0
        self._realized = weakref.WeakKeyDictionary()  # spec -> coords realized
        self._restore = []
        self._hooks = {
            "group_core._add_raw": self._after_add,
            "fg_group.GammaSpec.realize": self._after_realize,
            "fg_group.GammaSpec.decompose": self._after_decompose,
            "ml_checker._classify": self._after_classify,
            "formula_eval.eval_block": self._after_block,
            "exact_num.poly_eval": self._after_poly_eval,
            "coset_engine.dke": self._after_residues,
            "coset_engine.full_union": self._after_residues,
            "cli.PointCache.load": self._after_cache_load,
        }

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        import mordell.cli  # noqa: F401  (loads every module of the package)

        modules = [m for name, m in list(sys.modules.items()) if name == "mordell" or name.startswith("mordell.")]
        for mod_name, names in TRACED.items():
            home = sys.modules[f"mordell.{mod_name}"]
            for qual in names:
                span_name = f"{mod_name}.{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(home, cls_name, None)
                    if cls is None or meth not in vars(cls):
                        continue
                    original = vars(cls)[meth]
                    setattr(cls, meth, self._wrap(span_name, original))
                    self._restore.append((cls, meth, original))
                    continue
                original = getattr(home, qual, None)
                if original is None:
                    continue
                wrapper = self._wrap(span_name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        stack, stats, spans, layer_self = self.stack, self.stats, self.spans, self.layer_self
        keep = name not in HOT
        layer = "cli.cache" if name in CACHE_LAYER else name.split(".")[0]
        after = self._hooks.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            up = stack[-1] if stack else None
            parent = up[3] if up else None
            sid = len(spans) if keep else None
            if keep:
                spans.append(None)
            # start, time in other layers below, name, nearest stored span, layer
            frame = [clock(), 0.0, name, sid if keep else parent, layer]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                own = dur - frame[1]
                if up is not None:
                    up[1] += frame[1] if up[4] == layer else dur
                if up is None or up[4] != layer:
                    layer_self[layer] += own
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += own
                if keep:
                    spans[sid] = (name, frame[0] - self.t0, end - self.t0, parent, self.op)
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        wrapper.bench_span = name
        return wrapper

    # -- counters ----------------------------------------------------------------

    def _after_add(self, res, args):
        self.counts["group_law_ops"] += 1
        if hasattr(res, "x"):
            bits = max(res.x.numerator.bit_length(), res.x.denominator.bit_length())
            if bits > self.max_height_bits:
                self.max_height_bits = bits

    def _after_realize(self, res, args):
        seen = self._realized.setdefault(args[0], set())
        key = (tuple(args[1].free), tuple(args[1].torsion))
        if key in seen:
            self.counts["realize_hits"] += 1
        else:
            seen.add(key)

    def _after_decompose(self, res, args):
        if type(res).__name__ == "Undecided":
            self.counts["undecided"] += 1

    def _after_classify(self, res, args):
        self.counts[f"classify_{res}"] += 1

    def _after_block(self, res, args):
        if res.kind == "true":
            self.counts["witnesses"] += 1

    def _after_poly_eval(self, res, args):
        if any(f[2] == "formula_eval.eval_block" for f in self.stack):
            self.counts["block_poly_evals"] += 1

    def _after_residues(self, res, args):
        gamma, n, e = args[0], (len(args[1]) if not isinstance(args[1], int) else args[1]), args[2]
        size = e**gamma.rank * math.prod(math.gcd(e, d) for d in gamma.torsion_factors)
        self.counts["residues"] += size**n
        self.counts["residue_hits"] += len(res.residues)

    def _after_cache_load(self, res, args):
        if args[0].root is not None:
            self.counts["cache_hits" if res is not None else "cache_misses"] += 1

    # -- results ------------------------------------------------------------------

    def _self(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def _total(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def _calls(self, prefix: str) -> int:
        return sum(st[0] for name, st in self.stats.items() if name.startswith(prefix))

    def layer_metrics(self) -> dict:
        """Every per-layer metric, name -> (value, unit)."""
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        tuples = self._calls("ml_checker._classify")
        blocks = self._calls("formula_eval.eval_block")
        realize = self._calls("fg_group.GammaSpec.realize")
        decompose = self._calls("fg_group.GammaSpec.decompose")
        cmd = [name for name in self.stats if name.startswith("cli.cmd_")]
        return {
            "exact_num.poly_eval.calls": (self._calls("exact_num.poly_eval"), "count"),
            "exact_num.poly_eval.self_s": (self._self("exact_num.poly_eval"), "s"),
            "intlinalg.calls": (self._calls("intlinalg."), "count"),
            "intlinalg.self_s": (self.layer_self["intlinalg"], "s"),
            "group_core.group_law_ops": (c["group_law_ops"], "count"),
            "group_core.scalar_mul.self_s": (self._self("group_core.scalar_mul"), "s"),
            "group_core.enumerate.self_s": (self._self("group_core.enumerate_rational_points"), "s"),
            "group_core.torsion.self_s": (self._self("group_core.torsion_subgroup"), "s"),
            "group_core.max_height_bits": (self.max_height_bits, "bits"),
            "group_core.self_s": (self.layer_self["group_core"], "s"),
            "fg_group.spec_build.self_s": (self._self("fg_group.GammaSpec.__init__"), "s"),
            "fg_group.realize.calls": (realize, "count"),
            "fg_group.realize.hit_ratio": (ratio(c["realize_hits"], realize), "ratio"),
            "fg_group.realize.self_s": (self._self("fg_group.GammaSpec.realize"), "s"),
            "fg_group.decompose.calls": (decompose, "count"),
            "fg_group.decompose.undecided_ratio": (ratio(c["undecided"], decompose), "ratio"),
            "fg_group.decompose.self_s": (self._self("fg_group.GammaSpec.decompose"), "s"),
            "ml_checker.tuples": (tuples, "count"),
            "ml_checker.solution_ratio": (ratio(c["classify_solution"], tuples), "ratio"),
            "ml_checker.skipped_ratio": (ratio(c["classify_skipped"], tuples), "ratio"),
            "ml_checker.self_s": (self.layer_self["ml_checker"], "s"),
            "formula_eval.blocks": (blocks, "count"),
            "formula_eval.witness_ratio": (ratio(c["witnesses"], blocks), "ratio"),
            "formula_eval.poly_evals": (c["block_poly_evals"], "count"),
            "formula_eval.self_s": (self.layer_self["formula_eval"], "s"),
            "coset_engine.residues_enumerated": (c["residues"], "count"),
            "coset_engine.hit_ratio": (ratio(c["residue_hits"], c["residues"]), "ratio"),
            "coset_engine.self_s": (self.layer_self["coset_engine"], "s"),
            "cli.spec_load_s": (self._total("cli.load_group_spec"), "s"),
            "cli.cache.hits": (c["cache_hits"], "count"),
            "cli.cache.misses": (c["cache_misses"], "count"),
            "cli.cache.load_s": (self._total("cli.PointCache.load"), "s"),
            "cli.cache.store_s": (self._total("cli.PointCache.store"), "s"),
            "cli.render.self_s": (sum(self._self(name) for name in cmd), "s"),
        }

    def dump(self, path) -> None:
        """Spans as JSON lines, then one line of per-name totals."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
            totals = {name: {"calls": st[0], "total_s": st[1], "self_s": st[2]} for name, st in sorted(self.stats.items())}
            fh.write(json.dumps({"totals": totals}) + "\n")


def installed_wrappers() -> list[str]:
    """Names under `mordell` still bound to a tracing wrapper (empty after
    `restore`)."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name != "mordell" and not name.startswith("mordell."):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, "bench_span"):
                out.append(f"{name}.{attr}")
            if isinstance(value, type):
                out.extend(f"{name}.{attr}.{m}" for m, v in vars(value).items() if hasattr(v, "bench_span"))
    return out
