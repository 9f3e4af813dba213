"""The group specs the workloads run on, in the CLI's spec-file form.

The first five are the specs of the golden CLI cases; c17 is the rank-2
group of the box searches and big-disc the curve whose torsion scan
dominates spec loading.
"""

from __future__ import annotations

from fractions import Fraction

import oracle

SPECS = {
    "m2": {"kind": "curve", "a": "0", "b": "-2", "generators": [["3", "5"]], "rank": 1, "label": "m2"},
    "c01": {"kind": "curve", "a": "0", "b": "1", "generators": [["2", "3"]], "rank": 0, "label": "c01"},
    "circ": {
        "kind": "circle",
        "generators": [["3/5", "4/5"], ["0", "1"]],
        "rank": 1,
        "label": "circ",
    },
    "m2-2p": {
        "kind": "curve",
        "a": "0",
        "b": "-2",
        "generators": [["129/100", "-383/1000"]],
        "rank": 1,
        "label": "m2-2p",
    },
    "sing": {"kind": "curve", "a": "0", "b": "0", "generators": [], "rank": 0, "label": "sing"},
    "c17": {
        "kind": "curve",
        "a": "0",
        "b": "17",
        "generators": [["-2", "3"], ["-1", "4"]],
        "rank": 2,
        "label": "c17",
    },
    "big-disc": {
        "kind": "curve",
        "a": "-10012",
        "b": "346900",
        "generators": [["4", "554"]],
        "rank": 1,
        "label": "big-disc",
    },
}

# the specs each workload builds; setup_s times exactly these
WORKLOAD_SPECS = {
    "box-search": ("m2", "circ", "c17"),
    "height-growth": ("m2", "circ", "c17", "big-disc"),
    "cli-session": tuple(SPECS),
}


def group(label: str) -> oracle.Group:
    s = SPECS[label]
    return oracle.Group(s["kind"], Fraction(s.get("a", "0")), Fraction(s.get("b", "0")))


def generators(label: str) -> list:
    return [(Fraction(x), Fraction(y)) for x, y in SPECS[label]["generators"]]


def build(label: str):
    """A GammaSpec for `label`, made through the program's own constructors."""
    from mordell.fg_group import GammaSpec
    from mordell.group_core import Circle, make_curve, point

    s = SPECS[label]
    backend = Circle() if s["kind"] == "circle" else make_curve(Fraction(s["a"]), Fraction(s["b"]))
    gens = [point(backend, Fraction(x), Fraction(y)) for x, y in s["generators"]]
    return GammaSpec(backend, gens, claimed_rank=s["rank"], label=label)
