import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mordell import cli, group_core
from mordell.errors import InputError

GOLDEN = Path(__file__).parent / "golden"

SPECS = {
    "m2.json": {
        "kind": "curve",
        "a": "0",
        "b": "-2",
        "generators": [["3", "5"]],
        "rank": 1,
        "label": "m2",
    },
    "c01.json": {
        "kind": "curve",
        "a": "0",
        "b": "1",
        "generators": [["2", "3"]],
        "rank": 0,
        "label": "c01",
    },
    "circ.json": {
        "kind": "circle",
        "generators": [["3/5", "4/5"], ["0", "1"]],
        "rank": 1,
        "label": "circ",
    },
    "m2-2p.json": {
        "kind": "curve",
        "a": "0",
        "b": "-2",
        "generators": [["129/100", "-383/1000"]],
        "rank": 1,
        "label": "m2-2p",
    },
    "c17.json": {
        "kind": "curve",
        "a": "0",
        "b": "17",
        "generators": [["-2", "3"], ["-1", "4"]],
        "rank": 2,
        "label": "c17",
    },
    # three real roots, no label
    "x3mx.json": {"kind": "curve", "a": "-1", "b": "0", "generators": [], "rank": 0},
    "sing.json": {
        "kind": "curve",
        "a": "0",
        "b": "0",
        "generators": [],
        "rank": 0,
        "label": "sing",
    },
}

# spec files that are not UTF-8, or past the JSON parser's own limits
RAW_SPECS = {
    "latin1.json": b'{"label": "\xe9"}',
    "rank-digits.json": (
        b'{"kind": "curve", "a": "0", "b": "-2", "generators": [], "rank": %s}' % (b"9" * 5000)
    ),
    "nested.json": b"[" * 100_000,
    # well-formed JSON that is not a valid spec
    "not-object.json": b"[]",
    "no-b.json": b'{"kind": "curve", "a": "0", "generators": []}',
    "bad-kind.json": b'{"kind": "torus", "generators": []}',
    "gens-not-list.json": b'{"kind": "curve", "a": "0", "b": "-2", "generators": "(3, 5)"}',
    "gen-not-pair.json": b'{"kind": "curve", "a": "0", "b": "-2", "generators": [["3"]]}',
    "rank-not-int.json": b'{"kind": "curve", "a": "0", "b": "-2", "generators": [], "rank": "0"}',
    "label-not-str.json": b'{"kind": "curve", "a": "0", "b": "-2", "generators": [], "label": 7}',
    "coeff-not-str.json": b'{"kind": "curve", "a": 0, "b": "-2", "generators": []}',
}

# (0, 0) base with kernels (1, 1) and (1, -1): explains every root of x1 - x3
DEC_BOTH = json.dumps(
    {
        "pairs": [
            {"base": [{"free": [0], "tors": []}, {"free": [0], "tors": []}], "k": [1, 1]},
            {"base": [{"free": [0], "tors": []}, {"free": [0], "tors": []}], "k": [1, -1]},
        ]
    }
)
# dropping the (1, -1) kernel leaves (P, -P) unexplained
DEC_DIAGONAL = json.dumps(
    {"pairs": [{"base": [{"free": [0], "tors": []}, {"free": [0], "tors": []}], "k": [1, 1]}]}
)

# every subcommand once, pinned against the files in tests/golden/
GOLDEN_CASES = [
    ("curve_info_m2", "m2.json", ["curve-info"]),
    ("curve_info_c01", "c01.json", ["curve-info"]),
    ("curve_info_circ", "circ.json", ["curve-info"]),
    ("point_add", "m2.json", ["point", "add", "(3, 5)", "(3, 5)"]),
    ("point_mul", "m2.json", ["point", "mul", "3", "(3, 5)"]),
    ("point_decompose", "m2.json", ["point", "decompose", "(129/100, -383/1000)"]),
    ("coset_dke", "m2.json", ["coset", "dke", "--char", "2", "--exponent", "4"]),
    (
        "coset_combine_intersect",
        "m2.json",
        ["coset", "combine", "--op", "intersect", "2:4", "3:6"],
    ),
    (
        "coset_combine_complement",
        "m2.json",
        ["coset", "combine", "--op", "complement", "1:2"],
    ),
    (
        "coset_member_true",
        "m2.json",
        ["coset", "member", "--char", "2", "--exponent", "4", "(129/100, -383/1000)"],
    ),
    (
        "coset_member_false",
        "m2.json",
        ["coset", "member", "--char", "2", "--exponent", "4", "(3, 5)"],
    ),
    ("ml_solve", "m2.json", ["ml", "solve", "(- x2 x4)", "--slots", "2", "--bound", "3"]),
    (
        "ml_suggest",
        "m2.json",
        ["ml", "suggest", "(- x2 x4)", "--slots", "2", "--bound", "3"],
    ),
    ("eval_true", "m2.json", ["eval", "(exists-gamma 1 (= x1 y1))", "--x", "3"]),
    (
        "eval_unknown",
        "m2.json",
        ["eval", "(exists-gamma 1 (= x1 y1))", "--x", "2", "--bound", "8"],
    ),
    (
        "density",
        "m2.json",
        ["density", "--lo", "0", "--hi", "10", "--bins", "4", "--height", "150"],
    ),
    ("axioms", "m2.json", ["axioms", "--n-max", "2", "--height", "30"]),
    # every output branch the rows above leave out
    ("curve_info_unlabelled", "x3mx.json", ["curve-info"]),
    ("point_decompose_torsion", "circ.json", ["point", "decompose", "(-3/5, 4/5)"]),
    ("point_decompose_undecided", "m2-2p.json", ["point", "decompose", "(3, 5)"]),
    (
        "coset_member_undecided",
        "m2-2p.json",
        ["coset", "member", "--char", "2", "--exponent", "4", "(3, 5)"],
    ),
    ("coset_dke_arity2", "circ.json", ["coset", "dke", "--char", "1,1", "--exponent", "2"]),
    ("coset_combine_diff", "circ.json", ["coset", "combine", "--op", "diff", "1:2", "1:4"]),
    (
        "ml_verify_verified",
        "m2.json",
        ["ml", "verify", "(- x1 x3)", "--slots", "2", "--bound", "3", "--decomposition", DEC_BOTH],
    ),
    (
        "ml_verify_counterexample",
        "m2.json",
        ["ml", "verify", "(- x1 x3)", "--slots", "2", "--bound", "3", "--decomposition", DEC_DIAGONAL],
    ),
    (
        "ml_suggest_inconclusive",
        "c17.json",
        ["ml", "suggest", "(- (+ x1 x3) 1)", "--slots", "2", "--bound", "2"],
    ),
    ("ml_suggest_empty", "m2.json", ["ml", "suggest", "(- x1 100)", "--slots", "1", "--bound", "2"]),
    ("eval_true_no_witness", "m2.json", ["eval", "(= x1 3)", "--x", "3"]),
    (
        "eval_two_witnesses",
        "m2.json",
        ["eval", "(and (exists-gamma 1 (= x1 y1)) (exists-gamma 1 (< 0 y2)))", "--x", "3"],
    ),
    ("eval_false", "m2.json", ["eval", "(not (exists-gamma 1 (= x1 y1)))", "--x", "3"]),
    (
        "density_char",
        "m2.json",
        ["density", "--lo", "0", "--hi", "10", "--bins", "4", "--height", "150",
         "--char", "2", "--exponent", "4"],
    ),
    ("axioms_purity", "m2-2p.json", ["axioms", "--n-max", "2", "--height", "30"]),
]


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("specs")
    for name, payload in SPECS.items():
        (d / name).write_text(json.dumps(payload), encoding="utf-8")
    for name, data in RAW_SPECS.items():
        (d / name).write_bytes(data)
    return d


def run_cli(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _argv(spec_dir, spec, args, extra):
    return args + ["--spec", str(spec_dir / spec)] + extra


# -- golden outputs -----------------------------------------------------------------


@pytest.mark.parametrize("name,spec,args", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_human_output_matches_golden(name, spec, args, spec_dir, capsys):
    rc, out, err = run_cli(capsys, _argv(spec_dir, spec, args, []))
    assert rc == 0
    assert err == ""
    assert out == (GOLDEN / f"{name}.human.txt").read_text()


@pytest.mark.parametrize("name,spec,args", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_machine_output_matches_golden(name, spec, args, spec_dir, capsys):
    rc, out, err = run_cli(capsys, _argv(spec_dir, spec, args, ["--machine"]))
    assert rc == 0
    assert err == ""
    assert out == (GOLDEN / f"{name}.machine.jsonl").read_text()
    lines = out.splitlines()
    assert len(lines) == 1  # one JSON record per command
    record = json.loads(lines[0])
    assert record["command"] == "-".join(args[:2] if args[0] in ("point", "coset", "ml") else args[:1])


@pytest.mark.parametrize("name", [c[0] for c in GOLDEN_CASES])
def test_human_text_is_rendered_from_the_record(name):
    # the human golden follows from the machine golden alone, so the two
    # outputs cannot drift apart
    rec = json.loads((GOLDEN / f"{name}.machine.jsonl").read_text())
    text = "\n".join(cli.HUMAN[rec["command"]](rec)) + "\n"
    assert text == (GOLDEN / f"{name}.human.txt").read_text()


# -- spec examples, asserted inline -------------------------------------------------


def test_point_add_example(spec_dir, capsys):
    rc, out, _ = run_cli(
        capsys,
        ["point", "add", "(3, 5)", "(3, 5)", "--spec", str(spec_dir / "m2.json")],
    )
    assert rc == 0
    assert out == "(129/100, -383/1000)\n"


def test_point_mul_to_identity_on_torsion(spec_dir, capsys):
    rc, out, _ = run_cli(
        capsys,
        ["point", "mul", "6", "(2, 3)", "--spec", str(spec_dir / "c01.json")],
    )
    assert rc == 0
    assert out == "O\n"


def test_eval_negation_of_true_is_false(spec_dir, capsys):
    rc, out, _ = run_cli(
        capsys,
        [
            "eval",
            "(not (exists-gamma 1 (= x1 y1)))",
            "--x",
            "3",
            "--spec",
            str(spec_dir / "m2.json"),
        ],
    )
    assert rc == 0
    assert out == "false\n"


def test_curve_info_two_components(spec_file, capsys):
    # three real roots of x^3 - x give two real components
    path = spec_file(
        {"kind": "curve", "a": "-1", "b": "0", "generators": [], "rank": 0}
    )
    rc, out, _ = run_cli(capsys, ["curve-info", "--spec", path])
    assert rc == 0
    assert "components: 2" in out


def test_decompose_undecided(spec_dir, capsys):
    # (3, 5) lies outside the index-2 subgroup, so the bounded search cannot
    # settle membership either way
    rc, out, _ = run_cli(
        capsys,
        ["point", "decompose", "(3, 5)", "--spec", str(spec_dir / "m2-2p.json")],
    )
    assert rc == 0
    assert out == "undecided(bound=16)\n"


@pytest.mark.parametrize(
    "spec,args,code,out",
    [
        # found in shell 1, so the search never indexes shell 300
        ("m2.json", ["point", "decompose", "(3, 5)", "--bound", "300"], 0, "free=[1] tors=[]\n"),
        # P is not in <2P>: shell 11's box of 23 exceeds the ceiling
        ("m2-2p.json", ["point", "decompose", "(3, 5)", "--bound", "300", "--ceiling", "21"], 3, ""),
        (
            "m2-2p.json",
            ["point", "decompose", "(129/100, -383/1000)", "--bound", "300", "--ceiling", "21"],
            0,
            "free=[1] tors=[]\n",
        ),
        # shell 10's box of 21 is within the ceiling
        (
            "m2-2p.json",
            ["point", "decompose", "(3, 5)", "--bound", "10", "--ceiling", "21"],
            0,
            "undecided(bound=10)\n",
        ),
        # coset member and axioms decompose under the same ceiling; at
        # height 3 the enumeration of 3 * 7 = 21 candidates fits it
        (
            "m2-2p.json",
            ["coset", "member", "--char", "1", "--exponent", "2", "(3, 5)", "--bound", "12",
             "--ceiling", "21"],
            3,
            "",
        ),
        (
            "m2-2p.json",
            ["coset", "member", "--char", "1", "--exponent", "2", "(3, 5)", "--bound", "10",
             "--ceiling", "21"],
            0,
            "undecided(bound=10)\n",
        ),
        (
            "m2-2p.json",
            ["axioms", "--n-max", "2", "--height", "3", "--bound", "12", "--ceiling", "21"],
            3,
            "",
        ),
    ],
)
def test_decompose_searches_shells_under_ceiling(spec, args, code, out, spec_dir, capsys):
    rc, got, err = run_cli(capsys, _argv(spec_dir, spec, args, []))
    assert (rc, got) == (code, out)
    if code == 3:
        assert err.splitlines() == ["error: decompose shell of size 23 exceeds ceiling 21"]


def test_ml_verify_decomposition_inline(spec_dir, capsys):
    rc, out, _ = run_cli(
        capsys,
        [
            "ml",
            "verify",
            "(- x1 x3)",
            "--slots",
            "2",
            "--bound",
            "3",
            "--decomposition",
            DEC_BOTH,
            "--spec",
            str(spec_dir / "m2.json"),
        ],
    )
    assert rc == 0
    assert out == "verified(bound=3)\n"


def test_ml_verify_counterexample(spec_dir, capsys):
    rc, out, _ = run_cli(
        capsys,
        [
            "ml",
            "verify",
            "(- x1 x3)",
            "--slots",
            "2",
            "--bound",
            "3",
            "--decomposition",
            DEC_DIAGONAL,
            "--spec",
            str(spec_dir / "m2.json"),
        ],
    )
    assert rc == 0
    assert out.startswith("counterexample: missing-from-union ((3, ")


def test_suggest_verify_round_trip(spec_dir, capsys, tmp_path):
    base = ["--spec", str(spec_dir / "m2.json")]
    rc, out, _ = run_cli(
        capsys,
        ["ml", "suggest", "(- x2 x4)", "--slots", "2", "--bound", "3", "--machine"] + base,
    )
    assert rc == 0
    record = json.loads(out)
    assert record["verdict"] == "decomposition"

    dec = json.dumps({"pairs": record["pairs"]})
    verify = ["ml", "verify", "(- x2 x4)", "--slots", "2", "--bound", "3"]
    rc, out, _ = run_cli(capsys, verify + ["--decomposition", dec] + base)
    assert rc == 0
    assert out == "verified(bound=3)\n"

    # same decomposition via @file
    path = tmp_path / "dec.json"
    path.write_text(dec, encoding="utf-8")
    rc, out2, _ = run_cli(capsys, verify + ["--decomposition", f"@{path}"] + base)
    assert rc == 0
    assert out2 == out


def test_suggest_full_rank_cluster_takes_the_zero_character(spec_dir, capsys):
    # every tuple solves (- x1 x1), so the difference lattice has full rank
    # and only the zero character is left to cut the cluster
    base = ["--spec", str(spec_dir / "m2.json")]
    args = ["(- x1 x1)", "--slots", "1", "--bound", "2"]
    rc, out, _ = run_cli(capsys, ["ml", "suggest"] + args + ["--machine"] + base)
    assert rc == 0
    record = json.loads(out)
    assert record["verdict"] == "decomposition"
    assert record["pairs"] == [{"base": [{"free": [0], "tors": []}], "k": [0]}]

    dec = json.dumps({"pairs": record["pairs"]})
    rc, out, _ = run_cli(capsys, ["ml", "verify"] + args + ["--decomposition", dec] + base)
    assert rc == 0
    assert out == "verified(bound=2)\n"


def test_unreadable_decomposition_file(spec_dir, capsys, tmp_path):
    path = tmp_path / "dec.json"
    path.write_bytes(b'{"pairs": "\xff"}')
    args = ["ml", "verify", "(- x1 x3)", "--slots", "2", "--decomposition", f"@{path}"]
    rc, out, err = run_cli(capsys, _argv(spec_dir, "m2.json", args, []))
    assert (rc, out) == (2, "")
    assert err.startswith("error: cannot read decomposition file: ")
    assert len(err.splitlines()) == 1


def test_coset_combine_union(spec_dir, capsys):
    # 2:4 and 3:6 are both the even classes, so their union at the lcm 12 is too
    args = ["coset", "combine", "--op", "union", "2:4", "3:6"]
    rc, out, err = run_cli(capsys, _argv(spec_dir, "m2.json", args, ["--machine"]))
    assert (rc, err) == (0, "")
    rec = json.loads(out)
    assert rec["modulus"] == 12
    assert rec["residues"] == [[[r]] for r in range(0, 12, 2)]
    assert rec["coarsened"] is False


# -- exit codes ---------------------------------------------------------------------

ONES = "1" * 5000
SEVENS = "7" * 2000
TEN_2500 = 10**2500


@pytest.mark.parametrize(
    "spec,args,code,fragment",
    [
        ("sing.json", ["curve-info"], 2, "singular curve"),
        ("missing.json", ["curve-info"], 2, "cannot read spec file"),
        ("m2.json", ["point", "add", "(1, 1)", "(3, 5)"], 2, "not on the variety"),
        ("m2.json", ["eval", "(= x1"], 2, "missing ')'"),
        (
            "m2.json",
            ["coset", "dke", "--char", "1,1", "--exponent", "10000"],
            3,
            "exceeds ceiling 1000000",
        ),
        ("m2.json", ["eval", "(= x1 0)", "--x", "nope"], 2, ""),
        ("m2.json", ["point", "decompose", "(3, 5)", "--bound", "-3"], 2, "bound must be >= 0"),
        (
            "m2.json",
            ["ml", "verify", "(- x1 x3)", "--slots", "2", "--decomposition",
             '{"pairs": [{"base": [{"free": [0, 1], "tors": []}, '
             '{"free": [0], "tors": []}], "k": [1, -1]}]}'],
            2,
            "do not fit rank 1",
        ),
        (
            "m2.json",
            ["ml", "solve", "(- x1 x3)", "--slots", "3", "--bound", "500"],
            3,
            "exceeds ceiling 1000000",
        ),
        ("m2.json", ["point", "mul", "80", "(3, 5)"], 3, "exceeds ceiling"),
        # literals longer than the int-from-str digit limit
        ("m2.json", ["point", "add", f"({ONES}, 1)", "(3, 5)"], 2, "exceeds the digit limit"),
        ("m2.json", ["eval", "(= x1 0)", "--x", ONES], 2, "exceeds the digit limit"),
        # results too long to print: the density edges, and the coefficients
        # of a cubed polynomial, which every ml and eval record carries
        ("m2.json", ["density", "--lo", f"1/{TEN_2500 + 1}", "--hi", f"1/{TEN_2500}",
                     "--bins", "3"], 3, "exceeds ceiling 4300"),
        ("m2.json", ["density", "--lo", f"1/{TEN_2500 + 1}", "--hi", f"1/{TEN_2500}",
                     "--bins", "3", "--machine"], 3, "exceeds ceiling 4300"),
        ("m2.json", ["ml", "solve", f"(^ (+ x1 {SEVENS}) 3)", "--slots", "1", "--bound", "1"],
         3, "exceeds ceiling 4300"),
        ("m2.json", ["ml", "solve", f"(^ (+ x1 {SEVENS}) 3)", "--slots", "1", "--bound", "1",
                     "--machine"], 3, "exceeds ceiling 4300"),
        ("m2.json", ["eval", f"(= (^ (+ x1 {SEVENS}) 3) 0)", "--x", "1", "--machine"],
         3, "exceeds ceiling 4300"),
        # integer literals of the formula grammar past the digit limit
        ("m2.json", ["eval", f"(= (^ x1 {ONES}) 0)", "--x", "1"], 2, "exceeds the digit limit"),
        ("m2.json", ["eval", f"(exists-gamma {ONES} (= x1 y1))", "--x", "1"], 2,
         "exceeds the digit limit"),
        ("m2.json", ["eval", f"(= x{ONES} 0)", "--x", "1"], 2, "exceeds the digit limit"),
        ("m2.json", ["ml", "solve", f"(- x{ONES} x3)", "--slots", "2", "--bound", "1"], 2,
         "exceeds the digit limit"),
        # the slot count alone exceeds the ceiling, before any box is built
        ("m2.json", ["ml", "solve", "(- x1 x3)", "--slots", "1000000000", "--bound", "0"], 3,
         "size 2000000000 exceeds ceiling 1000000"),
        # eval's polynomial arity, largest x index + 2 * exists-gamma count,
        # exceeds the ceiling before any polynomial is built
        ("m2.json", ["eval", "(= x10000000 0)", "--x", "1"], 3,
         "size 10000000 exceeds ceiling 1000000"),
        ("m2.json", ["eval", "(exists-gamma 3000000 (= x1 y1))", "--x", "1", "--bound", "0"], 3,
         "size 6000001 exceeds ceiling 1000000"),
        # a histogram's bin count counts against the ceiling before it is built
        ("m2.json", ["density", "--lo", "0", "--hi", "1", "--bins", "1000000000"], 3,
         "size 1000000000 exceeds ceiling 1000000"),
        ("m2.json", ["density", "--lo", "0", "--hi", "1", "--bins", "1000000000",
                     "--char", "1", "--exponent", "2"], 3,
         "size 1000000000 exceeds ceiling 1000000"),
        ("m2.json", ["axioms", "--bins", "1000000000", "--height", "5"], 3,
         "size 1000000000 exceeds ceiling 1000000"),
        # coset combine checks its operand count and the operands' arities
        ("m2.json", ["coset", "combine", "--op", "union", "1:2"], 2,
         "union takes exactly two operands"),
        ("m2.json", ["coset", "combine", "--op", "complement", "1:2", "1:4"], 2,
         "complement takes exactly one operand"),
        ("m2.json", ["coset", "combine", "--op", "union", "1:2", "1,1:2"], 2,
         "arity mismatch: 1 vs 2"),
        # input files from outside the program: bytes that are not UTF-8, an
        # integer past the int-from-str digit limit, nesting past the JSON
        # parser's recursion limit
        ("latin1.json", ["curve-info"], 2, "cannot read spec file"),
        ("rank-digits.json", ["curve-info"], 2, "is not valid JSON"),
        ("nested.json", ["curve-info"], 2, "is not valid JSON"),
        ("m2.json", ["ml", "verify", "(- x1 x3)", "--slots", "2", "--decomposition",
                     '{"pairs": %s}' % ("9" * 5000)], 2, "decomposition is not valid JSON"),
        ("m2.json", ["ml", "verify", "(- x1 x3)", "--slots", "2", "--decomposition",
                     "[" * 50_000], 2, "decomposition is not valid JSON"),
        # formulas nested past the reader's limit
        ("m2.json", ["eval", "(and " * 2999 + "(= x1 3)" + ")" * 2999, "--x", "3"], 2,
         "nesting deeper than 200 levels"),
        ("m2.json", ["ml", "solve", "(+ " * 3000 + "x1" + " 1)" * 3000, "--slots", "1"], 2,
         "nesting deeper than 200 levels"),
        # spec files that parse as JSON but break the spec schema
        ("not-object.json", ["curve-info"], 2, "spec file must hold a JSON object"),
        ("no-b.json", ["curve-info"], 2, "curve spec needs coefficient strings 'a' and 'b'"),
        ("bad-kind.json", ["curve-info"], 2, "spec 'kind' must be"),
        ("gens-not-list.json", ["curve-info"], 2, "spec 'generators' must be a list"),
        ("gen-not-pair.json", ["curve-info"], 2, "generator ['3'] is not an [x, y] pair"),
        ("rank-not-int.json", ["curve-info"], 2, "spec 'rank' must be an integer"),
        ("label-not-str.json", ["curve-info"], 2, "spec 'label' must be a string"),
        ("coeff-not-str.json", ["curve-info"], 2, "spec field 'a' must be a canonical rational"),
        # decompositions that parse as JSON but break the record schema
        *(
            ("m2.json", ["ml", "verify", "(- x1 x3)", "--slots", "2", "--decomposition", dec],
             2, fragment)
            for dec, fragment in [
                ('{"pairs": [], "k": []}', "needs exactly the key 'pairs'"),
                ('{"pairs": {}}', "'pairs' must be a list"),
                ('{"pairs": [{"base": []}]}', "exactly the keys 'base' and 'k'"),
                ('{"pairs": [{"base": {}, "k": [1, -1]}]}', "'base' must be a list"),
                ('{"pairs": [{"base": [], "k": [1, true]}]}', "'k' must be a list of integers"),
                ('{"pairs": [{"base": [{"free": [0]}], "k": [1, -1]}]}',
                 "exactly the keys 'free' and 'tors'"),
                ('{"pairs": [{"base": [{"free": [0.5], "tors": []}], "k": [1, -1]}]}',
                 "'free' must be a list of integers"),
                ('{"pairs": [{"base": [{"free": [0], "tors": ["0"]}], "k": [1, -1]}]}',
                 "'tors' must be a list of integers"),
            ]
        ),
        # flags and operands the argument parser lets through
        ("m2.json", ["coset", "dke", "--char", "1,x", "--exponent", "2"], 2,
         "--char must be a comma-separated integer list, got '1,x'"),
        ("m2.json", ["coset", "combine", "--op", "union", "12", "1:2"], 2,
         "coset operand must look like K:E, got '12'"),
        ("m2.json", ["coset", "combine", "--op", "union", "1:x", "1:2"], 2,
         "coset operand exponent must be an integer, got 'x'"),
        ("m2.json", ["ml", "solve", "(- x1 x3)", "--slots", "0"], 2, "--slots must be >= 1"),
        ("m2.json", ["density", "--lo", "0", "--hi", "1", "--bins", "2", "--char", "1"], 2,
         "--char needs --exponent"),
        ("m2.json", ["density", "--lo", "0", "--hi", "1", "--bins", "2", "--exponent", "2"], 2,
         "--exponent needs --char"),
        ("m2.json", ["coset", "dke", "--char", "1", "--exponent", "0"], 2, "e must be >= 1, got 0"),
    ],
)
def test_error_exit_codes(spec, args, code, fragment, spec_dir, capsys):
    rc, out, err = run_cli(capsys, _argv(spec_dir, spec, args, []))
    assert rc == code
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert fragment in err


def test_eval_without_free_values(spec_dir, capsys):
    # no --x gives an empty list of free values, for a formula with no x
    args = ["eval", "(exists-gamma 1 (= y1 3))", "--machine"]
    rc, out, err = run_cli(capsys, _argv(spec_dir, "m2.json", args, []))
    assert (rc, err) == (0, "")
    assert json.loads(out) == {
        "command": "eval",
        "formula": "(exists-gamma 1 (= y1 3))",
        "x": [],
        "result": "true",
        "witnesses": [["(3, -5)"]],
    }


def test_formula_nesting_limit(spec_dir, capsys):
    # 200 levels answer; one more is refused at the opening '(' of level 201
    formula = "(and " * 199 + "(= x1 3)" + ")" * 199
    rc, out, err = run_cli(capsys, _argv(spec_dir, "m2.json", ["eval", formula, "--x", "3"], []))
    assert (rc, out, err) == (0, "true\n", "")
    poly = "(+ " * 200 + "x1" + " 1)" * 200
    args = ["ml", "solve", poly, "--slots", "1", "--bound", "1", "--machine"]
    rc, out, err = run_cli(capsys, _argv(spec_dir, "m2.json", args, []))
    assert (rc, err) == (0, "")
    assert json.loads(out)["poly"] == "(+ x1 200)"
    args = ["eval", f"(and {formula})", "--x", "3"]
    rc, out, err = run_cli(capsys, _argv(spec_dir, "m2.json", args, []))
    assert (rc, out) == (2, "")
    assert err == "error: line 1, column 1001: nesting deeper than 200 levels\n"


@pytest.mark.parametrize(
    "args,digits",
    [
        (["point", "mul", "80", "(3, 5)"], 5626),
        (["density", "--lo", f"1/{TEN_2500 + 1}", "--hi", f"1/{TEN_2500}", "--bins", "3"], 5001),
        (["eval", f"(= (^ (+ x1 {SEVENS}) 3) 0)", "--x", "1", "--machine"], 6000),
    ],
)
def test_digit_limit_has_its_own_message(args, digits, spec_dir, capsys):
    # a number too long to print is not a residue enumeration: the message
    # names its digit count and the limit
    rc, out, err = run_cli(capsys, _argv(spec_dir, "m2.json", args, []))
    assert (rc, out) == (3, "")
    assert err == (
        f"error: number of {digits} digits exceeds ceiling 4300, the int-to-str digit limit\n"
    )


@pytest.mark.parametrize(
    "args,arity",
    [
        (["ml", "solve", "(- x1 x3)", "--slots", "1000000000", "--bound", "0"], 2000000000),
        (["eval", "(= x10000000 0)", "--x", "1"], 10000000),
        (["eval", "(exists-gamma 3000000 (= x1 y1))", "--x", "1", "--bound", "0"], 6000001),
    ],
)
def test_arity_ceiling_has_its_own_message(args, arity, spec_dir, capsys):
    # a polynomial arity is not a residue enumeration: the message names it
    rc, out, err = run_cli(capsys, _argv(spec_dir, "m2.json", args, []))
    assert (rc, out) == (3, "")
    assert err == (
        f"error: polynomial arity {arity}: an exponent vector of size {arity}"
        " exceeds ceiling 1000000\n"
    )


def test_spec_load_never_computes_the_torsion_subgroup(spec_dir, spec_file, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("spec load computed the torsion subgroup")

    monkeypatch.setattr(group_core, "torsion_subgroup", refuse)
    monkeypatch.setattr(group_core, "_torsion_points", refuse)
    big_disc = spec_file(
        {"kind": "curve", "a": "-10012", "b": "346900", "generators": [["4", "554"]], "rank": 1}
    )
    paths = [str(spec_dir / name) for name in SPECS if name != "sing.json"] + [big_disc]
    for path in paths:
        cli.load_group_spec(path)
    with pytest.raises(InputError, match="singular curve"):
        cli.load_group_spec(str(spec_dir / "sing.json"))


def test_argparse_rejection_exits_2(spec_dir, capsys):
    # non-integer multiplier is refused by the argument parser itself
    with pytest.raises(SystemExit) as exc:
        cli.main(
            ["point", "mul", "two", "(3, 5)", "--spec", str(spec_dir / "m2.json")]
        )
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_spec_key_rejected(spec_file, capsys):
    path = spec_file(
        {"kind": "curve", "a": "0", "b": "-2", "coefficients": [1], "generators": [], "rank": 0}
    )
    rc, out, err = run_cli(capsys, ["curve-info", "--spec", path])
    assert rc == 2
    assert "unknown spec file keys: coefficients" in err


def test_circle_spec_rejects_curve_coefficients(spec_file, capsys):
    path = spec_file({"kind": "circle", "a": "0", "generators": [], "rank": 0})
    rc, _, err = run_cli(capsys, ["curve-info", "--spec", path])
    assert rc == 2
    assert "circle" in err


def test_ceiling_flag_is_honored(spec_dir, capsys):
    argv = [
        "coset",
        "dke",
        "--char",
        "2",
        "--exponent",
        "4",
        "--spec",
        str(spec_dir / "m2.json"),
    ]
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    assert out == "mod 4: {[0], [2]}\n"
    # the same enumeration scans 4 residue cells, so a ceiling of 3 refuses it
    rc, out, err = run_cli(capsys, argv + ["--ceiling", "3"])
    assert rc == 3
    assert out == ""
    assert "exceeds ceiling 3" in err


@pytest.mark.parametrize(
    "args,line",
    [
        (["density", "--lo", "0", "--hi", "1", "--bins", "1000000000"],
         "error: histogram of size 1000000000 exceeds ceiling 1000000"),
        (["axioms", "--bins", "1000000000", "--height", "5"],
         "error: histogram of size 1000000000 exceeds ceiling 1000000"),
        (["coset", "dke", "--char", "1", "--exponent", "2000000"],
         "error: quotient of size 2000000 exceeds ceiling 1000000"),
        (["coset", "dke", "--char", "1,1", "--exponent", "10000"],
         "error: residue enumeration of size 100000000 exceeds ceiling 1000000"),
        # height * (2 * height + 1) enumeration candidates, refused before
        # the first one is tried
        (["axioms", "--n-max", "2", "--height", "30", "--bound", "12", "--ceiling", "21"],
         "error: point enumeration of size 1830 exceeds ceiling 21"),
        (["axioms", "--n-max", "1", "--height", "3000", "--ceiling", "10"],
         "error: point enumeration of size 18003000 exceeds ceiling 10"),
    ],
)
def test_ceiling_error_names_what_it_refused(args, line, spec_dir, capsys):
    # decompose shells and coefficient boxes are named in the two tests
    # that pin their ceilings
    rc, out, err = run_cli(capsys, _argv(spec_dir, "m2.json", args, []))
    assert (rc, out) == (3, "")
    assert err.splitlines() == [line]


@pytest.mark.parametrize(
    "args,ceiling",
    [
        # 7^2 = 49 box tuples
        (["ml", "solve", "(- x2 x4)", "--slots", "2", "--bound", "3"], "48"),
        (["ml", "verify", "(- x2 x4)", "--slots", "2", "--bound", "3",
          "--decomposition", '{"pairs": []}'], "48"),
        # the box fits, the doubled window of 13^2 = 169 tuples does not
        (["ml", "suggest", "(- x2 x4)", "--slots", "2", "--bound", "3"], "168"),
        # 33 candidates at the default bound 16
        (["eval", "(exists-gamma 1 (= x1 y1))", "--x", "3"], "32"),
    ],
)
def test_box_searches_obey_ceiling(args, ceiling, spec_dir, capsys):
    argv = args + ["--spec", str(spec_dir / "m2.json")]
    rc, out, err = run_cli(capsys, argv + ["--ceiling", ceiling])
    assert (rc, out) == (3, "")
    # every row, the suggest window included, refuses a coefficient box
    assert err.splitlines() == [f"error: coefficient box of size {int(ceiling) + 1} exceeds ceiling {ceiling}"]
    rc, _, _ = run_cli(capsys, argv + ["--ceiling", str(int(ceiling) + 1)])
    assert rc == 0


# -- axioms records -------------------------------------------------------------------


def _axioms_record(capsys, spec, args):
    rc, out, err = run_cli(capsys, ["axioms", *args, "--spec", spec, "--machine"])
    assert (rc, err) == (0, "")
    return json.loads(out)


def test_axioms_purity_witnesses_lie_outside_the_subgroup(spec_dir, capsys):
    # P = (3, 5) is not in <2P>, but 2 * (+-P) is
    rec = _axioms_record(capsys, str(spec_dir / "m2-2p.json"), ["--n-max", "2", "--height", "30"])
    assert [c["purity"] for c in rec["checks"]] == [[], ["(3, -5)", "(3, 5)"]]
    assert "evidence" in rec["note"]


def test_axioms_quotient_sizes(spec_dir, capsys):
    rec = _axioms_record(capsys, str(spec_dir / "m2.json"), ["--n-max", "3", "--height", "30"])
    assert [c["quotient_size"] for c in rec["checks"]] == [1, 2, 3]
    assert [c["purity"] for c in rec["checks"]] == [[], [], []]


def test_axioms_density_flags_thin_subgroups(spec_dir, capsys):
    args = ["--n-max", "1", "--height", "100", "--lo", "-10", "--hi", "10", "--bins", "10",
            "--bound", "4"]
    rec = _axioms_record(capsys, str(spec_dir / "c01.json"), args)
    assert rec["density"]["low_coverage"] is True


def test_axioms_density_counts_the_identity_component_only(spec_file, capsys):
    # y^2 = x^3 - 36x has its oval over [-6, 0]: P = (-3, 9) lies on it and
    # 2P = (25/4, -35/8) on the identity branch, so only +-2P are counted
    path = spec_file({"kind": "curve", "a": "-36", "b": "0", "generators": [["-3", "9"]]})
    args = ["--n-max", "1", "--height", "100", "--lo", "-10", "--hi", "20", "--bins", "6"]
    density = _axioms_record(capsys, path, args)["density"]
    assert (density["points_seen"], density["hit_bins"]) == (2, 1)


# -- cache behaviour ----------------------------------------------------------------

AXIOMS = ["axioms", "--n-max", "2", "--height", "30"]
AXIOMS_GOLDEN = (GOLDEN / "axioms.human.txt").read_text()


def _axioms_argv(spec_dir, extra):
    return AXIOMS + ["--spec", str(spec_dir / "m2.json")] + extra


def _cold_cache_file(spec_dir, cache, capsys):
    """Run axioms once under --cache-dir cache; return the one file it wrote."""
    rc, out, _ = run_cli(capsys, _axioms_argv(spec_dir, ["--cache-dir", str(cache)]))
    assert (rc, out) == (0, AXIOMS_GOLDEN)
    (path,) = cache.glob("points-*.json")
    return path


def _assert_rebuilt(spec_dir, cache, path, original, capsys):
    """A rerun prints the golden and writes the file afresh, which only a
    miss does: the cache stores exactly what a cold run stored."""
    rc, out, err = run_cli(capsys, _axioms_argv(spec_dir, ["--cache-dir", str(cache)]))
    assert (rc, out, err) == (0, AXIOMS_GOLDEN, "")
    assert path.read_text() == original


def test_cache_cold_warm_and_off_agree(spec_dir, tmp_path, capsys):
    cache = tmp_path / "cache"
    rc, cold, _ = run_cli(capsys, _axioms_argv(spec_dir, ["--cache-dir", str(cache)]))
    assert rc == 0
    files = sorted(cache.glob("points-*.json"))
    assert len(files) == 1
    rc, warm, _ = run_cli(capsys, _axioms_argv(spec_dir, ["--cache-dir", str(cache)]))
    assert rc == 0
    rc, off, _ = run_cli(capsys, _axioms_argv(spec_dir, []))
    assert rc == 0
    assert cold == warm == off
    assert cold == AXIOMS_GOLDEN


def test_corrupt_cache_file_is_discarded(spec_dir, tmp_path, capsys):
    cache = tmp_path / "cache"
    path = _cold_cache_file(spec_dir, cache, capsys)
    original = path.read_text()
    path.write_text("{not json", encoding="utf-8")
    _assert_rebuilt(spec_dir, cache, path, original, capsys)


def test_tampered_cache_points_are_revalidated(spec_dir, tmp_path, capsys):
    cache = tmp_path / "cache"
    path = _cold_cache_file(spec_dir, cache, capsys)
    original = path.read_text()
    payload = json.loads(original)
    assert "(3, 5)" in payload["points"]
    # (3, 7) is off the variety; parse_point must refuse it on load
    payload["points"] = ["(3, 7)" if p == "(3, 5)" else p for p in payload["points"]]
    path.write_text(json.dumps(payload), encoding="utf-8")
    _assert_rebuilt(spec_dir, cache, path, original, capsys)


def test_stale_format_version_is_ignored(spec_dir, tmp_path, capsys):
    # the key names the format version, the backend and the height bound;
    # a file whose key differs in any of them is a miss
    cache = tmp_path / "cache"
    path = _cold_cache_file(spec_dir, cache, capsys)
    original = path.read_text()
    payload = json.loads(original)
    version = f"v{cli.CACHE_FORMAT_VERSION} "
    assert payload["key"].startswith(version)
    payload["key"] = "v0 " + payload["key"][len(version):]
    path.write_text(json.dumps(payload), encoding="utf-8")
    _assert_rebuilt(spec_dir, cache, path, original, capsys)


@pytest.mark.parametrize(
    "corrupt",
    [
        # a JSON integer past the int-from-str digit limit
        lambda payload: '{"key": %s, "points": [%s]}' % (json.dumps(payload["key"]), "9" * 5000),
        # nesting past the JSON parser's recursion limit
        lambda payload: "[" * 100_000,
        # an entry that is not a point literal string
        lambda payload: json.dumps(dict(payload, points=[["3", "5"], *payload["points"]])),
        # a JSON document that is not an object
        lambda payload: json.dumps(payload["points"]),
        # bytes that are not UTF-8
        lambda payload: "\udcff",
    ],
    ids=["digits", "nesting", "non-string-entry", "not-an-object", "not-utf8"],
)
def test_unparsable_cache_file_is_a_miss(corrupt, spec_dir, tmp_path, capsys):
    cache = tmp_path / "cache"
    path = _cold_cache_file(spec_dir, cache, capsys)
    original = path.read_text()
    path.write_bytes(corrupt(json.loads(original)).encode("utf-8", "surrogateescape"))
    _assert_rebuilt(spec_dir, cache, path, original, capsys)


def test_cache_dir_naming_a_file_is_invalid_input(spec_dir, tmp_path, capsys):
    blocker = tmp_path / "cache"
    blocker.write_text("", encoding="utf-8")
    rc, out, err = run_cli(capsys, _axioms_argv(spec_dir, ["--cache-dir", str(blocker)]))
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: cannot write the point cache in {blocker}: ")
    assert len(err.splitlines()) == 1
    assert blocker.read_text() == ""


def test_failed_cache_write_leaves_no_temp_file(spec_dir, tmp_path, capsys):
    # a directory where the cache file goes: the temp file is written, and
    # os.replace onto the directory fails
    cache = tmp_path / "cache"
    path = _cold_cache_file(spec_dir, cache, capsys)
    path.unlink()
    path.mkdir()
    rc, out, err = run_cli(capsys, _axioms_argv(spec_dir, ["--cache-dir", str(cache)]))
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: cannot write the point cache in {cache}: ")
    assert len(err.splitlines()) == 1
    assert [p.name for p in cache.iterdir()] == [path.name]


@pytest.mark.parametrize(
    "args,line",
    [
        (["--n-max", "0"], "error: nMax must be >= 1"),
        (["--lo", "5", "--hi", "1"], "error: sample grid needs lo < hi and bins >= 1"),
        (["--height", "-1000"], "error: height bound must be >= 0"),
    ],
)
def test_axioms_rejects_bad_input_before_enumerating(args, line, spec_dir, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("axioms enumerated points for invalid input")

    monkeypatch.setattr(cli, "cached_rational_points", refuse)
    rc, out, err = run_cli(capsys, _argv(spec_dir, "m2.json", ["axioms", *args], []))
    assert (rc, out) == (2, "")
    assert err.splitlines() == [line]


def test_axioms_refuses_bins_before_enumerating(spec_dir, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("axioms enumerated points for a refused bin count")

    monkeypatch.setattr(cli, "cached_rational_points", refuse)
    cache = tmp_path / "cache"
    argv = _axioms_argv(spec_dir, ["--bins", "1000000000", "--cache-dir", str(cache)])
    rc, out, err = run_cli(capsys, argv)
    assert rc == 3
    assert out == ""
    assert "size 1000000000 exceeds ceiling 1000000" in err
    assert not cache.exists()


def test_no_cache_leaves_no_files(spec_dir, tmp_path, monkeypatch, capsys):
    # the cache is on only under --cache-dir: no default location under HOME
    monkeypatch.setenv("HOME", str(tmp_path))
    rc, out, _ = run_cli(capsys, _axioms_argv(spec_dir, []))
    assert (rc, out) == (0, AXIOMS_GOLDEN)
    assert list(tmp_path.iterdir()) == []


# -- process-level entry point ------------------------------------------------------


def test_module_entry_point(spec_dir):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "mordell.cli",
            "point",
            "add",
            "(3, 5)",
            "(3, 5)",
            "--spec",
            str(spec_dir / "m2.json"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "(129/100, -383/1000)\n"
    assert proc.stderr == ""


# a fresh interpreter for each case: the in-process tests share one, in which
# every module is loaded by the time most of them run
SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh_python(args, **kwargs):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, **kwargs)


@pytest.mark.parametrize("name,spec,args", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_machine_golden_in_a_fresh_process(name, spec, args, spec_dir):
    # a command that imports its modules itself must still find them all
    proc = _fresh_python(["-m", "mordell.cli", *_argv(spec_dir, spec, args, ["--machine"])])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / f"{name}.machine.jsonl").read_text()


# modules only some commands need (hashlib: axioms --cache-dir), and one none needs
_OPTIONAL = ["mordell.formula_eval", "mordell.ml_checker", "mordell.coset_engine", "hashlib", "dataclasses"]

# run `mordell ARGS`, if any, in a fresh interpreter, then print which of the
# given modules it loaded beyond those loaded at interpreter start-up
_PROBE = """
import json, sys
before = set(sys.modules)
watched = json.loads(sys.argv[1])
from mordell import cli
if len(sys.argv) > 2:
    assert cli.main(sys.argv[2:]) == 0
print(json.dumps(sorted(m for m in watched if m in sys.modules and m not in before)))
"""


@pytest.mark.parametrize(
    "args,loaded",
    [
        ([], []),
        (["curve-info"], []),
        (["point", "add", "(3, 5)", "(3, 5)"], []),
        (["density", "--lo", "0", "--hi", "10", "--bins", "4", "--height", "150"], []),
        (["axioms", "--n-max", "1", "--height", "10"], []),
        (["eval", "(exists-gamma 1 (= x1 y1))", "--x", "3"], ["mordell.formula_eval"]),
    ],
    ids=["import", "curve-info", "point-add", "density", "axioms", "eval"],
)
def test_commands_import_only_what_they_use(args, loaded, spec_dir):
    argv = [*args, "--spec", str(spec_dir / "m2.json"), "--machine"] if args else []
    proc = _fresh_python(["-c", _PROBE, json.dumps(_OPTIONAL), *argv], check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == loaded


@pytest.mark.skipif(shutil.which("mordell") is None, reason="console script not on PATH")
def test_console_script(spec_dir):
    proc = subprocess.run(
        ["mordell", "curve-info", "--spec", str(spec_dir / "m2.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "curve_info_m2.human.txt").read_text()
