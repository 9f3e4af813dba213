import json
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
    rc, out, err = run_cli(capsys, _argv(spec_dir, spec, args, ["--no-cache"]))
    assert rc == 0
    assert err == ""
    assert out == (GOLDEN / f"{name}.human.txt").read_text()


@pytest.mark.parametrize("name,spec,args", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_machine_output_matches_golden(name, spec, args, spec_dir, capsys):
    rc, out, err = run_cli(capsys, _argv(spec_dir, spec, args, ["--machine", "--no-cache"]))
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
        ["point", "add", "(3, 5)", "(3, 5)", "--spec", str(spec_dir / "m2.json"), "--no-cache"],
    )
    assert rc == 0
    assert out == "(129/100, -383/1000)\n"


def test_point_mul_to_identity_on_torsion(spec_dir, capsys):
    rc, out, _ = run_cli(
        capsys,
        ["point", "mul", "6", "(2, 3)", "--spec", str(spec_dir / "c01.json"), "--no-cache"],
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
            "--no-cache",
        ],
    )
    assert rc == 0
    assert out == "false\n"


def test_curve_info_two_components(spec_file, capsys):
    # three real roots of x^3 - x give two real components
    path = spec_file(
        {"kind": "curve", "a": "-1", "b": "0", "generators": [], "rank": 0}
    )
    rc, out, _ = run_cli(capsys, ["curve-info", "--spec", path, "--no-cache"])
    assert rc == 0
    assert "components: 2" in out


def test_decompose_undecided(spec_dir, capsys):
    # (3, 5) lies outside the index-2 subgroup, so the bounded search cannot
    # settle membership either way
    rc, out, _ = run_cli(
        capsys,
        ["point", "decompose", "(3, 5)", "--spec", str(spec_dir / "m2-2p.json"), "--no-cache"],
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
        # coset member and axioms decompose under the same ceiling
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
            ["axioms", "--n-max", "2", "--height", "30", "--bound", "12", "--ceiling", "21"],
            3,
            "",
        ),
    ],
)
def test_decompose_searches_shells_under_ceiling(spec, args, code, out, spec_dir, capsys):
    rc, got, err = run_cli(capsys, _argv(spec_dir, spec, args, ["--no-cache"]))
    assert (rc, got) == (code, out)
    if code == 3:
        assert err.splitlines() == ["error: residue enumeration of size 23 exceeds ceiling 21"]


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
            "--no-cache",
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
            "--no-cache",
        ],
    )
    assert rc == 0
    assert out.startswith("counterexample: missing-from-union ((3, ")


def test_suggest_verify_round_trip(spec_dir, capsys, tmp_path):
    base = ["--spec", str(spec_dir / "m2.json"), "--no-cache"]
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
    ],
)
def test_error_exit_codes(spec, args, code, fragment, spec_dir, capsys):
    rc, out, err = run_cli(capsys, _argv(spec_dir, spec, args, ["--no-cache"]))
    assert rc == code
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert fragment in err


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
    rc, out, err = run_cli(capsys, _argv(spec_dir, "m2.json", args, ["--no-cache"]))
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
    rc, out, err = run_cli(capsys, _argv(spec_dir, "m2.json", args, ["--no-cache"]))
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
            ["point", "mul", "two", "(3, 5)", "--spec", str(spec_dir / "m2.json"), "--no-cache"]
        )
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_spec_key_rejected(spec_file, capsys):
    path = spec_file(
        {"kind": "curve", "a": "0", "b": "-2", "coefficients": [1], "generators": [], "rank": 0}
    )
    rc, out, err = run_cli(capsys, ["curve-info", "--spec", path, "--no-cache"])
    assert rc == 2
    assert "unknown spec file keys: coefficients" in err


def test_circle_spec_rejects_curve_coefficients(spec_file, capsys):
    path = spec_file({"kind": "circle", "a": "0", "generators": [], "rank": 0})
    rc, _, err = run_cli(capsys, ["curve-info", "--spec", path, "--no-cache"])
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
        "--no-cache",
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
    argv = args + ["--spec", str(spec_dir / "m2.json"), "--no-cache"]
    rc, out, err = run_cli(capsys, argv + ["--ceiling", ceiling])
    assert (rc, out) == (3, "")
    assert err.splitlines() == [f"error: residue enumeration of size {int(ceiling) + 1} exceeds ceiling {ceiling}"]
    rc, _, _ = run_cli(capsys, argv + ["--ceiling", str(int(ceiling) + 1)])
    assert rc == 0


# -- cache behaviour ----------------------------------------------------------------

AXIOMS = ["axioms", "--n-max", "2", "--height", "30"]


def _axioms_argv(spec_dir, extra):
    return AXIOMS + ["--spec", str(spec_dir / "m2.json")] + extra


def test_cache_cold_warm_and_off_agree(spec_dir, tmp_path, capsys):
    cache = tmp_path / "cache"
    rc, cold, _ = run_cli(capsys, _axioms_argv(spec_dir, ["--cache-dir", str(cache)]))
    assert rc == 0
    files = sorted(cache.glob("points-*.json"))
    assert len(files) == 1
    rc, warm, _ = run_cli(capsys, _axioms_argv(spec_dir, ["--cache-dir", str(cache)]))
    assert rc == 0
    rc, off, _ = run_cli(capsys, _axioms_argv(spec_dir, ["--no-cache"]))
    assert rc == 0
    assert cold == warm == off
    assert cold == (GOLDEN / "axioms.human.txt").read_text()


def test_cache_env_var_location(spec_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MORDELL_CACHE_DIR", str(tmp_path / "envcache"))
    rc, out, _ = run_cli(capsys, _axioms_argv(spec_dir, []))
    assert rc == 0
    assert list((tmp_path / "envcache").glob("points-*.json"))
    assert out == (GOLDEN / "axioms.human.txt").read_text()


def test_corrupt_cache_file_is_discarded(spec_dir, tmp_path, capsys):
    cache = tmp_path / "cache"
    run_cli(capsys, _axioms_argv(spec_dir, ["--cache-dir", str(cache)]))
    (path,) = cache.glob("points-*.json")
    path.write_text("{not json", encoding="utf-8")
    rc, out, _ = run_cli(capsys, _axioms_argv(spec_dir, ["--cache-dir", str(cache)]))
    assert rc == 0
    assert out == (GOLDEN / "axioms.human.txt").read_text()
    assert json.loads(path.read_text())["points"]  # rebuilt in place


def test_tampered_cache_points_are_revalidated(spec_dir, tmp_path, capsys):
    cache = tmp_path / "cache"
    run_cli(capsys, _axioms_argv(spec_dir, ["--cache-dir", str(cache)]))
    (path,) = cache.glob("points-*.json")
    payload = json.loads(path.read_text())
    payload["points"] = [["3", "7"] if p == ["3", "5"] else p for p in payload["points"]]
    path.write_text(json.dumps(payload), encoding="utf-8")
    rc, out, _ = run_cli(capsys, _axioms_argv(spec_dir, ["--cache-dir", str(cache)]))
    assert rc == 0
    assert out == (GOLDEN / "axioms.human.txt").read_text()
    rebuilt = json.loads(path.read_text())
    assert ["3", "5"] in rebuilt["points"]
    assert ["3", "7"] not in rebuilt["points"]


def test_stale_format_version_is_ignored(spec_dir, tmp_path, capsys):
    cache = tmp_path / "cache"
    run_cli(capsys, _axioms_argv(spec_dir, ["--cache-dir", str(cache)]))
    (path,) = cache.glob("points-*.json")
    payload = json.loads(path.read_text())
    payload["format_version"] = 0
    path.write_text(json.dumps(payload), encoding="utf-8")
    rc, out, _ = run_cli(capsys, _axioms_argv(spec_dir, ["--cache-dir", str(cache)]))
    assert rc == 0
    assert out == (GOLDEN / "axioms.human.txt").read_text()
    assert json.loads(path.read_text())["format_version"] == cli.CACHE_FORMAT_VERSION


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
    monkeypatch.setenv("MORDELL_CACHE_DIR", str(tmp_path / "envcache"))
    rc, _, _ = run_cli(capsys, _axioms_argv(spec_dir, ["--no-cache"]))
    assert rc == 0
    assert not (tmp_path / "envcache").exists()


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
            "--no-cache",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "(129/100, -383/1000)\n"
    assert proc.stderr == ""


@pytest.mark.skipif(shutil.which("mordell") is None, reason="console script not on PATH")
def test_console_script(spec_dir):
    proc = subprocess.run(
        ["mordell", "curve-info", "--spec", str(spec_dir / "m2.json"), "--no-cache"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "curve_info_m2.human.txt").read_text()
