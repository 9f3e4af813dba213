"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import contextlib
import dataclasses
import io
import itertools
import json
from pathlib import Path

import pytest

import checks
import library
import run
import session
import specs
import tracer

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _ops(workload: str, seed: int, blocks: int = 3) -> list:
    stream = session.op_stream(seed) if workload == "cli-session" else library.op_stream(workload, seed)
    return [dataclasses.asdict(op) for block in itertools.islice(stream, blocks) for op in block]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_fixes_the_op_list(workload):
    assert _ops(workload, 7) == _ops(workload, 7)
    assert _ops(workload, 7) != _ops(workload, 8)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_metric_names_match_benchmark_json(capsys):
    assert run.main(["--workload", "box-search", "--seed", "3", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_per_layer_metric_names_match_benchmark_json():
    names = set(tracer.Tracer().layer_metrics()) | {"cli.process_start_s", "trace.overhead_ratio"}
    assert names == {m["name"] for m in BENCHMARK["per_layer"]}


@pytest.fixture
def m2_spec(tmp_path):
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(specs.SPECS["m2"]))
    return str(path)


def test_golden_ml_solve_counts_and_wrappers_removed(m2_spec):
    from mordell import cli, exact_num, formula_eval, ml_checker

    originals = (exact_num.poly_eval, ml_checker.poly_eval, formula_eval.poly_eval, ml_checker._classify)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert ml_checker.poly_eval is not originals[1]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["ml", "solve", "(- x2 x4)", "--slots", "2", "--bound", "3", "--spec", m2_spec, "--no-cache"])
    finally:
        tr.restore()
    assert code == 0 and out.getvalue().endswith("solutions: 6, skipped: 13\n")
    metrics = {k: v for k, (v, _) in tr.layer_metrics().items()}
    assert metrics["ml_checker.tuples"] == 49
    assert round(metrics["ml_checker.solution_ratio"] * 49) == 6
    assert round(metrics["ml_checker.skipped_ratio"] * 49) == 13
    assert metrics["exact_num.poly_eval.calls"] == 36
    assert tracer.installed_wrappers() == []
    assert (exact_num.poly_eval, ml_checker.poly_eval, formula_eval.poly_eval, ml_checker._classify) == originals


def test_checks_accept_right_answers_and_reject_wrong_ones():
    ops = [op for block in itertools.islice(library.op_stream("box-search", 5), 1) for op in block]
    prog = library.Program(specs.WORKLOAD_SPECS["box-search"])
    chk = checks.Checker()
    solved = 0
    for op in ops:
        if op.kind != "solve":
            continue
        answer = library.plain(op, library.run(prog, op))
        assert library.check(chk, op, answer) is None
        if answer["solutions"]:
            solved += 1
            dropped = dict(answer, solutions=answer["solutions"][1:])
            assert library.check(chk, op, dropped) is not None
            skipped = dict(answer, skipped=answer["skipped"] + 1)
            assert library.check(chk, op, skipped) is not None
    assert solved, "some drawn polynomial should have solutions in its box"
    evals = [op for op in ops if op.kind == "eval"]
    for op in evals:
        answer = library.plain(op, library.run(prog, op))
        assert library.check(chk, op, answer) is None
        flipped = dict(answer, result="unknown" if answer["result"] != "unknown" else "true")
        assert library.check(chk, op, flipped) is not None


def test_cli_ops_check_by_meaning(tmp_path):
    pass_dir = session.PassDir(tmp_path / "pass")
    chk = checks.Checker()
    ops = [op for block in itertools.islice(session.op_stream(4), 5) for op in block if op.spec != "big-disc"]
    for op in ops:
        _, code, out, err = session.run_in_process(pass_dir.resolve(op))
        if op.cls.startswith("cli.point-mul.k72"):
            assert code == 1  # the known 4300-digit defect; counted as a failed op
            continue
        assert session.check(chk, op, code, out, err) is None, op.cls
        assert session.check(chk, op, code + 1, out, err) is not None
        if code == 0 and op.params["shape"] in ("ml-solve", "coset-dke", "density", "eval-true", "eval-unknown"):
            record = json.loads(out)
            key = {"ml-solve": "skipped", "coset-dke": "modulus", "density": "counts"}.get(op.params["shape"], "result")
            record[key] = {"skipped": 99, "modulus": 99, "counts": [99], "result": "false"}[key]
            assert session.check(chk, op, code, json.dumps(record) + "\n", err) is not None
