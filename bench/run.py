"""Benchmark harness for `mordell`.

    python3 bench/run.py --workload box-search --seed 1 --seconds 20 --trace 0

runs one workload from the root of a source checkout, importing the
package from `src/` as the tier-1 tests do, and prints one JSON object as
its last line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 is the measured run.  Set-up is timed first, in fresh
interpreters; then ops run one at a time (a closed loop with one client)
in whole blocks until --seconds have passed.  Answers are checked after
the loop, outside the timed region.  The metrics are the end-to-end ones
of BENCHMARK.json.

--trace 1 replays a fixed number of blocks twice, untraced and then with
the layer wrappers of tracer.py installed, and prints the per-layer
metrics, including the tracing overhead.  The op list depends on the seed
alone, so the counts repeat exactly.  Spans go to .bench_out/.

README.md in this directory describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import library
import session
import specs
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("box-search", "height-growth", "cli-session")
SETUP_REPEATS = 5
TRACE_BLOCKS = {"box-search": 8, "height-growth": 4, "cli-session": 5}
TAIL_BEYOND = 10


@dataclass
class Record:
    op: object
    latency: float
    failed: str | None
    answer: object = None
    rss_kb: int = 0


# -- running ops ---------------------------------------------------------------------


def run_library_ops(prog, ops, tracer=None) -> list[Record]:
    records = []
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
        failed, res = None, None
        t0 = time.perf_counter()
        try:
            res = library.run(prog, op)
        except Exception as exc:  # a crash of the program under test is a failed op
            failed = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if latency > session.OP_BUDGET_S:
            failed = failed or "over the op budget"
        records.append(Record(op, latency, failed, None if failed else library.plain(op, res)))
    return records


def run_cli_ops(ops, pass_dir, env, workdir, in_process=False, tracer=None) -> list[Record]:
    records = []
    for op in ops:
        argv = pass_dir.resolve(op)
        if in_process:
            if tracer is not None:
                tracer.op = op.id
            wall, code, out, err = session.run_in_process(argv)
            rss = 0
        else:
            wall, code, out, err, rss = session.run_subprocess(argv, env, workdir)
        failed = None if code in (0, 2, 3) else f"exit {code}: {(err.strip().splitlines() or [''])[-1]}"
        if wall > session.OP_BUDGET_S:
            failed = failed or "over the op budget"
        records.append(Record(op, wall, failed, (code, out, err), rss))
    return records


def timed_blocks(stream, seconds: float, run_block) -> list[list[Record]]:
    """Whole blocks, one op at a time, until `seconds` of wall time pass."""
    blocks = []
    start = time.perf_counter()
    for block in stream:
        blocks.append(run_block(block))
        if time.perf_counter() - start >= seconds:
            return blocks


def check_all(workload: str, records: list[Record]) -> list[str]:
    chk = checks.Checker()
    wrong = []
    for rec in records:
        if rec.failed:
            continue
        try:
            if workload == "cli-session":
                reason = session.check(chk, rec.op, *rec.answer)
            else:
                reason = library.check(chk, rec.op, rec.answer)
        except Exception as exc:  # an answer the checks cannot read is a wrong one
            reason = f"unreadable answer: {type(exc).__name__}: {exc}"
        if reason:
            wrong.append(f"op {rec.op.id} {rec.op.cls}: {reason}")
    return wrong


# -- metrics ---------------------------------------------------------------------------


def setup_seconds(workload: str, env: dict) -> list[float]:
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
            check=True,
        )
        out.append(json.loads(proc.stdout.splitlines()[-1])["seconds"])
    return out


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten ops
    beyond it."""
    lat = sorted(latencies)
    # with too few ops for ten beyond any of them, the slowest op stands in
    i = len(lat) - TAIL_BEYOND - 1 if len(lat) > TAIL_BEYOND else len(lat) - 1
    return lat[i], 100.0 * (i + 1) / len(lat)


def end_to_end(blocks: list[list[Record]], setup: list[float], rss_kb: int) -> dict:
    lat = [r.latency for block in blocks for r in block]
    failed = sum(1 for block in blocks for r in block if r.failed)
    tail_s, _ = tail(lat)
    # pairs of blocks share one composition (cli-session alternates a cold
    # and a warm cache between blocks), so the median pair's throughput is
    # the run's, without the pairs that a busy host slowed
    pairs = [blocks[i] + blocks[i + 1] for i in range(0, len(blocks) - 1, 2)] or blocks
    throughput = statistics.median(len(pair) / sum(r.latency for r in pair) for pair in pairs)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (throughput, "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "op_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "success_rate": ((len(lat) - failed) / len(lat), "ratio"),
    }


def report(records: list[Record], wrong: list[str], metrics: dict, notes: list[str]) -> dict:
    """Human lines on stdout, then the result object."""
    by_cls = {}
    for r in records:
        by_cls.setdefault(r.op.cls, []).append(r)
    for cls, rs in sorted(by_cls.items()):
        med = statistics.median(r.latency for r in rs) * 1000
        fails = sum(1 for r in rs if r.failed)
        print(f"  {cls:34s} ops {len(rs):4d}  median {med:10.2f} ms  failed {fails}")
    for line in notes:
        print(line)
    failed = [r for r in records if r.failed]
    for r in failed[:5]:
        print(f"failed: op {r.op.id} {r.op.cls}: {r.failed}")
    for line in wrong[:20]:
        print(f"wrong answer: {line}")
    print(f"check: {len(records) - len(failed) - len(wrong)} answers right, {len(wrong)} wrong, {len(failed)} failed")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return {
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# -- the two modes -------------------------------------------------------------------------


def measured(workload: str, seed: int, seconds: float, tmp: Path, env: dict) -> dict:
    setup = setup_seconds(workload, env)
    if workload == "cli-session":
        pass_dir = session.PassDir(tmp / "pass")
        blocks = timed_blocks(session.op_stream(seed), seconds, lambda b: run_cli_ops(b, pass_dir, env, tmp))
        rss_kb = max(r.rss_kb for block in blocks for r in block)
    else:
        prog = library.Program(specs.WORKLOAD_SPECS[workload])
        blocks = timed_blocks(library.op_stream(workload, seed), seconds, lambda b: run_library_ops(prog, b))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    records = [r for block in blocks for r in block]
    wrong = check_all(workload, records)
    metrics = end_to_end(blocks, setup, rss_kb)
    _, pct = tail([r.latency for r in records])
    notes = [
        f"setup runs (s): {', '.join(f'{v:.4f}' for v in setup)}",
        f"op_tail_ms is the p{pct:.2f} latency over {len(records)} ops in {len(blocks)} blocks",
        f"error_rate = {sum(1 for r in records if r.failed)}/{len(records)} ops",
    ]
    return report(records, wrong, metrics, notes)


def traced(workload: str, seed: int, tmp: Path, env: dict) -> dict:
    stream = session.op_stream(seed) if workload == "cli-session" else library.op_stream(workload, seed)
    ops = [op for block in itertools.islice(stream, TRACE_BLOCKS[workload]) for op in block]
    tr = tracing.Tracer()
    extra = {"cli.process_start_s": (0.0, "s")}
    # untraced passes before and after the traced one, so a drift in speed
    # over the run cancels out of the overhead
    if workload == "cli-session":
        procs = run_cli_ops(ops, session.PassDir(tmp / "subprocess"), env, tmp)

        def one_pass(name, tracer=None):
            return run_cli_ops(ops, session.PassDir(tmp / name), env, tmp, in_process=True, tracer=tracer)

    else:

        def one_pass(name, tracer=None):
            return run_library_ops(library.Program(specs.WORKLOAD_SPECS[workload]), ops, tracer=tracer)

    before = one_pass("before")
    tr.install()
    try:
        records = one_pass("traced", tr)
    finally:
        tr.restore()
    after = one_pass("after")
    plain = [(a.latency + b.latency) / 2 for a, b in zip(before, after)]
    if workload == "cli-session":
        extra["cli.process_start_s"] = (statistics.median(s.latency - p for s, p in zip(procs, plain)), "s")
    left = tracing.installed_wrappers()
    if left:
        raise RuntimeError(f"tracing wrappers left installed: {left}")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"trace-{workload}-{seed}.jsonl"
    tr.dump(spans_path)
    metrics = tr.layer_metrics()
    metrics.update(extra)
    overhead = sum(r.latency for r in records) / sum(plain) - 1
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    wrong = check_all(workload, records)
    notes = [f"{len(tr.spans)} spans written to {spans_path.relative_to(ROOT)}", f"tracing overhead {overhead:+.1%} over {len(ops)} ops"]
    return report(records, wrong, metrics, notes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mordell benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mordell" / "__init__.py").is_file():
        print(f"error: no mordell sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = session.child_env(SRC)
    work = ROOT / ".bench_tmp"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work))
    try:
        if args.trace:
            result = traced(args.workload, args.seed, tmp, env)
        else:
            result = measured(args.workload, args.seed, args.seconds, tmp, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(work.iterdir()):
            work.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
