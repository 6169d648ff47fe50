"""Seeded, layered benchmark of the abch CLI commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; abch is imported from its `src/`.
The parent process imports `abch.cli` once and forks one child per
operation, which calls `abch.cli.main(argv)` with stdout captured, so no
cache outlives an operation, as between two CLI invocations.  Passes over
the workload's operation list repeat for `--seconds` (at least one pass).
Every report is judged by the exact-result oracle and compared byte for
byte with the same operation's first report.

Timings are scaled to a reference machine speed: a fixed pure-Python
reference loop runs between operations, and each operation's median time is
multiplied by `REF_LOOP_S` over the median of the loops just before and
after its runs.  The host this was built on slows its guests by up to 1.5x
for seconds to minutes at a time; the loop slows with the program, so the
ratio holds still.  Raw times are printed too.

Human-readable lines come first; the last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`; with `--trace 1`, one untraced and one traced pass and the
per-layer metrics of the traced one, whose spans go to `.bench_trace/`.

`--record-oracle` rewrites `perfbench/oracle.json` from the identity-metric
operations; `--check-trace` compares the tracer's call counts with cProfile
on one operation.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import oracle  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

SETUP_REPEATS = 5
EXIT_CRASH = 70
# one operation at a time on a small shared machine: keep BLAS single-threaded
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COMMANDS = ("check", "cohomology", "spectra", "diagram", "ddbar", "inequality", "abc", "cover")
# the reference loop's time on the quiet 2.1 GHz Xeon vCPU the bounds were set on
REF_LOOP_S = 0.010


@dataclass
class OpResult:
    op: Op
    seconds: float
    rss_mb: float
    exit_code: int
    report: bytes
    stderr: str
    trace: Optional[dict]


@dataclass
class Pass:
    seconds: float
    results: List[OpResult]
    loops: List[float]  # reference-loop times, before the first operation and after each


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def _import_abch():
    if not os.path.isfile(os.path.join(SRC, "abch", "cli.py")):
        _fail(f"no abch sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import abch.cli

    if not os.path.abspath(abch.cli.__file__).startswith(SRC + os.sep):
        _fail(f"imported abch from {abch.cli.__file__}, not from {SRC}")
    return abch.cli


def reference_loop() -> float:
    """Time a fixed piece of Fraction arithmetic, the kind abch spends its
    time on."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 2000):
        s += Fraction(1, i) * Fraction(i + 1, i + 2)
    return time.perf_counter() - t0


def measure_setup(workdir: str, seed: int) -> tuple:
    """Fresh-interpreter import of abch.cli plus input generation, repeated,
    each preceded by a reference loop."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import abch.cli"
    env = dict(os.environ, **THREAD_ENV)
    times, loops = [], []
    for _ in range(SETUP_REPEATS):
        loops.append(reference_loop())
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
        workloads.write_inputs(workdir, seed)
        times.append(time.perf_counter() - t0)
    return times, loops


# -- running one operation ----------------------------------------------------------


def _child(cli, op: Op, tracer, op_index: int, wfd: int) -> None:
    rc = EXIT_CRASH
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    try:
        if tracer is not None:
            tracer.reset(op_index)
        rc = cli.main(list(op.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else EXIT_CRASH
    except BaseException:
        err.write(traceback.format_exc())
    snap = tracer.snapshot() if tracer is not None else None
    with os.fdopen(wfd, "wb") as fh:
        fh.write(pickle.dumps((out.getvalue().encode("utf-8"), err.getvalue(), snap)))
    os._exit(rc)


def run_op(cli, op: Op, tracer=None, op_index: int = 0) -> OpResult:
    """Run `op` in a forked child; wall time covers fork to reaped exit."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        try:
            _child(cli, op, tracer, op_index, w)
        finally:
            os._exit(EXIT_CRASH)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - t0
    report, stderr, snap = pickle.loads(data) if data else (b"", "child sent nothing", None)
    return OpResult(op, seconds, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status),
                    report, stderr, snap)


def run_pass(cli, ops: List[Op], tracer=None) -> Pass:
    t0 = time.perf_counter()
    results, loops = [], [reference_loop()]
    for i, op in enumerate(ops):
        results.append(run_op(cli, op, tracer, i))
        loops.append(reference_loop())
    return Pass(time.perf_counter() - t0, results, loops)


# -- judging ---------------------------------------------------------------------


def judge(res: OpResult, first: Optional[OpResult], records) -> List[str]:
    """Why `res` failed, per the benchmark's definition; empty if it passed.
    Each reason is tagged `program` (the run reported a failure) or `oracle`
    (a certified field, or the bytes, are wrong)."""
    problems = []
    if res.exit_code != 0:
        tail = res.stderr.strip().splitlines()[-1:] or [""]
        problems.append(f"program: exit code {res.exit_code} {tail[0]}".rstrip())
    try:
        report = json.loads(res.report)
    except ValueError:
        return problems + ["oracle: report is not JSON"]
    if report.get("failures"):
        n = len(report["failures"])
        problems.append(f"program: {n} failures, first: {report['failures'][0]}")
    try:
        problems += ["oracle: " + p for p in oracle.verdict(res.op, report, records)]
    except (KeyError, TypeError, AttributeError) as exc:
        problems.append(f"oracle: report lacks a certified field ({exc!r})")
    if first is not None and res.report != first.report:
        problems.append("oracle: report bytes differ from the first pass")
    return problems


# -- statistics --------------------------------------------------------------------


def percentile(values: List[float], p: float) -> float:
    s = sorted(values)
    k = (len(s) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def describe(values: List[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    n = len(values)
    well = [p for p in (50, 75, 90, 95, 99) if n * (100 - p) / 100.0 >= 10]
    hi = f" p{well[-1]}={percentile(values, well[-1]):.4f}" if well else ""
    return f"median={statistics.median(values):.4f}{hi} n={n}"


# -- modes -----------------------------------------------------------------------


def bench(cli, args, ops: List[Op], setup) -> int:
    passes: List[Pass] = []
    t_start = time.perf_counter()
    # stop before a pass that would end more than half a pass past --seconds
    while not passes or time.perf_counter() - t_start + passes[-1].seconds / 2 < args.seconds:
        passes.append(run_pass(cli, ops))
    return report(args, ops, passes, setup)


def bench_traced(cli, args, ops: List[Op], setup) -> int:
    from tracer import Tracer, layer_metrics

    plain = run_pass(cli, ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(cli, ops, tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, [r.trace for r in traced.results if r.trace])
    metrics["reporting.bytes"] = (sum(len(r.report) for r in traced.results), "bytes")
    metrics["trace.overhead_ratio"] = (traced.seconds / plain.seconds, "ratio")
    _write_spans(args, tracer, traced.results)
    return report(args, ops, [plain, traced], setup, metrics)


def _write_spans(args, tracer, results: List[OpResult]) -> None:
    from tracer import SPAN_MIN_S

    out_dir = os.path.join(ROOT, ".bench_trace")
    os.makedirs(out_dir, exist_ok=True)
    doc = {
        "schema": "perfbench-trace-1",
        "workload": args.workload,
        "seed": args.seed,
        "functions": tracer.names,
        "span_fields": ["id", "parent", "op", "function", "start_s", "end_s"],
        "min_span_s": SPAN_MIN_S,
        "ops": [{"label": r.op.label, "seconds": r.seconds, "spans": (r.trace or {}).get("spans", [])}
                for r in results],
    }
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    print(f"spans written to {os.path.relpath(path, ROOT)}")


def report(args, ops: List[Op], passes: List[Pass], setup, layers=None) -> int:
    """Print every verdict and metric; the last line is the JSON result.
    `layers` holds the per-layer metrics of a traced run, whose second pass
    is the traced one."""
    records = oracle.load_records()
    attempted = failed = 0
    correct = True
    failures: Dict[str, List[str]] = {}
    first = passes[0].results
    for p in passes:
        for res, ref in zip(p.results, first):
            problems = judge(res, None if res is ref else ref, records)
            attempted += 1
            if problems:
                failed += 1
                failures.setdefault(res.op.label, problems)
                correct &= not any(x.startswith("oracle:") for x in problems)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations, "
          f"{len(passes)} passes, trace {int(layers is not None)}")
    for label, problems in failures.items():
        for p in problems:
            print(f"  FAIL {label}: {p}")
    print(f"  failed_share {failed}/{attempted} = {failed / attempted:.4f}; "
          f"oracle: {'all certified fields agree' if correct else 'MISMATCH'}")

    untraced = passes if layers is None else passes[:1]
    setup_times, setup_loops = setup
    by_op = [[p.results[i].seconds for p in untraced] for i in range(len(ops))]
    # each operation is scaled by the reference loops right before and after it
    scales = [REF_LOOP_S / statistics.median([x for p in untraced for x in p.loops[i:i + 2]])
              for i in range(len(ops))]
    scaled = [statistics.median(ts) * k for ts, k in zip(by_op, scales)]
    setup_scale = REF_LOOP_S / statistics.median(setup_loops)
    loops = [x for p in untraced for x in p.loops]
    print(f"  reference loop {describe(loops)} s; times are scaled to a {REF_LOOP_S} s loop")
    focus = next(i for i, op in enumerate(ops) if op.focus)
    e2e = {
        "pass_s": (sum(scaled), "s",
                   f"each operation's scaled median over passes, summed; pass wall time "
                   f"{describe([p.seconds for p in untraced])}"),
        "peak_rss_mb": (max(r.rss_mb for p in untraced for r in p.results), "MB",
                        f"largest over {len(ops) * len(untraced)} operations"),
        "setup_s": (statistics.median(setup_times) * setup_scale, "s", f"raw {describe(setup_times)}"),
    }
    for name, (value, unit, detail) in e2e.items():
        print(f"  {name} = {value:.4f} {unit} ({detail})")
    print(f"  focus operation {ops[focus].label} = {scaled[focus]:.4f} s")
    for cmd in COMMANDS:
        idx = [i for i, op in enumerate(ops) if op.command == cmd]
        if idx:
            print(f"  {cmd}_s = {sum(scaled[i] for i in idx):.4f} s (summed over {len(idx)} operations)")
    for op, ts, value in zip(ops, by_op, scaled):
        print(f"  op {op.label}: {value:.4f} s (raw {describe(ts)})")
    if layers is None:
        chosen = {name: (value, unit) for name, (value, unit, _) in e2e.items()}
    else:
        chosen = layers
        for name, (value, unit) in layers.items():
            print(f"  {name} = {value} {unit}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def record_oracle(cli, seed: int) -> int:
    """Rewrite the oracle from the identity-metric form of every operation."""
    ops, seen = [], set()
    for w in workloads.WORKLOADS:
        for op in workloads.operations(w, seed):
            restricted = op.command == "spectra" and op.pq is not None
            if op.oracle_key and not restricted and op.oracle_key not in seen:
                seen.add(op.oracle_key)
                argv = list(op.argv)
                if "--metric" in argv:
                    del argv[argv.index("--metric"):argv.index("--metric") + 2]
                ops.append(Op(op.label, tuple(argv), op.command, op.oracle_key, op.pq))
    records = {}
    for op in ops:
        res = run_op(cli, op)
        report = json.loads(res.report)
        if res.exit_code != 0 or report.get("failures"):
            _fail(f"{op.label} failed; not recording it: {report.get('failures')}")
        records[op.oracle_key] = oracle.certified_fields(op.command, report)
        print(f"recorded {op.oracle_key} ({res.seconds:.2f} s)")
    with open(oracle.ORACLE_FILE, "w", encoding="utf-8") as fh:
        lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(records.items())]
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


def check_trace(cli) -> int:
    """Tracer call counts must equal cProfile ncalls on dense complex-metric
    Iwasawa `cohomology`, and its traced bytes must equal its untraced bytes."""
    import cProfile
    import pstats

    from tracer import Tracer

    op = Op("iwasawa+complex:cohomology",
            ("cohomology", "iwasawa.cplx", "--format", "json", "--metric", "dense_complex.herm"),
            "cohomology", "iwasawa:cohomology")
    stats_path = os.path.join(os.getcwd(), "check_trace.prof")
    # profile in a child so nothing cached reaches the traced run
    pid = os.fork()
    if pid == 0:
        sys.stdout = io.StringIO()
        try:
            prof = cProfile.Profile()
            prof.runcall(cli.main, list(op.argv))
            prof.dump_stats(stats_path)
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    plain = run_op(cli, op)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_op(cli, op, tracer)
    finally:
        tracer.uninstall()
    ncalls = {key: row[1] for key, row in pstats.Stats(stats_path).stats.items()}
    os.remove(stats_path)
    by_code: Dict[tuple, int] = {}
    for t, n in zip(tracer.targets, traced.trace["calls"]):
        if hasattr(t.fn, "cache_info"):
            continue  # lru_cache: cProfile sees only the misses
        code = t.fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        by_code[key] = by_code.get(key, 0) + n
    mismatches = [(k, n, ncalls.get(k, 0)) for k, n in by_code.items() if n != ncalls.get(k, 0)]
    same_bytes = plain.report == traced.report
    gram = traced.trace["calls"][tracer.names.index("linalg.gram_adjoint")]
    print(f"{op.label}: {len(by_code)} wrapped functions compared with cProfile, "
          f"{len(mismatches)} mismatches; gram_adjoint calls {gram}; "
          f"traced bytes {'equal' if same_bytes else 'DIFFER from'} untraced bytes")
    for (fname, line, func), mine, prof_n in mismatches:
        print(f"  MISMATCH {func} ({os.path.basename(fname)}:{line}): tracer {mine}, cProfile {prof_n}")
    return 0 if not mismatches and same_bytes else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-oracle", action="store_true")
    ap.add_argument("--check-trace", action="store_true")
    args = ap.parse_args(argv)
    if not (args.workload or args.record_oracle or args.check_trace):
        ap.error("--workload is required")

    os.environ.update(THREAD_ENV)
    cli = _import_abch()
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload or 'tools'}-{args.seed}-{os.getpid()}")
    try:
        setup = measure_setup(workdir, args.seed)
        os.chdir(workdir)
        if args.record_oracle:
            return record_oracle(cli, args.seed)
        if args.check_trace:
            return check_trace(cli)
        ops = workloads.operations(args.workload, args.seed)
        if args.trace:
            return bench_traced(cli, args, ops, setup)
        return bench(cli, args, ops, setup)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
