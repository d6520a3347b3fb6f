"""End-to-end and per-layer benchmark of the join planner.

Run from the root of a checkout::

    python3 perfbench/run.py --workload plan-acyclic --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload query-cyclic --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --steadiness 10 --workload all --seconds 25

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports per-layer metrics.
``--steadiness N`` runs each workload N times in fresh processes and
prints the median, quartiles and spreads of every end-to-end metric.
The last line of a measuring run's standard output is one JSON object.
The exit code is 0 only when every op's output checked correct.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

WORKLOAD_NAMES = ("plan-acyclic", "query-cyclic", "safety-check")
#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 9
#: Import time is measured in this many fresh interpreters; the median
#: is reported.
IMPORT_REPEATS = 9
#: Run in a fresh interpreter: prints the raw and the normalized ms to
#: import the library and the benchmark's workloads.
IMPORT_PROBE = """
import sys, time
sys.dont_write_bytecode = True
sys.path[:0] = sys.argv[1:]
import harness
before = harness.reference_ms()
start = time.perf_counter()
import workloads
elapsed = (time.perf_counter() - start) * 1e3
print(elapsed, harness.normalize(elapsed, (before + harness.reference_ms()) / 2))
"""
#: Where a traced run writes every traced op's spans when it ends.
SPANS_DIR = ROOT / ".perfbench-out"
#: Traced runs trace at least this many ops (each paired with an
#: untraced op on the same database, for the overhead ratio).
TRACE_MIN_OPS = 50

#: Units of the reported metrics; every metric not listed is in ms.
UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "correct_op_share": "share",
    "peak_rss_mb": "MB",
    "optimizer.dp_states": "count",
    "optimizer.dp_splits": "count",
    "optimizer.dp_memo_hits": "count",
    "schemegraph.calls": "count",
    "database.tau_calls": "count",
    "database.tau_computed": "count",
    "database.cache_hit_rate": "ratio",
    "relational.joins": "count",
    "relational.output_tuples": "count",
    "wcoj.joins": "count",
    "yannakakis.calls": "count",
    "conditions.calls": "count",
    "harness.trace_overhead": "ratio",
}


def import_library():
    """Import the library from this checkout's ``src``; returns the
    benchmark's workloads module."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro
    import workloads

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    return workloads


def import_ms():
    """(normalized, raw) ms to import the library, each the median over
    ``IMPORT_REPEATS`` fresh interpreters.  A process imports only once,
    so a single in-process timing would be one noisy sample."""
    raw, normalized = [], []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(SRC)],
            capture_output=True, text=True, check=True, cwd=ROOT,
        )
        ms, norm = map(float, done.stdout.split())
        raw.append(ms)
        normalized.append(norm)
    return statistics.median(normalized), statistics.median(raw)


def run_op(op):
    """Time one op; (ms, outcome), or (None, None) when the op raised
    (the traceback goes to stderr)."""
    try:
        return harness.timed_ms(op)
    except Exception:  # an op failure is counted, not fatal to the run
        traceback.print_exc()
        return None, None


def set_up(workload, seed: int):
    """Build the rotation and warm up, ``SETUP_REPEATS`` times.

    Returns (normalized s, raw s, rotation databases).  Each repeat is
    normalized by the reference samples on either side of it, like an
    op; the import time is added to the median.
    """
    imported, imported_raw = import_ms()
    refs = [harness.reference_ms()]
    repeats = []
    bases = None
    for _ in range(SETUP_REPEATS):
        ms, bases = harness.timed_ms(lambda: workload.build(seed))
        ms += harness.timed_ms(lambda: workload.op(bases[0]))[0]
        repeats.append(ms)
        refs.append(harness.reference_ms())
    normalized = [harness.normalize(ms, ref) for ms, ref in zip(repeats, harness.bracketing(refs))]
    setup_s = (imported + statistics.median(normalized)) / 1e3
    return setup_s, (imported_raw + statistics.median(repeats)) / 1e3, bases


def check_all(workload, bases, order, digests):
    """Per-op correctness (None digest = the op raised) plus run checks."""
    workload.references(bases)
    verdicts = [
        digest is not None and workload.check(index, digest)
        for index, digest in zip(order, digests)
    ]
    return verdicts, workload.run_checks()


def measure(workload, seed: int, seconds: float):
    """The end-to-end run: tracing off, every latency normalized."""
    phase = time.perf_counter()
    setup_s, setup_raw, bases = set_up(workload, seed)
    phases = {"set-up": time.perf_counter() - phase}
    phase = time.perf_counter()
    rounds = harness.rounds_for(
        seconds, len(bases), workload.nominal_ops_per_s, workload.min_rounds
    )
    order = harness.rotation(len(bases), rounds)
    refs = [harness.reference_ms()]
    raw, digests = [], []
    for index in order:
        ms, outcome = run_op(lambda: workload.op(bases[index]))
        digests.append(None if outcome is None else workload.digest(outcome))
        del outcome
        raw.append(ms)
        refs.append(harness.reference_ms())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    phases["ops"] = time.perf_counter() - phase
    phase = time.perf_counter()
    verdicts, run_failures = check_all(workload, bases, order, digests)
    phases["references"] = time.perf_counter() - phase

    pairs = [(ms, ref) for ms, ref in zip(raw, harness.bracketing(refs)) if ms is not None]
    norm = [harness.normalize(ms, ref) for ms, ref in pairs]
    raw_ok = [ms for ms, _ in pairs]
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": harness.percentile(norm, 0.5),
        "latency_p90_ms": harness.percentile(norm, 0.9),
        "ops_per_s": 1e3 * len(norm) / sum(norm),
        "correct_op_share": sum(verdicts) / len(verdicts),
        "peak_rss_mb": peak_rss_mb,
    }
    raw_metrics = {
        "setup_s": setup_raw,
        "latency_p50_ms": harness.percentile(raw_ok, 0.5),
        "latency_p90_ms": harness.percentile(raw_ok, 0.9),
        "ops_per_s": 1e3 * len(raw_ok) / sum(raw_ok),
    }
    print(f"{workload.name}: {len(order)} ops over {len(bases)} databases, seed {seed}")
    print(f"  reference loop: median {statistics.median(refs):.3f} ms raw "
          f"(nominal {harness.NOMINAL_REF_MS} ms)")
    print("  wall s per phase: " + ", ".join(f"{k} {v:.1f}" for k, v in phases.items()))
    for name, value in metrics.items():
        beside = f"   (raw {raw_metrics[name]:.4f})" if name in raw_metrics else ""
        print(f"  {name:<18} {value:12.4f} {UNITS.get(name, 'ms')}{beside}")
    return metrics, verdicts, run_failures


# -- the traced run -------------------------------------------------------------------


def _spans_line(op: int, database: int, spans) -> str:
    """One traced op's spans as a JSON line: each span is [name, layer,
    start us from the op's first span, duration us, parent index]."""
    origin = spans[0][2]
    rows = [
        [name, layer, round((start - origin) * 1e6, 1), round((end - start) * 1e6, 1), parent]
        for name, layer, start, end, parent in spans
    ]
    return json.dumps({"op": op, "database": database, "spans": rows}) + "\n"


def _counter_total(registry, name: str) -> float:
    return sum(registry.counter(name).series().values())


def trace(workload, seed: int, seconds: float):
    """The per-layer run: each traced op is paired with an untraced op
    on the same database, and the pair's ratio is the tracing overhead."""
    from repro.obs.metrics import get_registry

    from tracing import LAYERS, OP_SPAN, Tracer, summarize

    tracer = Tracer()
    registry = get_registry()
    with tracer.installed():
        bases = workload.build(seed)
    intern_ms = summarize(tracer.take()).get("incl.Relation.from_tuples", 0.0)
    workload.op(bases[0])

    rounds = harness.rounds_for(
        seconds / 2, len(bases), workload.nominal_ops_per_s,
        -(-TRACE_MIN_OPS // len(bases)),
    )
    order = harness.rotation(len(bases), rounds)
    refs = [harness.reference_ms()]
    plain_ms, traced_ms, digests, summaries, dumped = [], [], [], [], []
    hits = lookups = computed = tau_calls = 0
    counters = dict.fromkeys(
        ("optimizer.dp.states", "optimizer.dp.splits", "optimizer.dp.memo_hits",
         "join.executed", "join.output_tuples", "wcoj.joins"), 0.0)
    for index in order:
        base = bases[index]

        def traced_op():
            with tracer.span(OP_SPAN):
                return workload.op(base)

        ms, _ = run_op(lambda: workload.op(base))
        plain_ms.append(ms)
        refs.append(harness.reference_ms())
        registry.reset()
        registry.enabled = True
        with tracer.installed():
            ms, outcome = run_op(traced_op)
        registry.enabled = False
        refs.append(harness.reference_ms())
        traced_ms.append(ms)
        spans = tracer.take()
        tau_calls += sum(1 for span in spans if span[0] == "Database.tau_of")
        summaries.append(summarize(spans))
        dumped.append(_spans_line(len(dumped), index, spans))
        for name in counters:
            counters[name] += _counter_total(registry, name)
        if outcome is None:
            digests.append(None)
            continue
        for db in workload.stats_databases(outcome):
            stats = db.cache_stats()
            hits += stats.hits
            lookups += stats.lookups
            computed += stats.computed
        digests.append(workload.digest(outcome))
        del outcome
    verdicts, run_failures = check_all(workload, bases, order, digests)

    ref_for = harness.bracketing(refs)
    plain = sum(
        harness.normalize(ms, ref) for ms, ref in zip(plain_ms, ref_for[0::2]) if ms
    )
    traced = sum(
        harness.normalize(ms, ref) for ms, ref in zip(traced_ms, ref_for[1::2]) if ms
    )
    ops = len(summaries)

    def mean(key: str) -> float:
        return sum(s.get(key, 0.0) for s in summaries) / ops

    layer_self = {f"{layer}.self_ms": mean(f"{layer}.self_ms") for layer in LAYERS}
    metrics = {
        **layer_self,
        "optimizer.dp_states": counters["optimizer.dp.states"] / ops,
        "optimizer.dp_splits": counters["optimizer.dp.splits"] / ops,
        "optimizer.dp_memo_hits": counters["optimizer.dp.memo_hits"] / ops,
        "optimizer.route_ms": mean("incl.EngineRouter.route"),
        "schemegraph.calls": mean("schemegraph.calls"),
        "database.tau_calls": tau_calls / ops,
        "database.tau_computed": computed / ops,
        "database.cache_hit_rate": hits / lookups if lookups else 0.0,
        "relational.joins": counters["join.executed"] / ops,
        "relational.output_tuples": counters["join.output_tuples"] / ops,
        "relational.decode_ms": mean("incl.Relation.rows"),
        "relational.intern_ms": intern_ms,
        "wcoj.joins": counters["wcoj.joins"] / ops,
        "yannakakis.calls": mean("yannakakis.calls"),
        "conditions.calls": mean("conditions.calls"),
        "query.explain_ms": mean("incl.Plan.explain"),
        "harness.ref_loop_ms": statistics.median(refs),
        "harness.trace_overhead": traced / plain,
        "harness.op_ms": mean("harness.op_ms"),
        "harness.unattributed_ms": mean("harness.unattributed_ms"),
    }
    accounted = sum(layer_self.values()) + metrics["harness.unattributed_ms"]
    SPANS_DIR.mkdir(exist_ok=True)
    spans_file = SPANS_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    spans_file.write_text("".join(dumped))
    print(f"{workload.name} (traced): {ops} traced ops, seed {seed}; spans in {spans_file}")
    print(f"  layer self times + unattributed = {accounted:.3f} ms "
          f"of {metrics['harness.op_ms']:.3f} ms traced op wall")
    for name, value in metrics.items():
        print(f"  {name:<26} {value:14.4f}")
    return metrics, verdicts, run_failures


# -- steadiness ------------------------------------------------------------------------


def steadiness(names, runs: int, seconds: float, first_seed: int) -> int:
    """Run each workload ``runs`` times in fresh processes and print the
    spread of every end-to-end metric against its bound."""
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}
    status = 0
    for name in names:
        values = {}
        for seed in range(first_seed, first_seed + runs):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
            ]
            done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
            if done.returncode != 0:
                print(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr}")
                status = 1
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={e['value']:.4g}" for m, e in result["metrics"].items()), flush=True)
        print(f"\n{name}: {runs} runs")
        print(f"  {'metric':<18} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}")
        for metric, series in values.items():
            s = harness.spread(series)
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and s["iqr_share"] > bound / 3:
                flag = "  above bound/3"
            print(f"  {metric:<18} {s['median']:10.4f} {s['q1']:10.4f} {s['q3']:10.4f} "
                  f"{s['iqr_share']:8.4f} {s['range_share']:9.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N", default=0,
                        help="run each workload N times in fresh processes")
    args = parser.parse_args(argv)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    if args.steadiness:
        return steadiness(names, args.steadiness, args.seconds, args.seed)
    if len(names) != 1:
        parser.error("a measuring run takes one workload")

    workloads = import_library()
    workload = workloads.WORKLOADS[names[0]]()
    if args.trace:
        metrics, verdicts, run_failures = trace(workload, args.seed, args.seconds)
    else:
        metrics, verdicts, run_failures = measure(workload, args.seed, args.seconds)
    for failure in run_failures:
        print(f"  run check failed: {failure}")
    failed = verdicts.count(False)
    correct = failed == 0 and not run_failures
    print(json.dumps({
        "correct": correct,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS.get(name, "ms")}
            for name, value in metrics.items()
        },
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
