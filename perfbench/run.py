"""Benchmark of the weightbounds package, run from the root of a checkout.

    python3 perfbench/run.py --workload spectrum|selftest|sweep \\
        --seed N --seconds S --trace 0|1

Closed loop, one client, one thread: a repetition imports the package
afresh from src/ (so no cache of an earlier repetition survives), builds
its fields and seeded inputs (timed as `setup_s`), makes one timed pass
over them and then checks every output.  Repetitions continue while
another one fits in --seconds.  Each repetition derives its inputs from
(seed, repetition), so the same seed gives the same inputs.

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians
over the run's samples.  The host's CPU speed swings by up to 1.7x, and
wall times follow it, so both times are taken on the reference clock of
refclock.py: `run_refs` is the pass's length in reference-loop lengths
and `setup_s` the set-up's length in reference seconds (1000 loop
lengths).  The third is the peak resident memory.  The summary line also
gives the wall times, as `run_s` and `setup_wall_s`.

--trace 1 makes each repetition twice, untraced and then traced on the
same inputs, and reports the per-layer metrics as medians over the traced
passes, plus `trace_overhead` (fastest traced over fastest untraced wall
time).  The spans of the last traced pass are written to
.perfbench/trace-<workload>-<seed>.json.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The line before it gives the workload's own throughput, the
error rate and, for sweep, the per-tuple latency percentiles.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import refclock
import tracing
from workloads import SPECTRUM_SHAPES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "weightbounds"
LAYERS = ("gf", "codes", "bounds", "exclusion", "corpus", "tables", "selfcheck", "cli")
MAX_PROBLEMS_SHOWN = 20
SETUPS_PER_REP = 3  # set-up is short and noisy; sample it more often than the pass


def drop_package() -> None:
    """Forget every module of an earlier import, with its caches."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    gc.collect()


def load_package(tracer=None) -> SimpleNamespace:
    """Import the package (traced when a tracer is given) as a namespace of layers."""
    importlib.import_module(f"{PACKAGE}.cli")
    modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
    if tracer is not None:
        tracing.install(tracer, {PACKAGE: sys.modules[PACKAGE], **modules})
    return SimpleNamespace(root=ROOT, **modules)


def repetition(workload, seed: int, rep: int, tracer=None) -> SimpleNamespace:
    """Set-up and one timed pass; traced when a tracer is given.

    Untraced, the set-up is made SETUPS_PER_REP times over, each from a
    fresh import and the same seed, and the pass uses the last one.  Both
    are timed by the reference clock."""

    def set_up():
        wb = load_package(tracer)
        return wb, workload.setup(wb, random.Random(seed * 1_000_003 + rep))

    setup_s, setup_wall_s, latency_ns, layers, run_refs = [], [], [], None, None
    if tracer is None:
        for _ in range(SETUPS_PER_REP):
            drop_package()
            with refclock.RefClock() as clock:
                wb, inputs = set_up()
            setup_s.append(clock.refs() * refclock.REF_SECONDS)
            setup_wall_s.append(clock.wall_s())
        with refclock.RefClock() as clock:
            out = workload.run(wb, inputs)
        run_s, run_refs = clock.wall_s(), clock.refs()
        latency_ns = [end - start - clock.probe_ns(start, end)
                      for start, end in getattr(out, "tuple_spans", ())]
    else:
        drop_package()
        wb, inputs = set_up()
        t1 = perf_counter()
        out = workload.run(wb, inputs)
        run_s = perf_counter() - t1
        layers = tracing.layer_metrics(tracer)
    attempted, failed, problems = workload.check(wb, inputs, out)
    return SimpleNamespace(
        setup_s=setup_s, setup_wall_s=setup_wall_s, run_s=run_s, run_refs=run_refs,
        attempted=attempted, failed=failed, problems=problems, latency_ns=latency_ns,
        layers=layers,
    )


def write_spans(tracer, workload: str, seed: int) -> None:
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    fields = ("id", "name", "parent", "start_ns", "end_ns", "busy_ns")
    with open(out_dir / f"trace-{workload}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": fields, "spans": tracer.spans,
                   "dropped": tracer.dropped}, fh)


def measure(args) -> SimpleNamespace:
    workload = WORKLOADS[args.workload]
    setup_s, setup_wall_s, run_s, run_refs, traced_run_s = [], [], [], [], []
    latency_ns, layer_runs = [], []
    attempted, failed, problems = 0, 0, []
    rep_s = []
    last_tracer = None
    start = perf_counter()
    while not rep_s or perf_counter() - start + statistics.median(rep_s) <= args.seconds:
        r0 = perf_counter()
        rep = len(rep_s)
        passes = [repetition(workload, args.seed, rep)]
        setup_s += passes[0].setup_s
        setup_wall_s += passes[0].setup_wall_s
        run_s.append(passes[0].run_s)
        run_refs.append(passes[0].run_refs)
        if args.trace:
            last_tracer = tracing.Tracer()
            passes.append(repetition(workload, args.seed, rep, last_tracer))
            traced_run_s.append(passes[1].run_s)
            layer_runs.append(passes[1].layers)
        for p in passes:
            attempted += p.attempted
            failed += p.failed
            problems += p.problems
            latency_ns += p.latency_ns
        rep_s.append(perf_counter() - r0)

    if workload.final_check is not None:
        drop_package()
        n, bad, found = workload.final_check(load_package())
        attempted += n
        failed += bad
        problems += found

    summary = {
        "workload": args.workload, "seed": args.seed, "passes": len(run_s),
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        workload.items_name: workload.items / statistics.median(run_s),
        "setup_wall_s": statistics.median(setup_wall_s),
        "run_s": statistics.median(run_s),
        "setup_s_passes": setup_s, "run_s_passes": run_s, "run_refs_passes": run_refs,
    }
    if latency_ns:
        cuts = statistics.quantiles(latency_ns, n=100)
        summary["tuple_p50_ms"] = statistics.median(latency_ns) / 1e6
        summary["tuple_p99_ms"] = cuts[98] / 1e6
        summary["tuple_latency_samples"] = len(latency_ns)
    values = {
        "setup_s": statistics.median(setup_s),
        "run_refs": statistics.median(run_refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        values = {key: statistics.median(run[key] for run in layer_runs)
                  for key in layer_runs[0]}
        drop_package()
        values.update(tracing.gf_op_ns(load_package().gf.make_field,
                                       [q for q, _, _ in SPECTRUM_SHAPES]))
        values["trace_overhead"] = min(traced_run_s) / min(run_s)
        summary["traced_run_s_passes"] = traced_run_s
        summary["dropped"] = last_tracer.dropped
        write_spans(last_tracer, args.workload, args.seed)
    return SimpleNamespace(summary=summary, values=values, problems=problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    result = measure(args)
    for problem in result.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {}
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        metrics[entry["name"]] = {"value": result.values[entry["name"]], "unit": entry["unit"]}
    print(json.dumps(result.summary))
    print(json.dumps({
        "correct": result.summary["failed"] == 0,
        "attempted": result.summary["attempted"],
        "failed": result.summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
