"""Tempest's end-to-end benchmark: real NPB runs and a fan-in ingest,
timed from outside through the public calls of every layer.

    python3 perfbench/run.py --workload npb-cg-comm --seed 1 \\
        --seconds 45 --trace 0

One process, closed loop: each operation starts when the previous one
has finished.  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` runs every other operation with the span
recorder on and prints the per-layer metrics instead.  Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Run from the root of a source checkout: the benchmark imports Tempest
from ``src/`` and writes scratch files under ``.bench_out/`` only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import SpanRecorder, median, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("npb-cg-comm", "fanin-ingest")
#: runnable but not in BENCHMARK.json: BT's ``hotpaths`` check fails on
#: every seed tried (the streaming P² median misses the documented
#: ±0.5 °C on its time-ordered node; NOTES.md, "A failure that stands"),
#: so its runs print ``"correct": false`` until the program is fixed
UNGATED = ("npb-bt-deep",)
#: fresh interpreters started per run for ``setup_s``
SETUP_REPS = 9
#: operations run even when ``--seconds`` is shorter
MIN_OPS = 2

END_TO_END = (
    ("setup_s", "s"),
    ("time_to_profile_s", "s"),
    ("parse_s", "s"),
    ("hotpaths_s", "s"),
    ("check_s", "s"),
    ("lab_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: FALLBACK_REASONS keys of repro.core.streamprof, spelled out so the
#: metric set is fixed before the program is imported
FALLBACKS = ("non-monotone-chunk", "time-regression", "unbalanced-frames",
             "frame-mismatch", "sensor-range")

PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.scipy_loaded", "bool"),
    ("sim.untraced_s", "s"),
    ("sim.sim_s", "s"),
    ("sim.speed", "s/s"),
    ("record.cost_s", "s"),
    ("record.records", "count"),
    ("record.comm_share", "ratio"),
    ("record.bytes", "B"),
    ("record.records_per_s", "1/s"),
    ("record.modeled_overhead_pct", "%"),
    ("trace.save_s", "s"),
    ("trace.load_s", "s"),
    ("trace.bytes", "B"),
    ("parser.parse_s", "s"),
    ("parser.records_per_s", "1/s"),
    ("parser.peak_bytes", "B"),
    ("report.render_s", "s"),
    ("streamprof.consume_s", "s"),
    ("streamprof.finalize_s", "s"),
    ("streamprof.records_per_s", "1/s"),
    ("streamprof.chunks", "count"),
    *((f"streamprof.fallback.{r}", "count") for r in FALLBACKS),
    ("streamprof.vector_ratio", "ratio"),
    ("streamprof.peak_bytes", "B"),
    ("cct.contexts", "count"),
    ("cct.evicted", "count"),
    ("cct.epsilon_s", "s"),
    ("cct.hotpaths_s", "s"),
    ("summary.build_s", "s"),
    ("summary.encode_s", "s"),
    ("summary.decode_s", "s"),
    ("summary.merge_s", "s"),
    ("summary.bytes", "B"),
    ("wire.push_s", "s"),
    ("wire.records_per_s", "1/s"),
    ("wire.frames_in", "count"),
    ("wire.bytes_in", "B"),
    ("wire.dup_records", "count"),
    ("wire.gap_resets", "count"),
    ("wire.reconnects", "count"),
    ("wire.errors", "count"),
    ("aggregator.snapshot_s", "s"),
    ("fanin.summaries_in", "count"),
    ("fanin.compose_s", "s"),
    ("tracelint.check_s", "s"),
    ("tracelint.diagnostics", "count"),
    ("causal.ingest_s", "s"),
    ("causal.finalize_s", "s"),
    ("causal.events", "count"),
    ("causal.events_per_s", "1/s"),
    ("causal.diagnostics", "count"),
    ("lab.write_s", "s"),
    ("lab.compose_s", "s"),
    ("lab.query_s", "s"),
    ("lab.blob_bytes", "B"),
    ("lab.runs", "count"),
    ("oracle.tl018_nodes", "count"),
    ("bench.trace_overhead_pct", "%"),
)

#: end-to-end metric -> the samples it is the median of
TIMED = {"time_to_profile_s": "time_to_profile", "parse_s": "parse",
         "hotpaths_s": "hotpaths", "check_s": "check", "lab_s": "lab"}


def cold_start(workload: str, seed: int, reps: int) -> list[dict]:
    """Start *reps* fresh interpreters; time each to ready-to-run."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed)],
            stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=120)
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"setup probe exited {proc.returncode}")
        out.append({"setup_s": elapsed, **json.loads(line)})
    return out


def make_pipeline(workload: str, seed: int, workdir: Path, rec):
    from pipeline import FaninPipeline, NpbPipeline

    if workload == "npb-cg-comm":
        return NpbPipeline("CG", 8, 4, seed, workdir, rec)
    if workload == "npb-bt-deep":
        return NpbPipeline("BT", 4, 4, seed, workdir, rec)
    return FaninPipeline(seed, workdir, rec)


def layer_metrics(rec: SpanRecorder, probes: list[dict],
                  untraced: dict, traced: dict, extra: dict) -> dict:
    """The per-layer metrics of a traced run (0 where a layer is idle)."""
    selft = rec.self_times()
    g = rec.gauges
    n_ops = max(1, len(traced.get("time_to_profile", [])))

    def med(name: str) -> float:
        return median(selft.get(name, []))

    def per_op(name: str) -> float:
        return sum(selft.get(name, [])) / n_ops

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    records = g.get("streamprof.records", 0)
    chunks = g.get("streamprof.chunks", 0)
    fallback_chunks = sum(g.get(f"streamprof.fallback.{r}", 0)
                          for r in FALLBACKS)
    rec_records = g.get("record.records", 0)
    run_wall = med("session.run_mpi")
    untraced_s = extra.get("sim.untraced_s", 0.0)
    sim_s = extra.get("sim.sim_s", 0.0)
    ttp_on = median(traced.get("time_to_profile", []))
    ttp_off = median(untraced.get("time_to_profile", []))
    return {
        "cli.import_s": median([p["import_s"] for p in probes]),
        "cli.scipy_loaded": max(p["scipy_loaded"] for p in probes),
        "sim.untraced_s": untraced_s,
        "sim.sim_s": sim_s,
        "sim.speed": rate(sim_s, untraced_s),
        "record.cost_s": run_wall - untraced_s if untraced_s else 0.0,
        "record.records": rec_records,
        "record.comm_share": rate(g.get("record.comm", 0), rec_records),
        "record.bytes": g.get("record.bytes", 0),
        "record.records_per_s": rate(rec_records, run_wall),
        "record.modeled_overhead_pct": extra.get("modeled_overhead_pct",
                                                 0.0),
        "trace.save_s": med("trace.save"),
        "trace.load_s": med("trace.load"),
        "trace.bytes": g.get("trace.bytes", 0),
        "parser.parse_s": med("parser.parse"),
        "parser.records_per_s": rate(records, med("parser.parse")),
        "parser.peak_bytes": extra.get("parser.peak_bytes", 0),
        "report.render_s": med("report.render"),
        "streamprof.consume_s": med("streamprof.consume"),
        "streamprof.finalize_s": med("streamprof.finalize"),
        "streamprof.records_per_s": rate(
            records, med("streamprof.consume") + med("streamprof.finalize")),
        "streamprof.chunks": chunks,
        **{f"streamprof.fallback.{r}": g.get(f"streamprof.fallback.{r}", 0)
           for r in FALLBACKS},
        "streamprof.vector_ratio": rate(chunks - fallback_chunks, chunks),
        "streamprof.peak_bytes": extra.get("streamprof.peak_bytes", 0),
        "cct.contexts": g.get("cct.contexts", 0),
        "cct.evicted": g.get("cct.evicted", 0),
        "cct.epsilon_s": g.get("cct.epsilon_s", 0.0),
        "cct.hotpaths_s": med("cct.hot_paths"),
        "summary.build_s": med("summary.build"),
        "summary.encode_s": med("summary.encode"),
        "summary.decode_s": med("summary.decode"),
        "summary.merge_s": med("summary.merge"),
        "summary.bytes": g.get("summary.bytes", 0),
        "wire.push_s": per_op("wire.push"),
        "wire.records_per_s": rate(g.get("wire.records_in", 0),
                                   per_op("wire.push")),
        **{f"wire.{k}": g.get(f"wire.{k}", 0)
           for k in ("frames_in", "bytes_in", "dup_records", "gap_resets",
                     "reconnects", "errors")},
        "aggregator.snapshot_s": med("aggregator.snapshot"),
        "fanin.summaries_in": g.get("fanin.summaries_in", 0),
        "fanin.compose_s": med("fanin.compose"),
        "tracelint.check_s": med("tracelint.check"),
        "tracelint.diagnostics": g.get("tracelint.diagnostics", 0),
        "causal.ingest_s": med("causal.ingest"),
        "causal.finalize_s": med("causal.finalize"),
        "causal.events": g.get("causal.events", 0),
        "causal.events_per_s": rate(
            g.get("causal.events", 0),
            med("causal.ingest") + med("causal.finalize")),
        "causal.diagnostics": g.get("causal.diagnostics", 0),
        "lab.write_s": med("lab.write"),
        "lab.compose_s": med("lab.compose"),
        "lab.query_s": med("lab.query"),
        "lab.blob_bytes": g.get("lab.blob_bytes", 0),
        "lab.runs": g.get("lab.runs", 0),
        "oracle.tl018_nodes": g.get("oracle.tl018_nodes", 0),
        "bench.trace_overhead_pct": (100.0 * (ttp_on - ttp_off) / ttp_off
                                     if ttp_off else 0.0),
    }


def report_lines(workload: str, e2e: dict, samples: dict, layer: dict,
                 rec: SpanRecorder, attempted: int, failed: int) -> list[str]:
    """What a person reads: every metric with its unit, tails with their
    sample counts, ratios with their bases, self time per span."""
    lines = [f"workload {workload}"]
    for name, unit in END_TO_END:
        if name in e2e:
            lines.append(f"  {name:<28} {e2e[name]:.6g} {unit}")
        base = TIMED.get(name)
        if base and name in e2e:
            vals = samples.get(base, [])
            t = tail(vals)
            lines.append(f"  {name + '.tail':<28} "
                         + (f"p{t[0]} {t[1]:.6g} s over {len(vals)} samples"
                            if t else f"omitted: {len(vals)} samples"))
    lines.append(f"  {'failed_frac':<28} {failed}/{attempted} "
                 f"= {failed / attempted if attempted else 0:.4g} ratio")
    if layer:
        units = dict(PER_LAYER)
        g = rec.gauges
        bases = {
            "streamprof.vector_ratio": f"of {g.get('streamprof.chunks', 0)} "
                                       "chunks",
            "record.comm_share": f"of {g.get('record.records', 0)} records",
            "oracle.tl018_nodes": (
                f"of {g.get('oracle.nodes', 0)} nodes; "
                f"{g.get('oracle.skewed_nodes', 0)} carry cross-core skew"),
        }
        for name, value in layer.items():
            base = f"  ({bases[name]})" if name in bases else ""
            lines.append(f"  {name:<34} {value:.6g} {units[name]}{base}")
        lines.append("  self time per span (median s, count):")
        for name, vals in sorted(rec.self_times().items()):
            lines.append(f"    {name:<30} {median(vals):.6f} x{len(vals)}")
    return lines


def run(args) -> int:
    rec = SpanRecorder(enabled=False)
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        probes = cold_start(args.workload, args.seed, SETUP_REPS)
        pipe = make_pipeline(args.workload, args.seed, workdir, rec)
        pipe.prepare()
        simulates = hasattr(pipe, "untraced_run")
        sim_walls: list[float] = []
        sim_end = 0.0
        untraced: dict = {}
        traced: dict = {}
        aborted = 0
        start = time.perf_counter()
        i = 0
        rss_mb = 0.0
        while True:
            # stop when less than half an average operation is left, so
            # the loop ends --seconds after it began, on average
            spent = time.perf_counter() - start
            if i >= MIN_OPS and spent + spent / i / 2 > args.seconds:
                break
            rec.enabled = bool(args.trace) and i % 2 == 1
            rec.run_id = i
            try:
                if rec.enabled and simulates:
                    # the same run with instrumentation off, next to the
                    # traced one so both see the same machine
                    wall, sim_end = pipe.untraced_run()
                    sim_walls.append(wall)
                pipe.operation(i, traced if rec.enabled else untraced)
            except Exception:
                # the raising step was counted as attempted
                aborted += 1
                traceback.print_exc(file=sys.stderr)
            if i == 0:
                # the peak over one whole pipeline pass: later passes
                # would add allocator growth that depends on how many
                # of them fit in --seconds
                rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            i += 1
        rec.enabled = False
        attempted = max(1, pipe.steps)
        failed = pipe.failed + aborted
        layer = {}
        if args.trace:
            extra = pipe.memory_probe()
            if sim_walls:
                extra["sim.untraced_s"] = median(sim_walls)
                extra["sim.sim_s"] = sim_end
                extra["modeled_overhead_pct"] = (
                    100.0 * (pipe.workload_end - sim_end) / sim_end)
            layer = layer_metrics(rec, probes, untraced, traced, extra)
            rec.dump(out_dir / f"spans-{args.workload}-s{args.seed}.json")
        e2e = {"setup_s": median([p["setup_s"] for p in probes])}
        for name, base in TIMED.items():
            if untraced.get(base):
                e2e[name] = median(untraced[base])
        e2e["peak_rss_mb"] = rss_mb
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in report_lines(args.workload, e2e, untraced, layer, rec,
                             attempted, failed):
        print(line)
    catalogue = PER_LAYER if args.trace else END_TO_END
    values = layer if args.trace else e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in catalogue if name in values},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + UNGATED)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no Tempest sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
