"""The operations the benchmark times, as sequences of Tempest's public
calls — the same calls the ``tempest`` subcommands make.

One *operation* is one pass of a user's pipeline over one run:

* ``time_to_profile`` — ``tempest npb`` (run, ``profile()``, render), or
  on ``fanin-ingest`` ``tempest push`` into two leaf ``serve``\\ s that
  fan in to a root, up to the root's rendered profile;
* ``parse`` — ``tempest parse`` of the saved bundle;
* ``hotpaths`` — ``tempest hotpaths --bundle`` (streaming profile with
  an HCCT budget, then the hot paths);
* ``check`` — ``tempest check`` (TraceLint, deep) plus ``tempest race``;
* ``lab`` — ``tempest lab``: store the run's summary and manifest, add
  it to a campaign, compose the campaign, query one metric.

``hotpaths`` and ``race`` call the per-chunk public API
(:class:`StreamingRunProfiler`, :class:`CausalAnalyzer`) in the same
loop as ``stream_bundle_profile`` / ``causal_check_bundle``, so the
per-layer split (consume vs finalize, ingest vs finalize) and the
waste counters can be read from outside.

Every step checks its output after it is timed; a miss counts the step
as failed and the operation goes on, so a wrong output never removes a
timing sample.  An exception raised by a call into Tempest ends the
operation.
"""

from __future__ import annotations

import gc
import hashlib
import json
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from repro import __version__
from repro.check.causal import CausalAnalyzer
from repro.check.tracelint import check_path, compare_profiles
from repro.core import TempestParser, TempestSession, render_stdout_report
from repro.core.records import RECORD_DTYPE, RECORD_SIZE
from repro.core.spool import STREAM_CHUNK_RECORDS
from repro.core.streamprof import FALLBACK_REASONS, StreamingRunProfiler
from repro.core.summary import RunSummary
from repro.core.trace import TraceBundle
from repro.lab import (
    CampaignStore,
    Laboratory,
    RunManifest,
    RunSpec,
    machine_fingerprint,
    query_campaign,
)
from repro.simmachine.machine import ClusterConfig, Machine
from repro.util.canonjson import canon_bytes

#: the ``tempest hotpaths`` default budget
HCCT_BUDGET = 1024
#: hot paths listed, as ``tempest hotpaths --top 10`` asks for
HOT_TOP = 10
#: record kinds 4-7 are communication records (repro.core.commrec)
COMM_KINDS = (4, 5, 6, 7)
#: the NPB workloads run on ``tempest npb``'s default cluster; ``--seed``
#: draws the run (sensor noise, ambient wander), not the hardware.  The
#: hardware's per-core TSC skews decide how many chunks the streaming
#: engine can vectorize, so a seed that redrew them would make
#: ``hotpaths_s`` jump between seeds (0.35 s vs 0.59 s on BT).
HARDWARE_SEED = 1234


class CheckFailed(Exception):
    """An operation's output missed its oracle."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _skewed_nodes(bundle) -> set[str]:
    """Nodes whose merged stream runs backwards somewhere (cross-core
    TSC skew)."""
    return {name for name, trace in bundle.nodes.items()
            if bool(np.any(np.diff(trace.columns.array["tsc"]) < 0))}


def _stream_matches_batch(batch, stream, tl018, skewed: set[str]) -> None:
    """The streaming profile against the batch parser's, an engine
    written apart from it.

    On every node both see the same functions, each entered as often:
    neither depends on the order the records arrive in.  On a node whose
    stream is time-ordered, TraceLint's own precondition for TL018, every
    field :func:`compare_profiles` compares must agree within its
    tolerances (*tl018* holds its diagnostics).
    """
    _require(set(batch.nodes) == set(stream.nodes),
             f"node sets differ: {sorted(batch.nodes)} vs "
             f"{sorted(stream.nodes)}")
    for name, b in batch.nodes.items():
        s = stream.nodes[name]
        _require(set(b.functions) == set(s.functions),
                 f"{name}: function sets differ between the engines")
        calls = [f for f in sorted(b.functions)
                 if b.functions[f].n_calls != s.functions[f].n_calls]
        _require(not calls, f"{name}: n_calls differ for {calls[:3]}")
    ordered = [d for d in tl018 if d.node not in skewed]
    _require(not ordered, "TL018 on a time-ordered node: "
             + "; ".join(f"{d.node}: {d.message}" for d in ordered[:2]))


def _stream(bundle) -> tuple[StreamingRunProfiler, int]:
    """Fold a bundle into a streaming profiler with an HCCT, chunk by
    chunk as ``stream_bundle_profile`` does; returns it and the chunk
    count."""
    profiler = StreamingRunProfiler(
        bundle.symtab,
        sampling_hz=float(bundle.meta.get("sampling_hz", 4.0)),
        strict=True,
        meta=dict(bundle.meta),
        hcct_budget=HCCT_BUDGET,
    )
    chunks = 0
    for name, trace in bundle.nodes.items():
        acc = profiler.add_node(name, trace.tsc_hz, trace.sensor_names)
        arr = trace.columns.array
        for lo in range(0, len(arr), STREAM_CHUNK_RECORDS):
            acc.consume(arr[lo:lo + STREAM_CHUNK_RECORDS])
            chunks += 1
    return profiler, chunks


class Pipeline:
    """The steps every workload shares, over one saved bundle."""

    #: offline step repetitions per operation
    parse_reps = 2
    hot_reps = 1
    check_reps = 2
    #: runs already in the campaign before the operation's own
    campaign_runs = 0

    def __init__(self, seed: int, workdir: Path, rec):
        self.seed = seed
        self.workdir = workdir
        self.rec = rec
        self.bundle_dir = workdir / "bundle"
        self._first: dict[str, str] = {}
        #: campaign member summary digests -> digest of their eager merge
        self._eager: dict[tuple, str] = {}
        #: checked steps started (the ``attempted`` count)
        self.steps = 0
        #: steps whose output missed its check
        self.failed = 0
        #: the run's summary and its encoded document, for the lab
        self.summary: RunSummary | None = None
        self.doc: dict | None = None

    def prepare(self) -> None:
        """Build the operation's inputs; nothing here is timed."""

    # -- helpers --------------------------------------------------------

    def _same_as_first(self, key: str, value: str) -> None:
        first = self._first.setdefault(key, value)
        _require(first == value, f"{key} differs between repeats of seed "
                                 f"{self.seed}")

    def _verify(self, name: str, check, *args) -> None:
        """Run one step's oracle; a miss counts the step as failed."""
        try:
            check(*args)
        except CheckFailed as exc:
            self.failed += 1
            print(f"perfbench: {name}: check failed: {exc}", file=sys.stderr)

    def _timed(self, samples: dict, name: str, fn, check=None):
        """Time ``fn()`` as one sample of *name*, then check its output
        with ``check(output)``, outside the timed region."""
        self.steps += 1
        # each tempest command starts on a fresh heap; without this a
        # full collection of the previous step's garbage lands in
        # whichever step happens to cross the threshold
        gc.collect()
        t0 = time.perf_counter()
        with self.rec.span(name):
            out = fn()
        samples.setdefault(name, []).append(time.perf_counter() - t0)
        if check is not None:
            self._verify(name, check, out)
        return out

    # -- the shared steps -----------------------------------------------

    def parse(self):
        """``tempest parse``: load, batch parse, render."""
        rec = self.rec
        with rec.span("trace.load"):
            bundle = TraceBundle.load(self.bundle_dir)
        with rec.span("parser.parse"):
            profile = TempestParser(bundle).parse()
        with rec.span("report.render"):
            text = render_stdout_report(profile)
        return profile, text

    def check_parse(self, out) -> None:
        profile, text = out
        self.batch_profile = profile
        self.rec.gauge("trace.bytes", sum(
            p.stat().st_size for p in self.bundle_dir.iterdir()))
        self._same_as_first("parse report", _digest(text))

    def hotpaths(self):
        """``tempest hotpaths --bundle``: load, stream with the HCCT,
        list the hot paths and the contexts of their functions."""
        rec = self.rec
        with rec.span("trace.load"):
            bundle = TraceBundle.load(self.bundle_dir)
        with rec.span("streamprof.consume"):
            profiler, chunks = _stream(bundle)
        with rec.span("streamprof.finalize"):
            profile = profiler.finalize()
        with rec.span("cct.hot_paths"):
            tree = profile.context_tree()
            hot = [n for n in tree.hot_paths(HOT_TOP + 1) if n.path][:HOT_TOP]
            split = {fn: tree.function_contexts(fn)
                     for fn in sorted({n.function for n in hot})}
        return bundle, profiler, chunks, profile, tree, hot, split

    def check_hotpaths(self, out) -> None:
        bundle, profiler, chunks, profile, tree, hot, split = out
        rec = self.rec
        fallbacks = dict.fromkeys(FALLBACK_REASONS, 0)
        for acc in profiler.accumulators.values():
            for reason, n in acc.fallbacks.items():
                fallbacks[reason] += n
        tl018 = compare_profiles(self.batch_profile, profile)
        skewed = _skewed_nodes(bundle)
        records = sum(len(t.columns.array) for t in bundle.nodes.values())
        rec.gauge("streamprof.records", records)
        rec.gauge("streamprof.chunks", chunks)
        for reason, n in fallbacks.items():
            rec.gauge(f"streamprof.fallback.{reason}", n)
        rec.gauge("cct.contexts", len(tree))
        rec.gauge("cct.evicted", tree.n_evicted)
        rec.gauge("cct.epsilon_s", tree.epsilon_s)
        rec.gauge("oracle.tl018_nodes", len({d.node for d in tl018}))
        rec.gauge("oracle.skewed_nodes", len(skewed))
        rec.gauge("oracle.nodes", len(bundle.nodes))
        _require(bool(hot) and all(split.values()),
                 "hot paths missing from the streaming profile")
        for name, node in profile.nodes.items():
            _require(len(node.context_tree) <= HCCT_BUDGET,
                     f"{name}: HCCT holds {len(node.context_tree)} contexts "
                     f"over budget {HCCT_BUDGET}")
        _stream_matches_batch(self.batch_profile, profile, tl018, skewed)

    def check(self):
        """``tempest check`` (deep) plus ``tempest race``."""
        rec = self.rec
        with rec.span("tracelint.check"):
            diags = check_path(self.bundle_dir, deep=True)
        # tempest race: causal_check_bundle's loop, split ingest/finalize
        meta = json.loads((self.bundle_dir / "meta.json").read_text())
        analyzer = CausalAnalyzer(path=str(self.bundle_dir))
        step = STREAM_CHUNK_RECORDS * RECORD_SIZE
        with rec.span("causal.ingest"):
            for node, info in meta["nodes"].items():
                analyzer.add_node(node, float(info["tsc_hz"]),
                                  truncated=bool(info.get("truncated")))
                with open(self.bundle_dir / f"{node}.trace", "rb") as fh:
                    while buf := fh.read(step):
                        analyzer.consume(node, np.frombuffer(
                            buf, dtype=RECORD_DTYPE))
        with rec.span("causal.finalize"):
            cdiags = analyzer.finalize()
        return diags, cdiags, analyzer

    def check_check(self, out) -> None:
        diags, cdiags, analyzer = out
        self.rec.gauge("tracelint.diagnostics", len(diags))
        self.rec.gauge("causal.diagnostics", len(cdiags))
        self.rec.gauge("causal.events", analyzer.n_comm_events)
        errors = [d for d in diags + cdiags if d.severity == "error"]
        _require(not errors, f"diagnostics on a clean run: "
                             f"{[(d.rule, d.message) for d in errors[:3]]}")

    def offline(self, samples: dict) -> None:
        """The offline commands, each repeated on the saved bundle."""
        for _ in range(self.parse_reps):
            self._timed(samples, "parse", self.parse, self.check_parse)
        for _ in range(self.hot_reps):
            self._timed(samples, "hotpaths", self.hotpaths,
                        self.check_hotpaths)
        for _ in range(self.check_reps):
            self._timed(samples, "check", self.check, self.check_check)

    def summary_roundtrip(self, summary: RunSummary) -> dict:
        """Encode, decode and merge the run's summary (``tempest-summary-v2``
        on the wire and in the lab); returns the encoded document."""
        rec = self.rec
        with rec.span("summary.encode"):
            doc = summary.to_dict()
            blob = canon_bytes(doc)
        with rec.span("summary.decode"):
            back = RunSummary.from_dict(json.loads(blob))
        with rec.span("summary.merge"):
            merged = RunSummary.empty()
            merged.merge(summary)
            merged.merge(back)
        rec.gauge("summary.bytes", len(blob))

        def check() -> None:
            digest = summary.content_digest()
            _require(back.content_digest() == digest,
                     "summary changed across encode/decode")
            _require(merged.n_records == 2 * summary.n_records,
                     "merged summary lost records")
            self._same_as_first("summary digest", digest)

        self.steps += 1
        self._verify("summary", check)
        return doc

    def _manifest(self, spec: RunSpec, platform: dict,
                  outputs: dict) -> RunManifest:
        return RunManifest(spec=spec, tempest_version=__version__,
                           platform_config=platform, outputs=outputs)

    def lab(self, tag: str, samples: dict, summary: RunSummary, doc: dict,
            spec: RunSpec, platform: dict) -> None:
        """``tempest lab``: a fresh laboratory holding
        :attr:`campaign_runs` earlier runs (written untimed), then the
        timed write, compose and query of this run."""
        rec = self.rec
        root = self.workdir / f"lab-{tag}"
        lab = Laboratory.create(root)
        store = CampaignStore.create(lab, "bench")
        if self.campaign_runs:
            digest = lab.put_json(self.campaign_base)
        for k in range(self.campaign_runs):
            base = self._manifest(
                RunSpec(**{**spec.to_dict(), "label": f"base{k}"}),
                platform, {"summary": digest})
            lab.write_manifest_doc(base.run_id, base.to_dict())
            store.add_run(base.run_id)
        sensor = next(iter(summary.nodes.values())).sensor_names[0]

        def write_compose_query():
            with rec.span("lab.write"):
                manifest = self._manifest(
                    spec, platform, {"summary": lab.put_json(doc),
                                     "n_records": summary.n_records})
                lab.write_manifest_doc(manifest.run_id, manifest.to_dict())
                store.add_run(manifest.run_id)
            with rec.span("lab.compose"):
                opened = CampaignStore.open(lab, "bench")
                composed = opened.composed()
            with rec.span("lab.query"):
                rows = query_campaign(opened, sensor=sensor)
            return opened, composed, rows

        def check(out) -> None:
            opened, composed, rows = out
            rec.gauge("lab.runs", len(rows))
            rec.gauge("lab.blob_bytes", sum(
                p.stat().st_size for p in lab.blobs_dir.rglob("*")
                if p.is_file()))
            # an eager merge of the same member blobs gives the same
            # summary, so it is merged once per distinct member list
            members = tuple(e["summary"] for e in opened.entries)
            if members not in self._eager:
                eager = RunSummary.empty()
                for digest in members:
                    eager.merge(RunSummary.from_dict(lab.get_json(digest)))
                self._eager[members] = eager.content_digest()
            _require(composed.content_digest() == self._eager[members],
                     "lazy campaign compose != eager merge")
            _require(len(rows) == self.campaign_runs + 1
                     and all(r["value"] is not None for r in rows),
                     "campaign query missed runs")

        self._timed(samples, "lab", write_compose_query, check)
        shutil.rmtree(root)

    def memory_probe(self) -> dict:
        """Peak bytes allocated by the batch parse and by the streaming
        profile of the saved bundle, under ``tracemalloc``."""
        import tracemalloc

        bundle = TraceBundle.load(self.bundle_dir)
        tracemalloc.start()
        try:
            TempestParser(bundle).parse()
            parse_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            _stream(bundle)[0].finalize()
            stream_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {"parser.peak_bytes": parse_peak,
                "streamprof.peak_bytes": stream_peak}

    def operation(self, i: int, samples: dict) -> None:
        """One pipeline pass; raises on the first check that misses."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# NPB workloads: a simulated run is the input


class NpbPipeline(Pipeline):
    parse_reps = 3
    hot_reps = 2
    check_reps = 2
    lab_reps = 3

    def __init__(self, bench: str, ranks: int, nodes: int, seed: int,
                 workdir: Path, rec):
        super().__init__(seed, workdir, rec)
        from repro.workloads.npb import BENCHMARKS, bt, cg

        configs = {"CG": lambda: cg.CGConfig(klass="A"),
                   "BT": lambda: bt.BTConfig(klass="A")}
        self.bench = bench
        self.program = BENCHMARKS[bench]
        self.config = configs[bench]()
        self.ranks = ranks
        self.nodes = nodes
        self.run_name = f"{bench}.A.{ranks}"
        self.spec = RunSpec(bench=bench, klass="A", ranks=ranks,
                            nodes=nodes, seed=seed, hcct_budget=HCCT_BUDGET)
        self.hardware = [node.config for node in Machine(ClusterConfig(
            n_nodes=nodes, seed=HARDWARE_SEED)).nodes.values()]

    def machine(self) -> Machine:
        return Machine(ClusterConfig(n_nodes=self.nodes, seed=self.seed,
                                     node_configs=self.hardware))

    def _session(self, *, enabled: bool = True):
        machine = self.machine()
        return machine, TempestSession(machine, enabled=enabled)

    def untraced_run(self) -> tuple[float, float]:
        """(wall s, simulated workload end) with instrumentation off —
        the §3.4 baseline side."""
        _machine, session = self._session(enabled=False)
        t0 = time.perf_counter()
        session.run_mpi(lambda ctx: self.program(ctx, self.config),
                        self.ranks, name=self.run_name)
        return time.perf_counter() - t0, session.last_workload_end

    def operation(self, i: int, samples: dict) -> None:
        rec = self.rec
        machine, session = self._session()

        def to_profile():
            with rec.span("session.run_mpi"):
                session.run_mpi(lambda ctx: self.program(ctx, self.config),
                                self.ranks, name=self.run_name)
            with rec.span("session.profile"):
                profile = session.profile()
            with rec.span("report.render"):
                return render_stdout_report(profile)

        self._timed(samples, "time_to_profile", to_profile,
                    lambda report: self._same_as_first("npb report",
                                                       _digest(report)))
        self.workload_end = session.last_workload_end

        bundle = session.collect()
        shutil.rmtree(self.bundle_dir, ignore_errors=True)
        with rec.span("trace.save"):
            bundle.save(self.bundle_dir)
        kinds = np.concatenate([t.columns.array["kind"]
                                for t in bundle.nodes.values()])
        rec.gauge("record.records", len(kinds))
        rec.gauge("record.bytes", len(kinds) * RECORD_SIZE)
        rec.gauge("record.comm", int(np.isin(kinds, COMM_KINDS).sum()))
        platform = machine_fingerprint(machine)
        # the offline commands below run without the simulation in memory
        del machine, session, bundle, kinds

        self.offline(samples)

        # tempest lab run's write path: condense through the streaming
        # engine with the HCCT, then store.  Every operation repeats the
        # same run (its report is checked against the first), so the
        # untimed condense and round trip run on the first operation and
        # on the traced ones only.
        if self.doc is None or rec.enabled:
            with rec.span("summary.build"):
                self.summary = _stream(TraceBundle.load(
                    self.bundle_dir))[0].summary(final=True)
            self.doc = self.summary_roundtrip(self.summary)
        for r in range(self.lab_reps):
            self.lab(f"{i}-{r}", samples, self.summary, self.doc,
                     RunSpec(**{**self.spec.to_dict(), "label": f"op{i}"}),
                     platform)


# ----------------------------------------------------------------------
# fanin-ingest: generated spools pushed through the cluster tier


class FaninPipeline(Pipeline):
    n_nodes = 16
    records_per_node = 6_000
    #: live-snapshot reads per node pushed (reads beside writes)
    snapshot_every_frames = 4
    campaign_runs = 3

    def prepare(self) -> None:
        """Generate the spools and the references the oracle compares
        against."""
        from repro.core.spool import spool_to_bundle
        from repro.core.streamprof import stream_spool_profile
        from spoolgen import generate_spools

        self.spool_dir = self.workdir / "spools"
        shape = generate_spools(self.spool_dir, seed=self.seed,
                                n_nodes=self.n_nodes,
                                records_per_node=self.records_per_node,
                                hardware_seed=HARDWARE_SEED)
        self.node_names = shape["nodes"]
        self.records = shape["records"]
        spool_to_bundle(self.spool_dir).save(self.bundle_dir)
        self.spooled = {name: trace.columns.array for name, trace
                        in TraceBundle.load(self.bundle_dir).nodes.items()}
        # the profile streamed locally from the same spools
        self.local_profile = stream_spool_profile(
            self.spool_dir, strict=True, hcct_budget=HCCT_BUDGET)
        # the single-root reference: one aggregator sees every record
        single = self._hub(live=True)
        for name in self.node_names:
            self._push(single, name)
        reference = single.aggregator.run_summary(final=True)
        self.single_digest = reference.content_digest()
        self.campaign_base = reference.to_dict()
        self.spec = RunSpec(bench="FANIN", klass="-", ranks=self.n_nodes,
                            nodes=self.n_nodes, seed=self.seed,
                            hcct_budget=HCCT_BUDGET)

    @staticmethod
    def _hub(*, live: bool):
        from repro.cluster import LoopbackHub

        hub = LoopbackHub(live=live)
        if live:
            hub.registry.hcct_budget = HCCT_BUDGET
        return hub

    def _push(self, hub, name: str, progress_fn=None) -> int:
        from repro.cluster import CollectorClient

        client = CollectorClient.from_spool_header(
            self.spool_dir, name, hub.connect)
        try:
            return client.push_spool(self.spool_dir / f"{name}.spool",
                                     progress_fn=progress_fn)
        finally:
            client.close()

    def operation(self, i: int, samples: dict) -> None:
        from repro.cluster import LeafUplink

        rec = self.rec
        half = len(self.node_names) // 2
        parts = {"leafA": self.node_names[:half],
                 "leafB": self.node_names[half:]}
        leaves = {name: self._hub(live=True) for name in parts}
        root = self._hub(live=False)
        pushed = {}

        def reader(hub):
            def on_progress(metrics):
                if metrics.frames_sent % self.snapshot_every_frames == 0:
                    t0 = time.perf_counter()
                    with rec.span("aggregator.snapshot"):
                        hub.aggregator.live_snapshot()
                    samples.setdefault("aggregator.snapshot", []).append(
                        time.perf_counter() - t0)
            return on_progress

        def to_profile():
            for leaf, names in parts.items():
                hub = leaves[leaf]
                with rec.span("wire.push"):
                    for name in names:
                        pushed[name] = self._push(hub, name, reader(hub))
                with rec.span("summary.build"):
                    final = hub.aggregator.run_summary(final=True)
                with rec.span("fanin.uplink"):
                    uplink = LeafUplink(leaf, root.connect)
                    delivered = uplink.finish(final, final.n_records)
                    uplink.close()
                _require(delivered, f"{leaf}: final summary not delivered")
            with rec.span("fanin.compose"):
                composed = root.aggregator.composed_summary()
                profile = composed.to_profile()
            with rec.span("report.render"):
                render_stdout_report(profile)
            return composed, profile

        def check(out) -> None:
            composed, profile = out
            _require(sum(pushed.values()) == self.records,
                     f"{sum(pushed.values())} of {self.records} records "
                     f"acked")
            _require(composed.content_digest() == self.single_digest,
                     "root-composed summary != single-root summary")
            diffs = compare_profiles(self.local_profile, profile)
            _require(not diffs, f"aggregated profile != local stream: "
                                f"{[d.message for d in diffs[:2]]}")

        composed, _profile = self._timed(samples, "time_to_profile",
                                         to_profile, check)
        wire = {}
        for hub in leaves.values():
            for key, value in hub.aggregator.metrics.to_dict().items():
                wire[key] = wire.get(key, 0) + value
        for key in ("frames_in", "bytes_in", "records_in", "dup_records",
                    "gap_resets", "reconnects", "errors"):
            rec.gauge(f"wire.{key}", wire[key])
        rec.gauge("fanin.summaries_in", root.aggregator.metrics.summaries_in)
        drained = {leaf: self.workdir / f"drained-{leaf}" for leaf in leaves}
        with rec.span("trace.save"):            # tempest serve --out
            for leaf, hub in leaves.items():
                hub.aggregator.save_bundle(drained[leaf])
        del leaves, root, _profile

        def check_drained() -> None:
            """The leaves saved every node's records as spooled."""
            saved = {}
            for leaf, path in drained.items():
                for name, trace in TraceBundle.load(path).nodes.items():
                    _require(name in parts[leaf] and name not in saved,
                             f"{leaf} saved node {name}")
                    saved[name] = trace.columns.array
            _require(sorted(saved) == sorted(self.spooled),
                     f"saved nodes {sorted(saved)}")
            for name, arr in self.spooled.items():
                _require(np.array_equal(saved[name], arr),
                         f"{name}: saved records differ from the spool")

        self.steps += 1
        self._verify("trace.save", check_drained)
        for path in drained.values():
            shutil.rmtree(path)

        self.offline(samples)
        # the untimed round trip of the same summary (its digest is
        # checked above on every operation): first and traced operations
        if self.doc is None or rec.enabled:
            self.doc = self.summary_roundtrip(composed)
        self.lab(str(i), samples, composed, self.doc,
                 RunSpec(**{**self.spec.to_dict(), "label": f"op{i}"}), {})
