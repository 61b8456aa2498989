"""Tests of the benchmark itself (not of Tempest).

    python3 -m pytest perfbench/test_perfbench.py -q

The last four run the benchmark for real (two operations each, 15-25 s
per run) on the NPB workloads.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402
import spoolgen  # noqa: E402
from repro.core.trace import REC_TEMP  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _names(key: str) -> list[str]:
    return [m["name"] for m in BENCH[key]]


def test_catalogue_matches_benchmark_json():
    assert _names("end_to_end") == [n for n, _ in run.END_TO_END]
    assert _names("per_layer") == [n for n, _ in run.PER_LAYER]
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]
             + BENCH["per_layer"]}
    assert units == dict(run.END_TO_END + run.PER_LAYER)
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


def test_fallback_counters_cover_every_reason():
    from repro.core.streamprof import FALLBACK_REASONS

    assert set(run.FALLBACKS) == set(FALLBACK_REASONS)


def test_names_and_units_use_the_allowed_characters():
    names = (_names("end_to_end") + _names("per_layer")
             + [w["name"] for w in BENCH["workloads"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.match(metric["unit"]), metric


def _spools(path, seed: int) -> dict:
    return spoolgen.generate_spools(path, seed=seed, n_nodes=2,
                                    records_per_node=2_000,
                                    hardware_seed=pipeline.HARDWARE_SEED)


def test_spools_follow_the_seed(tmp_path):
    a = _spools(tmp_path / "a", 7)
    b = _spools(tmp_path / "b", 7)
    c = _spools(tmp_path / "c", 8)
    assert a == b == c          # same shape whatever the seed
    spool = "node01.spool"
    same = (tmp_path / "a" / spool).read_bytes()
    assert same == (tmp_path / "b" / spool).read_bytes()
    assert same != (tmp_path / "c" / spool).read_bytes()


def test_spool_tsc_follows_the_simulated_cores(tmp_path):
    """Each core's counter reads as ``SimCore.tsc`` of the same core of
    the simulated cluster: tempd's first sweeps carry the last core's
    counter at the generator's grid times."""
    from repro.core.spool import spool_to_bundle
    from repro.simmachine.machine import ClusterConfig, Machine

    _spools(tmp_path / "s", 7)
    machine = Machine(ClusterConfig(n_nodes=2,
                                    seed=pipeline.HARDWARE_SEED))
    bundle = spool_to_bundle(tmp_path / "s")
    for (name, trace), node in zip(sorted(bundle.nodes.items()),
                                   machine.nodes.values()):
        arr = trace.columns.array
        temp = arr[arr["kind"] == REC_TEMP]
        core = node.cores[int(temp["core"][0])]
        # tempd sweeps on a 1/SAMPLING_HZ grid starting at BOOT_S
        t = spoolgen.BOOT_S + np.arange(2) / spoolgen.SAMPLING_HZ
        expected = [core.tsc(x) for x in t]
        sweeps = np.unique(temp["tsc"])[:2]
        assert list(sweeps) == expected, name
        assert np.any(np.diff(arr["tsc"]) < 0), name   # non-monotone


def _bench(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


@pytest.fixture(scope="module")
def untraced_runs():
    return {seed: _bench("npb-bt-deep", seed, 0) for seed in (1, 2)}


def test_printed_end_to_end_metrics_match(untraced_runs):
    result, stdout = untraced_runs[1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == _names("end_to_end")
    for name, unit in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert re.search(rf"^  {re.escape(name)} .* {re.escape(unit)}$",
                         stdout, re.M), name


def _npb_records(seed: int, tmp_path) -> bytes:
    """Raw records of a small run on the NPB workloads' machine."""
    from pipeline import NpbPipeline
    from repro.core import TempestSession
    from repro.workloads.npb import BENCHMARKS, ep

    machine = NpbPipeline("BT", 4, 4, seed, tmp_path, None).machine()
    session = TempestSession(machine)
    config = ep.EPConfig(klass="S")
    session.run_mpi(lambda ctx: BENCHMARKS["EP"](ctx, config), 4)
    return b"".join(t.columns.array.tobytes()
                    for t in session.collect().nodes.values())


def test_other_seed_other_inputs_same_metrics(untraced_runs, tmp_path):
    (one, _), (two, _) = untraced_runs[1], untraced_runs[2]
    assert list(one["metrics"]) == list(two["metrics"])
    first = _npb_records(1, tmp_path)
    assert first == _npb_records(1, tmp_path)
    assert first != _npb_records(2, tmp_path)


@pytest.mark.xfail(strict=True, reason=(
    "the streaming P2 median sits more than the documented 0.5 degC from "
    "the exact median on BT's time-ordered node, so TL018 fails there"))
def test_bt_streaming_profile_matches_batch(untraced_runs):
    result, _ = untraced_runs[1]
    assert result["correct"] and result["failed"] == 0


def test_printed_per_layer_metrics_match():
    result, _ = _bench("npb-cg-comm", 3, 1)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == _names("per_layer")
