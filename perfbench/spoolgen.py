"""Seeded spool generator for the ``fanin-ingest`` workload.

Writes a finalized ``tempest-spool-v1`` directory (``header.json`` plus
one ``<node>.spool`` per node) without running the simulator, shaped
like the traces simulated NPB nodes produce:

* two worker ranks per node on cores 0 and 1 and a tempd process on
  the last core, as ``TempestSession`` places them;
* every core's TSC reads as the simulator's does
  (:meth:`repro.simmachine.core_.SimCore.tsc`), with the skew and drift
  of the same core of the same node of a simulated cluster drawn from a
  hardware seed — the cluster ``tempest npb`` builds by default.  The
  records merge into one stream by true time, so chunks are
  non-monotone as on the simulated multi-core nodes;
* tempd samples three sensors at 4 Hz, readings quantized to 1 degC as
  on the default simulated chips;
* a deep call tree over a few hundred functions whose children are
  drawn Zipf-skewed, so a handful of paths are hot and the number of
  distinct calling contexts per node far exceeds an HCCT budget of 1024.

Every stack is balanced, so the spools parse strictly.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np

from repro.core.records import RECORD_DTYPE
from repro.core.spool import TraceSpool, write_spool_header
from repro.core.symtab import SymbolTable
from repro.core.trace import REC_ENTER, REC_EXIT, REC_TEMP
from repro.simmachine.machine import ClusterConfig, Machine

SAMPLING_HZ = 4.0
SENSORS = ["CPU0 Temp", "CPU1 Temp", "M/B Temp"]
#: simulated seconds the machine has been up when the trace starts, so
#: that a negative skew never takes a counter below zero
BOOT_S = 1.0
N_FUNCTIONS = 240
FANOUT = 6
MAX_DEPTH = 9
#: mean simulated seconds between two hook events of one rank
MEAN_STEP_S = 4e-4
WORKER_CORES = (0, 1)


def _call_graph(rng: random.Random) -> list[list[int]]:
    """Each function's callees, hottest first (index 0 is ``main``)."""
    return [rng.sample(range(1, N_FUNCTIONS), FANOUT)
            for _ in range(N_FUNCTIONS)]


def _rank_events(rng: random.Random, graph, n_events: int, t0: float):
    """(times, kinds, fids) of one rank's balanced ENTER/EXIT stream."""
    weights = [1.0 / (k + 1) ** 1.2 for k in range(FANOUT)]
    times, kinds, fids = [], [], []
    stack = [0]
    t = t0
    times.append(t)
    kinds.append(REC_ENTER)
    fids.append(0)
    while len(times) < n_events - len(stack):
        t += rng.expovariate(1.0 / MEAN_STEP_S)
        depth = len(stack)
        if depth == 1 or (depth < MAX_DEPTH and rng.random() < 0.52):
            fid = rng.choices(graph[stack[-1]], weights)[0]
            stack.append(fid)
            kinds.append(REC_ENTER)
        else:
            fid = stack.pop()
            kinds.append(REC_EXIT)
        times.append(t)
        fids.append(fid)
    while stack:
        t += rng.expovariate(1.0 / MEAN_STEP_S)
        times.append(t)
        kinds.append(REC_EXIT)
        fids.append(stack.pop())
    return times, kinds, fids


def _tsc(core, t: np.ndarray) -> np.ndarray:
    """``SimCore.tsc`` over an array of simulated times."""
    spec = core.tsc_spec
    rate = core.nominal_freq_hz * (1.0 + spec.drift_ppm * 1e-6)
    return (rate * t).astype(np.int64) + spec.skew_cycles


def _node_records(rng: random.Random, graph, addrs: np.ndarray,
                  records: int, node_index: int, cores) -> np.ndarray:
    per_rank = records // len(WORKER_CORES)
    parts = []
    end = 0.0
    for r, core in enumerate(WORKER_CORES):
        times, kinds, fids = _rank_events(rng, graph, per_rank,
                                          t0=BOOT_S + 1e-3 * (r + 1))
        arr = np.zeros(len(times), dtype=RECORD_DTYPE)
        t = np.asarray(times)
        arr["kind"] = kinds
        arr["addr"] = addrs[np.asarray(fids)]
        arr["tsc"] = _tsc(cores[core], t)
        arr["core"] = core
        arr["pid"] = 1 + node_index * 8 + r
        parts.append((t, arr))
        end = max(end, float(t[-1]))
    # tempd: one sweep of every sensor per sampling period
    grid = np.arange(BOOT_S, end, 1.0 / SAMPLING_HZ)
    base = 38.0 + 4.0 * rng.random()
    temp = np.zeros(len(grid) * len(SENSORS), dtype=RECORD_DTYPE)
    tt = np.repeat(grid, len(SENSORS))
    temp["kind"] = REC_TEMP
    temp["addr"] = np.tile(np.arange(len(SENSORS)), len(grid))
    temp["tsc"] = _tsc(cores[-1], tt)
    temp["core"] = len(cores) - 1
    temp["pid"] = 1 + node_index * 8 + 7
    drift = np.array([rng.gauss(0.0, 1.5) for _ in range(len(temp))])
    offset = np.tile(np.array([0.0, -1.0, -9.0]), len(grid))
    temp["value"] = np.round(base + offset + 3.0 * np.sin(tt / 5.0) + drift)
    parts.append((tt, temp))
    times = np.concatenate([p[0] for p in parts])
    arr = np.concatenate([p[1] for p in parts])
    return arr[np.argsort(times, kind="stable")]


def generate_spools(directory, *, seed: int, n_nodes: int,
                    records_per_node: int, hardware_seed: int) -> dict:
    """Write a finalized spool directory; returns its shape.

    ``seed`` draws the records; node *i*'s cores take their TSC skew and
    drift from node *i* of the simulated cluster drawn from
    ``hardware_seed``.  The same seeds write byte-identical spools.
    """
    directory = Path(directory)
    machine = Machine(ClusterConfig(n_nodes=n_nodes, seed=hardware_seed))
    rng = random.Random(seed)
    graph = _call_graph(rng)
    symtab = SymbolTable()
    names = ["main"] + [f"fn_{i:03d}" for i in range(1, N_FUNCTIONS)]
    addrs = np.array([symtab.address_of(n) for n in names], dtype=np.int64)
    nodes = {}
    total = 0
    for i, node in enumerate(machine.nodes.values()):
        name = f"node{i + 1:02d}"
        arr = _node_records(rng, graph, addrs, records_per_node, i,
                            node.cores)
        with TraceSpool(directory / f"{name}.spool") as spool:
            spool.write_array(arr)
        nodes[name] = {"tsc_hz": node.cores[0].nominal_freq_hz,
                       "sensor_names": list(SENSORS)}
        total += len(arr)
    write_spool_header(directory, symtab, nodes,
                       {"sampling_hz": SAMPLING_HZ, "seed": seed,
                        "nodes": sorted(nodes)})
    return {"nodes": sorted(nodes), "records": total}
