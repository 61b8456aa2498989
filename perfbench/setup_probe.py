"""Cold-start probe: one fresh interpreter from nothing to ready-to-run.

Run as ``python setup_probe.py <workload> <seed>`` with ``src`` on
``PYTHONPATH``.  Imports the CLI and the workload's modules, builds what
a run needs before its first record (the simulated machine and session,
or the aggregators), then prints one JSON line and exits.  The parent
times the whole process up to that line.
"""

import sys
import time

t0 = time.perf_counter()
import repro.cli  # noqa: E402,F401

t_cli = time.perf_counter()


def _ready(workload: str, seed: int) -> None:
    if workload == "fanin-ingest":
        from repro.cluster import CollectorClient, LeafUplink, LoopbackHub  # noqa: F401
        from repro.core.streamprof import StreamingRunProfiler  # noqa: F401
        from repro.lab import CampaignStore, Laboratory  # noqa: F401

        hubs = [LoopbackHub(live=True) for _ in range(2)] + [LoopbackHub()]
        for hub in hubs[:2]:
            hub.registry.hcct_budget = 1024
            hub.aggregator  # noqa: B018 -- builds the run's aggregator
    else:
        from repro.core import TempestSession
        from repro.simmachine.machine import ClusterConfig, Machine
        from repro.workloads.npb import BENCHMARKS  # noqa: F401

        machine = Machine(ClusterConfig(n_nodes=4, seed=seed))
        TempestSession(machine)


_ready(sys.argv[1], int(sys.argv[2]))
print('{"import_s": %r, "scipy_loaded": %d}'
      % (t_cli - t0, int("scipy" in sys.modules)), flush=True)
