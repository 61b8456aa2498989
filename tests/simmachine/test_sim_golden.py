"""Golden bit-identity digests for the simulated run.

Every optimisation of the simulator, the MPI layer and the record sink
must leave what Tempest observes unchanged to the bit.  Each case runs
one NPB code and pins the sha256 of

* the trace bytes (every node's records in ``<Bqqiid`` layout, in node
  order; the spool files too on the spooled case),
* ``repr(session.last_workload_end)`` (kept verbatim) — the simulated
  end time, as the §3.4 overhead comparison reads it,
* the rendered stdout report.

The cases cover CG, LU and FT class S on the default four-node cluster,
traced and untraced, plus a spooled and a fault-injected run, and a
single 4-socket Opteron node at a fan speed where ``np.linalg.eig``
returns a complex modal basis for the thermal network, so the complex
branch of :meth:`LTISystem.advance` is pinned as well.

A digest that moves means some float bit, record or event order moved.
Do not re-record the table to make a change pass: find the change that
moved it.

The bits depend on the numpy build (BLAS/LAPACK kernels) and on
CPython's float ``sum``, so the table holds for the environment in
:data:`GOLDEN_ENV` only; elsewhere the digest tests skip with the reason.
"""

from __future__ import annotations

import hashlib
import platform
import sys

import numpy as np
import pytest

from repro.core import TempestSession, render_stdout_report
from repro.simmachine.machine import ClusterConfig, Machine
from repro.simmachine.platforms import opteron_node
from repro.workloads.npb import BENCHMARKS, cg, ft, lu

CONFIGS = {
    "CG": lambda klass: cg.CGConfig(klass=klass),
    "LU": lambda klass: lu.LUConfig(klass=klass),
    "FT": lambda klass: ft.FTConfig(klass=klass),
}

#: a fan speed at which the 4-socket network's eigenbasis is complex
#: (imaginary parts ~1e-17); see ``test_opteron_case_uses_complex_basis``
OPTERON_RPM = 3820.0

#: case -> (bench, klass, traced, variant)
CASES = {
    "cg-S-traced": ("CG", "S", True, None),
    "cg-S-untraced": ("CG", "S", False, None),
    "cg-S-spooled": ("CG", "S", True, "spool"),
    "lu-S-traced": ("LU", "S", True, None),
    "lu-S-untraced": ("LU", "S", False, None),
    "lu-S-faulted": ("LU", "S", True, "fault"),
    "ft-S-traced": ("FT", "S", True, None),
    "ft-S-untraced": ("FT", "S", False, None),
    "opteron4-lu-W-traced": ("LU", "W", True, "opteron"),
    "opteron4-lu-W-untraced": ("LU", "W", False, "opteron"),
}

#: where GOLDEN was recorded: numpy version, CPython minor, machine
GOLDEN_ENV = ("2.4.6", "3.11", "x86_64")

GOLDEN = {
    'cg-S-spooled': {
        'trace': '45232bee12b310e85723082a96629ee5194c8923eb472e94ec4fd54251289ee0',
        'end': '0.14472513758621056',
        'report': '23762a1fc486164c2a657e560ac48959a807384b7a6097d2376c2a9e44e4d44b',
    },
    'cg-S-traced': {
        'trace': '260af5a28ade05b4440da8b5a23a602a06765a4c914e42503f777a9db214ebe2',
        'end': '0.14472513758621056',
        'report': '23762a1fc486164c2a657e560ac48959a807384b7a6097d2376c2a9e44e4d44b',
    },
    'cg-S-untraced': {
        'trace': '169f280ae44d4ab55fd5846b0aadea9ff4f02849b8760a1973d756f299a82b51',
        'end': '0.1446546675862119',
        'report': '0f93be1b6e7758a5eee806752929226fbbb47b4e429451f8ad7d9b81fc52cb31',
    },
    'ft-S-traced': {
        'trace': '93988033de1f087246a113440a3bb2bd7bd7ec49714357fd817da686d0d33d31',
        'end': '0.06894606143842369',
        'report': 'b8dc9fa2b973bb8f6ff92ee669067ccc52c86df8d95f52de7b882a2870447b50',
    },
    'ft-S-untraced': {
        'trace': '169f280ae44d4ab55fd5846b0aadea9ff4f02849b8760a1973d756f299a82b51',
        'end': '0.06893706143842368',
        'report': '0f93be1b6e7758a5eee806752929226fbbb47b4e429451f8ad7d9b81fc52cb31',
    },
    'lu-S-faulted': {
        'trace': '2139aa04b8d821267e274efc81d620c77af16ab3070a8fded65c2702dbca1a07',
        'end': '0.06852311315270984',
        'report': '91e75bc2c45cc9823cad6fde93ac49ece12cd5a1e04a5bc25b9d016138c9d818',
    },
    'lu-S-traced': {
        'trace': '07d1a5a55378d45ff35211e19099ca7dd4b0287333c9ed22696c8440e6a9f590',
        'end': '0.06852311315270984',
        'report': '8f47e0c24983df73e9585152c1a39818da792953d9b81deeda709532e041f886',
    },
    'lu-S-untraced': {
        'trace': '169f280ae44d4ab55fd5846b0aadea9ff4f02849b8760a1973d756f299a82b51',
        'end': '0.06845120315270933',
        'report': '0f93be1b6e7758a5eee806752929226fbbb47b4e429451f8ad7d9b81fc52cb31',
    },
    'opteron4-lu-W-traced': {
        'trace': '8b157a1ba5dfe1231da144b124b3421fbdd9bec4250901ea3f0eb31459d7bc8a',
        'end': '7.259206283272084',
        'report': '7c676c73f04667a5ec8bbde07098ad001243bc33121acc7ab04137a5682b2a40',
    },
    'opteron4-lu-W-untraced': {
        'trace': 'ca12f31b8cbf5f29e268ea64c20a37f3d50b539d891db0c3ebc7c0f66b1fb98a',
        'end': '7.25877437327228',
        'report': '9bb7ecdf12724611e37f90b4c1dcc87a9d653c22eed630575b5f5313ba255d50',
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _machine(variant) -> Machine:
    if variant == "opteron":
        return Machine(ClusterConfig(node_configs=[
            opteron_node("node1", n_sockets=4, fan_rpm=OPTERON_RPM)]))
    return Machine(ClusterConfig(n_nodes=4, seed=1234))


def run_case(name: str, tmp_path) -> dict[str, str]:
    """Run one case and return its three digests."""
    bench, klass, traced, variant = CASES[name]
    machine = _machine(variant)
    kwargs = {}
    if variant == "spool":
        kwargs["spool_dir"] = tmp_path / "spools"
    if variant == "fault":
        from repro.faults import FaultInjector

        kwargs["injector"] = FaultInjector.from_spec(
            "nodes=node1,sweep_failure_rate=0.35,record_loss_rate=0.1", 99,
            machine.node_names())
    session = TempestSession(machine, enabled=traced, **kwargs)
    config = CONFIGS[bench](klass)
    session.run_mpi(lambda ctx: BENCHMARKS[bench](ctx, config), 4,
                    name=f"{bench}.{klass}.4")
    bundle = session.collect()
    trace = hashlib.sha256()
    for node, t in bundle.nodes.items():
        trace.update(node.encode())
        trace.update(t.columns.to_bytes())
    if variant == "spool":
        for path in sorted((tmp_path / "spools").iterdir()):
            trace.update(path.name.encode())
            trace.update(path.read_bytes())
    report = render_stdout_report(session.profile(strict=variant != "fault"))
    return {
        "trace": trace.hexdigest(),
        "end": repr(session.last_workload_end),
        "report": _sha(report.encode()),
    }


def _environment() -> tuple[str, str, str]:
    return (np.__version__, "%d.%d" % sys.version_info[:2],
            platform.machine())


requires_golden_env = pytest.mark.skipif(
    _environment() != GOLDEN_ENV,
    reason=f"golden digests recorded on numpy/CPython/machine {GOLDEN_ENV}, "
           f"running on {_environment()}")


@requires_golden_env
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]


@requires_golden_env
def test_opteron_case_uses_complex_basis():
    """The opteron case pins the complex-eigenbasis branch of the LTI
    advance; if a LAPACK change made the basis real here, pick another
    fan speed."""
    node = _machine("opteron").nodes["node1"]
    assert node.thermal._system._w.dtype.kind == "c"
    assert _machine(None).nodes["node1"].thermal._system._w.dtype.kind == "f"


if __name__ == "__main__":      # print the table, for a deliberate re-record
    import tempfile
    from pathlib import Path

    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            digests = run_case(name, Path(tmp))
        print(f"    {name!r}: {{")
        for key, value in digests.items():
            print(f"        {key!r}: {value!r},")
        print("    },")
