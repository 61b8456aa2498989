"""NPB CG: conjugate-gradient eigenvalue estimation.

Outer iterations each run a fixed 25-step CG solve on a random sparse
symmetric positive-definite matrix, then update the shifted-power-method
eigenvalue estimate ``zeta``.  The distributed form row-partitions the
matrix: every inner matvec needs the full vector, so each step performs an
allgather — CG's thermal signature is a fast alternation of short hot
matvec bursts and short cool exchanges, unlike FT's long phases.

Real-data mode runs genuine numerics on a reduced matrix (scipy.sparse) and
the tests verify that the CG residual drops and ``zeta`` approaches the
oracle eigenvalue from a dense solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.instrument import instrument
from repro.util.errors import ConfigError
from repro.workloads.kernels import DEFAULT_RATE, MachineRate, flop_phase, memory_phase
from repro.workloads.npb.classes import CG_CLASSES, CGClass, lookup

#: NPB CG's fixed inner iteration count
CGITMAX = 25


@dataclass(frozen=True)
class CGConfig:
    """CG run configuration."""

    klass: str = "C"
    niter: Optional[int] = None
    real_data: bool = False
    data_n: int = 256          # reduced matrix order for real mode
    rate: MachineRate = DEFAULT_RATE
    seed: int = 161803

    def resolve(self) -> CGClass:
        entry = lookup(CG_CLASSES, self.klass)
        if self.niter is not None:
            from repro.workloads.npb.classes import scaled
            entry = scaled(entry, self.niter)
        return entry


def make_test_matrix(n: int, seed: int):
    """SPD test matrix with a controlled spectrum (the reduced-scale stand-in
    for makea).

    NPB's generator produces a matrix whose eigenvalues are geometrically
    distributed so the shifted power iteration converges in few outer
    iterations; we reproduce that property directly: lambda_min = 0.1 well
    separated from the rest of the spectrum in [1, 2].
    """
    # only real-data mode needs scipy; importing it here keeps it off the
    # cold start of every ``tempest npb`` run
    import scipy.sparse as sp

    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.concatenate([[0.1], np.linspace(1.0, 2.0, n - 1)])
    dense = (q * eigs) @ q.T
    dense = (dense + dense.T) * 0.5  # symmetrize away round-off
    return sp.csr_matrix(dense)


class _CGState:
    def __init__(self, ctx, config: CGConfig):
        self.ctx = ctx
        self.config = config
        self.klass = config.resolve()
        self.P = ctx.size
        self.rows_local = self.klass.na / self.P
        self.nnz_local = self.klass.nnz_estimate / self.P
        self.vec_block_bytes = int(8 * self.rows_local)
        self.zetas: list[float] = []
        self.residuals: list[float] = []
        # Real-data fields (row partition of the reduced matrix).
        self.A = None
        self.lo = self.hi = 0
        self.x = None

    def setup_real(self):
        n = self.config.data_n
        if n % self.P:
            raise ConfigError(f"data_n {n} must divide by ranks {self.P}")
        self.A = make_test_matrix(n, self.config.seed)
        chunk = n // self.P
        self.lo = self.ctx.rank * chunk
        self.hi = self.lo + chunk
        self.x = np.ones(n)


@instrument(name="makea")
def _makea(ctx, st: _CGState):
    yield memory_phase(12.0 * st.nnz_local, st.config.rate)
    if st.config.real_data:
        st.setup_real()


@instrument(name="sparse_matvec")
def _sparse_matvec(ctx, st: _CGState, p_full=None):
    """One distributed A @ p: allgather the vector, multiply local rows."""
    gathered = yield from ctx.comm.allgather(
        None if p_full is None else p_full[st.lo:st.hi],
        nbytes=st.vec_block_bytes,
    )
    yield flop_phase(2.0 * st.nnz_local, st.config.rate)
    if p_full is not None:
        full = np.concatenate(gathered)
        return np.asarray(st.A[st.lo:st.hi] @ full)
    return None


@instrument(name="conj_grad")
def _conj_grad(ctx, st: _CGState):
    """25 CG iterations; returns (z, final residual norm) in real mode."""
    real = st.config.real_data
    if real:
        x = st.x
        z = np.zeros_like(x)
        r = x.copy()
        p = r.copy()
        rho = float(r @ r)
    for _ in range(CGITMAX):
        q_local = yield from _sparse_matvec(ctx, st, p if real else None)
        # Two dot products + three axpys per iteration.
        yield flop_phase(8.0 * st.rows_local, st.config.rate)
        local_dot = float(p[st.lo:st.hi] @ q_local) if real else 0.0
        d = yield from ctx.comm.allreduce(local_dot, nbytes=8)
        if real:
            alpha = rho / d
            z = z + alpha * p
            # Recompute q over the full vector (each rank keeps the full
            # iterate for the reduced-scale oracle comparison).
            q_full_parts = yield from ctx.comm.allgather(
                q_local, nbytes=st.vec_block_bytes
            )
            q = np.concatenate(q_full_parts)
            r = r - alpha * q
            rho_new = float(r @ r)
            beta = rho_new / rho
            rho = rho_new
            p = r + beta * p
        else:
            yield from ctx.comm.allreduce(0.0, nbytes=8)  # rho reduction
    if real:
        resid = float(np.linalg.norm(st.x - np.asarray(st.A @ z)))
        return z, resid
    return None, 0.0


@instrument(name="main")
def cg_benchmark(ctx, config: CGConfig = CGConfig()):
    """One rank of CG; returns (zetas, residuals) lists (real mode)."""
    st = _CGState(ctx, config)
    yield from _makea(ctx, st)
    yield from ctx.comm.barrier()
    for _ in range(st.klass.niter):
        z, resid = yield from _conj_grad(ctx, st)
        yield flop_phase(4.0 * st.rows_local, st.config.rate)
        if st.config.real_data:
            norm_local = float(z[st.lo:st.hi] @ z[st.lo:st.hi])
            xz_local = float(st.x[st.lo:st.hi] @ z[st.lo:st.hi])
        else:
            norm_local = xz_local = 0.0
        norm = yield from ctx.comm.allreduce(norm_local, nbytes=8)
        xz = yield from ctx.comm.allreduce(xz_local, nbytes=8)
        if st.config.real_data and norm > 0:
            zeta = st.klass.shift + 1.0 / xz if xz != 0 else float("nan")
            st.zetas.append(zeta)
            st.residuals.append(resid)
            st.x = z / np.sqrt(norm)
    return st.zetas, st.residuals


def reference_smallest_shifted_eigenvalue(config: CGConfig) -> float:
    """Oracle for real mode: shift + 1/lambda_max(A^{-1}) via dense eigh
    matches what zeta converges to for the power iteration on A^{-1}."""
    A = make_test_matrix(config.data_n, config.seed).toarray()
    eigvals = np.linalg.eigvalsh(A)
    return config.resolve().shift + float(eigvals.min())
