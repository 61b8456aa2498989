"""Activity-driven power model.

Socket power is the classic CMOS decomposition::

    P_socket = P_uncore + leak0                     (constant)
             + sum_cores activity * c_dyn * f * V^2  (dynamic)

with the *temperature-dependent* part of leakage handled inside the thermal
network (folded into the state matrix so the event-to-event advance stays
exact).  ``activity`` in [0, 1] is the architectural activity factor of the
phase the core is executing: a CPU-burn loop approaches 1.0, memory-bound
code sits near 0.5, an MPI busy-wait polls at ~0.2, and an idle core draws
only clock-gating residue.

Per-node manufacturing variation multiplies ``c_dyn`` — fast/leaky parts run
hotter under the same load, one of the two mechanisms (with airflow) behind
the paper's node-to-node thermal spread.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.util.errors import ConfigError


@dataclass(frozen=True)
class OperatingPoint:
    """A DVFS operating point (frequency + voltage pair)."""

    freq_hz: float
    voltage: float

    def __post_init__(self):
        if self.freq_hz <= 0 or self.voltage <= 0:
            raise ConfigError(f"invalid operating point {self}")


#: Operating points approximating a 1.8 GHz Opteron with PowerNow! states.
DEFAULT_OPPS: tuple[OperatingPoint, ...] = (
    OperatingPoint(1.8e9, 1.35),
    OperatingPoint(1.4e9, 1.20),
    OperatingPoint(1.0e9, 1.10),
)

#: Canonical activity factors used by the workload layer.
ACTIVITY_BURN = 1.0        # tight arithmetic loop (CPU burn)
ACTIVITY_COMPUTE = 0.82    # dense FP kernels (FFT, solver sweeps)
ACTIVITY_MEMORY = 0.50     # memory-bandwidth bound phases
ACTIVITY_COMM = 0.20       # MPI progress engine busy-poll
ACTIVITY_IDLE = 0.04       # halted core, clock-gating residue


@dataclass(frozen=True)
class PowerParams:
    """Parameters of the socket power model (SI units)."""

    c_dyn: float = 1.05e-8    # effective switched capacitance, W / (Hz * V^2)
    p_uncore: float = 7.0     # W, per-socket uncore/northbridge
    leak0: float = 9.0        # W, per-socket leakage at reference temperature
    speed_grade: float = 1.0  # manufacturing multiplier on c_dyn

    def with_variation(self, *, speed_grade: Optional[float] = None) -> "PowerParams":
        """Return a copy with per-node variation applied."""
        if speed_grade is None:
            return self
        return replace(self, speed_grade=speed_grade)


class PowerModel:
    """Computes socket power from per-core activities and operating points."""

    def __init__(self, params: PowerParams = PowerParams()):
        self.params = params

    def core_dynamic_power(self, activity: float, opp: OperatingPoint) -> float:
        """Dynamic power (W) of one core at the given activity and DVFS point."""
        if not 0.0 <= activity <= 1.0:
            raise ConfigError(f"activity must be in [0,1], got {activity}")
        p = self.params
        return activity * p.c_dyn * p.speed_grade * opp.freq_hz * opp.voltage**2

    def socket_power(
        self,
        activities: Sequence[float],
        opps: Sequence[OperatingPoint],
    ) -> float:
        """Total socket power (W) given each core's activity and OPP."""
        if len(activities) != len(opps):
            raise ConfigError("activities and opps must be the same length")
        p = self.params
        dyn = sum(self.core_dynamic_power(a, o) for a, o in zip(activities, opps))
        return p.p_uncore + p.leak0 + dyn

    def cores_socket_power(self, cores) -> float:
        """:meth:`socket_power` of objects carrying ``activity`` and
        ``opp`` (the simulator's cores), without building the two lists.

        Same terms summed in the same order by the same ``sum``, so the
        result is bit-identical to :meth:`socket_power`.
        """
        p = self.params
        dyn = sum([self.core_dynamic_power(c.activity, c.opp) for c in cores])
        return p.p_uncore + p.leak0 + dyn

    def peak_socket_power(self, n_cores: int, opp: OperatingPoint) -> float:
        """Socket power with every core at activity 1.0 (for sizing checks)."""
        return self.socket_power([1.0] * n_cores, [opp] * n_cores)
