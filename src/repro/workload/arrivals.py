"""Open-loop arrival processes: when do requests *arrive*?

The closed-loop :class:`~repro.workload.client.ClientPool` self-throttles
— each thread waits for its previous operation, so offered load collapses
to whatever the system sustains and saturation is invisible.  Real fleets
see the opposite: traffic arrives on its own clock, independent of
service times, and a checkpoint storm under a burst either sheds load
gracefully or collapses.  This module generates those arrival clocks.

Two processes:

* ``poisson`` — memoryless arrivals at the scheduled rate, the classic
  open-loop reference.  Non-constant rate schedules are realised by
  *thinning*: candidates are drawn at the schedule's peak rate and kept
  with probability ``rate(t) / peak``, which is exact for any bounded
  rate function.
* ``bursts`` — burst *centers* arrive as a (thinned) Poisson process and
  each center carries a bounded-Pareto burst of back-to-back operations,
  giving the heavy-tailed clumping measured in production KV front ends.
  The center rate is scaled by the mean burst size so the long-run
  offered rate still matches ``rate_ops_per_sec``.

Three rate schedules: ``constant``, ``diurnal`` (sinusoidal swing, the
day/night cycle scaled into simulated milliseconds) and ``flash-crowd``
(a rectangular rate spike, the "everyone refreshes at once" event).

Everything is a pure function of ``(spec, rng)`` with the rng a
:class:`~repro.common.rng.SeededRng` fork, so same-seed runs produce
byte-identical arrival streams (property-tested in
``tests/test_arrivals.py``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.common.units import MS, SEC
from repro.common.rng import SeededRng

ARRIVAL_PROCESSES = ("poisson", "bursts")
RATE_SCHEDULES = ("constant", "diurnal", "flash-crowd")

DIURNAL_PERIOD_NS = 40 * MS
"""One full day/night cycle of the diurnal schedule, scaled into
simulated time."""

BURST_SHAPE = 1.4
"""Bounded-Pareto tail index of burst sizes; smaller = heavier tail."""

BURST_GAP_NS = 5_000
"""Intra-burst inter-arrival gap (back-to-back requests)."""


@dataclass(frozen=True)
class ArrivalSpec:
    """One tenant's open-loop traffic shape (frozen, hashable)."""

    rate_ops_per_sec: float = 50_000.0
    """Long-run mean offered load, operations per simulated second."""

    process: str = "poisson"
    """``poisson`` or ``bursts`` (bounded-Pareto burst sizes)."""

    schedule: str = "constant"
    """``constant``, ``diurnal`` or ``flash-crowd``."""

    # --- diurnal schedule ---------------------------------------------
    diurnal_amplitude: float = 0.6
    """Rate swings between ``(1 - a)`` and ``(1 + a)`` times the base."""

    # --- flash-crowd schedule -----------------------------------------
    crowd_start_ns: int = 10 * MS
    crowd_duration_ns: int = 10 * MS
    crowd_multiplier: float = 4.0
    """Rate inside the crowd window, as a multiple of the base rate."""

    # --- burst process -------------------------------------------------
    burst_min_ops: int = 4
    burst_max_ops: int = 64

    def __post_init__(self) -> None:
        if self.process not in ARRIVAL_PROCESSES:
            raise ConfigError(f"arrival process must be one of "
                              f"{ARRIVAL_PROCESSES}, got {self.process!r}")
        if self.schedule not in RATE_SCHEDULES:
            raise ConfigError(f"rate schedule must be one of "
                              f"{RATE_SCHEDULES}, got {self.schedule!r}")
        if self.rate_ops_per_sec <= 0.0:
            raise ConfigError("rate_ops_per_sec must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ConfigError("diurnal_amplitude must be in [0, 1)")
        if self.crowd_duration_ns < 0:
            raise ConfigError("crowd_duration_ns must be >= 0")
        if self.crowd_multiplier < 1.0:
            raise ConfigError("crowd_multiplier must be >= 1")
        if not 1 <= self.burst_min_ops <= self.burst_max_ops:
            raise ConfigError("need 1 <= burst_min_ops <= burst_max_ops")

    # ------------------------------------------------------------------
    def rate_at(self, t_ns: float) -> float:
        """Instantaneous offered rate (ops/s) at simulated time ``t_ns``."""
        base = self.rate_ops_per_sec
        if self.schedule == "diurnal":
            phase = 2.0 * math.pi * (t_ns % DIURNAL_PERIOD_NS) \
                / DIURNAL_PERIOD_NS
            return base * (1.0 + self.diurnal_amplitude * math.sin(phase))
        if self.schedule == "flash-crowd":
            inside = self.crowd_start_ns <= t_ns \
                < self.crowd_start_ns + self.crowd_duration_ns
            return base * self.crowd_multiplier if inside else base
        return base

    def peak_rate(self) -> float:
        """Upper bound of the rate schedule (the thinning envelope)."""
        base = self.rate_ops_per_sec
        if self.schedule == "diurnal":
            return base * (1.0 + self.diurnal_amplitude)
        if self.schedule == "flash-crowd":
            return base * self.crowd_multiplier
        return base

    def mean_burst_ops(self) -> float:
        """Expected bounded-Pareto burst size (1.0 for ``poisson``)."""
        if self.process != "bursts":
            return 1.0
        low, high, alpha = (float(self.burst_min_ops),
                            float(self.burst_max_ops), BURST_SHAPE)
        if low == high:
            return low
        if abs(alpha - 1.0) < 1e-9:
            return low * high / (high - low) * math.log(high / low)
        la, ha = low ** alpha, high ** alpha
        return (la / (1.0 - (low / high) ** alpha)) * \
            (alpha / (alpha - 1.0)) * \
            (low ** (1.0 - alpha) - high ** (1.0 - alpha))


def bounded_pareto(rng: SeededRng, alpha: float, low: int, high: int) -> int:
    """One bounded-Pareto draw in ``[low, high]`` (inverse CDF)."""
    if low >= high:
        return low
    u = rng.random()
    la, ha = float(low) ** alpha, float(high) ** alpha
    x = (-(u * ha - u * la - ha) / (ha * la)) ** (-1.0 / alpha)
    return max(low, min(high, int(x)))


def arrival_times(spec: ArrivalSpec, rng: SeededRng,
                  count: int) -> List[int]:
    """Exactly ``count`` non-decreasing integer-ns arrival instants.

    A pure function of ``(spec, rng state, count)``: forking the same
    seed lineage reproduces the identical list byte for byte.
    """
    if count < 1:
        raise ConfigError("arrival count must be >= 1")
    peak = spec.peak_rate()
    lam = peak / SEC  # arrivals per nanosecond at the envelope rate
    constant = spec.schedule == "constant"
    t = 0.0
    if spec.process == "poisson":
        times: List[int] = []
        while len(times) < count:
            t += rng.expovariate(lam)
            # Thinning: keep a candidate with probability rate(t)/peak.
            if not constant and rng.random() * peak > spec.rate_at(t):
                continue
            times.append(int(t))
        return times
    # bursts: centers are a thinned Poisson process at rate/mean_size,
    # each carrying a bounded-Pareto clump of back-to-back arrivals.
    center_lam = lam / spec.mean_burst_ops()
    raw: List[int] = []
    while len(raw) < count:
        t += rng.expovariate(center_lam)
        if not constant and rng.random() * peak > spec.rate_at(t):
            continue
        size = bounded_pareto(rng, BURST_SHAPE,
                              spec.burst_min_ops, spec.burst_max_ops)
        start = int(t)
        raw.extend(start + i * BURST_GAP_NS for i in range(size))
    # Long bursts can overlap the next center; restore global time order
    # before truncating to the requested budget.
    raw.sort()
    return raw[:count]


def merge_streams(streams: Sequence[Sequence[int]]
                  ) -> List[Tuple[int, int]]:
    """Fan per-tenant arrival streams into one ``(t_ns, tenant)`` feed.

    Each input stream must be non-decreasing (as produced by
    :func:`arrival_times`); the merge is time-ordered with ties broken
    by tenant index, so the fan-in is deterministic.
    """
    tagged = []
    for tenant, stream in enumerate(streams):
        previous = 0
        for t in stream:
            if t < previous:
                raise ConfigError(
                    f"stream {tenant} is not time-ordered at t={t}")
            previous = t
        tagged.append([(t, tenant) for t in stream])
    return list(heapq.merge(*tagged))
