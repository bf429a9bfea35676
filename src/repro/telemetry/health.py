"""SMART-style device health log.

Real SSDs expose a SMART / NVMe health-information log: wear levelling
spread, grown-bad blocks, spare capacity remaining, media error rates and
a projected lifetime.  :class:`DeviceHealthLog` reproduces that surface
for the simulated device: the telemetry sampler asks it for a *health
frame* periodically (every ``HEALTH_EVERY``-th sample) and for one final
:meth:`report` at end of run.

Projected lifetime follows the paper's Equation (1) shape: with ``BEC``
block erases consumed over an observation window ``T``, a budget of
``PEC_max`` cycles per block across ``nblocks`` blocks lasts
``PEC_max * nblocks * T / BEC`` — reported relative to the window so
runs of different lengths are comparable.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.telemetry import names
from repro.telemetry.names import safe_ratio

MAX_HEALTH_FRAMES = 1024
"""Health-frame ring capacity."""


class DeviceHealthLog:
    """Periodic SMART-ish health frames for one simulated device."""

    def __init__(self, ssd: Any, max_pe_cycles: int,
                 spare_block_budget: int) -> None:
        self.ssd = ssd
        self.max_pe_cycles = max_pe_cycles
        self.spare_block_budget = spare_block_budget
        self.frames: Deque[Dict[str, Any]] = deque(maxlen=MAX_HEALTH_FRAMES)

    # ------------------------------------------------------------------
    def frame(self, t_ns: int) -> Dict[str, Any]:
        """Snapshot the device health now (does not record it)."""
        stats = self.ssd.stats
        wear = self.ssd.array.wear_stats()
        bad_blocks = len(self.ssd.ftl.grown_bad)
        erases = stats.value(names.FLASH_ERASE)
        nblocks = self.ssd.spec.geometry.total_blocks
        # Equation (1) scaled to the whole device: how many multiples of
        # the elapsed window the P/E budget would last at this burn rate.
        projected = safe_ratio(self.max_pe_cycles * nblocks, erases,
                               default=float("inf"))
        return {
            "type": "health",
            "t_ns": t_ns,
            "wear_min": wear["min"],
            "wear_max": wear["max"],
            "wear_mean": wear["mean"],
            "pe_used_pct": 100.0 * safe_ratio(wear["max"],
                                              self.max_pe_cycles),
            "bad_blocks": bad_blocks,
            "spare_remaining": max(0, self.spare_block_budget - bad_blocks),
            "read_retries": stats.value(names.MEDIA_READ_RETRY),
            "uecc_events": stats.value(names.MEDIA_READ_UECC),
            "program_fails": stats.value(names.MEDIA_PROGRAM_FAIL),
            "erase_fails": stats.value(names.MEDIA_ERASE_FAIL),
            "relocations": stats.value(names.MEDIA_RELOCATIONS),
            "media_error_rate": safe_ratio(
                stats.value(names.MEDIA_PROGRAM_FAIL)
                + stats.value(names.MEDIA_ERASE_FAIL)
                + stats.value(names.MEDIA_READ_UECC),
                stats.value(names.FLASH_PROGRAM)
                + stats.value(names.FLASH_ERASE)
                + stats.value(names.FLASH_READ)),
            "projected_lifetime_windows": projected,
            "degraded": bool(self.ssd.ftl.read_only),
            "degraded_reason": self.ssd.ftl.degraded_reason,
        }

    def record(self, t_ns: int) -> Dict[str, Any]:
        """Snapshot and retain one health frame."""
        frame = self.frame(t_ns)
        self.frames.append(frame)
        return frame

    # ------------------------------------------------------------------
    @property
    def latest(self) -> Optional[Dict[str, Any]]:
        """Most recent recorded frame (None before the first)."""
        return self.frames[-1] if self.frames else None

    def series(self, field: str) -> List[Any]:
        """One health field over all retained frames, oldest first."""
        return [frame[field] for frame in self.frames]

    def report(self, t_ns: int) -> Dict[str, Any]:
        """The final health report: a fresh frame plus trend context."""
        final = self.frame(t_ns)
        final["type"] = "health_report"
        final["frames_recorded"] = len(self.frames)
        if self.frames:
            first = self.frames[0]
            final["wear_mean_delta"] = final["wear_mean"] - first["wear_mean"]
            final["bad_blocks_delta"] = (final["bad_blocks"]
                                         - first["bad_blocks"])
        return final
