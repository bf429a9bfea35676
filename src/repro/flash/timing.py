"""NAND flash timing parameters.

Values default to mid-range MLC NAND, matching the class of device the
paper simulates with SimpleSSD.  All latencies are in nanoseconds; the
channel is modelled as a shared link with a fixed per-transfer setup cost
plus a bandwidth-proportional transfer time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.common.units import MS, US, transfer_time_ns


@dataclass(frozen=True)
class FlashTiming:
    """Latency model for array operations and channel transfers."""

    read_ns: int = 60 * US
    """Array read (tR): cell array to the plane's page register."""

    program_ns: int = 800 * US
    """Array program (tPROG): page register to the cells."""

    erase_ns: int = int(3.5 * MS)
    """Block erase (tBERS)."""

    channel_bandwidth: int = 800 * 1000 * 1000
    """ONFI channel bandwidth, bytes per second."""

    channel_setup_ns: int = 200
    """Fixed command/address cycle cost per channel transaction."""

    def __post_init__(self) -> None:
        for field_name in ("read_ns", "program_ns", "erase_ns",
                           "channel_bandwidth", "channel_setup_ns"):
            if getattr(self, field_name) <= 0:
                raise ConfigError(f"{field_name} must be positive")

    def transfer_ns(self, num_bytes: int) -> int:
        """Channel occupancy to move ``num_bytes`` (setup + payload)."""
        return self.channel_setup_ns + transfer_time_ns(num_bytes, self.channel_bandwidth)
