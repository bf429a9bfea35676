"""Seeded NAND media-error model: program/erase/read failure injection.

Real NAND fails in three ways the perfect-flash model above cannot show:

* **program-status failures** — the page does not verify after tPROG;
* **erase-status failures** — the block does not erase cleanly (the
  classic grown-bad-block trigger);
* **uncorrectable reads (UECC)** — raw bit-error rate exceeds the ECC
  budget; controllers walk a ladder of read-retry voltage levels before
  giving up.

:class:`MediaErrorModel` draws each outcome deterministically from a
seed, the operation kind, the block id and a per-(kind, block) operation
counter, so a run is exactly reproducible and *order-robust*: the draw
does not depend on global event interleaving, only on how many times
this block saw this kind of operation.

Error probabilities compose multiplicatively from the physics the paper
leaves implicit:

* **wear** — P/E cycling degrades the oxide; probability scales with
  ``1 + (erase_count / WEAR_REFERENCE_PE) ** WEAR_EXPONENT``;
* **retention** — charge leaks over time; scales with the block's age
  since its first post-erase program;
* **read disturb** — reads softly program neighbouring cells; scales
  with reads since the last erase beyond a threshold (UECC only).

Read-retry models the extra sensing levels: each retry level re-draws
failure independently (a fresh draw ≈ a different read voltage), and
each attempt costs :data:`~repro.flash.array.READ_RETRY_NS`
of extra LUN time.  A UECC is *transient* in this model — re-issuing the
read draws fresh levels — which matches retry-based recovery in real
firmware and keeps acknowledged data recoverable by construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.common.errors import ConfigError

PROGRAM = "program"
ERASE = "erase"
READ = "read"

_DRAW_DENOM = float(1 << 64)

WEAR_EXPONENT = 2.0
"""How sharply P/E wear amplifies all failure rates."""

WEAR_REFERENCE_PE = 3000
"""P/E count at which the wear multiplier reaches 2x base."""

RETENTION_SCALE_NS = 10_000_000_000
"""Data age at which retention doubles the read-failure rate."""

READ_DISTURB_THRESHOLD = 10_000
"""Reads since erase below which disturb adds nothing."""

READ_DISTURB_SCALE = 10_000
"""Excess reads that double the UECC rate once past the threshold."""


@dataclass(frozen=True)
class MediaErrorConfig:
    """Knobs of the media-error model (all rates are per operation)."""

    enabled: bool = True

    program_fail_base: float = 0.0
    """Base program-status failure probability on a pristine block."""

    erase_fail_base: float = 0.0
    """Base erase-status failure probability on a pristine block."""

    read_uecc_base: float = 0.0
    """Base per-attempt uncorrectable-read probability."""

    max_read_retries: int = 3
    """Extra read-retry voltage levels tried before declaring UECC."""

    max_probability: float = 0.95
    """Cap on any composed probability (a draw can always succeed)."""

    def __post_init__(self) -> None:
        for name in ("program_fail_base", "erase_fail_base",
                     "read_uecc_base"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {rate}")
        if self.max_read_retries < 0:
            raise ConfigError("max_read_retries must be >= 0")
        if not 0.0 < self.max_probability <= 1.0:
            raise ConfigError("max_probability must be in (0, 1]")


class MediaErrorModel:
    """Deterministic per-operation failure draws for one flash array."""

    def __init__(self, config: MediaErrorConfig, seed: int) -> None:
        self.config = config
        self.seed = seed
        self._counters: Dict[Tuple[str, int], int] = {}

    # -- deterministic uniform draws ------------------------------------
    def _draw(self, kind: str, block_id: int) -> float:
        """Next uniform [0, 1) draw for (kind, block) — order-robust."""
        key = (kind, block_id)
        counter = self._counters.get(key, 0)
        self._counters[key] = counter + 1
        digest = hashlib.sha256(
            f"{self.seed}/{kind}/{block_id}/{counter}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / _DRAW_DENOM

    # -- probability composition ----------------------------------------
    def _wear_multiplier(self, erase_count: int) -> float:
        return 1.0 + (erase_count / WEAR_REFERENCE_PE) ** WEAR_EXPONENT

    def _retention_multiplier(self, age_ns: int) -> float:
        if age_ns <= 0:
            return 1.0
        return 1.0 + age_ns / RETENTION_SCALE_NS

    def _disturb_multiplier(self, reads_since_erase: int) -> float:
        excess = reads_since_erase - READ_DISTURB_THRESHOLD
        if excess <= 0:
            return 1.0
        return 1.0 + excess / READ_DISTURB_SCALE

    def _cap(self, probability: float) -> float:
        return min(probability, self.config.max_probability)

    def program_fail_probability(self, erase_count: int) -> float:
        """Composed program-status failure probability."""
        return self._cap(self.config.program_fail_base *
                         self._wear_multiplier(erase_count))

    def erase_fail_probability(self, erase_count: int) -> float:
        """Composed erase-status failure probability."""
        return self._cap(self.config.erase_fail_base *
                         self._wear_multiplier(erase_count))

    def read_uecc_probability(self, erase_count: int, age_ns: int,
                              reads_since_erase: int) -> float:
        """Composed per-attempt uncorrectable-read probability."""
        return self._cap(self.config.read_uecc_base *
                         self._wear_multiplier(erase_count) *
                         self._retention_multiplier(age_ns) *
                         self._disturb_multiplier(reads_since_erase))

    # -- the three outcome queries --------------------------------------
    def program_fails(self, block_id: int, erase_count: int) -> bool:
        """Draw one program-status check."""
        if not self.config.enabled or self.config.program_fail_base <= 0:
            return False
        return self._draw(PROGRAM, block_id) < \
            self.program_fail_probability(erase_count)

    def erase_fails(self, block_id: int, erase_count: int) -> bool:
        """Draw one erase-status check."""
        if not self.config.enabled or self.config.erase_fail_base <= 0:
            return False
        return self._draw(ERASE, block_id) < \
            self.erase_fail_probability(erase_count)

    def read_attempts(self, block_id: int, erase_count: int, age_ns: int,
                      reads_since_erase: int) -> int:
        """Read-retry ladder: sensing attempts consumed by one page read.

        Returns the 1-based attempt number that succeeded, or ``0`` when
        every level (1 + max_read_retries attempts) failed — an
        uncorrectable read the caller must surface.
        """
        if not self.config.enabled or self.config.read_uecc_base <= 0:
            return 1
        probability = self.read_uecc_probability(erase_count, age_ns,
                                                 reads_since_erase)
        attempts = 1 + self.config.max_read_retries
        for attempt in range(1, attempts + 1):
            if self._draw(READ, block_id) >= probability:
                return attempt
        return 0


def quiet_model() -> MediaErrorModel:
    """A model that never fails anything (perfect flash, explicit)."""
    return MediaErrorModel(MediaErrorConfig(enabled=False), seed=0)
