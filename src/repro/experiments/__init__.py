"""Per-figure experiment harness (one module per paper table/figure)."""

from repro.experiments.base import (
    ALL_MODES,
    FULL,
    HEADLINE_MODES,
    QUICK,
    ExperimentScale,
    paper_config,
)

__all__ = [
    "ALL_MODES",
    "FULL",
    "HEADLINE_MODES",
    "QUICK",
    "ExperimentScale",
    "paper_config",
]
