"""The observation scope: which planes systems built inside it switch on.

Experiments build their own :class:`~repro.system.system.KvSystem`
instances internally, so a caller that wants them traced, sampled,
blamed or flight-recorded cannot set the config fields itself.
:func:`observe` opens a scope instead: every system constructed inside
it ORs the scope's planes into its config, takes a uniquified label
(``checkin``, ``checkin#2`` …) and appends itself to
:attr:`ObserveScope.systems` for one merged export afterwards.

A system built outside any scope reads only its own config and is
registered nowhere, so finished runs are freed with their owners.

This is a leaf module (no ``repro`` imports): ``repro.trace``,
``repro.telemetry`` and ``repro.obs`` re-export :func:`clear_scope`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass
class ObserveScope:
    """The planes one :func:`observe` block switches on, and what it saw."""

    trace: bool = False
    telemetry: Optional[Any] = None
    """A :class:`~repro.telemetry.sampler.TelemetryConfig`, or None."""

    blame: bool = False
    flightrec: bool = False
    systems: List[Any] = field(default_factory=list)
    """Every system built inside the scope, in construction order."""

    _label_counts: Dict[str, int] = field(default_factory=dict, init=False,
                                          repr=False)

    def register(self, system: Any, label: str) -> str:
        """Collect ``system``; returns its label, uniquified in the scope."""
        count = self._label_counts.get(label, 0) + 1
        self._label_counts[label] = count
        self.systems.append(system)
        return label if count == 1 else f"{label}#{count}"


_ACTIVE: Optional[ObserveScope] = None


def active_scope() -> Optional[ObserveScope]:
    """The innermost open :func:`observe` scope (None outside any)."""
    return _ACTIVE


@contextmanager
def observe(trace: bool = False, telemetry: Optional[Any] = None,
            blame: bool = False, flightrec: bool = False
            ) -> Iterator[ObserveScope]:
    """Switch planes on for every system built inside the ``with`` block.

    A config's own plane settings still apply; its own telemetry config
    wins over the scope's.  The previous scope is restored on exit, even
    when the block raises.
    """
    global _ACTIVE
    previous = _ACTIVE
    scope = ObserveScope(trace=trace, telemetry=telemetry, blame=blame,
                         flightrec=flightrec)
    _ACTIVE = scope
    try:
        yield scope
    finally:
        _ACTIVE = previous


def clear_scope() -> None:
    """Forget the systems the active scope collected (no-op outside one)."""
    if _ACTIVE is not None:
        _ACTIVE.systems.clear()
        _ACTIVE._label_counts.clear()
