"""``repro.obs`` — per-request latency attribution ("blame").

Public surface:

* :class:`RequestLedger` / :func:`fold_completion` / :func:`add_ns` —
  the attribution primitives threaded along the request path (see
  :mod:`repro.obs.blame` for the conservation invariant);
* :class:`BlameCollector` / :class:`BlameRunReport` and the table
  renderers — per-tenant summaries, tail profiles, exemplars;
* :func:`write_blame_jsonl` / :func:`validate_blame_file` — the
  ``repro-blame/v1`` JSONL export;
* the **flight recorder** (:mod:`repro.obs.flightrec`) and the
  ``repro-incident/v1`` forensics bundle (:mod:`repro.obs.incident`):
  the always-on black box every layer appends high-signal events to,
  and the cross-plane dump triggered when something goes wrong.

Both planes are switched on per run, by the config's ``blame`` /
``flightrec`` fields or by building the system inside
``repro.system.observe(blame=True, flightrec=True)``; the run's
:class:`BlameRunReport` and :class:`FlightRecorder` hang off its
``RunResult``.
"""

from __future__ import annotations

from repro.common.scope import clear_scope
from repro.obs.blame import (
    CATEGORIES,
    CKPT_FAMILY,
    RESIDUAL,
    BlameCollector,
    BlameError,
    BlameRecord,
    BlameRunReport,
    RequestLedger,
    TailProfile,
    add_ns,
    blame_table,
    exemplar_table,
    fold_completion,
    tail_table,
)
from repro.obs.export import (
    SCHEMA,
    blame_records,
    validate_blame_file,
    write_blame_jsonl,
)
from repro.obs.flightrec import FlightRecorder
from repro.obs.incident import (
    build_timeline,
    dominant_stage,
    incident_records,
    load_incident_file,
    pair_incident_records,
    resolve_against_trace,
    timeline_table,
    validate_incident_file,
    write_incident_jsonl,
)

__all__ = [
    "CATEGORIES", "CKPT_FAMILY", "RESIDUAL",
    "BlameCollector", "BlameError", "BlameRecord", "BlameRunReport",
    "RequestLedger", "TailProfile", "add_ns", "fold_completion",
    "blame_table", "tail_table", "exemplar_table",
    "SCHEMA", "blame_records", "validate_blame_file", "write_blame_jsonl",
    "clear_blame", "FlightRecorder",
    "incident_records", "pair_incident_records", "write_incident_jsonl",
    "validate_incident_file", "load_incident_file",
    "resolve_against_trace", "build_timeline", "dominant_stage",
    "timeline_table",
]

# Kept by name: benchmark drivers import it to drop finished runs.
clear_blame = clear_scope
