"""Per-layer host-time shim for the traced benchmark pass.

The shim measures each layer of the stack from outside: it replaces the
public entry points of every layer's classes with timing wrappers before
a :class:`~repro.system.system.KvSystem` is built, and restores them
afterwards.  No file under ``src/`` knows about it.

* A synchronous entry point gets a timer around the call.
* A generator entry point returns a pass-through proxy that times every
  resume of the inner generator and forwards ``send``/``throw``/``close``
  and the return value, so ``yield from`` and ``Process`` drive it exactly
  like the generator it wraps.  Simulated time never sees the proxy.
* Where a layer's daemon has no public surface, the process body itself
  is wrapped (``JournalManager._commit_loop``, ``SsdController._handle``).
  A long-lived body is timed but not counted as a call, so a layer's
  ``calls`` are the requests other layers made of it.

Every timed interval pushes a frame on one stack.  A frame collects the
inclusive time of the intervals nested in it, so a layer's *self* time is
its inclusive time minus its children's.  ``sim`` has no entry points: it
is the residual, traced wall minus the other layers, and holds the event
kernel, process switching and the run loop.

Kernel work is counted, not timed: ``Simulator._seq`` already counts
scheduled events, and the shim counts ``Process`` constructions and timer
cancels.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

CALL = "call"
GEN = "gen"
BODY = "body"
"""A long-lived process body: timed like ``GEN``, but not a call."""

ENTRY_POINTS: Tuple[Tuple[str, str, str, str, Tuple[str, ...]], ...] = (
    # (layer, module, class or "" for module functions, kind, names)
    ("workload", "repro.workload.ycsb", "OperationGenerator", CALL,
     ("next_operation",)),
    ("workload", "repro.workload.arrivals", "", CALL, ("arrival_times",)),
    ("workload", "repro.workload.client", "ClientPool", BODY,
     ("_thread_loop",)),
    ("workload", "repro.workload.client", "OpenLoopClientPool", BODY,
     ("_dispatch",)),
    ("workload", "repro.workload.client", "OpenLoopClientPool", GEN,
     ("_worker",)),
    ("admission", "repro.engine.admission", "AdmissionController", CALL,
     ("try_admit", "release")),
    ("engine", "repro.engine.engine", "StorageEngine", GEN,
     ("get", "put", "read_modify_write", "checkpoint")),
    ("journal", "repro.engine.journal", "JournalManager", CALL,
     ("submit", "release_frozen")),
    ("journal", "repro.engine.journal", "JournalManager", BODY,
     ("_commit_loop",)),
    ("journal", "repro.engine.journal", "JournalManager", GEN,
     ("freeze_when_quiet",)),
    ("checkpointer", "repro.engine.checkpointer", "BaselineCheckpointer", GEN,
     ("run",)),
    ("checkpointer", "repro.engine.checkpointer", "IscACheckpointer", GEN,
     ("run",)),
    ("checkpointer", "repro.engine.checkpointer", "IscBCheckpointer", GEN,
     ("run",)),
    ("checkpointer", "repro.engine.checkpointer", "CheckInCheckpointer", GEN,
     ("run",)),
    ("controller", "repro.ssd.controller", "SsdController", CALL,
     ("submit",)),
    ("controller", "repro.ssd.controller", "SsdController", GEN,
     ("_handle", "device_read", "device_write")),
    # Write-side merging only: the read path's buffer lookups (peek,
    # overlay) stay in the controller, so a read-only workload shows no
    # coalescer work.
    ("coalescer", "repro.ssd.coalescer", "WriteCoalescer", CALL,
     ("merge", "evict_pressure", "drain_all", "drain_range",
      "discard_range")),
    ("isce", "repro.checkin.isce", "InStorageCheckpointEngine", GEN,
     ("execute_cow", "checkpoint_complete", "delete_logs")),
    ("isce", "repro.checkin.log_manager", "LogManager", GEN,
     ("note_journal_write",)),
    ("isce", "repro.checkin.deallocator", "Deallocator", GEN,
     ("collect_idle",)),
    ("ftl", "repro.ftl.ftl", "Ftl", GEN,
     ("read", "write", "trim", "remap", "copy_range", "relocate_unit",
      "flush_stream", "persist_metadata", "drain", "_program_page_proc",
      "_read_one")),
    ("gc", "repro.ftl.gc", "GarbageCollector", GEN,
     ("collect_once", "collect_read_disturbed", "ensure_free_blocks")),
    ("flash", "repro.flash.array", "FlashArray", GEN,
     ("read_page", "program_page", "erase_block", "mapping_read")),
    ("trace", "repro.trace.tracer", "Tracer", CALL,
     ("begin", "end", "instant")),
    ("telemetry", "repro.telemetry.sampler", "TelemetrySampler", CALL,
     ("sample_once",)),
    ("blame", "repro.obs.blame", "RequestLedger", CALL,
     ("charge", "finalize")),
    ("blame", "repro.obs.blame", "BlameCollector", CALL, ("record",)),
    ("blame", "repro.obs.blame", "", CALL, ("fold_completion", "add_ns")),
    ("flightrec", "repro.obs.flightrec", "FlightRecorder", CALL,
     ("record", "trip")),
)
"""Every timed entry point, grouped by the layer (module) it belongs to."""

LAYERS = ("sim", "workload", "admission", "engine", "journal", "checkpointer",
          "controller", "coalescer", "isce", "ftl", "gc", "flash", "trace",
          "telemetry", "blame", "flightrec")
"""Layer names in pipeline order; ``sim`` is the untimed residual."""

BENCH_BLAME = "bench_blame"
"""Layer name for blame ledgers that only the traced pass switched on.

The traced pass enables blame on every workload to get stage shares.  On
a workload whose own configuration leaves blame off, that work belongs
to the measurement, not to the workload, so it is booked here instead of
under ``blame``.
"""

REPORTED_LAYERS = LAYERS + (BENCH_BLAME,)
"""Every layer the shim reports, whether or not a workload uses it."""


class LayerClock:
    """Self time and call counts per layer, kept on one frame stack."""

    def __init__(self, layers: Tuple[str, ...]) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(layers, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(layers, 0)
        self.processes = 0
        self.cancels = 0
        self._frames: List[float] = [0.0]
        """Child time per open interval; the bottom frame is untimed."""

    def reset(self) -> None:
        """Zero every total (call before the interval to be measured)."""
        for layer in self.self_s:
            self.self_s[layer] = 0.0
            self.calls[layer] = 0
        self.processes = self.cancels = 0

    def timed_call(self, layer: str, fn: Callable[..., Any]
                   ) -> Callable[..., Any]:
        """``fn`` wrapped in a self-time interval of ``layer``."""
        frames = self._frames
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            calls[layer] += 1
            frames.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                self_s[layer] += elapsed - frames.pop()
                frames[-1] += elapsed

        return timed

    def timed_generator(self, layer: str, fn: Callable[..., Any],
                        counted: bool = True) -> Callable[..., Any]:
        """``fn`` (a generator function) returning a timing proxy."""
        calls = self.calls

        def start(*args: Any, **kwargs: Any) -> "TimedGenerator":
            if counted:
                calls[layer] += 1
            return TimedGenerator(fn(*args, **kwargs), layer, self)

        return start


class TimedGenerator:
    """Pass-through generator proxy timing each resume of ``inner``."""

    __slots__ = ("_inner", "_layer", "_clock")

    def __init__(self, inner: Any, layer: str, clock: LayerClock) -> None:
        self._inner = inner
        self._layer = layer
        self._clock = clock

    def __iter__(self) -> "TimedGenerator":
        return self

    def __next__(self) -> Any:
        return self._resume(self._inner.send, None)

    def send(self, value: Any) -> Any:
        return self._resume(self._inner.send, value)

    def throw(self, *args: Any) -> Any:
        return self._resume(self._inner.throw, *args)

    def close(self) -> None:
        self._resume(self._inner.close)

    def _resume(self, step: Callable[..., Any], *args: Any) -> Any:
        clock = self._clock
        frames = clock._frames
        frames.append(0.0)
        started = time.perf_counter()
        try:
            return step(*args)
        finally:
            elapsed = time.perf_counter() - started
            clock.self_s[self._layer] += elapsed - frames.pop()
            frames[-1] += elapsed


class Shim:
    """Installs the timing wrappers; a context manager that restores them.

    ``blame_layer`` names the layer blame entry points are booked to
    (``blame``, or :data:`BENCH_BLAME` when only the benchmark turned
    blame on).
    """

    def __init__(self, blame_layer: str = "blame") -> None:
        self.clock = LayerClock(REPORTED_LAYERS)
        self.blame_layer = blame_layer
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> LayerClock:
        self.install()
        return self.clock

    def __exit__(self, *_exc: Any) -> None:
        self.uninstall()

    def install(self) -> None:
        # Import the whole stack first, so every module that imports an
        # entry point by name already holds the reference patched below.
        importlib.import_module("repro.system.system")
        clock = self.clock
        for layer, module_name, owner_name, kind, names in ENTRY_POINTS:
            if layer == "blame":
                layer = self.blame_layer
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            for name in names:
                original = getattr(owner, name)
                if kind == CALL:
                    wrapped = clock.timed_call(layer, original)
                else:
                    wrapped = clock.timed_generator(layer, original,
                                                    counted=kind == GEN)
                self._replace(owner, name, wrapped)
                if not owner_name:
                    # Functions imported by name elsewhere keep their own
                    # reference: patch every module that holds it.
                    for other in list(sys.modules.values()):
                        if other is not module and \
                                other.__name__.startswith("repro.") and \
                                vars(other).get(name) is original:
                            self._replace(other, name, wrapped)
        self._count_kernel_work()

    def _count_kernel_work(self) -> None:
        from repro.sim.core import _Timer
        from repro.sim.process import Process
        clock = self.clock
        construct = Process.__init__
        cancel = _Timer.cancel

        def counted_init(process: Any, *args: Any, **kwargs: Any) -> None:
            clock.processes += 1
            construct(process, *args, **kwargs)

        def counted_cancel(timer: Any) -> None:
            clock.cancels += 1
            cancel(timer)

        self._replace(Process, "__init__", counted_init)
        self._replace(_Timer, "cancel", counted_cancel)

    def _replace(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
