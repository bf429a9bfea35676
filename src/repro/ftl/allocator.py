"""Log-structured physical-space allocation with superblock striping.

The FTL writes strictly out of place: each *stream* (host journal, host
data, GC migration, metadata) fills pages unit by unit.  To exploit the
array's parallelism, a stream stripes consecutive pages across several
*lanes*, each lane an open block on (ideally) a different LUN — the
superblock scheme real controllers use.  Without striping, a sequential
stream would serialize every page program on one plane and cap write
throughput at ``1 / t_PROG``.

Stream separation keeps journal logs physically clustered — which is what
makes the paper's remapping efficient and keeps GC from mixing hot journal
pages with cold data pages.

The allocator does address arithmetic only; the FTL stages unit payloads
and issues the timed page programs that :class:`PageProgram` describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.common.errors import DeviceFullError, FtlError
from repro.flash.geometry import FlashGeometry


@dataclass
class PageProgram:
    """A physical page that became full and must be programmed now."""

    ppa: int
    upas: Tuple[int, ...]
    padded_units: int = 0
    """Units in the page that were sacrificed as padding on a flush."""

    stream: str = ""
    """Qualified stream the page belongs to — lets a program-status
    failure re-issue the units to a fresh page of the same stream."""


@dataclass
class _Lane:
    """One open block of a stream's stripe."""

    block_id: int
    next_unit: int = 0  # unit offset within the block
    staged: List[int] = field(default_factory=list)  # upas in the open page


class _StreamState:
    __slots__ = ("lanes", "turn")

    def __init__(self, width: int) -> None:
        self.lanes: List[Optional[_Lane]] = [None] * width
        self.turn = 0


def default_stripe_width(geometry: FlashGeometry) -> int:
    """Stripe lanes per stream: the LUN count, bounded so tiny test
    devices are not starved by open blocks (several streams each hold up
    to ``width`` blocks open)."""
    return max(1, min(geometry.num_luns, geometry.total_blocks // 16))


class BlockAllocator:
    """Free-block pool plus per-stream striped write points."""

    def __init__(self, geometry: FlashGeometry, units_per_page: int) -> None:
        if units_per_page < 1:
            raise FtlError("units_per_page must be >= 1")
        if geometry.page_size % units_per_page != 0:
            raise FtlError("units_per_page must divide the page size")
        self.geometry = geometry
        self.units_per_page = units_per_page
        self.units_per_block = units_per_page * geometry.pages_per_block
        self.stripe_width = default_stripe_width(geometry)
        # Free blocks segregated per LUN so lanes can spread across planes.
        self._free_per_lun: Dict[int, List[int]] = {
            lun: [] for lun in range(geometry.num_luns)}
        for block in range(geometry.total_blocks - 1, -1, -1):
            self._free_per_lun[geometry.lun_of_block(block)].append(block)
        self._free_count = geometry.total_blocks
        self._streams: Dict[str, _StreamState] = {}
        self._full_blocks: Set[int] = set()
        self.written_units: Dict[int, int] = {}
        self.padded_units_total = 0

    # -- pool state ---------------------------------------------------------
    @property
    def free_block_count(self) -> int:
        """Blocks immediately available for allocation."""
        return self._free_count

    @property
    def full_blocks(self) -> Set[int]:
        """Blocks completely written — the GC victim candidates."""
        return set(self._full_blocks)

    def active_block_ids(self) -> Set[int]:
        """Blocks currently open for writing (excluded from GC)."""
        active: Set[int] = set()
        for state in self._streams.values():
            for lane in state.lanes:
                if lane is not None:
                    active.add(lane.block_id)
        return active

    def limit_stripe_width(self, width: int) -> None:
        """Clamp the lane count used by streams opened from now on.

        Multi-tenant configurations divide the stripe between namespaces:
        every tenant's qualified streams ("ns0.data", "ns1.journal", ...)
        would otherwise each hold ``stripe_width`` blocks open and starve
        the free pool on small devices.  Existing streams keep their lanes.
        """
        if width < 1:
            raise FtlError(f"stripe width must be >= 1, got {width}")
        self.stripe_width = min(self.stripe_width, width)

    def register_free(self, block: int) -> None:
        """Return an erased block to the pool."""
        self.geometry.check_block(block)
        lun = self.geometry.lun_of_block(block)
        if block in self._free_per_lun[lun]:
            raise FtlError(f"block {block} already free")
        self._full_blocks.discard(block)
        self.written_units.pop(block, None)
        self._free_per_lun[lun].append(block)
        self._free_count += 1

    def retire(self, block: int) -> None:
        """Drop a grown-bad block from all pools — it is never reused.

        The block must not be free or open for writing; retirement
        happens after GC has migrated its valid units.
        """
        self.geometry.check_block(block)
        lun = self.geometry.lun_of_block(block)
        if block in self._free_per_lun[lun]:
            raise FtlError(f"cannot retire free block {block}")
        self._full_blocks.discard(block)
        self.written_units.pop(block, None)

    # -- allocation ------------------------------------------------------------
    def allocate(self, stream: str,
                 n_units: int) -> Tuple[List[int], List[PageProgram]]:
        """Reserve ``n_units`` units for ``stream``.

        Returns ``(upas, programs)``: the assigned unit addresses in order,
        and the page programs whose pages became completely full.  Pages
        rotate across the stream's stripe lanes so consecutive programs
        land on different LUNs.  Units in a still-open page stay buffered
        in controller RAM (capacitor-backed) until the page fills or the
        stream is flushed.

        Raises :class:`DeviceFullError` when the free pool runs dry; the
        caller is expected to garbage-collect and retry.
        """
        if n_units < 1:
            raise FtlError(f"must allocate at least one unit, got {n_units}")
        upas: List[int] = []
        programs: List[PageProgram] = []
        state = self._streams.get(stream)
        if state is None:
            state = _StreamState(self.stripe_width)
            self._streams[stream] = state
        for _ in range(n_units):
            lane = self._current_lane(stream, state)
            upa = (lane.block_id * self.units_per_block) + lane.next_unit
            lane.next_unit += 1
            lane.staged.append(upa)
            self.written_units[lane.block_id] = \
                self.written_units.get(lane.block_id, 0) + 1
            upas.append(upa)
            if len(lane.staged) == self.units_per_page:
                programs.append(self._close_page(stream, state, lane,
                                                 padded=0))
        return upas, programs

    def flush(self, stream: str) -> List[PageProgram]:
        """Force out every open partial page of ``stream`` (pads tails)."""
        state = self._streams.get(stream)
        if state is None:
            return []
        programs: List[PageProgram] = []
        for lane in state.lanes:
            if lane is None or not lane.staged:
                continue
            padding = self.units_per_page - len(lane.staged)
            self.written_units[lane.block_id] = \
                self.written_units.get(lane.block_id, 0) + padding
            self.padded_units_total += padding
            lane.next_unit += padding
            programs.append(self._close_page(stream, state, lane,
                                             padded=padding))
        return programs

    def staged_units(self, stream: str) -> Tuple[int, ...]:
        """Unit addresses currently buffered in open pages of ``stream``."""
        state = self._streams.get(stream)
        if state is None:
            return ()
        staged: List[int] = []
        for lane in state.lanes:
            if lane is not None:
                staged.extend(lane.staged)
        return tuple(staged)

    # -- internals ---------------------------------------------------------------
    def _current_lane(self, stream: str, state: _StreamState) -> _Lane:
        lane = state.lanes[state.turn]
        if lane is not None:
            return lane
        block = self._take_free_block(state)
        if block is None:
            raise DeviceFullError(
                f"no free blocks for stream '{stream}' "
                f"(full={len(self._full_blocks)})")
        fresh = _Lane(block)
        state.lanes[state.turn] = fresh
        return fresh

    def _take_free_block(self, state: _StreamState) -> Optional[int]:
        if self._free_count == 0:
            return None
        # Prefer LUNs this stream's other lanes are not already using.
        used_luns = {self.geometry.lun_of_block(lane.block_id)
                     for lane in state.lanes if lane is not None}
        best_lun = None
        best_score: Tuple[int, int] = (-1, -1)
        for lun, pool in self._free_per_lun.items():
            if not pool:
                continue
            score = (1 if lun not in used_luns else 0, len(pool))
            if score > best_score:
                best_score = score
                best_lun = lun
        if best_lun is None:
            return None
        self._free_count -= 1
        return self._free_per_lun[best_lun].pop()

    def _close_page(self, stream: str, state: _StreamState, lane: _Lane,
                    padded: int) -> PageProgram:
        first_upa = lane.staged[0]
        ppa = first_upa // self.units_per_page
        program = PageProgram(ppa=ppa, upas=tuple(lane.staged),
                              padded_units=padded, stream=stream)
        lane.staged = []
        lane_index = state.lanes.index(lane)
        if lane.next_unit >= self.units_per_block:
            self._full_blocks.add(lane.block_id)
            state.lanes[lane_index] = None
        # Advance the stripe: the next page goes to the next lane.
        state.turn = (lane_index + 1) % len(state.lanes)
        return program
