"""Table I — the simulated machine configuration.

Renders the resolved configuration of this reproduction in the paper's
three groups (DBMS, host system, storage), so every run's parameters are
documented the way Table I documents the authors' setup.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.common.units import format_bytes, format_time
from repro.experiments.base import QUICK, ExperimentScale, paper_config
from repro.ftl.ftl import WRITE_BUFFER_BYTES
from repro.ssd.controller import CPU_CORES
from repro.system.config import DEFAULT_MAPPING_UNITS, SystemConfig


def render_table1(config: SystemConfig = None) -> str:
    """The Table-I analog for one configuration (defaults to paper scale)."""
    if config is None:
        config = paper_config("checkin", QUICK)
    geometry = config.geometry()
    timing = config.timing()
    rows = [
        ["DBMS", "Record size", config.size_spec],
        ["DBMS", "Checkpoint interval",
         format_time(config.checkpoint_interval_ns) +
         f" (or {format_bytes(config.checkpoint_journal_quota)} of logs)"],
        ["DBMS", "Key population", str(config.num_keys)],
        ["DBMS", "Total query count", str(config.total_queries)],
        ["DBMS", "Workload / distribution",
         f"YCSB {config.workload} / {config.distribution}"],
        ["Host", "Client threads", str(config.threads)],
        ["Host", "Group commit window", format_time(config.group_commit_ns)],
        ["Host", "Engine block cache", f"{config.mem_cache_records} records"],
        ["Host", "PCIe", f"{config.pcie_bandwidth / 1e9:.1f} GB/s, "
         f"queue depth {config.queue_depth}"],
        ["Storage", "Embedded processors", str(CPU_CORES)],
        ["Storage", "Data cache",
         f"{config.read_cache_units} units read / "
         f"{format_bytes(WRITE_BUFFER_BYTES)} staging"],
        ["Storage", "Mapping unit",
         " / ".join(f"{mode}:{unit}" for mode, unit in
                    sorted(DEFAULT_MAPPING_UNITS.items()))],
        ["Storage", "Flash topology",
         f"{geometry.channels} ch x {geometry.packages_per_channel} pkg x "
         f"{geometry.dies_per_package} die x {geometry.planes_per_die} plane, "
         f"{geometry.blocks_per_plane} blk x {geometry.pages_per_block} pg x "
         f"{format_bytes(geometry.page_size)}"],
        ["Storage", "Raw capacity", format_bytes(geometry.capacity_bytes)],
        ["Storage", "Flash timing",
         f"read {format_time(timing.read_ns)}, program "
         f"{format_time(timing.program_ns)}, erase "
         f"{format_time(timing.erase_ns)}"],
        ["Storage", "Channel bandwidth",
         f"{timing.channel_bandwidth / 1e6:.0f} MB/s"],
        ["Storage", "Endurance", f"{config.max_pe_cycles} P/E cycles"],
    ]
    return format_table(["group", "parameter", "value"], rows,
                        title="Table I: simulated machine configuration "
                              "(scaled; see DESIGN.md)")


def run_table1(scale: ExperimentScale = QUICK) -> str:
    """Registry entry point: render the configuration table."""
    return render_table1(paper_config("checkin", scale))
