"""Full-system wiring: configuration, metrics, orchestration."""

from repro.common.scope import observe
from repro.system.config import (
    DEFAULT_MAPPING_UNITS,
    SystemConfig,
    TenantSpec,
    tiny_config,
)
from repro.system.metrics import LifetimeEstimate, RunMetrics
from repro.system.system import (
    KvSystem,
    RunResult,
    TenantResult,
    run_config,
)

__all__ = [
    "DEFAULT_MAPPING_UNITS",
    "SystemConfig",
    "TenantSpec",
    "tiny_config",
    "LifetimeEstimate",
    "RunMetrics",
    "KvSystem",
    "RunResult",
    "TenantResult",
    "run_config",
    "observe",
]
