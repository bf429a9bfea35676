"""Every validation branch of the config dataclasses rejects bad input.

One parametrized case per ``ConfigError``/``EngineError`` branch in a
``__post_init__``; the ``match`` pins which branch fired.  Fixed device
and firmware parameters are module constants, not fields, so they have
no branch here.
"""

import pytest

from repro.common.errors import ConfigError, EngineError
from repro.common.units import MIB
from repro.engine.engine import EngineConfig
from repro.engine.journal import JournalConfig
from repro.flash.media import MediaErrorConfig
from repro.flash.timing import FlashTiming
from repro.ftl.ftl import FtlConfig
from repro.replication.ship import LinkSpec
from repro.ssd.controller import ControllerConfig
from repro.system.config import SystemConfig
from repro.telemetry.sampler import TelemetryConfig
from repro.workload.arrivals import ArrivalSpec

CASES = [
    (SystemConfig, dict(mode="isc_z"), ConfigError, "mode must be one of"),
    (SystemConfig, dict(tenants=()), ConfigError, "tenants tuple"),
    (SystemConfig, dict(threads=0), ConfigError, "threads must be"),
    (SystemConfig, dict(num_keys=0), ConfigError, "num_keys and total"),
    (SystemConfig, dict(total_queries=0), ConfigError, "num_keys and total"),
    (SystemConfig, dict(mapping_unit=1536), ConfigError,
     "mapping unit 1536 incompatible"),
    (EngineConfig, dict(mode="isc_z"), ConfigError, "mode must be one of"),
    (EngineConfig, dict(data_sectors=0), ConfigError, "invalid data region"),
    (EngineConfig, dict(meta_lba_start=100), ConfigError,
     "journal and meta regions overlap"),
    (JournalConfig, dict(total_sectors=5), EngineError, "even sector count"),
    (JournalConfig, dict(group_commit_ns=-1), EngineError,
     "group_commit_ns"),
    (JournalConfig, dict(max_txn_logs=0), EngineError, "max_txn_logs"),
    (JournalConfig, dict(txn_align_sectors=0), EngineError,
     "txn_align_sectors"),
    (TelemetryConfig, dict(interval_ns=0), ConfigError, "interval"),
    (FtlConfig, dict(mapping_unit=700), ConfigError, "multiple of 512"),
    (FtlConfig, dict(mapping_unit=0), ConfigError, "must be >= 512"),
    (FtlConfig, dict(mapping_unit=4 * MIB), ConfigError,
     "fit the write buffer"),
    (FtlConfig, dict(spare_block_budget=-1), ConfigError,
     "spare_block_budget"),
    (FtlConfig, dict(read_reissue_limit=-1), ConfigError,
     "read_reissue_limit"),
    (ControllerConfig, dict(media_retry_limit=-1), ConfigError,
     "media_retry_limit"),
    (MediaErrorConfig, dict(program_fail_base=1.5), ConfigError,
     "program_fail_base must be in"),
    (MediaErrorConfig, dict(max_read_retries=-1), ConfigError,
     "max_read_retries"),
    (MediaErrorConfig, dict(max_probability=0.0), ConfigError,
     "max_probability"),
    (FlashTiming, dict(read_ns=0), ConfigError, "read_ns must be positive"),
    (FlashTiming, dict(channel_setup_ns=0), ConfigError,
     "channel_setup_ns must be positive"),
    (ArrivalSpec, dict(process="uniform"), ConfigError, "arrival process"),
    (ArrivalSpec, dict(schedule="weekly"), ConfigError, "rate schedule"),
    (ArrivalSpec, dict(rate_ops_per_sec=0.0), ConfigError,
     "rate_ops_per_sec"),
    (ArrivalSpec, dict(diurnal_amplitude=1.0), ConfigError,
     "diurnal_amplitude"),
    (ArrivalSpec, dict(crowd_duration_ns=-1), ConfigError,
     "crowd_duration_ns"),
    (ArrivalSpec, dict(crowd_multiplier=0.5), ConfigError,
     "crowd_multiplier"),
    (ArrivalSpec, dict(burst_min_ops=8, burst_max_ops=4), ConfigError,
     "burst_min_ops <= burst_max_ops"),
    (LinkSpec, dict(latency_ns=-1), ConfigError, "latency_ns"),
    (LinkSpec, dict(gbit_per_s=0.0), ConfigError, "gbit_per_s"),
    (LinkSpec, dict(queue_depth=0), ConfigError, "batch_ops and queue_depth"),
]


@pytest.mark.parametrize(
    "cls,kwargs,error,match", CASES,
    ids=[f"{cls.__name__}-{'-'.join(kwargs)}" for cls, kwargs, _e, _m in CASES])
def test_invalid_config_rejected(cls, kwargs, error, match):
    with pytest.raises(error, match=match):
        cls(**kwargs)
