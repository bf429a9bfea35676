"""Tests for the NAND media-error model and bad-block management.

Covers the deterministic draw machinery (:mod:`repro.flash.media`), the
flash-array failure surfaces (program/erase/read), and the FTL's grown-bad
block table: program-fail relocation, retirement with spare accounting,
and the read-only degraded mode the controller enforces afterwards.
"""

import pytest

from repro.common.errors import (
    ConfigError,
    MediaEraseError,
    MediaProgramError,
)
from repro.flash import FlashGeometry, FlashTiming
from repro.flash.array import FlashArray
from repro.flash.media import (
    READ_DISTURB_SCALE,
    READ_DISTURB_THRESHOLD,
    MediaErrorConfig,
    MediaErrorModel,
    quiet_model,
)
from repro.ftl import FtlConfig
from repro.sim import Simulator, spawn
from repro.ssd import (
    Command,
    ControllerConfig,
    InterfaceConfig,
    Op,
    Ssd,
    SsdSpec,
    Status,
)


def small_geometry(blocks=4, channels=1):
    return FlashGeometry(channels=channels, packages_per_channel=1,
                         dies_per_package=1, planes_per_die=1,
                         blocks_per_plane=blocks, pages_per_block=4,
                         page_size=4096)


def small_timing():
    return FlashTiming(read_ns=50_000, program_ns=500_000,
                       erase_ns=3_000_000, channel_bandwidth=10**9,
                       channel_setup_ns=100)


def make_array(media_config, seed=1, blocks=4):
    sim = Simulator()
    model = MediaErrorModel(media_config, seed=seed)
    array = FlashArray(sim, small_geometry(blocks=blocks), small_timing(),
                       media=model)
    return sim, array


def make_media_ssd(media=None, media_seed=0, ftl=None, controller=None,
                   blocks=8):
    sim = Simulator()
    spec = SsdSpec(
        geometry=small_geometry(blocks=blocks, channels=2),
        timing=small_timing(),
        ftl=ftl if ftl is not None else FtlConfig(mapping_unit=4096),
        interface=InterfaceConfig(queue_depth=8, command_overhead_ns=5_000,
                                  pcie_bandwidth=3_200_000_000),
        controller=controller if controller is not None else
        ControllerConfig(read_cache_units=0),
        media=media,
        media_seed=media_seed,
    )
    return sim, Ssd(sim, spec)


def run(sim, generator):
    proc = spawn(sim, generator)
    sim.run()
    assert proc.triggered and proc.ok, getattr(proc, "exception", None)
    return proc.value


class TestMediaErrorModel:
    def test_quiet_model_never_fails(self):
        model = quiet_model()
        for block in range(8):
            assert not model.program_fails(block, erase_count=10_000)
            assert not model.erase_fails(block, erase_count=10_000)
            assert model.read_attempts(block, 10_000, 10**12, 10**6) == 1

    def test_same_seed_same_draw_sequence(self):
        config = MediaErrorConfig(enabled=True, program_fail_base=0.5,
                                  erase_fail_base=0.5, read_uecc_base=0.5)
        first = MediaErrorModel(config, seed=42)
        second = MediaErrorModel(config, seed=42)
        for block in (0, 1, 2):
            for _ in range(32):
                assert first.program_fails(block, 0) == \
                    second.program_fails(block, 0)
                assert first.read_attempts(block, 0, 0, 0) == \
                    second.read_attempts(block, 0, 0, 0)

    def test_different_seeds_diverge(self):
        config = MediaErrorConfig(enabled=True, program_fail_base=0.5)
        first = MediaErrorModel(config, seed=1)
        second = MediaErrorModel(config, seed=2)
        draws_a = [first.program_fails(0, 0) for _ in range(64)]
        draws_b = [second.program_fails(0, 0) for _ in range(64)]
        assert draws_a != draws_b

    def test_draws_are_order_robust_across_blocks(self):
        """Per-block draw streams don't depend on interleaving order."""
        config = MediaErrorConfig(enabled=True, program_fail_base=0.5)
        sequential = MediaErrorModel(config, seed=9)
        interleaved = MediaErrorModel(config, seed=9)

        seq = {0: [], 1: []}
        for block in (0, 1):
            for _ in range(16):
                seq[block].append(sequential.program_fails(block, 0))
        inter = {0: [], 1: []}
        for _ in range(16):
            for block in (1, 0):  # opposite visiting order
                inter[block].append(interleaved.program_fails(block, 0))
        assert seq == inter

    def test_wear_raises_failure_probability(self):
        config = MediaErrorConfig(enabled=True, program_fail_base=1e-3)
        model = MediaErrorModel(config, seed=0)
        fresh = model.program_fail_probability(erase_count=0)
        worn = model.program_fail_probability(erase_count=30_000)
        assert worn > fresh
        assert worn <= config.max_probability

    def test_retention_and_disturb_raise_uecc_probability(self):
        config = MediaErrorConfig(enabled=True, read_uecc_base=1e-4)
        model = MediaErrorModel(config, seed=0)
        base = model.read_uecc_probability(0, 0, 0)
        aged = model.read_uecc_probability(0, 10**12, 0)
        disturbed = model.read_uecc_probability(
            0, 0, READ_DISTURB_THRESHOLD + READ_DISTURB_SCALE)
        assert aged > base
        assert disturbed > base

    def test_read_attempts_bounded_by_retry_ladder(self):
        config = MediaErrorConfig(enabled=True, read_uecc_base=0.6,
                                  max_read_retries=2)
        model = MediaErrorModel(config, seed=5)
        outcomes = {model.read_attempts(0, 0, 0, 0) for _ in range(200)}
        assert outcomes <= {0, 1, 2, 3}
        assert 0 in outcomes      # some reads exhaust every level
        assert 1 in outcomes      # and some succeed first try

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MediaErrorConfig(program_fail_base=1.5)
        with pytest.raises(ConfigError):
            MediaErrorConfig(max_read_retries=-1)
        with pytest.raises(ConfigError):
            MediaErrorConfig(max_probability=0.0)


class TestFlashFailureSurfaces:
    def test_program_fail_raises_and_consumes_page(self):
        sim, array = make_array(MediaErrorConfig(
            enabled=True, program_fail_base=1.0, max_probability=1.0))

        def proc():
            with pytest.raises(MediaProgramError):
                yield from array.program_page(0, {"payload": 1},
                                              oob=[(0, 1)])

        run(sim, proc())
        assert array.stats.value("media.program_fail") == 1
        # The page is consumed: WRITTEN but with nulled OOB.
        block = array.block(0)
        assert block.write_pointer >= 1
        assert array.page_oob(0) in (None, [None])

    def test_erase_fail_raises_and_spends_cycle(self):
        sim, array = make_array(MediaErrorConfig(
            enabled=True, erase_fail_base=1.0, max_probability=1.0))
        before = array.block(0).erase_count

        def proc():
            with pytest.raises(MediaEraseError):
                yield from array.erase_block(0)

        run(sim, proc())
        assert array.block(0).erase_count == before + 1
        assert array.stats.value("media.erase_fail") == 1

    def test_read_retry_counts_attempts(self):
        sim, array = make_array(MediaErrorConfig(
            enabled=True, read_uecc_base=0.5, max_read_retries=3), seed=3)

        def proc():
            yield from array.program_page(0, {"payload": 1}, oob=[(0, 1)])
            for _ in range(20):
                yield from array.read_page(0)

        run(sim, proc())
        assert array.stats.value("media.read_retry") > 0

    def test_wear_stats_shape(self):
        sim, array = make_array(MediaErrorConfig(enabled=False))
        stats = array.wear_stats()
        assert set(stats) == {"min", "max", "mean"}
        assert stats["min"] == stats["max"] == stats["mean"] == 0.0


class TestBadBlockManagement:
    def test_program_fail_relocation_preserves_data(self):
        """Program failures self-heal below the host: data still reads."""
        sim, ssd = make_media_ssd(media=MediaErrorConfig(
            enabled=True, program_fail_base=0.3), media_seed=17)

        def proc():
            for lba in range(0, 64, 8):
                completion = yield from ssd.write(
                    lba, 8, tags=[f"t{lba + s}" for s in range(8)])
                assert completion.ok
            tags = []
            for lba in range(0, 64, 8):
                tags.extend((yield from ssd.read(lba, 8)))
            return tags

        tags = run(sim, proc())
        assert tags == [f"t{s}" for s in range(64)]
        snapshot = ssd.stats.snapshot()
        assert snapshot.get("media.program_fail", 0) > 0
        assert snapshot.get("media.relocations", 0) > 0

    def test_retire_block_quarantines_and_degrades_past_budget(self):
        sim, ssd = make_media_ssd(
            ftl=FtlConfig(mapping_unit=4096, spare_block_budget=0))
        ssd.ftl.preload(0, 256, tags=[f"t{s}" for s in range(256)])
        full = sorted(ssd.ftl.allocator.full_blocks)
        assert full, "preload should have filled at least one block"
        victim = full[0]

        ssd.ftl.retire_block(victim, cause="erase_fail")

        assert victim in ssd.ftl.grown_bad
        assert ssd.array.block(victim).grown_bad
        assert victim not in ssd.ftl.allocator.full_blocks
        assert ssd.stats.value("ftl.bad_blocks") == 1
        assert ssd.stats.value("ftl.bad_blocks.erase_fail") == 1
        # Budget of 0 spares means the first retirement degrades.
        assert ssd.degraded
        assert "spare blocks exhausted" in ssd.degraded_reason
        # Retiring again is a no-op.
        ssd.ftl.retire_block(victim, cause="erase_fail")
        assert ssd.stats.value("ftl.bad_blocks") == 1

    def test_degraded_device_rejects_writes_serves_reads(self):
        """READ_ONLY is a typed completion — the submitter survives."""
        sim, ssd = make_media_ssd()
        ssd.ftl.preload(0, 8, tags=[f"t{s}" for s in range(8)])
        ssd.ftl.enter_degraded("test: spares exhausted")

        def proc():
            write = yield ssd.submit(Command(op=Op.WRITE, lba=64,
                                             nsectors=8, tags=["x"] * 8))
            tags = yield from ssd.read(0, 8)
            return write, tags

        write, tags = run(sim, proc())
        assert write.status is Status.READ_ONLY
        assert not write.ok
        assert tags == [f"t{s}" for s in range(8)]
        assert ssd.stats.value("cmd.read_only_rejected") == 1
