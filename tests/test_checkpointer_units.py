"""Pure-logic tests for checkpointer helpers and report math."""

import pytest

from repro.checkin.format import LogType
from repro.engine import CheckpointPolicy, CheckpointReport, cow_entry_for
from repro.engine.checkpointer import (
    CKPT_PARALLELISM,
    COW_BATCH,
    METADATA_BYTES_PER_ENTRY,
)
from repro.engine.records import JournalEntry


def entry(**kwargs):
    defaults = dict(key=1, version=2, target_lba=1000, target_nsectors=2,
                    value_bytes=900, stored_bytes=1024, journal_lba=16,
                    journal_nsectors=2, src_offset=0,
                    log_type=LogType.FULL, exclusive_sectors=True)
    defaults.update(kwargs)
    return JournalEntry(**defaults)


class TestCowEntryFor:
    def test_full_exclusive_becomes_plain_descriptor(self):
        cow = cow_entry_for(entry())
        assert cow.src_lba == 16
        assert cow.dst_lba == 1000
        assert cow.nsectors == 2
        assert cow.src_nsectors == 2
        assert cow.src_offset == 0
        assert cow.length_bytes is None  # remap-eligible shape

    def test_merged_carries_offset_and_length(self):
        cow = cow_entry_for(entry(log_type=LogType.MERGED,
                                  exclusive_sectors=False,
                                  src_offset=256, stored_bytes=256,
                                  value_bytes=200, target_nsectors=1,
                                  journal_nsectors=1))
        assert cow.src_offset == 256
        assert cow.length_bytes == 256
        assert cow.nsectors == 1

    def test_packed_log_never_remap_shaped(self):
        cow = cow_entry_for(entry(log_type=LogType.FULL,
                                  exclusive_sectors=False,
                                  src_offset=16))
        assert cow.length_bytes is not None

    def test_partial_with_zero_offset_still_copy_shaped(self):
        cow = cow_entry_for(entry(log_type=LogType.PARTIAL,
                                  exclusive_sectors=True,
                                  src_offset=0, stored_bytes=384,
                                  value_bytes=300, target_nsectors=1,
                                  journal_nsectors=1))
        assert cow.length_bytes == 384


class TestCheckpointReport:
    def test_duration(self):
        report = CheckpointReport(strategy="x", started_at=100,
                                  finished_at=400)
        assert report.duration_ns == 300

    def test_defaults(self):
        report = CheckpointReport(strategy="x", started_at=0)
        assert report.remapped_units == 0
        assert report.journal_sectors_freed == 0


class TestCheckpointPolicy:
    def test_defaults(self):
        assert CheckpointPolicy().metadata_lba == 0
        assert CKPT_PARALLELISM >= 1
        assert COW_BATCH >= 1
        assert METADATA_BYTES_PER_ENTRY > 0
