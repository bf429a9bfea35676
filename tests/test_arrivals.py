"""Property tests for the open-loop arrival generators.

The arrival layer is pure (no simulator involved): a seeded RNG plus an
:class:`ArrivalSpec` deterministically yields a sorted list of integer
nanosecond instants.  Hypothesis sweeps the claims that everything else
builds on:

* instants are non-negative, sorted, and exactly ``count`` long;
* same seed → byte-identical stream; different seed → different stream;
* the empirical rate matches the configured schedule within tolerance
  (thinning correctness, not just plausibility);
* merged per-tenant streams are globally time-ordered and lose nothing.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.common.rng import SeededRng
from repro.common.units import MS, SEC
from repro.workload.arrivals import (
    DIURNAL_PERIOD_NS,
    ArrivalSpec,
    arrival_times,
    bounded_pareto,
    merge_streams,
)

SPECS = st.builds(
    ArrivalSpec,
    rate_ops_per_sec=st.sampled_from([20_000.0, 100_000.0, 400_000.0]),
    process=st.sampled_from(["poisson", "bursts"]),
    schedule=st.sampled_from(["constant", "diurnal", "flash-crowd"]),
)


class TestStreamShape:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spec=SPECS, seed=st.integers(0, 2**16),
           count=st.integers(1, 400))
    def test_sorted_nonnegative_exact_count(self, spec, seed, count):
        times = arrival_times(spec, SeededRng(seed).fork("a"), count)
        assert len(times) == count
        assert all(isinstance(t, int) and t >= 0 for t in times)
        assert all(a <= b for a, b in zip(times, times[1:]))

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spec=SPECS, seed=st.integers(0, 2**16))
    def test_same_seed_byte_identical(self, spec, seed):
        first = arrival_times(spec, SeededRng(seed).fork("a"), 200)
        second = arrival_times(spec, SeededRng(seed).fork("a"), 200)
        assert first == second

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spec=SPECS, seed=st.integers(0, 2**15))
    def test_different_seed_differs(self, spec, seed):
        first = arrival_times(spec, SeededRng(seed).fork("a"), 200)
        second = arrival_times(spec, SeededRng(seed + 1).fork("a"), 200)
        assert first != second


class TestRateFidelity:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rate=st.sampled_from([50_000.0, 150_000.0, 400_000.0]),
           seed=st.integers(0, 2**16))
    def test_poisson_constant_rate_matches(self, rate, seed):
        # Mean inter-arrival of a Poisson stream is 1/rate; with n
        # samples the sample mean concentrates as 1/sqrt(n).
        count = 3_000
        times = arrival_times(
            ArrivalSpec(rate_ops_per_sec=rate),
            SeededRng(seed).fork("a"), count)
        empirical = count / (times[-1] / SEC) if times[-1] else 0.0
        assert empirical == pytest.approx(rate, rel=6.0 / math.sqrt(count))

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**16),
           process=st.sampled_from(["poisson", "bursts"]))
    def test_flash_crowd_concentrates_arrivals(self, seed, process):
        # The crowd window multiplies the base rate, so its share of
        # arrivals must exceed its share of wall time.
        spec = ArrivalSpec(rate_ops_per_sec=100_000.0, process=process,
                           schedule="flash-crowd",
                           crowd_start_ns=5 * MS, crowd_duration_ns=5 * MS,
                           crowd_multiplier=4.0)
        times = arrival_times(spec, SeededRng(seed).fork("a"), 2_000)
        lo, hi = spec.crowd_start_ns, spec.crowd_start_ns + \
            spec.crowd_duration_ns
        before = sum(1 for t in times if t < lo)
        crowd_end = min(max(times[-1], lo + 1), hi)
        in_crowd = sum(1 for t in times if lo <= t < crowd_end)
        # Arrival density (ops/ns) inside the crowd window vs before it:
        # a 4x rate multiplier must show up as a clearly higher density.
        density_before = before / lo
        density_crowd = in_crowd / (crowd_end - lo)
        assert density_crowd > 2.0 * density_before

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**16))
    def test_diurnal_rate_at_bounds(self, seed):
        spec = ArrivalSpec(rate_ops_per_sec=100_000.0, schedule="diurnal",
                           diurnal_amplitude=0.6)
        peak = spec.peak_rate()
        for t in range(0, DIURNAL_PERIOD_NS, DIURNAL_PERIOD_NS // 16):
            rate = spec.rate_at(t)
            assert 0.0 < rate <= peak + 1e-9


class TestBoundedPareto:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**16),
           alpha=st.sampled_from([0.8, 1.0, 1.4, 2.5]),
           bounds=st.sampled_from([(4, 64), (2, 2), (1, 1000)]))
    def test_samples_inside_bounds(self, seed, alpha, bounds):
        low, high = bounds
        rng = SeededRng(seed).fork("p")
        for _ in range(200):
            x = bounded_pareto(rng, alpha, low, high)
            assert low <= x <= high


class TestMerge:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**16),
           tenant_counts=st.lists(st.integers(1, 120), min_size=1,
                                  max_size=4))
    def test_merge_ordered_and_lossless(self, seed, tenant_counts):
        streams = [
            arrival_times(ArrivalSpec(rate_ops_per_sec=100_000.0),
                          SeededRng(seed).fork(f"t{i}"), count)
            for i, count in enumerate(tenant_counts)]
        merged = merge_streams(streams)
        assert len(merged) == sum(tenant_counts)
        assert all(a[0] <= b[0] for a, b in zip(merged, merged[1:]))
        for i, stream in enumerate(streams):
            assert [t for t, tenant in merged if tenant == i] == stream

    def test_merge_rejects_unsorted_stream(self):
        with pytest.raises(ConfigError):
            merge_streams([[3, 1, 2]])


class TestSpecValidation:
    def test_bad_process(self):
        with pytest.raises(ConfigError):
            ArrivalSpec(process="open-faucet")

    def test_bad_rate(self):
        with pytest.raises(ConfigError):
            ArrivalSpec(rate_ops_per_sec=0.0)

    def test_bad_burst_bounds(self):
        with pytest.raises(ConfigError):
            ArrivalSpec(burst_min_ops=64, burst_max_ops=4)
