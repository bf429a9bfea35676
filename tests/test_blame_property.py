"""Property tests: exact blame conservation, everywhere, always.

The attribution layer's load-bearing invariant is that every finalized
ledger's charges sum *exactly* — integer nanoseconds, no epsilon — to
the request's measured end-to-end latency.  Hypothesis sweeps the
claim across random seeds, checkpoint modes and tenant counts, and the
hostile corners ride along explicitly: flaky NAND (media retries divert
time into ``media_retry``) and a mid-run power cut (records finalized
before the crash must already be conserved).

Over-attribution raises :class:`~repro.obs.BlameError` inside the run
itself, so these tests double as a sweep for double-charged windows in
the instrumentation sites.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.rng import SeededRng
from repro.fault import power_cut
from repro.flash.media import MediaErrorConfig
from repro.obs import CATEGORIES
from repro.system import KvSystem, TenantSpec, run_config, tiny_config


def assert_all_conserved(report) -> None:
    """Exact conservation on every record of every tenant."""
    assert report is not None
    total_records = 0
    for name, collector in report.tenants:
        for total_ns, op, key, _ckpt, _span, charges in collector.records:
            assert sum(charges.values()) == total_ns, \
                f"{name}/{op} key={key}: {charges} != {total_ns}"
            assert all(category in CATEGORIES for category in charges)
            total_records += 1
    assert total_records > 0


def blamed_config(**overrides):
    defaults = dict(blame=True, total_queries=600, num_keys=64)
    defaults.update(overrides)
    return tiny_config(**defaults)


class TestConservationProperty:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**16),
           mode=st.sampled_from(["baseline", "isc_b", "checkin"]),
           tenant_count=st.integers(min_value=1, max_value=3))
    def test_conservation_across_modes_and_tenants(self, seed, mode,
                                                   tenant_count):
        tenants = tuple(TenantSpec() for _ in range(tenant_count)) \
            if tenant_count > 1 else None
        result = run_config(blamed_config(mode=mode, seed=seed,
                                          tenants=tenants))
        assert_all_conserved(result.blame)

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**16),
           rate=st.sampled_from([1e-3, 1e-2]),
           mode=st.sampled_from(["baseline", "checkin"]))
    def test_conservation_with_media_errors(self, seed, rate, mode):
        """Retries and backoff divert time into ``media_retry`` — the
        diverted windows must still tile the request exactly."""
        result = run_config(blamed_config(
            mode=mode, seed=seed,
            media=MediaErrorConfig(enabled=True, read_uecc_base=rate,
                                   program_fail_base=rate)))
        assert_all_conserved(result.blame)


class TestCrashConservation:
    def test_records_finalized_before_power_cut_are_conserved(self):
        """Kill the run mid-flight: every ledger recorded up to the cut
        conserves; in-flight requests never produce partial records."""
        system = KvSystem(blamed_config(mode="checkin", workload="A",
                                        seed=11, total_queries=5_000))
        system.load()
        for tenant in system.tenants:
            tenant.engine.start()
        done = system.make_client_pool().start()
        collector = system.tenants[0].blame
        assert collector is not None
        # Step until a few hundred requests finalized, then pull the plug.
        while not done.triggered and collector.requests < 300:
            assert system.sim.step(), "simulation starved"
        assert not done.triggered, "crash must land mid-run"
        power_cut(system, SeededRng(23))
        assert collector.requests >= 300
        for total_ns, op, key, _ckpt, _span, charges in collector.records:
            assert sum(charges.values()) == total_ns, \
                f"{op} key={key}: {charges} != {total_ns}"
