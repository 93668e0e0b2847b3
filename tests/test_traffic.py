"""Unit tests for traffic generation, zipf weights, flow sampling and
phases."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net.packet import lines_per_packet
from repro.net.traffic import (Phase, PhasedTraffic, TrafficGen, TrafficSpec,
                               zipf_weights)
from repro.sim.config import TINY_PLATFORM
from repro.sim.engine import Simulation
from repro.sim.platform import Platform
from repro.workloads.streams import ZipfKeyStream, ZipfSampler


class TestZipfWeights:
    def test_normalized(self):
        assert zipf_weights(100, 0.99).sum() == pytest.approx(1.0)

    def test_theta_zero_uniform(self):
        w = zipf_weights(10, 0.0)
        assert np.allclose(w, 0.1)

    def test_skew_orders_weights(self):
        w = zipf_weights(50, 0.99)
        assert all(w[i] >= w[i + 1] for i in range(49))
        assert w[0] > 5 * w[-1]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 0.99)


class TestTrafficSpec:
    def test_line_rate_scaled(self):
        spec = TrafficSpec.line_rate(40.0, 64, scale=1e-3)
        assert spec.pps == pytest.approx(40e9 / 8 / 84 * 1e-3)

    def test_scaled_factor(self):
        spec = TrafficSpec(pps=1000.0).scaled(0.5)
        assert spec.pps == 500.0

    @pytest.mark.parametrize("kwargs", [
        {"pps": -1}, {"pps": 10, "packet_size": 0},
        {"pps": 10, "n_flows": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrafficSpec(**kwargs)


class TestTrafficGen:
    """The arrival recurrence the engine runs: ``sample_quantum``."""

    def test_deterministic_rate_with_carry(self, rng):
        gen = TrafficGen(TrafficSpec(pps=1000.0), rng)
        total = sum(gen.sample_quantum(0.0101, 10, 0.0).total
                    for _ in range(10))
        assert total == pytest.approx(1000 * 1.01, rel=0.01)

    def test_fractional_rates_accumulate(self, rng):
        """0.4 packets per sub-step: the carry adds up to whole packets,
        across quanta too."""
        gen = TrafficGen(TrafficSpec(pps=0.4), rng)
        counts = np.concatenate([gen.sample_quantum(1.0, 3, 0.0).counts()
                                 for _ in range(4)])
        assert counts.tolist() == [0, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0]

    def test_burstiness_varies_counts(self, rng):
        gen = TrafficGen(TrafficSpec(pps=1000.0, burstiness=0.5), rng)
        counts = gen.sample_quantum(0.1, 50, 0.0).counts()
        assert len(set(counts.tolist())) > 5  # not deterministic

    def test_burstiness_preserves_mean_rate(self, rng):
        gen = TrafficGen(TrafficSpec(pps=1000.0, burstiness=0.6), rng)
        total = sum(gen.sample_quantum(0.1, 100, 0.0).total
                    for _ in range(30))
        assert total == pytest.approx(1000.0 * 0.1 * 3000, rel=0.05)

    def test_single_flow_ids(self, rng):
        gen = TrafficGen(TrafficSpec(pps=10.0), rng)
        bundle = gen.sample_quantum(1.0, 2, 0.0)
        assert bundle.total == 20
        assert set(bundle.flows.tolist()) == {0}
        assert set(bundle.sizes.tolist()) == {64}

    def test_zipf_flow_ids_skewed(self, rng):
        gen = TrafficGen(TrafficSpec(pps=5000.0, n_flows=1000,
                                     zipf_theta=0.99), rng)
        ids = gen.sample_quantum(1.0, 1, 0.0).flows
        assert ids.size == 5000
        # Head flows dominate under Zipf(0.99).
        assert (ids < 10).mean() > 0.2

    def test_zero_count(self, rng):
        """An empty quantum draws no flow id and leaves the RNG as it
        was."""
        gen = TrafficGen(TrafficSpec(pps=0.0, n_flows=10), rng)
        state = rng.bit_generator.state
        bundle = gen.sample_quantum(0.1, 4, 0.0)
        assert bundle.total == 0 and bundle.flows.size == 0
        assert bundle.counts().tolist() == [0, 0, 0, 0]
        assert rng.bit_generator.state == state


def reference_cdf(n, theta):
    """The CDF ``Generator.choice`` builds from ``p=zipf_weights(n, theta)``."""
    cdf = zipf_weights(n, theta).cumsum()
    cdf /= cdf[-1]
    return cdf


def edge_uniforms(m, cdf):
    """Every bucket edge j/m of an m-bucket guide table, the largest
    double below each, every CDF entry below 1 and the ends of [0, 1)."""
    edges = np.arange(m) / m
    below = np.nextafter(np.arange(1, m + 1) / m, 0.0)
    return np.concatenate([edges, below, cdf[cdf < 1.0],
                           [0.0, np.nextafter(1.0, 0.0)]])


def assert_lookups_exact(n, theta, seed):
    sampler = ZipfSampler(n, theta)
    cdf = reference_cdf(n, theta)
    m = 1 << (n.bit_length() - 1)
    u = np.concatenate([np.random.default_rng(seed).random(4096),
                        edge_uniforms(m, cdf)])
    got = sampler.lookup(u)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, cdf.searchsorted(u, side="right"))


class TestZipfSampler:
    """The guide-table sampler returns exactly what a binary search of
    the CDF returns, for random draws and at every bucket edge."""

    @given(n=st.integers(2, 1 << 17), theta=st.sampled_from([0.0, 0.3, 0.99,
                                                              1.2]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_lookup_equals_searchsorted(self, n, theta, seed):
        assert_lookups_exact(n, theta, seed)

    @pytest.mark.parametrize("theta", [0.3, 0.99])
    def test_lookup_equals_searchsorted_at_one_million(self, theta):
        assert_lookups_exact(1_000_000, theta, 9)

    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 65_536, 100_000])
    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.99, 1.2])
    def test_draws_equal_generator_choice(self, n, theta):
        sampler = ZipfSampler(n, theta)
        weights = zipf_weights(n, theta)
        for seed in range(3):
            ours = np.random.default_rng(seed)
            numpy = np.random.default_rng(seed)
            for size in (1, 7, 3000):
                np.testing.assert_array_equal(
                    sampler.draw(ours, size),
                    numpy.choice(n, size, p=weights))

    def test_zero_draw_leaves_rng_untouched(self):
        rng = np.random.default_rng(3)
        assert ZipfSampler(100, 0.99).draw(rng, 0).size == 0
        assert rng.random() == np.random.default_rng(3).random()

    @pytest.mark.parametrize("theta,width", [(0.0, 2), (0.99, 18)])
    def test_guide_table(self, theta, width):
        """At 100k flows: 2^16 + 1 int32 counts of the CDF entries at or
        below each bucket edge, at most half the CDF's bytes, and a
        widest bucket of ``width`` entries."""
        sampler = ZipfSampler(100_000, theta)
        guide = sampler._guide
        m = 1 << 16
        assert guide.dtype == np.int32
        assert guide.nbytes <= sampler._cdf.nbytes // 2
        np.testing.assert_array_equal(
            guide, reference_cdf(100_000, theta).searchsorted(
                np.arange(m + 1) / m, side="right"))
        assert np.diff(guide).max() == width

    def test_key_stream_draws_unchanged(self):
        """RocksDB's key stream draws what ``Generator.choice`` draws,
        call after call on one generator."""
        stream = ZipfKeyStream(50_000, 0.99, np.random.default_rng(5))
        numpy = np.random.default_rng(5)
        weights = zipf_weights(50_000, 0.99)
        for size in (1, 100, 2000):
            np.testing.assert_array_equal(
                stream.draw(size), numpy.choice(50_000, size, p=weights))


class TestSharedSamplers:
    """Streams of one simulation with one flow population share one
    sampler; simulations never share."""

    def build(self, specs):
        platform = Platform(TINY_PLATFORM)
        sim = Simulation(platform, seed=1)
        nic = platform.add_nic("n0", 40.0)
        gens = []
        for i, spec in enumerate(specs):
            vf = nic.add_vf(entries=64, name=f"vf{i}")
            gens.append(sim.attach_traffic(nic, vf, spec).gen)
        return gens

    def test_equal_populations_share_one_sampler(self):
        a, b, c, d = self.build([
            TrafficSpec(pps=10.0, n_flows=5000, zipf_theta=0.99),
            TrafficSpec(pps=20.0, packet_size=128, n_flows=5000,
                        zipf_theta=0.99),
            TrafficSpec(pps=10.0, n_flows=5000, zipf_theta=0.3),
            TrafficSpec(pps=10.0),
        ])
        assert a._sampler is b._sampler
        assert c._sampler is not a._sampler
        assert d._sampler is None

    def test_set_spec_reuses_the_simulations_sampler(self):
        """Fig. 9's flow jump: both streams grow to one population."""
        a, b = self.build([TrafficSpec(pps=10.0), TrafficSpec(pps=10.0)])
        grown = TrafficSpec(pps=10.0, n_flows=4096, zipf_theta=0.3)
        a.set_spec(grown)
        b.set_spec(grown)
        assert a._sampler is not None
        assert a._sampler is b._sampler

    def test_simulations_do_not_share(self):
        spec = TrafficSpec(pps=10.0, n_flows=5000, zipf_theta=0.99)
        (a,) = self.build([spec])
        (b,) = self.build([spec])
        assert a._sampler is not b._sampler

    def test_shared_sampler_keeps_each_streams_draws(self):
        """Sharing changes no draw: each stream still draws from its own
        generator what a private sampler would."""
        spec = TrafficSpec(pps=10.0, n_flows=5000, zipf_theta=0.99)
        a, b = self.build([spec, spec])
        assert a._sampler is b._sampler
        for gen in (a, b):
            private = TrafficGen(spec, np.random.default_rng())
            private._rng.bit_generator.state = gen._rng.bit_generator.state
            assert private._sampler is not gen._sampler
            np.testing.assert_array_equal(
                gen.sample_quantum(25.0, 2, 0.0).flows,
                private.sample_quantum(25.0, 2, 0.0).flows)


class TestPhasedTraffic:
    def test_spec_at_times(self):
        phased = PhasedTraffic([
            Phase(0.0, TrafficSpec(pps=100.0)),
            Phase(5.0, TrafficSpec(pps=500.0)),
        ])
        assert phased.spec_at(0.0).pps == 100.0
        assert phased.spec_at(4.9).pps == 100.0
        assert phased.spec_at(5.0).pps == 500.0
        assert phased.spec_at(100.0).pps == 500.0

    def test_requires_phase_at_zero(self):
        with pytest.raises(ValueError):
            PhasedTraffic([Phase(1.0, TrafficSpec(pps=1.0))])

    def test_requires_any_phase(self):
        with pytest.raises(ValueError):
            PhasedTraffic([])


class TestPacketHelpers:
    @pytest.mark.parametrize("size,lines", [(1, 1), (64, 1), (65, 2),
                                            (1500, 24), (1024, 16)])
    def test_lines_per_packet(self, size, lines):
        assert lines_per_packet(size) == lines

    def test_lines_per_packet_rejects_zero(self):
        with pytest.raises(ValueError):
            lines_per_packet(0)
