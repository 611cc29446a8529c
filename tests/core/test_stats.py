"""Tests for the shared serving statistics (bounded-memory reservoir).

``TestBlockAccounting`` holds block accounting (``add_many``,
``charge_many``: one generator call per block for its reservoir slots)
to the per-value reference, generator position included: a silent
fall-back to landing served requests one at a time is a ~1.8x
fleet-engine slowdown with bit-identical results, so no ratio gate and
no digest sees it.  ``TestStreamedServing``
(``tests/sim/test_simulator.py``) and ``TestBlockLanding``
(``tests/traffic/test_fleet.py``) pin the same thing one and two layers
up, with the call budgets.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DEFAULT_RESERVOIR_CAPACITY,
    EnergyLedger,
    LatencyReservoir,
    NICCounters,
    ServerStats,
)
from repro.core.stats import sequential_sum


class PerValueReservoir(LatencyReservoir):
    """The reference: Algorithm R as written, one scalar ``integers``
    draw per value past the fill — what block accounting must
    reproduce."""

    def add(self, value: float) -> None:
        self._count += 1
        self._total += value
        if self.tail_capacity:
            if len(self._tail) < self.tail_capacity:
                heapq.heappush(self._tail, value)
            elif value > self._tail[0]:
                heapq.heapreplace(self._tail, value)
        if len(self._samples) < self.capacity:
            self._samples.append(value)
            return
        slot = int(self._rng.integers(0, self._count))
        if slot < self.capacity:
            self._samples[slot] = value


def reservoir_state(res: LatencyReservoir) -> tuple:
    """Everything a reservoir holds, floats as hex, generator state
    included."""
    return (
        [v.hex() for v in res._samples],
        res.count,
        float(res.total).hex(),
        sorted(v.hex() for v in res._tail),
        res._tail_exact,
        [p.hex() for p in res.percentiles([0, 50, 99, 99.9, 100])]
        if res.count
        else None,
        repr(res._rng.bit_generator.state),
    )


def ledger_state(ledger: EnergyLedger) -> tuple:
    """An energy ledger's state, dict insertion order included."""
    return (
        [(k, v.hex()) for k, v in ledger.per_model_joules.items()],
        list(ledger.per_model_count.items()),
        reservoir_state(ledger._reservoir),
    )


class TestLatencyReservoir:
    def test_memory_bounded_under_sustained_traffic(self):
        res = LatencyReservoir(capacity=100)
        for i in range(50_000):
            res.add(float(i))
        assert len(res) == 100
        assert res.count == 50_000

    def test_mean_exact_despite_subsampling(self):
        res = LatencyReservoir(capacity=10)
        values = list(range(1, 1001))
        for v in values:
            res.add(float(v))
        assert res.mean == pytest.approx(np.mean(values))

    def test_small_streams_kept_verbatim(self):
        res = LatencyReservoir(capacity=100)
        for v in [5.0, 1.0, 3.0]:
            res.add(v)
        assert res.percentile(50) == 3.0

    def test_percentiles_statistically_stable(self):
        """A subsampled reservoir still estimates percentiles of the
        full uniform stream to within a few percent."""
        res = LatencyReservoir(capacity=4096)
        rng = np.random.default_rng(0)
        for v in rng.uniform(0.0, 1.0, size=50_000):
            res.add(float(v))
        p50, p95, p99 = res.percentiles([50, 95, 99])
        assert p50 == pytest.approx(0.50, abs=0.04)
        assert p95 == pytest.approx(0.95, abs=0.03)
        assert p99 == pytest.approx(0.99, abs=0.02)

    def test_empty_reservoir_raises(self):
        res = LatencyReservoir()
        with pytest.raises(ValueError, match="no samples"):
            res.percentile(50)
        with pytest.raises(ValueError, match="no samples"):
            _ = res.mean

    def test_invalid_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            LatencyReservoir(capacity=0)


# Few distinct values, so streams repeat them and tie at the tail's
# minimum; a second strategy mixes in arbitrary magnitudes.
_VALUES = st.one_of(
    st.sampled_from([0.0, 1e-6, 1e-6, 2.5e-4, 0.1, 0.1, 3.0]),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _VALUES),
        st.tuples(st.just("add_many"), st.lists(_VALUES, max_size=30)),
        st.tuples(st.just("merge"), st.lists(_VALUES, max_size=30)),
    ),
    max_size=25,
)


# Ties everywhere, signed zeros among them: what a top-K pick could
# reorder.
_TIED = st.sampled_from([0.0, -0.0, 1e-6, 1e-6, 0.5, 3.0])


class NlargestMerge(LatencyReservoir):
    """The reference merge: the tails' top K as ``heapq.nlargest``
    picks them."""

    def merge(self, other: LatencyReservoir) -> None:
        tail = heapq.nlargest(self.tail_capacity, self._tail + other._tail)
        super().merge(other)
        if self.tail_capacity and other.count:
            heapq.heapify(tail)
            self._tail = tail


class TestBlockAccounting:
    """``add_many`` / ``charge_many`` against the per-value reference."""

    @pytest.mark.parametrize("first", [2, 4097, 2**32 - 500])
    def test_block_integers_match_scalar_stream(self, first):
        """The numpy contract ``add_many`` rests on: ``integers`` with
        an array ``high`` consumes the bit stream exactly as one scalar
        call per element (32-bit draws share a buffered word; the last
        case crosses into 64-bit draws).  If a numpy upgrade breaks
        this, it fails here and not as a drifted benchmark digest."""
        scalar, block = np.random.default_rng(9), np.random.default_rng(9)
        scalar.integers(0, 7), block.integers(0, 7)  # half a word buffered
        highs = np.arange(first, first + 1000)
        expected = [int(scalar.integers(0, high)) for high in highs]
        assert block.integers(0, highs).tolist() == expected
        assert block.bit_generator.state == scalar.bit_generator.state

    def test_sequential_sum_adds_left_to_right(self):
        values = np.random.default_rng(1).random(5000)
        total = 0.5
        for value in values.tolist():
            total += value
        assert sequential_sum(0.5, values) == total
        assert sequential_sum(0.5, values[:0]) == 0.5

    @settings(max_examples=150, deadline=None)
    @given(ops=_OPS, capacity=st.integers(1, 12), tail=st.integers(0, 6))
    def test_any_interleaving_equals_per_value_adds(self, ops, capacity, tail):
        """add / add_many / merge in any order leave samples, count,
        sum, tail, percentiles and the generator as the per-value
        algorithm does — duplicates and blocks straddling the fill
        point included."""
        block = LatencyReservoir(capacity, seed=5, tail_capacity=tail)
        reference = PerValueReservoir(capacity, seed=5, tail_capacity=tail)
        for kind, payload in ops:
            if kind == "add":
                block.add(payload)
                reference.add(payload)
            elif kind == "add_many":
                block.add_many(np.array(payload, dtype=np.float64))
                for value in payload:
                    reference.add(value)
            else:
                other = PerValueReservoir(capacity, seed=8, tail_capacity=tail)
                for value in payload:
                    other.add(value)
                block.merge(other)
                reference.merge(other)
        assert reservoir_state(block) == reservoir_state(reference)

    @settings(max_examples=150, deadline=None)
    @given(
        left=st.lists(_TIED, max_size=40),
        right=st.lists(_TIED, max_size=40),
        capacity=st.integers(1, 12),
        tail=st.integers(0, 8),
    )
    def test_merge_matches_nlargest_merge(self, left, right, capacity, tail):
        """The merged tail is the list ``heapq.nlargest`` keeps, in the
        same heap order (ties and signed zeros included); samples,
        ``_tail_exact``, sums and the generator are untouched by how
        the top K is picked."""
        sides = []
        for cls in (LatencyReservoir, NlargestMerge):
            ours = cls(capacity, seed=5, tail_capacity=tail)
            ours.add_many(np.array(left, dtype=np.float64))
            other = LatencyReservoir(capacity, seed=8, tail_capacity=tail)
            other.add_many(np.array(right, dtype=np.float64))
            ours.merge(other)
            sides.append(ours)
        sorted_merge, reference = sides
        assert [v.hex() for v in sorted_merge._tail] == [
            v.hex() for v in reference._tail
        ]
        assert sorted_merge._tail_exact == reference._tail_exact
        assert reservoir_state(sorted_merge) == reservoir_state(reference)

    def test_default_sizes_across_fill_points(self):
        """Default capacities: splits that straddle the tail fill (1024)
        and the sample fill (4096)."""
        values = np.random.default_rng(2).exponential(1e-3, 20_000)
        values[::7] = values[3]  # repeated values, some at the tail floor
        block, reference = LatencyReservoir(seed=3), PerValueReservoir(seed=3)
        cuts = [0, 100, 100, 1500, 4095, 4097, 4100, 9000, 9001, 20_000]
        for lo, hi in zip(cuts, cuts[1:]):
            block.add_many(values[lo:hi])
        block.add(0.25)
        for value in values.tolist() + [0.25]:
            reference.add(value)
        assert reservoir_state(block) == reservoir_state(reference)

    @settings(max_examples=60, deadline=None)
    @given(
        charges=st.lists(
            st.tuples(st.integers(0, 3), _VALUES), min_size=1, max_size=60
        ),
        cut=st.integers(0, 60),
    )
    def test_charge_many_equals_per_request_charges(self, charges, cut):
        names = ["d", "a", "c", "b"]
        codes = np.array([code for code, _ in charges])
        joules = np.array([value for _, value in charges])
        block, reference = EnergyLedger(capacity=8), EnergyLedger(capacity=8)
        reference._reservoir = PerValueReservoir(capacity=8)
        block.charge_many(names, codes[:cut], joules[:cut])
        block.charge_many(names, codes[cut:], joules[cut:])
        for code, value in charges:
            reference.charge(names[code], value)
        assert ledger_state(block) == ledger_state(reference)


class TestTailQuantiles:
    """Exact-tail tracking: p999 without per-request record retention."""

    def test_p999_exact_beyond_reservoir_capacity(self):
        res = LatencyReservoir(capacity=256, seed=0, tail_capacity=1024)
        rng = np.random.default_rng(3)
        values = rng.lognormal(0.0, 2.0, size=100_000)
        for v in values:
            res.add(float(v))
        assert res.percentile(99.9) == pytest.approx(
            float(np.percentile(values, 99.9)), rel=0, abs=0
        )
        assert res.percentile(99.99) == float(
            np.percentile(values, 99.99)
        )

    def test_p999_falls_back_to_reservoir_when_tail_too_short(self):
        # 100k values with a 16-value tail: p999 needs the top 100,
        # which the tail cannot vouch for — the estimate must come from
        # the reservoir, not a silently wrong "exact" answer.
        res = LatencyReservoir(capacity=4096, seed=0, tail_capacity=16)
        rng = np.random.default_rng(4)
        values = rng.uniform(0.0, 1.0, size=100_000)
        for v in values:
            res.add(float(v))
        assert res.percentile(99.9) == pytest.approx(0.999, abs=0.01)

    def test_merge_keeps_tail_exact_across_shards(self):
        rng = np.random.default_rng(5)
        values = rng.exponential(1.0, size=80_000)
        shards = []
        for i, chunk in enumerate(np.split(values, 4)):
            res = LatencyReservoir(capacity=128, seed=i)
            for v in chunk:
                res.add(float(v))
            shards.append(res)
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)
        assert merged.count == 80_000
        assert merged.percentile(99.9) == float(
            np.percentile(values, 99.9)
        )

    def test_merge_respects_weaker_side_guarantee(self):
        # One side tracks only the top 8: the merged tail can only be
        # exact that deep, so a quantile needing rank 50 from the top
        # must not claim tail-exactness.
        strong = LatencyReservoir(capacity=64, seed=0, tail_capacity=1024)
        weak = LatencyReservoir(capacity=64, seed=1, tail_capacity=8)
        rng = np.random.default_rng(6)
        for v in rng.uniform(0.0, 1.0, size=5_000):
            strong.add(float(v))
        for v in rng.uniform(0.0, 1.0, size=5_000):
            weak.add(float(v))
        strong.merge(weak)
        assert strong._tail_coverage() == 8
        # The top handful is still exact after the merge.
        assert strong.percentile(100.0) == max(
            max(strong._tail), strong.percentile(100.0)
        )

    def test_tail_disabled(self):
        res = LatencyReservoir(capacity=64, tail_capacity=0)
        for i in range(10_000):
            res.add(float(i))
        assert res._tail == []
        res.percentile(99.9)  # estimates, never raises

    @settings(max_examples=120, derandomize=True, deadline=None,
              database=None)
    @given(
        size=st.integers(1, 3_000),
        capacity=st.integers(1, 600),
        tail=st.integers(0, 64),
        merged=st.booleans(),
        qs=st.lists(
            st.one_of(
                st.floats(0.0, 100.0),
                st.sampled_from((0.0, 50.0, 99.0, 99.9, 99.99, 100.0)),
            ),
            min_size=1, max_size=6,
        ),
        seed=st.integers(0, 99),
    )
    def test_percentiles_equal_per_quantile_calls(
        self, size, capacity, tail, merged, qs, seed
    ):
        """``percentiles(qs)`` is each ``percentile(q)``, bit for bit,
        whether the reservoir is saturated or holds the whole stream,
        and whether a merge bounded its tail."""
        rng = np.random.default_rng(seed)
        res = LatencyReservoir(capacity, seed=seed, tail_capacity=tail)
        res.add_many(rng.lognormal(0.0, 1.5, size=size))
        if merged:
            other = LatencyReservoir(capacity, seed=seed + 1,
                                     tail_capacity=max(tail // 2, 1))
            other.add_many(rng.lognormal(0.0, 1.5, size=size))
            res.merge(other)
        together = res.percentiles(qs)
        assert [v.hex() for v in together] == [
            res.percentile(q).hex() for q in qs
        ]

    def test_percentiles_sort_the_tail_once(self, monkeypatch):
        from repro.core import stats as stats_module

        res = LatencyReservoir(capacity=256, seed=0, tail_capacity=1024)
        res.add_many(np.random.default_rng(7).lognormal(size=50_000))
        sorts = []

        def counting(values, **kwargs):
            sorts.append(len(values))
            return sorted(values, **kwargs)

        monkeypatch.setattr(stats_module, "sorted", counting, raising=False)
        res.percentiles([99.9, 99.95, 99.99])
        assert sorts == [1024]

    def test_summary_reports_p999(self):
        stats = ServerStats()
        for i in range(2_000):
            stats.record(1, i * 1e-6)
        summary = stats.summary()
        assert summary["p99_us"] <= summary["p999_us"]


class TestServerStats:
    def test_reservoir_capacity_configurable_and_documented_default(self):
        stats = ServerStats()
        assert stats.reservoir_capacity == DEFAULT_RESERVOIR_CAPACITY
        small = ServerStats(reservoir_capacity=8)
        for i in range(100):
            small.record(1, float(i))
        assert len(small._latencies) == 8
        assert small.served == 100

    def test_summary_uses_single_percentile_pass(self, monkeypatch):
        """p50/p95/p99 come from one np.percentile call, not four."""
        stats = ServerStats()
        for i in range(50):
            stats.record(1, i * 1e-6)
        calls = []
        real = np.percentile

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "percentile", counting)
        summary = stats.summary()
        assert len(calls) == 1
        assert summary["p50_us"] <= summary["p95_us"] <= summary["p99_us"]

    def test_mean_exact_beyond_capacity(self):
        stats = ServerStats(reservoir_capacity=4)
        latencies = [1e-6 * i for i in range(1, 101)]
        for v in latencies:
            stats.record(7, v)
        assert stats.mean_latency_s == pytest.approx(np.mean(latencies))
        assert stats.per_model_served == {7: 100}

    def test_empty_stats_raise(self):
        stats = ServerStats()
        with pytest.raises(ValueError, match="no requests"):
            stats.latency_percentile(50)
        with pytest.raises(ValueError, match="no requests"):
            _ = stats.mean_latency_s
        assert "p50_us" not in stats.summary()


class TestNICCounters:
    def test_summary_snapshot(self):
        counters = NICCounters()
        counters.served += 2
        counters.dropped += 1
        counters.frames_seen += 3
        assert counters.summary() == {
            "served": 2,
            "punted": 0,
            "dropped": 1,
            "frames_seen": 3,
        }
