"""The bias re-lock loop: quarantine → recalibrate → back in service.

A :class:`~repro.faults.resilience.CalibrationWatchdog` carrying a
:class:`~repro.faults.resilience.BiasRelockController` turns
quarantine from a terminal state into a repair loop — the cluster
sweeps the drifted modulator's bias (the Figure-23 dev-kit sweep),
re-probes with a keyed noise substream, and readmits the core when the
probe passes.  These tests pin the full state machine on a seeded
fault schedule: the un-quarantine transition, the attempt budget, and
bit-identical replay of the whole scenario.
"""

from __future__ import annotations

import pytest

from repro.faults import (
    BiasRelockController,
    CalibrationWatchdog,
    DegradedCore,
    FaultSchedule,
    MZMBiasDrift,
)

from .conftest import make_cluster, steady_trace

#: Drift onset, well before the first probe.
ONSET_S = 1e-6
#: One watchdog interval; the first probe (at 100 µs) sees the drift.
INTERVAL_S = 100e-6


def relock_scenario(
    count=75, volts_per_s=3000.0, interval_s=INTERVAL_S, seed=11
):
    """A 4-core cluster, a seeded drift on core 1, a relock watchdog.

    At 3000 V/s the bias error reaches ~0.3 V by the first probe —
    far past the quarantine threshold — while post-re-lock drift stays
    under it for the rest of the trace, so exactly one repair cycle
    runs to completion.
    """
    schedule = FaultSchedule(seed=seed).mzm_bias_drift(
        at_s=ONSET_S, core=1, volts_per_s=volts_per_s
    )
    watchdog = CalibrationWatchdog(
        interval_s=interval_s, relock=BiasRelockController()
    )
    return schedule, watchdog


def accounted(result) -> int:
    return (
        result.served
        + result.dropped
        + result.failed
        + result.unfinished
    )


class TestUnQuarantine:
    def test_drifted_core_relocks_and_serves_again(self, tiny_dag):
        schedule, watchdog = relock_scenario()
        cluster = make_cluster(num_cores=4)
        cluster.deploy(tiny_dag)
        result = cluster.serve_trace(
            steady_trace(count=75),
            fault_schedule=schedule,
            watchdog=watchdog,
        )
        health = cluster.health[1]
        # The full cycle ran: quarantined once, re-locked once, and
        # the core ended the trace healthy, not benched.
        assert result.stats.quarantines == 1
        assert result.stats.relocks == 1
        assert health.state == "healthy"
        assert health.relocks == 1
        assert health.relocked_at_s is not None
        assert health.quarantined_at_s is not None
        # The sweep takes real virtual time: readmission lags the
        # quarantine by at least one full sweep.
        assert health.relocked_at_s - health.quarantined_at_s == (
            pytest.approx(watchdog.relock.sweep_duration_s)
        )
        assert result.stats.core_health[1] == "healthy"
        # The core *served* after readmission — the point of the loop.
        post_relock = [
            r
            for r in result.records
            if r.core == 1 and r.finish_s > health.relocked_at_s
        ]
        assert post_relock
        # And nothing was dispatched to it while benched.
        benched = [
            r
            for r in result.records
            if r.core == 1
            and health.quarantined_at_s
            < r.finish_s
            <= health.relocked_at_s
        ]
        assert not benched
        assert accounted(result) == result.offered

    def test_plain_watchdog_quarantine_stays_terminal(self, tiny_dag):
        """Without a controller the pre-existing contract holds: the
        core is benched for good and nothing re-locks."""
        schedule, _ = relock_scenario()
        cluster = make_cluster(num_cores=4)
        cluster.deploy(tiny_dag)
        result = cluster.serve_trace(
            steady_trace(count=75),
            fault_schedule=schedule,
            watchdog=CalibrationWatchdog(interval_s=INTERVAL_S),
        )
        assert cluster.health[1].state == "quarantined"
        assert result.stats.relocks == 0
        assert cluster.health[1].relocks == 0

    def test_attempt_budget_exhausts_to_permanent_quarantine(
        self, tiny_dag
    ):
        """A drift too fast to hold re-locks ``max_attempts`` times,
        then quarantine becomes permanent again."""
        schedule = FaultSchedule(seed=5).mzm_bias_drift(
            at_s=ONSET_S, core=1, volts_per_s=2e5
        )
        watchdog = CalibrationWatchdog(
            interval_s=20e-6,
            relock=BiasRelockController(max_attempts=2),
        )
        cluster = make_cluster(num_cores=4)
        cluster.deploy(tiny_dag)
        result = cluster.serve_trace(
            steady_trace(count=150),
            fault_schedule=schedule,
            watchdog=watchdog,
        )
        health = cluster.health[1]
        assert health.state == "quarantined"
        # Both sweeps ran and initially passed (the sweep *does* find
        # the null; the drift just re-trips it), then the third
        # quarantine had no attempts left.
        assert result.stats.relocks == 2
        assert result.stats.quarantines == 3
        assert accounted(result) == result.offered

    def test_seeded_scenario_replays_bit_identically(self, tiny_dag):
        """Same seed, same schedule → the whole repair cycle replays
        exactly, predictions and timings included."""

        def run():
            schedule, watchdog = relock_scenario()
            cluster = make_cluster(num_cores=4)
            cluster.deploy(tiny_dag)
            result = cluster.serve_trace(
                steady_trace(count=75),
                fault_schedule=schedule,
                watchdog=watchdog,
            )
            fingerprint = [
                (
                    r.request.request_id,
                    r.core,
                    r.finish_s,
                    r.prediction,
                )
                for r in result.records
            ]
            return fingerprint, cluster.health[1].relocked_at_s

        first, second = run(), run()
        assert first == second


class TestRelockController:
    def test_sweep_corrects_a_wandered_bias(self, noiseless_core):
        """The dev-kit sweep finds the drifted null to within the
        sweep grid's resolution."""
        wrapped = DegradedCore(noiseless_core)
        drift = MZMBiasDrift(onset_s=0.0, volts_per_s=100.0)
        wrapped.install(drift)
        now = 20e-3  # 2 V of accumulated bias error
        assert abs(drift.bias_error_volts(now)) == pytest.approx(2.0)
        controller = BiasRelockController()
        report = controller.relock_core(1, wrapped, now)
        assert report.core == 1
        assert report.relocked == 1
        assert report.uncorrectable == 0
        assert report.duration_s == controller.sweep_duration_s
        # Residual bounded by the 0.1 V sweep grid (ADC-floor ties
        # can leave up to ~1.5 grid steps).
        assert abs(report.residual_volts[0]) <= 0.15
        assert abs(drift.bias_error_volts(now)) <= 0.15

    def test_unwrapped_core_reports_no_work(self, noiseless_core):
        report = BiasRelockController().relock_core(0, noiseless_core, 0.0)
        assert report.relocked == 0
        assert report.uncorrectable == 0
        assert report.residual_volts == ()

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            BiasRelockController(max_attempts=0)
