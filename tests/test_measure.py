"""The shared measurement core every latency engine reports through."""

import math

import pytest

from repro.noc.measure import (
    LATENCY_CAP,
    LatencyMeter,
    LoadLatencyPoint,
    load_latency_curve,
    saturated_point,
    summarise,
)


class TestLatencyMeter:
    def test_offer_counts_only_after_warmup(self):
        meter = LatencyMeter(warmup=100)
        assert not meter.offer(50)
        assert meter.offer(100)
        assert meter.offer(150)
        assert meter.offered == 2

    def test_deliver_records_latency(self):
        meter = LatencyMeter(warmup=0)
        meter.offer(10)
        meter.deliver(10, 25)
        point = meter.summarise(0.01, zero_load_estimate=10.0)
        assert point.mean_latency_cycles == 15.0
        assert point.delivered_packets == 1
        assert point.acceptance == 1.0

    def test_local_delivery_costs_inject_eject_serialisation(self):
        meter = LatencyMeter(warmup=0)
        meter.offer(0)
        meter.deliver_local(packet_flits=4)
        assert meter.latencies == [5]  # 2 + (4 - 1)

    def test_undelivered_packets_deflate_acceptance(self):
        meter = LatencyMeter(warmup=0)
        for cycle in range(10):
            meter.offer(cycle)
        meter.deliver(0, 5)
        point = meter.summarise(0.01, zero_load_estimate=10.0)
        assert point.acceptance == pytest.approx(0.1)
        assert point.saturated  # > 10 % undelivered

    def test_rejects_negative_warmup(self):
        with pytest.raises(ValueError):
            LatencyMeter(warmup=-1)


class TestSummarise:
    def test_empty_is_saturated_inf(self):
        point = summarise(0.5, [], offered=10, zero_load_estimate=4.0)
        assert point.saturated
        assert math.isinf(point.mean_latency_cycles)
        assert point.delivered_packets == 0

    def test_unsaturated_point(self):
        point = summarise(0.01, [4, 5, 6], offered=3, zero_load_estimate=5.0)
        assert not point.saturated
        assert point.mean_latency_cycles == 5.0
        assert point.acceptance == 1.0

    def test_capped_latency_property(self):
        point = LoadLatencyPoint(0.5, math.inf, math.inf, 0, 10, True)
        assert point.capped_latency_cycles == LATENCY_CAP


class TestLoadLatencyCurve:
    @staticmethod
    def _fake_engine(log):
        """Saturates at rates >= 0.01."""

        def simulate(injection_rate):
            log.append(injection_rate)
            saturated = injection_rate >= 0.01
            return LoadLatencyPoint(
                injection_rate,
                1e9 if saturated else 10.0,
                1e9 if saturated else 12.0,
                0 if saturated else 100,
                100,
                saturated,
            )

        return simulate

    def test_stops_simulating_past_saturation(self):
        log = []
        points = load_latency_curve(
            self._fake_engine(log), (0.001, 0.005, 0.01, 0.02, 0.04)
        )
        assert log == [0.001, 0.005, 0.01]  # 0.02 / 0.04 synthesised
        assert len(points) == 5
        assert [p.saturated for p in points] == [False, False, True, True, True]
        assert math.isinf(points[-1].mean_latency_cycles)

    def test_out_of_order_rates_below_knee_still_simulated(self):
        log = []
        points = load_latency_curve(
            self._fake_engine(log), (0.02, 0.005, 0.001)
        )
        # 0.02 saturates first, but the lower rates must still run.
        assert log == [0.02, 0.005, 0.001]
        assert [p.saturated for p in points] == [True, False, False]

    def test_opt_out_simulates_everything(self):
        log = []
        load_latency_curve(
            self._fake_engine(log),
            (0.001, 0.01, 0.02),
            stop_on_saturation=False,
        )
        assert log == [0.001, 0.01, 0.02]

    def test_synthesised_point_shape(self):
        point = saturated_point(0.03)
        assert point.saturated
        assert point.offered_packets == 0
        assert point.acceptance == 1.0  # vacuous: nothing was simulated
