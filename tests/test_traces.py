"""Trace generation and the Fig 1 / Fig 12 analysis pipeline."""

import numpy as np
import pytest

from repro.traces import (
    HddTrendModel,
    IngestGenerator,
    analyze_service,
    compare_systems,
    service_a,
    service_b,
)
from repro.traces.generator import TransitionRateGenerator, four_cluster_rates


class TestIngestGenerator:
    def test_length_and_positivity(self):
        series = IngestGenerator(seed=1).generate(24 * 7)
        assert len(series) == 24 * 7
        assert np.all(series.values > 0)

    def test_warmup_extends_series(self):
        series = IngestGenerator(seed=1).generate(48, warmup_hours=24)
        assert len(series) == 72
        assert series.start_hour == 24

    def test_diurnal_cycle_visible(self):
        gen = IngestGenerator(seed=2, diurnal_amplitude=0.3, noise_sigma=0.0,
                              weekly_amplitude=0.0)
        series = gen.generate(48)
        by_hour = series.values[:24]
        assert by_hour.max() / by_hour.min() > 1.5

    def test_deterministic(self):
        a = IngestGenerator(seed=3).generate(100).values
        b = IngestGenerator(seed=3).generate(100).values
        assert np.array_equal(a, b)

    def test_mean_near_base(self):
        series = IngestGenerator(base_pb_per_hour=3.0, seed=4).generate(24 * 30)
        assert series.values.mean() == pytest.approx(3.0, rel=0.1)


class TestTransitionRates:
    def test_fig4_clusters(self):
        series = four_cluster_rates(hours=48)
        assert len(series) == 4
        # Millions of transitions per hour, ordered roughly by cluster size.
        means = [s.mean() for s in series]
        assert means[0] > means[-1]
        assert all(m > 1 for m in means)  # millions, like the paper

    def test_generator_scales_with_file_size(self):
        small = TransitionRateGenerator(mean_file_mb=64, seed=5).generate(24)
        large = TransitionRateGenerator(mean_file_mb=512, seed=5).generate(24)
        assert small.mean() > large.mean()


class TestServiceAnalysis:
    def test_baseline_transcode_share_matches_paper_band(self):
        analysis = analyze_service(service_a(), "baseline", hours=24 * 14)
        share = analysis.mean_transcode() / analysis.mean_total()
        assert 0.15 < share < 0.35  # paper: transcode is 20-33% of total

    def test_service_a_reductions(self):
        comp = compare_systems(service_a(), hours=24 * 30)
        assert comp.total_reduction == pytest.approx(0.43, abs=0.06)
        assert comp.transcode_reduction == pytest.approx(0.95, abs=0.04)
        assert 0.15 < comp.ingest_reduction < 0.35  # paper: ~20%

    def test_service_b_reductions(self):
        comp = compare_systems(service_b(), hours=24 * 30)
        assert comp.total_reduction == pytest.approx(0.51, abs=0.06)
        assert comp.transcode_reduction == pytest.approx(1.0, abs=1e-9)
        assert comp.ingest_reduction == pytest.approx(0.28, abs=0.05)

    def test_morph_first_transition_is_free(self):
        analysis = analyze_service(service_a(), "morph", hours=24 * 7)
        assert np.all(analysis.transcode_io["Hy->narrowCC"] == 0)
        assert np.all(analysis.transcode_io["Hy->medLRCC"] == 0)

    def test_flow_labels_complete(self):
        base = analyze_service(service_a(), "baseline", hours=24)
        assert set(base.transcode_io) == {
            "3r->narrowRS", "narrowRS->medLRC", "3r->medLRC", "medLRC->wideLRC",
        }

    def test_invalid_system_rejected(self):
        with pytest.raises(ValueError):
            analyze_service(service_a(), "hdfs", hours=24)

    def test_hourly_series_shapes(self):
        analysis = analyze_service(service_b(), "baseline", hours=24 * 3)
        assert len(analysis.total_io) == 24 * 3
        assert np.all(analysis.total_io >= analysis.transcode_total)


class TestHddTrend:
    def test_ratio_declines(self):
        model = HddTrendModel()
        years, ratio = model.measured_series()
        assert ratio[0] > ratio[-1]

    def test_decay_rate_near_paper(self):
        model = HddTrendModel()
        assert model.ratio_decay == pytest.approx(0.06, abs=0.03)
        assert model.fitted_decay_from_anchors() == pytest.approx(0.085, abs=0.035)

    def test_hamr_cliff(self):
        model = HddTrendModel()
        _y, measured = model.measured_series()
        _sy, speculated = model.speculated_series()
        assert speculated.min() < measured.min()



class TestTransitionQueue:
    def test_under_capacity_passes_through(self):
        from repro.traces.generator import TransitionQueueModel

        model = TransitionQueueModel(capacity_millions=100.0)
        demanded = np.array([1.0, 2.0, 3.0])
        out = model.series(demanded)
        assert np.allclose(out, demanded)  # no backlog ever forms

    def test_burst_builds_and_drains_backlog(self):
        from repro.traces.generator import TransitionQueueModel

        model = TransitionQueueModel(capacity_millions=2.0)
        demanded = np.array([5.0, 0.0, 0.0, 0.0])
        out = model.series(demanded)
        # Hour 0: 2 performed + 3 pending = 5; hour 1: 2 + 1 = 3; then 1, 0.
        assert np.allclose(out, [5.0, 3.0, 1.0, 0.0])

    def test_conservation(self):
        """Everything demanded is eventually performed exactly once."""
        from repro.traces.generator import TransitionQueueModel

        rng = np.random.default_rng(0)
        demanded = rng.uniform(0, 4, 200)
        model = TransitionQueueModel(capacity_millions=2.5)
        out = model.series(np.concatenate([demanded, np.zeros(50)]))
        performed_total = 0.0
        pending = 0.0
        for i, d in enumerate(np.concatenate([demanded, np.zeros(50)])):
            queue = pending + d
            performed = min(queue, 2.5)
            pending = queue - performed
            performed_total += performed
        assert performed_total == pytest.approx(demanded.sum(), rel=1e-9)
