"""Tests for the KPI post-pass (repro.kpi) and the shared sketches.

KPIs must pool correctly (ratios from summed counters, not means of
ratios), agree between the in-memory report path and the telemetry-file
path, and land in a flat JSON file whose top-level scalars the
regression gate can consume.  The streaming sketches live in
repro.analysis and are re-exported by repro.service.
"""

from __future__ import annotations

import json
import math
import textwrap

import pytest

from repro.errors import ConfigurationError
from repro.kpi import (
    compute_kpis,
    kpi_filename,
    kpis_from_report,
    kpis_from_run_dir,
    write_kpi_report,
)


def record(case, metrics, *, cached=False, wall=0.01, replicate=0):
    return {
        "spec": {
            "exp_id": "scenario:t:abc",
            "case": case,
            "replicate": replicate,
            "seed": 1,
        },
        "metrics": metrics,
        "wall_time": wall,
        "cached": cached,
        "key": f"k{replicate}",
    }


class TestComputeKpis:
    def test_ratios_pool_from_summed_counters(self):
        # 10/10 and 0/10 must pool to 0.5, not mean-of-ratios artifacts.
        records = [
            record({"a": 1}, {"submitted": 10, "delivered": 10}),
            record({"a": 2}, {"submitted": 10, "delivered": 0}, replicate=1),
        ]
        kpis = compute_kpis(records, scenario="t")
        assert kpis["delivery_ratio"] == pytest.approx(0.5)
        assert kpis["submitted"] == 20
        assert kpis["tasks"] == 2
        assert kpis["cases"] == 2

    def test_collision_rate_pools(self):
        records = [
            record({}, {"transmissions": 100, "collisions": 10}),
            record({}, {"transmissions": 300, "collisions": 10},
                   replicate=1),
        ]
        kpis = compute_kpis(records, scenario="t")
        assert kpis["collision_rate"] == pytest.approx(20 / 400)

    def test_utilization_is_slot_weighted(self):
        records = [
            record({}, {"utilization": 1.0, "slots": 100}),
            record({}, {"utilization": 0.0, "slots": 300}, replicate=1),
        ]
        kpis = compute_kpis(records, scenario="t")
        assert kpis["utilization"] == pytest.approx(0.25)

    def test_latency_percentiles_weight_by_measured(self):
        records = [
            record({}, {"sojourn_p50_phases": 2.0,
                        "measured_delivered": 30}),
            record({}, {"sojourn_p50_phases": 6.0,
                        "measured_delivered": 10},
                   replicate=1),
        ]
        kpis = compute_kpis(records, scenario="t")
        assert kpis["latency_p50_phases"] == pytest.approx(3.0)

    def test_nan_metrics_are_skipped(self):
        records = [
            record({}, {"sojourn_p50_phases": float("nan"),
                        "submitted": 2, "delivered": 2}),
            record({}, {"sojourn_p50_phases": 4.0, "measured_delivered": 5,
                        "submitted": 3, "delivered": 3}, replicate=1),
        ]
        kpis = compute_kpis(records, scenario="t")
        assert kpis["latency_p50_phases"] == pytest.approx(4.0)
        assert not any(
            isinstance(v, float) and math.isnan(v)
            for v in kpis.values() if isinstance(v, (int, float))
        )

    def test_empty_records_raise(self):
        with pytest.raises(ConfigurationError):
            compute_kpis([])

    def test_per_case_breakdown(self):
        records = [
            record({"rate": 0.1}, {"delivered": 4}),
            record({"rate": 0.1}, {"delivered": 6}, replicate=1),
            record({"rate": 0.2}, {"delivered": 1}, replicate=0),
        ]
        kpis = compute_kpis(records, scenario="t")
        assert kpis["per_case"]["rate=0.1"]["delivered"] == pytest.approx(5.0)
        assert kpis["per_case"]["rate=0.2"]["delivered"] == pytest.approx(1.0)


class TestEndToEnd:
    @pytest.fixture()
    def compiled(self, tmp_path):
        from repro.scenario import compile_scenario, parse_scenario

        spec = tmp_path / "s.toml"
        spec.write_text(textwrap.dedent("""
            [scenario]
            name = "kpi-e2e"

            [topology]
            name = "path-6"

            [arrivals]
            kind = "bernoulli"
            rate = 0.2
            sources = "all"

            [protocol]
            kind = "collection"

            [run]
            seed = 7
            replications = 2
            horizon_phases = 12
        """))
        return compile_scenario(parse_scenario(spec))

    def test_report_and_telemetry_paths_agree(self, tmp_path, compiled):
        from repro.scenario import run_scenario

        run_dir = tmp_path / "run"
        report = run_scenario(compiled, workers=0, telemetry=run_dir)
        from_report = kpis_from_report(report)
        from_disk = kpis_from_run_dir(run_dir)
        wall_keys = {"wall_time_total", "wall_time_mean", "wall_time_p90"}
        trimmed = lambda k: {x: v for x, v in k.items() if x not in wall_keys}
        assert trimmed(from_report) == trimmed(from_disk)
        assert from_report["delivery_ratio"] > 0.0
        assert "latency_p50_phases" in from_report
        assert "latency_p99_phases" in from_report

    def test_latency_weights_exclude_warmup_deliveries(self, compiled):
        # The fixture's run keeps the default 25% warm-up, so each task
        # delivers more messages than it measures; the percentiles pool
        # by the measured count.
        from repro.scenario import run_scenario

        report = run_scenario(compiled, workers=0)
        metrics = [dict(outcome.metrics) for outcome in report.outcomes]
        assert any(
            m["measured_delivered"] < m["delivered"] for m in metrics
        )
        weights = [m["measured_delivered"] for m in metrics]
        expected = sum(
            m["sojourn_p50_phases"] * w for m, w in zip(metrics, weights)
        ) / sum(weights)
        kpis = kpis_from_report(report, scenario="kpi-e2e")
        assert kpis["latency_p50_phases"] == pytest.approx(expected)

    def test_written_file_shape(self, tmp_path, compiled):
        from repro.scenario import run_scenario

        report = run_scenario(compiled, workers=0)
        kpis = kpis_from_report(report, scenario="kpi-e2e")
        path = write_kpi_report(kpis, tmp_path)
        assert path.name == "KPI_kpi-e2e.json"
        loaded = json.loads(path.read_text())
        # The regression gate reads top-level scalar keys.
        assert isinstance(loaded["delivery_ratio"], float)
        assert isinstance(loaded["tasks"], int)


class TestWriter:
    def test_filename_sanitized(self):
        assert kpi_filename("flash crowd/v2") == "KPI_flash_crowd_v2.json"

    def test_explicit_file_target(self, tmp_path):
        path = write_kpi_report({"scenario": "x", "a": 1},
                                tmp_path / "out.json")
        assert path == tmp_path / "out.json"
        assert json.loads(path.read_text())["a"] == 1


class TestSketchesMove:
    def test_analysis_exports(self):
        from repro.analysis import P2Quantile, RateWindow, Welford

        w = Welford()
        for x in (1.0, 2.0, 3.0):
            w.add(x)
        assert w.mean == pytest.approx(2.0)
        q = P2Quantile(0.5)
        for x in range(1, 12):
            q.add(float(x))
        assert q.value == pytest.approx(6.0, abs=1.0)
        assert RateWindow is not None
