"""Tests for the analysis/statistics/table utilities."""

import pytest

from repro.analysis import (
    format_table,
    geometric_pmf,
    linear_fit,
    print_table,
    r_squared,
    scaling_exponent,
    summarize,
    total_variation_distance,
)
from repro.errors import ConfigurationError


class TestSummarize:
    def test_mean_and_interval(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.count == 3
        assert s.ci_low < 2.0 < s.ci_high

    def test_single_sample(self):
        s = summarize([5.0])
        assert s.mean == 5.0
        assert s.stddev == 0.0
        assert s.ci_half_width == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([])

    def test_str_contains_mean(self):
        assert "2.00" in str(summarize([2.0, 2.0]))


class TestFitting:
    def test_linear_fit_exact(self):
        slope, intercept = linear_fit([0, 1, 2], [1, 3, 5])
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(1.0)

    def test_r_squared_perfect(self):
        assert r_squared([0, 1, 2], [1, 3, 5]) == pytest.approx(1.0)

    def test_degenerate_fit_rejected(self):
        with pytest.raises(ConfigurationError):
            linear_fit([1, 1], [2, 3])
        with pytest.raises(ConfigurationError):
            linear_fit([1], [2])

    def test_scaling_exponent_quadratic(self):
        xs = [2, 4, 8, 16]
        ys = [x**2 for x in xs]
        assert scaling_exponent(xs, ys) == pytest.approx(2.0)

    def test_scaling_exponent_linear(self):
        xs = [3, 6, 12]
        ys = [5 * x for x in xs]
        assert scaling_exponent(xs, ys) == pytest.approx(1.0)

    def test_scaling_requires_positive(self):
        with pytest.raises(ConfigurationError):
            scaling_exponent([0, 1], [1, 2])


class TestDistributionHelpers:
    def test_geometric_pmf_sums_to_one(self):
        total = sum(geometric_pmf(0.3, k) for k in range(1, 200))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_geometric_pmf_validation(self):
        with pytest.raises(ConfigurationError):
            geometric_pmf(0.0, 1)
        with pytest.raises(ConfigurationError):
            geometric_pmf(0.5, 0)

    def test_total_variation(self):
        assert total_variation_distance([1.0], [1.0]) == 0.0
        assert total_variation_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
        assert total_variation_distance([0.5, 0.5], [0.5]) == pytest.approx(
            0.25
        )


class TestTables:
    def test_format_table_alignment(self):
        out = format_table(
            ["name", "value"], [["a", 1.5], ["bb", 22.5]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_row_width_mismatch(self):
        with pytest.raises(ConfigurationError):
            format_table(["a"], [["x", "y"]])

    def test_float_formatting(self):
        out = format_table(["v"], [[1234.5678], [0.1234], [12.34]])
        assert "1,235" in out
        assert "0.123" in out
        assert "12.3" in out

    def test_print_table_smoke(self, capsys):
        print_table(["h"], [[1]])
        captured = capsys.readouterr()
        assert "h" in captured.out


class TestExperimentRegistry:
    def test_every_registered_bench_exists(self):
        import pathlib

        from repro.analysis import REGISTRY

        bench_dir = (
            pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
        )
        for experiment in REGISTRY:
            assert (bench_dir / experiment.bench_file).exists(), (
                experiment.exp_id
            )

    def test_every_bench_file_is_registered(self):
        import pathlib

        from repro.analysis import REGISTRY

        bench_dir = (
            pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
        )
        registered = {e.bench_file for e in REGISTRY}
        on_disk = {
            p.name
            for p in bench_dir.glob("bench_*.py")
        }
        assert on_disk == registered

    def test_ids_unique_and_ordered(self):
        from repro.analysis import REGISTRY

        ids = [e.exp_id for e in REGISTRY]
        assert len(set(ids)) == len(ids)
        assert ids == sorted(ids, key=lambda x: int(x[1:]))

    def test_by_id(self):
        from repro.analysis import by_id

        assert by_id("E3").paper_ref == "Theorem 4.4"
        with pytest.raises(KeyError):
            by_id("E99")

    def test_registry_table_renders(self):
        from repro.analysis import registry_table

        table = registry_table()
        assert "E1" in table and "E15" in table

    def test_modules_importable(self):
        import importlib

        from repro.analysis import REGISTRY

        for experiment in REGISTRY:
            for module in experiment.modules:
                importlib.import_module(module)
