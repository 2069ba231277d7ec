"""Tests for the parallel experiment runner (repro.runner).

The load-bearing property is *determinism under sharding*: the same
grid run inline, over 2 workers, over 4 workers, or replayed from a
warm cache must produce bit-identical summaries.  Everything else —
content addressing, atomic cache writes, telemetry records, the CLI —
supports that contract.
"""

from __future__ import annotations

import json
import math
import random

import pytest

import repro
from repro.analysis.sweep import TopologyPoint, replicated, sweep
from repro.errors import ConfigurationError
from repro.graphs import path, star
from repro.radio.network import RadioNetwork
from repro.rng import content_key
from repro.runner import (
    ResultCache,
    RunTelemetry,
    TaskExecutionError,
    TaskSpec,
    bench_summary,
    get_experiment,
    median,
    read_journal,
    registered_ids,
    run_experiment,
    run_tasks,
    task_grid,
    write_bench_summary,
)
from repro.runner.defs import build_topology


# ----------------------------------------------------------------------
# Top-level helpers (must be picklable for worker processes)
# ----------------------------------------------------------------------

def seed_digit_metric(spec: TaskSpec):
    return {"value": spec.seed % 97}


def failing_metric(spec: TaskSpec):
    raise ValueError("boom")


def measure_nodes_plus_seed(graph, seed: int) -> float:
    return graph.num_nodes + (seed % 5)


def measure_seed_mod(seed: int) -> float:
    return float(seed % 13)


def build_path6(rng: random.Random):
    return path(6)


def build_star5(rng: random.Random):
    return star(5)


PICKLABLE_POINTS = [
    TopologyPoint("path-6", build_path6),
    TopologyPoint("star-5", build_star5),
]


# ----------------------------------------------------------------------
# Task model
# ----------------------------------------------------------------------

class TestTaskModel:
    def test_grid_shape_and_seed_determinism(self):
        cases = [{"k": 4}, {"k": 8}]
        a = task_grid("EX", cases, replications=3, seed=7)
        b = task_grid("EX", cases, replications=3, seed=7)
        assert len(a) == 6
        assert a == b
        # Seeds depend only on task identity, never on grid position:
        # the same case in a differently-ordered grid gets the same seed.
        flipped = task_grid("EX", list(reversed(cases)), 3, seed=7)
        by_label = {t.label(): t.seed for t in flipped}
        for task in a:
            assert by_label[task.label()] == task.seed

    def test_seeds_distinct_across_cases_and_replicates(self):
        tasks = task_grid("EX", [{"k": 1}, {"k": 2}], 4, seed=1)
        assert len({t.seed for t in tasks}) == len(tasks)

    def test_key_covers_version(self):
        spec = task_grid("EX", [{"k": 1}], 1, seed=1)[0]
        assert spec.key("1.0.0") != spec.key("1.0.1")
        assert spec.key("1.0.0") == spec.key("1.0.0")

    def test_record_round_trip(self):
        spec = task_grid("EX", [{"b": 2, "a": "x"}], 2, seed=9)[1]
        assert TaskSpec.from_record(spec.to_record()) == spec

    def test_rejects_non_scalar_case(self):
        with pytest.raises(ConfigurationError):
            task_grid("EX", [{"k": [1, 2]}], 1, seed=0)

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigurationError):
            task_grid("EX", [], 1, seed=0)
        with pytest.raises(ConfigurationError):
            task_grid("EX", [{"k": 1}], 0, seed=0)


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------

class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = "ab" + "0" * 62
        assert cache.get(key) is None
        cache.put(key, {"metrics": {"v": 1.5}})
        assert key in cache
        assert cache.get(key)["metrics"]["v"] == 1.5
        assert list(cache.keys()) == [key]

    def test_corrupt_entry_is_a_miss_and_discarded(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "1" * 62
        cache.put(key, {"metrics": {}})
        cache._path(key).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None
        assert key not in cache

    def test_hit_miss_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ee" + "2" * 62
        cache.get(key)
        cache.put(key, {"metrics": {}})
        cache.get(key)
        assert (cache.hits, cache.misses) == (1, 1)


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------

class TestExecutor:
    def test_inline_outcomes_in_grid_order(self):
        tasks = task_grid("EX", [{"k": 1}, {"k": 2}], 3, seed=3)
        report = run_tasks(tasks, seed_digit_metric)
        assert [o.spec for o in report.outcomes] == tasks
        assert report.executed == len(tasks)
        assert report.cache_hits == 0

    def test_workers_match_inline_bit_for_bit(self):
        tasks = task_grid("EX", [{"k": 1}, {"k": 2}, {"k": 3}], 4, seed=5)
        inline = run_tasks(tasks, seed_digit_metric, workers=0)
        sharded = run_tasks(tasks, seed_digit_metric, workers=3)
        assert inline.summary_table() == sharded.summary_table()
        assert [o.metrics for o in inline.outcomes] == [
            o.metrics for o in sharded.outcomes
        ]

    def test_cache_replays_without_executing(self, tmp_path):
        tasks = task_grid("EX", [{"k": 1}], 5, seed=2)
        first = run_tasks(tasks, seed_digit_metric, cache=tmp_path)
        again = run_tasks(tasks, seed_digit_metric, cache=tmp_path)
        assert first.executed == 5
        assert again.executed == 0
        assert again.cache_hits == 5
        assert again.summary_table() == first.summary_table()

    def test_partial_cache_resumes(self, tmp_path):
        tasks = task_grid("EX", [{"k": 1}], 4, seed=2)
        run_tasks(tasks[:2], seed_digit_metric, cache=tmp_path)
        report = run_tasks(tasks, seed_digit_metric, cache=tmp_path)
        assert report.cache_hits == 2
        assert report.executed == 2

    def test_version_change_invalidates_cache(self, tmp_path):
        tasks = task_grid("EX", [{"k": 1}], 2, seed=2)
        run_tasks(tasks, seed_digit_metric, cache=tmp_path, version="a")
        rerun = run_tasks(
            tasks, seed_digit_metric, cache=tmp_path, version="b"
        )
        assert rerun.executed == 2

    def test_task_error_carries_label(self):
        tasks = task_grid("EX", [{"k": 1}], 1, seed=1)
        with pytest.raises(TaskExecutionError, match=r"EX\[k=1\]#0"):
            run_tasks(tasks, failing_metric)

    def test_rejects_negative_workers(self):
        with pytest.raises(ConfigurationError):
            run_tasks([], seed_digit_metric, workers=-1)

    def test_case_means_and_metric(self):
        tasks = task_grid("EX", [{"k": 1}, {"k": 2}], 2, seed=3)
        report = run_tasks(tasks, seed_digit_metric)
        means = report.case_means("value")
        assert set(means) == {"k=1", "k=2"}
        assert len(report.metric("value")) == 4
        assert len(report.metric("value", case_label="k=1")) == 2


# ----------------------------------------------------------------------
# Registered experiments: determinism under sharding (the acceptance bar)
# ----------------------------------------------------------------------

class TestRegisteredExperiments:
    def test_registry_lists_builtins(self):
        assert {"E2", "E3", "E16"} <= set(registered_ids())
        assert get_experiment("E3").summary_metrics == ("slots", "constant")
        with pytest.raises(ConfigurationError):
            get_experiment("E99")

    def test_sharded_summaries_bit_identical_and_cache_hits(self, tmp_path):
        """workers=0, 2 and 4 agree bit for bit; a warm re-run executes 0."""
        summaries = {}
        for workers in (0, 2, 4):
            report = run_experiment(
                "E3",
                seed=11,
                replications=2,
                workers=workers,
                quick=True,
            )
            summaries[workers] = report.summary_table()
            assert report.executed == len(report.outcomes)
        assert summaries[0] == summaries[2] == summaries[4]

        warm = run_experiment(
            "E3", seed=11, replications=2, workers=2, quick=True,
            cache=tmp_path,
        )
        replay = run_experiment(
            "E3", seed=11, replications=2, workers=4, quick=True,
            cache=tmp_path,
        )
        assert replay.executed == 0
        assert replay.cache_hits == len(warm.outcomes)
        assert replay.summary_table() == summaries[0]

    def test_e16_quick_grid_runs_inline(self):
        report = run_experiment(
            "E16", seed=3, replications=1, workers=0, quick=True
        )
        scenarios = {o.spec.params["scenario"] for o in report.outcomes}
        assert scenarios == {"fading", "partition"}
        for outcome in report.outcomes:
            assert outcome.metrics["reachable_delivery_ratio"] == 1.0

    def test_build_topology_families(self):
        rng = random.Random(0)
        assert build_topology("path-5", rng).num_nodes == 5
        assert build_topology("grid-3x4", rng).num_nodes == 12
        assert build_topology("band-4x3", rng).num_nodes == 4 * 3
        assert build_topology("tree-b2-d3", rng).num_nodes == 15
        assert build_topology("rtree-9", rng).num_nodes == 9
        assert build_topology("rgg-12", rng).num_nodes == 12
        with pytest.raises(ConfigurationError):
            build_topology("moebius-7", rng)
        with pytest.raises(ConfigurationError):
            build_topology("grid-x", rng)


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------

class TestTelemetry:
    def test_jsonl_and_manifest(self, tmp_path):
        run_dir = tmp_path / "run"
        tasks = task_grid("EX", [{"k": 1}], 3, seed=4)
        run_tasks(
            tasks,
            seed_digit_metric,
            telemetry=RunTelemetry(run_dir),
            cache=tmp_path / "cache",
        )
        records = read_journal(run_dir / "journal.jsonl")
        assert [r["kind"] for r in records] == ["outcome"] * 3
        assert [r["key"] for r in records] == [
            spec.key(repro.__version__) for spec in tasks
        ]
        assert all(r["cached"] is False for r in records)
        assert [r["record"]["metrics"] for r in records] == [
            seed_digit_metric(spec) for spec in tasks
        ]
        manifest = json.loads(
            (run_dir / "manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["status"] == "finished"
        assert manifest["total_tasks"] == 3
        assert manifest["executed"] == 3
        assert manifest["cache_hits"] == 0

        # The replay run records every task as a cache hit.
        run_tasks(
            tasks,
            seed_digit_metric,
            telemetry=RunTelemetry(run_dir),
            cache=tmp_path / "cache",
        )
        records = read_journal(run_dir / "journal.jsonl")
        assert len(records) == 3
        assert all(r["cached"] is True for r in records)

    def test_median(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
        with pytest.raises(ValueError):
            median([])

    def test_bench_summary_payload(self, tmp_path):
        tasks = task_grid("EX", [{"k": 1}, {"k": 2}], 3, seed=4)
        report = run_tasks(tasks, seed_digit_metric)
        out = tmp_path / "BENCH_EX.json"
        payload = write_bench_summary(report, out)
        assert json.loads(out.read_text(encoding="utf-8")) == payload
        assert payload["exp_id"] == "EX"
        assert payload["tasks"] == 6
        assert len(payload["cases"]) == 2
        for case in payload["cases"]:
            stats = case["metrics"]["value"]
            assert stats["n"] == 3
            assert stats["ci95_low"] <= stats["median"] <= stats["ci95_high"]
        assert bench_summary(report)["cases"] == payload["cases"]


# ----------------------------------------------------------------------
# sweep()/replicated() through the runner
# ----------------------------------------------------------------------

class TestSweepMigration:
    def test_sweep_workers_match_inline(self):
        inline = sweep(
            PICKLABLE_POINTS, measure_nodes_plus_seed, 4, seed=6
        )
        sharded = sweep(
            PICKLABLE_POINTS, measure_nodes_plus_seed, 4, seed=6,
            workers=2,
        )
        assert {
            name: m.samples for name, m in inline.items()
        } == {name: m.samples for name, m in sharded.items()}

    def test_sweep_cache_replays(self, tmp_path):
        kwargs = dict(replications=3, seed=6, cache_dir=tmp_path)
        first = sweep(
            PICKLABLE_POINTS, measure_nodes_plus_seed, **kwargs
        )
        again = sweep(
            PICKLABLE_POINTS, measure_nodes_plus_seed, **kwargs
        )
        assert {n: m.samples for n, m in first.items()} == {
            n: m.samples for n, m in again.items()
        }
        # A warm cache means zero fresh computation: every stored key
        # predates the second sweep.
        assert ResultCache(tmp_path).hits == 0  # fresh view, just counts
        assert len(ResultCache(tmp_path)) == 6

    def test_replicated_workers_and_cache(self, tmp_path):
        inline = replicated(measure_seed_mod, 5, seed=8)
        sharded = replicated(
            measure_seed_mod, 5, seed=8, workers=2, cache_dir=tmp_path
        )
        replay = replicated(
            measure_seed_mod, 5, seed=8, workers=0, cache_dir=tmp_path
        )
        assert inline.samples == sharded.samples == replay.samples


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestRunCli:
    def test_run_list(self, capsys):
        from repro.__main__ import main

        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        assert "E3" in out and "E16" in out

    def test_run_quick_with_cache_and_telemetry(self, tmp_path, capsys):
        from repro.__main__ import main

        argv = [
            "run", "E3", "--quick", "--replications", "2",
            "--workers", "2", "--seed", "11",
            "--cache", str(tmp_path / "cache"),
            "--run-dir", str(tmp_path / "run"),
            "--json", str(tmp_path / "BENCH_E3.json"),
            "--no-progress",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "4 executed, 0 from cache" in first
        assert (tmp_path / "run" / "journal.jsonl").exists()
        assert not (tmp_path / "run" / "telemetry.jsonl").exists()
        assert (tmp_path / "BENCH_E3.json").exists()

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 executed, 4 from cache" in second

    def test_run_without_exp_id_errors(self, capsys):
        from repro.__main__ import main

        assert main(["run"]) == 2


# ----------------------------------------------------------------------
# Engine satellite: attachment validated once, not per slot
# ----------------------------------------------------------------------

class TestAttachmentValidation:
    def test_missing_station_detected(self):
        from repro.radio.process import Process

        class Idle(Process):
            def on_slot(self, slot):
                return None

        network = RadioNetwork(path(4))
        network.attach(Idle(0))
        with pytest.raises(ConfigurationError, match="without processes"):
            network.step()
        # Completing the attachment clears the failure.
        for node in (1, 2, 3):
            network.attach(Idle(node))
        network.step()
        assert network.slot == 1

    def test_validation_is_cached_across_steps(self):
        from repro.radio.process import Process

        class Idle(Process):
            def on_slot(self, slot):
                return None

        network = RadioNetwork(path(3))
        for node in range(3):
            network.attach(Idle(node))
        network.step()
        assert network._attachment_validated
        # Attaching again (e.g. a repair swapping in a new process)
        # re-arms the check.
        network.attach(Idle(1))
        assert not network._attachment_validated
        network.step()
        assert network._attachment_validated


# ----------------------------------------------------------------------

class TestEngineSelection:
    """engine='vector' tasks: cache separation and batched execution."""

    def test_same_spec_different_engine_different_key(self):
        # Regression for the acceptance criterion: vector outcomes are
        # distributionally (not bitwise) equivalent to scalar ones, so
        # they must never alias in the result cache.
        import dataclasses

        scalar = TaskSpec("E3", (("k", 4),), 0, 123)
        vector = dataclasses.replace(scalar, engine="vector")
        assert scalar.engine == "scalar"
        assert scalar.key("1.1.0") != vector.key("1.1.0")

    def test_engine_round_trips_through_records(self):
        import dataclasses

        spec = dataclasses.replace(
            TaskSpec("E2", (("load", 2),), 1, 77), engine="vector"
        )
        assert TaskSpec.from_record(spec.to_record()) == spec
        # Pre-engine cache records (no "engine" field) read as scalar.
        legacy = spec.to_record()
        del legacy["engine"]
        assert TaskSpec.from_record(legacy).engine == "scalar"

    def test_rejects_unknown_engine(self):
        with pytest.raises(ConfigurationError):
            TaskSpec("E3", (), 0, 1, engine="quantum")
        with pytest.raises(ConfigurationError):
            run_experiment(
                "E3", seed=1, replications=1, quick=True, engine="quantum"
            )

    def test_vector_run_matches_scalar_on_deterministic_cells(self):
        # The quick E3 grid uses deterministic topologies whose
        # single-source pipelines drain in a seed-independent number of
        # slots: both engines must agree exactly, case by case.
        scalar = run_experiment("E3", seed=7, replications=3, quick=True)
        vector = run_experiment(
            "E3", seed=7, replications=3, quick=True, engine="vector"
        )
        assert scalar.case_means("slots") == vector.case_means("slots")
        assert all(o.spec.engine == "vector" for o in vector.outcomes)

    def test_cache_keeps_engines_apart_and_replays_each(self, tmp_path):
        cache = tmp_path / "cache"
        first = run_experiment(
            "E3", seed=7, replications=2, quick=True, cache=cache
        )
        assert first.cache_hits == 0
        crossed = run_experiment(
            "E3", seed=7, replications=2, quick=True, cache=cache,
            engine="vector",
        )
        assert crossed.cache_hits == 0  # scalar results must not replay
        replay = run_experiment(
            "E3", seed=7, replications=2, quick=True, cache=cache,
            engine="vector",
        )
        assert replay.cache_hits == len(replay.outcomes)
        scalar_again = run_experiment(
            "E3", seed=7, replications=2, quick=True, cache=cache
        )
        assert scalar_again.cache_hits == len(scalar_again.outcomes)

    def test_vector_workers_match_inline(self):
        inline = run_experiment(
            "E2", seed=5, replications=3, quick=True, engine="vector"
        )
        sharded = run_experiment(
            "E2", seed=5, replications=3, quick=True, engine="vector",
            workers=2,
        )
        assert inline.summary_table() == sharded.summary_table()

    def test_vector_engine_requires_batch_support(self):
        # E16 (fault scenarios) has no lockstep implementation: the
        # failure models are scalar-only by design.
        with pytest.raises(ConfigurationError):
            run_experiment(
                "E16", seed=1, replications=1, quick=True, engine="vector"
            )

    def test_run_tasks_rejects_vector_without_batch_fn(self):
        import dataclasses

        tasks = [
            dataclasses.replace(spec, engine="vector")
            for spec in task_grid("EX", [{"a": 1}], 2, seed=3)
        ]
        with pytest.raises(ConfigurationError):
            run_tasks(tasks, seed_digit_metric)


class TestEngineCli:
    def test_run_engine_vector(self, capsys):
        from repro.__main__ import main

        argv = [
            "run", "E3", "--quick", "--engine", "vector",
            "--replications", "2", "--no-progress",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "engine=vector" in out

    def test_run_unknown_experiment_is_friendly(self, capsys):
        from repro.__main__ import main

        assert main(["run", "E99", "--no-progress"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "E3" in err  # lists what IS runnable
        assert "--list" in err

    def test_vector_check_command(self, capsys):
        from repro.__main__ import main

        assert main(["vector-check", "20260704"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out


#: A task record as 1.8.0 wrote it, with the retired vector knobs, and
#: the cache key 1.8.0 gave it.
RECORD_1_8_0 = {
    "exp_id": "E2", "case": {"load": 2}, "replicate": 1, "seed": 77,
    "engine": "vector", "reception": "sparse", "backend": "numpy",
    "mask": "on",
}
KEY_1_8_0 = "e5c90631045896cf1d840fcab0959815f0db691daa2da74aa06721a02290c931"

#: A task record as 1.9.0 wrote it, with the retired ``backend`` knob,
#: and the cache key 1.9.0 gave it.
RECORD_1_9_0 = {
    "exp_id": "E2", "case": {"load": 2}, "replicate": 1, "seed": 77,
    "engine": "vector", "backend": "numpy",
}
KEY_1_9_0 = "4b37e2077ff98293fd5768c1f562649f3c891748639cda3b08deb01471b83d70"


class TestReceptionSelection:
    """Reception is no longer selectable: one CSR kernel, no knob."""

    def test_reception_round_trips_through_records(self):
        # A 1.8.0 record's retired knobs load and drop out of the
        # record, and so out of the cache key.
        import repro

        assert content_key({"spec": RECORD_1_8_0, "version": "1.8.0"}) == (
            KEY_1_8_0
        )
        spec = TaskSpec.from_record(RECORD_1_8_0)
        assert spec.engine == "vector"
        record = spec.to_record()
        assert not {"reception", "mask", "backend"} & set(record)
        assert TaskSpec.from_record(record) == spec
        assert spec.key(repro.__version__) != KEY_1_8_0

    def test_run_cli_reception_flag(self, capsys):
        from repro.__main__ import main

        argv = [
            "run", "E3", "--quick", "--engine", "vector",
            "--reception", "sparse", "--replications", "2",
            "--no-progress",
        ]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "--reception" in capsys.readouterr().err


class TestBackendAndMaskSelection:
    """--backend and --mask are gone: one kernel set, one loop."""

    def test_round_trips_and_legacy_defaults(self):
        import dataclasses

        spec = dataclasses.replace(
            TaskSpec("E2", (("load", 2),), 1, 77), engine="vector"
        )
        assert TaskSpec.from_record(spec.to_record()) == spec
        legacy = spec.to_record()
        del legacy["engine"]
        assert TaskSpec.from_record(legacy).engine == "scalar"

    def test_1_9_0_record_drops_backend(self):
        # A 1.9.0 record's backend loads and drops out of the record,
        # and so out of the cache key.
        import repro

        assert content_key({"spec": RECORD_1_9_0, "version": "1.9.0"}) == (
            KEY_1_9_0
        )
        spec = TaskSpec.from_record(RECORD_1_9_0)
        record = spec.to_record()
        assert record == {
            k: v for k, v in RECORD_1_9_0.items() if k != "backend"
        }
        assert TaskSpec.from_record(record) == spec
        assert spec.key(repro.__version__) != KEY_1_9_0

    def test_rejects_unknown_backend_and_mask(self):
        with pytest.raises(TypeError):
            TaskSpec("E3", (), 0, 1, backend="numpy")
        with pytest.raises(TypeError):
            TaskSpec("E3", (), 0, 1, mask="on")
        with pytest.raises(TypeError):
            run_experiment(
                "E3", seed=1, replications=1, quick=True,
                engine="vector", backend="numpy",
            )

    def test_run_cli_backend_and_mask_flags(self, capsys):
        from repro.__main__ import main

        for flag, value in (("--backend", "numpy"), ("--mask", "on")):
            argv = [
                "run", "E3", "--quick", "--engine", "vector",
                flag, value, "--replications", "2", "--no-progress",
            ]
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "E3", "--engine", "vector"],
            ["profile", "E3", "--engine", "vector"],
            ["fleet", "submit", "E3", "--queue", "queue"],
            ["coord", "submit", "E3", "--dir", "coord"],
            ["scenario", "spec.toml"],
            ["vector-check", "20260704"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_backend_flag_exits_2_everywhere(
        self, argv, capsys, tmp_path, monkeypatch
    ):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)  # nothing may land in the checkout
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--backend", "numpy"])
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err


class TestGridOptions:
    """Grid builders take ``quick`` and nothing else."""

    @pytest.mark.parametrize("option", ["quik", "backend", "mask"])
    def test_unknown_option_raises(self, option):
        from repro.runner.executor import experiment_grid

        with pytest.raises(TypeError):
            experiment_grid("E3", seed=1, replications=1, **{option: True})
        with pytest.raises(TypeError):
            run_experiment("E3", seed=1, replications=1, **{option: True})
        with pytest.raises(TypeError):
            get_experiment("E3").tasks(1, 1, **{option: True})

    def test_quick_is_recorded(self):
        from repro.runner.executor import experiment_grid

        _defn, tasks, options = experiment_grid(
            "E3", seed=1, replications=1, quick=True
        )
        assert len(tasks) == 2
        assert options == {
            "seed": 1, "replications": 1, "engine": "scalar", "quick": True,
        }


class TestBatchIsOneCase:
    """The registry refuses a batch that mixes grid cells."""

    def test_two_case_batch_raises(self):
        from repro.runner.executor import experiment_grid
        from repro.runner.registry import run_registered_batch

        _defn, tasks, _options = experiment_grid(
            "E3", seed=1, replications=1, engine="vector", quick=True
        )
        assert len({spec.case for spec in tasks}) == 2
        with pytest.raises(ConfigurationError) as err:
            run_registered_batch("E3", tasks)
        for spec in tasks:
            assert spec.case_label() in str(err.value)


class TestBatchSharding:
    """Vector cell groups split into per-worker sub-batches."""

    def test_shards_are_contiguous_and_cover_everything(self):
        from repro.runner.executor import _shard_batch_groups

        groups = [[0, 1, 2, 3, 4, 5, 6, 7], [8, 9, 10]]
        sharded = _shard_batch_groups(groups, workers=2)
        assert [i for shard in sharded for i in shard] == list(range(11))
        assert len(sharded) >= len(groups)
        # No shard ever mixes two cells' tasks.
        for shard in sharded:
            assert any(
                set(shard) <= set(group) for group in groups
            ), shard

    def test_workers_zero_is_a_passthrough(self):
        from repro.runner.executor import _shard_batch_groups

        groups = [[3, 1, 2], [9]]
        assert _shard_batch_groups(groups, workers=0) == groups
        assert _shard_batch_groups([], workers=4) == []

    def test_small_groups_never_produce_empty_shards(self):
        from repro.runner.executor import _shard_batch_groups

        sharded = _shard_batch_groups([[0], [1], [2]], workers=8)
        assert sharded == [[0], [1], [2]]

    def test_sharded_masked_vector_run_bit_identical(self):
        # The load-bearing guarantee behind sub-batch splitting: coin
        # streams are per-replication, so any partition of a cell's
        # seeds replays the identical trajectory.
        inline = run_experiment(
            "E3", seed=9, replications=4, quick=True, engine="vector",
        )
        sharded = run_experiment(
            "E3", seed=9, replications=4, quick=True,
            engine="vector", workers=2,
        )
        assert inline.summary_table() == sharded.summary_table()
