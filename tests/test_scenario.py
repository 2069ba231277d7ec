"""Tests for the declarative scenario DSL (repro.scenario).

The load-bearing properties: a spec file parses into the same task grid
no matter who compiles it (content-hashed experiment ids), validation
failures name the offending key by its dotted path, a registry-twin
scenario compiles to the *identical* task list as the registered
experiment (same cache keys), and a scenario run is bit-identical
across worker counts and replays 100% from a warm cache.
"""

from __future__ import annotations

import json
import random
import textwrap

import pytest

from repro.errors import ConfigurationError
from repro.runner import get_experiment, registered_ids
from repro.runner.defs import build_topology
from repro.scenario import (
    ValidationError,
    compile_scenario,
    discover_scenarios,
    parse_scenario,
    run_scenario,
)
from repro.scenario.discovery import unknown_experiment_message
from repro.scenario.runtime import run_scenario_task
from repro.workloads.driver import jain_fairness


def write_spec(tmp_path, text, name="spec.toml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


BASIC = """
    [scenario]
    name = "basic"

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
    horizon_phases = 15
"""

#: A closed fault-free collection scenario — the one general shape the
#: lockstep batch engine simulates.
CLOSED_VECTOR = """
    [scenario]
    name = "closed"

    [topology]
    name = "path-6"

    [arrivals]
    kind = "none"
    messages = 2
    sources = "all"

    [protocol]
    kind = "collection"

    [engine]
    kind = "vector"

    [run]
    seed = 7
    replications = 3
"""


#: Topology names on both sides of the grammar, including the smallest
#: sizes each family's generator takes (``cycle-3``, ``tree-b2-d0``, …).
TOPOLOGY_NAMES = (
    "path-1", "path-24", "path-0", "path-x", "path-+5", "star-1",
    "cycle-2", "cycle-3", "grid-4x4", "grid-0x3", "band-6x4", "band-2",
    "caterpillar-3x0", "tree-b2-d0", "tree-b3-d2", "tree-x2-y3",
    "rgg-1", "rgg-30", "rtree-1", "moebius-7",
)

#: The E2 quick grid as a registry twin.
E2_QUICK_TWIN = """
    [scenario]
    name = "e2-quick-twin"

    [registry]
    experiment = "E2"
    quick = true

    [run]
    seed = 7
    replications = 2
"""


# ----------------------------------------------------------------------
# validation: failures carry the offending path
# ----------------------------------------------------------------------

class TestValidation:
    def test_basic_spec_parses(self, tmp_path):
        spec = parse_scenario(write_spec(tmp_path, BASIC))
        assert spec.name == "basic"
        assert spec.run["replications"] == 2
        assert spec.arrivals["rate"] == 0.2

    def test_json_specs_parse_too(self, tmp_path):
        data = {
            "scenario": {"name": "j"},
            "topology": {"name": "path-4"},
            "protocol": {"kind": "collection"},
            "arrivals": {"kind": "none", "messages": 2},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        spec = parse_scenario(path)
        assert spec.name == "j"

    def test_unknown_table_is_rejected_with_suggestion(self, tmp_path):
        bad = BASIC + "\n[topolgy]\nfoo = 1\n"
        with pytest.raises(ValidationError) as err:
            parse_scenario(write_spec(tmp_path, bad))
        assert err.value.path == "topolgy"
        assert "topology" in str(err.value)

    def test_unknown_key_names_its_path(self, tmp_path):
        bad = BASIC.replace("rate = 0.2", "rate = 0.2\nrte = 0.3")
        with pytest.raises(ValidationError) as err:
            parse_scenario(write_spec(tmp_path, bad))
        assert err.value.path == "arrivals.rte"
        assert "did you mean" in str(err.value)

    def test_type_error_names_its_path(self, tmp_path):
        bad = BASIC.replace("rate = 0.2", 'rate = "fast"')
        with pytest.raises(ValidationError) as err:
            parse_scenario(write_spec(tmp_path, bad))
        assert err.value.path == "arrivals.rate"

    def test_range_error_names_its_path(self, tmp_path):
        bad = BASIC.replace("rate = 0.2", "rate = -0.5")
        with pytest.raises(ValidationError) as err:
            parse_scenario(write_spec(tmp_path, bad))
        assert err.value.path == "arrivals.rate"

    def test_bernoulli_rate_above_one_is_cross_checked(self, tmp_path):
        bad = BASIC.replace("rate = 0.2", "rate = 1.5")
        with pytest.raises(ValidationError) as err:
            parse_scenario(write_spec(tmp_path, bad))
        assert "arrivals.rate" in str(err.value)

    def test_sweep_item_error_names_the_index(self, tmp_path):
        bad = BASIC.replace('name = "path-6"', 'name = ["path-6", "blob-9"]')
        with pytest.raises(ValidationError) as err:
            parse_scenario(write_spec(tmp_path, bad))
        assert err.value.path == "topology.name[1]"

    def test_bad_topology_grammar(self, tmp_path):
        bad = BASIC.replace('name = "path-6"', 'name = "path-x"')
        with pytest.raises(ValidationError) as err:
            parse_scenario(write_spec(tmp_path, bad))
        assert err.value.path == "topology.name"

    @pytest.mark.parametrize("name", TOPOLOGY_NAMES)
    def test_topology_validates_exactly_when_it_builds(self, tmp_path, name):
        try:
            build_topology(name, random.Random(1))
            builds = True
        except ConfigurationError:
            builds = False
        spec = write_spec(
            tmp_path, BASIC.replace('name = "path-6"', f'name = "{name}"')
        )
        try:
            parse_scenario(spec)
            valid = True
        except ValidationError as err:
            assert err.path == "topology.name"
            valid = False
        assert valid == builds

    def test_fault_needs_collection(self, tmp_path):
        bad = BASIC.replace(
            'kind = "collection"', 'kind = "p2p"'
        ) + "\n[faults]\nkind = \"churn\"\nfail_rate = 0.01\nrecover_rate = 0.1\n"
        with pytest.raises(ValidationError) as err:
            parse_scenario(write_spec(tmp_path, bad))
        assert "faults.kind" in str(err.value)

    def test_jam_duty_must_fit_period(self, tmp_path):
        bad = BASIC + textwrap.dedent(
            """
            [faults]
            kind = "jammer"
            jam_period = 10
            jam_duty = 20
            """
        )
        with pytest.raises(ValidationError) as err:
            parse_scenario(write_spec(tmp_path, bad))
        assert "jam_duty" in str(err.value)

    def test_vector_engine_rejected_for_streaming_arrivals(self, tmp_path):
        # BASIC uses bernoulli arrivals: the lockstep engine runs closed
        # workloads only.
        bad = BASIC + "\n[engine]\nkind = \"vector\"\n"
        with pytest.raises(ValidationError) as err:
            parse_scenario(write_spec(tmp_path, bad))
        assert "engine.kind" in str(err.value)

    def test_vector_engine_rejected_for_other_protocols(self, tmp_path):
        bad = (CLOSED_VECTOR.replace('kind = "collection"', 'kind = "p2p"'))
        with pytest.raises(ValidationError) as err:
            parse_scenario(write_spec(tmp_path, bad))
        assert "engine.kind" in str(err.value)

    def test_vector_engine_rejected_for_faulted_runs(self, tmp_path):
        bad = CLOSED_VECTOR + textwrap.dedent(
            """
            [faults]
            kind = "churn"
            fail_rate = 0.01
            recover_rate = 0.2
            """
        )
        with pytest.raises(ValidationError) as err:
            parse_scenario(write_spec(tmp_path, bad))
        assert "engine.kind" in str(err.value)

    def test_vector_engine_rejected_for_mobility(self, tmp_path):
        bad = CLOSED_VECTOR.replace(
            'kind = "collection"',
            'kind = "collection"\nmobility_epochs = 3',
        )
        with pytest.raises(ValidationError) as err:
            parse_scenario(write_spec(tmp_path, bad))
        assert "engine.kind" in str(err.value)

    def test_vector_engine_accepted_for_closed_collection(self, tmp_path):
        spec = parse_scenario(write_spec(tmp_path, CLOSED_VECTOR))
        assert spec.engine["kind"] == "vector"

    def test_registry_mode_forbids_general_tables(self, tmp_path):
        bad = """
            [scenario]
            name = "t"

            [registry]
            experiment = "E2"

            [topology]
            name = "path-4"
        """
        with pytest.raises(ValidationError) as err:
            parse_scenario(write_spec(tmp_path, bad))
        assert "topology" in str(err.value)

    def test_missing_required_key(self, tmp_path):
        bad = BASIC.replace('name = "basic"\n', "")
        with pytest.raises(ValidationError) as err:
            parse_scenario(write_spec(tmp_path, bad))
        assert err.value.path == "scenario.name"

    def test_toml_syntax_error_is_a_validation_error(self, tmp_path):
        with pytest.raises(ValidationError):
            parse_scenario(write_spec(tmp_path, "[scenario\nname='x'"))

    def test_kpi_table_is_rejected(self, tmp_path, capsys):
        from repro.__main__ import main

        spec = write_spec(
            tmp_path, BASIC + "\n    [kpi]\n    quantiles = [0.75]\n"
        )
        assert main(["scenario", "validate", str(spec)]) == 2
        assert "kpi: unknown table" in capsys.readouterr().err


# ----------------------------------------------------------------------
# compilation: deterministic ids, pruned cases, registry twins
# ----------------------------------------------------------------------

class TestCompile:
    def test_exp_id_is_content_addressed(self, tmp_path):
        a = compile_scenario(parse_scenario(write_spec(tmp_path, BASIC)))
        b = compile_scenario(parse_scenario(write_spec(tmp_path, BASIC)))
        assert a.exp_id == b.exp_id
        assert a.exp_id.startswith("scenario:basic:")

    def test_cosmetic_edits_keep_the_id(self, tmp_path):
        base = compile_scenario(parse_scenario(write_spec(tmp_path, BASIC)))
        cosmetic = BASIC.replace(
            '[scenario]\n    name = "basic"',
            '[scenario]\n    name = "basic"\n    title = "a title"',
        )
        edited = compile_scenario(
            parse_scenario(write_spec(tmp_path, cosmetic))
        )
        assert edited.exp_id == base.exp_id

    def test_semantic_edits_change_the_id(self, tmp_path):
        base = compile_scenario(parse_scenario(write_spec(tmp_path, BASIC)))
        changed = compile_scenario(parse_scenario(write_spec(
            tmp_path, BASIC.replace("rate = 0.2", "rate = 0.25")
        )))
        assert changed.exp_id != base.exp_id

    def test_sweep_expands_the_cross_product(self, tmp_path):
        text = BASIC.replace(
            'name = "path-6"', 'name = ["path-6", "star-6"]'
        ).replace("rate = 0.2", "rate = [0.1, 0.2]")
        compiled = compile_scenario(parse_scenario(write_spec(tmp_path, text)))
        assert len(compiled.cases) == 4
        assert len(compiled.tasks) == 8  # x2 replications

    def test_irrelevant_axes_prune_out_of_cases(self, tmp_path):
        # A closed workload never consumes the horizon; the case must
        # not carry it (it would pollute the cache key).
        text = BASIC.replace(
            'kind = "bernoulli"\n    rate = 0.2', 'kind = "none"'
        )
        compiled = compile_scenario(parse_scenario(write_spec(tmp_path, text)))
        (case,) = compiled.cases
        assert "horizon_phases" not in case
        assert "rate" not in case
        assert case["messages"] == 4

    def test_registry_twin_tasks_are_identical(self, tmp_path):
        text = """
            [scenario]
            name = "twin"

            [registry]
            experiment = "E2"

            [run]
            seed = 7
            replications = 5
        """
        compiled = compile_scenario(parse_scenario(write_spec(tmp_path, text)))
        assert compiled.registry_mode
        expected = get_experiment("E2").tasks(7, 5)
        assert compiled.tasks == expected
        version = "test-version"
        assert [t.key(version) for t in compiled.tasks] == [
            t.key(version) for t in expected
        ]

    def test_registry_twin_unknown_experiment(self, tmp_path):
        text = """
            [scenario]
            name = "twin"

            [registry]
            experiment = "E999"
        """
        with pytest.raises(ConfigurationError):
            compile_scenario(parse_scenario(write_spec(tmp_path, text)))


# ----------------------------------------------------------------------
# execution: sharding determinism, cache replay, worker-side dispatch
# ----------------------------------------------------------------------

def _metrics_by_label(report):
    return {
        o.spec.label(): dict(o.metrics)
        for o in report.outcomes
    }


class TestRun:
    def test_bit_identical_across_worker_counts(self, tmp_path):
        compiled = compile_scenario(
            parse_scenario(write_spec(tmp_path, BASIC))
        )
        inline = run_scenario(compiled, workers=0)
        sharded = run_scenario(compiled, workers=2)
        assert _metrics_by_label(inline) == _metrics_by_label(sharded)

    def test_warm_cache_executes_nothing(self, tmp_path):
        compiled = compile_scenario(
            parse_scenario(write_spec(tmp_path, BASIC))
        )
        cache = tmp_path / "cache"
        cold = run_scenario(compiled, workers=0, cache=cache)
        warm = run_scenario(compiled, workers=0, cache=cache)
        assert cold.executed == len(compiled.tasks)
        assert warm.executed == 0
        assert warm.cache_hits == len(compiled.tasks)
        assert _metrics_by_label(cold) == _metrics_by_label(warm)

    def test_scenario_prefix_resolves_in_registry(self, tmp_path):
        compiled = compile_scenario(
            parse_scenario(write_spec(tmp_path, BASIC))
        )
        defn = get_experiment(compiled.exp_id)
        assert defn.exp_id == compiled.exp_id
        assert defn.run_task is run_scenario_task
        with pytest.raises(ConfigurationError):
            defn.tasks(7, 2)

    def test_metrics_are_numeric(self, tmp_path):
        compiled = compile_scenario(
            parse_scenario(write_spec(tmp_path, BASIC))
        )
        report = run_scenario(compiled, workers=0)
        for outcome in report.outcomes:
            for name, value in outcome.metrics.items():
                float(value)  # summary_table floats every metric


#: Retired ``[engine]`` keys, each with a value of its former type.
RETIRED_ENGINE_KEYS = {
    "backend": '"auto"',
    "idle_scheduling": "false",
    "mask": '"auto"',
    "reception": '"auto"',
}


class TestVectorScenario:
    """Closed collection scenarios on the lockstep batch engine."""

    def test_compile_threads_engine_knobs_into_tasks(self, tmp_path):
        compiled = compile_scenario(
            parse_scenario(write_spec(tmp_path, CLOSED_VECTOR))
        )
        assert compiled.engine == "vector"
        for task in compiled.tasks:
            assert task.engine == "vector"

    @pytest.mark.parametrize("key", sorted(RETIRED_ENGINE_KEYS))
    def test_retired_engine_keys_are_rejected(self, tmp_path, key):
        text = CLOSED_VECTOR.replace(
            'kind = "vector"',
            f'kind = "vector"\n{key} = {RETIRED_ENGINE_KEYS[key]}',
        )
        with pytest.raises(ValidationError) as err:
            parse_scenario(write_spec(tmp_path, text))
        assert err.value.path == f"engine.{key}"

    def test_vector_run_delivers_everything(self, tmp_path):
        compiled = compile_scenario(
            parse_scenario(write_spec(tmp_path, CLOSED_VECTOR))
        )
        report = run_scenario(compiled, workers=0)
        assert len(report.outcomes) == len(compiled.tasks)
        for outcome in report.outcomes:
            metrics = outcome.metrics
            assert metrics["submitted"] == 10  # 5 non-root stations x 2
            assert metrics["delivered"] == 10
            assert metrics["delivery_ratio"] == 1.0
            assert metrics["lost"] == 0
            assert metrics["slots"] > 0
            # The lockstep engine has no per-channel stats object; the
            # batch path reports the honest subset, not fabricated zeros.
            assert "transmissions" not in metrics
            assert "collision_rate" not in metrics

    def test_vector_scenario_bit_identical_across_workers(self, tmp_path):
        compiled = compile_scenario(
            parse_scenario(write_spec(tmp_path, CLOSED_VECTOR))
        )
        inline = run_scenario(compiled, workers=0)
        sharded = run_scenario(compiled, workers=2)
        assert _metrics_by_label(inline) == _metrics_by_label(sharded)

    def test_vector_and_scalar_share_the_grid_id(self, tmp_path):
        # Engine knobs are execution strategy, not case semantics: the
        # grid hash must not move, but the task cache keys must.
        scalar = compile_scenario(parse_scenario(write_spec(
            tmp_path, CLOSED_VECTOR.replace('kind = "vector"', 'kind = "scalar"')
        )))
        vector = compile_scenario(
            parse_scenario(write_spec(tmp_path, CLOSED_VECTOR))
        )
        assert scalar.exp_id == vector.exp_id
        version = "test-version"
        assert [t.key(version) for t in scalar.tasks] != [
            t.key(version) for t in vector.tasks
        ]

    def test_batch_guard_rejects_foreign_cases(self):
        from repro.runner.task import TaskSpec
        from repro.scenario.runtime import run_scenario_batch

        params = {
            "protocol": "collection", "topology": "path-5",
            "sources": "all", "arrival": "bernoulli", "rate": 0.2,
            "horizon_phases": 5,
        }
        spec = TaskSpec(
            exp_id="scenario:t:x", case=tuple(sorted(params.items())),
            replicate=0, seed=3, engine="vector",
        )
        with pytest.raises(ConfigurationError):
            run_scenario_batch([spec])


# ----------------------------------------------------------------------
# runtime helpers
# ----------------------------------------------------------------------

class TestRuntime:
    def test_jain_fairness_bounds(self):
        assert jain_fairness([]) == 1.0
        assert jain_fairness([5, 5, 5]) == pytest.approx(1.0)
        assert jain_fairness([1, 0, 0, 0]) == pytest.approx(0.25)

    def test_closed_collection_task(self):
        from repro.runner.task import TaskSpec

        params = {
            "protocol": "collection", "topology": "path-5", "classes": 3,
            "sources": "all", "arrival": "none", "messages": 2,
        }
        spec = TaskSpec(
            exp_id="scenario:t:x", case=tuple(sorted(params.items())),
            replicate=0, seed=11,
        )
        metrics = run_scenario_task(spec)
        assert metrics["submitted"] == 8  # 4 non-root stations x 2
        assert metrics["delivered"] == 8
        assert metrics["delivery_ratio"] == 1.0

    def test_unknown_protocol_kind_raises(self):
        from repro.runner.task import TaskSpec

        spec = TaskSpec(
            exp_id="scenario:t:x", case=(("protocol", "warp"),),
            replicate=0, seed=1,
        )
        with pytest.raises(ConfigurationError):
            run_scenario_task(spec)


# ----------------------------------------------------------------------
# discovery and the shared unknown-id message
# ----------------------------------------------------------------------

class TestDiscovery:
    def test_discovers_valid_and_invalid_files(self, tmp_path):
        folder = tmp_path / "scenarios"
        folder.mkdir()
        (folder / "good.toml").write_text(textwrap.dedent(BASIC))
        (folder / "bad.toml").write_text("[scenario]\nnme = 'x'\n")
        (folder / "notes.txt").write_text("ignored")
        found = discover_scenarios(tmp_path)
        names = {item.path.name: item.ok for item in found}
        assert names == {"good.toml": True, "bad.toml": False}
        good = next(item for item in found if item.ok)
        assert good.name == "basic"

    def test_unknown_id_message_lists_both_namespaces(self, tmp_path):
        folder = tmp_path / "scenarios"
        folder.mkdir()
        (folder / "good.toml").write_text(textwrap.dedent(BASIC))
        message = unknown_experiment_message(
            "E99", registered_ids(), root=tmp_path
        )
        assert "E99" in message
        for exp_id in registered_ids():
            assert exp_id in message
        assert "basic" in message

    def test_suggests_scenario_names_too(self, tmp_path):
        folder = tmp_path / "scenarios"
        folder.mkdir()
        (folder / "good.toml").write_text(textwrap.dedent(BASIC))
        message = unknown_experiment_message("basik", [], root=tmp_path)
        assert "did you mean 'basic'?" in message


# ----------------------------------------------------------------------
# CLI: one KPI report for run and scenario
# ----------------------------------------------------------------------

class TestCli:
    def test_run_and_scenario_write_the_same_kpi_report(
        self, tmp_path, capsys
    ):
        from repro.__main__ import main

        spec = write_spec(tmp_path, E2_QUICK_TWIN)
        cache = str(tmp_path / "cache")
        assert main([
            "scenario", str(spec), "--cache", cache,
            "--json", str(tmp_path / "scenario"), "--no-progress",
        ]) == 0
        assert main([
            "run", "E2", "--quick", "--seed", "7", "--replications", "2",
            "--cache", cache, "--json", str(tmp_path / "run"),
            "--no-progress",
        ]) == 0
        out = capsys.readouterr().out
        assert "0 executed, 4 from cache" in out
        twin = json.loads(
            (tmp_path / "scenario" / "KPI_e2-quick-twin.json").read_text()
        )
        run = json.loads((tmp_path / "run" / "KPI_E2.json").read_text())
        assert twin["scenario"] == "e2-quick-twin" and run["scenario"] == "E2"
        assert twin["cached_tasks"] == 0 and run["cached_tasks"] == 4
        differ = {
            "scenario", "cached_tasks", "cache_hit_rate",
            "wall_time_total", "wall_time_mean", "wall_time_p90",
        }
        same = lambda kpis: {k: v for k, v in kpis.items() if k not in differ}
        assert same(twin) == same(run)
        assert run["tasks"] == 4 and run["experiments"] == ["E2"]

    def test_kpi_out_option_is_gone(self, tmp_path, capsys):
        from repro.__main__ import main

        spec = write_spec(tmp_path, BASIC)
        with pytest.raises(SystemExit) as exit_info:
            main(["scenario", str(spec), "--kpi-out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "--kpi-out" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the shipped library stays valid
# ----------------------------------------------------------------------

def test_shipped_scenarios_validate(repo_root=None):
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    shipped = sorted((root / "scenarios").glob("*.toml"))
    assert len(shipped) >= 6
    for path in shipped:
        compiled = compile_scenario(parse_scenario(path))
        assert compiled.tasks
