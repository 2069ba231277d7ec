"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``demo [seed]``
    Run the quickstart scenario (all four services on one network).
``timeline [seed]``
    Render the collection pipeline draining as an ASCII heatmap.
``congestion [seed]``
    Measure the §8-remark-(5) root congestion on a deep network.
``map [seed]``
    Draw a positioned unit-disk field with BFS levels as symbols.
``resilience [seed]``
    Print experiment E16 at one seed: collection under each fault
    scenario (churn, fading, jamming, blackout, partition), with its
    delivery ratio, slowdown vs. the failure-free baseline, repairs and
    partition detection.
``service [--topology T] [--rate λ] [--phases N] [--sweep] …``
    Open-system service mode: stream unbounded per-station arrivals
    through collection over a long horizon and report the streaming
    KPIs (sojourn moments and P² percentiles, queue occupancy,
    throughput, backlog-drift stability) against the §4 tandem-queue
    oracle.  ``--sweep`` instead walks λ across the predicted critical
    rate and reports the detected stability knee.  The same cells run
    grid-style as experiments E19/E20 (``run E19``, ``run E20``).
``scenario <FILE> [--workers N] [--cache DIR] [--json PATH] …``
    Run a declarative scenario: a TOML/JSON spec naming a topology,
    arrival profile, fault profile, protocol mix, engine and
    replication grid, compiled onto the same executor/cache/fleet
    machinery as the registered experiments.  Like ``run``, it ends
    with the KPI post-pass (delivery ratio, latency percentiles,
    air-time utilization, collision rate, Jain fairness); ``--json``
    writes it as ``KPI_<scenario>.json``.  ``scenario validate <FILE>``
    checks a spec without running it; ``scenario list`` shows the spec
    files under ``scenarios/``.
``run <EXP_ID> [--engine vector] [--workers N] [--cache DIR] …``
    Run a registered experiment grid through the parallel runner:
    sharded execution, content-addressed result cache, JSONL telemetry.
    ``--json PATH`` writes the run's KPI report (``KPI_<EXP_ID>.json``
    under a directory), the same report ``scenario --json`` writes.
    ``--engine vector`` batches every seed of a grid cell into one NumPy
    lockstep call, whose per-slot work is restricted to the
    provably-awake stations.
    ``--timeout S``, ``--retries N`` and ``--no-quarantine`` set the
    fault policy (watchdog budget, retry count, whether a task
    that keeps failing is recorded-and-skipped or fatal).  An
    interrupted sweep resumes from its ``--cache``.  ``run --list``
    shows the runnable experiments; ``run <EXP_ID> --help`` shows all
    options.
``chaos [--quick] [--fleet] [--coord] [--json FILE] …``
    Run the fault-injection harness: the E3 quick grid with worker
    crashes, a hanging task, a transient failure and corrupt cache
    entries injected, verified to converge bit-for-bit to a clean
    control run.  With ``--fleet``, run the multi-host scenario
    instead: worker subprocesses drain a shared queue directory while
    one whole host is SIGKILLed, one lease is corrupted and one clock
    is skewed.  With ``--coord``, run the TCP coordinator scenario:
    workers reach the coordinator only through fault proxies that
    drop/duplicate/delay/truncate wire frames, one worker is
    partitioned, and the coordinator is SIGKILLed mid-lease and
    restarted from its journal.  Exits non-zero if any verdict fails.
``fleet submit|worker|status …``
    The multi-host execution backend.  ``submit`` populates a shared
    queue directory with an experiment grid; ``worker`` (run on any
    number of machines that see that directory) pulls tasks under
    atomic leases until the queue drains; ``status`` merges every
    host's journal into one live progress / failure-taxonomy report.
    ``fleet <sub> --help`` shows each subcommand's options.
``coord serve|submit|worker|status …``
    The TCP coordinator backend — the fleet without a shared
    filesystem.  ``serve`` runs the coordinator (crash-recoverable via
    its append-only journal); ``submit`` sends an experiment grid to
    it; ``worker`` (run anywhere with a TCP route to the coordinator)
    claims and executes tasks over the wire, spooling outcomes to a
    local outbox when the coordinator is unreachable; ``status`` asks
    the live coordinator, falling back to an offline journal replay.
    ``coord <sub> --help`` shows each subcommand's options.
``profile <EXP_ID> [--engine vector] [--json FILE] …``
    Run an experiment inline under the slot-loop profiler and print a
    JSON breakdown of where the engines spend their time (per-phase
    seconds, slots stepped, processes polled vs. skipped).
``vector-check [seed]``
    Run the vector-engine equivalence harness: exact invariants on
    traced batch runs plus the scalar-vs-vector KS test on E2/E3 cells.
``experiments``
    List the experiment registry (id, claim, bench file).
``validate``
    Run the quick self-check: verify each headline claim in seconds.
``info``
    Print package version and the paper's headline constants.
"""

from __future__ import annotations

import random
import sys


def _cmd_demo(seed: int) -> None:
    from repro.core import (
        run_broadcast,
        run_collection,
        run_point_to_point,
        run_ranking,
    )
    from repro.graphs import diameter, random_geometric, reference_bfs_tree

    graph = random_geometric(30, radius=0.32, rng=random.Random(seed))
    tree = reference_bfs_tree(graph, root=0)
    tree.assign_dfs_intervals()
    print(
        f"n={graph.num_nodes} D={diameter(graph)} Δ={graph.max_degree()} "
        f"depth={tree.depth}"
    )
    c = run_collection(graph, tree, {5: ["a"], 9: ["b"]}, seed=seed)
    print(f"collection: {c.messages_delivered} msgs in {c.slots} slots")
    p = run_point_to_point(graph, tree, [(3, 17, "x")], seed=seed)
    print(f"point-to-point: {p.messages_delivered} msgs in {p.slots} slots")
    b = run_broadcast(graph, tree, {8: ["alert"]}, seed=seed)
    print(f"broadcast: everywhere={b.delivered_everywhere} in {b.slots} slots")
    r = run_ranking(graph, tree, seed=seed)
    print(f"ranking: {len(r.ranks)} stations ranked in {r.slots} slots")


def _cmd_timeline(seed: int) -> None:
    from repro.analysis import record_collection_timeline, render_timeline
    from repro.graphs import path, reference_bfs_tree

    graph = path(14)
    tree = reference_bfs_tree(graph, 0)
    sources = {13: [f"m{i}" for i in range(8)], 7: ["n0", "n1"]}
    timeline = record_collection_timeline(graph, tree, sources, seed=seed)
    print(render_timeline(timeline))
    print(f"(drained in {timeline.phases - 1} phases of "
          f"{timeline.phase_length} slots)")


def _cmd_congestion(seed: int) -> None:
    from repro.analysis import congestion_profile
    from repro.graphs import balanced_tree, reference_bfs_tree

    graph = balanced_tree(3, 3)
    tree = reference_bfs_tree(graph, 0)
    sources = {
        node: ["r"] for node in tree.nodes if tree.level[node] == tree.depth
    }
    profile = congestion_profile(graph, tree, sources, seed=seed)
    print("§8 remark (5): transmission share by BFS level")
    for level in sorted(profile.per_level_transmissions):
        share = profile.load_share(level)
        bar = "#" * int(50 * share)
        print(f"  L{level}: {share:6.1%} {bar}")
    print(f"busiest level: {profile.busiest_level} "
          f"(the root's children carry everything)")


def _cmd_map(seed: int) -> None:
    from repro.graphs import (
        ascii_map,
        diameter,
        random_geometric_with_positions,
        reference_bfs_tree,
    )

    graph, positions = random_geometric_with_positions(
        30, radius=0.3, rng=random.Random(seed)
    )
    tree = reference_bfs_tree(graph, root=0)
    print(
        f"unit-disk field: n={graph.num_nodes}, D={diameter(graph)}, "
        f"Δ={graph.max_degree()} — symbols are BFS levels, R = root"
    )
    print(
        ascii_map(
            graph,
            positions,
            width=64,
            height=20,
            label=lambda v: "R" if v == tree.root else str(tree.level[v] % 10),
        )
    )


def _cmd_resilience(seed: int) -> None:
    from repro.analysis.resilience import (
        SCENARIOS,
        resilience_table,
        scenario_metrics,
    )

    print(
        resilience_table(
            {name: scenario_metrics(name, seed) for name in SCENARIOS}
        )
    )
    print(
        "(ratio = delivered/injected; reachable = delivered/expected from "
        "the root's surviving component;\n part P/R = partition detection "
        "precision/recall among alive stations)"
    )


def _report_run(report, summary_metrics, engine: str, name: str, args) -> None:
    """The post-run block of ``run`` and ``scenario``: print the summary
    table, the counts, the failures and the KPI headline, and write the
    KPI report to ``args.json`` (``KPI_<name>.json`` under a directory)."""
    from repro.kpi import kpis_from_report, write_kpi_report

    print(report.summary_table(summary_metrics or None))
    print(
        f"{len(report.outcomes)} tasks: {report.executed} executed, "
        f"{report.cache_hits} from cache; engine={engine}; "
        f"workers={report.workers}; wall {report.wall_time:.2f}s"
    )
    failures = report.failure_summary()
    if any(failures.values()):
        print(
            f"failures: {failures['quarantined']} quarantined, "
            f"{failures['retries']} retries, "
            f"{failures['timeouts']} timeouts, "
            f"{failures['pool_rebuilds']} pool rebuilds, "
            f"{failures['corrupt_cache_entries']} corrupt cache entries"
            + (" (degraded to inline)" if report.fallback_inline else "")
        )
        for record in report.quarantined:
            print(f"  quarantined {record.label} "
                  f"[{record.category}] {record.detail}")
    if args.run_dir:
        print(f"telemetry: {args.run_dir}/journal.jsonl")
    kpis = kpis_from_report(report, scenario=name)
    headline = [
        f"{key}={kpis[key]:.4g}"
        for key in (
            "delivery_ratio", "latency_p50_phases", "latency_p99_phases",
            "utilization", "collision_rate", "jain_fairness",
        )
        if key in kpis
    ]
    if headline:
        print("KPIs: " + "  ".join(headline))
    if args.json:
        print(f"kpi json: {write_kpi_report(kpis, args.json)}")


def _run_aborted(exc: Exception, run_dir) -> int:
    """One line for a run the runner gave up on, and exit code 1 (2 is
    reserved for usage errors)."""
    where = f" (run dir: {run_dir})" if run_dir else ""
    print(f"run aborted: {' '.join(str(exc).split())}{where}", file=sys.stderr)
    return 1


def _cmd_run(argv: list) -> int:
    import argparse

    from repro.errors import ConfigurationError
    from repro.runner import (
        TaskExecutionError,
        get_experiment,
        registered_ids,
        run_experiment,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description=(
            "Run one registered experiment as a (topology × workload × "
            "seed) task grid: sharded over worker processes, resumable "
            "through the result cache, recorded as JSONL telemetry."
        ),
    )
    parser.add_argument(
        "exp_id", nargs="?", help="experiment id (see --list)"
    )
    parser.add_argument(
        "--list", action="store_true", help="list runnable experiments"
    )
    _add_grid_args(parser)
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (0 = inline, the default)",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="result-cache directory (hits replay without executing)",
    )
    parser.add_argument(
        "--run-dir",
        metavar="DIR",
        default=None,
        help="telemetry directory (manifest.json + journal.jsonl)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help=(
            "write the run's KPI report to PATH (a directory gets "
            "KPI_<EXP_ID>.json)"
        ),
    )
    parser.add_argument(
        "--no-progress",
        action="store_true",
        help="suppress the live progress line",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-task wall-clock budget; with workers >= 1 a watchdog "
            "kills and quarantines tasks that exceed it (default: the "
            "experiment's own budget, if any)"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "re-executions of a failed or crashed task before it is "
            "quarantined (default: 2)"
        ),
    )
    parser.add_argument(
        "--no-quarantine",
        action="store_true",
        help=(
            "abort the run on the first task that exhausts its retries "
            "instead of recording and skipping it"
        ),
    )
    args = parser.parse_args(argv)

    if args.list or args.exp_id is None:
        from repro.analysis.experiments import REGISTRY

        claims = {e.exp_id: e.claim for e in REGISTRY}
        print("runnable experiments:")
        for exp_id in registered_ids():
            defn = get_experiment(exp_id)
            claim = claims.get(exp_id)
            detail = f" — {claim}" if claim else ""
            print(f"  {exp_id:<5} {defn.title}{detail}")
        return 0 if args.list else 2

    if args.exp_id not in registered_ids():
        from repro.scenario.discovery import unknown_experiment_message

        print(
            unknown_experiment_message(args.exp_id, registered_ids())
            + "\n(use 'python -m repro run --list' for descriptions)",
            file=sys.stderr,
        )
        return 2
    try:
        report = run_experiment(
            args.exp_id,
            seed=args.seed,
            replications=args.replications,
            workers=args.workers,
            cache=args.cache,
            telemetry=args.run_dir,
            progress=not args.no_progress,
            engine=args.engine,
            timeout=args.timeout,
            retries=args.retries,
            quarantine=not args.no_quarantine,
            quick=args.quick,
        )
    except ConfigurationError as exc:
        print(f"cannot run {args.exp_id!r}: {exc}", file=sys.stderr)
        return 2
    except TaskExecutionError as exc:
        return _run_aborted(exc, args.run_dir)
    _report_run(
        report,
        get_experiment(args.exp_id).summary_metrics,
        args.engine,
        args.exp_id,
        args,
    )
    return 0


def _cmd_scenario(argv: list) -> int:
    import argparse
    import dataclasses

    from repro.errors import ConfigurationError
    from repro.runner import TaskExecutionError
    from repro.scenario import (
        compile_scenario,
        discover_scenarios,
        parse_scenario,
        run_scenario,
    )

    if argv and argv[0] == "list":
        found = discover_scenarios()
        if not found:
            print("no scenario files found under scenarios/")
            return 0
        print("scenario files:")
        for item in found:
            if item.ok:
                detail = f" — {item.title}" if item.title else ""
                print(f"  {item.name:<20} {item.path}{detail}")
            else:
                print(f"  INVALID              {item.path}")
                print(f"      {item.error}")
        return 0

    validate_only = bool(argv) and argv[0] == "validate"
    if validate_only:
        argv = argv[1:]

    parser = argparse.ArgumentParser(
        prog="python -m repro scenario",
        description=(
            "Run a declarative scenario file: a TOML/JSON spec naming a "
            "topology, arrival profile, fault profile, protocol mix and "
            "replication grid, compiled into the same task grid the "
            "registered experiments use (executor, cache and fleet "
            "machinery unchanged), with a KPI post-pass.  "
            "Subcommands: 'scenario validate <file>' checks a spec "
            "without running it; 'scenario list' shows the spec files "
            "under scenarios/."
        ),
    )
    parser.add_argument("file", help="scenario spec file (.toml or .json)")
    parser.add_argument(
        "--workers", type=int, default=0,
        help="worker processes (0 = inline, the default)",
    )
    parser.add_argument(
        "--cache", metavar="DIR", default=None,
        help="result-cache directory (hits replay without executing)",
    )
    parser.add_argument(
        "--run-dir", metavar="DIR", default=None,
        help="telemetry directory (manifest.json + journal.jsonl)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the spec's [run] seed",
    )
    parser.add_argument(
        "--replications", type=int, default=None,
        help="override the spec's [run] replications",
    )
    parser.add_argument(
        "--engine", choices=("scalar", "vector"), default=None,
        help="override the spec's [engine] kind",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help=(
            "write the run's KPI report to PATH (a directory gets "
            "KPI_<scenario>.json)"
        ),
    )
    parser.add_argument(
        "--no-progress", action="store_true",
        help="suppress the live progress line",
    )
    args = parser.parse_args(argv)

    try:
        spec = parse_scenario(args.file)
        overrides = {}
        if args.seed is not None:
            overrides["run"] = {**spec.run, "seed": args.seed}
        if args.replications is not None:
            run = overrides.get("run", spec.run)
            overrides["run"] = {**run, "replications": args.replications}
        if args.engine is not None:
            overrides["engine"] = {**spec.engine, "kind": args.engine}
        if overrides:
            spec = dataclasses.replace(spec, **overrides)
        compiled = compile_scenario(spec)
    except ConfigurationError as exc:
        print(f"invalid scenario {args.file}: {exc}", file=sys.stderr)
        return 2

    mode = (
        f"registry twin of {compiled.exp_id}"
        if compiled.registry_mode
        else f"experiment id {compiled.exp_id}"
    )
    print(
        f"scenario {compiled.name!r}: {len(compiled.cases)} cases x "
        f"{spec.run['replications']} replications = "
        f"{len(compiled.tasks)} tasks ({mode})"
    )
    if validate_only:
        print("spec is valid")
        return 0

    try:
        report = run_scenario(
            compiled,
            workers=args.workers,
            cache=args.cache,
            telemetry=args.run_dir,
            progress=not args.no_progress,
        )
    except ConfigurationError as exc:
        print(f"cannot run scenario: {exc}", file=sys.stderr)
        return 2
    except TaskExecutionError as exc:
        return _run_aborted(exc, args.run_dir)

    _report_run(
        report, compiled.summary_metrics, compiled.engine, compiled.name,
        args,
    )
    return 0


def _cmd_service(argv: list) -> int:
    import argparse

    from repro.errors import ConfigurationError
    from repro.runner.defs import service_metrics, service_sources, sweep_metrics

    parser = argparse.ArgumentParser(
        prog="python -m repro service",
        description=(
            "Open-system service mode: stream unbounded per-station "
            "arrivals through the collection protocol over a long "
            "horizon with constant-memory streaming KPIs, validated "
            "against the §4 tandem-queue closed forms.  With --sweep, "
            "walk the arrival rate across the predicted critical λ and "
            "locate the stability knee instead."
        ),
    )
    parser.add_argument(
        "--topology", default="path-12",
        help="topology name, e.g. path-12, band-4x3 (default: path-12)",
    )
    parser.add_argument(
        "--source-mode", choices=("tail", "bottom", "all"), default="tail",
        help=(
            "which stations originate traffic: the single deepest "
            "('tail', default), every deepest-level station ('bottom') "
            "or every non-root station ('all')"
        ),
    )
    parser.add_argument(
        "--arrival", choices=("bernoulli", "poisson"), default="bernoulli",
        help="arrival process per source (default: bernoulli)",
    )
    parser.add_argument(
        "--rate", type=float, default=0.3,
        help="offered load per source per phase (default: 0.3)",
    )
    parser.add_argument(
        "--phases", type=int, default=1500,
        help="horizon in Decay phases (default: 1500)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--sweep", action="store_true",
        help="run a saturation sweep instead of a single cell",
    )
    parser.add_argument(
        "--points", type=int, default=7,
        help="sweep points across the predicted knee (default: 7)",
    )
    parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the metrics JSON to FILE",
    )
    args = parser.parse_args(argv)

    try:
        _, tree, sources = service_sources(
            args.topology, args.source_mode, args.seed
        )
        if args.sweep:
            metrics = sweep_metrics(
                args.topology, args.source_mode, args.points,
                args.phases, args.seed,
            )
        else:
            metrics = service_metrics(
                args.topology, args.source_mode, args.arrival,
                args.rate, args.phases, args.seed,
            )
    except ConfigurationError as exc:
        print(f"cannot run service mode: {exc}", file=sys.stderr)
        return 2

    print(
        f"{args.topology} depth={tree.depth} sources={len(sources)} "
        f"({args.source_mode})"
    )
    if args.sweep:
        print(
            f"capacity µ_eff = {metrics['capacity_per_phase']:.4f}/phase, "
            f"critical λ = {metrics['critical_rate_per_source']:.4f}/source"
        )
        knee = (
            f"knee = ({metrics['knee_low']:.4f}, {metrics['knee_high']:.4f})"
            if metrics["knee_found"]
            else "knee not found (sweep never destabilized)"
        )
        verdict = (
            "brackets the analytic critical rate"
            if metrics["knee_brackets_critical"]
            else "does NOT bracket the analytic critical rate"
        )
        print(f"{knee} over {metrics['points']} points — {verdict}")
    else:
        print(
            f"offered {metrics['offered_per_phase']:.4f}/phase over "
            f"{args.phases} phases ({metrics['horizon_slots']} slots, "
            f"warmup {metrics['warmup_slots']}); "
            f"{'stable' if metrics['stable'] else 'UNSTABLE'}"
        )
        print(
            f"sojourn: mean {metrics['sojourn_phases']:.2f} phases "
            f"(predicted {metrics['predicted_sojourn_phases']:.2f}, "
            f"ratio {metrics['sojourn_ratio']:.2f}), "
            f"p50 {metrics['sojourn_p50_phases']:.2f}, "
            f"p90 {metrics['sojourn_p90_phases']:.2f}, "
            f"p99 {metrics['sojourn_p99_phases']:.2f}"
        )
        print(
            f"queue:   mean {metrics['queue_mean']:.2f} msgs "
            f"(predicted {metrics['predicted_queue_mean']:.2f}, "
            f"ratio {metrics['queue_ratio']:.2f}); "
            f"throughput {metrics['throughput_per_phase']:.4f}/phase; "
            f"in-flight peak {metrics['in_flight_peak']}"
        )
    if args.json:
        _write_json(args.json, metrics)
        print(f"service json: {args.json}")
    return 0


def _cmd_profile(argv: list) -> int:
    import argparse
    import json

    from repro import profiling
    from repro.errors import ConfigurationError
    from repro.runner import registered_ids, run_experiment

    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description=(
            "Run one registered experiment inline under the slot-loop "
            "profiler and emit a JSON phase breakdown (where the slot "
            "loops spend wall-clock time, slots stepped, processes "
            "polled vs. skipped).  Always runs workers=0 and without a "
            "result cache: profiles are process-local and cache hits "
            "execute nothing worth measuring."
        ),
    )
    parser.add_argument("exp_id", help="experiment id (see run --list)")
    _add_grid_args(parser)
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write the breakdown JSON to FILE",
    )
    args = parser.parse_args(argv)

    if args.exp_id not in registered_ids():
        from repro.scenario.discovery import unknown_experiment_message

        print(
            unknown_experiment_message(args.exp_id, registered_ids()),
            file=sys.stderr,
        )
        return 2
    try:
        with profiling.profiled() as profile:
            report = run_experiment(
                args.exp_id,
                seed=args.seed,
                replications=args.replications,
                workers=0,
                engine=args.engine,
                quick=args.quick,
            )
    except ConfigurationError as exc:
        print(f"cannot profile {args.exp_id!r}: {exc}", file=sys.stderr)
        return 2
    breakdown = {
        "exp_id": args.exp_id,
        "engine": args.engine,
        "seed": args.seed,
        "replications": args.replications,
        "tasks": len(report.outcomes),
        "run_wall_seconds": round(report.wall_time, 6),
        **profile.report(),
    }
    print(json.dumps(breakdown, indent=2))
    if args.json:
        _write_json(args.json, breakdown)
        print(f"profile json: {args.json}", file=sys.stderr)
    return 0


def _cmd_chaos(argv: list) -> int:
    import argparse

    from repro.errors import ConfigurationError
    from repro.runner.chaos import run_chaos, run_coord_chaos, run_fleet_chaos

    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description=(
            "Fault-injection harness: run the E3 quick grid once clean "
            "and once with injected worker crashes, a hanging task, a "
            "transient failure and corrupt cache entries, and verify "
            "the chaotic run converges bit-for-bit to the control.  "
            "--fleet swaps in the multi-host scenario: worker "
            "subprocesses drain a shared queue directory while one "
            "whole host is SIGKILLed mid-sweep, one in-flight lease is "
            "corrupted and one host's clock is skewed.  --coord swaps "
            "in the TCP coordinator scenario: frame-level network "
            "faults, a partitioned worker, and a coordinator SIGKILL "
            "mid-lease with journal recovery."
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller grid and tighter watchdog budget (CI smoke)",
    )
    parser.add_argument(
        "--fleet",
        action="store_true",
        help=(
            "run the multi-host fleet scenario (host kill, lease "
            "corruption, clock skew) instead of the process-pool one"
        ),
    )
    parser.add_argument(
        "--coord",
        action="store_true",
        help=(
            "run the TCP coordinator scenario (frame faults, worker "
            "partition, coordinator SIGKILL + journal restart) instead "
            "of the process-pool one"
        ),
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes (default 2), or with --fleet the number "
            "of worker hosts (default 3, the first is killed)"
        ),
    )
    parser.add_argument(
        "--replications",
        type=int,
        default=None,
        help="replications per grid case (default: 6 quick, 10 full)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="watchdog budget per task (default: 3 quick, 6 full)",
    )
    parser.add_argument(
        "--dir",
        metavar="DIR",
        default=None,
        help=(
            "working directory for caches, telemetry and the injection "
            "plan (default: a temporary directory, removed afterwards)"
        ),
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write the chaos report JSON to FILE",
    )
    parser.add_argument(
        "--no-progress",
        action="store_true",
        help="suppress the live progress lines",
    )
    args = parser.parse_args(argv)
    if args.fleet and args.coord:
        print("--fleet and --coord are mutually exclusive", file=sys.stderr)
        return 2
    workers = args.workers
    if workers is None:  # run_coord_chaos's own default is also 3
        workers = 3 if args.fleet or args.coord else 2
    keep = args.dir is not None
    progress = not args.no_progress
    try:
        if args.coord:
            report = run_coord_chaos(
                seed=args.seed, workers=workers,
                replications=args.replications, quick=args.quick,
                base_dir=args.dir, keep=keep, progress=progress,
            )
        elif args.fleet:
            report = run_fleet_chaos(
                seed=args.seed, workers=workers,
                replications=args.replications, quick=args.quick,
                base_dir=args.dir, keep=keep, progress=progress,
            )
        else:
            report = run_chaos(
                seed=args.seed, workers=workers,
                replications=args.replications, quick=args.quick,
                timeout=args.timeout, base_dir=args.dir, keep=keep,
                progress=progress,
            )
    except ConfigurationError as exc:
        print(f"cannot run chaos: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    if args.json:
        _write_json(args.json, report.to_json())
        print(f"chaos json: {args.json}")
    return 0 if report.ok else 1


def _write_json(path: str, payload) -> None:
    """Write ``payload`` as sorted, indented JSON, creating parent dirs."""
    import json
    import os

    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _retry_policy(retries):
    """The ``--retries`` fault policy, or None for the default one."""
    from repro.runner.policy import FaultPolicy

    return FaultPolicy(max_retries=retries) if retries is not None else None


def _fleet_policy(queue, retries):
    """A fleet worker's fault policy: the submitted experiment's
    ``default_timeout``, as ``run`` uses it, and the ``--retries``
    budget."""
    from repro.runner import get_experiment
    from repro.runner.policy import FaultPolicy

    defn = get_experiment(str(queue.manifest().get("exp_id")))
    if retries is None:
        retries = FaultPolicy().max_retries
    return FaultPolicy(timeout=defn.default_timeout, max_retries=retries)


def _add_grid_args(parser) -> None:
    """The experiment-grid options of ``run``, ``profile`` and ``submit``."""
    from repro.vector import ENGINES

    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="scalar",
        help=(
            "simulation engine: 'scalar' steps each task's slot loop in "
            "Python; 'vector' batches all seeds of a grid cell into one "
            "NumPy lockstep run (default: scalar)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="experiment root seed"
    )
    parser.add_argument(
        "--replications",
        type=int,
        default=5,
        help="replications per grid case",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="miniature grid (CI smoke / quick sanity)",
    )


def _submit_grid(args):
    """The ``(tasks, options)`` a queue ``submit`` enqueues.

    Raises :class:`~repro.errors.ConfigurationError` for an unknown
    experiment, an invalid engine knob, or a vector engine the
    experiment does not implement.
    """
    from repro.errors import ConfigurationError
    from repro.runner import registered_ids
    from repro.runner.executor import experiment_grid
    from repro.scenario.discovery import unknown_experiment_message

    if args.exp_id not in registered_ids():
        raise ConfigurationError(
            unknown_experiment_message(args.exp_id, registered_ids())
        )
    _defn, tasks, options = experiment_grid(
        args.exp_id,
        seed=args.seed,
        replications=args.replications,
        engine=args.engine,
        quick=args.quick,
    )
    return tasks, options


def _add_worker_args(parser, *, heartbeat) -> None:
    """The options ``fleet worker``/``coord worker`` share."""
    parser.add_argument(
        "--host", default=None,
        help="worker identity (default: <hostname>-<pid>-<nonce>)",
    )
    parser.add_argument(
        "--heartbeat", type=float, default=heartbeat, metavar="SECONDS",
        help=(
            "lease heartbeat interval (default: "
            f"{'ttl/4' if heartbeat is None else heartbeat})"
        ),
    )
    parser.add_argument(
        "--poll", type=float, default=0.5,
        help="re-claim interval when every pending task is leased",
    )
    parser.add_argument(
        "--throttle", type=float, default=0.0, metavar="SECONDS",
        help="sleep before each fresh execution (chaos/testing)",
    )
    parser.add_argument(
        "--retries", type=int, default=None,
        help=(
            "retry budget per task (default 2); a fleet worker also "
            "charges lease steals to it"
        ),
    )
    parser.add_argument(
        "--max-tasks", type=int, default=None,
        help=(
            "stop after running this many tasks (executed or "
            "quarantined; cache replays do not count) instead of "
            "draining the queue"
        ),
    )
    parser.add_argument(
        "--no-progress", action="store_true",
        help="suppress the per-task progress lines",
    )


def _run_worker(make_worker) -> int:
    """Drain with ``make_worker()`` and print its one-line summary.

    Exits 1 when outcomes were left stranded in the coordinator outbox.
    """
    from repro.errors import ConfigurationError

    try:
        stats = make_worker().run()
    except ConfigurationError as exc:
        print(f"cannot start worker: {exc}", file=sys.stderr)
        return 2
    stranded = (
        f", {stats.stranded} stranded in the outbox" if stats.stranded else ""
    )
    print(
        f"[{stats.host}] done: {stats.executed} executed, "
        f"{stats.cache_hits} cache hits, {stats.lease_reclaims} lease "
        f"reclaims, {stats.retries} retries, {stats.quarantined} "
        f"quarantined{stranded} in {stats.wall_time:.1f}s"
    )
    return 1 if stats.stranded else 0


def _add_status_args(parser) -> None:
    parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the status JSON to FILE",
    )
    parser.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="re-render every SECONDS until the queue drains",
    )


def _watch_status(read, args) -> int:
    """Print ``read()``'s status view, every ``--watch`` s until drained.

    ``read`` returns ``(text, json_payload, drained)``; ``--json``
    rewrites the payload on every pass.
    """
    import time

    while True:
        text, payload, drained = read()
        print(text)
        if args.json:
            _write_json(args.json, payload)
        if args.watch is None or drained:
            return 0
        time.sleep(args.watch)
        print()


def _cmd_fleet(argv: list) -> int:
    import argparse

    from repro.errors import ConfigurationError
    from repro.runner.fleet import FleetQueue, FleetWorker, fleet_status

    parser = argparse.ArgumentParser(
        prog="python -m repro fleet",
        description=(
            "Multi-host execution backend: a shared queue directory "
            "drained by lease-holding workers on any number of "
            "machines, merged into one report.  No coordinator; the "
            "filesystem is the protocol."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_submit = sub.add_parser(
        "submit", help="populate a queue directory with an experiment grid"
    )
    p_submit.add_argument("exp_id", help="experiment id (see run --list)")
    _add_grid_args(p_submit)
    p_submit.add_argument(
        "--queue", required=True, metavar="DIR",
        help="queue directory (created; must be visible to every worker)",
    )

    p_worker = sub.add_parser(
        "worker", help="pull and execute tasks until the queue drains"
    )
    p_worker.add_argument("queue", metavar="QUEUE", help="queue directory")
    _add_worker_args(p_worker, heartbeat=None)
    p_worker.add_argument(
        "--ttl", type=float, default=30.0,
        help="lease expiry: a lease untouched this long is reclaimed",
    )
    p_worker.add_argument(
        "--skew", type=float, default=0.0, metavar="SECONDS",
        help="stamp lease times with a skewed clock (chaos/testing)",
    )

    p_status = sub.add_parser(
        "status", help="merge every host's journal into one report"
    )
    p_status.add_argument("queue", metavar="QUEUE", help="queue directory")
    _add_status_args(p_status)

    args = parser.parse_args(argv)

    if args.subcommand == "submit":
        from repro import __version__

        try:
            tasks, options = _submit_grid(args)
            queue = FleetQueue(args.queue)
            fresh = queue.submit(tasks, version=__version__, options=options)
        except ConfigurationError as exc:
            print(f"cannot submit {args.exp_id!r}: {exc}", file=sys.stderr)
            return 2
        print(
            f"submitted {args.exp_id}: {len(tasks)} tasks "
            f"({fresh} new) -> {queue.root}"
        )
        print(
            "start workers with: python -m repro fleet worker "
            f"{queue.root}"
        )
        return 0

    if args.subcommand == "worker":
        return _run_worker(
            lambda: FleetWorker(
                args.queue,
                host=args.host,
                policy=_fleet_policy(FleetQueue(args.queue), args.retries),
                ttl=args.ttl,
                heartbeat_interval=args.heartbeat,
                poll_interval=args.poll,
                throttle=args.throttle,
                clock_skew=args.skew,
                max_tasks=args.max_tasks,
                progress=not args.no_progress,
            )
        )

    def read():
        status = fleet_status(args.queue)
        return status.summary(), status.to_json(), status.done

    try:
        return _watch_status(read, args)
    except ConfigurationError as exc:
        print(f"cannot read queue: {exc}", file=sys.stderr)
        return 2


def _cmd_coord(argv: list) -> int:
    import argparse

    from repro.errors import ConfigurationError
    from repro.runner.client import (
        CoordClient,
        CoordinatorUnreachable,
        CoordWorker,
        parse_address,
    )
    from repro.runner.coord import (
        CoordServer,
        coord_status,
        format_coord_status,
        submit_tasks,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro coord",
        description=(
            "TCP coordinator backend: one coordinator process holds the "
            "queue (crash-recoverable via an append-only journal), any "
            "number of workers reach it over length-prefixed JSON "
            "frames — no shared filesystem needed."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_serve = sub.add_parser(
        "serve", help="run the coordinator (recovers from its journal)"
    )
    p_serve.add_argument(
        "--dir", required=True, metavar="DIR",
        help="coordinator state directory (journal, results, coord.json)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1; 0.0.0.0 for remote workers)",
    )
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="bind port (default: 0 = ephemeral, advertised in coord.json)",
    )
    p_serve.add_argument(
        "--ttl", type=float, default=30.0,
        help="lease expiry: a lease unheard-of this long is re-queued",
    )
    p_serve.add_argument(
        "--retries", type=int, default=None,
        help="retry budget per task, shared with lease steals (default 2)",
    )

    def add_address_args(parser) -> None:
        parser.add_argument(
            "--dir", default=None, metavar="DIR",
            help="coordinator state dir (reads coord.json for the address)",
        )
        parser.add_argument(
            "--addr", default=None, metavar="HOST:PORT",
            help="explicit coordinator address (no state dir needed)",
        )

    p_submit = sub.add_parser(
        "submit", help="send an experiment grid to the coordinator"
    )
    p_submit.add_argument("exp_id", help="experiment id (see run --list)")
    _add_grid_args(p_submit)
    add_address_args(p_submit)

    p_worker = sub.add_parser(
        "worker", help="claim and execute tasks over the wire"
    )
    add_address_args(p_worker)
    _add_worker_args(p_worker, heartbeat=2.0)
    p_worker.add_argument(
        "--outbox", default=None, metavar="DIR",
        help=(
            "local spool for outcomes computed while the coordinator "
            "is unreachable (default: <dir>/outbox; required with "
            "--addr alone)"
        ),
    )
    p_worker.add_argument(
        "--request-timeout", type=float, default=5.0, metavar="SECONDS",
        help="per-request timeout before a reconnect-and-resend",
    )
    p_worker.add_argument(
        "--offline-budget", type=float, default=30.0, metavar="SECONDS",
        help=(
            "how long to keep retrying an unreachable coordinator "
            "before spooling to the outbox and exiting cleanly"
        ),
    )

    p_status = sub.add_parser(
        "status", help="coordinator status (live TCP, else journal replay)"
    )
    p_status.add_argument(
        "--dir", required=True, metavar="DIR",
        help="coordinator state directory",
    )
    _add_status_args(p_status)

    args = parser.parse_args(argv)

    if args.subcommand == "serve":
        try:
            server = CoordServer(
                args.dir,
                host=args.host,
                port=args.port,
                ttl=args.ttl,
                policy=_retry_policy(args.retries),
            )
            host, port = server.start()
        except (ConfigurationError, OSError) as exc:
            print(f"cannot start coordinator: {exc}", file=sys.stderr)
            return 2
        recovered = (
            f", {server.recovered_leases} leases restored"
            if server.recovered_leases
            else ""
        )
        print(
            f"coordinator on {host}:{port} — "
            f"{len(server.state.tasks)} tasks, "
            f"{len(server.state.done)} done{recovered} "
            f"(journal: {server.journal_path})",
            flush=True,
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.close()
        return 0

    if args.subcommand in ("submit", "worker"):
        if args.dir is None and args.addr is None:
            print(
                f"coord {args.subcommand} needs --dir or --addr",
                file=sys.stderr,
            )
            return 2
        address = parse_address(args.addr) if args.addr else None

    if args.subcommand == "submit":
        from repro import __version__

        client = None
        try:
            tasks, options = _submit_grid(args)
            client = CoordClient(args.dir, address=address)
            fresh = submit_tasks(
                client, tasks, version=__version__, options=options
            )
        except ConfigurationError as exc:
            print(f"cannot submit {args.exp_id!r}: {exc}", file=sys.stderr)
            return 2
        except CoordinatorUnreachable as exc:
            print(f"coordinator unreachable: {exc}", file=sys.stderr)
            return 1
        finally:
            if client is not None:
                client.close()
        print(f"submitted {args.exp_id}: {len(tasks)} tasks ({fresh} new)")
        print(
            "start workers with: python -m repro coord worker "
            + (f"--dir {args.dir}" if args.dir else f"--addr {args.addr}")
        )
        return 0

    if args.subcommand == "worker":
        return _run_worker(
            lambda: CoordWorker(
                args.dir,
                host=args.host,
                address=address,
                policy=_retry_policy(args.retries),
                heartbeat_interval=args.heartbeat,
                poll_interval=args.poll,
                throttle=args.throttle,
                request_timeout=args.request_timeout,
                offline_budget=args.offline_budget,
                outbox_dir=args.outbox,
                max_tasks=args.max_tasks,
                progress=not args.no_progress,
            )
        )

    def read():
        payload = coord_status(args.dir)
        drained = int(payload.get("total", 0)) > 0 and not payload.get(
            "pending"
        )
        return format_coord_status(payload), payload, drained

    return _watch_status(read, args)


def _cmd_vector_check(argv: list) -> int:
    import argparse

    from repro.vector.check import run_equivalence

    parser = argparse.ArgumentParser(
        prog="repro vector-check",
        description="scalar-vs-vector equivalence: exact invariants on "
        "traced batch runs plus the KS test",
    )
    parser.add_argument("seed", nargs="?", type=int, default=20260704)
    args = parser.parse_args(argv)
    report = run_equivalence(seed=args.seed)
    print(report.summary())
    return 0 if report.passed else 1


def _cmd_info() -> None:
    import repro
    from repro.core import LAMBDA_STAR, MU, theorem_44_constant

    print(f"repro {repro.__version__} — Bar-Yehuda, Israeli & Itai, "
          f"PODC 1989")
    print(f"µ  = e⁻¹(1−e⁻¹)      = {MU:.6f}   (Theorem 4.1)")
    print(f"λ* = 1−√(1−µ)        = {LAMBDA_STAR:.6f}   (Theorem 4.3 tuning)")
    print(f"4/λ*                 = {theorem_44_constant():.2f}      "
          f"(Theorem 4.4 constant)")


def main(argv: list) -> int:
    if len(argv) < 1 or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    command = argv[0]
    if command == "run":
        return _cmd_run(argv[1:])
    if command == "scenario":
        return _cmd_scenario(argv[1:])
    if command == "service":
        return _cmd_service(argv[1:])
    if command == "profile":
        return _cmd_profile(argv[1:])
    if command == "chaos":
        return _cmd_chaos(argv[1:])
    if command == "fleet":
        return _cmd_fleet(argv[1:])
    if command == "coord":
        return _cmd_coord(argv[1:])
    if command == "vector-check":
        return _cmd_vector_check(argv[1:])
    seeded = {
        "demo": _cmd_demo,
        "timeline": _cmd_timeline,
        "congestion": _cmd_congestion,
        "map": _cmd_map,
        "resilience": _cmd_resilience,
    }
    if command in seeded:
        try:
            seed = int(argv[1]) if len(argv) > 1 else 7
        except ValueError:
            print(f"{command}: seed must be an integer, got {argv[1]!r}",
                  file=sys.stderr)
            return 2
        seeded[command](seed)
    elif command == "experiments":
        from repro.analysis.experiments import registry_table

        print(registry_table())
    elif command == "validate":
        from repro.validate import run_validation

        results = run_validation()
        return 0 if all(r.passed for r in results) else 1
    elif command == "info":
        _cmd_info()
    else:
        print(f"unknown command {command!r}\n", file=sys.stderr)
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main(sys.argv[1:]))
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        raise SystemExit(0)
