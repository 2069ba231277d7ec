"""Benchmark of the paper stack: one workload per run, JSON on the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stack --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json
with no profiler installed.  Each run sets up three times, runs one
untimed warm-up operation, then times operations back to back for
``--seconds``.  Every time behind an end-to-end metric is rescaled to a
nominal host speed by ``common.HostSpeed``, which samples a fixed
reference loop while the time runs: on a small shared host the raw
times swing by tens of percent from one second or minute to the next.
``--trace 1`` runs every operation twice,
untraced and then traced under ``repro.profiling.profiled()``, and
reports the per-layer metrics, including ``trace.overhead_frac``.
Per-layer metrics of a layer the workload does not exercise read 0.

The line before the result is a ``{"context": ...}`` object: seeds,
sizes, sample counts and the software the run measured.  Every failed
correctness check is printed to standard error and makes the run exit
with code 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "stack": "stack",
    "vector": "vector_batch",
    "stream": "stream",
}
#: Set-ups per run; ``setup_s`` is their median (plus the imports).
SETUP_REPEATS = 3
#: Operations every run completes, however short ``--seconds`` is.
MIN_OPS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    sys.path.insert(0, str(ROOT / "src"))
    from common import HostSpeed

    with HostSpeed() as speed:
        started = time.perf_counter()
        workload = importlib.import_module(WORKLOADS[args.workload])
        import_wall = time.perf_counter() - started
    imported = (import_wall, speed.scale)

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, spec, workload, imported, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(args, spec, workload, imported, work: Path) -> int:
    from common import HostSpeed, median, paired_overhead

    # Every end-to-end time is rescaled by the host's speed sampled while
    # it ran (common.HostSpeed), so that the host's swings cancel out;
    # the raw times go to the context line and the ledger.
    setup_times = []
    for _ in range(SETUP_REPEATS):
        with HostSpeed() as speed:
            started = time.perf_counter()
            inputs = workload.setup(args.seed, work)
            elapsed = time.perf_counter() - started
        setup_times.append((elapsed, speed.scale))

    # One untimed operation (index -1, so the timed ones keep their
    # inputs) finishes lazy set-up and fills the caches.
    warmup = [workload.run_op(inputs, -1, False)]

    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index < MIN_OPS or time.perf_counter() < deadline:
        with HostSpeed() as speed:
            op = workload.run_op(inputs, index, False)
        op.scale = speed.scale
        untraced.append(op)
        if args.trace:
            # Sampled alike, so that trace.overhead_frac compares like
            # with like.
            with HostSpeed():
                traced.append(workload.run_op(inputs, index, True))
        index += 1

    ops = warmup + untraced + traced
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    for op in ops:
        for line in op.failures:
            print(f"perfbench {args.workload}: FAILED {line}", file=sys.stderr)

    if args.trace:
        values = workload.ledger(inputs, untraced, traced, work)
        values["trace.overhead_frac"] = paired_overhead(untraced, traced)
        values["host.scale"] = median([op.scale for op in untraced])
        values["host.raw_wall_s"] = median([op.wall for op in untraced])
        declared = spec["per_layer"]
    else:
        values = {
            "wall_s": median([op.nominal_wall for op in untraced]),
            "setup_s": imported[0] * imported[1]
            + median([seconds * scale for seconds, scale in setup_times]),
            "sim_slots_per_s": median(
                [op.nominal_slots_per_s for op in untraced]
            ),
            "peak_rss_mib": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ),
        }
        declared = spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")

    print(json.dumps({"context": context(args, workload, inputs, warmup,
                                         untraced, traced, imported,
                                         setup_times)}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def context(args, workload, inputs, warmup, untraced, traced, imported,
            setup_times):
    import numpy

    from common import HELD_OUT_SEED
    from repro.vector import resolve_backend

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.CONTEXT,
        "samples": {"warmup_ops": len(warmup), "untraced_ops": len(untraced),
                    "traced_ops": len(traced), "setups": len(setup_times)},
        "op_walls": [op.wall for op in untraced],
        "op_scales": [op.scale for op in untraced],
        "setup_walls": [seconds for seconds, _scale in setup_times],
        "setup_scales": [scale for _seconds, scale in setup_times],
        "import_s": imported[0],
        "import_scale": imported[1],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "vector_backend": resolve_backend("auto").name,
    }
    if hasattr(workload, "context"):
        info.update(workload.context(inputs, untraced[0]))
    return info


if __name__ == "__main__":
    sys.exit(main())
