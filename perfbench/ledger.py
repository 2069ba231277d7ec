"""Run every workload untraced and traced; print and save the ledger.

Usage, from the root of a checkout::

    python3 perfbench/ledger.py --seed 1 --seconds 20 --out perfbench/LEDGER.json

For each workload in BENCHMARK.json this runs ``perfbench/run.py`` once
with ``--trace 0`` (the end-to-end metrics) and once with ``--trace 1``
(the per-layer metrics, including ``trace.overhead_frac``), one process
at a time, prints every metric by name with its unit, and writes the
runs' context and results to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    sys.stderr.write(completed.stderr)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2:
        raise SystemExit(
            f"{workload} (trace {trace}) exited {completed.returncode}"
        )
    return {
        "context": json.loads(lines[-2])["context"],
        "result": json.loads(lines[-1]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ledger = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = {
            "end_to_end": run(workload, args.seed, args.seconds, 0),
            "per_layer": run(workload, args.seed, args.seconds, 1),
        }
        ledger[workload] = runs
        for kind, outcome in runs.items():
            result = outcome["result"]
            print(f"{workload} {kind}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    if args.out is not None:
        args.out.write_text(json.dumps(ledger, indent=1) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
