"""Benchmark command: an in-process n=4, t=1 Θ-network under one workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload sg02-open-lan --seed 1 --seconds 25 --trace 0

Prints the host shape, one ``name value unit`` line per metric, and as the
last line a JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (spans from ``spans.py`` over the second half of the run).

Exit status: 0 when every output checked out; 1 when a request failed,
returned a wrong result, or was coalesced into another; 2 when the program
is missing (no ``src/repro`` beside this directory) or the arguments are
bad; 3 when the open-loop generator fell behind its schedule, which makes
the run invalid.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Inside the checkout: the durable nodes' data directories (removed after
#: the run) and the traced runs' span files (kept).
WORK = ROOT / ".perfbench-work"
#: Hard cap on one run: SIGALRM's default action ends the process even when
#: the loop is stuck in a long computation.
RUN_TIMEOUT_S = 170


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from measure import run
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    work_root = WORK / f"run-{args.workload}-{args.seed}"
    shutil.rmtree(work_root, ignore_errors=True)
    try:
        signal.alarm(RUN_TIMEOUT_S)
        result, host = asyncio.run(run(workload, args, work_root))
        signal.alarm(0)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    print("host " + json.dumps(host, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate {host['error_rate']:.6g} ratio")
    print(json.dumps(result))
    if not result["correct"]:
        return 1
    if not host["valid"]:
        print("invalid run: the open-loop generator fell behind its "
              "schedule", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
