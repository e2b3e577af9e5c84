"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload serve-paced --seeds 1 2 3 4 5

Runs ``run.py`` once per seed (one after another, tracing off) and
prints, for every end-to-end metric, the median and the distance
between the first and third quartile as a share of the median, next to
a third of the metric's bound in ``BENCHMARK.json`` — the steadiness
target — and the same figures for the ungated metrics of the detail
line.  ``--json`` writes the raw values too.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from benchstats import median, quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple:
    """``(end-to-end metrics, ungated metrics)`` of one run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    *_, detail, result = [json.loads(line) for line in
                          proc.stdout.strip().splitlines()[-2:]]
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"seed {seed}: {result}")
    return ({name: m["value"] for name, m in result["metrics"].items()},
            detail["detail"]["ungated"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--json", default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs, ungated = [], []
    for seed in args.seeds:
        metrics, extra = run_once(args.workload, seed, bench["run_seconds"])
        runs.append(metrics)
        ungated.append(extra)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v:.4g}" for k, v in metrics.items()), flush=True)
    print(f"{'metric':24s} {'median':>12s} {'spread':>8s} {'target':>8s}")
    for name, bound in bounds.items():
        values = [run[name] for run in runs]
        spread = quartile_spread(values) if len(values) >= 2 else 0.0
        flag = "" if spread < bound / 3 else "  <-- too wide"
        print(f"{name:24s} {median(values):12.5g} {spread:8.4f} "
              f"{bound / 3:8.4f}{flag}")
    for name in ungated[0]:
        values = [run[name] for run in ungated]
        spread = quartile_spread(values) if len(values) >= 2 else 0.0
        print(f"{name:24s} {median(values):12.5g} {spread:8.4f} "
              f"{'ungated':>8s}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds,
             "runs": runs, "ungated": ungated}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
