"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/sweep.py                       # every workload, seeds 1-10
    python3 perfbench/sweep.py --workloads long-chain --seeds 1-5 --trace 1

For each workload it prints one line per run, then per metric the median and
the distance between the first and third quartile as a share of the median
(statistics.quantiles with n=4), and the failed share of the operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="an inclusive range such as 1-10")
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in seeds_of(args.seeds):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=HERE.parent)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']}"
                  f" failed={result['failed']} {json.dumps(shown)}", flush=True)
        print(f"{workload}: failed share(s) {sorted(shares)}")
        for name, vals in values.items():
            median = statistics.median(vals)
            if len(vals) >= 2 and median:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                print(f"  {name:32s} median {median:.4f}  spread {(q3 - q1) / median:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
