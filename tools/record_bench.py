"""Record a BENCH file: the benchmark's result for every workload, plus its rounds.

    python3 tools/record_bench.py

For each workload that BENCHMARK.json declares it runs

    perfbench/run.py --workload W --seed 7 --seconds RUN_SECONDS --trace 0

with BENCHMARK.json's run_seconds, and keeps the result line and the
per-round values its medians came from (round seeds, pipeline_s, wall_s,
host_speed, setup_s). The seed and the time box are fixed, so that two BENCH
files compare. A run is time-boxed, so two commits may reach different round
seeds; to compare rounds seed by seed it also runs perfbench/worker.py on the
fixed round seeds ROUND_SEEDS and keeps each round's result and the SHA-256
of each artifact it wrote. Two BENCH files then show byte-identity as equal
digests.

It writes BENCH_<date>_<short commit>.json at the repo root, with the commit,
whether a tracked file differs from it, and the host. This script imports
nothing from symtraj and stays small: Linux carries a process's peak RSS
into the programs it starts, so the worker's peak_rss_mb here is its own
only while this process peaks below it.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
ROUND_SEEDS = (2003, 3005)
RUN_DETAIL_KEYS = ("round_seeds", "pipeline_s", "wall_s", "host_speed", "setup_s")
WORKER_KEYS = ("pipeline_s", "wall_s", "peak_rss_mb", "backend_calls", "prompt_mb", "stage_rc")
# backend-*.json holds the stand-in endpoint's port, which differs per round.
DIGESTED = ("*.jsonl", "served.json")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def host() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu_model": model, "cpu_count": os.cpu_count(), "python": platform.python_version()}


def run_benchmark(workload: str, seed: int, seconds: float) -> dict:
    """run.py's result, and the per-round values from its stderr detail."""
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py --workload {workload} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads(proc.stderr.strip().splitlines()[-1])
    return {"result": result, "rounds": {key: detail[key] for key in RUN_DETAIL_KEYS}}


def run_round(workload: str, seed: int) -> dict:
    """One worker round on a fixed round seed: its result and artifact digests."""
    with tempfile.TemporaryDirectory(prefix="record-bench-") as tmp:
        d, result_path = Path(tmp) / "run", Path(tmp) / "result.json"
        argv = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--dir", str(d), "--result", str(result_path)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"worker.py --workload {workload} --seed {seed} exited with "
                               f"{proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        kept = {key: result[key] for key in WORKER_KEYS}
        paths = sorted({p for pattern in DIGESTED for p in d.glob(pattern)})
        kept["digests"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    return kept


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    commit = git("rev-parse", "HEAD")
    bench = {
        "commit": commit,
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "date": datetime.datetime.now(datetime.timezone.utc).date().isoformat(),
        "host": host(),
        "seed": SEED,
        "seconds": seconds,
        "workloads": {},
    }
    for w in declared["workloads"]:
        name = w["name"]
        print(f"{name}: run.py for {seconds:g} s", file=sys.stderr)
        entry = run_benchmark(name, SEED, seconds)
        entry["round_results"] = {}
        for seed in ROUND_SEEDS:
            print(f"{name}: worker round {seed}", file=sys.stderr)
            entry["round_results"][str(seed)] = run_round(name, seed)
        bench["workloads"][name] = entry
    out = ROOT / f"BENCH_{bench['date']}_{commit[:7]}.json"
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
