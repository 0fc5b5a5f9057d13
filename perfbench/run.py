"""Whole-pipeline benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload mock-shared --seed 1 --seconds 40 --trace 0

A round is one fresh worker process (worker.py) that sets up and then runs
gen-problems -> sample -> verify -> label -> score -> select -> dpo-pairs ->
export prm/sft/dpo through ``symtraj.cli.main``. Each round draws fresh
inputs from its round seed (``round_seed``), so a run's medians average over
many problem sets rather than repeat one. With --trace 0 the command runs
whole rounds for about --seconds and reports medians of the end-to-end
metrics. With --trace 1 rounds come in pairs on one round seed, untraced then
traced, and it reports the per-layer medians of the traced ones. Every
round's artifacts are checked (checks.py); the last line of standard output
is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from worker import import_program  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ARTIFACTS = (
    "problems.jsonl", "traces.jsonl", "verdicts.jsonl", "labels.jsonl", "scores.jsonl",
    "selected.jsonl", "pairs.jsonl", "prm.jsonl", "sft.jsonl", "dpo.jsonl", "served.json",
)
MIN_ROUNDS = 3  # per kind of round
MIN_SETUPS = 8
ROUND_TIMEOUT_S = 150


class RoundFailed(RuntimeError):
    """A worker process could not set up or did not finish its round."""


def run_worker(workload: str, seed: int, d: Path, trace=False, setup_only=False) -> dict:
    """One worker process; its result with setup_s, measured from the spawn."""
    d.mkdir(parents=True, exist_ok=True)
    result_path = d / "result.json"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--dir", str(d / "run"), "--result", str(result_path)]
    if trace:
        argv += ["--trace", "--spans", str(d / "spans.jsonl")]
    if setup_only:
        argv.append("--setup-only")
    with open(d / "worker.log", "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RoundFailed(f"worker for {workload} timed out") from None
        except BaseException:  # interrupted or terminated: take the worker along
            proc.kill()
            proc.wait()
            raise
    if code != 0 or not result_path.exists():
        tail = (d / "worker.log").read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RoundFailed(f"worker exited with {code}:\n{tail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - spawned
    return result


def digest(d: Path) -> str:
    h = hashlib.sha256()
    for name in ARTIFACTS:
        path = d / name
        h.update(name.encode())
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def round_seed(seed: int, index: int) -> int:
    """The seed of a round's inputs: distinct for every (seed, index)."""
    return seed * 1000 + index


class Checker:
    """Checks each round's artifacts; byte-identical rounds share one check."""

    def __init__(self, workload):
        self.w = workload
        self.reports: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, set[str]] = {}

    def check(self, d: Path, seed: int, stage_rc: dict) -> None:
        key = digest(d)
        if key not in self.reports:
            import checks

            report = checks.check_round(d, self.w, seed, import_program()).to_dict()
            report["seed"] = seed
            report["stage_rc"] = stage_rc
            self.reports[key] = report
        report = self.reports[key]
        self.digests.setdefault(seed, set()).add(key)
        self.attempted += sum(report["attempted"].values())
        self.failed += sum(report["failed"].values())

    @property
    def correct(self) -> bool:
        # The program is deterministic: rounds on one seed (the untraced and
        # traced round of a pair) must write the same bytes, and no artifact
        # may hold records nobody asked for.
        return all(len(keys) == 1 for keys in self.digests.values()) and not any(
            r["extra"] for r in self.reports.values()
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = OUT / f"{args.workload}-{args.seed}-{args.trace}-{time.time_ns()}"
    try:
        rounds, setups, checker = measure(args, work)
    except RoundFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    if args.trace:
        values = {name: median(traced, name) for name in traced[0]["layers"]}
        # Each traced round follows an untraced one on the same inputs.
        values["trace.overhead_s"] = statistics.median(
            t["pipeline_s"] - u["pipeline_s"] for u, t in zip(untraced, traced)
        )
        (OUT / args.workload / "layers.json").write_text(
            json.dumps(values, indent=1, sort_keys=True), encoding="utf-8"
        )
    else:
        keys = ("pipeline_s", "peak_rss_mb", "backend_calls", "prompt_mb")
        values = {key: median(untraced, key) for key in keys}
        values["setup_s"] = statistics.median(setups)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "round_seeds": [r["seed"] for r in rounds],
        "traced": [r["traced"] for r in rounds],
        "pipeline_s": [r["pipeline_s"] for r in rounds],
        "wall_s": [r["wall_s"] for r in rounds],
        "host_speed": [r["host_speed"] for r in rounds],
        "setup_s": setups,
        "checks": list(checker.reports.values()),
    }
    print(json.dumps(detail, sort_keys=True), file=sys.stderr)
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def median(rounds: list[dict], key: str) -> float:
    """Median of a round result's number, or of a per-layer number."""
    return statistics.median(r[key] if key in r else r["layers"][key] for r in rounds)


def measure(args, work: Path) -> tuple[list[dict], list[float], Checker]:
    """Whole rounds for about args.seconds; with --trace 1 every other round
    is traced. Then set-up-only probes until MIN_SETUPS set-ups are timed."""
    checker = Checker(WORKLOADS[args.workload])
    rounds: list[dict] = []
    setups: list[float] = []
    min_rounds = 2 * MIN_ROUNDS if args.trace else MIN_ROUNDS
    started = time.monotonic()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        seed = round_seed(args.seed, len(rounds) // (1 + args.trace))
        d = work / f"round-{len(rounds)}"
        r = run_worker(args.workload, seed, d, trace=traced)
        checker.check(d / "run", seed, r["stage_rc"])
        r["traced"], r["seed"] = traced, seed
        rounds.append(r)
        setups.append(r["setup_s"])
        if traced:
            keep = OUT / args.workload
            keep.mkdir(parents=True, exist_ok=True)
            shutil.move(d / "spans.jsonl", keep / "spans.jsonl")
        shutil.rmtree(d / "run")
        elapsed = time.monotonic() - started
        if len(rounds) >= min_rounds and len(rounds) % (1 + args.trace) == 0:
            if elapsed + elapsed / len(rounds) * (1 + args.trace) > args.seconds:
                break
    while len(setups) < MIN_SETUPS:
        d = work / f"setup-{len(setups)}"
        seed = round_seed(args.seed, len(setups))
        setups.append(run_worker(args.workload, seed, d, setup_only=True)["setup_s"])
    return rounds, setups, checker


if __name__ == "__main__":
    sys.exit(main())
