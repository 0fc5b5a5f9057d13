"""Compare two symtraj trees round by round, in one process on one CPU.

    python3 tools/ab_rounds.py SRC_A SRC_B --workload W --seed N --pairs K

SRC_A and SRC_B are directories that hold a symtraj package (a checkout's
src/). Both are imported, under the package names symtraj_a and symtraj_b,
into this process, which is then pinned to one CPU. Each pair runs one whole
pipeline round of each tree on round seed N, with the stage list of
perfbench/worker.py's stage_argvs, and takes each round's CPU time (stages
only, time.process_time). Which tree goes first alternates from pair to
pair, and one unmeasured round of each comes before the pairs.

It prints the median and quartiles of the per-pair ratio B / A of round CPU,
how many pairs B took less CPU in, and whether every artifact B wrote is
byte-identical to A's in every pair. Running a tree against itself (A/A)
shows how far the ratio strays with no change at all.

Only the in-process workloads run here: http-unique's stand-in endpoint
serves from the checkout's own tree. The benchmark of record stays
perfbench/run.py; this is a quicker, finer check of a change's CPU cost.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import logging
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from worker import join_traces, stage_argvs, write_configs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_tree(src: Path, name: str):
    """The symtraj package under src, imported as package `name`, and its cli."""
    init = src / "symtraj" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {src} holds no symtraj package")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def run_round(cli, w, seed: int, d: Path) -> tuple[float, dict[str, str]]:
    """One pipeline round in d: the stages' CPU seconds and each file's SHA-256."""
    d.mkdir()
    write_configs(w, seed, d, None)
    out = io.StringIO()
    gc.collect()
    cpu_s = 0.0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        for stage, argvs in stage_argvs(w, seed, d):
            start = time.process_time()
            codes = [cli.main(argv) for argv in argvs]
            cpu_s += time.process_time() - start
            if any(codes):
                raise SystemExit(f"error: stage {stage} exited with {codes}:\n{out.getvalue()[-2000:]}")
            if stage == "sample":
                join_traces(w, d)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(d.iterdir())}
    return cpu_s, digests


def compare(src_a: Path, src_b: Path, workload: str, seed: int, pairs: int) -> dict:
    w = WORKLOADS[workload]
    if w.backend != "oracle-mock":
        raise SystemExit(f"error: workload {workload} needs the stand-in endpoint; only in-process workloads run here")
    clis = {"A": load_tree(src_a, "symtraj_a"), "B": load_tree(src_b, "symtraj_b")}
    # cli.main configures logging on its first call; keep that off stderr.
    logging.getLogger().addHandler(logging.NullHandler())
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ratios, cpu, identical = [], {"A": [], "B": []}, True
    with tempfile.TemporaryDirectory(prefix="ab-rounds-") as tmp:
        for side, cli in clis.items():
            run_round(cli, w, seed, Path(tmp) / f"warm-{side}")
        for i in range(pairs):
            digests = {}
            for side in ("AB" if i % 2 == 0 else "BA"):
                cpu_s, digests[side] = run_round(clis[side], w, seed, Path(tmp) / f"{i}-{side}")
                cpu[side].append(cpu_s)
            ratios.append(cpu["B"][-1] / cpu["A"][-1])
            identical = identical and digests["A"] == digests["B"]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return {
        "workload": workload,
        "seed": seed,
        "pairs": pairs,
        "ratio_median": median,
        "ratio_quartiles": (q1, q3),
        "b_lower": sum(r < 1 for r in ratios),
        "cpu_median_s": {side: statistics.median(values) for side, values in cpu.items()},
        "identical": identical,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path, metavar="SRC_A")
    parser.add_argument("src_b", type=Path, metavar="SRC_B")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="the round seed every pair runs")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of rounds, at least 2")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to give quartiles")
    r = compare(args.src_a.resolve(), args.src_b.resolve(), args.workload, args.seed, args.pairs)
    q1, q3 = r["ratio_quartiles"]
    print(f"{r['workload']} round seed {r['seed']}, {r['pairs']} pairs")
    print(f"round CPU B/A: median {r['ratio_median']:.3f}, quartiles {q1:.3f}-{q3:.3f}")
    print(f"B lower in {r['b_lower']} of {r['pairs']} pairs")
    print(f"median round CPU: A {r['cpu_median_s']['A']:.4f} s, B {r['cpu_median_s']['B']:.4f} s")
    print(f"artifacts byte-identical in every pair: {'yes' if r['identical'] else 'NO'}")
    return 0 if r["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
