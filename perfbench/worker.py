"""One round of a workload: set up, run the whole pipeline, report.

The round runs every stage in this process through ``symtraj.cli.main`` and
writes a JSON result: when set-up ended, the stages' time at the reference
host speed (pipeline_s) and as measured (wall_s), the host speed, stage exit
codes, peak resident memory and the backend's request count and prompt
bytes. With --trace it also wraps the program's layers (see layers.py) and
adds their numbers; the spans go to --spans.

    python3 perfbench/worker.py --workload NAME --seed N --dir RUNDIR --result OUT.json
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from workloads import DPO_THRESHOLD, PARALLELISM, STEP_THRESHOLD, WORKLOADS  # noqa: E402


def import_program():
    """symtraj from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import symtraj.cli

    if Path(symtraj.__file__).resolve().parent != SRC / "symtraj":
        raise ImportError(f"symtraj came from {symtraj.__file__}, not from {SRC}")
    return symtraj


class BackendMeter:
    """Counts generate calls and their prompt bytes on a backend class."""

    def __init__(self, cls):
        self.calls = 0
        self.prompt_bytes = 0
        self._lock = threading.Lock()
        self._last = threading.local()
        original = cls.generate
        meter = self

        def generate(backend, req):
            n_bytes = sum(meter._utf8_len(m.get("content", "")) for m in req.messages)
            with meter._lock:
                meter.calls += 1
                meter.prompt_bytes += n_bytes
            return original(backend, req)

        self._cls, self._original = cls, original
        cls.generate = generate

    def _utf8_len(self, text: str) -> int:
        # The requests of one prefix share their strings; encode each once.
        last = getattr(self._last, "pair", None)
        if last is not None and last[0] is text:
            return last[1]
        n = len(text.encode("utf-8"))
        self._last.pair = (text, n)
        return n

    def close(self):
        self._cls.generate = self._original


# Host speed. On a shared virtual machine the same interpreter work takes up
# to twice as long in one minute as in the next (README, Measurement noise).
# While the stages run, a thread of the worker times a fixed piece of
# interpreter work every SAMPLE_EVERY_S, and pipeline_s counts the stages'
# CPU time at the speed at which that work takes REFERENCE_S; time spent
# waiting is counted as measured.
SAMPLE_EVERY_S = 0.05
CALIBRATION_N = 3000
REFERENCE_S = 0.001


def calibration() -> int:
    """A fixed piece of interpreter work: tuples, dict traffic, calls."""
    counts: dict[tuple[str, int], int] = {}
    names = ("p", "q", "r")
    for i in range(CALIBRATION_N):
        key = (names[i % 3], i % 29)
        counts[key] = counts.get(key, 0) + len(key)
    return len(set(counts))


class HostSpeed:
    """Times calibration() from a thread of this process until closed."""

    def __init__(self):
        self.samples: list[float] = []  # thread CPU seconds of each calibration
        self.cpu_s = 0.0  # their sum
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-speed", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            start = time.thread_time()
            calibration()
            took = time.thread_time() - start
            self.samples.append(took)
            self.cpu_s += took
            if self._stop.wait(SAMPLE_EVERY_S):
                return

    def close(self) -> float:
        """Work per CPU second relative to the reference speed."""
        self._stop.set()
        self._thread.join()
        # Work done in an interval is its time over the calibration's time
        # then, so the mean of the inverses, not the inverse of the mean.
        return REFERENCE_S * statistics.fmean(1 / k for k in self.samples)


def stage_argvs(w, seed: int, d: Path) -> list[tuple[str, list[list[str]]]]:
    """(stage, [cli argv, ...]) in pipeline order."""
    p, t = str(d / "problems.jsonl"), str(d / "traces.jsonl")
    backend = str(d / "backend-0.json")
    samples = [
        ["sample", "--problems", p, "--backend", str(d / f"backend-{i}.json"), "--n", str(g.n),
         "--out", str(d / f"traces-{i}.jsonl")]
        for i, g in enumerate(w.groups)
    ]
    return [
        ("gen", [["gen-problems", "--lengths", ",".join(map(str, w.lengths)), "--count", str(w.count),
                  "--seed", str(seed), "--out", p]]),
        ("sample", samples),
        ("verify", [["verify", "--traces", t, "--problems", p, "--out", str(d / "verdicts.jsonl")]]),
        ("label", [["label", "--traces", t, "--problems", p, "--backend", backend,
                    "--out", str(d / "labels.jsonl")]]),
        ("score", [["score", "--traces", t, "--problems", p, "--out", str(d / "scores.jsonl")]]),
        ("select", [["select", "--traces", t, "--problems", p, "--scores", str(d / "scores.jsonl"),
                     "--labels", str(d / "labels.jsonl"), "--step-threshold", str(STEP_THRESHOLD),
                     "--out", str(d / "selected.jsonl")]]),
        ("dpo_pairs", [["dpo-pairs", "--scores", str(d / "scores.jsonl"), "--threshold",
                        str(DPO_THRESHOLD), "--out", str(d / "pairs.jsonl")]]),
        ("export", [
            ["export", "--kind", "prm", "--traces", t, "--problems", p, "--labels",
             str(d / "labels.jsonl"), "--out", str(d / "prm.jsonl")],
            ["export", "--kind", "sft", "--traces", str(d / "selected.jsonl"), "--problems", p,
             "--out", str(d / "sft.jsonl")],
            ["export", "--kind", "dpo", "--traces", t, "--problems", p, "--pairs",
             str(d / "pairs.jsonl"), "--out", str(d / "dpo.jsonl")],
        ]),
    ]


def join_traces(w, d: Path) -> None:
    """The sample groups' trace files, one after another, as traces.jsonl."""
    with open(d / "traces.jsonl", "wb") as out:
        for i in range(len(w.groups)):
            part = d / f"traces-{i}.jsonl"
            if part.exists():
                out.write(part.read_bytes())


def write_configs(w, seed: int, d: Path, base_url: str | None) -> None:
    for i, g in enumerate(w.groups):
        if base_url is None:
            backend = {
                "kind": "oracle-mock", "seed": seed, "accuracy": w.accuracy, "sloppiness": g.sloppiness
            }
        else:
            backend = {"kind": "http", "base_url": base_url, "model": "stand-in"}
        cfg = {"backend": backend, "parallelism": PARALLELISM, "n_samples": w.n_samples}
        (d / f"backend-{i}.json").write_text(json.dumps(cfg), encoding="utf-8")


def start_standin(w, seed: int, d: Path) -> tuple[subprocess.Popen, str]:
    if len(w.groups) != 1:
        raise ValueError("the stand-in serves one sloppiness, so one sample group")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "standin.py"), "--src", str(SRC),
         "--problems", str(d / "problems.jsonl"), "--served", str(d / "served.json"),
         "--seed", str(seed), "--accuracy", str(w.accuracy),
         "--sloppiness", str(w.groups[0].sloppiness), "--delay-ms", str(w.service_delay_ms)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline().strip()
    if not line.isdigit():
        stop(proc)
        raise RuntimeError("stand-in endpoint did not start")
    return proc, f"http://127.0.0.1:{line}"


def stop(proc: subprocess.Popen) -> None:
    proc.stdin.close()
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", dest="setup_only", action="store_true")
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    d = Path(args.dir)

    # Set-up: import the program, write the backend config, start the endpoint.
    symtraj = import_program()
    d.mkdir(parents=True, exist_ok=True)
    standin = None
    base_url = None
    if w.backend == "http":
        standin, base_url = start_standin(w, args.seed, d)
    # The stages run on one CPU (the stand-in, started before, keeps them
    # all). On a shared host, handing the interpreter lock to a thread on the
    # other CPU waits for that CPU to be scheduled: a wait of the host's that
    # doubled label's time in some rounds and not in others.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        write_configs(w, args.seed, d, base_url and base_url + "/v1/chat/completions")
        ready = time.monotonic()
        result = {"ready": ready}
        if not args.setup_only:
            result.update(run_pipeline(symtraj, w, args, d, base_url))
    finally:
        if standin is not None:
            stop(standin)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def run_pipeline(symtraj, w, args, d: Path, base_url: str | None) -> dict:
    meter = BackendMeter(symtraj.mock.OracleMockBackend) if base_url is None else None
    tracer = None
    main = symtraj.cli.main
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer, symtraj, http=base_url is not None)
    stage_rc: dict[str, list[int]] = {}
    # The stages only: joining the sample files is not timed. wait_s is wall
    # time less this process's CPU time; cpu_s leaves out the calibrations.
    wall_s = wait_s = cpu_s = 0.0
    host = HostSpeed()
    for stage, argvs in stage_argvs(w, args.seed, d):
        run = tracer.wrap(f"cli.{stage}", main) if tracer else main
        start, cpu_start, host_start = time.perf_counter(), time.process_time(), host.cpu_s
        stage_rc[stage] = [run(argv) for argv in argvs]
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        wall_s += wall
        wait_s += wall - cpu
        cpu_s += cpu - (host.cpu_s - host_start)
        if stage == "sample":
            join_traces(w, d)
    speed = host.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer:
        tracer.uninstall()
    if meter:
        meter.close()
        calls, prompt_bytes, endpoint = meter.calls, meter.prompt_bytes, None
    else:
        with urllib.request.urlopen(base_url + "/stats", timeout=30) as resp:
            endpoint = json.loads(resp.read())
        calls, prompt_bytes = endpoint["requests"], endpoint["prompt_bytes"]
    result = {
        "pipeline_s": wait_s + cpu_s * speed,
        "wall_s": wall_s,
        "host_speed": speed,
        "stage_rc": stage_rc,
        "peak_rss_mb": peak_rss_mb,
        "backend_calls": calls,
        "prompt_mb": prompt_bytes / 1e6,
    }
    if tracer:
        result["layers"] = layers.metrics(tracer, endpoint)
        if args.spans:
            tracer.write_spans(args.spans)
    return result


if __name__ == "__main__":
    sys.exit(main())
