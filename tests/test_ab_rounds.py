"""tools/ab_rounds.py runs end to end: this checkout against itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def _ab_rounds(*args: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(ROOT / "tools" / "ab_rounds.py"), SRC, SRC, *args]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


def test_ab_rounds_runs_the_checkout_against_itself():
    proc = _ab_rounds("--workload", "long-chain", "--seed", "2003", "--pairs", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "long-chain round seed 2003, 2 pairs"
    assert lines[1].startswith("round CPU B/A: median ")
    assert lines[2].startswith("B lower in ") and lines[2].endswith(" of 2 pairs")
    assert lines[-1] == "artifacts byte-identical in every pair: yes"


def test_ab_rounds_refuses_a_workload_it_cannot_run_in_process():
    proc = _ab_rounds("--workload", "http-unique", "--seed", "2003", "--pairs", "2")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: workload http-unique needs the stand-in endpoint"), proc.stderr
