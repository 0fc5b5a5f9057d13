"""The artifacts of a small pipeline are pinned byte for byte.

A mini pipeline over the oracle mock (gen-problems, sample, verify, label,
score, select, dpo-pairs and the three exports) runs in two subprocesses
under two PYTHONHASHSEED values. Both runs must write the same bytes, and
those must match tests/data/golden_digests.json, which maps each artifact to
its SHA-256 and line count. An order that depends on string hashing, or any
change to what an artifact holds, fails here.

A deliberate artifact change rewrites the file in the same change:

    PYTHONPATH=src python tests/test_golden_digests.py --write
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).parent / "data" / "golden_digests.json"
SRC = Path(__file__).resolve().parent.parent / "src"
HASH_SEEDS = ("1", "2")

CONFIG = {
    "backend": {"kind": "oracle-mock", "seed": 3, "accuracy": 0.7, "sloppiness": 0.3},
    "n_samples": 4,
}
# --count 6 puts problems in all three splits.
PIPELINE = (
    "gen-problems --lengths 3,5 --count 6 --seed 9 --out {problems}",
    "sample --problems {problems} --backend {config} --n 3 --out {traces}",
    "verify --traces {traces} --problems {problems} --out {verdicts}",
    "label --traces {traces} --problems {problems} --backend {config} --out {labels}",
    "score --traces {traces} --problems {problems} --out {scores}",
    "select --traces {traces} --problems {problems} --scores {scores} --labels {labels} --out {selected}",
    "dpo-pairs --scores {scores} --threshold 0.01 --out {pairs}",
    "export --kind prm --traces {traces} --problems {problems} --labels {labels} --out {prm}",
    "export --kind sft --traces {selected} --problems {problems} --out {sft}",
    "export --kind dpo --traces {traces} --problems {problems} --pairs {pairs} --out {dpo}",
)
ARTIFACTS = ("problems", "traces", "verdicts", "labels", "scores", "selected", "pairs", "prm", "sft", "dpo")


def run_pipeline(out_dir: Path) -> None:
    """Every command of PIPELINE in one process, writing into out_dir."""
    from symtraj.cli import main

    files = {name: str(out_dir / f"{name}.jsonl") for name in ARTIFACTS}
    files["config"] = str(out_dir / "config.json")
    Path(files["config"]).write_text(json.dumps(CONFIG), encoding="utf-8")
    for argv in PIPELINE:
        if main([token.format(**files) for token in argv.split()]) != 0:
            raise SystemExit(f"failed: {argv}")


def _start(out_dir: Path, hash_seed: str) -> subprocess.Popen:
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath)
    return subprocess.Popen(
        [sys.executable, __file__, str(out_dir)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _read(out_dir: Path) -> dict[str, bytes]:
    return {name: (out_dir / f"{name}.jsonl").read_bytes() for name in ARTIFACTS}


def _digests(run: dict[str, bytes]) -> dict[str, dict]:
    return {
        name: {"sha256": hashlib.sha256(data).hexdigest(), "lines": data.count(b"\n")}
        for name, data in run.items()
    }


def _first_difference(a: dict[str, bytes], b: dict[str, bytes]) -> str | None:
    """The first artifact, and its first line, on which two runs differ."""
    for name in ARTIFACTS:
        lines_a, lines_b = a[name].split(b"\n"), b[name].split(b"\n")
        for lineno, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
            if x != y:
                col = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))
                window = slice(max(col - 60, 0), col + 120)
                return f"{name}.jsonl line {lineno}, byte {col}:\n  {x[window]!r}\n  {y[window]!r}"
        if len(lines_a) != len(lines_b):
            return f"{name}.jsonl: {len(lines_a) - 1} lines against {len(lines_b) - 1}"
    return None


def test_artifacts_match_the_golden_digests_under_two_hash_seeds(tmp_path):
    dirs = [tmp_path / f"hashseed-{seed}" for seed in HASH_SEEDS]
    procs = []
    for out_dir, seed in zip(dirs, HASH_SEEDS):
        out_dir.mkdir()
        procs.append(_start(out_dir, seed))
    for proc, seed in zip(procs, HASH_SEEDS):
        output, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, f"pipeline under PYTHONHASHSEED={seed} failed:\n{output}"
    first, second = (_read(d) for d in dirs)
    difference = _first_difference(first, second)
    assert difference is None, f"PYTHONHASHSEED {' and '.join(HASH_SEEDS)} differ at {difference}"
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert list(golden) == list(ARTIFACTS)
    got = _digests(first)
    for name in ARTIFACTS:
        assert got[name] == golden[name], (
            f"{name}.jsonl differs from {GOLDEN.name}: {got[name]} against {golden[name]}"
        )


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        with tempfile.TemporaryDirectory() as scratch:
            run_pipeline(Path(scratch))
            digests = _digests(_read(Path(scratch)))
        GOLDEN.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN}")
    else:
        run_pipeline(Path(sys.argv[1]))
