"""Every committed BENCH file has the shape tools/record_bench.py writes.

A later change compares its numbers with the latest BENCH file, so the
format is checked here, not the numbers: no timing is asserted.
"""

import json
import re
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
ROUND_SEEDS = ("2003", "3005")
ROUND_KEYS = ("pipeline_s", "wall_s", "peak_rss_mb", "backend_calls", "prompt_mb")
PER_ROUND = ("round_seeds", "pipeline_s", "wall_s", "host_speed")
SHA256 = re.compile(r"[0-9a-f]{64}")


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_names_its_commit_and_host(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert re.fullmatch(r"[0-9a-f]{40}", bench["commit"])
    assert isinstance(bench["dirty"], bool)
    assert path.name == f"BENCH_{bench['date']}_{bench['commit'][:7]}.json"
    host = bench["host"]
    assert isinstance(host["cpu_model"], str) and host["cpu_model"]
    assert isinstance(host["cpu_count"], int) and host["cpu_count"] >= 1
    assert re.fullmatch(r"\d+\.\d+\.\d+", host["python"])
    assert bench["seconds"] > 0 and isinstance(bench["seed"], int)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_holds_every_workloads_metrics_and_rounds(path):
    workloads = json.loads(path.read_text(encoding="utf-8"))["workloads"]
    assert set(workloads) == {w["name"] for w in DECLARED["workloads"]}
    for name, entry in workloads.items():
        result = entry["result"]
        assert isinstance(result["correct"], bool), name
        assert 0 <= result["failed"] <= result["attempted"], name
        for m in DECLARED["end_to_end"]:
            metric = result["metrics"][m["name"]]
            assert metric["unit"] == m["unit"], (name, m["name"])
            assert isinstance(metric["value"], Real), (name, m["name"])
        rounds = entry["rounds"]
        n = len(rounds["round_seeds"])
        assert n >= 1 and all(len(rounds[key]) == n for key in PER_ROUND), name
        assert rounds["setup_s"], name
        assert set(entry["round_results"]) == set(ROUND_SEEDS), name
        for seed, r in entry["round_results"].items():
            assert all(isinstance(r[key], Real) for key in ROUND_KEYS), (name, seed)
            assert r["stage_rc"] and all(isinstance(rc, list) for rc in r["stage_rc"].values())
            digests = r["digests"]
            assert {"problems.jsonl", "traces.jsonl", "labels.jsonl", "dpo.jsonl"} <= set(digests)
            assert all(SHA256.fullmatch(h) for h in digests.values()), (name, seed)
