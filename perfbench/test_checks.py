"""The benchmark's checks must pass on real artifacts and fail on corrupted ones.

    python3 -m pytest -q perfbench/test_checks.py

One small pipeline round runs once per pytest run; each test corrupts a copy of
its artifacts and expects the stage that owns the record to count a failure.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import worker  # noqa: E402
from workloads import SampleGroup, Workload  # noqa: E402

symtraj = worker.import_program()

# One clean and one spoiled trace per problem: no trajectory-id collision,
# so clean traces are selected and short chains give preference pairs.
TINY = Workload(
    name="tiny",
    backend="oracle-mock",
    lengths=(2, 3),
    count=3,
    groups=(SampleGroup(1, 0.0), SampleGroup(1, 1.0)),
    accuracy=1.0,
    n_samples=2,
)
SEED = 5


@pytest.fixture(scope="session")
def artifacts(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("round")
    worker.write_configs(TINY, SEED, d, None)
    for stage, argvs in worker.stage_argvs(TINY, SEED, d):
        for argv in argvs:
            assert symtraj.cli.main(argv) == 0, stage
        if stage == "sample":
            worker.join_traces(TINY, d)
    return d


@pytest.fixture
def run_dir(artifacts, tmp_path) -> Path:
    d = tmp_path / "run"
    shutil.copytree(artifacts, d)
    return d


def check(d: Path) -> checks.Report:
    return checks.check_round(d, TINY, SEED, symtraj)


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def save(path: Path, records: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")


def edit(path: Path, fn) -> None:
    records = load(path)
    fn(records)
    save(path, records)


def test_untouched_round_passes(artifacts):
    rep = check(artifacts)
    assert sum(rep.failed.values()) == 0, rep.reasons
    assert not rep.extra
    n_traces = TINY.n_problems * TINY.samples_per_problem
    assert rep.attempted["gen"] == TINY.n_problems
    assert rep.attempted["select"] == n_traces
    # The round exercises selection and pairing, so their checks have teeth.
    assert load(artifacts / "selected.jsonl")
    assert load(artifacts / "pairs.jsonl")


def test_flipped_gold_label_fails_gen(run_dir):
    def flip(recs):
        recs[0]["label"] = "False" if recs[0]["label"] == "True" else "True"

    edit(run_dir / "problems.jsonl", flip)
    assert check(run_dir).failed["gen"] == 1


def test_missing_problem_fails_gen(run_dir):
    edit(run_dir / "problems.jsonl", lambda recs: recs.pop())
    assert check(run_dir).failed["gen"] == 1


def test_changed_trace_text_fails_sample(run_dir):
    def change(recs):
        recs[0]["raw_text"] += "\nThought: one more."

    edit(run_dir / "traces.jsonl", change)
    assert check(run_dir).failed["sample"] == 1


def test_rejected_clean_step_fails_verify(run_dir):
    def reject(recs):
        recs[0]["status"] = "Invalid"

    edit(run_dir / "verdicts.jsonl", reject)
    assert check(run_dir).failed["verify"] >= 1


def test_accepted_spoiled_step_fails_verify(run_dir):
    traces = load(run_dir / "traces.jsonl")
    spoiled = next(j for j, t in enumerate(traces) if t["seed_meta"]["sample_index"] == 0
                   and j >= TINY.n_problems)

    def accept_all(recs):
        runs = checks.runs_by_step(recs)
        for v in runs[spoiled]:
            v["status"] = "VerifiedByRule"

    edit(run_dir / "verdicts.jsonl", accept_all)
    assert check(run_dir).failed["verify"] == 1


def test_dropped_label_record_fails_label(run_dir):
    edit(run_dir / "labels.jsonl", lambda recs: recs.pop(3))
    assert check(run_dir).failed["label"] >= 1


def test_wrong_success_count_fails_label(run_dir):
    def lower(recs):
        recs[0]["n_success"] -= 1

    edit(run_dir / "labels.jsonl", lower)
    assert check(run_dir).failed["label"] == 1


def test_trajectory_prob_not_the_product_fails_score(run_dir):
    def bump(recs):
        recs[0]["trajectory_prob"] *= 1.01

    edit(run_dir / "scores.jsonl", bump)
    assert check(run_dir).failed["score"] == 1


def test_score_disagreeing_with_verify_fails_score(run_dir):
    def lower(recs):
        recs[0]["step_probs"][0] = 0.4
        recs[0]["trajectory_prob"] = math.prod(recs[0]["step_probs"])

    edit(run_dir / "scores.jsonl", lower)
    assert check(run_dir).failed["score"] == 1


def test_selected_trace_with_negative_step_fails_select(run_dir):
    selected = load(run_dir / "selected.jsonl")
    traces = load(run_dir / "traces.jsonl")
    j = traces.index(selected[0])

    def negate(recs):
        label = checks.runs_by_step(recs)[j][0]
        label["n_success"], label["hard_label"] = 0, -1
        label["completions"] = [["False", False]] * TINY.n_samples

    edit(run_dir / "labels.jsonl", negate)
    rep = check(run_dir)
    assert rep.failed["select"] == 1
    assert rep.failed["label"] == 1


def test_spoiled_trace_in_selection_fails_select(run_dir):
    traces = load(run_dir / "traces.jsonl")
    edit(run_dir / "selected.jsonl", lambda recs: recs.append(traces[-1]))
    assert check(run_dir).failed["select"] == 1


def test_dropped_selection_fails_select(run_dir):
    edit(run_dir / "selected.jsonl", lambda recs: recs.pop())
    assert check(run_dir).failed["select"] == 1


def test_pair_below_threshold_fails_dpo_pairs(run_dir):
    def shrink(recs):
        recs[0]["gap"] = checks.DPO_THRESHOLD / 2

    edit(run_dir / "pairs.jsonl", shrink)
    assert check(run_dir).failed["dpo_pairs"] == 1


def test_missing_pair_fails_dpo_pairs(run_dir):
    edit(run_dir / "pairs.jsonl", lambda recs: recs.pop(0))
    assert check(run_dir).failed["dpo_pairs"] >= 1


def test_wrong_prm_labels_fail_prm(run_dir):
    def flip(recs):
        recs[0]["step_labels"][0] = -1

    edit(run_dir / "prm.jsonl", flip)
    assert check(run_dir).failed["prm"] == 1


def test_missing_sft_record_fails_sft(run_dir):
    edit(run_dir / "sft.jsonl", lambda recs: recs.pop())
    assert check(run_dir).failed["sft"] == 1


def test_swapped_dpo_texts_fail_dpo(run_dir):
    def swap(recs):
        recs[0]["chosen"], recs[0]["rejected"] = recs[0]["rejected"], recs[0]["chosen"]

    edit(run_dir / "dpo.jsonl", swap)
    assert check(run_dir).failed["dpo"] == 1


def test_extra_records_are_reported(run_dir):
    edit(run_dir / "scores.jsonl", lambda recs: recs.append(dict(recs[0])))
    assert check(run_dir).extra


# -- pieces ---------------------------------------------------------------


@pytest.mark.parametrize(
    "premises, hypothesis, label",
    [
        (["P(ann)", "∀x (P(x) → Q(x))", "∀x (Q(x) → R(x))"], "R(ann)", "True"),
        (["P(ann)", "∀x (P(x) → Q(x))", "∀x (Q(x) → ¬R(x))"], "R(ann)", "False"),
        (["∃x P(x)", "∀x (P(x) → Q(x))"], "∃x Q(x)", "True"),
        (["∃x P(x)", "∀x (P(x) → Q(x))"], "¬∃x Q(x)", "False"),
        (["∃x (P(x) ∨ B(x))", "∀x (B(x) → Q(x))", "∀x (P(x) → Q(x))", "∀x (Q(x) → R(x))"], "∃x R(x)", "True"),
        # One case alone does not settle it.
        (["∃x (P(x) ∨ B(x))", "∀x (P(x) → Q(x))"], "∃x Q(x)", None),
        (["P(ann)", "∀x (P(x) → Q(x))"], "R(ann)", None),
    ],
)
def test_derive_label(premises, hypothesis, label):
    assert checks.derive_label(premises, hypothesis) == label


def test_labels_follow_what_the_stand_in_served():
    w = Workload("h", "http", (2,), 1, (SampleGroup(1, 0.0),), accuracy=0.5, n_samples=3)
    steps = [{"kind": "Thought", "text": "a"}, {"kind": "Observation", "text": "P(b)"}]
    trace = {"problem_id": "p", "steps": steps}
    served = {
        ("p", checks.prefix_digest("Thought: a")): {0: True, 1: False, 2: True},
        ("p", checks.prefix_digest("Thought: a\nObservation: P(b)")): {0: False, 1: False, 2: False},
    }

    def label(i, n_success):
        return {"step_index": i, "n_samples": 3, "n_success": n_success,
                "hard_label": 1 if n_success else -1, "completions": [[None, False]] * 3}

    assert checks.check_labels([label(0, 2), label(1, 0)], trace, w, served, [])
    assert not checks.check_labels([label(0, 3), label(1, 0)], trace, w, served, [])
    del served[("p", checks.prefix_digest("Thought: a"))][2]
    assert not checks.check_labels([label(0, 2), label(1, 0)], trace, w, served, [])
