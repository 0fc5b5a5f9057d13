"""Acceptance gate: ten pipeline-wide checks, one pass/fail line each.

Verdict lines accumulate in REPORT_LINES; a terminal-summary hook in conftest
replays them after capture ends so they appear in any pytest run. Timing
bounds use perf_counter and generous desk-scale budgets.
"""

import json
import math
import random
import time
from pathlib import Path

import pytest

from conftest import completion_messages, random_closed_formula
from test_rules import _check_rule_step, _random_instance
from test_supervision import MC_TRACE, _mc_fixture

from symtraj.cli import evaluate_traces, main
from symtraj.demos import RINA_DEMO, SQUASH_DEMO, rina_problem, squash_problem
from symtraj.fol import parse_formula, print_formula
from symtraj.jsonl import read_jsonl
from symtraj.llm import ScriptedMockBackend, prompt_key
from symtraj.problems import generate_logicasker, problem_to_dict
from symtraj.rules import Rule, VerdictStatus, verify_trajectory
from symtraj.semantics import Label, entails
from symtraj.supervision import (
    PrmScore,
    StepLabel,
    build_dpo_pairs,
    mc_label,
    prm_loss,
    select_trajectories,
    step_label_to_dict,
)
from symtraj.trajectory import StepKind, parse_trajectory

DATA_DIR = Path(__file__).parent / "data"

VERIFIED = {VerdictStatus.VERIFIED_BY_RULE, VerdictStatus.VERIFIED_SEMANTICALLY}

REPORT_LINES: list[str] = []


def _report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {criterion}: {detail}"
    REPORT_LINES.append(line)
    print(line)
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_fol_round_trip():
    rng = random.Random("acceptance-1")
    t0 = time.perf_counter()
    failures = 0
    for i in range(1000):
        f = random_closed_formula(rng, 1 + i % 6)
        if parse_formula(print_formula(f)) != f:
            failures += 1
    elapsed = time.perf_counter() - t0
    _report(
        "1 FOL round-trip",
        failures == 0 and elapsed < 5.0,
        f"1000 formulas, {failures} failures, {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_2_rule_soundness():
    # Soundness of the path the verifier runs: verify_step must justify each
    # schema instance by the hinted rule, from inputs that entail the claim.
    rng = random.Random("acceptance-2")
    t0 = time.perf_counter()
    violations = 0
    applications = 0
    for rule in Rule:
        for _ in range(500):
            inputs, claim = _random_instance(rule, rng)
            applications += 1
            try:
                _check_rule_step(inputs, claim, rule)
            except AssertionError:
                violations += 1
    elapsed = time.perf_counter() - t0
    _report(
        "2 rule soundness",
        violations == 0 and elapsed < 60.0,
        f"{applications} applications over {len(list(Rule))} rules,"
        f" {violations} violations, {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_3_golden_traces():
    problems = []
    rina = parse_trajectory(RINA_DEMO.trajectory, problem_id="rina")
    rina_kinds = [s.kind for s in rina.steps]
    rina_obs = [len(s.formulas) for s in rina.steps if s.kind is StepKind.OBSERVATION]
    ok = (
        len(rina.steps) == 19
        and rina_kinds.count(StepKind.OBSERVATION) == 8
        and rina_obs == [5, 5, 1, 3, 1, 1, 1, 1]
        and rina.final_answer is Label.TRUE
    )
    verdicts = verify_trajectory(rina_problem(), rina)
    obs_verdicts = [
        v for s, v in zip(rina.steps, verdicts) if s.kind is StepKind.OBSERVATION
    ]
    ok = ok and all(v.status in VERIFIED for v in obs_verdicts)
    problems.append(("rina", ok))

    squash = parse_trajectory(SQUASH_DEMO.trajectory, problem_id="squash")
    ok2 = (
        len(squash.steps) == 5
        and all(s.kind is StepKind.THOUGHT for s in squash.steps)
        and [len(s.formulas) for s in squash.steps] == [4, 1, 0, 2, 2]
        and squash.final_answer is Label.TRUE
    )
    verdicts2 = verify_trajectory(squash_problem(), squash)
    ok2 = ok2 and all(v.status in VERIFIED for v in verdicts2)
    problems.append(("squash", ok2))

    _report(
        "3 golden traces",
        all(flag for _, flag in problems),
        ", ".join(f"{name} {'ok' if flag else 'BAD'}" for name, flag in problems),
    )


def test_criterion_4_generator_fidelity():
    t0 = time.perf_counter()
    problems = generate_logicasker(300, [7, 8, 9], seed=0)
    disagreements = 0
    for p in problems:
        verdict = entails([s.formula for s in p.premises], p.hypothesis.formula, 3)
        if verdict.result is not p.label:
            disagreements += 1
    balance_ok = True
    for length in (7, 8, 9):
        trues = sum(
            1
            for p in problems
            if p.meta["reasoning_length"] == length and p.label is Label.TRUE
        )
        falses = sum(
            1
            for p in problems
            if p.meta["reasoning_length"] == length and p.label is Label.FALSE
        )
        if trues + falses != 300 or abs(trues - falses) > 1:
            balance_ok = False
    again = generate_logicasker(300, [7, 8, 9], seed=0)
    deterministic = [problem_to_dict(p) for p in problems] == [
        problem_to_dict(p) for p in again
    ]
    elapsed = time.perf_counter() - t0
    _report(
        "4 generator fidelity",
        len(problems) == 900
        and disagreements == 0
        and balance_ok
        and deterministic
        and elapsed < 120.0,
        f"{len(problems)} problems, {disagreements} oracle disagreements,"
        f" balance_ok={balance_ok}, deterministic={deterministic},"
        f" {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_5_mc_labeling_matches_committed_file():
    problem, traj = _mc_fixture()
    # Scripted completions succeed exactly for prefixes shorter than 4.
    script = {}
    for prefix_len in range(1, len(traj.steps) + 1):
        messages = completion_messages(problem, traj, prefix_len)
        answer = "True" if prefix_len < 4 else "False"
        script[prompt_key(messages)] = f"Action: Finish [{answer}]"
    labels = mc_label(problem, traj, ScriptedMockBackend(script), n_samples=10, k=1)
    got = [json.dumps(step_label_to_dict(l), ensure_ascii=False, sort_keys=True) for l in labels]
    expected = (DATA_DIR / "mc_labels_expected.jsonl").read_text(encoding="utf-8").splitlines()
    boundary = [l.hard_label for l in labels] == [1, 1, 1, -1, -1, -1]
    _report(
        "5 MC labeling oracle",
        got == expected and boundary,
        f"{len(got)} step labels, file match={got == expected}, boundary at prefix 4={boundary}",
    )


def test_criterion_6_prm_loss_arithmetic():
    def reference(hard, probs):
        total = 0.0
        for h, p in zip(hard, probs):
            y = 1.0 if h > 0 else 0.0
            p = min(max(p, 1e-7), 1.0 - 1e-7)
            total -= y * math.log(p) + (1.0 - y) * math.log(1.0 - p)
        return total

    rng = random.Random("acceptance-6")
    worst = 0.0
    for _ in range(100):
        n = rng.randint(1, 15)
        hard = [rng.choice((1, -1)) for _ in range(n)]
        probs = [rng.random() for _ in range(n)]
        labels = [
            StepLabel("t#acc", i, n_samples=1, n_success=1 if h > 0 else 0, hard_label=h)
            for i, h in enumerate(hard)
        ]
        got = prm_loss(labels, PrmScore("t#acc", tuple(probs)))
        worst = max(worst, abs(got - reference(hard, probs)))
    hand = prm_loss(
        [StepLabel("t#acc", 0, n_samples=1, n_success=1, hard_label=1)],
        PrmScore("t#acc", (0.5,)),
    )
    hand_ok = abs(hand - 0.6931) < 1e-4
    _report(
        "6 PRM loss arithmetic",
        worst < 1e-9 and hand_ok,
        f"max |diff| {worst:.2e} over 100 vectors (limit 1e-9),"
        f" hand case {hand:.4f} vs 0.6931",
    )


def test_criterion_7_selection_semantics():
    problem, _ = _mc_fixture()
    rng = random.Random("acceptance-7")
    trajs = []
    labels = []
    expected = []
    for i in range(50):
        answer = rng.choice(("True", "False"))
        text = f"Thought: candidate {i}.\nObservation: Tea(alice)\nAction: Finish [{answer}]"
        traj = parse_trajectory(text, problem_id=problem.id)
        trajs.append(traj)
        tid = traj.trajectory_id
        hard = [rng.choice((1, -1)) for _ in traj.steps]
        labels.extend(
            StepLabel(tid, j, n_samples=1, n_success=1 if h > 0 else 0, hard_label=h)
            for j, h in enumerate(hard)
        )
        if answer == "True" and all(h > 0 for h in hard):
            expected.append(traj)
    selected = select_trajectories(trajs, [problem], labels=labels)
    _report(
        "7 selection semantics",
        selected == expected,
        f"selected {len(selected)} of 50, expected {len(expected)}, exact match={selected == expected}",
    )


def test_criterion_8_dpo_pairing_matches_brute_force():
    rng = random.Random("acceptance-8")
    discrepancies = 0
    for _ in range(1000):
        groups = {}
        for g in range(rng.randint(1, 3)):
            n = rng.randint(0, 7)
            groups[f"p{g}"] = [(f"p{g}#t{i}", round(rng.random(), 3)) for i in range(n)]
        got = build_dpo_pairs(groups, threshold=0.25)
        brute = []
        for problem_id, entries in groups.items():
            for a_tid, a_prob in entries:
                for b_tid, b_prob in entries:
                    if a_tid != b_tid and a_prob - b_prob > 0.25:
                        brute.append((problem_id, a_tid, b_tid, a_prob - b_prob))
        brute.sort(key=lambda r: (r[0], -r[3], r[1], r[2]))
        flat = [(p.problem_id, p.chosen, p.rejected, p.gap) for p in got]
        if len(flat) != len(brute) or any(
            a[:3] != b[:3] or abs(a[3] - b[3]) > 1e-12 for a, b in zip(flat, brute)
        ):
            discrepancies += 1
    _report(
        "8 DPO pairing",
        discrepancies == 0,
        f"{discrepancies} discrepancies over 1000 trials (threshold 0.25)",
    )


def _run_pipeline(root: Path) -> dict[str, Path]:
    root.mkdir(parents=True, exist_ok=True)
    config = root / "backend.json"
    config.write_text(
        json.dumps({"backend": {"kind": "oracle-mock", "sloppiness": 0.5}, "seed": 0}),
        encoding="utf-8",
    )
    paths = {
        name: root / f"{name}.jsonl"
        for name in (
            "problems",
            "traces",
            "verdicts",
            "labels",
            "scores",
            "selected",
            "pairs",
            "prm",
            "sft",
            "dpo",
        )
    }
    steps = [
        ["gen-problems", "--lengths", "2,3", "--count", "15", "--seed", "9",
         "--out", str(paths["problems"]), "--no-split"],
        ["sample", "--problems", str(paths["problems"]), "--backend", str(config),
         "--n", "2", "--out", str(paths["traces"])],
        ["verify", "--traces", str(paths["traces"]), "--problems", str(paths["problems"]),
         "--out", str(paths["verdicts"])],
        ["label", "--traces", str(paths["traces"]), "--problems", str(paths["problems"]),
         "--backend", str(config), "--out", str(paths["labels"])],
        ["score", "--traces", str(paths["traces"]), "--problems", str(paths["problems"]),
         "--out", str(paths["scores"])],
        ["select", "--traces", str(paths["traces"]), "--problems", str(paths["problems"]),
         "--scores", str(paths["scores"]), "--out", str(paths["selected"])],
        ["dpo-pairs", "--scores", str(paths["scores"]), "--out", str(paths["pairs"])],
        ["export", "--kind", "prm", "--traces", str(paths["traces"]),
         "--problems", str(paths["problems"]), "--labels", str(paths["labels"]),
         "--out", str(paths["prm"])],
        ["export", "--kind", "sft", "--traces", str(paths["selected"]),
         "--problems", str(paths["problems"]), "--out", str(paths["sft"])],
        ["export", "--kind", "dpo", "--traces", str(paths["traces"]),
         "--problems", str(paths["problems"]), "--pairs", str(paths["pairs"]),
         "--out", str(paths["dpo"])],
        ["evaluate", "--traces", str(paths["traces"]), "--problems", str(paths["problems"])],
    ]
    for argv in steps:
        rc = main(argv)
        assert rc == 0, argv[0]
    return paths


def _schema_ok(paths: dict[str, Path]) -> tuple[bool, str]:
    prm = read_jsonl(paths["prm"])
    sft = read_jsonl(paths["sft"])
    dpo = read_jsonl(paths["dpo"])
    if not (prm and sft and dpo):
        return False, f"empty export: prm={len(prm)} sft={len(sft)} dpo={len(dpo)}"
    for rec in prm:
        if set(rec) != {"prompt", "steps", "step_labels"}:
            return False, f"prm keys {sorted(rec)}"
        if len(rec["steps"]) != len(rec["step_labels"]):
            return False, "prm steps/labels length mismatch"
        if not all(l in (1, -1, None) for l in rec["step_labels"]):
            return False, "prm label outside {1, -1, None}"
    for rec in sft:
        if set(rec) != {"prompt", "response"} or not rec["response"]:
            return False, f"sft record {sorted(rec)}"
    for rec in dpo:
        if set(rec) != {"prompt", "chosen", "rejected"}:
            return False, f"dpo keys {sorted(rec)}"
        if rec["chosen"] == rec["rejected"]:
            return False, "dpo pair with identical sides"
    return True, f"prm={len(prm)} sft={len(sft)} dpo={len(dpo)}"


def test_criterion_9_end_to_end_mock_pipeline(tmp_path):
    t0 = time.perf_counter()
    first = _run_pipeline(tmp_path / "run1")
    elapsed = time.perf_counter() - t0
    second = _run_pipeline(tmp_path / "run2")
    identical = all(
        first[name].read_bytes() == second[name].read_bytes() for name in first
    )
    n_problems = len(read_jsonl(first["problems"]))
    schema_good, schema_detail = _schema_ok(first)
    _report(
        "9 end-to-end mock pipeline",
        n_problems == 30 and schema_good and identical and elapsed < 180.0,
        f"{n_problems} problems, {schema_detail}, rerun identical={identical},"
        f" {elapsed:.1f}s (limit 180s)",
    )


def test_criterion_10_mean_steps_statistic():
    problem, _ = _mc_fixture()
    texts = []
    for i in range(10):
        # i+1 extra thoughts plus the finishing action: hand count below.
        body = "\n".join(f"Thought: hop {j}." for j in range(i + 1))
        texts.append(f"{body}\nAction: Finish [True]")
    trajs = [parse_trajectory(t, problem_id=problem.id) for t in texts]
    step_counts = [len(t.steps) for t in trajs]
    # Hand count: trajectories have 2,3,...,11 steps; the mean is 6.5.
    hand_mean = 6.5
    stats = evaluate_traces(trajs, [problem])
    _report(
        "10 mean-steps statistic",
        step_counts == list(range(2, 12)) and stats["mean_steps"] == hand_mean,
        f"step counts {step_counts}, evaluate mean {stats['mean_steps']} vs hand {hand_mean}",
    )
