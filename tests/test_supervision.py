"""Tests for Monte Carlo step labels, PRM scoring, selection, and exports."""

import dataclasses
import hashlib
import json
import logging
import math
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from conftest import DROP, closed_port, completion_messages

from symtraj import llm, mock, supervision
from symtraj.fol import parse_formula
from symtraj.jsonl import FormatError, read_jsonl
from symtraj.llm import (
    DEFAULT_MAX_TOKENS,
    DEFAULT_TEMPERATURE,
    MAX_ATTEMPTS,
    GenerationRequest,
    GenerationResponse,
    PromptTooLong,
    ScriptedMockBackend,
    prompt_key,
)
from symtraj.mock import OracleMockBackend
from symtraj.problems import Problem, Statement, generate_logicasker
from symtraj.rules import VerdictStatus, verify_trajectory
from symtraj.semantics import Label
from symtraj.supervision import (
    VERDICT_PROBS,
    PreferencePair,
    PrmScore,
    RemoteScorer,
    ScorerUnavailable,
    StepLabel,
    SymbolicScorer,
    build_dpo_pairs,
    export_dpo_dataset,
    export_prm_dataset,
    export_sft_dataset,
    index_once,
    judge_distinct,
    mc_label,
    mc_label_all,
    prm_loss,
    prm_score_from_dict,
    score_trajectory,
    select_trajectories,
    step_label_from_dict,
    step_label_to_dict,
    with_problems,
)
from symtraj.trajectory import (
    build_sampling_prompt,
    make_trajectory_id,
    parse_trajectory,
    problem_id_of,
    trajectory_from_dict,
    trajectory_to_dict,
)

DATA_DIR = Path(__file__).parent / "data"

MC_TRACE = """Thought: Work from the two premises toward the question.
Action: Apply instantiation to the universally quantified formula
Observation: Cook(alice) -> Tea(alice)
Action: Apply modus ponens to derive the next fact
Observation: Tea(alice)
Action: Finish [True]
"""


def _chain_problem(pid: str = "mc-fixture") -> Problem:
    return Problem(
        id=pid,
        premises=(
            Statement(nl="Everyone who cooks drinks tea.", formula=parse_formula("∀x (Cook(x) → Tea(x))")),
            Statement(nl="Alice cooks.", formula=parse_formula("Cook(alice)")),
        ),
        hypothesis=Statement(nl="Alice drinks tea.", formula=parse_formula("Tea(alice)")),
        label=Label.TRUE,
        source="custom",
    )


def _mc_fixture():
    problem = _chain_problem()
    traj = parse_trajectory(MC_TRACE, problem_id=problem.id)
    return problem, traj


class CountingBackend:
    """Answers gold for request seeds below succeed_first, wrong above."""

    def __init__(self, succeed_first: int, gold: str = "True", wrong: str = "False"):
        self.succeed_first = succeed_first
        self.gold = gold
        self.wrong = wrong
        self.calls = 0

    def generate(self, req) -> GenerationResponse:
        self.calls += 1
        answer = self.gold if req.seed < self.succeed_first else self.wrong
        return GenerationResponse(text=f"Action: Finish [{answer}]", finish_reason="stop")


class RecordingBackend:
    """Answers gold and records the content of every request it is sent.

    Requests in fail_once fail the first time they are sent.
    """

    def __init__(self, fail_once=()):
        self.sent: list[tuple] = []
        self.messages: list[tuple] = []
        self.fail_once = set(fail_once)

    @staticmethod
    def key(req) -> tuple:
        return (prompt_key(req.messages), req.seed, req.temperature, req.max_tokens, req.model)

    def generate(self, req) -> GenerationResponse:
        key = self.key(req)
        self.sent.append(key)
        self.messages.append(req.messages)
        if key in self.fail_once:
            self.fail_once.discard(key)
            raise RuntimeError("transient backend failure")
        return GenerationResponse(text="Action: Finish [True]", finish_reason="stop")


class FlakyBackend:
    """Raises for the listed request seeds, answers gold otherwise."""

    def __init__(self, bad_seeds):
        self.bad_seeds = set(bad_seeds)

    def generate(self, req) -> GenerationResponse:
        if req.seed in self.bad_seeds:
            raise RuntimeError("transient backend failure")
        return GenerationResponse(text="Action: Finish [True]", finish_reason="stop")


class SizeLimitedBackend:
    """Rejects prompts above a character budget, answers gold otherwise."""

    def __init__(self, max_chars: int):
        self.max_chars = max_chars

    def generate(self, req) -> GenerationResponse:
        chars = sum(len(m.get("content", "")) for m in req.messages)
        if chars > self.max_chars:
            raise PromptTooLong(f"prompt is {chars} chars, limit {self.max_chars}")
        return GenerationResponse(text="Action: Finish [True]", finish_reason="stop")


# ---------------------------------------------------------------------------
# StepLabel and PrmScore containers
# ---------------------------------------------------------------------------


def test_step_label_validation():
    with pytest.raises(ValueError):
        StepLabel("t#1", 0, n_samples=10, n_success=11, hard_label=1)
    with pytest.raises(ValueError):
        StepLabel("t#1", 0, n_samples=10, n_success=-1, hard_label=-1)
    with pytest.raises(ValueError):
        StepLabel("t#1", 0, n_samples=10, n_success=5, hard_label=0)


def test_step_label_dict_round_trip():
    label = StepLabel(
        "p#abc",
        3,
        n_samples=4,
        n_success=2,
        hard_label=1,
        completions=(("True", True), (None, False), ("False", False), ("True", True)),
    )
    again = step_label_from_dict(step_label_to_dict(label))
    assert again == label


def test_readers_return_records_of_tuples_that_hash():
    # The constructors store what they are given, so the readers, given JSON
    # arrays, must build the tuples themselves: a list left in would not hash.
    problem, traj = _mc_fixture()
    traj_record = json.loads(json.dumps(trajectory_to_dict(traj)))
    read = trajectory_from_dict(traj_record)
    assert type(read.steps) is tuple and all(type(s.formulas) is tuple for s in read.steps)
    assert any(s.formulas for s in read.steps)
    assert hash(read.steps) == hash(traj.steps) and read.steps == traj.steps
    label_record = {"trajectory_id": "p#abc", "step_index": 0, "n_samples": 2, "n_success": 1,
                    "hard_label": 1, "completions": [["True", True], [None, False]]}
    label = step_label_from_dict(json.loads(json.dumps(label_record)))
    assert label.completions == (("True", True), (None, False))
    assert [type(matched) for _, matched in label.completions] == [bool, bool]
    hash(label)
    score = prm_score_from_dict({"trajectory_id": "p#abc", "problem_id": "p", "step_probs": [1, 0.5]})
    assert score.step_probs == (1.0, 0.5) and [type(p) for p in score.step_probs] == [float, float]
    hash(score)


def test_prm_score_product():
    score = PrmScore("t#1", (0.5, 0.5, 0.8))
    assert score.trajectory_prob == pytest.approx(0.2, abs=1e-12)


def test_prm_score_empty_product_is_one():
    assert PrmScore("t#1", ()).trajectory_prob == 1.0


def test_prm_score_rejects_out_of_range():
    with pytest.raises(ValueError):
        PrmScore("t#1", (0.5, 1.5))
    with pytest.raises(ValueError):
        PrmScore("t#1", (-0.1,))


def test_prm_score_rejects_inconsistent_product():
    with pytest.raises(ValueError):
        PrmScore("t#1", (0.5, 0.5), trajectory_prob=0.3)


def test_make_trajectory_id_is_stable():
    tid = make_trajectory_id("prob-7", "some raw text")
    assert tid == "prob-7#" + hashlib.sha1(b"some raw text").hexdigest()[:12]
    assert make_trajectory_id("prob-7", "some raw text") == tid
    assert make_trajectory_id("prob-7", "other text") != tid


@pytest.mark.parametrize("problem_id", ["prob-7", "folio#12", ""])
def test_problem_id_of_reads_back_the_problem_an_id_was_made_with(problem_id):
    assert problem_id_of(make_trajectory_id(problem_id, "some raw text")) == problem_id


def test_verdict_probs_fall_along_the_declared_status_order():
    # VerdictStatus is declared best first: each status scores below the one before.
    probs = [VERDICT_PROBS[status] for status in VerdictStatus]
    assert len(probs) == len(VERDICT_PROBS)
    assert all(better > worse for better, worse in zip(probs, probs[1:]))


# ---------------------------------------------------------------------------
# Monte Carlo labeling
# ---------------------------------------------------------------------------


def test_mc_label_matches_committed_expectations():
    problem, traj = _mc_fixture()
    script = {}
    for prefix_len in range(1, len(traj.steps) + 1):
        messages = completion_messages(problem, traj, prefix_len)
        answer = "True" if prefix_len <= 3 else "False"
        script[prompt_key(messages)] = f"Action: Finish [{answer}]"
    backend = ScriptedMockBackend(script)

    labels = mc_label(problem, traj, backend, n_samples=10, k=1)
    got = [json.dumps(step_label_to_dict(l), ensure_ascii=False, sort_keys=True) for l in labels]
    expected = (DATA_DIR / "mc_labels_expected.jsonl").read_text(encoding="utf-8").splitlines()
    assert got == expected


def test_mc_label_boundary_between_success_and_failure():
    problem, traj = _mc_fixture()
    script = {}
    for prefix_len in range(1, len(traj.steps) + 1):
        messages = completion_messages(problem, traj, prefix_len)
        answer = "True" if prefix_len <= 3 else "False"
        script[prompt_key(messages)] = f"Action: Finish [{answer}]"
    labels = mc_label(problem, traj, ScriptedMockBackend(script), n_samples=10, k=1)

    assert [l.hard_label for l in labels] == [1, 1, 1, -1, -1, -1]
    assert [l.step_index for l in labels] == list(range(6))
    assert labels[2].n_success == 10 and labels[3].n_success == 0


def test_mc_label_hard_label_thresholds_exhaustively():
    problem = _chain_problem("thresh")
    traj = parse_trajectory("Thought: immediate.\nAction: Finish [True]", problem_id="thresh")
    for k in range(1, 11):
        for m in range(0, 11):
            labels = mc_label(problem, traj, CountingBackend(m), n_samples=10, k=k)
            want = 1 if m >= k else -1
            assert all(l.n_success == m for l in labels)
            assert all(l.hard_label == want for l in labels), (k, m)


def test_mc_label_counts_backend_errors_as_failures():
    problem = _chain_problem("flaky")
    traj = parse_trajectory("Thought: immediate.\nAction: Finish [True]", problem_id="flaky")
    labels = mc_label(problem, traj, FlakyBackend({1, 4, 7}), n_samples=10, k=8)
    assert all(l.n_success == 7 for l in labels)
    assert all(l.hard_label == -1 for l in labels)
    assert labels[0].completions[1] == (None, False)
    assert labels[0].completions[0] == ("True", True)


def test_mc_label_skips_prefixes_with_too_long_prompts():
    problem, traj = _mc_fixture()
    sizes = [
        sum(len(m["content"]) for m in completion_messages(problem, traj, p))
        for p in range(1, len(traj.steps) + 1)
    ]
    assert sizes == sorted(sizes)
    # Budget sits between the third and fourth prefix prompt sizes.
    cutoff = (sizes[2] + sizes[3]) // 2
    labels = mc_label(problem, traj, SizeLimitedBackend(cutoff), n_samples=3, k=1)
    assert [l.step_index for l in labels] == [0, 1, 2]
    assert all(l.hard_label == 1 for l in labels)


def test_mc_label_rejects_bad_arguments():
    problem, traj = _mc_fixture()
    backend = CountingBackend(10)
    with pytest.raises(ValueError):
        mc_label(problem, traj, backend, n_samples=10, k=0)
    with pytest.raises(ValueError):
        mc_label(problem, traj, backend, n_samples=10, k=11)
    empty = parse_trajectory("Action: Finish [True]", problem_id="mc-fixture")
    stripped = type(traj)(steps=(), final_answer=None, raw_text="")
    with pytest.raises(ValueError):
        mc_label(problem, stripped, backend)
    assert empty.steps  # sanity: the Finish line itself is a step


# The test_mc_label_all_* tests below label a whole stage the way the label
# command does: mc_label_all(items, backend, **options), one list of labels
# per trajectory id.

MC_TRACE_BRANCH = MC_TRACE.replace(
    "Action: Finish [True]", "Thought: Double-check.\nAction: Finish [True]"
)


def _dedup_fixture():
    """A trace, its twin, a trace sharing its first five steps, and a short one."""
    problem, traj = _mc_fixture()
    twin = parse_trajectory(MC_TRACE, problem_id=problem.id)
    branch = parse_trajectory(MC_TRACE_BRANCH, problem_id=problem.id)
    short = parse_trajectory("Thought: immediate.\nAction: Finish [True]", problem_id=problem.id)
    assert branch.steps[:5] == traj.steps[:5] and branch.steps[5] != traj.steps[5]
    return problem, [traj, twin, branch, short]


def test_mc_label_all_sends_each_distinct_request_once():
    problem, trajs = _dedup_fixture()
    backend = RecordingBackend()
    mc_label_all([(problem, t) for t in trajs], backend, n_samples=3, parallelism=2)
    counts = Counter(backend.sent)
    assert set(counts.values()) == {1}
    # 6 prefixes, then the twin's none, the branch's last two, and the short trace's two.
    assert len(counts) == (6 + 0 + 2 + 2) * 3


def test_mc_label_all_equals_per_trajectory_mc_label():
    problem, trajs = _dedup_fixture()
    for make_backend in (lambda: CountingBackend(2), lambda: FlakyBackend({1})):
        labels = mc_label_all([(problem, t) for t in trajs], make_backend(), n_samples=3)
        together = [labels[t.trajectory_id] for t in trajs]
        one_by_one = [mc_label(problem, t, make_backend(), n_samples=3) for t in trajs]
        assert together == one_by_one


def test_mc_label_all_sends_a_failed_request_once_and_labels_twins_alike():
    problem, trajs = _dedup_fixture()
    traj, twin = trajs[:2]
    messages = completion_messages(problem, traj, 2)
    flaky = (prompt_key(messages), 1, DEFAULT_TEMPERATURE, DEFAULT_MAX_TOKENS, "")
    backend = RecordingBackend(fail_once={flaky})
    labels = mc_label_all([(problem, traj), (problem, twin)], backend, n_samples=3)
    first, second = labels[traj.trajectory_id], labels[twin.trajectory_id]
    # The failure stands for the twin too: same prefix, same completions.
    assert first[1].completions == (("True", True), (None, False), ("True", True))
    assert second == first
    counts = Counter(backend.sent)
    assert counts[flaky] == 1
    assert set(counts.values()) == {1}


def test_mc_label_all_labels_twins_once_and_logs_their_failures_once(caplog):
    problem, trajs = _dedup_fixture()
    traj, twin = trajs[:2]
    with caplog.at_level(logging.WARNING):
        alone = mc_label_all([(problem, traj)], FlakyBackend({1}), n_samples=3)[traj.trajectory_id]
    failures = [r.getMessage() for r in caplog.records]
    assert len(failures) == len(traj.steps)  # seed 1 fails after every prefix
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        labels = mc_label_all([(problem, traj), (problem, twin)], FlakyBackend({1}), n_samples=3)
    first, second = labels[traj.trajectory_id], labels[twin.trajectory_id]
    assert first is second and first == alone
    assert [r.getMessage() for r in caplog.records] == failures


@pytest.mark.parametrize("n_shots", [1, 2])
def test_mc_label_all_sends_the_prompt_of_each_prefix(n_shots):
    problem, traj = _mc_fixture()
    traj = dataclasses.replace(traj, seed_meta={"n_shots": n_shots})
    # Two identical steps still make two prefixes, each with its own prompt.
    repeated = parse_trajectory(
        "Thought: Check the premises.\nThought: Check the premises.\nAction: Finish [True]",
        problem_id=problem.id,
        seed_meta={"n_shots": n_shots},
    )
    assert repeated.steps[0] == repeated.steps[1]
    backend = RecordingBackend()
    items = [(problem, traj), (problem, repeated)]
    mc_label_all(items, backend, n_samples=2, parallelism=1)
    expected = [
        completion_messages(problem, t, p, n_shots)
        for t in (traj, repeated)
        for p in range(1, len(t.steps) + 1)
        for _seed in range(2)
    ]
    assert backend.messages == expected


def test_mc_label_all_skips_only_the_prefixes_with_too_long_prompts():
    problem, trajs = _dedup_fixture()
    traj, _, branch, short = trajs
    sizes = [
        sum(len(m["content"]) for m in completion_messages(problem, traj, p))
        for p in range(1, len(traj.steps) + 1)
    ]
    cutoff = (sizes[2] + sizes[3]) // 2
    labels = mc_label_all([(problem, t) for t in (traj, branch, short)], SizeLimitedBackend(cutoff), n_samples=3)
    got = [labels[t.trajectory_id] for t in (traj, branch, short)]
    assert [[l.step_index for l in labels] for labels in got] == [[0, 1, 2], [0, 1, 2], [0, 1]]
    assert all(l.hard_label == 1 for labels in got for l in labels)


def _record_requests(monkeypatch, backend) -> list[tuple]:
    """The messages of every request the backend is sent from now on."""
    sent = []
    generate = backend.generate

    def recording(req):
        sent.append(req.messages)
        return generate(req)

    monkeypatch.setattr(backend, "generate", recording)
    return sent


@pytest.mark.parametrize("accuracy", [0.5, 1.0, 0.0])
def test_mc_label_all_digests_each_distinct_prompt_sent_once(monkeypatch, accuracy):
    # The oracle mock digests a prompt to seed its answers' draws, so only
    # when 0 < accuracy < 1 does a continuation prompt draw and get digested;
    # the labeller knows a request by what its prompt is built from and
    # digests nothing.
    problems = generate_logicasker(2, [3], seed=5)
    backend = OracleMockBackend(problems, seed=1, accuracy=accuracy, sloppiness=0.5)
    items = []
    for p in problems:
        messages = tuple(build_sampling_prompt(p).to_messages())
        for seed in (0, 1, 0):  # the repeated seed gives a twin trace
            text = backend.generate(GenerationRequest(messages=messages, seed=seed)).text
            items.append((p, parse_trajectory(text, problem_id=p.id)))
    assert len({(t.trajectory_id, t.steps) for _, t in items}) < len(items)
    fillers = (mock._SLOPPY_FORMULA, mock._SLOPPY_PROSE)
    assert any(f"Observation: {filler}" in t.raw_text for _, t in items for filler in fillers)
    digests = []
    for module in (llm, mock, supervision):
        original = getattr(module, "prompt_key", prompt_key)

        def counting(messages, _original=original, _module=module):
            digests.append((_module, messages))
            return _original(messages)

        monkeypatch.setattr(module, "prompt_key", counting, raising=False)
    sent = _record_requests(monkeypatch, backend)
    mc_label_all(items, backend, n_samples=3)
    distinct = {prompt_key(messages) for messages in sent}
    assert len(sent) == 3 * len(distinct)
    assert all(module is mock for module, _ in digests)
    assert len(digests) == (len(distinct) if 0 < accuracy < 1 else 0)


def test_mc_label_all_sends_each_problems_prompts_for_one_trace_text(monkeypatch):
    # One trace text under two problems with different gold labels: a
    # request is known by its problem's prompt, not by the trace alone.
    tea = _chain_problem("tea")
    no_tea = dataclasses.replace(
        _chain_problem("no-tea"),
        hypothesis=Statement(nl="Alice drinks no tea.", formula=parse_formula("¬Tea(alice)")),
        label=Label.FALSE,
    )
    items = [(p, parse_trajectory(MC_TRACE, problem_id=p.id)) for p in (tea, no_tea)]
    backend = OracleMockBackend([tea, no_tea])
    sent = _record_requests(monkeypatch, backend)
    labels = mc_label_all(items, backend, n_samples=3)
    together = [labels[t.trajectory_id] for _, t in items]
    assert together == [mc_label(p, t, OracleMockBackend([tea, no_tea]), n_samples=3) for p, t in items]
    assert all(l.n_success == 3 for labels in together for l in labels)
    assert sent == [
        completion_messages(p, t, n)
        for p, t in items
        for n in range(1, len(t.steps) + 1)
        for _seed in range(3)
    ]


# ---------------------------------------------------------------------------
# PRM loss
# ---------------------------------------------------------------------------


def _labels_for(tid, hard_labels):
    return [
        StepLabel(tid, i, n_samples=1, n_success=1 if h > 0 else 0, hard_label=h)
        for i, h in enumerate(hard_labels)
    ]


def _reference_prm_loss(hard_labels, probs) -> float:
    total = 0.0
    for h, p in zip(hard_labels, probs):
        y = 1.0 if h > 0 else 0.0
        p = min(max(p, 1e-7), 1.0 - 1e-7)
        total -= y * math.log(p) + (1.0 - y) * math.log(1.0 - p)
    return total


def test_prm_loss_hand_case():
    loss = prm_loss(_labels_for("t#1", [1]), PrmScore("t#1", (0.5,)))
    assert loss == pytest.approx(0.6931, abs=1e-4)


def test_prm_loss_mixed_hand_case():
    loss = prm_loss(_labels_for("t#1", [1, -1]), PrmScore("t#1", (0.9, 0.2)))
    assert loss == pytest.approx(-math.log(0.9) - math.log(0.8), abs=1e-9)


def test_prm_loss_matches_reference_on_random_vectors():
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randint(1, 12)
        hard = [rng.choice((1, -1)) for _ in range(n)]
        probs = [rng.random() for _ in range(n)]
        got = prm_loss(_labels_for("t#r", hard), PrmScore("t#r", tuple(probs)))
        assert got == pytest.approx(_reference_prm_loss(hard, probs), abs=1e-9)


def test_prm_loss_clamps_extreme_probabilities():
    loss = prm_loss(_labels_for("t#1", [1]), PrmScore("t#1", (0.0,)))
    assert math.isfinite(loss)
    assert loss == pytest.approx(-math.log(1e-7), rel=1e-6)


def test_prm_loss_length_mismatch():
    from symtraj.supervision import LengthMismatch

    with pytest.raises(LengthMismatch):
        prm_loss(_labels_for("t#1", [1, 1]), PrmScore("t#1", (0.5,)))


# ---------------------------------------------------------------------------
# Scorers
# ---------------------------------------------------------------------------


def test_symbolic_scorer_probabilities():
    problem, traj = _mc_fixture()
    probs = SymbolicScorer().step_probs(problem, traj)
    assert len(probs) == len(traj.steps)
    assert all(p in (0.99, 0.90, 0.50, 0.01) for p in probs)
    # The fixture derivation is clean: nothing below the semantic tier.
    assert all(p >= 0.90 for p in probs)


def test_score_trajectory_wraps_probs():
    problem, traj = _mc_fixture()
    score = score_trajectory(problem, traj, SymbolicScorer())
    assert score.trajectory_id == traj.trajectory_id
    assert score.trajectory_prob == pytest.approx(math.prod(score.step_probs))


def _remote_scorer(url):
    """A RemoteScorer that records its backoff sleeps instead of sleeping."""
    sleeps = []
    scorer = RemoteScorer(url, sleep=sleeps.append, rng=random.Random(0))
    scorer.sleeps = sleeps
    return scorer


def test_remote_scorer_round_trip(local_server):
    problem, traj = _mc_fixture()
    probs = [0.9] * len(traj.steps)
    local_server.script = [(200, {"probs": probs})]
    scorer = RemoteScorer(local_server.url + "/probs")
    assert scorer.step_probs(problem, traj) == probs
    scorer.close()
    [call] = local_server.requests
    assert call["path"] == "/probs"
    assert len(call["json"]["steps"]) == len(traj.steps)
    assert call["json"]["steps"][0].startswith("Thought:")


def test_remote_scorer_retries_a_503_then_scores(local_server):
    problem, traj = _mc_fixture()
    probs = [0.9] * len(traj.steps)
    # The 503 announces Connection: close, so the dropped request that
    # follows goes out on a fresh connection and counts as a network error.
    local_server.script = [(503, {}, "close"), DROP, (200, {"probs": probs})]
    scorer = _remote_scorer(local_server.url + "/probs")
    assert scorer.step_probs(problem, traj) == probs
    scorer.close()
    assert len(local_server.requests) == 3
    assert len(scorer.sleeps) == 2


def test_remote_scorer_gives_up_after_max_attempts(local_server):
    problem, traj = _mc_fixture()
    local_server.script = [(503, {})] * MAX_ATTEMPTS
    scorer = _remote_scorer(local_server.url + "/probs")
    with pytest.raises(ScorerUnavailable, match=f"giving up after {MAX_ATTEMPTS} attempts: HTTP 503"):
        scorer.step_probs(problem, traj)
    scorer.close()
    assert len(local_server.requests) == MAX_ATTEMPTS
    assert len(scorer.sleeps) == MAX_ATTEMPTS - 1
    # A refused connection is retried like any other network error.
    scorer = _remote_scorer(f"http://127.0.0.1:{closed_port()}/probs")
    with pytest.raises(ScorerUnavailable, match="request failed: .*network error"):
        scorer.step_probs(problem, traj)
    assert len(scorer.sleeps) == MAX_ATTEMPTS - 1


def test_remote_scorer_does_not_retry_a_client_error(local_server):
    problem, traj = _mc_fixture()
    local_server.script = [(404, {})]
    scorer = _remote_scorer(local_server.url + "/probs")
    with pytest.raises(ScorerUnavailable, match="HTTP 404"):
        scorer.step_probs(problem, traj)
    scorer.close()
    assert len(local_server.requests) == 1
    assert scorer.sleeps == []


def test_remote_scorer_failures(local_server):
    problem, traj = _mc_fixture()
    rest = [0.5] * (len(traj.steps) - 1)
    replies = [
        [(200, {"wrong": []})],
        [(200, {"probs": [0.5]})],
        [(200, b"not json")],
        [DROP] * MAX_ATTEMPTS,
        # Not a probability: a string, null, out of range, NaN, a JSON boolean.
        [(200, {"probs": ["x"] + rest})],
        [(200, {"probs": [None] + rest})],
        [(200, {"probs": [1.5] + rest})],
        [(200, {"probs": [-0.1] + rest})],
        [(200, ('{"probs": [NaN' + ", 0.5" * len(rest) + "]}").encode())],
        [(200, {"probs": [True] + rest})],
    ]
    for script in replies:
        # A new scorer each time, so no request goes out on a connection kept
        # from the last reply, where a drop would pass for a closed idle one.
        local_server.script = list(script)
        scorer = _remote_scorer(local_server.url + "/probs")
        with pytest.raises(ScorerUnavailable):
            scorer.step_probs(problem, traj)
        scorer.close()
        assert local_server.script == []
    assert len(local_server.requests) == sum(map(len, replies))


# ---------------------------------------------------------------------------
# Judging each distinct trace once
# ---------------------------------------------------------------------------


def _twin_items():
    """Two twins of one trace (parsed apart, as from a file) around a second
    trace of the same problem and a trace of another problem."""
    problem, other = _chain_problem(), _chain_problem("other")
    longer = MC_TRACE.replace("Action: Finish", "Thought: Tea follows.\nAction: Finish")
    return [
        (problem, parse_trajectory(MC_TRACE, problem_id=problem.id)),
        (problem, parse_trajectory(longer, problem_id=problem.id)),
        (other, parse_trajectory(MC_TRACE, problem_id=other.id)),
        (problem, parse_trajectory(MC_TRACE, problem_id=problem.id)),
    ]


def test_judge_distinct_keeps_input_order():
    items = _twin_items()
    judge = lambda problem, traj: (problem.id, len(traj.steps))  # noqa: E731
    results, n_distinct = judge_distinct(items, judge)
    assert results == [judge(p, t) for p, t in items]
    assert results == [("mc-fixture", 6), ("mc-fixture", 7), ("other", 6), ("mc-fixture", 6)]
    assert n_distinct == 3


def test_judge_distinct_calls_the_judge_once_per_distinct_trace():
    items = _twin_items() * 2
    calls = []

    def judge(problem, traj):
        calls.append(traj.trajectory_id)
        return verify_trajectory(problem, traj)

    results, n_distinct = judge_distinct(items, judge)
    assert len(calls) == len(set(calls)) == n_distinct == 3
    assert results == [verify_trajectory(p, t) for p, t in items]
    # Twins share the one result.
    assert results[0] is results[3] is results[4] is results[7]
    assert judge_distinct([], judge) == ([], 0)


def test_with_problems_refuses_a_twin_id_with_other_steps():
    # A hand-edited file: the same trajectory id, but the second record's
    # last Observation on record claims something the premises do not give.
    problem, traj = _mc_fixture()
    steps = list(traj.steps)
    steps[4] = parse_trajectory("Observation: Cook(bob)").steps[0]
    edited = dataclasses.replace(traj, steps=tuple(steps))
    assert edited.trajectory_id == traj.trajectory_id
    twin = parse_trajectory(MC_TRACE, problem_id=problem.id)
    assert with_problems([traj, twin], [problem]) == [(problem, traj), (problem, twin)]
    other_answer = dataclasses.replace(traj, final_answer=Label.FALSE)
    message = re.escape(f"trajectory id {traj.trajectory_id!r} comes twice with different steps")
    for trajs in ([traj, edited], [edited, twin], [traj, other_answer]):
        with pytest.raises(FormatError, match=message):
            with_problems(trajs, [problem])


def test_index_once_keeps_one_value_per_key_and_refuses_another():
    conflict = lambda key: f"key {key!r} twice"  # noqa: E731
    assert index_once([("a", 1), ("b", 2), ("a", 1)], conflict) == {"a": 1, "b": 2}
    assert index_once([], conflict) == {}
    with pytest.raises(FormatError, match="^key 'a' twice$"):
        index_once([("a", 1), ("b", 2), ("a", 3)], conflict)


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


def _judged_set(n_traj: int, rng: random.Random):
    """Synthetic trajectories with random answers and random judgments."""
    problem = _chain_problem("sel")
    trajs, labels, scores = [], [], []
    for i in range(n_traj):
        answer = rng.choice(("True", "False"))
        text = f"Thought: variant {i}.\nAction: Finish [{answer}]"
        traj = parse_trajectory(text, problem_id="sel")
        trajs.append(traj)
        tid = traj.trajectory_id
        hard = [rng.choice((1, -1)) for _ in traj.steps]
        labels.extend(_labels_for(tid, hard))
        probs = tuple(rng.choice((0.99, 0.9, 0.3)) for _ in traj.steps)
        scores.append(PrmScore(tid, probs))
    return problem, trajs, labels, scores


def test_select_requires_a_judgment_source():
    problem, traj = _mc_fixture()
    with pytest.raises(ValueError):
        select_trajectories([traj], [problem])


def test_select_by_labels_exact_semantics():
    problem, trajs, labels, _ = _judged_set(40, random.Random(5))
    selected = select_trajectories(trajs, [problem], labels=labels)
    by_tid = {}
    for label in labels:
        by_tid.setdefault(label.trajectory_id, []).append(label)
    expected = [
        t
        for t in trajs
        if t.final_answer is problem.label
        and all(l.hard_label > 0 for l in by_tid[t.trajectory_id])
    ]
    assert selected == expected


def test_select_by_scores_strict_threshold():
    problem, trajs, _, scores = _judged_set(40, random.Random(9))
    selected = select_trajectories(trajs, [problem], scores=scores, step_threshold=0.5)
    score_map = {s.trajectory_id: s for s in scores}
    expected = [
        t
        for t in trajs
        if t.final_answer is problem.label
        and all(p > 0.5 for p in score_map[t.trajectory_id].step_probs)
    ]
    assert selected == expected
    # Probability exactly at the threshold is rejected.
    traj = trajs[0]
    tid = traj.trajectory_id
    flat = [PrmScore(tid, tuple(0.5 for _ in traj.steps))]
    gold = [t for t in trajs if t.trajectory_id == tid and t.final_answer is problem.label]
    assert select_trajectories(gold, [problem], scores=flat, step_threshold=0.5) == []


def test_select_requires_complete_judgments():
    problem, traj = _mc_fixture()
    assert traj.final_answer is problem.label
    tid = traj.trajectory_id
    partial = _labels_for(tid, [1] * (len(traj.steps) - 1))
    assert select_trajectories([traj], [problem], labels=partial) == []
    full = _labels_for(tid, [1] * len(traj.steps))
    assert select_trajectories([traj], [problem], labels=full) == [traj]


def test_select_with_both_sources_needs_both_to_pass():
    problem, traj = _mc_fixture()
    tid = traj.trajectory_id
    good_labels = _labels_for(tid, [1] * len(traj.steps))
    good_score = [PrmScore(tid, tuple(0.9 for _ in traj.steps))]
    bad_score = [PrmScore(tid, tuple(0.2 for _ in traj.steps))]
    assert select_trajectories([traj], [problem], scores=good_score, labels=good_labels) == [traj]
    assert select_trajectories([traj], [problem], scores=bad_score, labels=good_labels) == []


def test_select_is_monotone_in_judgments():
    # Flipping one negative judgment to positive never shrinks the selection.
    rng = random.Random(31)
    for _ in range(20):
        problem, trajs, labels, _ = _judged_set(12, rng)
        before = {t.raw_text for t in select_trajectories(trajs, [problem], labels=labels)}
        negatives = [i for i, l in enumerate(labels) if l.hard_label < 0]
        if not negatives:
            continue
        i = rng.choice(negatives)
        flipped = labels[i]
        labels[i] = StepLabel(
            flipped.trajectory_id,
            flipped.step_index,
            n_samples=flipped.n_samples,
            n_success=flipped.n_samples,
            hard_label=1,
        )
        after = {t.raw_text for t in select_trajectories(trajs, [problem], labels=labels)}
        assert before <= after


def test_select_keeps_identical_samples():
    # Identical samples share a trajectory id, so their labels land under one
    # id twice; both copies are still fully and positively judged.
    problem, traj = _mc_fixture()
    twin = parse_trajectory(MC_TRACE, problem_id=problem.id)
    assert twin.trajectory_id == traj.trajectory_id
    backend = CountingBackend(succeed_first=10)
    labels = mc_label(problem, traj, backend) + mc_label(problem, twin, backend)
    assert select_trajectories([traj, twin], [problem], labels=labels) == [traj, twin]
    last = labels[-1]
    spoiled = labels[:-1] + [
        StepLabel(last.trajectory_id, last.step_index, n_samples=10, n_success=0, hard_label=-1)
    ]
    # The spoiled twin's last label contradicts the first copy's: refused.
    with pytest.raises(FormatError, match=f"two different hard labels for step {last.step_index}$"):
        select_trajectories([traj, twin], [problem], labels=spoiled)


def test_select_refuses_two_scores_for_one_id():
    problem, traj = _mc_fixture()
    tid = traj.trajectory_id
    good, bad = (PrmScore(tid, tuple(p for _ in traj.steps)) for p in (0.9, 0.2))
    assert select_trajectories([traj], [problem], scores=[good, good]) == [traj]
    for scores in ([bad, good], [good, bad]):
        with pytest.raises(FormatError, match=re.escape(f"trajectory id {tid!r} has two different scores")):
            select_trajectories([traj], [problem], scores=scores)


def test_select_drops_unknown_problems():
    problem, traj = _mc_fixture()
    stray = parse_trajectory(MC_TRACE, problem_id="elsewhere")
    tid = stray.trajectory_id
    labels = _labels_for(tid, [1] * len(stray.steps))
    assert select_trajectories([stray], [problem], labels=labels) == []


# ---------------------------------------------------------------------------
# DPO pairs
# ---------------------------------------------------------------------------


def _brute_force_pairs(groups, threshold):
    pairs = []
    for problem_id, entries in groups.items():
        entries = list(entries)
        for a_tid, a_prob in entries:
            for b_tid, b_prob in entries:
                if a_tid == b_tid:
                    continue
                gap = a_prob - b_prob
                if gap > threshold or (gap == threshold and False):
                    pairs.append(PreferencePair(problem_id, a_tid, b_tid, gap))
    pairs.sort(key=lambda p: (p.problem_id, -p.gap, p.chosen, p.rejected))
    return pairs


def test_build_dpo_pairs_hand_case():
    groups = {"a": [("t1", 0.9), ("t2", 0.5), ("t3", 0.1)], "b": [("t4", 0.6)]}
    pairs = build_dpo_pairs(groups, threshold=0.25)
    assert pairs == [
        PreferencePair("a", "t1", "t3", pytest.approx(0.8)),
        PreferencePair("a", "t1", "t2", pytest.approx(0.4)),
        PreferencePair("a", "t2", "t3", pytest.approx(0.4)),
    ]


def test_build_dpo_pairs_threshold_is_strict():
    groups = {"a": [("hi", 0.75), ("lo", 0.5)]}
    assert build_dpo_pairs(groups, threshold=0.25) == []
    assert len(build_dpo_pairs(groups, threshold=0.2499)) == 1


def test_build_dpo_pairs_matches_brute_force():
    rng = random.Random(123)
    for _ in range(200):
        groups = {}
        for g in range(rng.randint(1, 4)):
            n = rng.randint(0, 6)
            groups[f"p{g}"] = [
                (f"p{g}#t{i}", round(rng.random(), 3)) for i in range(n)
            ]
        got = build_dpo_pairs(groups, threshold=0.25)
        want = _brute_force_pairs(groups, 0.25)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.problem_id, g.chosen, g.rejected) == (w.problem_id, w.chosen, w.rejected)
            assert g.gap == pytest.approx(w.gap, abs=1e-12)


def test_build_dpo_pairs_emits_a_twin_pair_once():
    groups = {"p": [("p#a", 0.9), ("p#a", 0.9), ("p#b", 0.1)]}
    assert build_dpo_pairs(groups) == [PreferencePair("p", "p#a", "p#b", pytest.approx(0.8))]


@pytest.mark.parametrize(
    "entries",
    [
        [("p#a", 0.6), ("p#b", 0.1), ("p#a", 0.9)],
        [("p#a", 0.9), ("p#a", 0.1)],
        [("p#a", 0.9), ("p#b", 0.5), ("p#a", 0.1)],
    ],
    ids=["largest-gap", "itself", "both-ways"],
)
def test_build_dpo_pairs_refuses_an_id_with_two_probabilities(entries):
    # One id judged on two different step lists, or a hand-edited file.
    with pytest.raises(FormatError, match=re.escape("trajectory id 'p#a' has two different scores")):
        build_dpo_pairs({"p": entries, "q": [("q#a", 0.9), ("q#b", 0.1)]})


def test_build_dpo_pairs_chosen_always_outranks_rejected():
    rng = random.Random(7)
    groups = {"p": [(f"t{i}", rng.random()) for i in range(10)]}
    probs = dict(groups["p"])
    for pair in build_dpo_pairs(groups, threshold=0.1):
        assert probs[pair.chosen] > probs[pair.rejected]
        assert pair.gap == pytest.approx(probs[pair.chosen] - probs[pair.rejected])


# ---------------------------------------------------------------------------
# Dataset exports
# ---------------------------------------------------------------------------


def test_export_prm_dataset_round_trip(tmp_path):
    problem, traj = _mc_fixture()
    tid = traj.trajectory_id
    labels = _labels_for(tid, [1, 1, 1, -1, -1, -1])
    out = tmp_path / "prm.jsonl"
    count = export_prm_dataset(labels, [traj], [problem], out)
    assert count == 1
    records = read_jsonl(out)
    assert len(records) == 1
    rec = records[0]
    assert rec["steps"][0].startswith("Thought:")
    assert len(rec["steps"]) == len(traj.steps)
    assert rec["step_labels"] == [1, 1, 1, -1, -1, -1]
    assert "Everyone who cooks drinks tea." in rec["prompt"]


def test_export_prm_dataset_leaves_out_traces_not_labelled_at_every_step(tmp_path, caplog):
    # A skipped prefix (prompt too long) leaves a step without a label; a
    # training record holds a label for every step.
    problem, traj = _mc_fixture()
    other = parse_trajectory(MC_TRACE + "\n", problem_id=problem.id)
    labels = [StepLabel(traj.trajectory_id, 1, n_samples=2, n_success=2, hard_label=1)]
    labels += _labels_for(other.trajectory_id, [1, -1, 1, 1, 1, 1])
    out = tmp_path / "prm.jsonl"
    with caplog.at_level(logging.WARNING):
        assert export_prm_dataset(labels, [traj, other, traj], [problem], out) == 1
    assert [r["step_labels"] for r in read_jsonl(out)] == [[1, -1, 1, 1, 1, 1]]
    assert [r.getMessage() for r in caplog.records] == ["2 of 3 traces left out: not every step has a hard label"]
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        assert export_prm_dataset([], [traj], [problem], out) == 0
    assert read_jsonl(out) == []
    assert [r.getMessage() for r in caplog.records] == ["1 of 1 traces left out: not every step has a hard label"]


def test_export_prm_dataset_refuses_two_labels_for_one_step(tmp_path):
    problem, traj = _mc_fixture()
    tid = traj.trajectory_id
    labels = _labels_for(tid, [1] * len(traj.steps))
    out = tmp_path / "prm.jsonl"
    assert export_prm_dataset(labels + labels, [traj], [problem], out) == 1
    flipped = dataclasses.replace(labels[2], n_success=0, hard_label=-1)
    out.unlink()
    message = re.escape(f"trajectory id {tid!r} has two different hard labels for step 2")
    with pytest.raises(FormatError, match=message):
        export_prm_dataset(labels + [flipped], [traj], [problem], out)
    assert not out.exists()


def test_export_sft_dataset(tmp_path):
    problem, traj = _mc_fixture()
    out = tmp_path / "sft.jsonl"
    count = export_sft_dataset([traj], [problem], out)
    assert count == 1
    rec = read_jsonl(out)[0]
    assert rec["response"] == traj.raw_text
    assert "Alice drinks tea." in rec["prompt"]


def test_export_sft_empty_selection(tmp_path):
    problem, _ = _mc_fixture()
    out = tmp_path / "sft.jsonl"
    assert export_sft_dataset([], [problem], out) == 0
    assert out.read_text(encoding="utf-8") == ""


def test_export_dpo_dataset(tmp_path):
    problem = _chain_problem("dpo")
    good = parse_trajectory(MC_TRACE, problem_id="dpo")
    bad = parse_trajectory("Thought: guesswork.\nAction: Finish [False]", problem_id="dpo")
    pair = PreferencePair("dpo", good.trajectory_id, bad.trajectory_id, 0.7)
    out = tmp_path / "dpo.jsonl"
    count = export_dpo_dataset([pair], [good, bad], [problem], out)
    assert count == 1
    rec = read_jsonl(out)[0]
    assert rec["chosen"] == good.raw_text
    assert rec["rejected"] == bad.raw_text
    assert "Alice cooks." in rec["prompt"]


def test_export_dpo_skips_incomplete_pairs(tmp_path):
    problem = _chain_problem("dpo")
    good = parse_trajectory(MC_TRACE, problem_id="dpo")
    pair = PreferencePair("dpo", good.trajectory_id, "dpo#missing00000", 0.5)
    out = tmp_path / "dpo.jsonl"
    assert export_dpo_dataset([pair], [good], [problem], out) == 0
    assert out.read_text(encoding="utf-8") == ""


def test_export_dpo_refuses_a_pair_of_traces_sampled_with_other_n_shots(tmp_path):
    problem = _chain_problem("dpo")
    good = parse_trajectory(MC_TRACE, problem_id="dpo", seed_meta={"n_shots": 2})
    bad = parse_trajectory("Thought: guesswork.\nAction: Finish [False]", problem_id="dpo")
    pair = PreferencePair("dpo", good.trajectory_id, bad.trajectory_id, 0.7)
    out = tmp_path / "dpo.jsonl"
    with pytest.raises(FormatError, match="sampled with n_shots 2 and 1"):
        export_dpo_dataset([pair], [good, bad], [problem], out)
    assert not out.exists()


def test_export_dpo_refuses_a_pair_that_is_not_two_traces_of_its_problem(tmp_path):
    problems = [_chain_problem("dpo"), _chain_problem("other")]
    good = parse_trajectory(MC_TRACE, problem_id="dpo")
    bad = parse_trajectory("Thought: guesswork.\nAction: Finish [False]", problem_id="other")
    out = tmp_path / "dpo.jsonl"
    for problem_id in ("dpo", "other"):
        pair = PreferencePair(problem_id, good.trajectory_id, bad.trajectory_id, 0.7)
        with pytest.raises(FormatError, match=f"is not two traces of its problem '{problem_id}'"):
            export_dpo_dataset([pair], [good, bad], problems, out)
    assert not out.exists()
