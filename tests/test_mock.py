"""Problem-aware mock backend: determinism, accuracy, sloppiness, completions."""

import dataclasses
import random
import sys
import threading

import pytest
from conftest import completion_messages

from symtraj.fol import parse_formula
from symtraj.llm import BackendUnavailable, GenerationRequest, PromptTooLong, prompt_key
from symtraj.mock import OracleMockBackend
from symtraj.problems import Problem, Statement, generate_logicasker
from symtraj.rules import VerdictStatus, verify_trajectory
from symtraj.semantics import Label
from symtraj.trajectory import build_sampling_prompt, parse_trajectory


@pytest.fixture(scope="module")
def problems():
    return generate_logicasker(3, [3], seed=11)


def _sample_req(problem, seed=0, temperature=0.7):
    messages = tuple(build_sampling_prompt(problem).to_messages())
    return GenerationRequest(messages=messages, seed=seed, temperature=temperature)


def test_mock_is_deterministic(problems):
    backend = OracleMockBackend(problems, seed=4)
    req = _sample_req(problems[0], seed=2)
    assert backend.generate(req).text == backend.generate(req).text
    again = OracleMockBackend(problems, seed=4)
    assert again.generate(req).text == backend.generate(req).text


def test_mock_accuracy_one_always_gold(problems):
    backend = OracleMockBackend(problems, seed=0, accuracy=1.0)
    for p in problems:
        for seed in range(3):
            traj = parse_trajectory(backend.generate(_sample_req(p, seed=seed)).text)
            assert traj.final_answer is p.label


def test_mock_accuracy_zero_always_flipped(problems):
    backend = OracleMockBackend(problems, seed=0, accuracy=0.0)
    flip = {Label.TRUE: Label.FALSE, Label.FALSE: Label.TRUE}
    for p in problems:
        traj = parse_trajectory(backend.generate(_sample_req(p)).text)
        assert traj.final_answer is flip[p.label]


@pytest.mark.parametrize(
    "options", [dict(accuracy=1.5), dict(accuracy=-0.1), dict(accuracy=float("nan")), dict(sloppiness=-2)]
)
def test_mock_refuses_a_probability_outside_zero_to_one(problems, options):
    with pytest.raises(ValueError, match=repr(next(iter(options)))):
        OracleMockBackend(problems, **options)


def _completion_prompts(problems) -> list[tuple]:
    """(problem, continuation prompt) after one and after two steps of each
    problem's sampled trace."""
    backend = OracleMockBackend(problems)
    prompts = []
    for p in problems:
        traj = parse_trajectory(backend.generate(_sample_req(p)).text)
        prompts += [(p, completion_messages(p, traj, prefix_len)) for prefix_len in (1, 2)]
    return prompts


@pytest.mark.parametrize("accuracy", [0.0, 0.5, 1.0])
def test_mock_completion_answer_follows_its_seeded_draw(problems, accuracy):
    backend = OracleMockBackend(problems, seed=3, accuracy=accuracy)
    flip = {Label.TRUE: Label.FALSE, Label.FALSE: Label.TRUE}
    gold = set()
    for p, messages in _completion_prompts(problems):
        for s in range(8):
            req = GenerationRequest(messages=messages, seed=s)
            draw = random.Random(f"3|{s}|{prompt_key(messages)}|{req.temperature}").random()
            expected = p.label if draw < accuracy else flip[p.label]
            assert parse_trajectory(backend.generate(req).text).final_answer is expected
            gold.add(expected is p.label)
    assert gold == {0.0: {False}, 0.5: {False, True}, 1.0: {True}}[accuracy]


def test_mock_closing_reply_is_shared_by_problem_answer_and_max_tokens(problems):
    # Two prefixes of problems[0], and one of problems[2]: both True, with
    # different conclusions, so only the problem tells their replies apart.
    prompts = _completion_prompts(problems)
    (a, a1), (_, a2), (b, b1) = prompts[0], prompts[1], prompts[4]
    assert a.label is b.label and a is not b
    backend = OracleMockBackend(problems, seed=0)
    replies = [backend.generate(GenerationRequest(messages=m, seed=0)) for m in (a1, a2)]
    assert replies[0].text == replies[1].text and replies[0].finish_reason == "stop"
    chars = [sum(len(m["content"]) for m in messages) // 4 for messages in (a1, a2)]
    assert [r.usage.prompt_tokens for r in replies] == chars and chars[0] != chars[1]
    # Another max_tokens or another problem gets its own reply, the one a
    # fresh mock gives.
    for messages, max_tokens in ((a2, 4), (b1, 1024), (b1, 4)):
        req = GenerationRequest(messages=messages, seed=0, max_tokens=max_tokens)
        got = _reply(backend.generate(req))
        assert got == _reply(OracleMockBackend(problems, seed=0).generate(req))
        assert got[0] != replies[0].text
        assert got[1] == ("length" if max_tokens == 4 else "stop")


def test_mock_sampled_trajectories_verify(problems):
    backend = OracleMockBackend(problems, seed=0)
    for p in problems:
        traj = parse_trajectory(backend.generate(_sample_req(p)).text, problem_id=p.id)
        statuses = {v.status for v in verify_trajectory(p, traj)}
        assert statuses <= {VerdictStatus.VERIFIED_BY_RULE, VerdictStatus.VERIFIED_SEMANTICALLY}


def test_mock_sloppiness_corrupts_one_step(problems):
    backend = OracleMockBackend(problems, seed=0, sloppiness=1.0)
    p = problems[0]
    traj = parse_trajectory(backend.generate(_sample_req(p)).text, problem_id=p.id)
    assert traj.final_answer is p.label
    verdicts = verify_trajectory(p, traj)
    bad = [v for v in verdicts if v.status in (VerdictStatus.INVALID, VerdictStatus.UNPARSEABLE)]
    assert len(bad) == 1


def test_mock_sloppiness_zero_is_clean(problems):
    backend = OracleMockBackend(problems, seed=0, sloppiness=0.0)
    p = problems[0]
    traj = parse_trajectory(backend.generate(_sample_req(p)).text, problem_id=p.id)
    bad = [
        v
        for v in verify_trajectory(p, traj)
        if v.status in (VerdictStatus.INVALID, VerdictStatus.UNPARSEABLE)
    ]
    assert bad == []


def test_mock_completion_mode(problems):
    backend = OracleMockBackend(problems, seed=0)
    p = problems[0]
    traj = parse_trajectory(backend.generate(_sample_req(p)).text, problem_id=p.id)
    messages = completion_messages(p, traj, prefix_len=2)
    text = backend.generate(GenerationRequest(messages=messages, seed=0)).text
    assert "Finish [" in text
    completion = parse_trajectory(text)
    assert completion.final_answer is p.label


def test_mock_on_a_problem_with_no_chain():
    # A FOLIO record has no meta chain, and a premise may have no formula.
    problem = Problem(
        id="folio-0000",
        premises=(
            Statement(nl="All dogs bark.", formula=parse_formula("forall x (Dog(x) -> Bark(x))")),
            Statement(nl="Rex is loud."),
        ),
        hypothesis=Statement(nl="Rex barks."),
        label=Label.UNCERTAIN,
        source="folio",
    )
    backend = OracleMockBackend([problem], seed=0, accuracy=0.0)
    text = backend.generate(_sample_req(problem)).text
    assert text.splitlines() == [
        "Thought: Translate the context into first-order logic.",
        "Action: Translate each context statement into a logic premise",
        "Observation:",
        "∀x (Dog(x) → Bark(x)) ::: All dogs bark.",
        "Thought: Chain the implications toward the target statement.",
        "Action: Finish [True]",
    ]
    messages = completion_messages(problem, parse_trajectory(text), 1)
    reply = backend.generate(GenerationRequest(messages=messages, seed=0)).text
    assert reply == "Observation: the remaining steps settle the statement.\nAction: Finish [True]"


def test_mock_unknown_prompt(problems):
    backend = OracleMockBackend(problems, seed=0)
    req = GenerationRequest(messages=({"role": "user", "content": "what is love"},))
    with pytest.raises(BackendUnavailable):
        backend.generate(req)


def test_mock_prompt_too_long(problems):
    backend = OracleMockBackend(problems, seed=0, max_prompt_chars=10)
    with pytest.raises(PromptTooLong):
        backend.generate(_sample_req(problems[0]))


def test_mock_truncation(problems):
    backend = OracleMockBackend(problems, seed=0)
    req = GenerationRequest(
        messages=tuple(build_sampling_prompt(problems[0]).to_messages()), max_tokens=3
    )
    resp = backend.generate(req)
    assert resp.finish_reason == "length"
    assert len(resp.text.split()) == 3


def test_mock_truncation_keeps_line_breaks():
    problem = generate_logicasker(1, [5], seed=3)[0]
    backend = OracleMockBackend([problem], seed=0)
    req = GenerationRequest(
        messages=tuple(build_sampling_prompt(problem).to_messages()), max_tokens=60
    )
    resp = backend.generate(req)
    assert resp.finish_reason == "length"
    assert len(parse_trajectory(resp.text).steps) > 1


def test_mock_problem_index_agrees_with_a_linear_scan():
    problems = generate_logicasker(8, [3, 4], seed=7)
    # A repeated task goes to its first problem, as a scan in list order finds it.
    problems = problems + [dataclasses.replace(problems[2], id="repeat")]
    backend = OracleMockBackend(problems, seed=0)
    tasks = [(build_sampling_prompt(p).task, p) for p in problems]

    def scan(text):
        return next(p for task, p in tasks if task in text)

    def user_text(messages):
        return "\n".join(m["content"] for m in messages)

    texts = []
    for p in problems:
        messages = tuple(build_sampling_prompt(p, n_shots=2).to_messages())
        texts.append(user_text(messages))
        traj = parse_trajectory(backend.generate(GenerationRequest(messages=messages)).text)
        for prefix_len in (1, len(traj.steps)):
            texts.append(user_text(completion_messages(p, traj, prefix_len)))
    # Two tasks in one prompt: list order decides, not position in the text.
    texts.append(tasks[5][0] + "\n" + tasks[1][0])
    for text in texts:
        assert backend._match_problem(text)[1] is scan(text)
    order, found = backend._match_problem(texts[-1])
    assert order == 1 and found is problems[1]
    repeated = user_text(build_sampling_prompt(problems[2]).to_messages())
    order, found = backend._match_problem(repeated)
    assert order == 2 and found is problems[2]
    with pytest.raises(BackendUnavailable):
        backend._match_problem(tasks[0][0][:-1])


def _reply(resp):
    return resp.text, resp.finish_reason, resp.usage


MIXED_OPTIONS = dict(seed=9, accuracy=0.5, sloppiness=0.5)
# Prompt letter, request seed, and max_tokens after a slash (default 1024).
MIXED_ORDER = "A0 A1 B0 A2 B1 A1/4 A0 C0 A1 A1/4 B0 C1 A2/4 C0 A3 A4 A5 B1/6 A0"


def _mixed_requests(problems) -> list[GenerationRequest]:
    """Interleaved and repeated requests: A and C are continuation prompts of
    one problem, B the sampling prompt of another."""
    a, b = problems[0], problems[1]
    traj = parse_trajectory(OracleMockBackend(problems).generate(_sample_req(a)).text)
    prompts = {
        "A": completion_messages(a, traj, 2),
        "B": tuple(build_sampling_prompt(b).to_messages()),
        "C": completion_messages(a, traj, 3),
    }
    reqs = []
    for token in MIXED_ORDER.split():
        head, _, max_tokens = token.partition("/")
        reqs.append(
            GenerationRequest(
                messages=prompts[head[0]], seed=int(head[1:]), max_tokens=int(max_tokens or 1024)
            )
        )
    return reqs


def test_mock_answer_does_not_depend_on_the_previous_prompt(problems):
    reqs = _mixed_requests(problems)
    backend = OracleMockBackend(problems, **MIXED_OPTIONS)
    got = [_reply(backend.generate(req)) for req in reqs]
    alone = [_reply(OracleMockBackend(problems, **MIXED_OPTIONS).generate(req)) for req in reqs]
    assert got == alone
    # The draw matters: A's full completions end on both answers, and a
    # short max_tokens cuts the same prompt's reply.
    tokens = MIXED_ORDER.split()
    full_a = [text for (text, _, _), t in zip(got, tokens) if t[0] == "A" and "/" not in t]
    answers = {parse_trajectory(text).final_answer for text in full_a}
    assert len(answers) == 2
    assert {g[1] for g, t in zip(got, tokens) if t.endswith("/4")} == {"length"}

    # A prompt that fails is never kept: it fails again on every call, also
    # right after a prompt that was read and kept.
    sampling, too_long = reqs[2], reqs[7]
    limit = sum(len(m["content"]) for m in sampling.messages)
    assert sum(len(m["content"]) for m in too_long.messages) > limit
    unknown = GenerationRequest(messages=({"role": "user", "content": "what is love"},))
    backend = OracleMockBackend(problems, max_prompt_chars=limit, **MIXED_OPTIONS)
    for _ in range(2):
        assert _reply(backend.generate(sampling)) == alone[2]
        for _ in range(2):
            with pytest.raises(PromptTooLong):
                backend.generate(too_long)
        assert _reply(backend.generate(sampling)) == alone[2]
        for _ in range(2):
            with pytest.raises(BackendUnavailable):
                backend.generate(unknown)


def test_mock_threads_sharing_one_backend_get_the_sequential_answers(problems):
    # perfbench's stand-in endpoint calls generate from its handler threads.
    # Switching as often as the interpreter allows, a thread that read one
    # prompt and answered from another's kept reading would get a wrong reply.
    reqs = _mixed_requests(problems)
    sequential = OracleMockBackend(problems, **MIXED_OPTIONS)
    expected = [_reply(sequential.generate(req)) for req in reqs]
    backend = OracleMockBackend(problems, **MIXED_OPTIONS)
    orders = [list(range(len(reqs))) * 20, list(reversed(range(len(reqs)))) * 20]
    got: list[list] = [[], []]

    def run(i):
        got[i] = [(j, _reply(backend.generate(reqs[j]))) for j in orders[i]]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(2):
        assert got[i] == [(j, expected[j]) for j in orders[i]]
