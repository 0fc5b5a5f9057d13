"""Problem-aware mock backend: determinism, accuracy, sloppiness, completions."""

import dataclasses

import pytest

from symtraj.llm import BackendUnavailable, GenerationRequest, PromptTooLong
from symtraj.mock import OracleMockBackend
from symtraj.problems import generate_logicasker
from symtraj.rules import VerdictStatus, verify_trajectory
from symtraj.semantics import Label
from symtraj.trajectory import build_completion_prompt, build_sampling_prompt, parse_trajectory


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
    messages = tuple(build_completion_prompt(p, traj, prefix_len=2).to_messages())
    text = backend.generate(GenerationRequest(messages=messages, seed=0)).text
    assert "Finish [" in text
    completion = parse_trajectory(text)
    assert completion.final_answer is p.label


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
            texts.append(user_text(build_completion_prompt(p, traj, prefix_len).to_messages()))
    # Two tasks in one prompt: list order decides, not position in the text.
    texts.append(tasks[5][0] + "\n" + tasks[1][0])
    for text in texts:
        assert backend._match_problem(text) is scan(text)
    assert backend._match_problem(texts[-1]) is problems[1]
    repeated = user_text(build_sampling_prompt(problems[2]).to_messages())
    assert backend._match_problem(repeated) is problems[2]
    with pytest.raises(BackendUnavailable):
        backend._match_problem(tasks[0][0][:-1])
