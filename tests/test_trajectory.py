"""Trace parsing, formula harvesting, serialization, and prompt assembly."""

import pytest
from conftest import completion_messages

from symtraj.demos import DEMOS, RINA_DEMO, SQUASH_DEMO, demos_for, rina_problem, squash_problem
from symtraj.fol import Exists, Pred, Variable, parse_formula
from symtraj.jsonl import read_jsonl, write_jsonl
from symtraj.llm import GenerationRequest
from symtraj.mock import OracleMockBackend
from symtraj.problems import generate_logicasker
from symtraj.rules import Rule, hint_from_text
from symtraj.semantics import Label
from symtraj.trajectory import (
    CONTINUATION_REQUEST,
    EmptyTrajectory,
    Step,
    StepKind,
    Trajectory,
    build_completion_prompt,
    _final_answer,
    build_sampling_prompt,
    extract_formulas,
    parse_trajectory,
    render_step,
    trajectory_from_dict,
    trajectory_to_dict,
)

MARKER_TEXT = """Thought: I need to reason over the premises.
Action: Apply modus ponens to derive the next fact
Observation: Q(a)
Action: Finish [True]
"""


def test_render_step():
    step = Step(StepKind.THOUGHT, "consider the premises")
    assert render_step(step) == "Thought: consider the premises"


def test_parse_marker_mode():
    traj = parse_trajectory(MARKER_TEXT, problem_id="p")
    kinds = [s.kind for s in traj.steps]
    assert kinds == [StepKind.THOUGHT, StepKind.ACTION, StepKind.OBSERVATION, StepKind.ACTION]
    assert hint_from_text(traj.steps[1].text) is Rule.MODUS_PONENS
    assert traj.steps[2].formulas == (parse_formula("Q(a)"),)
    assert traj.final_answer is Label.TRUE
    assert traj.problem_id == "p"
    assert traj.raw_text == MARKER_TEXT


def test_parse_marker_mode_case_and_numbering():
    text = "1. thought: think\n2) ACTION: Finish [False]\n"
    traj = parse_trajectory(text)
    assert [s.kind for s in traj.steps] == [StepKind.THOUGHT, StepKind.ACTION]
    assert traj.final_answer is Label.FALSE


def test_parse_marker_mode_leading_prose_becomes_thought():
    text = "Let me work through this.\nAction: Finish [Uncertain]\n"
    traj = parse_trajectory(text)
    assert traj.steps[0].kind is StepKind.THOUGHT
    assert traj.steps[0].text == "Let me work through this."
    assert traj.final_answer is Label.UNCERTAIN


def test_parse_multiline_observation_collects_each_line():
    text = (
        "Action: Translate each statement\n"
        "Observation:\n"
        "P(a) ::: a is P\n"
        "forall x (P(x) -> Q(x)) ::: every P is Q\n"
    )
    traj = parse_trajectory(text)
    obs = traj.steps[1]
    assert obs.kind is StepKind.OBSERVATION
    assert len(obs.formulas) == 2


def test_parse_numbered_mode():
    text = (
        "Working from the premises.\n"
        "1. From P(a) and the first rule we get Q(a).\n"
        "   Q(a)\n"
        "2. Chaining again gives R(a, b).\n"
        "Finish [True]\n"
    )
    traj = parse_trajectory(text)
    assert [s.kind for s in traj.steps] == [StepKind.THOUGHT] * 3
    assert traj.steps[0].text == "Working from the premises."
    assert parse_formula("Q(a)") in traj.steps[1].formulas
    assert parse_formula("R(a, b)") in traj.steps[2].formulas
    assert traj.final_answer is Label.TRUE


def test_parse_fallback_single_thought():
    traj = parse_trajectory("The statement follows directly. Answer: True")
    assert len(traj.steps) == 1
    assert traj.final_answer is Label.TRUE


def test_parse_empty_raises():
    with pytest.raises(EmptyTrajectory):
        parse_trajectory("")
    with pytest.raises(EmptyTrajectory):
        parse_trajectory("no structure here at all")


def test_final_answer_variants():
    assert parse_trajectory("Action: Finish [False]").final_answer is Label.FALSE
    assert parse_trajectory("Action: Finish[the answer is Uncertain]").final_answer is Label.UNCERTAIN
    assert parse_trajectory("The answer is no").final_answer is Label.FALSE
    assert parse_trajectory("Answer: Unknown").final_answer is Label.UNCERTAIN
    # the last finish marker wins
    two = "Action: Finish [True]\nAction: Finish [False]\n"
    assert parse_trajectory(two).final_answer is Label.FALSE
    # a last marker that names no label gives no answer
    assert parse_trajectory("Action: Finish [True]\nAction: Finish [maybe]").final_answer is None


def test_final_answer_alone_matches_the_full_parse():
    # MC labelling reads only the answer of each completion.
    problems = generate_logicasker(3, [3, 4], seed=5)
    backend = OracleMockBackend(problems, seed=1, accuracy=0.5, sloppiness=0.5)
    texts = []
    for p in problems:
        sample = GenerationRequest(messages=tuple(build_sampling_prompt(p).to_messages()), seed=0)
        traj = parse_trajectory(backend.generate(sample).text, problem_id=p.id)
        for prefix_len in range(1, len(traj.steps) + 1):
            messages = completion_messages(p, traj, prefix_len)
            for seed in range(4):
                for max_tokens in (1, 3, 1024):
                    req = GenerationRequest(messages=messages, seed=seed, max_tokens=max_tokens)
                    texts.append(backend.generate(req).text)
    assert {_final_answer(t) for t in texts} >= {Label.TRUE, Label.FALSE, None}
    for text in texts:
        assert _final_answer(text) == parse_trajectory(text).final_answer, text
    for text in ("", "   \n", "no structure here at all", "The answer might be true"):
        with pytest.raises(EmptyTrajectory):
            parse_trajectory(text)
        assert _final_answer(text) is None


def test_extract_formulas_cuts_gloss_and_noise():
    got = extract_formulas("- 1. P(a) ::: a is P, obviously")
    assert got == (parse_formula("P(a)"),)
    got = extract_formulas("Case A: Q(a) holds.")
    assert got == (parse_formula("Q(a)"),)
    # a line that is only a bullet or a number holds nothing
    assert extract_formulas("- \n 2.\n* 3)\n•") == ()


def test_extract_formulas_scans_prose():
    got = extract_formulas("Since P(a), we conclude Q(a) and it's settled")
    assert got == (parse_formula("P(a)"), parse_formula("Q(a)"))


def test_extract_formulas_skips_quantifier_prose_artifacts():
    got = extract_formulas("there exists an x20 such that the claim holds")
    assert got == ()


def test_extract_formulas_keeps_explicit_nullary():
    got = extract_formulas("Rain() holds today")
    assert got == (Pred("Rain", ()),)


def test_extract_formulas_unicode_quantifier():
    got = extract_formulas("∃x20 (Squash(x20))")
    assert got == (Exists("x20", Pred("Squash", (Variable("x20"),))),)


def test_serialization_round_trip(tmp_path):
    traj = parse_trajectory(MARKER_TEXT, problem_id="p9", generator="mock", seed_meta={"seed": 3})
    data = trajectory_to_dict(traj)
    assert data["problem_id"] == "p9"
    assert data["steps"][2]["formulas"] == ["Q(a)"]
    assert data["final_answer"] == "True"
    assert trajectory_from_dict(data) == traj
    path = tmp_path / "traces.jsonl"
    write_jsonl(path, [data])
    assert [trajectory_from_dict(d) for d in read_jsonl(path)] == [traj]
    # Trace files that still carry the former per-step rule_hint key load the same.
    old = dict(data, steps=[dict(step, rule_hint="ModusPonens") for step in data["steps"]])
    assert trajectory_from_dict(old) == traj


def test_serialization_none_answer():
    traj = Trajectory(steps=(Step(StepKind.THOUGHT, "hm"),), final_answer=None, raw_text="hm")
    data = trajectory_to_dict(traj)
    assert data["final_answer"] is None
    assert trajectory_from_dict(data) == traj
    del data["final_answer"]
    assert trajectory_from_dict(data) == traj


@pytest.mark.parametrize("word", ["Maybe", ""])
def test_answer_naming_no_label_is_rejected(word):
    with pytest.raises(ValueError, match="names no label"):
        trajectory_from_dict({"final_answer": word})


def test_demo_library_ordering():
    assert [d.source for d in demos_for("logicasker")][0] == "logicasker"
    assert [d.source for d in demos_for("folio")][0] == "folio"
    assert len(DEMOS) == 2


def test_rina_demo_structure():
    traj = parse_trajectory(RINA_DEMO.trajectory)
    assert len(traj.steps) == 19
    assert traj.final_answer is Label.TRUE
    obs_formula_counts = [len(s.formulas) for s in traj.steps if s.kind is StepKind.OBSERVATION]
    assert obs_formula_counts == [5, 5, 1, 3, 1, 1, 1, 1]
    hints = [hint_from_text(s.text) for s in traj.steps if s.kind is StepKind.ACTION]
    hints = [h for h in hints if h is not None]
    assert hints[0] is Rule.QUANTIFIER_NEGATION
    assert Rule.DE_MORGAN in hints and Rule.DOUBLE_NEGATION in hints


def test_squash_demo_structure():
    traj = parse_trajectory(SQUASH_DEMO.trajectory)
    assert [len(s.formulas) for s in traj.steps] == [4, 1, 0, 2, 2]
    assert all(s.kind is StepKind.THOUGHT for s in traj.steps)
    assert traj.final_answer is Label.TRUE


def test_sampling_prompt_two_way_for_generated_problems():
    bundle = build_sampling_prompt(squash_problem())
    assert "true or false" in bundle.task
    assert "Finish [True] or Finish [False]" in bundle.system
    assert "Uncertain" not in bundle.system
    messages = bundle.to_messages()
    assert messages[0]["role"] == "system"
    assert messages[1]["role"] == "user"
    assert bundle.demonstrations[0] == _render(SQUASH_DEMO)


def test_sampling_prompt_three_way_for_folio():
    bundle = build_sampling_prompt(rina_problem())
    assert "true, false, or uncertain" in bundle.task
    assert "Finish [Uncertain]" in bundle.system
    assert RINA_DEMO.context.split("\n")[0].split(".")[0] in bundle.demonstrations[0]


def _render(demo):
    return f"Context: {demo.context}\nQuestion: {demo.question}\n{demo.trajectory}"


def test_sampling_prompt_shot_count():
    with pytest.raises(ValueError):
        build_sampling_prompt(rina_problem(), n_shots=0)
    one = build_sampling_prompt(rina_problem(), n_shots=1)
    two = build_sampling_prompt(rina_problem(), n_shots=2)
    capped = build_sampling_prompt(rina_problem(), n_shots=99)
    assert len(one.demonstrations) == 1
    assert len(two.demonstrations) == 2
    assert len(capped.demonstrations) == len(DEMOS)


def test_completion_prompt_prefix_handling():
    problem = squash_problem()
    traj = parse_trajectory(SQUASH_DEMO.trajectory, problem_id=problem.id)
    sampling = build_sampling_prompt(problem)
    rendered = [render_step(s) for s in traj.steps]
    bundle = build_completion_prompt(sampling, rendered, prefix_len=2)
    assert bundle.continuation_prefix == "\n".join(rendered[:2])
    assert bundle.to_messages()[0] == sampling.to_messages()[0]
    user = bundle.to_messages()[1]["content"]
    assert user.startswith(sampling.to_messages()[1]["content"] + "\n")
    assert CONTINUATION_REQUEST in user
    assert user.index(bundle.continuation_prefix) < user.index(CONTINUATION_REQUEST)
    with pytest.raises(IndexError):
        build_completion_prompt(sampling, rendered, prefix_len=0)
    with pytest.raises(IndexError):
        build_completion_prompt(sampling, rendered, prefix_len=len(rendered) + 1)
