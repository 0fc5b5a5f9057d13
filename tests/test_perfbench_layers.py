"""perfbench's traced run wraps program names; every one of them must exist.

A renamed or deleted name would otherwise surface only as an AttributeError
in `perfbench/run.py --trace 1`.
"""

from pathlib import Path

import pytest
from conftest import completion_messages

import symtraj
from symtraj import cli, llm, mock, rules, supervision
from symtraj.fol import parse_formula
from symtraj.problems import Problem, Statement, generate_logicasker
from symtraj.semantics import Label
from symtraj.trajectory import Step, StepKind, Trajectory, build_sampling_prompt, parse_trajectory

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("http", [True, False])
def test_traced_run_installs_and_uninstalls(monkeypatch, http):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    backend_cls = llm.HttpBackend if http else mock.OracleMockBackend
    generate, mc_label = backend_cls.generate, cli.mc_label
    tracer = spans.Tracer()
    try:
        layers.install(tracer, symtraj, http=http)
        assert backend_cls.generate.__wrapped__ is generate
        assert cli.mc_label.__wrapped__ is mc_label
    finally:
        tracer.uninstall()
    assert backend_cls.generate is generate and cli.mc_label is mc_label


def test_verify_trajectory_calls_the_names_the_traced_run_wraps(monkeypatch):
    # rules.verify_step_calls, rules.oracle_fallbacks and
    # semantics.entails_calls count calls of rules.verify_step and
    # rules.entails; a verify_trajectory that went round either name would
    # read 0 there with no error.
    counts = dict.fromkeys(("verify_step", "entails"), 0)
    for name in counts:

        def counting(*args, _name=name, _original=getattr(rules, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(rules, name, counting)
    problem = Problem(
        id="t",
        premises=(Statement(nl="a is P.", formula=parse_formula("P(a)")),),
        hypothesis=Statement(nl="b is S.", formula=parse_formula("S(b)")),
        label=Label.UNCERTAIN,
    )
    # No rule gives S(b) from P(a), so the oracle decides it.
    steps = (
        Step(StepKind.ACTION, "Apply modus ponens"),
        Step(StepKind.OBSERVATION, "S(b)", (parse_formula("S(b)"),)),
    )
    traj = Trajectory(steps=steps, final_answer=Label.TRUE, raw_text="t", problem_id="t")
    rules.verify_trajectory(problem, traj)
    assert counts == {"verify_step": 1, "entails": 1}


def test_mc_labeler_calls_the_names_the_traced_run_wraps(monkeypatch):
    # trajectory.prompt_s times supervision.build_completion_prompt, and
    # llm.generate_calls counts OracleMockBackend.generate: one call per
    # distinct prefix (traces and twins that share a prefix build its prompt
    # once), and one per distinct request, however much of a prompt's
    # reading the mock keeps between calls.
    calls = dict.fromkeys(("build_completion_prompt", "generate"), 0)
    wrapped = ((supervision, "build_completion_prompt"), (mock.OracleMockBackend, "generate"))
    for owner, name in wrapped:

        def counting(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    problems = generate_logicasker(2, [3], seed=5)
    backend = mock.OracleMockBackend(problems, seed=1, sloppiness=0.5)
    items = []
    for p in problems:
        messages = tuple(build_sampling_prompt(p).to_messages())
        for seed in (0, 1, 0):  # the repeated seed gives a twin trace
            text = backend.generate(llm.GenerationRequest(messages=messages, seed=seed)).text
            items.append((p, parse_trajectory(text, problem_id=p.id)))
    calls.update(generate=0)
    supervision.mc_label_all(items, backend, n_samples=3)
    traces = {(t.trajectory_id, t.steps): (p, t) for p, t in items}
    assert len(traces) < len(items)
    prefixes = [(p, t, n) for p, t in traces.values() for n in range(1, len(t.steps) + 1)]
    distinct = {llm.prompt_key(completion_messages(p, t, n)) for p, t, n in prefixes}
    assert len(distinct) < len(prefixes)
    assert calls == {"build_completion_prompt": len(distinct), "generate": 3 * len(distinct)}
