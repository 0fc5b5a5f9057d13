"""perfbench's traced run wraps program names; every one of them must exist.

A renamed or deleted name would otherwise surface only as an AttributeError
in `perfbench/run.py --trace 1`.
"""

from pathlib import Path

import pytest

import symtraj
from symtraj import cli, llm, mock, rules
from symtraj.fol import parse_formula
from symtraj.problems import Problem, Statement
from symtraj.semantics import Label
from symtraj.trajectory import Step, StepKind, Trajectory

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
