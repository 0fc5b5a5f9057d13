"""Built-in worked examples used as few-shot demonstrations.

Two demonstrations ship with the package: a marker-style derivation over a
three-way entailment question and a numbered-list trace over a two-way
implication-chain question. Prompt builders put demonstrations whose source
matches the problem first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fol import Exists, ForAll, Implies, Or, Pred, Variable
from .problems import Problem, Statement
from .semantics import Label


@dataclass(frozen=True)
class Demo:
    source: str
    context: str
    question: str
    trajectory: str


_RINA_CONTEXT_SENTENCES = [
    "All people who regularly drink coffee are dependent on caffeine.",
    "People either regularly drink coffee or joke about being addicted to caffeine.",
    "No one who jokes about being addicted to caffeine is unaware that caffeine is a drug.",
    "Rina is either a student and unaware that caffeine is a drug, or neither a student"
    " nor unaware that caffeine is a drug.",
    "If Rina is not a person dependent on caffeine and a student, then Rina is either a"
    " person dependent on caffeine and a student, or neither a person dependent on"
    " caffeine nor a student.",
]

_RINA_HYPOTHESIS = (
    "Rina is either a person who jokes about being addicted to caffeine or is unaware"
    " that caffeine is a drug."
)

_RINA_TRAJECTORY = f"""Thought: The context needs to be written as first-order logic formulas.
Action: Define predicates
Observation:
Dependent(x) ::: x is dependent on caffeine.
Drinks(x) ::: x regularly drinks coffee.
Jokes(x) ::: x jokes about being addicted to caffeine.
Unaware(x) ::: x is unaware that caffeine is a drug.
Student(x) ::: x is a student.
Action: Translate each context statement into a logic premise
Observation:
∀x (Drinks(x) → Dependent(x)) ::: {_RINA_CONTEXT_SENTENCES[0]}
∀x (Drinks(x) ∨ Jokes(x)) ::: {_RINA_CONTEXT_SENTENCES[1]}
¬∃x (Jokes(x) → Unaware(x)) ::: {_RINA_CONTEXT_SENTENCES[2]}
(Student(rina) ∧ Unaware(rina)) ∨ ¬(Student(rina) ∨ Unaware(rina)) ::: {_RINA_CONTEXT_SENTENCES[3]}
¬(Dependent(rina) ∧ Student(rina)) → (Dependent(rina) ∧ Student(rina)) ∨ ¬(Dependent(rina) ∨ Student(rina)) ::: {_RINA_CONTEXT_SENTENCES[4]}
Thought: Work forward from the premises with inference rules until the target statement is settled.
Action: Apply quantifier negation to the third premise
Observation:
∀x ¬(Jokes(x) → Unaware(x)) ::: The implication fails for every x.
Action: Apply instantiation to the universally quantified formulas
Observation:
Drinks(rina) → Dependent(rina) ::: If Rina regularly drinks coffee she is dependent on caffeine.
Drinks(rina) ∨ Jokes(rina) ::: Rina regularly drinks coffee or jokes about being addicted to caffeine.
¬(Jokes(rina) → Unaware(rina)) ::: The implication fails for Rina in particular.
Action: Rewrite the implication in ¬(Jokes(rina) → Unaware(rina)) as a disjunction
Observation: ¬(¬Jokes(rina) ∨ Unaware(rina))
Action: Apply De Morgan's law to ¬(¬Jokes(rina) ∨ Unaware(rina))
Observation: ¬(¬Jokes(rina)) ∧ ¬Unaware(rina)
Action: Apply double negation elimination to ¬(¬Jokes(rina))
Observation: Jokes(rina)
Action: Introduce a disjunction: Jokes(rina) already holds, so any disjunction containing it holds.
Observation: Jokes(rina) ∨ Unaware(rina)
Action: Finish [True]"""

RINA_DEMO = Demo(
    source="folio",
    context=" ".join(_RINA_CONTEXT_SENTENCES),
    question=(
        "Based on the above information, is the following statement true, false, or"
        f" uncertain? {_RINA_HYPOTHESIS}"
    ),
    trajectory=_RINA_TRAJECTORY,
)


_SQUASH_CONTEXT_SENTENCES = [
    "For all x20, if x20 will make tea, then x20 will play squash.",
    "There is at least one x20 for which x20 will cook dinner or x20 will make tea.",
    "For all x20, if x20 will play squash, then x20 will cook dinner.",
    "For all x20, if x20 will cook dinner, then x20 will play squash.",
]

_SQUASH_HYPOTHESIS = "There is at least one x20 for which x20 will play squash."

_SQUASH_TRAJECTORY = """1. The four premises in first-order logic:
- ∀x20 (Tea(x20) → Squash(x20))
- ∃x20 (Cook(x20) ∨ Tea(x20))
- ∀x20 (Squash(x20) → Cook(x20))
- ∀x20 (Cook(x20) → Squash(x20))
2. The target statement asks whether Squash(x20) holds for at least one x20.
3. The second premise guarantees somebody who cooks dinner or makes tea.
4. Split on that disjunction:
Case A: the person cooks dinner. The fourth premise then gives Squash(x20) for that person.
Case B: the person makes tea. The first premise then gives Squash(x20) for that person.
5. Both cases end with Squash(x20) holding for someone, so ∃x20 (Squash(x20)) follows.
Finish [True]"""

SQUASH_DEMO = Demo(
    source="logicasker",
    context=" ".join(_SQUASH_CONTEXT_SENTENCES),
    question=(
        "Based on the above information, is the following statement true or false?"
        f" {_SQUASH_HYPOTHESIS}"
    ),
    trajectory=_SQUASH_TRAJECTORY,
)


DEMOS = [RINA_DEMO, SQUASH_DEMO]


def demos_for(source: str) -> list[Demo]:
    """Library demos, those matching the given problem source first."""
    return sorted(DEMOS, key=lambda d: d.source != source)


def rina_problem() -> Problem:
    """The three-way demo as a Problem (premises in NL only)."""
    return Problem(
        id="folio-demo-rina",
        premises=tuple(Statement(nl=s) for s in _RINA_CONTEXT_SENTENCES),
        hypothesis=Statement(nl=_RINA_HYPOTHESIS),
        label=Label.TRUE,
        source="folio",
    )


def squash_problem() -> Problem:
    """The two-way demo as a Problem (premises with formulas)."""
    x = Variable("x20")
    formulas = [
        ForAll("x20", Implies(Pred("Tea", (x,)), Pred("Squash", (x,)))),
        Exists("x20", Or(Pred("Cook", (x,)), Pred("Tea", (x,)))),
        ForAll("x20", Implies(Pred("Squash", (x,)), Pred("Cook", (x,)))),
        ForAll("x20", Implies(Pred("Cook", (x,)), Pred("Squash", (x,)))),
    ]
    return Problem(
        id="logicasker-demo-squash",
        premises=tuple(
            Statement(nl=s, formula=f) for s, f in zip(_SQUASH_CONTEXT_SENTENCES, formulas)
        ),
        hypothesis=Statement(nl=_SQUASH_HYPOTHESIS, formula=Exists("x20", Pred("Squash", (x,)))),
        label=Label.TRUE,
        source="logicasker",
    )
