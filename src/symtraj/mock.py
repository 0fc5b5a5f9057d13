"""A problem-aware mock backend for offline pipeline runs.

Given the problem set it will be prompted about, it synthesizes a plausible
marker-style trace for sampling prompts and a short closing completion for
continuation prompts, all deterministically from the seeds in play. The
accuracy knob controls how often the final answer is the gold label; the
sloppiness knob spoils one derivation step with that probability, giving the
scorers something to reject.
"""

from __future__ import annotations

import os
import random

from .fol import And, Constant, Exists, Formula, Implies, Not, Or, Pred, Variable, print_formula
from .llm import (
    BackendUnavailable,
    GenerationRequest,
    GenerationResponse,
    PromptTooLong,
    Usage,
    _prompt_chars,
    _truncate,
    prompt_key,
)
from .problems import Problem
from .semantics import Label
from .trajectory import CONTINUATION_REQUEST, build_sampling_prompt

WITNESS = "w1"

_SLOPPY_FORMULA = "Mystery(zeta)"
_SLOPPY_PROSE = "this step clearly speaks for itself"


def _flip(label: Label) -> Label:
    if label is Label.TRUE:
        return Label.FALSE
    if label is Label.FALSE:
        return Label.TRUE
    return Label.TRUE


class OracleMockBackend:
    """Deterministic stand-in for a live model over a known problem set."""

    in_process = True

    def __init__(
        self,
        problems,
        seed: int = 0,
        accuracy: float = 1.0,
        sloppiness: float = 0.0,
        max_prompt_chars: int | None = None,
    ):
        self.seed = seed
        self.accuracy = accuracy
        self.sloppiness = sloppiness
        self.max_prompt_chars = max_prompt_chars
        problems = list(problems)
        tasks = [build_sampling_prompt(p).task for p in problems]
        # A task can only occur where the tasks' common head does, and its
        # first key_len characters there pick out the candidate problems.
        self._head = os.path.commonprefix(tasks)
        self._key_len = min(map(len, tasks), default=0)
        self._by_key: dict[str, list[tuple[int, str, Problem]]] = {}
        for order, (task, problem) in enumerate(zip(tasks, problems)):
            self._by_key.setdefault(task[: self._key_len], []).append((order, task, problem))

    def _match_problem(self, user_text: str) -> Problem:
        """The first problem, in list order, whose task occurs in the prompt."""
        best: tuple[int, Problem] | None = None
        pos = user_text.find(self._head)
        while pos >= 0:
            for order, task, problem in self._by_key.get(user_text[pos : pos + self._key_len], ()):
                if (best is None or order < best[0]) and user_text.startswith(task, pos):
                    best = (order, problem)
            pos = user_text.find(self._head, pos + 1)
        if best is None:
            raise BackendUnavailable("prompt does not mention a known problem")
        return best[1]

    def generate(self, req: GenerationRequest) -> GenerationResponse:
        chars = _prompt_chars(req.messages)
        if self.max_prompt_chars is not None and chars > self.max_prompt_chars:
            raise PromptTooLong(f"prompt is {chars} chars, limit {self.max_prompt_chars}")
        user_text = "\n".join(m.get("content", "") for m in req.messages)
        problem = self._match_problem(user_text)
        rng = random.Random(f"{self.seed}|{req.seed}|{prompt_key(req.messages)}|{req.temperature}")
        answer = problem.label if rng.random() < self.accuracy else _flip(problem.label)
        if CONTINUATION_REQUEST in user_text:
            text = self._completion_text(problem, answer)
        else:
            text = self._trajectory_text(problem, rng, answer)
        text, finish = _truncate(text, req.max_tokens)
        return GenerationResponse(
            text=text,
            finish_reason=finish,
            usage=Usage(prompt_tokens=chars // 4, completion_tokens=len(text.split())),
        )

    def _conclusion(self, problem: Problem) -> Formula | None:
        meta = problem.meta
        chain = meta.get("chain")
        if not chain:
            return None
        terminal = chain[-1]
        if meta.get("shape") == "grounded":
            fact: Formula = Pred(terminal, (Constant(meta["constant"]),))
            return Not(fact) if meta.get("negated_terminal") else fact
        var = meta.get("variable", "x")
        return Exists(var, Pred(terminal, (Variable(var),)))

    def _completion_text(self, problem: Problem, answer: Label) -> str:
        conclusion = self._conclusion(problem)
        if conclusion is None:
            return f"Observation: the remaining steps settle the statement.\nAction: Finish [{answer}]"
        return f"Observation: {print_formula(conclusion)}\nAction: Finish [{answer}]"

    def _trajectory_text(self, problem: Problem, rng: random.Random, answer: Label) -> str:
        lines = [
            "Thought: Translate the context into first-order logic.",
            "Action: Translate each context statement into a logic premise",
            "Observation:",
        ]
        for s in problem.premises:
            if s.formula is None:
                continue
            gloss = f" ::: {s.nl}" if s.nl else ""
            lines.append(f"{print_formula(s.formula)}{gloss}")
        lines.append("Thought: Chain the implications toward the target statement.")
        derivation = self._derivation_lines(problem)
        if self.sloppiness > 0 and derivation and rng.random() < self.sloppiness:
            obs_indices = [i for i, line in enumerate(derivation) if line.startswith("Observation:")]
            spoiled = rng.choice(obs_indices)
            filler = rng.choice((_SLOPPY_FORMULA, _SLOPPY_PROSE))
            derivation[spoiled] = f"Observation: {filler}"
        lines.extend(derivation)
        lines.append(f"Action: Finish [{answer}]")
        return "\n".join(lines)

    def _derivation_lines(self, problem: Problem) -> list[str]:
        meta = problem.meta
        chain = meta.get("chain")
        if not chain:
            return []
        shape = meta.get("shape")
        var = meta.get("variable", "x")
        lines: list[str] = []

        def pred(name: str, subject: str) -> Formula:
            return Pred(name, (Constant(subject),))

        if shape == "grounded":
            subject = meta["constant"]
        else:
            subject = WITNESS
            if shape == "existential":
                lines.append(
                    "Action: Apply existential instantiation to the existential premise"
                    " with a fresh witness"
                )
                lines.append(f"Observation: {print_formula(pred(chain[0], subject))}")
            else:
                branch = meta["branch"]
                lines.append(
                    "Action: Apply existential instantiation to the disjunctive premise"
                    " with a fresh witness"
                )
                lines.append(
                    f"Observation: {print_formula(Or(pred(chain[0], subject), pred(branch, subject)))}"
                )

        links: list[Formula] = []
        negated = meta.get("negated_terminal")
        for i in range(len(chain) - 1):
            consequent: Formula = pred(chain[i + 1], subject)
            if negated and i == len(chain) - 2:
                consequent = Not(consequent)
            links.append(Implies(pred(chain[i], subject), consequent))
        if shape == "disjunctive":
            links.insert(0, Implies(pred(meta["branch"], subject), pred(chain[1], subject)))
        lines.append("Action: Apply instantiation to the universally quantified formulas")
        lines.append("Observation:\n" + "\n".join(print_formula(f) for f in links))

        first_fact = 1
        if shape == "disjunctive":
            case_a = Implies(pred(chain[0], subject), pred(chain[1], subject))
            case_b = Implies(pred(meta["branch"], subject), pred(chain[1], subject))
            lines.append("Action: Apply conjunction introduction to the two case implications")
            lines.append(f"Observation: {print_formula(And(case_a, case_b))}")
            lines.append("Action: Apply case analysis to the disjunction")
            lines.append(f"Observation: {print_formula(pred(chain[1], subject))}")
            first_fact = 2
        for i in range(first_fact, len(chain)):
            fact: Formula = pred(chain[i], subject)
            if negated and i == len(chain) - 1:
                fact = Not(fact)
            lines.append("Action: Apply modus ponens to derive the next fact")
            lines.append(f"Observation: {print_formula(fact)}")
        if shape != "grounded":
            lines.append("Action: Conclude the existential statement from the witness")
            lines.append(f"Observation: {print_formula(Exists(var, Pred(chain[-1], (Variable(var),))))}")
        return lines
