"""Reasoning-trace model: prompt construction, parsing, and serialization.

A trace is a flat sequence of Thought / Action / Observation steps plus a
final answer. Marker lines are the primary wire format; numbered lists
without markers are accepted as a fallback, and a bare final answer still
yields a one-step trace. Formulas are harvested from observation text (and
from numbered-list items) so each step can be checked symbolically.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import re
from collections.abc import Sequence
from dataclasses import dataclass, field

from . import demos
from .fol import (
    Formula,
    FormulaSyntaxError,
    Pred,
    parse_formula,
    parse_prefix,
    print_formula,
    subformulas,
)
from .problems import Problem
from .semantics import Label


class EmptyTrajectory(ValueError):
    """The text contains no recognizable steps and no final answer."""


class StepKind(enum.Enum):
    THOUGHT = "Thought"
    ACTION = "Action"
    OBSERVATION = "Observation"


@dataclass(frozen=True)
class Step:
    kind: StepKind
    text: str
    formulas: tuple[Formula, ...] = ()


@dataclass(frozen=True)
class Trajectory:
    steps: tuple[Step, ...]
    final_answer: Label | None
    raw_text: str
    problem_id: str = ""
    generator: str = ""
    seed_meta: dict = field(default_factory=dict)

    @functools.cached_property
    def trajectory_id(self) -> str:
        """make_trajectory_id of this trace, digested once per record."""
        return make_trajectory_id(self.problem_id, self.raw_text)


def make_trajectory_id(problem_id: str, raw_text: str) -> str:
    digest = hashlib.sha1(raw_text.encode("utf-8")).hexdigest()[:12]
    return f"{problem_id}#{digest}"


def problem_id_of(trajectory_id: str) -> str:
    """The problem id that make_trajectory_id put in trajectory_id."""
    return trajectory_id.rpartition("#")[0]


def n_shots_of(traj: Trajectory) -> int:
    """The demonstrations traj was sampled with: its recorded n_shots, else
    DEFAULT_N_SHOTS (traces written before sample recorded it)."""
    return traj.seed_meta.get("n_shots", DEFAULT_N_SHOTS)


def render_step(step: Step) -> str:
    return f"{step.kind.value}: {step.text}"


# ---------------------------------------------------------------------------
# Formula harvesting
# ---------------------------------------------------------------------------

_CANDIDATE_RE = re.compile(r"[∀∃¬~]|\bforall\b|\bexists\b|[A-Za-z_][A-Za-z0-9_]*\(")
_PREFIX_NOISE_RE = re.compile(r"^(?:[-*•]+|\d+[.)]|case[ \t]+\w+[:.]?)[ \t]*", re.IGNORECASE)


def _prose_artifact(f: Formula, source: str) -> bool:
    # English words parse as zero-argument predicates; keep those only when
    # the text really wrote an argument list.
    if "()" in source:
        return False
    return any(isinstance(g, Pred) and not g.args for g in subformulas(f))


def extract_formulas(text: str) -> tuple[Formula, ...]:
    """Formulas found in free-form text.

    Each line is tried whole first; otherwise likely start points (quantifier
    or negation symbols, `Name(` heads) are parsed as prefixes. Explanatory
    suffixes after ':::' are ignored, as are matches that reduce to bare
    English words.
    """
    found: list[Formula] = []
    for raw_line in text.splitlines():
        line = raw_line.split(":::", 1)[0]
        prev = None
        while prev != line:
            prev = line
            line = _PREFIX_NOISE_RE.sub("", line.strip())
        line = line.rstrip(" .,;")
        if not line:
            continue
        try:
            whole = parse_formula(line)
        except FormulaSyntaxError:
            whole = None
        if whole is not None:
            if not _prose_artifact(whole, line):
                found.append(whole)
            continue
        pos = 0
        while pos < len(line):
            m = _CANDIDATE_RE.search(line, pos)
            if m is None:
                break
            try:
                formula, consumed = parse_prefix(line[m.start() :])
            except FormulaSyntaxError:
                pos = m.start() + 1
                continue
            source = line[m.start() : m.start() + consumed]
            if _prose_artifact(formula, source):
                pos = m.start() + 1
                continue
            found.append(formula)
            pos = m.start() + consumed
    return tuple(found)


# ---------------------------------------------------------------------------
# Trace parsing
# ---------------------------------------------------------------------------

_MARKER_RE = re.compile(
    r"^[ \t]*(?:\d+[.)][ \t]*)?(thought|action|observation)[ \t]*:",
    re.IGNORECASE | re.MULTILINE,
)
_NUMBERED_RE = re.compile(r"^[ \t]*(?:\d+[.)]|step[ \t]+\d+[-.:)]?)[ \t]+", re.IGNORECASE)
_FINISH_RE = re.compile(r"finish\s*\[([^\]]*)\]|answer\s*(?:is|:)\s*([A-Za-z]+)", re.IGNORECASE)
_LABEL_WORD_RE = re.compile(r"\b(true|false|uncertain|unknown|yes|no)\b", re.IGNORECASE)


def _final_answer(text: str) -> Label | None:
    last = None
    for m in _FINISH_RE.finditer(text):
        last = m.group(1) if m.group(1) is not None else m.group(2)
    if last is None:
        return None
    word = _LABEL_WORD_RE.search(last)
    if word is None:
        return None
    return Label.from_text(word.group(1))


def _marker_steps(text: str, matches) -> list[Step]:
    steps: list[Step] = []
    pre = text[: matches[0].start()].strip()
    if pre:
        steps.append(Step(StepKind.THOUGHT, pre))
    for i, m in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        body = text[m.end() : end].strip()
        kind = StepKind[m.group(1).upper()]
        formulas = extract_formulas(body) if kind is StepKind.OBSERVATION else ()
        steps.append(Step(kind, body, formulas))
    return steps


def _numbered_steps(text: str) -> list[Step]:
    steps: list[Step] = []
    preamble: list[str] = []
    current: list[str] | None = None

    def flush():
        if current:
            body = "\n".join(current).strip()
            if body:
                steps.append(Step(StepKind.THOUGHT, body, extract_formulas(body)))

    for line in text.splitlines():
        if _NUMBERED_RE.match(line):
            flush()
            current = [line.strip()]
        elif current is not None:
            current.append(line)
        elif line.strip():
            preamble.append(line.strip())
    flush()
    if preamble:
        steps.insert(0, Step(StepKind.THOUGHT, "\n".join(preamble)))
    return steps


def parse_trajectory(
    raw: str,
    problem_id: str = "",
    generator: str = "",
    seed_meta: dict | None = None,
) -> Trajectory:
    """Parse raw model output into steps plus a final answer.

    Raises EmptyTrajectory when no step structure and no final answer can be
    found. Malformed formulas are never fatal; they are simply not harvested.
    """
    answer = _final_answer(raw)
    matches = list(_MARKER_RE.finditer(raw))
    if matches:
        steps = _marker_steps(raw, matches)
    elif any(_NUMBERED_RE.match(line) for line in raw.splitlines()):
        steps = _numbered_steps(raw)
    elif answer is not None or _FINISH_RE.search(raw):
        steps = [Step(StepKind.THOUGHT, raw.strip())]
    else:
        raise EmptyTrajectory("no step markers, numbered items, or final answer found")
    return Trajectory(
        steps=tuple(steps),
        final_answer=answer,
        raw_text=raw,
        problem_id=problem_id,
        generator=generator,
        seed_meta=dict(seed_meta or {}),
    )


# ---------------------------------------------------------------------------
# Serialization (one JSON object per line)
# ---------------------------------------------------------------------------


def trajectory_to_dict(traj: Trajectory) -> dict:
    return {
        "problem_id": traj.problem_id,
        "steps": [
            {
                "kind": s.kind.value,
                "text": s.text,
                "formulas": [print_formula(f) for f in s.formulas],
            }
            for s in traj.steps
        ],
        "final_answer": str(traj.final_answer) if traj.final_answer is not None else None,
        "generator": traj.generator,
        "seed_meta": traj.seed_meta,
        "raw_text": traj.raw_text,
    }


# Step kinds by their text in a record.
_STEP_KINDS = {kind.value: kind for kind in StepKind}


def trajectory_from_dict(d: dict) -> Trajectory:
    steps = []
    for s in d.get("steps", []):
        try:
            kind = _STEP_KINDS[s["kind"]]
        except (KeyError, TypeError):
            kind = StepKind(s["kind"])  # raises the error that names the bad kind
        if not isinstance(s["text"], str):
            raise ValueError(f"step text must be a string, got {s['text']!r}")
        steps.append(Step(kind, s["text"], tuple([parse_formula(t) for t in s.get("formulas", [])])))
    word = d.get("final_answer")
    answer = None if word is None else Label.from_text(word)
    if word is not None and answer is None:
        raise ValueError(f"final_answer {word!r} names no label")
    if not steps:
        raise EmptyTrajectory("trace has no steps")
    for name in ("raw_text", "problem_id", "generator"):
        if not isinstance(d.get(name, ""), str):
            raise ValueError(f"{name} must be a string, got {d[name]!r}")
    meta = d.get("seed_meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"seed_meta must be an object, got {meta!r}")
    traj = Trajectory(
        steps=tuple(steps),
        final_answer=answer,
        raw_text=d["raw_text"],
        problem_id=d.get("problem_id", ""),
        generator=d.get("generator", ""),
        seed_meta=meta,
    )
    n_shots = n_shots_of(traj)
    # JSON true is not a count, although bool subclasses int.
    if not isinstance(n_shots, int) or isinstance(n_shots, bool) or n_shots < 1:
        raise ValueError(f"seed_meta n_shots must be a positive integer, got {n_shots!r}")
    return traj


# ---------------------------------------------------------------------------
# Prompt construction
# ---------------------------------------------------------------------------

CONTINUATION_REQUEST = (
    "I have wrote the first part of the reasoning path. Please continue the reasoning path."
)

DEMO_SEPARATOR = "=============Example=============="

QUESTION_TWO_WAY = "Based on the above information, is the following statement true or false?"
QUESTION_THREE_WAY = "Based on the above information, is the following statement true, false, or uncertain?"

_SYSTEM_HEADER = """You answer entailment questions by reasoning in first-order logic.
Work in steps of three kinds, each starting on its own line:
Thought: reason about the current state and decide what to do next.
Action: name the operation to carry out, such as defining predicates, translating statements into logic, or applying an inference rule. Finish [answer] returns the answer and ends the task.
Observation: the formulas the action produced, one per line.
Write formulas with this grammar:
1) logical conjunction of expr1 and expr2: expr1 ∧ expr2
2) logical disjunction of expr1 and expr2: expr1 ∨ expr2
3) logical exclusive disjunction of expr1 and expr2: expr1 ⊕ expr2
4) logical negation of expr1: ¬expr1
5) expr1 implies expr2: expr1 → expr2
6) expr1 if and only if expr2: expr1 ↔ expr2
7) logical universal quantification: ∀x
8) logical existential quantification: ∃x
"""

_TWO_WAY_TAIL = "The answer is True or False. End with Finish [True] or Finish [False]."
_THREE_WAY_TAIL = (
    "The answer is True, False, or Uncertain."
    " End with Finish [True], Finish [False], or Finish [Uncertain]."
)


@dataclass(frozen=True)
class PromptBundle:
    system: str
    demonstrations: tuple[str, ...]
    task: str
    continuation_prefix: str | None = None

    def to_messages(self) -> list[dict]:
        parts = [f"{DEMO_SEPARATOR}\n{demo}" for demo in self.demonstrations]
        parts.append(self.task)
        if self.continuation_prefix is not None:
            parts.append(self.continuation_prefix)
            parts.append(CONTINUATION_REQUEST)
        return [
            {"role": "system", "content": self.system},
            {"role": "user", "content": "\n".join(parts)},
        ]


def _render_demo(demo: demos.Demo) -> str:
    return f"Context: {demo.context}\nQuestion: {demo.question}\n{demo.trajectory}"


DEFAULT_N_SHOTS = 1


def build_sampling_prompt(problem: Problem, n_shots: int = DEFAULT_N_SHOTS) -> PromptBundle:
    """Few-shot prompt for sampling a fresh trace on this problem.

    Demonstrations matching the problem's source come first; n_shots is
    capped at the library size.
    """
    if n_shots < 1:
        raise ValueError(f"n_shots must be >= 1, got {n_shots}")
    library = demos.demos_for(problem.source)
    two_way = problem.source == "logicasker"
    system = _SYSTEM_HEADER + (_TWO_WAY_TAIL if two_way else _THREE_WAY_TAIL)
    question = QUESTION_TWO_WAY if two_way else QUESTION_THREE_WAY
    task = f"Context: {problem.context_text()}\nQuestion: {question} {problem.hypothesis.text()}"
    return PromptBundle(
        system=system,
        demonstrations=tuple(_render_demo(d) for d in library[:n_shots]),
        task=task,
    )


def build_completion_prompt(
    sampling: PromptBundle, rendered_steps: Sequence[str], prefix_len: int
) -> PromptBundle:
    """The sampling prompt plus the first prefix_len rendered steps
    (`render_step` of each) and a continuation request."""
    if not 1 <= prefix_len <= len(rendered_steps):
        raise IndexError(f"prefix_len {prefix_len} out of range 1..{len(rendered_steps)}")
    prefix = "\n".join(rendered_steps[:prefix_len])
    return dataclasses.replace(sampling, continuation_prefix=prefix)
