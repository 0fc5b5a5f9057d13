"""Entailment problem model, dataset ingestion, and a synthetic generator.

A problem is a set of premises (natural language, formula, or both) plus a
hypothesis and a gold label. The generator builds one implication-chain
problem per request over fresh unary predicates, in three shapes (grounded
fact chain, existential chain, disjunctive seed resolved by cases), and checks
its label against the finite-model oracle. The shapes are built to hold, so a
disagreement is a bug and raises InvariantViolation; nothing is resampled.
"""

from __future__ import annotations

import dataclasses
import random
from collections import defaultdict
from dataclasses import dataclass, field

from .fol import (
    ArityConflict,
    Constant,
    Exists,
    ForAll,
    Formula,
    FormulaSyntaxError,
    Implies,
    Not,
    Or,
    Pred,
    Variable,
    collect_signature,
    parse_formula,
    print_formula,
)
from .jsonl import FormatError, read_jsonl, write_jsonl
from .semantics import Label, entails

SOURCES = ("folio", "logicasker", "custom")


class InvariantViolation(ValueError):
    """A problem record breaks a structural requirement."""


@dataclass(frozen=True)
class Statement:
    nl: str | None = None
    formula: Formula | None = None

    def __post_init__(self):
        if self.nl is None and self.formula is None:
            raise InvariantViolation("statement needs NL text or a formula")

    def text(self) -> str:
        if self.nl is not None:
            return self.nl
        return print_formula(self.formula)


@dataclass(frozen=True)
class Problem:
    id: str
    premises: tuple[Statement, ...]
    hypothesis: Statement
    label: Label
    source: str = "custom"
    split: str | None = None
    meta: dict = field(default_factory=dict)

    @property
    def reasoning_length(self) -> int | None:
        return self.meta.get("reasoning_length")

    @property
    def premise_formulas(self) -> list[Formula]:
        return [s.formula for s in self.premises if s.formula is not None]

    def context_text(self) -> str:
        return " ".join(s.text() for s in self.premises)


def validate_problem(p: Problem) -> None:
    """Raise InvariantViolation on a structurally broken problem."""
    if p.source not in SOURCES:
        raise InvariantViolation(f"{p.id}: unknown source {p.source!r}")
    if not p.premises:
        raise InvariantViolation(f"{p.id}: no premises")
    if p.split not in (None, "train", "dev", "test"):
        raise InvariantViolation(f"{p.id}: bad split {p.split!r}")
    if p.source == "logicasker":
        if p.label is Label.UNCERTAIN:
            raise InvariantViolation(f"{p.id}: two-way source with label Uncertain")
        missing = [s for s in (*p.premises, p.hypothesis) if s.formula is None]
        if missing:
            raise InvariantViolation(f"{p.id}: formulas required for every statement")
    formulas = [s.formula for s in (*p.premises, p.hypothesis) if s.formula is not None]
    try:
        collect_signature(formulas)
    except ArityConflict as exc:
        raise InvariantViolation(f"{p.id}: {exc}") from exc


# Activity vocabulary: predicate name plus the verb phrase used in prose.
ACTIVITIES = [
    ("Cook", "cook dinner"),
    ("Tea", "make tea"),
    ("Squash", "play squash"),
    ("Read", "read a novel"),
    ("Jog", "go jogging"),
    ("Paint", "paint a portrait"),
    ("Sing", "sing in the choir"),
    ("Chess", "play chess"),
    ("Swim", "swim laps"),
    ("Garden", "tend the garden"),
    ("Bake", "bake bread"),
    ("Cycle", "ride a bicycle"),
    ("Dance", "take a dance class"),
    ("Piano", "practice the piano"),
    ("Hike", "hike the ridge trail"),
    ("Knit", "knit a scarf"),
    ("Fish", "go fishing"),
    ("Ski", "ski the north slope"),
    ("Sketch", "sketch the harbor"),
    ("Violin", "play the violin"),
    ("Yoga", "attend a yoga session"),
    ("Camp", "camp by the lake"),
    ("Climb", "climb the boulder wall"),
    ("Row", "row on the river"),
    ("Juggle", "juggle three clubs"),
    ("Photograph", "photograph the skyline"),
    ("Skate", "skate at the rink"),
    ("Surf", "surf at dawn"),
    ("Bowl", "bowl a full game"),
    ("Tennis", "play tennis"),
]

PERSON_NAMES = ["alice", "bob", "carol", "david", "erin", "frank", "grace", "henry", "iris", "judy"]

SHAPES = ("grounded", "existential", "disjunctive")


def _link(var: str, a: str, b: str, negated: bool = False) -> Formula:
    v = Variable(var)
    consequent: Formula = Pred(b, (v,))
    if negated:
        consequent = Not(consequent)
    return ForAll(var, Implies(Pred(a, (v,)), consequent))


def _link_text(var: str, verbs, a: str, b: str, negated: bool = False) -> str:
    tail = f"{var} will not {verbs[b]}" if negated else f"{var} will {verbs[b]}"
    return f"For all {var}, if {var} will {verbs[a]}, then {tail}."


def _build_candidate(rng: random.Random, length: int, shape: str, label: Label):
    preds = rng.sample(ACTIVITIES, length + 2)
    verbs = dict(preds)
    chain = [name for name, _ in preds[: length + 1]]
    branch = preds[length + 1][0]
    var = f"x{rng.randrange(1, 31)}"
    person = rng.choice(PERSON_NAMES)
    negated_terminal = shape == "grounded" and label is Label.FALSE

    premises: list[Statement] = []
    if shape == "grounded":
        premises.append(
            Statement(f"{person.capitalize()} will {verbs[chain[0]]}.", Pred(chain[0], (Constant(person),)))
        )
    elif shape == "existential":
        premises.append(
            Statement(
                f"There is at least one {var} for which {var} will {verbs[chain[0]]}.",
                Exists(var, Pred(chain[0], (Variable(var),))),
            )
        )
    else:
        v = Variable(var)
        premises.append(
            Statement(
                f"There is at least one {var} for which {var} will {verbs[chain[0]]}"
                f" or {var} will {verbs[branch]}.",
                Exists(var, Or(Pred(chain[0], (v,)), Pred(branch, (v,)))),
            )
        )
        premises.append(Statement(_link_text(var, verbs, branch, chain[1]), _link(var, branch, chain[1])))

    for i in range(length):
        negate = negated_terminal and i == length - 1
        premises.append(
            Statement(_link_text(var, verbs, chain[i], chain[i + 1], negate), _link(var, chain[i], chain[i + 1], negate))
        )

    terminal = chain[length]
    if shape == "grounded":
        hypothesis = Statement(f"{person.capitalize()} will {verbs[terminal]}.", Pred(terminal, (Constant(person),)))
    elif label is Label.TRUE:
        hypothesis = Statement(
            f"There is at least one {var} for which {var} will {verbs[terminal]}.",
            Exists(var, Pred(terminal, (Variable(var),))),
        )
    else:
        hypothesis = Statement(
            f"There is no {var} for which {var} will {verbs[terminal]}.",
            Not(Exists(var, Pred(terminal, (Variable(var),)))),
        )

    rng.shuffle(premises)
    meta = {
        "reasoning_length": length,
        "shape": shape,
        "variable": var,
        "constant": person if shape == "grounded" else None,
        "chain": chain,
        "branch": branch if shape == "disjunctive" else None,
        "negated_terminal": negated_terminal,
    }
    return premises, hypothesis, meta


def generate_logicasker(count_per_length: int, lengths, seed: int = 0) -> list[Problem]:
    """Label-balanced implication-chain problems, each label checked by the oracle.

    Raises InvariantViolation if the oracle disagrees with a label or finds the
    premises unsatisfiable.
    """
    if count_per_length < 1:
        raise ValueError(f"count_per_length must be >= 1, got {count_per_length}")
    lengths = list(lengths)
    if not lengths:
        raise ValueError("lengths must be nonempty")
    rng = random.Random(seed)
    problems: list[Problem] = []
    for length in lengths:
        if length < 1:
            raise ValueError(f"reasoning length must be >= 1, got {length}")
        for idx in range(count_per_length):
            label = Label.TRUE if idx % 2 == 0 else Label.FALSE
            shape = SHAPES[idx % 3]
            premises, hypothesis, meta = _build_candidate(rng, length, shape, label)
            verdict = entails([s.formula for s in premises], hypothesis.formula)
            if verdict.result is not label or verdict.unsatisfiable_premises:
                raise InvariantViolation(
                    f"{shape} problem of length {length}: oracle verdict {verdict.result}"
                    f" (unsatisfiable premises: {verdict.unsatisfiable_premises}), label {label}"
                )
            problems.append(
                Problem(
                    id=f"logicasker-l{length}-{idx:04d}",
                    premises=tuple(premises),
                    hypothesis=hypothesis,
                    label=label,
                    source="logicasker",
                    meta=meta,
                )
            )
    return problems


def split_even(problems, seed: int = 0) -> tuple[list[Problem], list[Problem], list[Problem]]:
    """Train/dev/test assignment, stratified by (reasoning_length, label).

    Membership depends only on the seed and the problem ids, not on input
    order. A stratum of size 3q+r contributes q+r problems to train and q
    each to dev and test.
    """
    strata: dict[tuple, list[Problem]] = defaultdict(list)
    for p in problems:
        strata[(p.reasoning_length, p.label)].append(p)
    splits: dict[str, list[Problem]] = {"train": [], "dev": [], "test": []}
    for (length, label), group in strata.items():
        group = sorted(group, key=lambda p: p.id)
        rng = random.Random(f"{seed}|{length}|{label.value}")
        rng.shuffle(group)
        q, r = divmod(len(group), 3)
        cuts = [("train", 0, q + r), ("dev", q + r, 2 * q + r), ("test", 2 * q + r, 3 * q + r)]
        for name, lo, hi in cuts:
            splits[name].extend(dataclasses.replace(p, split=name) for p in group[lo:hi])
    return tuple(sorted(splits[name], key=lambda p: p.id) for name in ("train", "dev", "test"))


def _statement_to_dict(s: Statement) -> dict:
    return {"nl": s.nl, "fol": print_formula(s.formula) if s.formula is not None else None}


def _statement_from_dict(d: dict) -> Statement:
    return Statement(nl=d.get("nl"), formula=parse_formula(d["fol"]) if d.get("fol") else None)


def problem_to_dict(p: Problem) -> dict:
    return {
        "id": p.id,
        "source": p.source,
        "premises": [_statement_to_dict(s) for s in p.premises],
        "hypothesis": _statement_to_dict(p.hypothesis),
        "label": str(p.label),
        "meta": p.meta,
        "split": p.split,
    }


def problem_from_dict(d: dict) -> Problem:
    label = Label.from_text(d["label"])
    if label is None:
        raise InvariantViolation(f"unknown label {d['label']!r}")
    return Problem(
        id=d["id"],
        premises=tuple(_statement_from_dict(s) for s in d["premises"]),
        hypothesis=_statement_from_dict(d["hypothesis"]),
        label=label,
        source=d.get("source", "custom"),
        split=d.get("split"),
        meta=d.get("meta", {}),
    )


def _folio_statements(rec: dict) -> list[Statement]:
    raw = rec.get("premises")
    if raw is None:
        raise KeyError("premises")
    texts = [t.strip() for t in raw.splitlines() if t.strip()] if isinstance(raw, str) else list(raw)
    for text in texts:
        # A native record with a malformed hypothesis is read as FOLIO too.
        if not isinstance(text, str):
            raise InvariantViolation(f"FOLIO premise {text!r} is not text")
    fols = rec.get("premises-FOL") or [None] * len(texts)
    if len(fols) != len(texts):
        fols = [None] * len(texts)
    out = []
    for text, fol_text in zip(texts, fols):
        formula = None
        if fol_text:
            try:
                formula = parse_formula(fol_text)
            except FormulaSyntaxError:
                formula = None
        out.append(Statement(nl=text, formula=formula))
    return out


def _problem_from_folio(rec: dict, index: int) -> Problem:
    conclusion = rec.get("conclusion", rec.get("hypothesis"))
    if conclusion is None:
        raise KeyError("conclusion")
    label = Label.from_text(str(rec.get("label", "")))
    if label is None:
        raise InvariantViolation(f"record {index}: unknown label {rec.get('label')!r}")
    hyp_formula = None
    if rec.get("conclusion-FOL"):
        try:
            hyp_formula = parse_formula(rec["conclusion-FOL"])
        except FormulaSyntaxError:
            hyp_formula = None
    return Problem(
        id=str(rec.get("example_id", rec.get("id", f"folio-{index:04d}"))),
        premises=tuple(_folio_statements(rec)),
        hypothesis=Statement(nl=str(conclusion), formula=hyp_formula),
        label=label,
        source="folio",
    )


def load_problems(path) -> list[Problem]:
    """Problems from a JSONL file, validated; no two may share an id.

    Each record is read by its own shape: one whose hypothesis is an object
    is this package's schema, any other a public FOLIO benchmark record
    (label strings case-insensitive).
    """
    records = read_jsonl(path)
    problems = []
    first_record: dict[str, int] = {}
    for i, rec in enumerate(records):
        try:
            if isinstance(rec.get("hypothesis"), dict):
                p = problem_from_dict(rec)
            else:
                p = _problem_from_folio(rec, i)
            validate_problem(p)
            # Every stage joins traces to problems by id.
            if p.id in first_record:
                raise InvariantViolation(f"problem id {p.id!r} repeats record {first_record[p.id]}")
        except KeyError as exc:
            raise FormatError(f"{path}: record {i}: missing field {exc}") from exc
        except FormulaSyntaxError as exc:
            raise FormatError(f"{path}: record {i}: {exc}") from exc
        except InvariantViolation as exc:
            raise InvariantViolation(f"{path}: record {i}: {exc}") from exc
        first_record[p.id] = i
        problems.append(p)
    return problems


def save_problems(path, problems) -> None:
    write_jsonl(path, [problem_to_dict(p) for p in problems])
