"""Inference rule catalog, single-step checking, and whole-trajectory verification.

Each rule is a syntactic schema over at most two premise formulas, defined
once as a lookup from the claimed formula to the context entries that justify
it. verify_step first tries to justify a claimed formula by one rule
application and only then falls back to the finite-model oracle (exact when
the context has no ∃ under a ∀, bounded otherwise), so a verdict says how a
step was justified, not merely whether it holds.

A Context holds the formulas a step may draw on and indexes its ∀ and ∃
formulas by the shape of their body, so instantiation substitutes only into
those that can match the claim. verify_trajectory judges each step once, by
its kind: Thought and Action steps are neutral, an Observation after a
formalization action is only syntax-checked, and any other Observation's
formulas are claims for verify_step. It grows one Context step by step, and
the oracle calls on it reuse its grounding: only the formulas added since the
last call are grounded, as long as the domain size and constants stay the same.
"""

from __future__ import annotations

import enum
import re
from contextlib import suppress
from dataclasses import dataclass, field
from functools import partial

from . import fol
from .fol import (
    And,
    ArityConflict,
    Constant,
    Exists,
    ForAll,
    Formula,
    Implies,
    Not,
    Or,
    Pred,
    Term,
    substitute,
)
from .semantics import BudgetExceeded, Grounding, Label, entails
from .trajectory import StepKind


class Rule(enum.Enum):
    UNIVERSAL_INSTANTIATION = "UniversalInstantiation"
    EXISTENTIAL_INSTANTIATION = "ExistentialInstantiation"
    QUANTIFIER_NEGATION = "QuantifierNegation"
    DE_MORGAN = "DeMorgan"
    DOUBLE_NEGATION = "DoubleNegation"
    IMPLICATION_TO_DISJUNCTION = "ImplicationToDisjunction"
    DISJUNCTION_INTRODUCTION = "DisjunctionIntroduction"
    MODUS_PONENS = "ModusPonens"
    CONJUNCTION_ELIM = "ConjunctionElim"
    CONJUNCTION_INTRO = "ConjunctionIntro"
    CASE_ANALYSIS = "CaseAnalysis"


@dataclass(frozen=True)
class RuleApplication:
    rule: Rule
    inputs: tuple[Formula, ...]
    output: Formula
    bindings: dict[str, Term] = field(default_factory=dict)


class VerdictStatus(enum.Enum):
    """Declared best first: a step of several formulas takes the latest."""

    VERIFIED_BY_RULE = "VerifiedByRule"
    VERIFIED_SEMANTICALLY = "VerifiedSemantically"
    UNPARSEABLE = "Unparseable"
    INVALID = "Invalid"


_STATUS_ORDER = tuple(VerdictStatus)


@dataclass(frozen=True)
class StepVerdict:
    status: VerdictStatus
    rule: RuleApplication | None = None
    note: str = ""


# ---------------------------------------------------------------------------
# The context a step is checked against
# ---------------------------------------------------------------------------


def _skeleton(f: Formula):
    """f with its terms erased. Substituting a term for a variable keeps it."""
    if isinstance(f, Pred):
        return f.name, len(f.args)
    if isinstance(f, (Not, ForAll, Exists)):
        return type(f), _skeleton(f.body)
    return type(f), _skeleton(f.left), _skeleton(f.right)


class Context:
    """The formulas a step may draw on, in order, grown one at a time.

    positions maps each distinct formula to its position; iterating yields
    the formulas in that order. quantified lists, in that order, each ∀ and
    ∃ under its quantifier and the skeleton of its body. constants holds
    every constant name, and grounding what the oracle grounded for the
    formulas so far.
    """

    def __init__(self, formulas=()):
        self.positions: dict[Formula, int] = {}
        self.quantified: dict[tuple, list[Formula]] = {}
        self.constants: set[str] = set()
        self.grounding = Grounding()
        for f in formulas:
            self.add(f)

    def __contains__(self, f) -> bool:
        return f in self.positions

    def __iter__(self):
        return iter(self.positions)

    def add(self, f: Formula) -> None:
        if f in self.positions:
            return
        self.positions[f] = len(self.positions)
        if isinstance(f, (ForAll, Exists)):
            self.quantified.setdefault((type(f), _skeleton(f.body)), []).append(f)
        self.constants |= fol.constants(f)


# ---------------------------------------------------------------------------
# The rule catalog: one definition per rule
# ---------------------------------------------------------------------------
#
# _RULES maps each rule to a function of the context and the claimed formula.
# It looks up the context entries that justify the claim by one application of
# the rule and returns that application, or None. Where several entries would
# do, the earliest wins.


def _earliest(context: Context, candidates) -> Formula | None:
    positions = context.positions
    return min((f for f in candidates if f in positions), key=positions.__getitem__, default=None)


def _instantiation(rule: Rule, quantifier, context: Context, claimed) -> RuleApplication | None:
    """From ∀x.B, or from ∃x.B, infer B[x:=c]; an existential's witness c
    must not occur anywhere in the context."""
    names = sorted(fol.constants(claimed))
    for f in context.quantified.get((quantifier, _skeleton(claimed)), ()):
        if f.var not in fol.free_vars(f.body):
            if f.body == claimed:
                return RuleApplication(rule, (f,), claimed)
            continue
        for name in names:
            if substitute(f.body, f.var, Constant(name)) != claimed:
                continue
            if quantifier is Exists and name in context.constants:
                continue
            return RuleApplication(rule, (f,), claimed, {f.var: Constant(name)})
    return None


def _by_rewrite(rule: Rule, rewrites, context, claimed) -> RuleApplication | None:
    """From f infer any formula in rewrites(f).

    Every rewrite here has an inverse among the rewrites of its result, so the
    input is found by rewriting the claim and checking the way back.
    """
    f = _earliest(context, [g for g in rewrites(claimed) if claimed in rewrites(g)])
    return RuleApplication(rule, (f,), claimed) if f is not None else None


def _quantifier_negation_rewrites(f: Formula) -> list[Formula]:
    """¬∀x.B and ∃x.¬B, and ¬∃x.B and ∀x.¬B, each from the other."""
    out = []
    if isinstance(f, Not) and isinstance(f.body, ForAll):
        out.append(Exists(f.body.var, Not(f.body.body)))
    if isinstance(f, Not) and isinstance(f.body, Exists):
        out.append(ForAll(f.body.var, Not(f.body.body)))
    if isinstance(f, ForAll) and isinstance(f.body, Not):
        out.append(Not(Exists(f.var, f.body.body)))
    if isinstance(f, Exists) and isinstance(f.body, Not):
        out.append(Not(ForAll(f.var, f.body.body)))
    return out


def _de_morgan_rewrites(f: Formula) -> list[Formula]:
    """¬(A ∧ B) and ¬A ∨ ¬B, and ¬(A ∨ B) and ¬A ∧ ¬B, each from the other."""
    out = []
    if isinstance(f, Not) and isinstance(f.body, And):
        out.append(Or(Not(f.body.left), Not(f.body.right)))
    if isinstance(f, Not) and isinstance(f.body, Or):
        out.append(And(Not(f.body.left), Not(f.body.right)))
    if isinstance(f, And) and isinstance(f.left, Not) and isinstance(f.right, Not):
        out.append(Not(Or(f.left.body, f.right.body)))
    if isinstance(f, Or) and isinstance(f.left, Not) and isinstance(f.right, Not):
        out.append(Not(And(f.left.body, f.right.body)))
    return out


def _implication_disjunction_rewrites(f: Formula) -> list[Formula]:
    """A → B and ¬A ∨ B each from the other, at the top or under one negation
    (the form worked derivations actually use)."""
    out = []
    if isinstance(f, Implies):
        out.append(Or(Not(f.left), f.right))
    if isinstance(f, Or) and isinstance(f.left, Not):
        out.append(Implies(f.left.body, f.right))
    if isinstance(f, Not):
        inner = f.body
        if isinstance(inner, Implies):
            out.append(Not(Or(Not(inner.left), inner.right)))
        if isinstance(inner, Or) and isinstance(inner.left, Not):
            out.append(Not(Implies(inner.left.body, inner.right)))
    return out


def _double_negation(context, claimed):
    """From ¬¬A infer A, and from A infer ¬¬A."""
    candidates = [Not(Not(claimed))]
    if isinstance(claimed, Not) and isinstance(claimed.body, Not):
        candidates.append(claimed.body.body)
    f = _earliest(context, candidates)
    return RuleApplication(Rule.DOUBLE_NEGATION, (f,), claimed) if f is not None else None


def _disjunction_introduction(context, claimed):
    """From A infer A ∨ B or B ∨ A."""
    if not isinstance(claimed, Or):
        return None
    f = _earliest(context, (claimed.left, claimed.right))
    return RuleApplication(Rule.DISJUNCTION_INTRODUCTION, (f,), claimed) if f is not None else None


def _modus_ponens(context, claimed):
    """From A → B and A infer B."""
    for f in context:
        if isinstance(f, Implies) and f.right == claimed and f.left in context:
            return RuleApplication(Rule.MODUS_PONENS, (f, f.left), claimed)
    return None


def _conjunction_elim(context, claimed):
    """From A ∧ B infer A, or B."""
    for f in context:
        if isinstance(f, And) and claimed in (f.left, f.right):
            return RuleApplication(Rule.CONJUNCTION_ELIM, (f,), claimed)
    return None


def _conjunction_intro(context, claimed):
    """From A and B, two different formulas, infer A ∧ B."""
    if isinstance(claimed, And) and claimed.left != claimed.right:
        if claimed.left in context and claimed.right in context:
            return RuleApplication(Rule.CONJUNCTION_INTRO, (claimed.left, claimed.right), claimed)
    return None


def _case_analysis(context, claimed):
    """From A ∨ B and (A → C) ∧ (B → C), the conjuncts in either order, infer C."""
    for f in context:
        if isinstance(f, Or):
            a, b = Implies(f.left, claimed), Implies(f.right, claimed)
            branches = _earliest(context, (And(a, b), And(b, a)))
            if branches is not None:
                return RuleApplication(Rule.CASE_ANALYSIS, (f, branches), claimed)
    return None


_RULES = {
    Rule.UNIVERSAL_INSTANTIATION: partial(_instantiation, Rule.UNIVERSAL_INSTANTIATION, ForAll),
    Rule.EXISTENTIAL_INSTANTIATION: partial(_instantiation, Rule.EXISTENTIAL_INSTANTIATION, Exists),
    Rule.QUANTIFIER_NEGATION: partial(
        _by_rewrite, Rule.QUANTIFIER_NEGATION, _quantifier_negation_rewrites
    ),
    Rule.DE_MORGAN: partial(_by_rewrite, Rule.DE_MORGAN, _de_morgan_rewrites),
    Rule.DOUBLE_NEGATION: _double_negation,
    Rule.IMPLICATION_TO_DISJUNCTION: partial(
        _by_rewrite, Rule.IMPLICATION_TO_DISJUNCTION, _implication_disjunction_rewrites
    ),
    Rule.DISJUNCTION_INTRODUCTION: _disjunction_introduction,
    Rule.MODUS_PONENS: _modus_ponens,
    Rule.CONJUNCTION_ELIM: _conjunction_elim,
    Rule.CONJUNCTION_INTRO: _conjunction_intro,
    Rule.CASE_ANALYSIS: _case_analysis,
}

# The (rule, matcher) pairs verify_step tries for each hint, in order: the
# hinted rule first, then the others in catalog order (the sort is stable).
_RULE_ORDER = {
    hint: tuple((rule, _RULES[rule]) for rule in sorted(Rule, key=lambda r: r is not hint))
    for hint in (None, *Rule)
}


def verify_step(
    context,
    claimed: Formula,
    hint: Rule | None = None,
) -> StepVerdict:
    """Justify one claimed formula against the context, a Context or any
    iterable of formulas.

    Tries one application of each rule (the hinted rule first when given,
    then the others in catalog order), then the finite-model oracle, whose
    note names the domain size it grounded and whether the check was exact.
    """
    if not isinstance(context, Context):
        context = Context(context)
    if claimed in context:
        return StepVerdict(VerdictStatus.VERIFIED_SEMANTICALLY, note="restates an earlier formula")
    for rule, matcher in _RULE_ORDER[hint]:
        app = matcher(context, claimed)
        if app is not None:
            return StepVerdict(VerdictStatus.VERIFIED_BY_RULE, rule=app, note=rule.value)
    try:
        verdict = entails(context, claimed, grounding=context.grounding)
    except (BudgetExceeded, ArityConflict, ValueError) as exc:
        return StepVerdict(VerdictStatus.INVALID, note=f"semantic check failed: {exc}")
    if verdict.result is Label.TRUE:
        kind = "exact" if verdict.exact else "bounded"
        return StepVerdict(
            VerdictStatus.VERIFIED_SEMANTICALLY,
            note=f"entailed under finite-model check (domain size {verdict.domain_size}, {kind})",
        )
    return StepVerdict(VerdictStatus.INVALID, note=f"not entailed by the context ({verdict.result})")


# ---------------------------------------------------------------------------
# Action-text heuristics
# ---------------------------------------------------------------------------

_FORMALIZATION_WORDS = ("defin", "translat", "formaliz", "formalis", "formulat")


def is_formalization_action(text: str) -> bool:
    low = text.lower()
    return any(w in low for w in _FORMALIZATION_WORDS)


def is_definition_action(text: str) -> bool:
    low = text.lower()
    return "defin" in low and "translat" not in low


def hint_from_text(text: str) -> Rule | None:
    """Best-effort mapping from an Action description to a catalog rule."""
    low = text.lower()
    if "existential instantiation" in low:
        return Rule.EXISTENTIAL_INSTANTIATION
    if "instantiat" in low:
        return Rule.UNIVERSAL_INSTANTIATION
    if "quantifier" in low:
        return Rule.QUANTIFIER_NEGATION
    if "morgan" in low:
        return Rule.DE_MORGAN
    if "double negation" in low:
        return Rule.DOUBLE_NEGATION
    if "modus ponens" in low:
        return Rule.MODUS_PONENS
    if "conjunction introduction" in low:
        return Rule.CONJUNCTION_INTRO
    if "conjunction elimination" in low or "simplif" in low:
        return Rule.CONJUNCTION_ELIM
    if "case" in low:
        return Rule.CASE_ANALYSIS
    if "disjunction" in low and "introduc" in low:
        return Rule.DISJUNCTION_INTRODUCTION
    if "implication" in low and ("rewrite" in low or "disjunction" in low):
        return Rule.IMPLICATION_TO_DISJUNCTION
    return None


# ---------------------------------------------------------------------------
# Whole-trajectory verification
# ---------------------------------------------------------------------------


_PLACEHOLDER_RE = re.compile(r"[u-z][0-9]*")


def _is_signature_stub(f: Formula) -> bool:
    # Predicate-definition lines gloss a predicate over placeholder arguments
    # (bare x, y, x2 parsed as constants); they declare vocabulary, not facts.
    # Ground atoms over real entity names stay eligible for the context.
    return (
        isinstance(f, Pred)
        and len(f.args) > 0
        and all(
            isinstance(t, Constant) and _PLACEHOLDER_RE.fullmatch(t.name) for t in f.args
        )
    )


def _judge_formalization(formulas, action: str, context: Context, sig: fol.Signature) -> StepVerdict:
    """Syntax-check an Observation that follows a formalization action.

    Invalid if it gives a predicate a second arity; otherwise its arities
    join sig. Either way, unless the action is a definition, its closed
    formulas that are not signature stubs join the context."""
    if not is_definition_action(action):
        for f in formulas:
            if fol.is_closed(f) and not _is_signature_stub(f):
                context.add(f)
    probe = fol.Signature(dict(sig.predicates))
    try:
        for f in formulas:
            probe.add_formula(f)
    except ArityConflict as exc:
        return StepVerdict(VerdictStatus.INVALID, note=f"arity conflict: {exc}")
    sig.predicates = probe.predicates
    return StepVerdict(VerdictStatus.VERIFIED_SEMANTICALLY, note="formalization (syntax check only)")


def _judge_claims(formulas, action: str, context: Context, sig: fol.Signature) -> StepVerdict:
    """Each formula in turn goes through verify_step, hinted by the action,
    and then joins the context and sig whatever its verdict. The step takes
    the worst status (the latest declared in VerdictStatus), the first
    formula's rule if that status is VerifiedByRule, and the formulas' notes
    joined by "; "."""
    hint = hint_from_text(action)
    verdicts = []
    for f in formulas:
        verdicts.append(verify_step(context, f, hint=hint))
        with suppress(ArityConflict):
            sig.add_formula(f)
        context.add(f)
    status = max((v.status for v in verdicts), key=_STATUS_ORDER.index)
    rule = verdicts[0].rule if status is VerdictStatus.VERIFIED_BY_RULE else None
    return StepVerdict(status, rule, "; ".join(v.note for v in verdicts))


def verify_trajectory(problem, traj) -> list[StepVerdict]:
    """One StepVerdict per step, by the step's kind.

    Thought and Action steps are neutral, with the kind as the note, and an
    Observation with no formulas is Unparseable. Any other Observation goes
    to _judge_formalization after a formalization action, else to
    _judge_claims; both grow one Context, started from the premise formulas.
    An oracle-judged claim gets the verdict verify_step gives it over a plain
    list of the same formulas, budget failures included.
    """
    context = Context(problem.premise_formulas)
    sig = fol.collect_signature(context)
    action = ""
    verdicts: list[StepVerdict] = []
    for step in traj.steps:
        if step.kind is StepKind.ACTION:
            action = step.text
        if step.kind is not StepKind.OBSERVATION:
            verdict = StepVerdict(VerdictStatus.VERIFIED_SEMANTICALLY, note=step.kind.value.lower())
        elif not step.formulas:
            verdict = StepVerdict(VerdictStatus.UNPARSEABLE, note="no parseable formulas")
        elif is_formalization_action(action):
            verdict = _judge_formalization(step.formulas, action, context, sig)
        else:
            verdict = _judge_claims(step.formulas, action, context, sig)
        verdicts.append(verdict)
    return verdicts
