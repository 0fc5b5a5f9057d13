"""Inference rule catalog, single-step checking, and whole-trajectory verification.

Each rule is a syntactic schema over at most two premise formulas, defined
once as a lookup from the claimed formula to the context entries that justify
it. verify_step first tries to justify a claimed formula by one rule
application and only then falls back to the finite-model oracle, so a verdict
says how a step was justified, not merely whether it holds.
"""

from __future__ import annotations

import enum
import re
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
from .semantics import BudgetExceeded, Label, entails
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

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))


class VerdictStatus(enum.Enum):
    VERIFIED_BY_RULE = "VerifiedByRule"
    VERIFIED_SEMANTICALLY = "VerifiedSemantically"
    INVALID = "Invalid"
    UNPARSEABLE = "Unparseable"


# Aggregation severity, best first.
_SEVERITY = [
    VerdictStatus.VERIFIED_BY_RULE,
    VerdictStatus.VERIFIED_SEMANTICALLY,
    VerdictStatus.UNPARSEABLE,
    VerdictStatus.INVALID,
]


@dataclass
class StepVerdict:
    status: VerdictStatus
    rule: RuleApplication | None = None
    note: str = ""


# ---------------------------------------------------------------------------
# The rule catalog: one definition per rule
# ---------------------------------------------------------------------------
#
# _RULES maps each rule to a function of the context and the claimed formula.
# It looks up the context entries that justify the claim by one application of
# the rule and returns that application, or None. The context maps each
# distinct formula to its position; where several entries would do, the
# earliest wins.


def _earliest(context: dict[Formula, int], candidates) -> Formula | None:
    return min((f for f in candidates if f in context), key=context.__getitem__, default=None)


def _instantiation(rule: Rule, quantifier, context, claimed) -> RuleApplication | None:
    """From ∀x.B, or from ∃x.B, infer B[x:=c]; an existential's witness c
    must not occur anywhere in the context."""
    names = sorted(fol.constants(claimed))
    used: set[str] | None = None
    for f in context:
        if not isinstance(f, quantifier):
            continue
        if f.var not in fol.free_vars(f.body):
            if f.body == claimed:
                return RuleApplication(rule, (f,), claimed)
            continue
        for name in names:
            if substitute(f.body, f.var, Constant(name)) != claimed:
                continue
            if quantifier is Exists:
                if used is None:
                    used = set().union(*map(fol.constants, context))
                if name in used:
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


def verify_step(
    context,
    claimed: Formula,
    hint: Rule | None = None,
    max_domain: int = 3,
) -> StepVerdict:
    """Justify one claimed formula against the context.

    Tries one application of each rule (the hinted rule first when given,
    then the others in catalog order), then the finite-model oracle.
    """
    known: dict[Formula, int] = {}
    for f in context:
        known.setdefault(f, len(known))
    if claimed in known:
        return StepVerdict(VerdictStatus.VERIFIED_SEMANTICALLY, note="restates an earlier formula")
    for rule in ([hint] if hint is not None else []) + [r for r in Rule if r is not hint]:
        app = _RULES[rule](known, claimed)
        if app is not None:
            return StepVerdict(VerdictStatus.VERIFIED_BY_RULE, rule=app, note=rule.value)
    try:
        verdict = entails(list(known), claimed, max_domain)
    except (BudgetExceeded, ArityConflict, ValueError) as exc:
        return StepVerdict(VerdictStatus.INVALID, note=f"semantic check failed: {exc}")
    if verdict.result is Label.TRUE:
        return StepVerdict(
            VerdictStatus.VERIFIED_SEMANTICALLY,
            note=f"entailed under finite-model check (max_domain={max_domain})",
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


def _syntax_check(formulas, sig: fol.Signature) -> tuple[VerdictStatus, str]:
    probe = fol.Signature(dict(sig.predicates), set(sig.constants))
    for f in formulas:
        try:
            probe.add_formula(f)
        except ArityConflict as exc:
            return VerdictStatus.INVALID, f"arity conflict: {exc}"
    sig.predicates.update(probe.predicates)
    sig.constants.update(probe.constants)
    return VerdictStatus.VERIFIED_SEMANTICALLY, "formalization (syntax check only)"


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


def verify_trajectory(problem, traj, max_domain: int = 3) -> list[StepVerdict]:
    """One StepVerdict per step.

    The working context starts from the problem's premise formulas.
    Observations after formalization-style actions are syntax-checked only;
    later Observation formulas are justified one by one (each earlier line of
    the same observation is visible to the next) and then join the context.
    Thought and Action steps get neutral verdicts.
    """
    context: list[Formula] = [s.formula for s in problem.premises if s.formula is not None]
    sig = fol.Signature()
    for f in context:
        sig.add_formula(f)
    verdicts: list[StepVerdict] = []
    last_action = None
    for step in traj.steps:
        if step.kind is StepKind.THOUGHT:
            verdicts.append(StepVerdict(VerdictStatus.VERIFIED_SEMANTICALLY, note="thought"))
            continue
        if step.kind is StepKind.ACTION:
            last_action = step
            verdicts.append(StepVerdict(VerdictStatus.VERIFIED_SEMANTICALLY, note="action"))
            continue
        if not step.formulas:
            verdicts.append(StepVerdict(VerdictStatus.UNPARSEABLE, note="no parseable formulas"))
            continue
        if last_action is not None and is_formalization_action(last_action.text):
            status, note = _syntax_check(step.formulas, sig)
            verdicts.append(StepVerdict(status, note=note))
            if not is_definition_action(last_action.text):
                for f in step.formulas:
                    if fol.is_closed(f) and not _is_signature_stub(f) and f not in context:
                        context.append(f)
            continue
        hint = hint_from_text(last_action.text) if last_action is not None else None
        status = VerdictStatus.VERIFIED_BY_RULE
        parts: list[str] = []
        first_app: RuleApplication | None = None
        for f in step.formulas:
            v = verify_step(context, f, hint=hint, max_domain=max_domain)
            if first_app is None and v.rule is not None:
                first_app = v.rule
            parts.append(v.note)
            status = max(status, v.status, key=_SEVERITY.index)
            try:
                sig.add_formula(f)
            except ArityConflict:
                pass
            if f not in context:
                context.append(f)
        note = "; ".join(parts)
        rule_app = first_app if status is VerdictStatus.VERIFIED_BY_RULE else None
        verdicts.append(StepVerdict(status, rule=rule_app, note=note))
    return verdicts
