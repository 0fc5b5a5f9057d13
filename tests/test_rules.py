"""Inference rules, single-step verification, and whole-trajectory verification."""

import random

import pytest

from symtraj import rules
from symtraj.fol import (
    And,
    Constant,
    Exists,
    ForAll,
    Iff,
    Implies,
    Not,
    Or,
    Pred,
    Variable,
    Xor,
    collect_signature,
    is_closed,
    parse_formula,
    subformulas,
    substitute,
)
from symtraj.demos import RINA_DEMO, SQUASH_DEMO, rina_problem, squash_problem
from symtraj.problems import Problem, Statement
from symtraj.rules import (
    Rule,
    RuleApplication,
    VerdictStatus,
    hint_from_text,
    is_definition_action,
    is_formalization_action,
    verify_step,
    verify_trajectory,
)
from symtraj.semantics import Label, entails
from symtraj.trajectory import Step, StepKind, Trajectory, parse_trajectory

from conftest import random_closed_formula, random_formula

P_a = parse_formula("P(a)")
Q_a = parse_formula("Q(a)")
R_ab = parse_formula("R(a, b)")


def _assert_entailed(inputs, output, max_domain=3):
    verdict = entails(list(inputs), output, max_domain)
    assert verdict.result is Label.TRUE or verdict.unsatisfiable_premises, (
        inputs,
        output,
        verdict.result,
    )


def _existential_closure(f, witness: str):
    """Re-abstract every occurrence of the witness constant into ∃v."""
    fresh = "v9"

    def walk(g):
        if isinstance(g, Pred):
            args = tuple(
                Variable(fresh) if isinstance(t, Constant) and t.name == witness else t
                for t in g.args
            )
            return Pred(g.name, args)
        if isinstance(g, Not):
            return Not(walk(g.body))
        if isinstance(g, (And, Or, Xor, Implies, Iff)):
            return type(g)(walk(g.left), walk(g.right))
        if isinstance(g, (ForAll, Exists)):
            return type(g)(g.var, walk(g.body))
        raise AssertionError(g)

    return Exists(fresh, walk(f))


def _rule_of(context, claim):
    """The rule verify_step reports for the claim, or None."""
    verdict = verify_step(context, claim)
    return verdict.rule.rule if verdict.rule is not None else None


def _check_rule_step(inputs, claim, rule):
    """verify_step justifies the claim by the hinted rule, from inputs that entail it."""
    verdict = verify_step(list(inputs), claim, hint=rule)
    assert verdict.status is VerdictStatus.VERIFIED_BY_RULE, (inputs, claim, verdict)
    assert verdict.rule.rule is rule and verdict.rule.output == claim, (inputs, claim, verdict.rule)
    _assert_application_sound(inputs, verdict.rule)
    return verdict.rule


def _assert_application_sound(context, app):
    """The application draws its inputs from the context, and they entail its output."""
    assert set(app.inputs) <= set(context), (context, app)
    if app.rule is Rule.EXISTENTIAL_INSTANTIATION and app.bindings:
        # The witness is fresh, so soundness means the inputs entail the
        # existential closure of the claim.
        (witness,) = app.bindings.values()
        _assert_entailed(app.inputs, _existential_closure(app.output, witness.name))
    else:
        _assert_entailed(app.inputs, app.output)


# ---------------------------------------------------------------------------
# Rule schemas, through verify_step
# ---------------------------------------------------------------------------


def test_rule_table_covers_every_rule():
    assert set(rules._RULES) == set(Rule)


def test_apply_universal_instantiation():
    f = parse_formula("forall x (P(x) -> Q(x))")
    claim = parse_formula("P(a) -> Q(a)")
    app = _check_rule_step((f,), claim, Rule.UNIVERSAL_INSTANTIATION)
    assert app == RuleApplication(Rule.UNIVERSAL_INSTANTIATION, (f,), claim, {"x": Constant("a")})
    assert _rule_of([f], parse_formula("P(a) -> Q(b)")) is None
    assert _rule_of([P_a], claim) is None
    # A variable is not an instantiation target.
    open_claim = Implies(Pred("P", (Variable("y"),)), Pred("Q", (Variable("y"),)))
    assert _rule_of([f], open_claim) is None


def test_apply_existential_instantiation_requires_fresh_witness():
    f = parse_formula("exists x Likes(x, a)")
    app = _check_rule_step((f,), parse_formula("Likes(w, a)"), Rule.EXISTENTIAL_INSTANTIATION)
    assert app.bindings == {"x": Constant("w")}
    assert _rule_of([f], parse_formula("Likes(a, a)")) is None


def test_apply_quantifier_negation_all_four_shapes():
    cases = [
        ("~(forall x P(x))", "exists x ~P(x)"),
        ("~(exists x P(x))", "forall x ~P(x)"),
        ("forall x ~P(x)", "~(exists x P(x))"),
        ("exists x ~P(x)", "~(forall x P(x))"),
    ]
    for source, expected in cases:
        app = _check_rule_step((parse_formula(source),), parse_formula(expected), Rule.QUANTIFIER_NEGATION)
        assert app.inputs == (parse_formula(source),)
    assert _rule_of([P_a], parse_formula("exists x ~P(x)")) is None


def test_apply_de_morgan_shapes():
    cases = [
        ("~(P(a) & Q(a))", "~P(a) | ~Q(a)"),
        ("~(P(a) | Q(a))", "~P(a) & ~Q(a)"),
        ("~P(a) & ~Q(a)", "~(P(a) | Q(a))"),
        ("~P(a) | ~Q(a)", "~(P(a) & Q(a))"),
    ]
    for source, expected in cases:
        app = _check_rule_step((parse_formula(source),), parse_formula(expected), Rule.DE_MORGAN)
        assert app.inputs == (parse_formula(source),)
    assert _rule_of([parse_formula("P(a) & Q(a)")], parse_formula("~(~P(a) | ~Q(a))")) is None


def test_apply_double_negation():
    _check_rule_step((parse_formula("~~P(a)"),), P_a, Rule.DOUBLE_NEGATION)
    # Introducing a double negation is the same rule, read the other way.
    _check_rule_step((P_a,), parse_formula("~~P(a)"), Rule.DOUBLE_NEGATION)
    assert _rule_of([parse_formula("~P(a)")], P_a) is None


def test_apply_implication_to_disjunction():
    cases = [
        ("P(a) -> Q(a)", "~P(a) | Q(a)"),
        ("~P(a) | Q(a)", "P(a) -> Q(a)"),
        ("~(P(a) -> Q(a))", "~(~P(a) | Q(a))"),
        ("~(~P(a) | Q(a))", "~(P(a) -> Q(a))"),
    ]
    for source, expected in cases:
        app = _check_rule_step(
            (parse_formula(source),), parse_formula(expected), Rule.IMPLICATION_TO_DISJUNCTION
        )
        assert app.inputs == (parse_formula(source),)
    assert _rule_of([parse_formula("P(a) & Q(a)")], parse_formula("~P(a) | Q(a)")) is None


def test_apply_disjunction_introduction():
    # One input: the established disjunct; the other disjunct is arbitrary.
    app = _check_rule_step((P_a,), Or(P_a, Q_a), Rule.DISJUNCTION_INTRODUCTION)
    assert app.inputs == (P_a,)
    app = _check_rule_step((P_a,), Or(Q_a, P_a), Rule.DISJUNCTION_INTRODUCTION)
    assert app.inputs == (P_a,)
    assert _rule_of([P_a], parse_formula("Q(a) | S(b)")) is None


def test_apply_modus_ponens_either_order():
    imp = parse_formula("P(a) -> Q(a)")
    assert _check_rule_step((imp, P_a), Q_a, Rule.MODUS_PONENS).inputs == (imp, P_a)
    assert _check_rule_step((P_a, imp), Q_a, Rule.MODUS_PONENS).inputs == (imp, P_a)
    assert _rule_of([imp, Q_a], P_a) is None


def test_apply_conjunction_rules():
    conj = parse_formula("P(a) & Q(a)")
    _check_rule_step((conj,), P_a, Rule.CONJUNCTION_ELIM)
    _check_rule_step((conj,), Q_a, Rule.CONJUNCTION_ELIM)
    assert _check_rule_step((Q_a, P_a), conj, Rule.CONJUNCTION_INTRO).inputs == (P_a, Q_a)
    # Introduction joins two different formulas; A & A is left to the oracle.
    assert _rule_of([P_a], And(P_a, P_a)) is None
    assert _rule_of([P_a], Q_a) is None


def test_apply_case_analysis():
    disj = parse_formula("P(a) | Q(a)")
    branches = parse_formula("(P(a) -> R(a, b)) & (Q(a) -> R(a, b))")
    assert _check_rule_step((disj, branches), R_ab, Rule.CASE_ANALYSIS).inputs == (disj, branches)
    assert _check_rule_step((branches, disj), R_ab, Rule.CASE_ANALYSIS).inputs == (disj, branches)
    swapped = parse_formula("(Q(a) -> R(a, b)) & (P(a) -> R(a, b))")
    _check_rule_step((disj, swapped), R_ab, Rule.CASE_ANALYSIS)
    assert _rule_of([disj, parse_formula("P(a) -> R(a, b)")], R_ab) is None


def test_earliest_justification_wins():
    first, second = parse_formula("P(a) & Q(a)"), parse_formula("S(b) & P(a)")
    assert _check_rule_step((first, second), P_a, Rule.CONJUNCTION_ELIM).inputs == (first,)
    assert _check_rule_step((second, first), P_a, Rule.CONJUNCTION_ELIM).inputs == (second,)
    # Two universals that both instantiate to the claim, after one of the
    # same shape that does not.
    other = parse_formula("forall x (P(x) -> Q(b))")
    first, second = parse_formula("forall x (P(x) -> Q(x))"), parse_formula("forall y (P(y) -> Q(y))")
    claim = parse_formula("P(a) -> Q(a)")
    for a, b in ((first, second), (second, first)):
        assert _check_rule_step((other, a, b), claim, Rule.UNIVERSAL_INSTANTIATION).inputs == (a,)
    # Two implications with one consequent, after one whose antecedent is missing.
    other = parse_formula("S(b) -> R(a, b)")
    first, second = parse_formula("P(a) -> R(a, b)"), parse_formula("Q(a) -> R(a, b)")
    for a, b in ((first, second), (second, first)):
        inputs = (other, a, b, P_a, Q_a)
        assert _check_rule_step(inputs, R_ab, Rule.MODUS_PONENS).inputs == (a, a.left)


def test_existential_witness_must_be_fresh_for_what_joined_the_context_later():
    # w is fresh when ∃x P(x) is all there is, and not once Q(w) has joined
    # the same context, as a later step's formula does.
    context = rules.Context([parse_formula("exists x P(x)")])
    claim, hint = parse_formula("P(w)"), Rule.EXISTENTIAL_INSTANTIATION
    assert verify_step(context, claim, hint=hint).rule.rule is hint
    context.add(parse_formula("Q(w)"))
    verdict = verify_step(context, claim, hint=hint)
    assert (verdict.status, verdict.rule) == (VerdictStatus.INVALID, None)


# ---------------------------------------------------------------------------
# Soundness: what verify_step justifies by a rule is entailed by its inputs
# ---------------------------------------------------------------------------


def _random_instance(rule: Rule, rng: random.Random):
    """(inputs, claim) drawn from the rule's schema, the claim not among the inputs.

    A claim that restates an input is a restatement, not a rule step.
    """
    while True:
        inputs, claim = _schema_instance(rule, rng)
        if claim not in inputs:
            return inputs, claim


def _schema_instance(rule: Rule, rng: random.Random):
    if rule is Rule.UNIVERSAL_INSTANTIATION:
        body = random_formula(rng, 2, bound=("x",))
        return (ForAll("x", body),), substitute(body, "x", Constant("c"))
    if rule is Rule.EXISTENTIAL_INSTANTIATION:
        body = random_formula(rng, 2, bound=("x",))
        return (Exists("x", body),), substitute(body, "x", Constant("w9"))
    if rule is Rule.QUANTIFIER_NEGATION:
        body = random_formula(rng, 2, bound=("x",))
        shapes = (
            (Not(ForAll("x", body)), Exists("x", Not(body))),
            (Not(Exists("x", body)), ForAll("x", Not(body))),
            (ForAll("x", Not(body)), Not(Exists("x", body))),
            (Exists("x", Not(body)), Not(ForAll("x", body))),
        )
        source, claim = rng.choice(shapes)
        return (source,), claim
    a = random_closed_formula(rng, 2)
    b = random_closed_formula(rng, 2)
    if rule is Rule.DE_MORGAN:
        shapes = (
            (Not(And(a, b)), Or(Not(a), Not(b))),
            (Not(Or(a, b)), And(Not(a), Not(b))),
            (And(Not(a), Not(b)), Not(Or(a, b))),
            (Or(Not(a), Not(b)), Not(And(a, b))),
        )
        source, claim = rng.choice(shapes)
        return (source,), claim
    if rule is Rule.DOUBLE_NEGATION:
        return rng.choice((((Not(Not(a)),), a), ((a,), Not(Not(a)))))
    if rule is Rule.IMPLICATION_TO_DISJUNCTION:
        shapes = (
            (Implies(a, b), Or(Not(a), b)),
            (Or(Not(a), b), Implies(a, b)),
            (Not(Implies(a, b)), Not(Or(Not(a), b))),
            (Not(Or(Not(a), b)), Not(Implies(a, b))),
        )
        source, claim = rng.choice(shapes)
        return (source,), claim
    if rule is Rule.DISJUNCTION_INTRODUCTION:
        return (a,), rng.choice((Or(a, b), Or(b, a)))
    if rule is Rule.MODUS_PONENS:
        return (Implies(a, b), a), b
    if rule is Rule.CONJUNCTION_ELIM:
        return (And(a, b),), rng.choice((a, b))
    if rule is Rule.CONJUNCTION_INTRO:
        while b == a:
            b = random_closed_formula(rng, 2)
        return (a, b), And(a, b)
    if rule is Rule.CASE_ANALYSIS:
        c = random_closed_formula(rng, 1)
        return (Or(a, b), And(Implies(a, c), Implies(b, c))), c
    raise AssertionError(rule)


@pytest.mark.parametrize("rule", list(Rule))
def test_rule_soundness_random(rule):
    rng = random.Random(f"soundness|{rule.value}")
    for _ in range(60):
        inputs, claim = _random_instance(rule, rng)
        _check_rule_step(inputs, claim, rule)


def test_verify_step_rules_sound_on_random_claims():
    # Claims near the context (subformulas, rewrites, instances, and double
    # negations, conjunctions and disjunctions of its members), some of which
    # no rule justifies: every rule verify_step does report must be sound.
    rng = random.Random("random-claims")
    rewrites = (
        rules._quantifier_negation_rewrites,
        rules._de_morgan_rewrites,
        rules._implication_disjunction_rewrites,
    )
    reported = set()
    for _ in range(150):
        a, b, c = (random_closed_formula(rng, 2) for _ in range(3))
        context = [Implies(a, c), Or(a, b), And(Implies(a, c), Implies(b, c))]
        context.append(rng.choice((ForAll, Exists))("x", random_formula(rng, 2, bound=("x",))))
        context.extend(f for f in (a, b) if rng.random() < 0.6)
        rng.shuffle(context)
        claims = [And(a, b), And(c, a), Or(c, a), Not(Not(a)), c]
        for f in context:
            claims.extend(g for g in subformulas(f) if is_closed(g))
            claims.extend(g for rewrite in rewrites for g in rewrite(f))
            if isinstance(f, (ForAll, Exists)):
                claims.extend(substitute(f.body, f.var, Constant(n)) for n in ("a", "w9"))
        for claim in rng.sample(claims, 6):
            verdict = verify_step(context, claim, hint=rng.choice([None, *Rule]))
            if verdict.rule is not None:
                reported.add(verdict.rule.rule)
                _assert_application_sound(context, verdict.rule)
    assert len(reported) >= 8, reported


def test_quantifier_negation_outputs_are_equivalent_not_just_entailed():
    rng = random.Random(33)
    for _ in range(20):
        inputs, claim = _random_instance(Rule.QUANTIFIER_NEGATION, rng)
        _check_rule_step(inputs, claim, Rule.QUANTIFIER_NEGATION)
        _assert_entailed((claim,), inputs[0])


# ---------------------------------------------------------------------------
# verify_step
# ---------------------------------------------------------------------------


def test_verify_step_restatement():
    verdict = verify_step([P_a, Q_a], P_a)
    assert verdict.status is VerdictStatus.VERIFIED_SEMANTICALLY
    assert "restates" in verdict.note


def test_verify_step_by_rule_with_hint():
    context = [parse_formula("forall x (P(x) -> Q(x))"), P_a]
    verdict = verify_step(context, parse_formula("P(a) -> Q(a)"), hint=Rule.UNIVERSAL_INSTANTIATION)
    assert verdict.status is VerdictStatus.VERIFIED_BY_RULE
    assert verdict.rule.rule is Rule.UNIVERSAL_INSTANTIATION


def test_verify_step_wrong_hint_still_finds_rule():
    context = [parse_formula("P(a) -> Q(a)"), P_a]
    verdict = verify_step(context, Q_a, hint=Rule.DE_MORGAN)
    assert verdict.status is VerdictStatus.VERIFIED_BY_RULE
    assert verdict.rule.rule is Rule.MODUS_PONENS


def test_verify_step_semantic_fallback():
    # Conjunction of two context members is not a single-rule match here
    # (intro applies), but a nested rewrite only the oracle can bless:
    context = [parse_formula("P(a) & (Q(a) & R(a, b))")]
    verdict = verify_step(context, parse_formula("R(a, b) | S(c)"))
    assert verdict.status is VerdictStatus.VERIFIED_SEMANTICALLY
    assert "finite-model" in verdict.note
    assert verdict.note.endswith("(domain size 3, exact)")


def test_verify_step_keeps_more_constants_apart_than_three():
    # a-d are pairwise told apart; a domain of three elements would merge two
    # of them and entail ¬A(d).
    context = [parse_formula(t) for t in ("A(a)", "~A(b)", "~A(c)", "B(b)", "~B(c)", "C(d)", "~C(a)", "~C(b)")]
    verdict = verify_step(context, parse_formula("~A(d)"))
    assert verdict.status is VerdictStatus.INVALID


def test_verify_step_invalid():
    verdict = verify_step([P_a], parse_formula("S(b)"))
    assert verdict.status is VerdictStatus.INVALID


def test_verify_step_existential_instantiation_needs_fresh_constant():
    context = [parse_formula("exists x P(x)")]
    fresh = verify_step(context, parse_formula("P(w)"), hint=Rule.EXISTENTIAL_INSTANTIATION)
    assert fresh.status is VerdictStatus.VERIFIED_BY_RULE
    # Reusing a constant of the existential is not EI; the oracle rejects it too.
    context = [parse_formula("exists x Likes(x, a)")]
    stale = verify_step(context, parse_formula("Likes(a, a)"), hint=Rule.EXISTENTIAL_INSTANTIATION)
    assert stale.status is VerdictStatus.INVALID


def test_verify_step_existential_witness_must_be_fresh_for_the_whole_context():
    # a is fresh for ∃x P(x) but not for ¬P(a), which the context also holds.
    context = [parse_formula("exists x P(x)"), parse_formula("~P(a)")]
    for hint in (None, Rule.EXISTENTIAL_INSTANTIATION):
        verdict = verify_step(context, parse_formula("P(a)"), hint=hint)
        assert verdict.status is VerdictStatus.INVALID, hint
    fresh = verify_step(context, parse_formula("P(w)"), hint=Rule.EXISTENTIAL_INSTANTIATION)
    assert fresh.status is VerdictStatus.VERIFIED_BY_RULE


# ---------------------------------------------------------------------------
# Action-text heuristics
# ---------------------------------------------------------------------------


def test_hint_from_text_table():
    cases = [
        ("Apply existential instantiation with a fresh witness", Rule.EXISTENTIAL_INSTANTIATION),
        ("Apply instantiation to the universal formulas", Rule.UNIVERSAL_INSTANTIATION),
        ("Apply quantifier negation to the third premise", Rule.QUANTIFIER_NEGATION),
        ("Apply De Morgan's law to the conjunction", Rule.DE_MORGAN),
        ("Apply double negation elimination", Rule.DOUBLE_NEGATION),
        ("Apply modus ponens to derive the next fact", Rule.MODUS_PONENS),
        ("Use conjunction introduction on both facts", Rule.CONJUNCTION_INTRO),
        ("Use conjunction elimination on the pair", Rule.CONJUNCTION_ELIM),
        ("Simplify the conjunction", Rule.CONJUNCTION_ELIM),
        ("Apply case analysis to the disjunction", Rule.CASE_ANALYSIS),
        ("Introduce a disjunction over the known fact", Rule.DISJUNCTION_INTRODUCTION),
        ("Rewrite the implication as a disjunction", Rule.IMPLICATION_TO_DISJUNCTION),
        ("Think about the problem", None),
    ]
    for text, expected in cases:
        assert hint_from_text(text) is expected, text


def test_formalization_and_definition_actions():
    assert is_formalization_action("Define predicates for the context")
    assert is_formalization_action("Translate each statement into logic")
    assert is_formalization_action("Formalize the premises")
    assert not is_formalization_action("Apply modus ponens")
    assert is_definition_action("Define predicates")
    assert not is_definition_action("Translate the statements")


# ---------------------------------------------------------------------------
# verify_trajectory
# ---------------------------------------------------------------------------


def _chain_problem():
    return Problem(
        id="t-chain",
        premises=(
            Statement(nl="Every P is Q.", formula=parse_formula("forall x (P(x) -> Q(x))")),
            Statement(nl="a is P.", formula=P_a),
        ),
        hypothesis=Statement(nl="a is Q.", formula=Q_a),
        label=Label.TRUE,
    )


def _traj(steps, answer=Label.TRUE):
    return Trajectory(steps=tuple(steps), final_answer=answer, raw_text="t", problem_id="t-chain")


def test_verify_trajectory_rule_chain():
    traj = _traj(
        [
            Step(StepKind.THOUGHT, "Chain the implications."),
            Step(StepKind.ACTION, "Apply instantiation to the universally quantified formulas"),
            Step(StepKind.OBSERVATION, "P(a) -> Q(a)", (parse_formula("P(a) -> Q(a)"),)),
            Step(StepKind.ACTION, "Apply modus ponens to derive the next fact"),
            Step(StepKind.OBSERVATION, "Q(a)", (Q_a,)),
            Step(StepKind.ACTION, "Finish [True]"),
        ]
    )
    verdicts = verify_trajectory(_chain_problem(), traj)
    assert [v.status for v in verdicts] == [
        VerdictStatus.VERIFIED_SEMANTICALLY,
        VerdictStatus.VERIFIED_SEMANTICALLY,
        VerdictStatus.VERIFIED_BY_RULE,
        VerdictStatus.VERIFIED_SEMANTICALLY,
        VerdictStatus.VERIFIED_BY_RULE,
        VerdictStatus.VERIFIED_SEMANTICALLY,
    ]
    assert verdicts[2].rule.rule is Rule.UNIVERSAL_INSTANTIATION
    assert verdicts[4].rule.rule is Rule.MODUS_PONENS


def test_verify_trajectory_empty_observation_is_unparseable():
    traj = _traj(
        [
            Step(StepKind.ACTION, "Apply modus ponens"),
            Step(StepKind.OBSERVATION, "this step clearly speaks for itself"),
        ]
    )
    verdicts = verify_trajectory(_chain_problem(), traj)
    assert verdicts[1].status is VerdictStatus.UNPARSEABLE


def test_verify_trajectory_invalid_claim_still_extends_context():
    traj = _traj(
        [
            Step(StepKind.ACTION, "Apply modus ponens to derive the next fact"),
            Step(StepKind.OBSERVATION, "S(b)", (parse_formula("S(b)"),)),
            Step(StepKind.ACTION, "Introduce a disjunction"),
            Step(StepKind.OBSERVATION, "S(b) | P(a)", (parse_formula("S(b) | P(a)"),)),
        ]
    )
    verdicts = verify_trajectory(_chain_problem(), traj)
    assert verdicts[1].status is VerdictStatus.INVALID
    # The bogus fact is visible downstream, so the disjunction is rule-verified.
    assert verdicts[3].status is VerdictStatus.VERIFIED_BY_RULE


def test_verify_trajectory_formalization_is_syntax_checked_only():
    traj = _traj(
        [
            Step(StepKind.ACTION, "Define predicates"),
            Step(StepKind.OBSERVATION, "Z(x)", (Pred("Z", (Constant("x"),)),)),
            Step(StepKind.ACTION, "Translate the remaining statement"),
            Step(StepKind.OBSERVATION, "Z(b)", (parse_formula("Z(b)"),)),
            Step(StepKind.ACTION, "Apply modus ponens"),
            Step(StepKind.OBSERVATION, "Z(b)", (parse_formula("Z(b)"),)),
        ]
    )
    verdicts = verify_trajectory(_chain_problem(), traj)
    assert verdicts[1].status is VerdictStatus.VERIFIED_SEMANTICALLY
    assert "syntax" in verdicts[1].note
    assert verdicts[3].status is VerdictStatus.VERIFIED_SEMANTICALLY
    # The translated fact entered the context, so restating it verifies.
    assert verdicts[5].status is VerdictStatus.VERIFIED_SEMANTICALLY
    assert "restates" in verdicts[5].note


def test_verify_trajectory_arity_conflict_in_formalization():
    traj = _traj(
        [
            Step(StepKind.ACTION, "Translate the statements"),
            Step(StepKind.OBSERVATION, "P(a, b)", (parse_formula("P(a, b)"),)),
        ]
    )
    verdicts = verify_trajectory(_chain_problem(), traj)
    assert verdicts[1].status is VerdictStatus.INVALID
    assert "arity" in verdicts[1].note


def _observe(*formulas):
    formulas = tuple(parse_formula(f) if isinstance(f, str) else f for f in formulas)
    return Step(StepKind.OBSERVATION, "; ".join(map(str, formulas)), formulas)


def test_verify_trajectory_pins_every_step_kind():
    S, V, I, U = (
        VerdictStatus.VERIFIED_BY_RULE,
        VerdictStatus.VERIFIED_SEMANTICALLY,
        VerdictStatus.INVALID,
        VerdictStatus.UNPARSEABLE,
    )
    syntax_only = (V, None, "formalization (syntax check only)")
    restates = "restates an earlier formula"
    steps_and_verdicts = [
        # A claim before any Action is checked with no hint.
        (_observe("P(a) -> Q(a)"), (S, "UniversalInstantiation", "UniversalInstantiation")),
        (Step(StepKind.THOUGHT, "Chain the implications."), (V, None, "thought")),
        (Step(StepKind.ACTION, "Define the predicates"), (V, None, "action")),
        # A definition admits nothing: neither the stub nor the closed S(c).
        (_observe(Pred("Z", (Constant("x"),)), "S(c)"), syntax_only),
        (Step(StepKind.ACTION, "Apply modus ponens"), (V, None, "action")),
        (_observe("S(c)"), (I, None, "not entailed by the context (Uncertain)")),
        (Step(StepKind.OBSERVATION, "nothing to see here"), (U, None, "no parseable formulas")),
        (Step(StepKind.ACTION, "Translate the remaining statements"), (V, None, "action")),
        # A translation admits its closed non-stub formulas: T(b) only.
        (_observe("T(b)", Pred("T", (Variable("y"),)), Pred("T", (Constant("x"),))), syntax_only),
        (Step(StepKind.ACTION, "Apply modus ponens to derive Q(a)"), (V, None, "action")),
        (
            _observe("Q(a)", "exists x (P(x) & Q(x))", "W(d)"),
            (
                I,
                None,
                "ModusPonens; entailed under finite-model check (domain size 4, exact); "
                "not entailed by the context (Uncertain)",
            ),
        ),
        (Step(StepKind.ACTION, "Restate the facts so far"), (V, None, "action")),
        # The translated T(b) and the Invalid W(d) both joined the context.
        (_observe("T(b)", "W(d)"), (V, None, f"{restates}; {restates}")),
        (Step(StepKind.ACTION, "Translate the premises"), (V, None, "action")),
        (_observe("P(a, b)"), (I, None, "arity conflict: predicate 'P' used with arity 1 and 2")),
        # The conflicting arity was not recorded, so arity 1 still passes.
        (Step(StepKind.ACTION, "Formalize the question"), (V, None, "action")),
        (_observe("P(c) -> Q(c)"), syntax_only),
        # The conflicting formalization still joined the context.
        (Step(StepKind.ACTION, "Apply modus ponens"), (V, None, "action")),
        (_observe("P(a, b)"), (V, None, restates)),
        (Step(StepKind.ACTION, "Finish [True]"), (V, None, "action")),
    ]
    traj = _traj([step for step, _ in steps_and_verdicts])
    got = [
        (v.status, v.rule.rule.value if v.rule else None, v.note)
        for v in verify_trajectory(_chain_problem(), traj)
    ]
    assert got == [want for _, want in steps_and_verdicts]


def _judge_state():
    context = rules.Context(_chain_problem().premise_formulas)
    return context, collect_signature(context)


def test_judge_formalization_admits_closed_non_stub_formulas_unless_defining():
    stub, open_f = Pred("T", (Constant("x"),)), Pred("T", (Variable("y"),))
    formulas = (parse_formula("T(b)"), open_f, stub)
    for action, admitted in (("Translate the statements", [parse_formula("T(b)")]), ("Define T", [])):
        context, sig = _judge_state()
        before = list(context)
        verdict = rules._judge_formalization(formulas, action, context, sig)
        assert verdict == rules.StepVerdict(
            VerdictStatus.VERIFIED_SEMANTICALLY, note="formalization (syntax check only)"
        )
        assert list(context) == before + admitted
        assert sig.predicates == {"P": 1, "Q": 1, "T": 1}


def test_judge_formalization_arity_conflict_is_invalid_and_still_admits():
    context, sig = _judge_state()
    formulas = (parse_formula("S(a)"), parse_formula("P(a, b)"))
    verdict = rules._judge_formalization(formulas, "Translate the premises", context, sig)
    assert verdict.status is VerdictStatus.INVALID
    assert verdict.note == "arity conflict: predicate 'P' used with arity 1 and 2"
    assert all(f in context for f in formulas)
    # Nothing of the conflicting step is recorded, not even S's arity.
    assert sig.predicates == {"P": 1, "Q": 1}


def test_judge_claims_takes_the_worst_status_and_the_first_rule():
    context, sig = _judge_state()
    claims = (parse_formula("P(a) -> Q(a)"), Q_a)
    verdict = rules._judge_claims(claims, "Apply modus ponens", context, sig)
    assert verdict.status is VerdictStatus.VERIFIED_BY_RULE
    assert verdict.rule.rule is Rule.UNIVERSAL_INSTANTIATION
    assert verdict.note == "UniversalInstantiation; ModusPonens"

    # S(b) is Invalid, still joins the context, and justifies the next claim.
    claims = (parse_formula("S(b)"), parse_formula("S(b) | R(b, b)"))
    verdict = rules._judge_claims(claims, "Introduce a disjunction", context, sig)
    assert verdict == rules.StepVerdict(
        VerdictStatus.INVALID,
        note="not entailed by the context (Uncertain); DisjunctionIntroduction",
    )
    assert all(f in context for f in claims)
    assert sig.predicates == {"P": 1, "Q": 1, "S": 1, "R": 2}


def test_judge_claims_admits_an_arity_conflicting_claim_without_its_arity():
    context, sig = _judge_state()
    claim = parse_formula("Q(a, b)")
    verdict = rules._judge_claims((claim,), "", context, sig)
    assert verdict.status is VerdictStatus.INVALID
    assert verdict.note.startswith("semantic check failed:")
    assert claim in context
    assert sig.predicates == {"P": 1, "Q": 1}


def _random_rule_chain(rng: random.Random):
    """A problem and a trajectory that translates the inputs of random rule
    instances and then claims each conclusion next to a random formula, most
    of which the rules do not justify."""
    premises = tuple(Statement(nl="p", formula=random_closed_formula(rng, 2)) for _ in range(2))
    steps = []
    for rule in rng.sample(list(Rule), 6):
        inputs, claim = _random_instance(rule, rng)
        steps += [
            Step(StepKind.ACTION, "Translate the statements"),
            Step(StepKind.OBSERVATION, "inputs", tuple(inputs)),
            Step(StepKind.ACTION, f"Apply {rule.value}"),
            Step(StepKind.OBSERVATION, "claims", (claim, random_closed_formula(rng, 2))),
        ]
    problem = Problem(id="t-chain", premises=premises, hypothesis=Statement(nl="h", formula=P_a), label=Label.TRUE)
    return problem, _traj(steps)


def test_verify_trajectory_equals_verifying_each_formula_from_scratch(monkeypatch):
    # verify_trajectory grows one context, with its indexes and grounding,
    # step by step; each formula's verdict must be the one verify_step gives
    # on a plain list of the formulas before it.
    cases = [
        (rina_problem(), parse_trajectory(RINA_DEMO.trajectory, problem_id="rina")),
        (squash_problem(), parse_trajectory(SQUASH_DEMO.trajectory, problem_id="squash")),
    ]
    rng = random.Random("rule-chains")
    cases += [_random_rule_chain(rng) for _ in range(12)]
    calls = []

    def recording(context, claimed, hint=None):
        verdict = verify_step(context, claimed, hint)
        calls.append((list(context), claimed, hint, verdict))
        return verdict

    monkeypatch.setattr(rules, "verify_step", recording)
    for problem, traj in cases:
        rules.verify_trajectory(problem, traj)
    monkeypatch.undo()
    statuses = set()
    for context, claimed, hint, verdict in calls:
        assert verify_step(context, claimed, hint) == verdict, (context, claimed, hint)
        statuses.add(verdict.status)
    assert len(calls) > 100
    assert statuses == {VerdictStatus.VERIFIED_BY_RULE, VerdictStatus.VERIFIED_SEMANTICALLY, VerdictStatus.INVALID}
