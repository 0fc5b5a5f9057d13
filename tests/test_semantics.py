"""Model evaluation and bounded entailment checking."""

import itertools
import random
import time

import pytest

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
    parse_formula,
    subformulas,
)
from symtraj.semantics import (
    DEFAULT_MAX_DOMAIN,
    BudgetExceeded,
    Grounding,
    Interpretation,
    Label,
    MissingSymbol,
    entails,
    evaluate,
)

from conftest import random_closed_formula


def _interp():
    return Interpretation(
        domain=(0, 1),
        predicates={"P": frozenset({(0,)}), "Q": frozenset({(0,), (1,)}), "R": frozenset()},
        constants={"a": 0, "b": 1},
    )


def test_label_text_round_trip():
    assert str(Label.TRUE) == "True"
    assert Label.from_text("true") is Label.TRUE
    assert Label.from_text("YES") is Label.TRUE
    assert Label.from_text("No") is Label.FALSE
    assert Label.from_text("unknown") is Label.UNCERTAIN
    assert Label.from_text("Uncertain") is Label.UNCERTAIN
    assert Label.from_text("maybe") is None


def test_evaluate_atoms_and_connectives():
    m = _interp()
    assert evaluate(parse_formula("P(a)"), m)
    assert not evaluate(parse_formula("P(b)"), m)
    assert evaluate(parse_formula("P(a) & Q(b)"), m)
    assert evaluate(parse_formula("P(b) | Q(b)"), m)
    assert evaluate(parse_formula("P(a) ^ P(b)"), m)
    assert evaluate(parse_formula("P(b) -> Q(a)"), m)
    assert not evaluate(parse_formula("Q(a) -> P(b)"), m)
    assert evaluate(parse_formula("P(b) <-> R(a, b)"), m)


def test_evaluate_quantifiers():
    m = _interp()
    assert evaluate(parse_formula("forall x Q(x)"), m)
    assert not evaluate(parse_formula("forall x P(x)"), m)
    assert evaluate(parse_formula("exists x P(x)"), m)
    assert not evaluate(parse_formula("exists x R(x, x)"), m)


def test_evaluate_missing_symbols():
    m = _interp()
    with pytest.raises(MissingSymbol):
        evaluate(parse_formula("Z(a)"), m)
    with pytest.raises(MissingSymbol):
        evaluate(parse_formula("P(zed)"), m)
    with pytest.raises(MissingSymbol):
        evaluate(parse_formula("P(x)", variables={"x"}), m)


def test_entails_modus_ponens_chain():
    premises = [parse_formula("forall x (P(x) -> Q(x))"), parse_formula("P(a)")]
    verdict = entails(premises, parse_formula("Q(a)"))
    assert verdict.result is Label.TRUE
    assert not verdict.unsatisfiable_premises


def test_entails_false_when_negation_follows():
    premises = [parse_formula("forall x (P(x) -> Q(x))"), parse_formula("P(a)")]
    verdict = entails(premises, parse_formula("~Q(a)"))
    assert verdict.result is Label.FALSE


def test_entails_uncertain_when_independent():
    premises = [parse_formula("P(a)")]
    verdict = entails(premises, parse_formula("Q(b)"))
    assert verdict.result is Label.UNCERTAIN
    assert not verdict.unsatisfiable_premises


def test_entails_flags_unsatisfiable_premises():
    premises = [parse_formula("P(a)"), parse_formula("~P(a)")]
    verdict = entails(premises, parse_formula("Q(b)"))
    assert verdict.result is Label.UNCERTAIN
    assert verdict.unsatisfiable_premises


def test_entails_existential_hypothesis():
    premises = [parse_formula("P(a)")]
    assert entails(premises, parse_formula("exists x P(x)")).result is Label.TRUE
    assert entails(premises, parse_formula("~(exists x P(x))")).result is Label.FALSE


def test_entails_respects_max_domain_default():
    # ∃*∀*: exact at one element per constant and witness, whatever the bound.
    premises = [parse_formula("exists x P(x)"), parse_formula("forall x (P(x) -> Q(x))")]
    for max_domain in (DEFAULT_MAX_DOMAIN, 1):
        verdict = entails(premises, parse_formula("Q(a) | Q(b)"), max_domain)
        assert (verdict.domain_size, verdict.exact) == (3, True)
    assert verdict.interpretations_explored > 0
    # An ∃ under a ∀: one element per constant plus the bound.
    premises = [parse_formula("forall x exists y R(x, y)")]
    verdict = entails(premises, parse_formula("R(a, a)"))
    assert (verdict.domain_size, verdict.exact) == (1 + DEFAULT_MAX_DOMAIN, False)
    assert entails(premises, parse_formula("R(a, a)"), 2).domain_size == 3


def test_entails_budget_exhaustion():
    # Each probe branches once per disjunction before it finds a model.
    premises = [parse_formula(f"P{i}(a) | Q{i}(a)") for i in range(3)]
    assert entails(premises, parse_formula("R(a)")).interpretations_explored > 3
    with pytest.raises(BudgetExceeded):
        entails(premises, parse_formula("R(a)"), budget=3)


def test_entails_counts_ground_instances_against_the_budget():
    # Five nested ∀ over a chain of 10 constants make 10^5 ground instances.
    # Each ticks the budget as it is made, so a budget below that count ends
    # the call while grounding instead of after building them all.
    names = [f"c{i}" for i in range(10)]
    rule = parse_formula("forall x forall y forall z forall u forall v (R(x, y) & R(y, z) & R(z, u) & R(u, v) -> S(x, v))")
    facts = [parse_formula(f"R({a}, {b})") for a, b in zip(names, names[1:])]
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        entails([rule, *facts], parse_formula("S(c0, c9)"), budget=10**5 - 1)
    assert time.perf_counter() - start < 5.0


def test_entails_rejects_open_formulas():
    with pytest.raises(ValueError):
        entails([parse_formula("P(x)", variables={"x"})], parse_formula("P(a)"))


def test_entails_excluded_middle_is_valid():
    f = parse_formula("P(a) | ~P(a)")
    assert entails([], f).result is Label.TRUE


def test_entails_random_self_entailment():
    rng = random.Random(7)
    for _ in range(25):
        f = random_closed_formula(rng, depth=3)
        verdict = entails([f], f, max_domain=2)
        assert verdict.result in (Label.TRUE, Label.UNCERTAIN)
        if not verdict.unsatisfiable_premises:
            assert verdict.result is Label.TRUE


def test_entails_random_conjunction_elimination():
    rng = random.Random(8)
    for _ in range(25):
        a = random_closed_formula(rng, depth=2)
        b = random_closed_formula(rng, depth=2)
        verdict = entails([parse_formula(f"({a}) & ({b})")], a, max_domain=2)
        if not verdict.unsatisfiable_premises:
            assert verdict.result is Label.TRUE


def test_entails_never_true_and_false_for_same_instance():
    rng = random.Random(9)
    for _ in range(20):
        premise = random_closed_formula(rng, depth=2)
        hypothesis = random_closed_formula(rng, depth=2)
        forward = entails([premise], hypothesis, max_domain=2)
        negated = entails([premise], Not(hypothesis), max_domain=2)
        assert not (forward.result is Label.TRUE and negated.result is Label.TRUE)


def test_entails_disjunction_introduction_semantic():
    rng = random.Random(10)
    for _ in range(20):
        a = random_closed_formula(rng, depth=2)
        b = random_closed_formula(rng, depth=2)
        verdict = entails([a], Or(a, b), max_domain=2)
        if not verdict.unsatisfiable_premises:
            assert verdict.result is Label.TRUE


# ---------------------------------------------------------------------------
# Differential check: entails against evaluate over every interpretation
# ---------------------------------------------------------------------------


def _random_formula(rng, depth, preds, consts, bound=()):
    if depth <= 0 or rng.random() < 0.15:
        name, arity = rng.choice(preds)
        terms = [Variable(rng.choice(bound)) if bound and rng.random() < 0.7 else Constant(rng.choice(consts))
                 for _ in range(arity)]
        return Pred(name, tuple(terms))
    kind = rng.randrange(9)
    if kind == 0:
        return Not(_random_formula(rng, depth - 1, preds, consts, bound))
    if kind <= 5:
        op = (And, Or, Xor, Implies, Iff)[kind - 1]
        return op(_random_formula(rng, depth - 1, preds, consts, bound),
                  _random_formula(rng, depth - 1, preds, consts, bound))
    var = "xyz"[len(bound) % 3]
    quantifier = ForAll if kind <= 7 else Exists
    return quantifier(var, _random_formula(rng, depth - 1, preds, consts, bound + (var,)))


def _interpretations(preds, consts, max_domain):
    for size in range(1, max_domain + 1):
        domain = tuple(range(size))
        tables = []
        for _, arity in preds:
            rows = list(itertools.product(domain, repeat=arity))
            tables.append([frozenset(r for r, bit in zip(rows, bits) if bit)
                           for bits in itertools.product((False, True), repeat=len(rows))])
        for chosen in itertools.product(*tables):
            for denotation in itertools.product(domain, repeat=len(consts)):
                predicates = {name: table for (name, _), table in zip(preds, chosen)}
                yield Interpretation(domain, predicates, dict(zip(consts, denotation)))


def _brute_force(premises, hypothesis, models):
    sat_with_hyp = sat_with_neg = False
    for m in models:
        if all(evaluate(p, m) for p in premises):
            if evaluate(hypothesis, m):
                sat_with_hyp = True
            else:
                sat_with_neg = True
    if sat_with_hyp and sat_with_neg:
        return Label.UNCERTAIN, False
    if sat_with_hyp:
        return Label.TRUE, False
    if sat_with_neg:
        return Label.FALSE, False
    return Label.UNCERTAIN, True


def _has_exists_under_forall(f):
    return any(
        isinstance(g, ForAll) and any(isinstance(h, Exists) for h in subformulas(g.body)) for g in subformulas(f)
    )


def _monadic_models(preds, consts):
    # Without equality, elements satisfying the same unary predicates cannot be
    # told apart, so every finite model, of any size, agrees on every formula
    # with one of these: one element per type it realizes, and a type for each
    # constant.
    types = list(itertools.product((False, True), repeat=len(preds)))
    for n in range(1, len(types) + 1):
        for realized in itertools.combinations(types, n):
            domain = tuple(range(n))
            predicates = {
                name: frozenset((e,) for e, t in enumerate(realized) if t[i]) for i, (name, _) in enumerate(preds)
            }
            for denotation in itertools.product(domain, repeat=len(consts)):
                yield Interpretation(domain, predicates, dict(zip(consts, denotation)))


def _probes(result, unsat):
    """Which of premises + hypothesis and premises + its negation have a model."""
    if unsat:
        return False, False
    return result is not Label.FALSE, result is not Label.TRUE


@pytest.mark.parametrize(
    "preds, consts, max_domain, seed",
    [
        ((("P", 1), ("R", 2)), ("a", "b"), 2, 11),
        ((("P", 1), ("Q", 1)), ("a",), 3, 12),
        # More constants than the default bound, against every model of any size.
        ((("P", 1), ("Q", 1)), ("a", "b", "c", "d"), None, 13),
        ((("P", 1), ("Q", 1)), ("a", "b", "c", "d", "e"), None, 14),
    ],
)
def test_entails_matches_exhaustive_evaluation(preds, consts, max_domain, seed):
    # With a max_domain, against every model of up to that many elements;
    # without one, against the monadic models, which stand for every model.
    rng = random.Random(seed)
    if max_domain is None:
        models, bound = list(_monadic_models(preds, consts)), {}
    else:
        models, bound = list(_interpretations(preds, consts, max_domain)), {"max_domain": max_domain}
    seen, witnesses, most_constants = set(), set(), 0
    for _ in range(80):
        premises = [_random_formula(rng, 3, preds, consts) for _ in range(rng.randint(1, 3))]
        hypothesis = _random_formula(rng, 3, preds, consts)
        for f in [*premises, hypothesis]:
            seen.update(type(g) for g in subformulas(f))
            if _has_exists_under_forall(f):
                seen.add("exists under forall")
        verdict = entails(premises, hypothesis, **bound)
        found = _probes(verdict.result, verdict.unsatisfiable_premises)
        real = _probes(*_brute_force(premises, hypothesis, models))
        if verdict.exact:
            n_consts = len(collect_signature([*premises, hypothesis]).constants)
            witnesses.add(verdict.domain_size - n_consts)
            most_constants = max(most_constants, n_consts)
        if max_domain is None and verdict.exact:
            assert found == real, (premises, hypothesis)
        elif max_domain is None:
            # Outside the exact class a model found is still a real one.
            assert all(r for f, r in zip(found, real) if f), (premises, hypothesis)
        else:
            # Exact or bounded, the grounding keeps a copy of every small model.
            assert all(f for f, r in zip(found, real) if r), (premises, hypothesis)
    assert seen >= {Not, And, Or, Xor, Implies, Iff, ForAll, Exists, "exists under forall"}
    assert {0, 1, 2} <= witnesses and most_constants == len(consts)


@pytest.mark.parametrize("op", ["^", "<->"])
def test_entails_nested_xor_and_iff_chains_ground_linearly(op):
    # The parser nests a chain of n operands n - 1 deep; defining each
    # operand once keeps the clauses linear in n rather than exponential.
    atoms = [f"P{i}(a)" for i in range(30)]
    chain = parse_formula(f" {op} ".join(atoms))
    start = time.perf_counter()
    verdict = entails([chain], parse_formula(atoms[0]), max_domain=1)
    assert time.perf_counter() - start < 2.0
    assert (verdict.result, verdict.unsatisfiable_premises) == (Label.UNCERTAIN, False)
    verdict = entails([chain, *(parse_formula(a) for a in atoms[1:])], parse_formula(atoms[0]), max_domain=1)
    # Every other operand true: the ⊕ chain forces P0 false (odd parity), the ↔ chain true.
    assert verdict.result is (Label.FALSE if op == "^" else Label.TRUE)
    # One ∃ at the deep end, with or without a ∧ at every level, needs one
    # witness besides a: its count must not grow with the nesting.
    binop = Xor if op == "^" else Iff
    plain = interleaved = parse_formula("exists x Q(x)")
    for atom in map(parse_formula, atoms[1:]):
        plain = binop(plain, atom)
        interleaved = And(binop(interleaved, atom), parse_formula("P(a)"))
    for chain in (plain, interleaved):
        verdict = entails([chain], parse_formula("Q(a)"))
        assert (verdict.result, verdict.domain_size, verdict.exact) == (Label.UNCERTAIN, 2, True)


@pytest.mark.parametrize("equiv", ["(exists x P(x)) ^ (forall y Q(y))", "(exists x P(x)) <-> (exists y ~Q(y))"])
def test_entails_counts_the_witnesses_of_the_way_xor_or_iff_holds(equiv):
    # With P and Q alike, either holds only with ∃x P(x) and ∃y ¬Q(y) both
    # true: two witnesses, and no model of one element.
    premises = [parse_formula("forall x (P(x) <-> Q(x))"), parse_formula(equiv)]
    verdict = entails(premises, parse_formula("R"))
    assert (verdict.result, verdict.unsatisfiable_premises) == (Label.UNCERTAIN, False)
    assert (verdict.domain_size, verdict.exact) == (2, True)


def test_entails_rejects_domain_below_one():
    with pytest.raises(ValueError, match="max_domain"):
        entails([parse_formula("P(a)")], parse_formula("P(a)"), max_domain=0)


def test_entails_keeps_every_existential_witness():
    # R(a), ¬R(b) keep a and b apart, so only a third element can witness the ∃;
    # its ground form is a disjunction of three conjunctions.
    premises = [parse_formula(t) for t in ("exists x (P(x) & Q(x))", "~(P(a) & Q(a))", "~(P(b) & Q(b))", "R(a)", "~R(b)")]
    verdict = entails(premises, parse_formula("P(a)"))
    assert (verdict.result, verdict.unsatisfiable_premises) == (Label.UNCERTAIN, False)
    assert (verdict.domain_size, verdict.exact) == (3, True)


def test_entails_keeps_more_constants_apart_than_the_bound():
    # Under a cap of 3 elements two of a-d had to share one, and ¬A(d) came out entailed.
    premises = [parse_formula(t) for t in ("A(a)", "~A(b)", "~A(c)", "B(b)", "~B(c)", "C(d)", "~C(a)", "~C(b)")]
    verdict = entails(premises, parse_formula("~A(d)"), 3)
    assert (verdict.result, verdict.unsatisfiable_premises) == (Label.UNCERTAIN, False)
    assert (verdict.domain_size, verdict.exact) == (4, True)


def test_entails_bound_keeps_countermodels_outside_the_exact_class():
    # ∀x∃y R(x, y) forces R(0, 0) on one element; the two-element cycle is a
    # countermodel to ∃x R(x, x), and the bound must still find it.
    premises = [parse_formula("forall x exists y R(x, y)")]
    verdict = entails(premises, parse_formula("exists x R(x, x)"))
    assert (verdict.result, verdict.exact) == (Label.UNCERTAIN, False)
    verdict = entails([*premises, parse_formula("forall x ~R(x, x)")], parse_formula("exists x R(x, x)"))
    assert (verdict.result, verdict.unsatisfiable_premises) == (Label.FALSE, False)


# ---------------------------------------------------------------------------
# Grounding reuse: a growing premise list against fresh calls
# ---------------------------------------------------------------------------


def _decision(verdict):
    """What a kept grounding must leave as a fresh call has it."""
    return verdict.result, verdict.unsatisfiable_premises, verdict.domain_size, verdict.exact


def test_entails_with_a_kept_grounding_equals_a_fresh_call():
    # Premise lists grow one formula at a time, as a verified trajectory's
    # context does: ∃*∀* formulas, ones with an ∃ under a ∀, ⊕ and ↔. A call
    # with the kept grounding extends the held grounder when its size and
    # constants are the held ones, and grounds afresh otherwise: for an ∃
    # hypothesis, a new constant, both at once, or another list. Each
    # verdict must equal the fresh call's in every field,
    # interpretations_explored included: a kept grounding's probes search
    # the fresh call's clauses, in the same order, up to a renaming of
    # variables, and only the grounding work differs.
    preds, consts = (("P", 1), ("Q", 1), ("R", 2)), ("a", "b")
    rng = random.Random(31)
    new_constant = Pred("P", (Constant("d"),))
    both = Exists("x", And(Pred("Q", (Variable("x"),)), Pred("P", (Constant("e"),))))
    seen, extended, rebuilt = set(), 0, dict.fromkeys(("exists", "constant", "both"), 0)
    for _ in range(30):
        premises, grounding = [], Grounding()
        for i in range(8):
            hypothesis = _random_formula(rng, 2, preds, consts)
            if i == 3:
                hypothesis = Exists("x", _random_formula(rng, 1, preds, consts, ("x",)))
            elif i == 7:
                hypothesis = both
            grounder, key = grounding.grounder, grounding.key
            verdict = entails(premises, hypothesis, max_domain=2, grounding=grounding)
            assert verdict == entails(premises, hypothesis, max_domain=2), (
                premises,
                hypothesis,
            )
            assert grounding.premises == premises
            if grounder is not None:
                assert (grounding.grounder is grounder) == (grounding.key == key)
                if grounding.key == key:
                    extended += 1
                elif i == 3:
                    rebuilt["exists"] += 1
                elif i == 6:
                    rebuilt["constant"] += 1
                elif i == 7:
                    rebuilt["both"] += verdict.domain_size == key[0] + 2
            if i == 5:
                added = new_constant
            else:
                added = hypothesis if rng.random() < 0.5 else _random_formula(rng, 2, preds, consts)
            for g in subformulas(added):
                seen.add(type(g))
            if _has_exists_under_forall(added):
                seen.add("exists under forall")
            premises.append(added)
        hypothesis = _random_formula(rng, 2, preds, consts)
        other = premises[1:]
        verdict = entails(other, hypothesis, max_domain=2, grounding=grounding)
        assert verdict == entails(other, hypothesis, max_domain=2)
        assert grounding.premises == other
    assert seen >= {Xor, Iff, ForAll, Exists, "exists under forall"}
    assert extended >= 30 and min(rebuilt.values()) >= 10, (extended, rebuilt)


def test_entails_drops_a_kept_grounding_that_ran_out_of_budget_while_extending():
    grounding = Grounding()
    premises = [parse_formula("forall x forall y (R(x, y) -> S(y, x))"), parse_formula("R(a, b)")]
    entails(premises, parse_formula("S(b, a)"), grounding=grounding)
    # The same size and constants, so the new rule's 2 * 2 instances extend
    # the held grounder, and the budget runs out halfway.
    extended = [*premises, parse_formula("forall x forall y (S(x, y) -> T(x))")]
    with pytest.raises(BudgetExceeded):
        entails(extended, parse_formula("T(b)"), budget=3, grounding=grounding)
    assert (grounding.premises, grounding.grounder) == ([], None)
    verdict = entails(extended, parse_formula("T(b)"), grounding=grounding)
    assert _decision(verdict) == _decision(entails(extended, parse_formula("T(b)"))) == (Label.TRUE, False, 2, True)


def _outcome(premises, hypothesis, **kwargs):
    """entails' verdict, or the type and message of what it raised."""
    try:
        return entails(premises, hypothesis, **kwargs)
    except ValueError as exc:  # ArityConflict is a ValueError
        return type(exc), str(exc)


def test_entails_with_a_kept_grounding_raises_what_a_fresh_call_raises():
    # One grounding follows a premise list that grows, fails and is replaced.
    # Each call must give the fresh call's verdict or error, and the
    # grounding must change only when a call passed every check.
    # The parser reads an unbound name as a constant, so open formulas are built.
    milk_x, tea_y = Pred("Milk", (Variable("x"),)), Pred("Tea", (Variable("y"),))
    base = ["∀x (Cook(x) → Tea(x))", "Cook(alice)", "Likes(alice, bob)"]
    calls = [
        (base, "Tea(alice)", 3),
        (base, "∃y Tea(y)", 3),  # an ∃ claim raises the domain size
        (base + ["∃z Milk(z)"], "Tea(alice)", 3),  # so does an ∃ premise, for good
        (base + ["∃z Milk(z)"], "∃y (Milk(y) ∧ Tea(y))", 3),
        (base + ["∃z Milk(z)", milk_x], "Tea(alice)", 3),  # an open formula joins
        (base + ["∃z Milk(z)", milk_x, "Tea(bob)"], "Tea(alice)", 3),
        (base + ["∃z Milk(z)", milk_x, "Tea(bob)"], "Tea(alice)", 0),
        (base + ["∃z Milk(z)"], tea_y, 3),  # an open hypothesis
        (base + ["∃z Milk(z)"], "Tea(alice)", 0),
        (base + ["∃z Milk(z)", "Cook(alice, bob)"], "Tea(alice)", 3),  # new premise vs held
        (base + ["∃z Milk(z)"], "Tea(alice, bob)", 3),  # hypothesis vs held
        # The first conflict in order, against the held arity, not the second Likes.
        (base + ["∃z Milk(z)"], "Likes(alice) ∧ Likes(alice, bob)", 3),
        (base + ["∃z Milk(z)", "Tea(carol)"], "Likes(carol, alice)", 3),
        (base[::-1], "Tea(alice)", 3),  # a list that does not extend the held one
        (base[::-1] + ["¬Tea(bob)"], "Cook(bob)", 3),
        (base[:1], "Tea(alice)", 3),  # nor does a shorter one
    ]
    grounding, held, errors = Grounding(), [], set()
    for premise_texts, hypothesis_text, max_domain in calls:
        premises = [parse_formula(t) if isinstance(t, str) else t for t in premise_texts]
        hypothesis = parse_formula(hypothesis_text) if isinstance(hypothesis_text, str) else hypothesis_text
        kept = _outcome(premises, hypothesis, max_domain=max_domain, grounding=grounding)
        fresh = _outcome(premises, hypothesis, max_domain=max_domain)
        assert kept == fresh, (premise_texts, hypothesis_text)
        if isinstance(fresh, tuple):
            errors.add(fresh[1].split(",")[0].split(" used")[0])
        else:
            held = premises
        assert grounding.premises == held
    assert errors == {
        "formula is not closed",
        "max_domain must be at least 1",
        "predicate 'Cook'",
        "predicate 'Tea'",
        "predicate 'Likes'",
    }
