"""Parser, printer, and structural helpers for the formula AST."""

import random

import pytest

from symtraj.fol import (
    And,
    ArityConflict,
    CaptureError,
    Constant,
    Exists,
    ForAll,
    FormulaSyntaxError,
    Iff,
    Implies,
    Not,
    Or,
    Pred,
    Signature,
    Variable,
    Xor,
    _Parser,
    collect_signature,
    constants,
    free_vars,
    is_closed,
    parse_formula,
    parse_prefix,
    print_formula,
    subformulas,
    substitute,
)

from conftest import random_closed_formula, random_formula

P_x = Pred("P", (Variable("x"),))
P_a = Pred("P", (Constant("a"),))
Q_a = Pred("Q", (Constant("a"),))
R_ab = Pred("R", (Constant("a"), Constant("b")))


def test_round_trip_random_closed():
    rng = random.Random(101)
    for _ in range(300):
        f = random_closed_formula(rng, depth=5)
        assert parse_formula(print_formula(f)) == f


def test_round_trip_random_open():
    rng = random.Random(202)
    for _ in range(200):
        f = random_formula(rng, depth=4, bound=("x", "y"))
        names = frozenset(free_vars(f)) | {"x", "y"}
        assert parse_formula(print_formula(f), variables=names) == f


def test_ascii_aliases_parse_to_same_tree():
    unicode_text = "∀x (P(x) → ¬Q(x) ∧ R(x, a) ∨ S(x) ⊕ P(a) ↔ Q(b))"
    ascii_text = "forall x (P(x) -> ~Q(x) & R(x, a) | S(x) ^ P(a) <-> Q(b))"
    assert parse_formula(ascii_text) == parse_formula(unicode_text)
    assert parse_formula("!P(a)") == Not(P_a)
    assert parse_formula("exists y P(y)") == Exists("y", Pred("P", (Variable("y"),)))


def test_precedence_ladder():
    assert parse_formula("P(a) & Q(a) | R(a, b)") == Or(And(P_a, Q_a), R_ab)
    assert parse_formula("P(a) | Q(a) ^ R(a, b)") == Xor(Or(P_a, Q_a), R_ab)
    assert parse_formula("P(a) ^ Q(a) -> R(a, b)") == Implies(Xor(P_a, Q_a), R_ab)
    assert parse_formula("P(a) -> Q(a) <-> R(a, b)") == Iff(Implies(P_a, Q_a), R_ab)
    assert parse_formula("~P(a) & Q(a)") == And(Not(P_a), Q_a)


def test_implication_right_associative():
    f = parse_formula("P(a) -> Q(a) -> R(a, b)")
    assert f == Implies(P_a, Implies(Q_a, R_ab))


def test_quantifier_body_extends_right():
    f = parse_formula("forall x P(x) & Q(x)")
    assert isinstance(f, ForAll)
    assert f.body == And(P_x, Pred("Q", (Variable("x"),)))


def test_nullary_atom_round_trip():
    f = Pred("Rain", ())
    assert print_formula(f) == "Rain"
    assert parse_formula("Rain") == f


def test_lexical_rule_variable_vs_constant():
    assert parse_formula("P(x)") == Pred("P", (Constant("x"),))
    assert parse_formula("P(x)", variables={"x"}) == P_x
    # binding wins over the declared set
    f = parse_formula("forall x P(x)")
    assert f.body == P_x


def test_syntax_errors_carry_offset_and_expectation():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("P(a) ->")
    assert exc.value.offset >= 6
    with pytest.raises(FormulaSyntaxError):
        parse_formula("")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("P(a))")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("forall (P(x))")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("P(a,)")


def test_parse_prefix_stops_at_prose():
    f, consumed = parse_prefix("P(a) holds, therefore more")
    assert f == P_a
    assert consumed == 4
    f, consumed = parse_prefix("∀x (P(x) → Q(x)) ::: gloss text")
    assert isinstance(f, ForAll)
    assert consumed == 16


def test_parse_prefix_bounded_by_unreadable_character():
    f, consumed = parse_prefix("P(a) since it's true")
    assert f == P_a
    with pytest.raises(FormulaSyntaxError):
        parse_prefix("'nope")


def test_substitute_replaces_free_occurrences_only():
    f = And(P_x, ForAll("x", P_x))
    out = substitute(f, "x", Constant("a"))
    assert out == And(P_a, ForAll("x", P_x))


def test_substitute_capture_refused():
    f = ForAll("y", Pred("Likes", (Variable("x"), Variable("y"))))
    with pytest.raises(CaptureError):
        substitute(f, "x", Variable("y"))


def test_free_vars_and_closedness():
    f = parse_formula("forall x (P(x) -> Q(y))", variables={"y"})
    assert free_vars(f) == {"y"}
    assert not is_closed(f)
    assert is_closed(parse_formula("forall x P(x)"))


def test_constants_collects_argument_names():
    f = parse_formula("P(a) & forall x R(x, b)")
    assert constants(f) == {"a", "b"}


def test_subformulas_preorder():
    f = Not(And(P_a, Q_a))
    got = list(subformulas(f))
    assert got == [f, And(P_a, Q_a), P_a, Q_a]


def test_signature_accumulates_and_rejects_arity_conflicts():
    sig = Signature()
    sig.add_formula(parse_formula("P(a) & Likes(a, b)"))
    assert sig.predicates == {"P": 1, "Likes": 2}
    assert sig.constants == {"a", "b"}
    with pytest.raises(ArityConflict):
        sig.add_formula(parse_formula("P(a, b)"))


def test_collect_signature_over_many():
    sig = collect_signature([parse_formula("P(a)"), parse_formula("Q(b) & P(c)")])
    assert sig.predicates == {"P": 1, "Q": 1}
    assert sig.constants == {"a", "b", "c"}


def test_printer_uses_minimal_parentheses():
    f = Implies(And(P_a, Q_a), Or(P_a, Q_a))
    text = print_formula(f)
    assert text == "P(a) ∧ Q(a) → P(a) ∨ Q(a)"
    assert parse_formula(text) == f


def test_malformed_text_raises_on_every_call():
    for _ in range(3):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("P((a)")


def test_declared_variables_are_part_of_the_cached_parse():
    for variables in (frozenset(), {"x"}, frozenset()):
        expected = P_x if variables else Pred("P", (Constant("x"),))
        assert parse_formula("P(x)", variables=variables) == expected


def test_cached_parse_is_shared_and_equals_a_fresh_parse():
    rng = random.Random(303)
    for _ in range(100):
        text = print_formula(random_closed_formula(rng, depth=4))
        first = parse_formula(text)
        assert parse_formula(text) is first
        assert first == _Parser(text, frozenset()).parse(require_end=True)[0]
