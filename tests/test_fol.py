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


# Messages reach users verbatim through load_problems' "record i: ..." lines,
# so each is pinned whole: message, byte offset and expected-token hint.
SYNTAX_ERRORS = [
    ("", "empty input at byte 0 (expected a formula)", 0, "a formula"),
    ("  ", "empty input at byte 0 (expected a formula)", 0, "a formula"),
    ("P(a) ->", "unexpected end of input at byte 7 (expected a formula)", 7, "a formula"),
    ("P(a) -> \t", "unexpected end of input at byte 9 (expected a formula)", 9, "a formula"),
    ("P(a))", "unexpected ')' at byte 4 (expected end of input)", 4, "end of input"),
    ("P(a,)", "unexpected ')' at byte 4 (expected a term)", 4, "a term"),
    ("P(a", "unexpected end of input at byte 3 (expected ',' or ')')", 3, "',' or ')'"),
    ("P(forall)", "unexpected 'forall' at byte 2 (expected a term)", 2, "a term"),
    ("(P(a)", "unexpected end of input at byte 5 (expected ')')", 5, "')'"),
    ("forall (P(x))", "unexpected '(' at byte 7 (expected a variable name)", 7, "a variable name"),
    ("∀∀", "unexpected '∀' at byte 3 (expected a variable name)", 3, "a variable name"),
    ("∀x", "unexpected end of input at byte 4 (expected a formula)", 4, "a formula"),
    ("P(a) Q(b)", "unexpected 'Q' at byte 5 (expected end of input)", 5, "end of input"),
    (
        "P(a) & ,",
        "unexpected ',' at byte 7 (expected a predicate, ¬, ∀, ∃, or '(')",
        7,
        "a predicate, ¬, ∀, ∃, or '('",
    ),
    ("¬P(a) ∧ 'q'", "unexpected character \"'\" at byte 11", 11, None),
    ("¬P(a) ∧ Q(ü)", "unexpected character 'ü' at byte 13", 13, None),
    # An unreadable character is reported before any grammar error.
    ("P(a)) #", "unexpected character '#' at byte 6", 6, None),
]


@pytest.mark.parametrize("text, message, offset, expected", SYNTAX_ERRORS)
def test_syntax_error_messages_are_pinned(text, message, offset, expected):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula(text)
    assert (str(exc.value), exc.value.offset, exc.value.expected) == (message, offset, expected)


Q_b = Pred("Q", (Constant("b"),))


@pytest.mark.parametrize(
    "text, formula, consumed",
    [
        ("P(a) holds, therefore more", P_a, 4),
        ("P(a) since it's true", P_a, 4),
        ("¬P(a) ∧ Q(b) — so 'Q' follows", And(Not(P_a), Q_b), 12),
        ("P(a) ∧ Q(b) # note", And(P_a, Q_b), 11),
        ("∀x (P(x) → Q(x)) ::: gloss", ForAll("x", Implies(P_x, Pred("Q", (Variable("x"),)))), 16),
    ],
)
def test_parse_prefix_result_is_pinned(text, formula, consumed):
    assert parse_prefix(text) == (formula, consumed)


@pytest.mark.parametrize(
    "text, message, offset, expected",
    [
        ("'nope", "unexpected character \"'\" at byte 0", 0, None),
        # Input ends at the first unreadable character, after any whitespace.
        ("  'nope", "unexpected end of input at byte 2 (expected a formula)", 2, "a formula"),
        ("P(a) -> 'x", "unexpected end of input at byte 8 (expected a formula)", 8, "a formula"),
        ("P(a) ∧ (Q(b) 'x", "unexpected end of input at byte 15 (expected ')')", 15, "')'"),
        ("", "unexpected end of input at byte 0 (expected a formula)", 0, "a formula"),
    ],
)
def test_parse_prefix_errors_are_pinned(text, message, offset, expected):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_prefix(text)
    assert (str(exc.value), exc.value.offset, exc.value.expected) == (message, offset, expected)


A, B, C, D, E, F = (Pred(name, ()) for name in "ABCDEF")
Q_x = Pred("Q", (Variable("x"),))
R_xa = Pred("R", (Variable("x"), Constant("a")))
R_xy = Pred("R", (Variable("x"), Variable("y")))


@pytest.mark.parametrize(
    "text, formula",
    [
        ("A -> B <-> C", Iff(Implies(A, B), C)),
        ("A <-> B -> C", Iff(A, Implies(B, C))),
        ("A <-> B <-> C", Iff(A, Iff(B, C))),
        ("A ^ B ^ C", Xor(Xor(A, B), C)),
        ("A | B | C", Or(Or(A, B), C)),
        ("A & B & C", And(And(A, B), C)),
        ("A ∧ B ∨ C ⊕ D → E ↔ F", Iff(Implies(Xor(Or(And(A, B), C), D), E), F)),
        ("A ↔ B → C ⊕ D ∨ E ∧ F", Iff(A, Implies(B, Xor(C, Or(D, And(E, F)))))),
        ("A ⊕ B → C ⊕ D", Implies(Xor(A, B), Xor(C, D))),
        ("¬A ∧ B", And(Not(A), B)),
        ("¬(A ∧ B)", Not(And(A, B))),
        ("¬¬A ∨ B", Or(Not(Not(A)), B)),
        # A quantifier's body runs to the end of the enclosing parentheses.
        ("∀x P(x) ∧ Q(x) → R(x, a)", ForAll("x", Implies(And(P_x, Q_x), R_xa))),
        ("(∀x P(x) ∧ Q(x)) ∨ R(x, a)", Or(ForAll("x", And(P_x, Q_x)), Pred("R", (Constant("x"), Constant("a"))))),
        ("A ∧ ∀x P(x) ∨ B", And(A, ForAll("x", Or(P_x, B)))),
        ("¬∃x P(x) ∧ A", Not(Exists("x", And(P_x, A)))),
        ("∀x ∃y R(x, y) → P(x)", ForAll("x", Exists("y", Implies(R_xy, P_x)))),
        ("∀x (∃y R(x, y)) → P(x)", ForAll("x", Implies(Exists("y", R_xy), P_x))),
    ],
)
def test_precedence_table(text, formula):
    assert parse_formula(text) == formula


# Every spelling each connective is read in; print_formula emits the first.
SPELLINGS = {
    "∧": ("∧", "&"),
    "∨": ("∨", "|"),
    "⊕": ("⊕", "^"),
    "→": ("→", "->", "⇒"),
    "↔": ("↔", "<->", "⇔"),
    "¬": ("¬", "~", "!"),
    "∀": ("∀", "forall "),
    "∃": ("∃", "exists "),
}


def _respell(text: str, rng: random.Random) -> str:
    """Spell each connective at random and add whitespace around brackets."""
    out = []
    for ch in text:
        if ch in SPELLINGS:
            out.append(rng.choice(SPELLINGS[ch]))
        elif ch in "()," and rng.random() < 0.3:
            out.append(rng.choice(("", " ", "  ", "\t", "\n")) + ch + rng.choice(("", " ", "\n")))
        else:
            out.append(ch)
    return "".join(out)


SYMBOL = {And: "∧", Or: "∨", Xor: "⊕", Implies: "→", Iff: "↔"}


def _fully_parenthesized(f) -> str:
    if isinstance(f, Pred):
        return print_formula(f)
    if isinstance(f, Not):
        return f"¬{_fully_parenthesized(f.body)}"
    if isinstance(f, (ForAll, Exists)):
        sym = "∀" if isinstance(f, ForAll) else "∃"
        return f"({sym}{f.var} ({_fully_parenthesized(f.body)}))"
    return f"(({_fully_parenthesized(f.left)}) {SYMBOL[type(f)]} {_fully_parenthesized(f.right)})"


def test_round_trip_through_other_spellings_and_redundant_parentheses():
    rng = random.Random(404)
    for _ in range(300):
        f = random_closed_formula(rng, depth=5)
        assert parse_formula(_respell(print_formula(f), rng)) == f
        assert parse_formula(_respell(f"( {print_formula(f)} )", rng)) == f
        assert parse_formula(_respell(_fully_parenthesized(f), rng)) == f


SOUP_PIECES = (
    [s for spellings in SPELLINGS.values() for s in spellings]
    + ["(", ")", ",", "P", "Q", "R", "x", "y", "a", "forall", "exists", "Rain"]
    + [" ", "  ", "\t", "\n", "'", "#", "é", "-", "<", "$", "→→", "∀x", "P(x)", "Q(a)"]
)


def _soup(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return "".join(rng.choice(SOUP_PIECES) + rng.choice(("", " ")) for _ in range(rng.randint(0, 12)))
    # One edit of a well-formed text, so that a good share of soups parse.
    text = _respell(print_formula(random_closed_formula(rng, depth=3)), rng)
    i = rng.randrange(len(text) + 1)
    j = min(len(text), i + rng.randint(0, 2))
    return text[:i] + rng.choice(SOUP_PIECES + [""]) + text[j:]


def test_token_soup_parses_and_round_trips_or_fails_in_range():
    rng = random.Random(505)
    parsed = failed = 0
    for _ in range(3000):
        text = _soup(rng)
        try:
            f = parse_formula(text)
        except FormulaSyntaxError as exc:
            assert 0 <= exc.offset <= len(text.encode())
            failed += 1
        else:
            assert parse_formula(print_formula(f)) == f
            parsed += 1
        try:
            g, consumed = parse_prefix(text)
        except FormulaSyntaxError as exc:
            assert 0 <= exc.offset <= len(text.encode())
        else:
            assert 0 < consumed <= len(text)
            assert parse_formula(text[:consumed]) == g
    assert parsed > 300 and failed > 300
