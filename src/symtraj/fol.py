"""First-order logic syntax: expression trees, parser, and canonical printer.

The language is deliberately small: predicates over variables and constants,
the usual connectives, and quantifiers. No function symbols, no equality.
Connectives are accepted in Unicode or ASCII spelling on input and always
emitted in Unicode on output.

Whether an identifier in term position is a Variable or a Constant is decided
lexically: it is a Variable iff it is bound by an enclosing quantifier or
listed in the parser's declared-variables set, otherwise it is a Constant.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import NamedTuple


class FormulaSyntaxError(ValueError):
    """Malformed formula text. Carries a byte offset and an expected-token hint."""

    def __init__(self, message: str, offset: int, expected: str | None = None):
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"{message} at byte {offset}{hint}")
        self.offset = offset
        self.expected = expected


class CaptureError(ValueError):
    """Substitution would place a variable under a quantifier that binds it."""


class ArityConflict(ValueError):
    """The same predicate name is used with two different arities."""

    def __init__(self, name: str, seen: int, now: int):
        super().__init__(f"predicate {name!r} used with arity {seen} and {now}")
        self.name = name


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Variable(Term):
    pass


@dataclass(frozen=True)
class Constant(Term):
    pass


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Formula:
    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class Pred(Formula):
    name: str
    args: tuple[Term, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class _Binary(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class And(_Binary):
    pass


@dataclass(frozen=True)
class Or(_Binary):
    pass


@dataclass(frozen=True)
class Xor(_Binary):
    pass


@dataclass(frozen=True)
class Implies(_Binary):
    pass


@dataclass(frozen=True)
class Iff(_Binary):
    pass


@dataclass(frozen=True)
class _Quantified(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class ForAll(_Quantified):
    pass


@dataclass(frozen=True)
class Exists(_Quantified):
    pass


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

# Binding strength, tightest last. Negation and quantifiers sit above all
# binary connectives; quantifier scope extends maximally to the right.
_BIN_PREC: dict[type, int] = {Iff: 1, Implies: 2, Xor: 3, Or: 4, And: 5}
_BIN_SYM: dict[type, str] = {And: "∧", Or: "∨", Xor: "⊕", Implies: "→", Iff: "↔"}
_RIGHT_ASSOC = (Implies, Iff)


def _prec(f: Formula) -> int:
    if isinstance(f, Pred):
        return 7
    if isinstance(f, (Not, ForAll, Exists)):
        return 6
    return _BIN_PREC[type(f)]


def _right_open(f: Formula) -> bool:
    # True when the printed form ends in an unclosed quantifier scope, so any
    # operator printed after it would be captured by the quantifier on re-parse.
    while True:
        if isinstance(f, (ForAll, Exists)):
            return True
        if isinstance(f, Not):
            f = f.body
        elif isinstance(f, _Binary):
            f = f.right
        else:
            return False


def _show(f: Formula, min_prec: int, guard: bool) -> str:
    if isinstance(f, Pred):
        if not f.args:
            return f.name
        return f"{f.name}({', '.join(t.name for t in f.args)})"
    if _prec(f) < min_prec or (guard and _right_open(f)):
        return f"({_show(f, 1, False)})"
    if isinstance(f, Not):
        return "¬" + _show(f.body, 6, guard)
    if isinstance(f, _Quantified):
        sym = "∀" if isinstance(f, ForAll) else "∃"
        if isinstance(f.body, _Binary):
            return f"{sym}{f.var} ({_show(f.body, 1, False)})"
        return f"{sym}{f.var} {_show(f.body, 6, False)}"
    p = _BIN_PREC[type(f)]
    if type(f) in _RIGHT_ASSOC:
        lmin, rmin = p + 1, p
    else:
        lmin, rmin = p, p + 1
    left = _show(f.left, lmin, True)
    right = _show(f.right, rmin, guard)
    return f"{left} {_BIN_SYM[type(f)]} {right}"


def print_formula(f: Formula) -> str:
    """Render in canonical Unicode with minimal parentheses.

    parse_formula(print_formula(f)) == f for any formula whose free terms are
    Constants (free Variables print as bare names and re-parse as Constants).
    """
    return _show(f, 1, False)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<comma>,)
      | (?P<iff><->|↔|⇔)
      | (?P<implies>->|→|⇒)
      | (?P<and>∧|&)
      | (?P<or>∨|\|)
      | (?P<xor>⊕|\^)
      | (?P<not>¬|~|!)
      | (?P<forall>∀)
      | (?P<exists>∃)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"forall": "forall", "exists": "exists"}


class _Token(NamedTuple):
    kind: str
    text: str
    start: int  # character offset
    end: int


def _byte_offset(text: str, char_pos: int) -> int:
    return len(text[:char_pos].encode("utf-8"))


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            exc = FormulaSyntaxError(
                f"unexpected character {text[pos]!r}", _byte_offset(text, pos)
            )
            exc.char_offset = pos
            raise exc
        kind = m.lastgroup or ""
        if kind != "ws":
            tok_text = m.group()
            if kind == "ident" and tok_text in _KEYWORDS:
                kind = _KEYWORDS[tok_text]
            tokens.append(_Token(kind, tok_text, m.start(), m.end()))
        pos = m.end()
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Grammar (quantifier bodies take the whole remaining expression):
#   iff     := implies ('<->' iff)?
#   implies := xor ('->' implies)?
#   xor     := or ('^' or)*
#   or      := and ('|' and)*
#   and     := unary ('&' unary)*
#   unary   := '!' unary | quant | '(' iff ')' | atom
#   quant   := ('forall' | 'exists') ident iff
#   atom    := ident ('(' term (',' term)* ')')?


class _Parser:
    def __init__(self, text: str, variables: frozenset[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.declared = variables
        self.bound: list[str] = []

    def _peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _error(self, message: str, expected: str | None = None):
        tok = self._peek()
        pos = tok.start if tok else len(self.text)
        raise FormulaSyntaxError(message, _byte_offset(self.text, pos), expected)

    def _expect(self, kind: str, expected: str) -> _Token:
        tok = self._peek()
        if tok is None or tok.kind != kind:
            got = f"{tok.text!r}" if tok else "end of input"
            self._error(f"unexpected {got}", expected)
        self.i += 1
        return tok

    def parse(self, require_end: bool) -> tuple[Formula, int]:
        f = self._iff()
        if require_end and self.i < len(self.tokens):
            self._error(f"unexpected {self.tokens[self.i].text!r}", "end of input")
        consumed = self.tokens[self.i - 1].end if self.i > 0 else 0
        return f, consumed

    def _iff(self) -> Formula:
        left = self._implies()
        tok = self._peek()
        if tok and tok.kind == "iff":
            self.i += 1
            return Iff(left, self._iff())
        return left

    def _implies(self) -> Formula:
        left = self._xor()
        tok = self._peek()
        if tok and tok.kind == "implies":
            self.i += 1
            return Implies(left, self._implies())
        return left

    def _chain(self, kind: str, sub, node) -> Formula:
        left = sub()
        while True:
            tok = self._peek()
            if tok and tok.kind == kind:
                self.i += 1
                left = node(left, sub())
            else:
                return left

    def _xor(self) -> Formula:
        return self._chain("xor", self._or, Xor)

    def _or(self) -> Formula:
        return self._chain("or", self._and, Or)

    def _and(self) -> Formula:
        return self._chain("and", self._unary, And)

    def _unary(self) -> Formula:
        tok = self._peek()
        if tok is None:
            self._error("unexpected end of input", "a formula")
        if tok.kind == "not":
            self.i += 1
            return Not(self._unary())
        if tok.kind in ("forall", "exists"):
            self.i += 1
            var = self._expect("ident", "a variable name").text
            self.bound.append(var)
            try:
                body = self._iff()
            finally:
                self.bound.pop()
            return ForAll(var, body) if tok.kind == "forall" else Exists(var, body)
        if tok.kind == "lparen":
            self.i += 1
            f = self._iff()
            self._expect("rparen", "')'")
            return f
        if tok.kind == "ident":
            return self._atom()
        self._error(f"unexpected {tok.text!r}", "a predicate, ¬, ∀, ∃, or '('")
        raise AssertionError  # unreachable

    def _atom(self) -> Formula:
        name = self._expect("ident", "a predicate name").text
        tok = self._peek()
        if tok is None or tok.kind != "lparen":
            return Pred(name, ())
        self.i += 1
        args: list[Term] = []
        tok = self._peek()
        if tok and tok.kind == "rparen":
            self.i += 1
            return Pred(name, ())
        while True:
            ident = self._expect("ident", "a term").text
            if ident in self.bound or ident in self.declared:
                args.append(Variable(ident))
            else:
                args.append(Constant(ident))
            tok = self._peek()
            if tok and tok.kind == "comma":
                self.i += 1
                continue
            self._expect("rparen", "',' or ')'")
            return Pred(name, tuple(args))


# Distinct (text, variables) pairs whose parse is kept. Traces restate their
# problem's premises and samples of one problem repeat each other, so most
# parse_formula calls of a command ask for a text parsed shortly before. A
# command of the benchmark workloads parses at most about 500 distinct texts;
# the bound keeps a long-lived library caller that never clears the cache to
# about a megabyte of formulas.
PARSE_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def _parse_cached(text: str, variables: frozenset[str]) -> Formula:
    # Only results are cached: malformed text raises on every call.
    if not text.strip():
        raise FormulaSyntaxError("empty input", 0, "a formula")
    f, _ = _Parser(text, variables).parse(require_end=True)
    return f


def parse_formula(text: str, variables: frozenset[str] | set[str] = frozenset()) -> Formula:
    """Parse a complete formula. Raises FormulaSyntaxError on malformed input.

    The last PARSE_CACHE_SIZE distinct (text, variables) pairs are kept until
    clear_parse_cache(), so a repeated text is not parsed again; formulas are
    frozen, so callers share the result.
    """
    return _parse_cached(text, frozenset(variables))


def clear_parse_cache() -> None:
    """Forget every cached parse (the CLI does so as each command starts)."""
    _parse_cached.cache_clear()


def parse_prefix(text: str, variables: frozenset[str] | set[str] = frozenset()) -> tuple[Formula, int]:
    """Parse one formula from the start of text.

    Returns (formula, consumed_chars); trailing input is left alone, and a
    character the tokenizer cannot read merely bounds the prefix.
    """
    try:
        return _Parser(text, frozenset(variables)).parse(require_end=False)
    except FormulaSyntaxError as exc:
        cut = getattr(exc, "char_offset", None)
        if not cut:
            raise
        return _Parser(text[:cut], frozenset(variables)).parse(require_end=False)


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------


def free_vars(f: Formula) -> set[str]:
    """Names of Variables not bound by an enclosing quantifier."""
    if isinstance(f, Pred):
        return {t.name for t in f.args if isinstance(t, Variable)}
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, _Binary):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, _Quantified):
        return free_vars(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def is_closed(f: Formula) -> bool:
    return not free_vars(f)


def substitute(f: Formula, var: str, term: Term) -> Formula:
    """Replace free occurrences of var with term.

    Raises CaptureError if term is a Variable that an enclosing quantifier in f
    would capture.
    """
    if isinstance(f, Pred):
        return Pred(f.name, tuple(term if isinstance(t, Variable) and t.name == var else t for t in f.args))
    if isinstance(f, Not):
        return Not(substitute(f.body, var, term))
    if isinstance(f, _Binary):
        return type(f)(substitute(f.left, var, term), substitute(f.right, var, term))
    if isinstance(f, _Quantified):
        if f.var == var:
            return f
        if isinstance(term, Variable) and f.var == term.name and var in free_vars(f.body):
            raise CaptureError(f"substituting {term.name!r} under a quantifier binding it")
        return type(f)(f.var, substitute(f.body, var, term))
    raise TypeError(f"not a formula: {f!r}")


def constants(f: Formula) -> set[str]:
    if isinstance(f, Pred):
        return {t.name for t in f.args if isinstance(t, Constant)}
    if isinstance(f, Not):
        return constants(f.body)
    if isinstance(f, _Binary):
        return constants(f.left) | constants(f.right)
    if isinstance(f, _Quantified):
        return constants(f.body)
    raise TypeError(f"not a formula: {f!r}")


def subformulas(f: Formula):
    """Yield f and every nested formula, preorder."""
    yield f
    if isinstance(f, Not):
        yield from subformulas(f.body)
    elif isinstance(f, _Binary):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, _Quantified):
        yield from subformulas(f.body)


@dataclass
class Signature:
    predicates: dict[str, int] = field(default_factory=dict)
    constants: set[str] = field(default_factory=set)

    def add_formula(self, f: Formula) -> None:
        if isinstance(f, Pred):
            seen = self.predicates.get(f.name)
            if seen is not None and seen != len(f.args):
                raise ArityConflict(f.name, seen, len(f.args))
            self.predicates[f.name] = len(f.args)
            self.constants.update(t.name for t in f.args if isinstance(t, Constant))
        elif isinstance(f, Not):
            self.add_formula(f.body)
        elif isinstance(f, _Binary):
            self.add_formula(f.left)
            self.add_formula(f.right)
        elif isinstance(f, _Quantified):
            self.add_formula(f.body)
        else:
            raise TypeError(f"not a formula: {f!r}")


def collect_signature(formulas) -> Signature:
    """Predicate arities and constant names used across formulas.

    Raises ArityConflict if a predicate name appears with two arities.
    """
    sig = Signature()
    for f in formulas:
        sig.add_formula(f)
    return sig
