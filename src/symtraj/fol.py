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
from typing import NoReturn


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
# binary connectives; quantifier scope extends maximally to the right. The
# parser reads by these tables too (_INFIX).
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

# A token: a connective, bracket or comma in any of its spellings, or an
# identifier. Splitting on it leaves the text between tokens, which must be
# whitespace.
_TOKEN_RE = re.compile(r"(<->|->|[A-Za-z_][A-Za-z0-9_]*|[(),↔⇔→⇒∧&∨|⊕^¬~!∀∃])")

# A token's kind is its canonical Unicode spelling; any other identifier is
# an "ident".
_KINDS = {s: s for s in "(),↔→∧∨⊕¬∀∃"} | {
    "<->": "↔", "⇔": "↔", "->": "→", "⇒": "→", "&": "∧", "|": "∨", "^": "⊕",
    "~": "¬", "!": "¬", "forall": "∀", "exists": "∃",
}


def _byte_offset(text: str, char_pos: int) -> int:
    return len(text[:char_pos].encode("utf-8"))


def _tokenize(text: str) -> tuple[list[str | None], list[str], list[str]]:
    """Split text into tokens up to the first character that starts none.

    Returns the tokens' kinds and texts, each list ending in a sentinel of
    kind None whose text is what was left unread ("" at the end of text), and
    the pieces read: the whitespace before each token, the token, and so on,
    ending with the whitespace before the sentinel.
    """
    pieces = _TOKEN_RE.split(text)
    unread = ""
    if "".join(pieces[::2]).strip():
        k = next(k for k in range(0, len(pieces), 2) if pieces[k].strip())
        gap = pieces[k]
        del pieces[k:]
        pieces.append(gap[: len(gap) - len(gap.lstrip())])
        unread = text[sum(map(len, pieces)) :]
    texts = pieces[1::2]
    kinds: list[str | None] = [_KINDS.get(tok, "ident") for tok in texts]
    kinds.append(None)
    texts.append(unread)
    return kinds, texts, pieces


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Binding strength and associativity come from the printer's _BIN_PREC and
# _RIGHT_ASSOC, so parsing and printing agree. Per connective kind: its class,
# its strength, and the least strength the right operand's own connective may
# have (its own for a right-associative connective, so a chain nests right).
_INFIX = {
    _BIN_SYM[cls]: (cls, p, p if cls in _RIGHT_ASSOC else p + 1)
    for cls, p in _BIN_PREC.items()
}


class _Parser:
    def __init__(self, text: str, variables: frozenset[str]):
        self.text = text
        self.kinds, self.texts, self.pieces = _tokenize(text)
        self.i = 0
        self.declared = variables
        self.bound: list[str] = []

    def _start(self, i: int) -> int:
        """Character offset of token i; of the sentinel, where reading stopped."""
        return sum(map(len, self.pieces[: 2 * i + 1]))

    def _fail(self, expected: str) -> NoReturn:
        i = self.i
        got = "end of input" if self.kinds[i] is None else repr(self.texts[i])
        raise FormulaSyntaxError(f"unexpected {got}", _byte_offset(self.text, self._start(i)), expected)

    def _expect(self, kind: str, expected: str) -> str:
        i = self.i
        if self.kinds[i] != kind:
            self._fail(expected)
        self.i = i + 1
        return self.texts[i]

    def parse(self, require_end: bool) -> Formula:
        """With require_end the whole text is one formula; without it, the
        longest formula at its start, read up to the first unreadable
        character (which must not be the first one)."""
        unread = self.texts[-1]
        stop = len(self.text) - len(unread)
        if unread and (require_end or stop == 0):
            raise FormulaSyntaxError(f"unexpected character {unread[0]!r}", _byte_offset(self.text, stop))
        f = self._expr(1)
        if require_end and self.kinds[self.i] is not None:
            self._fail("end of input")
        return f

    def consumed(self) -> int:
        """Characters up to the end of the last token parse read."""
        return self._start(self.i - 1) + len(self.texts[self.i - 1])

    def _expr(self, min_prec: int) -> Formula:
        left = self._unary()
        while True:
            op = _INFIX.get(self.kinds[self.i])
            if op is None or op[1] < min_prec:
                return left
            self.i += 1
            left = op[0](left, self._expr(op[2]))

    def _unary(self) -> Formula:
        kind = self.kinds[self.i]
        if kind == "ident":
            return self._atom()
        if kind == "¬":
            self.i += 1
            return Not(self._unary())
        if kind == "(":
            self.i += 1
            f = self._expr(1)
            self._expect(")", "')'")
            return f
        if kind == "∀" or kind == "∃":
            self.i += 1
            var = self._expect("ident", "a variable name")
            self.bound.append(var)
            body = self._expr(1)
            self.bound.pop()
            return ForAll(var, body) if kind == "∀" else Exists(var, body)
        self._fail("a formula" if kind is None else "a predicate, ¬, ∀, ∃, or '('")

    def _atom(self) -> Formula:
        kinds = self.kinds
        name = self.texts[self.i]
        self.i += 1
        if kinds[self.i] != "(":
            return Pred(name, ())
        self.i += 1
        args: list[Term] = []
        if kinds[self.i] != ")":
            while True:
                ident = self._expect("ident", "a term")
                if ident in self.bound or ident in self.declared:
                    args.append(Variable(ident))
                else:
                    args.append(Constant(ident))
                if kinds[self.i] != ",":
                    break
                self.i += 1
        self._expect(")", "',' or ')'")
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
    return _Parser(text, variables).parse(require_end=True)


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
    parser = _Parser(text, frozenset(variables))
    return parser.parse(require_end=False), parser.consumed()


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
            for t in f.args:
                if isinstance(t, Constant):
                    self.constants.add(t.name)
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
