"""Finite-model semantics: truth evaluation and a finite-model entailment oracle.

evaluate() gives the truth of a formula in one explicit interpretation.

entails() decides three-way entailment by grounding once, at one domain size,
with constant i denoting element i. fol has no equality and no function
symbols, so copying a domain element keeps every sentence's truth: a set with
a model has one of every larger size in which distinct constants denote
distinct elements. A set with no ∃ under a ∀ once ¬ is pushed inward (the
Bernays–Schönfinkel class, ∃*∀*) with c constants and k existential witnesses
has a model of size c + k if it has any, so grounding at max(1, c + k) decides
it exactly. Any other set is grounded at c + max_domain, which keeps a copy of
every model of up to max_domain elements, so a countermodel found is real but
"no model" only means none up to that bound.

The premises are grounded with the hypothesis, and again with its negation,
to clauses over the ground atoms. A top-level ∧ and every ∀ instance become
separate constraints, ¬ moves inward, and a disjunction (∨, →, ∃ instances)
becomes one clause; ⊕, ↔ and a conjunction nested in a disjunction get fresh
(Tseitin) variables, each operand of ⊕ or ↔ defined once, so the clauses stay
linear in the size of the ground formulas. A complete DPLL search with unit
propagation then decides whether the clauses have a model.

budget caps the work at one tick per ground quantifier instance made and
one per search node (each probe's root and each branch), so a call that
would build c^v instances raises BudgetExceeded before it builds them.
interpretations_explored reports the search nodes alone.

A caller that asks about a growing premise list can keep a Grounding
across calls: it holds the premises' clause list, and a call at the same
size with the same constants grounds only the new premises onto it, while
any other call grounds afresh. It still ticks the budget for the held
premises' instances, so it runs out of budget where a fresh call does.
The search keeps nothing: each of the two
probes builds its DPLL state from the premise clauses and its own.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass

from .fol import (
    And,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Pred,
    Signature,
    Variable,
    Xor,
    free_vars,
)

DEFAULT_MAX_DOMAIN = 3


class Label(enum.Enum):
    TRUE = "True"
    FALSE = "False"
    UNCERTAIN = "Uncertain"

    @classmethod
    def from_text(cls, text: str) -> "Label | None":
        word = text.strip().lower()
        if word in ("true", "yes"):
            return cls.TRUE
        if word in ("false", "no"):
            return cls.FALSE
        if word in ("uncertain", "unknown"):
            return cls.UNCERTAIN
        return None

    def __str__(self) -> str:
        return self.value


class BudgetExceeded(RuntimeError):
    """The interpretation search outgrew the configured budget."""


class MissingSymbol(KeyError):
    """A formula mentions a predicate or constant the interpretation lacks."""


# ---------------------------------------------------------------------------
# Direct evaluation against an explicit interpretation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interpretation:
    domain: tuple[int, ...]
    predicates: dict[str, frozenset[tuple[int, ...]]]
    constants: dict[str, int]


def evaluate(f: Formula, interp: Interpretation, env: dict[str, int] | None = None) -> bool:
    """Tarskian truth of f in interp. env maps bound variables to elements."""
    env = env or {}
    if isinstance(f, Pred):
        if f.name not in interp.predicates:
            raise MissingSymbol(f"predicate {f.name!r} not interpreted")
        elems = []
        for t in f.args:
            if isinstance(t, Variable):
                if t.name not in env:
                    raise MissingSymbol(f"unbound variable {t.name!r}")
                elems.append(env[t.name])
            else:
                if t.name not in interp.constants:
                    raise MissingSymbol(f"constant {t.name!r} not interpreted")
                elems.append(interp.constants[t.name])
        return tuple(elems) in interp.predicates[f.name]
    if isinstance(f, Not):
        return not evaluate(f.body, interp, env)
    if isinstance(f, And):
        return evaluate(f.left, interp, env) and evaluate(f.right, interp, env)
    if isinstance(f, Or):
        return evaluate(f.left, interp, env) or evaluate(f.right, interp, env)
    if isinstance(f, Xor):
        return evaluate(f.left, interp, env) != evaluate(f.right, interp, env)
    if isinstance(f, Implies):
        return (not evaluate(f.left, interp, env)) or evaluate(f.right, interp, env)
    if isinstance(f, Iff):
        return evaluate(f.left, interp, env) == evaluate(f.right, interp, env)
    if isinstance(f, ForAll):
        return all(evaluate(f.body, interp, {**env, f.var: e}) for e in interp.domain)
    if isinstance(f, Exists):
        return any(evaluate(f.body, interp, {**env, f.var: e}) for e in interp.domain)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Entailment by interpretation search
# ---------------------------------------------------------------------------


@dataclass
class EntailmentVerdict:
    result: Label
    unsatisfiable_premises: bool
    domain_size: int
    exact: bool
    interpretations_explored: int


class _Grounder:
    """Clauses over the ground atoms of one domain size, constant i of
    const_names denoting element i, for the premises and for each probe
    formula in turn.

    A clause is a list of literals; literal v (or -v) says variable v is true
    (or false). Variables number the ground atoms P(e1, ..., ek) and the fresh
    definitions below, from 1. A closed formula becomes the clauses it is a
    conjunction of: a top-level ∧ and every ∀ instance give separate
    constraints, ¬ moves inward, and a disjunction (∨, →, ∃ instances) of
    literals gives one clause. A part that is neither (⊕, ↔, or a second
    conjunction inside a disjunction) stands for a fresh variable defined by
    clauses of its own (Tseitin), so the clauses have a model exactly when
    the formulas do. An operand of ⊕ or ↔ is defined once per variable
    binding and the definition reused, so nested ⊕/↔ ground in linear size.
    Every quantifier instance ticks budget before it is grounded.
    The premises' clauses are kept in premise_clauses, and the ticks their
    grounding took in premise_ticks.
    """

    def __init__(self, size: int, const_names, premises, budget: "_Budget"):
        self.size = size
        self.consts = {name: i for i, name in enumerate(const_names)}
        self.atoms: dict[tuple[str, tuple[int, ...]], int] = {}
        self.defined: dict[tuple[Formula, tuple], int] = {}
        self.n_vars = 0
        self.premise_clauses: list[list[int]] = []
        self.premise_ticks = 0
        self.clauses = self.premise_clauses  # where _clause appends
        self.budget = budget
        self.add_premises(premises)

    def add_premises(self, premises) -> None:
        """Ground more premises onto premise_clauses. Atoms a probe made keep
        their variables and its forgotten definitions' stay unused, so the
        premise clauses are those of grounding every premise afresh, in the
        same order, up to a renaming of variables."""
        used = self.budget.used
        for f in premises:
            self._add(f, True, {}, ())
        self.premise_ticks += self.budget.used - used

    def probe(self, f: Formula) -> list[list[int]]:
        """The premise clauses and then f's, a new list, to search whether
        the premises and f have a model. Definitions made for f are
        forgotten afterwards, as their clauses belong to this list only."""
        defined = dict(self.defined)
        clauses = self.clauses = list(self.premise_clauses)
        try:
            self._add(f, True, {}, ())
        finally:
            self.defined, self.clauses = defined, self.premise_clauses
        return clauses

    def _fresh(self) -> int:
        self.n_vars += 1
        return self.n_vars

    def _clause(self, lits) -> None:
        unique = dict.fromkeys(lits)
        if unique.keys().isdisjoint(map(operator.neg, unique)):  # else it holds in every model
            self.clauses.append(list(unique))

    def _shape(self, f: Formula, positive: bool, env: dict[str, int]):
        """f (¬f when not positive) with its leading ¬s taken off, as
        (f, positive, shape, literal). shape is "atom" (literal is its
        literal, else None), "equiv" (⊕, ↔), "and" (∧, ∀, or the negation of
        a disjunction) or "or" (∨, →, ∃, or the negation of ∧, ∀)."""
        while isinstance(f, Not):
            f, positive = f.body, not positive
        if isinstance(f, Pred):
            elems = tuple(env[t.name] if isinstance(t, Variable) else self.consts[t.name] for t in f.args)
            var = self.atoms.get((f.name, elems))
            if var is None:
                var = self.atoms[(f.name, elems)] = self._fresh()
            return f, positive, "atom", var if positive else -var
        if isinstance(f, (Xor, Iff)):
            return f, positive, "equiv", None
        return f, positive, "and" if isinstance(f, (And, ForAll)) == positive else "or", None

    def _parts(self, f: Formula, positive: bool, env: dict[str, int]):
        """The operands of the conjunction or disjunction f (¬f when not
        positive), each with its polarity and variable binding. A run of n
        nested ∀ (or ∃) gives its size^n instances at once, in the order
        nesting gives them, after one tick for each."""
        if isinstance(f, Implies):
            return ((f.left, not positive, env), (f.right, positive, env))
        if isinstance(f, (And, Or)):
            return ((f.left, positive, env), (f.right, positive, env))
        if isinstance(f, (ForAll, Exists)):
            variables, body = [f.var], f.body
            while type(body) is type(f):
                variables.append(body.var)
                body = body.body
            self.budget.tick(self.size ** len(variables))
            envs = [env]
            for var in variables:
                envs = [{**outer, var: e} for outer in envs for e in range(self.size)]
            return [(body, positive, inner) for inner in envs]
        raise TypeError(f"not a formula: {f!r}")

    def _add(self, f: Formula, positive: bool, env: dict[str, int], prefix) -> None:
        """Clauses for prefix ∨ f (prefix ∨ ¬f when not positive), prefix a
        disjunction of literals."""
        f, positive, shape, lit = self._shape(f, positive, env)
        if shape == "atom":
            self._clause([*prefix, lit])
        elif shape == "equiv":
            a, b = self._define(f.left, env), self._define(f.right, env)
            if positive == isinstance(f, Xor):  # the two sides differ
                self._clause([*prefix, a, b])
                self._clause([*prefix, -a, -b])
            else:
                self._clause([*prefix, -a, b])
                self._clause([*prefix, a, -b])
        elif shape == "and":
            for part in self._parts(f, positive, env):
                self._add(*part, prefix)
        else:
            lits, rest = list(prefix), []
            self._disjuncts(f, positive, env, lits, rest)
            if not rest:
                self._clause(lits)
                return
            # prefix ∨ lits ∨ C ∨ D ∨ ...: distribute over the first part C,
            # and put in each other part's place a fresh variable implying it.
            for part in rest[1:]:
                var = self._fresh()
                self._add(*part, (-var,))
                lits.append(var)
            self._add(*rest[0], lits)

    def _disjuncts(self, f: Formula, positive: bool, env: dict[str, int], lits: list, rest: list) -> None:
        """Flatten the disjunction f (¬f when not positive): literals go to
        lits, parts of any other shape to rest."""
        for part in self._parts(f, positive, env):
            g, g_pos, shape, lit = self._shape(*part)
            if shape == "atom":
                lits.append(lit)
            elif shape == "or":
                self._disjuncts(g, g_pos, part[2], lits, rest)
            else:
                rest.append((g, g_pos, part[2]))

    def _define(self, f: Formula, env: dict[str, int]) -> int:
        """A literal true exactly when f is."""
        f, positive, shape, lit = self._shape(f, True, env)
        if shape != "atom":
            key = (f, tuple(env.items()))
            var = self.defined.get(key)
            if var is None:
                var = self.defined[key] = self._fresh()
                self._add(f, True, env, (-var,))
                self._add(f, False, env, (var,))
            lit = var if positive else -var
        return lit


class _Budget:
    __slots__ = ("used", "cap")

    def __init__(self, cap: int):
        self.used = 0
        self.cap = cap

    def tick(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.cap:
            raise BudgetExceeded(f"interpretation budget of {self.cap} exceeded")


class _Solver:
    """DPLL over one probe's clauses, variables 1..n_vars.

    Each clause counts its true and its unassigned literals, and a clause
    with no true literal sits in open_by_free[k], k its unassigned count:
    open_by_free[0] holds conflicts, open_by_free[1] unit clauses, and the
    branch is a literal of a shortest open clause. occurs lists the clauses
    of each literal, v at v and -v at 2 * n_vars + 1 - v (negative
    indexing). Every assignment goes on the trail, and backtracking undoes
    it in reverse. A class, not closures over the state: a recursive search
    closure refers to itself through its cell, a reference cycle that only
    the cyclic collector frees, and a command must leave no cyclic garbage.
    """

    __slots__ = ("clauses", "occurs", "value", "n_true", "n_free", "open_by_free", "trail")

    def __init__(self, clauses: list[list[int]], n_vars: int):
        self.clauses = clauses
        occurs: list[list[int]] = [[] for _ in range(2 * n_vars + 1)]
        self.value: list[bool | None] = [None] * (2 * n_vars + 1)
        self.n_true = [0] * len(clauses)
        self.n_free = [len(c) for c in clauses]
        open_by_free: list[set[int]] = [set() for _ in range(max(self.n_free, default=0) + 2)]
        for ci, clause in enumerate(clauses):
            open_by_free[len(clause)].add(ci)
            for lit in clause:
                occurs[lit].append(ci)
        self.occurs, self.open_by_free = occurs, open_by_free
        self.trail: list[int] = []

    def assign(self, lit: int) -> None:
        value, n_true, n_free, open_by_free = self.value, self.n_true, self.n_free, self.open_by_free
        value[lit], value[-lit] = True, False
        self.trail.append(lit)
        for ci in self.occurs[lit]:
            if n_true[ci] == 0:
                open_by_free[n_free[ci]].discard(ci)
            n_true[ci] += 1
            n_free[ci] -= 1
        for ci in self.occurs[-lit]:
            k = n_free[ci]
            n_free[ci] = k - 1
            if n_true[ci] == 0:
                open_by_free[k].discard(ci)
                open_by_free[k - 1].add(ci)

    def undo_to(self, mark: int) -> None:
        value, n_true, n_free, open_by_free, trail = (
            self.value, self.n_true, self.n_free, self.open_by_free, self.trail
        )
        while len(trail) > mark:
            lit = trail.pop()
            value[lit] = value[-lit] = None
            for ci in self.occurs[-lit]:
                k = n_free[ci]
                n_free[ci] = k + 1
                if n_true[ci] == 0:
                    open_by_free[k].discard(ci)
                    open_by_free[k + 1].add(ci)
            for ci in self.occurs[lit]:
                n_true[ci] -= 1
                n_free[ci] += 1
                if n_true[ci] == 0:
                    open_by_free[n_free[ci]].add(ci)

    def _free_literal(self, ci: int) -> int:
        value = self.value
        return next(lit for lit in self.clauses[ci] if value[lit] is None)

    def propagate(self) -> bool:
        """Assign unit clauses' literals until none is left; False on a conflict."""
        conflicts, units = self.open_by_free[0], self.open_by_free[1]
        while units and not conflicts:
            self.assign(self._free_literal(units.pop()))
        return not conflicts

    def search(self, budget: "_Budget") -> bool:
        """Is there an assignment extending the current one that satisfies
        every clause? One budget tick per search node."""
        budget.tick()
        mark = len(self.trail)
        if self.propagate():
            shortest = next((s for s in self.open_by_free[2:] if s), None)
            if shortest is None:
                return True  # every clause has a true literal
            lit = self._free_literal(shortest.pop())  # lit satisfies it; undo_to puts it back
            for choice in (lit, -lit):
                before = len(self.trail)
                self.assign(choice)
                if self.search(budget):
                    return True
                self.undo_to(before)
        self.undo_to(mark)
        return False


def _existentials(f: Formula) -> tuple[tuple[int, bool], tuple[int, bool]]:
    """(count, nested) for f and then for ¬f, with ¬ pushed inward: count is
    the number of existential witnesses (∃, or ∀ under a negation) a model
    needs, an operand of ⊕ or ↔ counted in the polarity it takes, and nested
    says one of them sits inside a universal. count never exceeds the number
    of quantifiers in f, and one pass keeps this linear in the size of f."""
    if isinstance(f, Pred):
        return (0, False), (0, False)
    if isinstance(f, Not):
        pos, neg = _existentials(f.body)
        return neg, pos
    if isinstance(f, (ForAll, Exists)):
        pos, neg = _existentials(f.body)
        if isinstance(f, Exists):  # ∃x φ, and ¬∃x φ is ∀x ¬φ
            return (pos[0] + 1, pos[1]), (neg[0], neg[1] or neg[0] > 0)
        return (pos[0], pos[1] or pos[0] > 0), (neg[0] + 1, neg[1])  # ¬∀x φ is ∃x ¬φ
    left, right = _existentials(f.left), _existentials(f.right)
    if isinstance(f, (Xor, Iff)):
        # In a model each operand is true or false: the operands differ or
        # agree, one of two ways each, and the count is the larger way's.
        (lp, ln), (rp, rn) = left, right
        differ = max(lp[0] + rn[0], ln[0] + rp[0])
        agree = max(lp[0] + rp[0], ln[0] + rn[0])
        nested = lp[1] or ln[1] or rp[1] or rn[1]
        pos, neg = (differ, agree) if isinstance(f, Xor) else (agree, differ)
        return (pos, nested), (neg, nested)
    if isinstance(f, Implies):
        left = left[::-1]
    return tuple((a[0] + b[0], a[1] or b[1]) for a, b in zip(left, right))


class Grounding:
    """What entails() last grounded, kept by a caller that asks again about
    that premise list extended (see entails): the premises, their signature,
    existential witness count and whether a witness sits under a universal,
    the (size, constant names) they were grounded at, and the _Grounder
    holding their clauses."""

    def __init__(self):
        self.premises: list[Formula] = []
        self.signature = Signature()
        self.witnesses = 0
        self.nested = False
        self.key: tuple[int, tuple[str, ...]] | None = None
        self.grounder: _Grounder | None = None


def _extended(sig: Signature, formulas) -> Signature:
    """A copy of sig with the predicates and constants of formulas added;
    ArityConflict as in collect_signature."""
    out = Signature(dict(sig.predicates), set(sig.constants))
    for f in formulas:
        out.add_formula(f)
    return out


def entails(
    premises,
    hypothesis: Formula,
    max_domain: int = DEFAULT_MAX_DOMAIN,
    budget: int = 10_000_000,
    grounding: Grounding | None = None,
) -> EntailmentVerdict:
    """Three-way finite-model entailment at one domain size.

    TRUE: hypothesis holds in every model of the premises of that size;
    FALSE: its negation does; UNCERTAIN otherwise, including when the premises
    have no model of that size (flagged). The size is max(1, c + k), exact,
    for a set with no ∃ under a ∀ (c constants, k existential witnesses over
    both probes), else c + max_domain (see the module docstring).
    Deterministic for fixed inputs. Raises ValueError for an open formula or
    max_domain below 1, and BudgetExceeded when the search needs more than
    budget ticks.

    A caller that asks about a growing premise list passes the same grounding
    each time. When premises extend the list it holds, only the new premises
    and the hypothesis are checked and counted, and the new premises are
    grounded onto the held clauses if the size and constants stay the same;
    any other call starts afresh. Once every check has passed, grounding
    holds this call's premises; a BudgetExceeded while grounding the new
    premises empties it. Either way the result, the unsatisfiable flag, the
    size and exactness, or a ValueError or BudgetExceeded raised, are those
    of a call without it, and so is interpretations_explored: each probe
    searches the fresh call's clauses, in the same order, up to a renaming
    of variables, and the held premises tick the budget for the instances
    their grounding took. Only the grounding work differs.
    """
    premises = list(premises)
    if grounding is None:
        grounding = Grounding()
    held = grounding.premises
    base = grounding if premises[: len(held)] == held else Grounding()
    new = premises[len(base.premises) :]
    for f in [*new, hypothesis]:
        fv = free_vars(f)
        if fv:
            raise ValueError(f"formula is not closed, free variables {sorted(fv)}: {f}")
    if max_domain < 1:
        raise ValueError(f"max_domain must be at least 1, got {max_domain}")
    signature = _extended(base.signature, new)
    const_names = tuple(sorted(_extended(signature, [hypothesis]).constants))
    witnesses, nested = base.witnesses, base.nested
    for n, deep in (_existentials(f)[0] for f in new):
        witnesses, nested = witnesses + n, nested or deep
    hyp, neg = _existentials(hypothesis)
    k = witnesses + max(hyp[0], neg[0])
    exact = not (nested or hyp[1] or neg[1])
    size = max(1, len(const_names) + k) if exact else len(const_names) + max_domain
    tracker = _Budget(budget)
    key = (size, const_names)
    if base.key == key:
        ground = base.grounder
        ground.budget = tracker
        try:
            tracker.tick(ground.premise_ticks)  # what grounding them afresh would spend
            ground.add_premises(new)
        except BudgetExceeded:
            grounding.__init__()  # its grounder is half extended
            raise
    else:
        ground = _Grounder(size, const_names, premises, tracker)
    grounding.premises, grounding.key, grounding.grounder = premises, key, ground
    grounding.signature, grounding.witnesses, grounding.nested = signature, witnesses, nested

    probes = ground.probe(Not(hypothesis)), ground.probe(hypothesis)
    grounded = tracker.used
    sat_with_neg, sat_with_hyp = (_Solver(clauses, ground.n_vars).search(tracker) for clauses in probes)

    # Every model of the premises satisfies the hypothesis or its negation,
    # so the premises are satisfiable iff one of the two probes succeeded.
    if not sat_with_hyp and not sat_with_neg:
        result = Label.UNCERTAIN
        unsat = True
    elif not sat_with_neg:
        result, unsat = Label.TRUE, False
    elif not sat_with_hyp:
        result, unsat = Label.FALSE, False
    else:
        result, unsat = Label.UNCERTAIN, False
    return EntailmentVerdict(
        result=result,
        unsatisfiable_premises=unsat,
        domain_size=size,
        exact=exact,
        interpretations_explored=tracker.used - grounded,
    )
