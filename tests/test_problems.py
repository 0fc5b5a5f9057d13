"""Problem model, synthetic generation, splitting, and file formats."""

import dataclasses
import json
import random

import pytest

from symtraj import problems as problems_module
from symtraj.fol import parse_formula
from symtraj.jsonl import FormatError, write_jsonl
from symtraj.problems import (
    SHAPES,
    InvariantViolation,
    Problem,
    Statement,
    generate_logicasker,
    load_problems,
    problem_from_dict,
    problem_to_dict,
    save_problems,
    split_even,
    validate_problem,
)
from symtraj.semantics import Label, entails


def _problem(**overrides):
    fields = dict(
        id="p1",
        premises=(Statement(nl="a is P.", formula=parse_formula("P(a)")),),
        hypothesis=Statement(nl="a is P.", formula=parse_formula("P(a)")),
        label=Label.TRUE,
    )
    fields.update(overrides)
    return Problem(**fields)


def test_statement_needs_some_content():
    with pytest.raises(InvariantViolation):
        Statement()
    assert Statement(nl="words").text() == "words"
    assert Statement(formula=parse_formula("P(a)")).text() == "P(a)"
    assert Statement(nl="words", formula=parse_formula("P(a)")).text() == "words"


def test_problem_accessors():
    p = _problem(meta={"reasoning_length": 4})
    assert p.reasoning_length == 4
    assert list(p.premise_formulas) == [parse_formula("P(a)")]
    assert "a is P." in p.context_text()


def test_validate_problem_rejections():
    with pytest.raises(InvariantViolation):
        validate_problem(_problem(source="wikipedia"))
    with pytest.raises(InvariantViolation):
        validate_problem(_problem(premises=()))
    with pytest.raises(InvariantViolation):
        validate_problem(_problem(split="validation"))
    with pytest.raises(InvariantViolation):
        validate_problem(_problem(source="logicasker", label=Label.UNCERTAIN))
    with pytest.raises(InvariantViolation):
        validate_problem(
            _problem(source="logicasker", premises=(Statement(nl="words only"),))
        )
    with pytest.raises(InvariantViolation, match="problem id 5 is not a string"):
        validate_problem(_problem(id=5))
    with pytest.raises(InvariantViolation, match=r"p1: meta must be an object, got \[1\]"):
        validate_problem(_problem(meta=[1]))
    validate_problem(_problem(split="train"))


@pytest.mark.parametrize(
    "premises, hypothesis",
    [(["P(a)", "P(a, b)"], "Q(a)"), (["P(a)"], "P(a, b)")],
)
def test_validate_problem_rejects_a_predicate_used_at_two_arities(premises, hypothesis):
    problem = _problem(
        premises=tuple(Statement(formula=parse_formula(t)) for t in premises),
        hypothesis=Statement(formula=parse_formula(hypothesis)),
    )
    with pytest.raises(InvariantViolation, match="p1: predicate 'P' used with arity 1 and 2"):
        validate_problem(problem)


def test_generate_counts_ids_and_lengths():
    problems = generate_logicasker(4, [3, 5], seed=1)
    assert len(problems) == 8
    assert [p.id for p in problems[:4]] == [f"logicasker-l3-{i:04d}" for i in range(4)]
    for p in problems:
        assert p.source == "logicasker"
        length = p.reasoning_length
        assert length in (3, 5)
        assert p.meta["shape"] in SHAPES
        expected = length + 2 if p.meta["shape"] == "disjunctive" else length + 1
        assert len(p.premises) == expected


@pytest.mark.parametrize(
    "count, lengths, message",
    [(0, [3], "count_per_length"), (1, [], "lengths must be nonempty"), (1, [3, 0], "reasoning length")],
)
def test_generate_refuses_an_empty_request(count, lengths, message):
    with pytest.raises(ValueError, match=message):
        generate_logicasker(count, lengths)


def test_generate_label_balance_alternates():
    problems = generate_logicasker(10, [3], seed=2)
    labels = [p.label for p in problems]
    assert labels.count(Label.TRUE) == 5
    assert labels.count(Label.FALSE) == 5
    assert labels[0] is Label.TRUE and labels[1] is Label.FALSE


def test_generate_agrees_with_entailment_oracle():
    for p in generate_logicasker(3, [3, 4], seed=3):
        verdict = entails(list(p.premise_formulas), p.hypothesis.formula, max_domain=3)
        assert verdict.result is p.label, p.id
        assert not verdict.unsatisfiable_premises


def test_generate_builds_one_candidate_per_problem(monkeypatch):
    calls = []
    build = problems_module._build_candidate

    def counting(rng, length, shape, label):
        calls.append((length, shape, label))
        return build(rng, length, shape, label)

    monkeypatch.setattr(problems_module, "_build_candidate", counting)
    problems = generate_logicasker(6, [1, 8, 15], seed=4)
    assert len(calls) == len(problems) == 18
    assert calls == [(p.reasoning_length, p.meta["shape"], p.label) for p in problems]


def test_generate_raises_when_the_oracle_disagrees_with_a_label(monkeypatch):
    entails_ = problems_module.entails

    def flipped(premises, hypothesis):
        verdict = entails_(premises, hypothesis)
        wrong = Label.FALSE if verdict.result is Label.TRUE else Label.TRUE
        return dataclasses.replace(verdict, result=wrong)

    monkeypatch.setattr(problems_module, "entails", flipped)
    with pytest.raises(InvariantViolation, match="grounded problem of length 3: oracle verdict False"):
        generate_logicasker(2, [3], seed=0)


def test_generate_deterministic_per_seed():
    a = [problem_to_dict(p) for p in generate_logicasker(3, [3], seed=9)]
    b = [problem_to_dict(p) for p in generate_logicasker(3, [3], seed=9)]
    c = [problem_to_dict(p) for p in generate_logicasker(3, [3], seed=10)]
    assert a == b
    assert a != c


def test_generate_premises_are_shuffled_but_meta_keeps_chain():
    p = generate_logicasker(1, [4], seed=5)[0]
    assert set(p.meta) >= {"reasoning_length", "shape", "variable", "constant", "chain"}
    assert len(p.meta["chain"]) == p.reasoning_length + 1


def test_split_even_partitions_and_balances():
    problems = generate_logicasker(12, [3, 4], seed=6)
    train, dev, test = split_even(problems, seed=6)
    assert len(train) + len(dev) + len(test) == len(problems)
    ids = sorted(p.id for p in problems)
    assert sorted(p.id for p in train + dev + test) == ids
    for part, name in ((train, "train"), (dev, "dev"), (test, "test")):
        assert all(p.split == name for p in part)
    # Stratified by (length, label): 12 per length = 6 per stratum -> 2/2/2.
    for length in (3, 4):
        for label in (Label.TRUE, Label.FALSE):
            counts = [
                sum(1 for p in part if p.reasoning_length == length and p.label is label)
                for part in (train, dev, test)
            ]
            assert max(counts) - min(counts) <= 1


def test_split_even_deterministic():
    problems = generate_logicasker(6, [3], seed=7)
    first = [[p.id for p in part] for part in split_even(problems, seed=7)]
    second = [[p.id for p in part] for part in split_even(problems, seed=7)]
    assert first == second


def test_problem_dict_round_trip():
    p = _problem(meta={"reasoning_length": 2}, split="dev")
    d = problem_to_dict(p)
    assert d["premises"][0]["nl"] == "a is P."
    assert d["premises"][0]["fol"] == "P(a)"
    assert d["label"] == "True"
    assert problem_from_dict(d) == p


def test_problem_from_dict_rejects_unknown_label():
    d = problem_to_dict(_problem())
    d["label"] = "Maybe"
    with pytest.raises(InvariantViolation):
        problem_from_dict(d)


def test_save_and_load_native(tmp_path):
    problems = generate_logicasker(2, [3], seed=8)
    path = tmp_path / "problems.jsonl"
    save_problems(path, problems)
    loaded = load_problems(path)
    assert loaded == problems


def test_load_problems_missing_field_is_format_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    # No hypothesis reads as a FOLIO record with no conclusion; then one with no premises.
    write_jsonl(path, [{"id": "x"}])
    with pytest.raises(FormatError) as exc:
        load_problems(path)
    assert "record 0" in str(exc.value)
    write_jsonl(path, [{"conclusion": "Rex barks.", "label": "True"}])
    with pytest.raises(FormatError, match="record 0: missing field 'premises'"):
        load_problems(path)


def test_load_problems_invariant_violation_names_record(tmp_path):
    d = problem_to_dict(_problem())
    d["source"] = "nonsense"
    path = tmp_path / "bad.jsonl"
    write_jsonl(path, [d])
    with pytest.raises(InvariantViolation) as exc:
        load_problems(path)
    assert "record 0" in str(exc.value)


def _folio_record(**overrides):
    rec = {
        "example_id": 17,
        "premises": ["All dogs bark.", "Rex is a dog."],
        "premises-FOL": ["forall x (Dog(x) -> Bark(x))", "Dog(rex)"],
        "conclusion": "Rex barks.",
        "label": "True",
    }
    rec.update(overrides)
    return rec


def test_folio_loader_parses_formulas(tmp_path):
    path = tmp_path / "folio.jsonl"
    write_jsonl(path, [_folio_record()])
    (p,) = load_problems(path)
    assert p.source == "folio"
    assert p.id == "17"
    assert p.label is Label.TRUE
    assert p.premises[0].formula == parse_formula("forall x (Dog(x) -> Bark(x))")
    assert p.premises[1].nl == "Rex is a dog."


def test_folio_loader_tolerates_formula_problems(tmp_path):
    path = tmp_path / "folio.jsonl"
    write_jsonl(
        path,
        [
            # one unparseable formula -> that slot is None
            _folio_record(**{"premises-FOL": ["forall x (Dog(x) -> Bark(x))", "Dog(rex"]}),
            # length mismatch -> all formula slots None
            _folio_record(**{"example_id": 18, "premises-FOL": ["Dog(rex)"]}),
            # no FOL at all; string premises instead of a list; label lowercase
            {
                "premises": "All dogs bark.",
                "hypothesis": "Rex barks.",
                "label": "uncertain",
            },
            # an unparseable conclusion formula -> a hypothesis with none
            _folio_record(**{"example_id": 19, "conclusion-FOL": "Bark(rex"}),
        ],
    )
    a, b, c, d = load_problems(path)
    assert a.premises[0].formula is not None and a.premises[1].formula is None
    assert all(s.formula is None for s in b.premises)
    assert (d.hypothesis.nl, d.hypothesis.formula) == ("Rex barks.", None)
    assert c.id == "folio-0002"
    assert c.label is Label.UNCERTAIN
    assert c.premises[0].nl == "All dogs bark."


def test_folio_loader_unknown_label(tmp_path):
    path = tmp_path / "folio.jsonl"
    write_jsonl(path, [_folio_record(label="perhaps")])
    with pytest.raises(InvariantViolation):
        load_problems(path)


def test_load_problems_reads_each_record_by_its_shape(tmp_path):
    native = _problem()
    path = tmp_path / "mixed.jsonl"
    write_jsonl(path, [_folio_record(), problem_to_dict(native)])
    folio, loaded = load_problems(path)
    assert (folio.source, folio.id) == ("folio", "17")
    assert loaded == native


def test_native_record_with_a_hypothesis_that_is_no_object_is_refused(tmp_path):
    d = problem_to_dict(_problem())
    d["hypothesis"] = d["hypothesis"]["nl"]
    path = tmp_path / "bad.jsonl"
    write_jsonl(path, [d])
    with pytest.raises(InvariantViolation, match="record 0: FOLIO premise .* is not text"):
        load_problems(path)


def test_read_jsonl_reports_line_numbers(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"ok": 1}\nnot json\n', encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        load_problems(path)
    assert "2" in str(exc.value)


def test_write_jsonl_is_stable(tmp_path):
    path = tmp_path / "out.jsonl"
    write_jsonl(path, [{"b": 1, "a": 2}])
    assert path.read_text(encoding="utf-8") == '{"a": 2, "b": 1}\n'
    assert json.loads(path.read_text(encoding="utf-8"))


def test_write_jsonl_failure_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "out.jsonl"
    write_jsonl(path, [{"a": 1}, {"b": 2}])
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_jsonl(path, [{"a": 3}, {"b": object()}])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]
