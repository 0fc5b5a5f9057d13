"""End-to-end tests for the command line interface."""

import json
from argparse import Namespace

import pytest

from symtraj.cli import (
    ConfigError,
    PipelineConfig,
    _overlay_flags,
    build_backend,
    evaluate_traces,
    load_config,
    main,
)
from symtraj.fol import parse_formula
from symtraj.jsonl import read_jsonl, write_jsonl
from symtraj.problems import Problem, Statement, load_problems
from symtraj.semantics import Label
from symtraj.supervision import mc_label, step_label_to_dict
from symtraj.trajectory import parse_trajectory, trajectory_from_dict


def _write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture()
def workspace(tmp_path):
    problems = tmp_path / "problems.jsonl"
    config = tmp_path / "backend.json"
    _write_json(config, {"backend": {"kind": "oracle-mock"}, "seed": 0})
    rc = main(
        [
            "gen-problems",
            "--lengths",
            "3",
            "--count",
            "4",
            "--seed",
            "3",
            "--out",
            str(problems),
            "--no-split",
        ]
    )
    assert rc == 0
    return {"dir": tmp_path, "problems": problems, "config": config}


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def test_load_config_defaults_without_file():
    # No config file means no network: the inert scripted backend is the default.
    cfg = load_config(None)
    assert cfg.backend_kind == "scripted"
    assert cfg.n_samples == 10 and cfg.k == 1


def test_load_config_nested_backend(tmp_path):
    path = _write_json(
        tmp_path / "cfg.json",
        {"backend": {"kind": "scripted", "script": {}}, "temperature": 0.3, "n_samples": 5},
    )
    cfg = load_config(path)
    assert cfg.backend_kind == "scripted"
    assert cfg.temperature == 0.3
    assert cfg.n_samples == 5


def test_load_config_top_level_backend(tmp_path):
    path = _write_json(tmp_path / "cfg.json", {"kind": "oracle-mock", "accuracy": 0.5})
    cfg = load_config(path)
    assert cfg.backend_kind == "oracle-mock"
    assert cfg.backend_options["accuracy"] == 0.5


def test_load_config_rejects_unknown_kind(tmp_path):
    path = _write_json(tmp_path / "cfg.json", {"kind": "quantum"})
    with pytest.raises(ConfigError):
        load_config(path)


def test_pipeline_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(k=0)
    with pytest.raises(ConfigError):
        PipelineConfig(k=11, n_samples=10)
    with pytest.raises(ConfigError):
        PipelineConfig(step_threshold=1.5)
    with pytest.raises(ConfigError):
        PipelineConfig(parallelism=0)
    with pytest.raises(ConfigError):
        PipelineConfig(temperature=-0.1)


def test_overlay_flags_prefer_cli_values(tmp_path):
    path = _write_json(tmp_path / "cfg.json", {"kind": "oracle-mock", "temperature": 0.3})
    cfg = load_config(path)
    args = Namespace(temperature=0.9, n_shots=None, max_tokens=None, seed=None, parallelism=None)
    merged = _overlay_flags(cfg, args)
    assert merged.temperature == 0.9
    assert merged.backend_kind == "oracle-mock"


def test_build_backend_requires_http_base_url():
    with pytest.raises(ConfigError):
        build_backend(PipelineConfig(backend_kind="http"))


def test_build_backend_oracle_mock_needs_problems():
    with pytest.raises(ConfigError):
        build_backend(PipelineConfig(backend_kind="oracle-mock"))


# ---------------------------------------------------------------------------
# Problem generation
# ---------------------------------------------------------------------------


def test_gen_problems_writes_expected_records(workspace):
    records = read_jsonl(workspace["problems"])
    assert len(records) == 4
    assert all(r["id"].startswith("logicasker-l3-") for r in records)
    assert sorted(r["label"] for r in records) == ["False", "False", "True", "True"]


def test_gen_problems_is_deterministic(tmp_path):
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        assert main(["gen-problems", "--lengths", "3", "--count", "2", "--seed", "7", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_gen_problems_split_assigns_all_problems(tmp_path):
    out = tmp_path / "split.jsonl"
    assert main(["gen-problems", "--lengths", "3,4", "--count", "6", "--seed", "1", "--out", str(out)]) == 0
    records = read_jsonl(out)
    assert len(records) == 12
    splits = {r["split"] for r in records}
    assert splits == {"train", "dev", "test"}


# ---------------------------------------------------------------------------
# Pipeline commands
# ---------------------------------------------------------------------------


def test_full_pipeline_over_mock_backend(workspace, capsys):
    d = workspace["dir"]
    problems = str(workspace["problems"])
    config = str(workspace["config"])
    traces = d / "traces.jsonl"
    rc = main(
        ["sample", "--problems", problems, "--backend", config, "--n", "2", "--out", str(traces)]
    )
    assert rc == 0
    trace_records = read_jsonl(traces)
    assert len(trace_records) == 8

    verdicts = d / "verdicts.jsonl"
    assert main(["verify", "--traces", str(traces), "--problems", problems, "--out", str(verdicts)]) == 0
    verdict_records = read_jsonl(verdicts)
    assert verdict_records
    statuses = {r["status"] for r in verdict_records}
    assert statuses <= {"VerifiedByRule", "VerifiedSemantically", "Invalid", "Unparseable"}
    assert "Invalid" not in statuses and "Unparseable" not in statuses

    labels = d / "labels.jsonl"
    rc = main(
        [
            "label",
            "--traces",
            str(traces),
            "--problems",
            problems,
            "--backend",
            config,
            "--n-samples",
            "3",
            "--k",
            "1",
            "--out",
            str(labels),
        ]
    )
    assert rc == 0
    label_records = read_jsonl(labels)
    assert label_records
    assert all(r["n_samples"] == 3 for r in label_records)
    assert all(r["hard_label"] == 1 for r in label_records)

    scores = d / "scores.jsonl"
    assert main(["score", "--traces", str(traces), "--problems", problems, "--out", str(scores)]) == 0
    score_records = read_jsonl(scores)
    assert len(score_records) == 8
    assert all(0.0 <= r["trajectory_prob"] <= 1.0 for r in score_records)

    selected = d / "selected.jsonl"
    rc = main(
        [
            "select",
            "--traces",
            str(traces),
            "--problems",
            problems,
            "--scores",
            str(scores),
            "--out",
            str(selected),
        ]
    )
    assert rc == 0
    assert len(read_jsonl(selected)) == 8

    pairs = d / "pairs.jsonl"
    assert main(["dpo-pairs", "--scores", str(scores), "--out", str(pairs)]) == 0
    pairs.read_text(encoding="utf-8")  # file exists even when no gap clears the bar

    for kind, extra in (
        ("sft", []),
        ("prm", ["--labels", str(labels)]),
        ("dpo", ["--pairs", str(pairs)]),
    ):
        out = d / f"{kind}.jsonl"
        rc = main(
            ["export", "--kind", kind, "--traces", str(selected), "--problems", problems, "--out", str(out)]
            + extra
        )
        assert rc == 0, kind
    assert len(read_jsonl(d / "sft.jsonl")) == 8
    assert len(read_jsonl(d / "prm.jsonl")) == 8
    prm_rec = read_jsonl(d / "prm.jsonl")[0]
    assert set(prm_rec) == {"prompt", "steps", "step_labels"}
    assert len(prm_rec["steps"]) == len(prm_rec["step_labels"])

    capsys.readouterr()
    assert main(["evaluate", "--traces", str(selected), "--problems", problems]) == 0
    out = capsys.readouterr().out
    assert "accuracy: 1.0000 (8/8)" in out
    assert "mean steps:" in out


def test_sample_is_deterministic(workspace):
    d = workspace["dir"]
    blobs = []
    for name in ("t1.jsonl", "t2.jsonl"):
        out = d / name
        rc = main(
            [
                "sample",
                "--problems",
                str(workspace["problems"]),
                "--backend",
                str(workspace["config"]),
                "--n",
                "2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_label_matches_per_trajectory_mc_label_byte_for_byte(workspace):
    d = workspace["dir"]
    problems = str(workspace["problems"])
    config = _write_json(
        d / "noisy.json",
        {"backend": {"kind": "oracle-mock", "accuracy": 0.6, "sloppiness": 0.5}, "seed": 0},
    )
    traces = d / "traces.jsonl"
    assert main(["sample", "--problems", problems, "--backend", config, "--n", "4", "--out", str(traces)]) == 0
    trajectories = [trajectory_from_dict(r) for r in read_jsonl(traces)]
    raw_texts = [t.raw_text for t in trajectories]
    assert len(set(raw_texts)) < len(raw_texts)  # identical samples share an id

    labels = d / "labels.jsonl"
    argv = ["label", "--traces", str(traces), "--problems", problems, "--backend", config]
    assert main(argv + ["--n-samples", "3", "--k", "2", "--out", str(labels)]) == 0

    # One mc_label call per trajectory, as the command used to label them.
    cfg = load_config(config)
    by_id = {p.id: p for p in load_problems(problems)}
    backend = build_backend(cfg, list(by_id.values()))
    records = []
    for traj in trajectories:
        problem = by_id[traj.problem_id]
        for label in mc_label(
            problem,
            traj,
            backend,
            n_samples=3,
            k=2,
            temperature=cfg.temperature,
            max_tokens=cfg.max_tokens,
            parallelism=cfg.parallelism,
            n_shots=cfg.n_shots,
        ):
            record = step_label_to_dict(label)
            record["problem_id"] = problem.id
            records.append(record)
    expected = d / "expected.jsonl"
    write_jsonl(expected, records)
    assert {r["hard_label"] for r in records} == {1, -1}
    assert labels.read_bytes() == expected.read_bytes()


def test_label_export_requires_labels_file(workspace, tmp_path):
    d = workspace["dir"]
    traces = d / "traces.jsonl"
    assert (
        main(
            [
                "sample",
                "--problems",
                str(workspace["problems"]),
                "--backend",
                str(workspace["config"]),
                "--n",
                "1",
                "--out",
                str(traces),
            ]
        )
        == 0
    )
    rc = main(
        [
            "export",
            "--kind",
            "prm",
            "--traces",
            str(traces),
            "--problems",
            str(workspace["problems"]),
            "--out",
            str(tmp_path / "prm.jsonl"),
        ]
    )
    assert rc == 1


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_select_without_judgments_fails(workspace, tmp_path):
    rc = main(
        [
            "select",
            "--traces",
            str(tmp_path / "none.jsonl"),
            "--problems",
            str(workspace["problems"]),
            "--out",
            str(tmp_path / "out.jsonl"),
        ]
    )
    assert rc == 1


def test_missing_problems_file_fails(tmp_path):
    rc = main(
        [
            "evaluate",
            "--traces",
            str(tmp_path / "traces.jsonl"),
            "--problems",
            str(tmp_path / "absent.jsonl"),
        ]
    )
    assert rc == 1


def test_malformed_config_fails(workspace, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    rc = main(
        [
            "sample",
            "--problems",
            str(workspace["problems"]),
            "--backend",
            str(bad),
            "--out",
            str(tmp_path / "t.jsonl"),
        ]
    )
    assert rc == 1


def test_unknown_backend_kind_fails(workspace, tmp_path):
    cfg = tmp_path / "cfg.json"
    _write_json(cfg, {"kind": "quantum"})
    rc = main(
        [
            "sample",
            "--problems",
            str(workspace["problems"]),
            "--backend",
            str(cfg),
            "--out",
            str(tmp_path / "t.jsonl"),
        ]
    )
    assert rc == 1


def test_invalid_problem_record_fails_with_code_2(tmp_path):
    problems = tmp_path / "problems.jsonl"
    record = {
        "id": "bad-0",
        "premises": [{"nl": "a", "fol": "P(a)"}],
        "hypothesis": {"nl": "h", "fol": "Q(a)"},
        "label": "Maybe",
    }
    problems.write_text(json.dumps(record) + "\n", encoding="utf-8")
    traces = tmp_path / "traces.jsonl"
    traces.write_text("", encoding="utf-8")
    rc = main(["evaluate", "--traces", str(traces), "--problems", str(problems)])
    assert rc == 2


# ---------------------------------------------------------------------------
# Evaluation statistics
# ---------------------------------------------------------------------------


def _problem(pid, label):
    return Problem(
        id=pid,
        premises=(Statement(nl="p", formula=parse_formula("P(a)")),),
        hypothesis=Statement(nl="h", formula=parse_formula("Q(a)")),
        label=label,
        source="custom",
    )


def test_evaluate_traces_statistics():
    problems = [_problem("p1", Label.TRUE), _problem("p2", Label.FALSE)]
    trajs = [
        parse_trajectory("Thought: a.\nAction: Finish [True]", problem_id="p1"),
        parse_trajectory("Thought: b.\nObservation: Q(a)\nAction: Finish [False]", problem_id="p2"),
        parse_trajectory("Thought: c.\nAction: Finish [True]", problem_id="p2"),
        parse_trajectory("Thought: d.\nAction: think harder", problem_id="p1"),
    ]
    stats = evaluate_traces(trajs, problems)
    assert stats["total"] == 4
    assert stats["matches"] == 2
    assert stats["accuracy"] == pytest.approx(0.5)
    assert stats["confusion"]["True"] == {"True": 1, "None": 1}
    assert stats["confusion"]["False"] == {"False": 1, "True": 1}
    assert stats["mean_steps"] == pytest.approx((2 + 3 + 2 + 2) / 4)
    assert stats["mean_formulas"] == pytest.approx(0.25)


def test_evaluate_traces_skips_unknown_problems():
    problems = [_problem("p1", Label.TRUE)]
    trajs = [parse_trajectory("Thought: x.\nAction: Finish [True]", problem_id="ghost")]
    stats = evaluate_traces(trajs, problems)
    assert stats["total"] == 0
    assert stats["accuracy"] == 0.0
