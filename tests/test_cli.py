"""End-to-end tests for the command line interface."""

import functools
import json
import logging
from argparse import Namespace

import pytest

from symtraj import cli, fol
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
from symtraj.llm import HttpBackend
from symtraj.problems import Problem, Statement, load_problems
from symtraj.semantics import Label
from symtraj.supervision import mc_label, step_label_to_dict
from symtraj.trajectory import parse_trajectory, trajectory_from_dict


# An http backend that no test sends a request to.
HTTP = {"kind": "http", "base_url": "http://localhost:1"}


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
    # The former shape with the backend at the top level is rejected, not
    # read with every pipeline key left at its default.
    path = _write_json(
        tmp_path / "cfg.json", {"kind": "oracle-mock", "temperature": 0.3, "n_samples": 3}
    )
    with pytest.raises(ConfigError, match="'kind'"):
        load_config(path)


def test_load_config_rejects_unknown_kind(tmp_path):
    path = _write_json(tmp_path / "cfg.json", {"backend": {"kind": "quantum"}})
    with pytest.raises(ConfigError, match="'quantum'"):
        load_config(path)


def test_build_backend_passes_options_to_the_constructor(tmp_path):
    path = _write_json(tmp_path / "cfg.json", {"backend": dict(HTTP, timeout_s=1)})
    backend = build_backend(load_config(path))
    assert backend.timeout_s == 1
    assert backend.model == ""


@pytest.mark.parametrize(
    "options, name",
    [
        (dict(HTTP, timeout_s="60"), "'timeout_s'"),
        (dict(HTTP, max_retries=2.5), "'max_retries'"),
        (dict(HTTP, base_url=None), "'base_url'"),
        ({"kind": "oracle-mock", "sloppiness": True}, "'sloppiness'"),
        ({"kind": "scripted", "script": []}, "'script'"),
    ],
)
def test_backend_option_of_the_wrong_type_fails_at_load(tmp_path, options, name):
    path = _write_json(tmp_path / "cfg.json", {"backend": options})
    with pytest.raises(ConfigError, match=name):
        load_config(path)


@pytest.mark.parametrize(
    "option, value", [("max_retries", 0), ("max_retries", -1), ("timeout_s", 0), ("timeout_s", -1)]
)
def test_http_option_that_fails_every_request_fails_at_load(workspace, tmp_path, capsys, option, value):
    cfg = _write_json(tmp_path / "cfg.json", {"backend": dict(HTTP, **{option: value})})
    with pytest.raises(ConfigError, match=repr(option)):
        load_config(cfg)
    argv = ["sample", "--problems", str(workspace["problems"]), "--backend", cfg]
    _fails_with_one_config_line(argv + ["--out", str(tmp_path / "t.jsonl")], capsys, repr(option))


def test_pipeline_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(k=0)
    with pytest.raises(ConfigError):
        PipelineConfig(k=11, n_samples=10)
    with pytest.raises(ConfigError):
        PipelineConfig(n_shots=0)
    with pytest.raises(ConfigError):
        PipelineConfig(parallelism=0)
    with pytest.raises(ConfigError):
        PipelineConfig(temperature=-0.1)


def test_overlay_flags_prefer_cli_values(tmp_path):
    path = _write_json(
        tmp_path / "cfg.json", {"backend": {"kind": "oracle-mock"}, "temperature": 0.3}
    )
    cfg = load_config(path)
    assert cfg.temperature == 0.3
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


class _ChatSession:
    """A chat-completions endpoint that finishes every trace with True."""

    def __init__(self):
        self.models = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.models.append(json["model"])
        reply = {"choices": [{"message": {"content": "Thought: done.\nAction: Finish [True]"}}]}
        return Namespace(status_code=200, json=lambda: reply)


def test_sample_and_label_ask_for_the_same_model(workspace, monkeypatch):
    session = _ChatSession()
    monkeypatch.setattr(cli, "HttpBackend", functools.partial(HttpBackend, session=session))
    d, problems = workspace["dir"], str(workspace["problems"])
    config = _write_json(d / "http.json", {"backend": HTTP, "n_samples": 2})
    traces = d / "traces.jsonl"
    assert main(["sample", "--problems", problems, "--backend", config, "--n", "1", "--out", str(traces)]) == 0
    sampled = session.models
    session.models = []
    argv = ["label", "--traces", str(traces), "--problems", problems, "--backend", config]
    assert main(argv + ["--out", str(d / "labels.jsonl")]) == 0
    # Neither stage names a model; the backend sends its configured one.
    assert len(sampled) == 4 and session.models
    assert set(sampled) == set(session.models) == {""}
    assert {r["generator"] for r in read_jsonl(traces)} == {"http"}


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
    _write_json(cfg, {"backend": {"kind": "quantum"}})
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


def _fails_with_one_config_line(argv, capsys, name):
    capsys.readouterr()
    assert main(argv) == 1, argv[0]
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert name in err, err


@pytest.mark.parametrize(
    "config, name",
    [
        ({"kind": "oracle-mock", "temperature": 0.3, "n_samples": 3}, "'kind'"),
        ({"backend": {"kind": "oracle-mock"}, "step_threshold": 0.9}, "'step_threshold'"),
        ({"backend": {"kind": "oracle-mock", "sloppyness": 1.0}}, "'sloppyness'"),
        ({"backend": dict(HTTP, timeout=1)}, "'timeout'"),
        ({"backend": dict(HTTP, session=None)}, "'session'"),  # a test hook, not an option
    ],
)
def test_config_setting_nothing_reads_fails(workspace, tmp_path, capsys, config, name):
    cfg = _write_json(tmp_path / "cfg.json", config)
    argv = ["sample", "--problems", str(workspace["problems"]), "--backend", cfg]
    _fails_with_one_config_line(argv + ["--out", str(tmp_path / "t.jsonl")], capsys, name)


def test_zero_shots_fails(workspace, tmp_path, capsys):
    problems, config = str(workspace["problems"]), str(workspace["config"])
    traces = str(tmp_path / "traces.jsonl")
    argv = ["sample", "--problems", problems, "--backend", config, "--n", "1", "--out", traces]
    assert main(argv) == 0
    zero = ["--problems", problems, "--n-shots", "0", "--out", str(tmp_path / "out.jsonl")]
    for argv in (
        ["sample", "--backend", config] + zero,
        ["label", "--traces", traces, "--backend", config] + zero,
        ["export", "--kind", "sft", "--traces", traces] + zero,
    ):
        _fails_with_one_config_line(argv, capsys, "n_shots")


def test_label_rejects_seed_flag(workspace, tmp_path):
    # label always uses completion seeds 0..n_samples-1, so --seed is not one of its flags.
    argv = ["label", "--traces", str(tmp_path / "t.jsonl"), "--problems", str(workspace["problems"])]
    argv += ["--backend", str(workspace["config"]), "--seed", "5", "--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_read_jsonl_reads_back_line_separators_inside_strings(tmp_path):
    records = [{"raw_text": "a\u2028b\u2029c\u0085d"}, {"raw_text": "next"}]
    path = tmp_path / "records.jsonl"
    write_jsonl(path, records)
    assert read_jsonl(path) == records


def test_every_command_starts_with_an_empty_parse_cache(workspace, tmp_path):
    traces = tmp_path / "traces.jsonl"
    traces.write_text("", encoding="utf-8")
    gen = ["gen-problems", "--lengths", "3", "--count", "2", "--out", str(tmp_path / "p.jsonl")]
    evaluate = ["evaluate", "--traces", str(traces), "--problems", str(workspace["problems"])]
    for argv in (gen, evaluate):
        parse_formula("Unused(q)")  # a parse left over from before the command
        assert main(argv) == 0
        misses = fol._parse_cached.cache_info().misses
        parse_formula("Unused(q)")
        assert fol._parse_cached.cache_info().misses == misses + 1, argv[0]


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
# Reading artifacts: malformed records and traces of unknown problems
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    d = tmp_path_factory.mktemp("artifacts")
    files = {name: str(d / f"{name}.jsonl") for name in ("problems", "traces", "labels", "scores", "pairs")}
    # Spoiled samples make preference pairs, clean ones are selected.
    files["config"] = _write_json(
        d / "config.json", {"backend": {"kind": "oracle-mock", "sloppiness": 0.5}, "n_samples": 2}
    )
    for argv in (
        "gen-problems --lengths 3 --count 3 --seed 3 --no-split --out {problems}",
        "sample --problems {problems} --backend {config} --n 2 --out {traces}",
        "label --traces {traces} --problems {problems} --backend {config} --out {labels}",
        "score --traces {traces} --problems {problems} --out {scores}",
        "dpo-pairs --scores {scores} --threshold 0 --out {pairs}",
    ):
        assert main([token.format(**files) for token in argv.split()]) == 0, argv
    return files


# Every command that reads an artifact, with the files it reads.
READERS = {
    "verify": "verify --traces {traces} --problems {problems} --out {out}",
    "label": "label --traces {traces} --problems {problems} --backend {config} --out {out}",
    "score": "score --traces {traces} --problems {problems} --out {out}",
    "select": "select --traces {traces} --problems {problems} --scores {scores} --labels {labels} --out {out}",
    "dpo-pairs": "dpo-pairs --scores {scores} --out {out}",
    "export-prm": "export --kind prm --traces {traces} --problems {problems} --labels {labels} --out {out}",
    "export-sft": "export --kind sft --traces {traces} --problems {problems} --out {out}",
    "export-dpo": "export --kind dpo --traces {traces} --problems {problems} --pairs {pairs} --out {out}",
    "evaluate": "evaluate --traces {traces} --problems {problems}",
}
TRACE_READERS = [stage for stage, argv in READERS.items() if "{traces}" in argv]


def _argv(stage, files):
    return [token.format(**files) for token in READERS[stage].split()]


def _without(key):
    return lambda rec: {k: v for k, v in rec.items() if k != key}


MALFORMED = {
    "traces": {
        "bad formula": lambda rec: dict(
            rec, steps=[{"kind": "Observation", "text": "Observation: P((", "formulas": ["P(("]}]
        ),
        "answer not a string": lambda rec: dict(rec, final_answer=5),
        "answer naming no label": lambda rec: dict(rec, final_answer="Maybe"),
    },
    "scores": {
        "missing key": _without("trajectory_id"),
        "probability 1.5": lambda rec: dict(rec, step_probs=[1.5]),
        "not the step product": lambda rec: dict(rec, trajectory_prob=rec["trajectory_prob"] + 0.1),
    },
    "labels": {"missing key": _without("hard_label")},
    "pairs": {"missing key": _without("chosen")},
}


@pytest.mark.parametrize(
    "stage, artifact, fault",
    [
        (stage, artifact, fault)
        for artifact, faults in MALFORMED.items()
        for fault in faults
        for stage in READERS
        if "{%s}" % artifact in READERS[stage]
    ],
)
def test_malformed_record_is_one_error_line(artifacts, tmp_path, capsys, stage, artifact, fault):
    bad = tmp_path / f"bad-{artifact}.jsonl"
    write_jsonl(bad, [MALFORMED[artifact][fault](read_jsonl(artifacts[artifact])[0])])
    files = dict(artifacts, out=str(tmp_path / "out.jsonl"), **{artifact: str(bad)})
    capsys.readouterr()
    assert main(_argv(stage, files)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:1: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("stage", [stage for stage, argv in READERS.items() if "{problems}" in argv])
def test_unparseable_problem_formula_is_one_error_line(artifacts, tmp_path, capsys, stage):
    bad = tmp_path / "bad-problems.jsonl"
    record = read_jsonl(artifacts["problems"])[0]
    write_jsonl(bad, [dict(record, premises=[{"nl": "broken", "fol": "P(("}])])
    capsys.readouterr()
    assert main(_argv(stage, dict(artifacts, problems=str(bad), out=str(tmp_path / "out.jsonl")))) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: record 0: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("stage", ["verify", "score"])
def test_max_domain_below_one_fails(artifacts, tmp_path, capsys, stage):
    argv = _argv(stage, dict(artifacts, out=str(tmp_path / "out.jsonl"))) + ["--max-domain", "0"]
    _fails_with_one_config_line(argv, capsys, "--max-domain")
    assert not (tmp_path / "out.jsonl").exists()


def test_remote_scorer_ignores_max_domain(artifacts, tmp_path, capsys):
    # Only the symbolic scorer uses --max-domain; the remote one fails on its own URL.
    argv = _argv("score", dict(artifacts, out=str(tmp_path / "out.jsonl")))
    _fails_with_one_config_line(argv + ["--scorer", "remote", "--max-domain", "0"], capsys, "--remote-url")


@pytest.mark.parametrize("stage", TRACE_READERS)
def test_every_stage_drops_a_trace_of_an_unknown_problem_alike(
    artifacts, tmp_path, caplog, capsys, stage
):
    traces = read_jsonl(artifacts["traces"])
    ghost = tmp_path / "ghost-traces.jsonl"
    write_jsonl(ghost, [dict(traces[0], problem_id="ghost")] + traces)
    outputs = []
    for name, path in (("clean", artifacts["traces"]), ("ghost", str(ghost))):
        out = tmp_path / f"{name}.out.jsonl"
        caplog.clear()
        capsys.readouterr()
        with caplog.at_level(logging.WARNING):
            assert main(_argv(stage, dict(artifacts, traces=path, out=str(out)))) == 0
        warnings = [r.getMessage() for r in caplog.records if "ghost" in r.getMessage()]
        assert warnings == ([] if name == "clean" else ["no problem on record for 'ghost', skipping"])
        stdout = capsys.readouterr().out
        outputs.append(out.read_bytes() if out.exists() else stdout)
    assert outputs[0] == outputs[1] and outputs[0]


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
