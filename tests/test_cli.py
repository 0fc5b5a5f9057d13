"""End-to-end tests for the command line interface."""

import dataclasses
import functools
import gc
import inspect
import json
import logging
import os
import re
import subprocess
import sys
from argparse import Namespace
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import PROXY_VARIABLES, completion_messages

from symtraj import cli, fol, rules, supervision, trajectory
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
from symtraj.llm import MAX_ATTEMPTS, HttpBackend, ScriptedMockBackend, prompt_key
from symtraj.mock import OracleMockBackend
from symtraj.problems import InvariantViolation, Problem, Statement, load_problems
from symtraj.semantics import Label, entails
from symtraj.rules import verify_trajectory
from symtraj.supervision import (
    RemoteScorer,
    SymbolicScorer,
    mc_label,
    prm_score_from_dict,
    prm_score_to_dict,
    score_trajectory,
    step_label_from_dict,
    step_label_to_dict,
)
from symtraj.trajectory import build_sampling_prompt, parse_trajectory, trajectory_from_dict, trajectory_to_dict


# An http backend that no test sends a request to.
HTTP = {"kind": "http", "base_url": "http://localhost:1"}


def test_cli_imports_no_third_party_http_client():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, symtraj.cli; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


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
    backend = build_backend(load_config(path), [])
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


@pytest.mark.parametrize(
    "options, name",
    [
        ({"accuracy": 1.5, "sloppiness": -2}, "'accuracy'"),
        ({"sloppiness": -2}, "'sloppiness'"),
        ({"sloppiness": 1.01}, "'sloppiness'"),
        ({"accuracy": float("nan")}, "'accuracy'"),  # written as NaN, which json reads
    ],
)
def test_mock_option_outside_zero_to_one_fails_at_load(workspace, tmp_path, capsys, options, name):
    cfg = _write_json(tmp_path / "cfg.json", {"backend": {"kind": "oracle-mock", **options}})
    with pytest.raises(ConfigError, match=name):
        load_config(cfg)
    out = tmp_path / "t.jsonl"
    argv = ["sample", "--problems", str(workspace["problems"]), "--backend", cfg, "--out", str(out)]
    _fails_with_one_config_line(argv, capsys, name)
    assert not out.exists()


@pytest.mark.parametrize(
    "knobs, name",
    [
        ({"temperature": "0.3"}, "'temperature' must be int or float, got '0.3'"),
        ({"n_samples": 2.5}, "'n_samples' must be int, got 2.5"),
        ({"parallelism": None}, "'parallelism' must be int, got None"),
        ({"k": True}, "'k' must be int, got True"),
    ],
)
def test_pipeline_key_of_the_wrong_type_is_one_config_line(workspace, tmp_path, capsys, knobs, name):
    cfg = _write_json(tmp_path / "cfg.json", {"backend": {"kind": "oracle-mock"}, **knobs})
    with pytest.raises(ConfigError, match=re.escape(f"pipeline key {name}")):
        load_config(cfg)
    out = tmp_path / "out.jsonl"
    inputs = ["--problems", str(workspace["problems"]), "--backend", cfg, "--out", str(out)]
    for argv in (["sample", *inputs], ["label", "--traces", str(tmp_path / "t.jsonl"), *inputs]):
        _fails_with_one_config_line(argv, capsys, name)
    assert not out.exists()


@pytest.mark.parametrize("value", [0, -5])
@pytest.mark.parametrize(
    "backend", [HTTP, {"kind": "oracle-mock"}, {"kind": "scripted", "script": {}}], ids=lambda b: b["kind"]
)
def test_max_prompt_chars_below_one_fails_at_load(workspace, tmp_path, capsys, backend, value):
    # Every request would fail as too long, and sample would write no trace.
    cfg = _write_json(tmp_path / "cfg.json", {"backend": dict(backend, max_prompt_chars=value)})
    name = f"'max_prompt_chars' must be at least 1, got {value}"
    with pytest.raises(ConfigError, match=re.escape(name)):
        load_config(cfg)
    out = tmp_path / "t.jsonl"
    argv = ["sample", "--problems", str(workspace["problems"]), "--backend", cfg, "--out", str(out)]
    _fails_with_one_config_line(argv, capsys, name)
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_temperature_fails_before_any_request(workspace, tmp_path, local_server, capsys, value):
    problems = str(workspace["problems"])
    traces = str(tmp_path / "traces.jsonl")
    assert main(["sample", "--problems", problems, "--backend", str(workspace["config"]), "--out", traces]) == 0
    http = {"backend": dict(HTTP, base_url=local_server.url)}
    flagged = _write_json(tmp_path / "http.json", http)
    in_file = _write_json(tmp_path / "http-temperature.json", dict(http, temperature=float(value)))
    out = tmp_path / "out.jsonl"
    for config, flags in ((flagged, ["--temperature", value]), (in_file, [])):
        for argv in (
            ["sample", "--problems", problems, "--backend", config],
            ["label", "--traces", traces, "--problems", problems, "--backend", config],
        ):
            _fails_with_one_config_line(argv + flags + ["--out", str(out)], capsys, "temperature")
    assert local_server.requests == []
    assert not out.exists()


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
        build_backend(PipelineConfig(backend_kind="http"), [])


# The class each backend kind builds; its test hooks are no config options.
BACKEND_CLASSES = {"http": HttpBackend, "oracle-mock": OracleMockBackend, "scripted": ScriptedMockBackend}


@pytest.mark.parametrize("kind", sorted(cli.BACKEND_OPTIONS))
def test_backend_options_are_the_constructor_parameters(kind):
    # An option the constructor takes but the config may not set, or one the
    # config may set but nothing passes on, fails here.
    parameters = set(inspect.signature(BACKEND_CLASSES[kind]).parameters) - {"sleep", "rng"}
    if kind == "oracle-mock":
        parameters.remove("problems")  # the command's own --problems
    assert set(cli.BACKEND_OPTIONS[kind]) == parameters


def test_pipeline_keys_are_the_config_fields():
    # A field no config key or flag can set, or a key no field holds, fails here.
    fields = {f.name for f in dataclasses.fields(cli.PipelineConfig)} - {"backend_kind", "backend_options"}
    assert set(cli.PIPELINE_KEYS) == fields


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


@pytest.mark.parametrize(
    "reply", [None, "The premises leave me unsure where to begin."], ids=["backend error", "no steps"]
)
def test_sample_counts_a_failed_reply_and_writes_no_trace_for_it(workspace, tmp_path, capsys, reply):
    # Two problems: the first gets a sound reply; the second gets reply, or,
    # with no script entry and no default_text, a backend error.
    problems = tmp_path / "two.jsonl"
    write_jsonl(problems, read_jsonl(workspace["problems"])[:2])
    first, second = (
        prompt_key(tuple(build_sampling_prompt(p, PipelineConfig.n_shots).to_messages()))
        for p in load_problems(str(problems))
    )
    script = {first: "Thought: The premises settle it.\nAction: Finish [True]"}
    if reply is not None:
        script[second] = reply
    cfg = _write_json(tmp_path / "scripted.json", {"backend": {"kind": "scripted", "script": script}})
    out = tmp_path / "traces.jsonl"
    capsys.readouterr()
    argv = ["sample", "--problems", str(problems), "--backend", cfg, "--n", "1", "--out", str(out)]
    assert main(argv) == 0
    assert f"wrote 1 trajectories to {out} (1 failures)" in capsys.readouterr().out
    (record,) = read_jsonl(out)
    assert record["problem_id"] == read_jsonl(problems)[0]["id"]


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
        ):
            record = step_label_to_dict(label)
            record["problem_id"] = problem.id
            records.append(record)
    expected = d / "expected.jsonl"
    write_jsonl(expected, records)
    assert {r["hard_label"] for r in records} == {1, -1}
    assert labels.read_bytes() == expected.read_bytes()


def test_sample_and_label_ask_for_the_same_model(workspace, local_server):
    # A chat-completions endpoint that finishes every trace with True.
    reply = {"choices": [{"message": {"content": "Thought: done.\nAction: Finish [True]"}}]}
    local_server.default = lambda body: (200, reply)
    d, problems = workspace["dir"], str(workspace["problems"])
    backend = dict(HTTP, base_url=local_server.url)
    config = _write_json(d / "http.json", {"backend": backend, "n_samples": 2})
    traces = d / "traces.jsonl"
    assert main(["sample", "--problems", problems, "--backend", config, "--n", "1", "--out", str(traces)]) == 0
    sampled = [r["json"]["model"] for r in local_server.requests]
    local_server.requests.clear()
    argv = ["label", "--traces", str(traces), "--problems", problems, "--backend", config]
    assert main(argv + ["--out", str(d / "labels.jsonl")]) == 0
    labelled = [r["json"]["model"] for r in local_server.requests]
    # Neither stage names a model; the backend sends its configured one.
    assert len(sampled) == 4 and labelled
    assert set(sampled) == set(labelled) == {""}
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
    return err


@pytest.mark.parametrize(
    "config, name",
    [
        ({"kind": "oracle-mock", "temperature": 0.3, "n_samples": 3}, "'kind'"),
        ({"backend": {"kind": "oracle-mock"}, "step_threshold": 0.9}, "'step_threshold'"),
        ({"backend": {"kind": "oracle-mock", "sloppyness": 1.0}}, "'sloppyness'"),
        ({"backend": dict(HTTP, timeout=1)}, "'timeout'"),
        ({"backend": dict(HTTP, session=None)}, "'session'"),
        ([{"backend": {"kind": "oracle-mock"}}], "expected a JSON object"),
        ({"temperature": 0.3}, "needs a 'backend' object"),
        ({"backend": {"kind": "scripted"}}, "needs a 'script' object"),
    ],
)
def test_config_setting_nothing_reads_fails(workspace, tmp_path, capsys, config, name):
    cfg = _write_json(tmp_path / "cfg.json", config)
    argv = ["sample", "--problems", str(workspace["problems"]), "--backend", cfg]
    _fails_with_one_config_line(argv + ["--out", str(tmp_path / "t.jsonl")], capsys, name)


def test_config_path_that_cannot_be_read_is_one_config_line(workspace, tmp_path, capsys):
    argv = ["sample", "--problems", str(workspace["problems"]), "--backend", str(tmp_path)]
    _fails_with_one_config_line(argv + ["--out", str(tmp_path / "t.jsonl")], capsys, str(tmp_path))


def test_zero_shots_fails(workspace, tmp_path, capsys):
    # label and export read n_shots from each trace (MALFORMED["traces"]).
    argv = ["sample", "--problems", str(workspace["problems"]), "--backend", str(workspace["config"])]
    _fails_with_one_config_line(argv + ["--n-shots", "0", "--out", str(tmp_path / "t.jsonl")], capsys, "n_shots")


def _prompt_text(problem, n_shots):
    return "\n\n".join(m["content"] for m in build_sampling_prompt(problem, n_shots).to_messages())


def test_label_and_export_prompt_with_the_recorded_n_shots(workspace, tmp_path, monkeypatch):
    problems, d = str(workspace["problems"]), workspace["dir"]
    by_id = {p.id: p for p in load_problems(problems)}
    # Spoiled samples score lower than clean ones, so dpo-pairs finds pairs.
    config = _write_json(d / "sloppy.json", {"backend": {"kind": "oracle-mock", "sloppiness": 0.5}, "n_samples": 2})
    files = {name: str(tmp_path / f"{name}.jsonl") for name in ("traces", "labels", "scores", "pairs")}
    for argv in (
        f"sample --problems {problems} --backend {config} --n 3 --n-shots 2 --out {files['traces']}",
        f"score --traces {files['traces']} --problems {problems} --out {files['scores']}",
        f"dpo-pairs --scores {files['scores']} --threshold 0 --out {files['pairs']}",
    ):
        assert main(argv.split()) == 0, argv
    records = read_jsonl(files["traces"])
    assert {r["seed_meta"]["n_shots"] for r in records} == {2}
    trajs = [trajectory_from_dict(r) for r in records]

    sent = []
    generate = OracleMockBackend.generate
    monkeypatch.setattr(OracleMockBackend, "generate", lambda self, req: sent.append(req.messages) or generate(self, req))
    argv = ["label", "--traces", files["traces"], "--problems", problems, "--backend", config]
    assert main(argv + ["--out", files["labels"]]) == 0
    assert {prompt_key(m) for m in sent} == {
        prompt_key(completion_messages(by_id[t.problem_id], t, n, 2))
        for t in trajs
        for n in range(1, len(t.steps) + 1)
    }
    for kind, inputs in (("prm", ["--labels", files["labels"]]), ("sft", []), ("dpo", ["--pairs", files["pairs"]])):
        out = tmp_path / f"{kind}.jsonl"
        argv = ["export", "--kind", kind, "--traces", files["traces"], "--problems", problems, *inputs]
        assert main(argv + ["--out", str(out)]) == 0, kind
        exported = read_jsonl(out)
        assert exported, kind
        assert {r["prompt"] for r in exported} <= {_prompt_text(p, 2) for p in by_id.values()}, kind

    # A trace that records no n_shots was sampled with the default one.
    unrecorded = tmp_path / "unrecorded.jsonl"
    write_jsonl(unrecorded, [dict(r, seed_meta={"sample_index": 0}) for r in records])
    out = tmp_path / "sft.jsonl"
    assert main(["export", "--kind", "sft", "--traces", str(unrecorded), "--problems", problems, "--out", str(out)]) == 0
    assert {r["prompt"] for r in read_jsonl(out)} == {_prompt_text(p, 1) for p in by_id.values()}
    for command in (["label", "--backend", config], ["export", "--kind", "sft"]):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--traces", files["traces"], "--problems", problems, "--n-shots", "2", "--out", str(out)])
        assert exc.value.code == 2, command


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


def test_gen_problems_label_the_oracle_rejects_is_one_invariant_line(tmp_path, capsys, monkeypatch):
    def wrong(premises, hypothesis):
        verdict = entails(premises, hypothesis)
        return replace(verdict, result=Label.UNCERTAIN)

    monkeypatch.setattr("symtraj.problems.entails", wrong)
    out = tmp_path / "problems.jsonl"
    capsys.readouterr()
    assert main(["gen-problems", "--lengths", "2", "--count", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: grounded problem of length 2") and err.count("\n") == 1, err
    assert not out.exists()


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


def _first_step_kind(kind):
    return lambda rec: dict(rec, steps=[dict(rec["steps"][0], kind=kind)] + rec["steps"][1:])


def _n_shots(value):
    return lambda rec: dict(rec, seed_meta=dict(rec["seed_meta"], n_shots=value))


# Step kinds no step has, by fault; the error line names the kind.
BAD_KINDS = {"kind naming no step kind": "Conclusion", "kind not a string": ["Thought"]}

MALFORMED = {
    "traces": {
        "bad formula": lambda rec: dict(
            rec, steps=[{"kind": "Observation", "text": "Observation: P((", "formulas": ["P(("]}]
        ),
        "answer not a string": lambda rec: dict(rec, final_answer=5),
        "answer naming no label": lambda rec: dict(rec, final_answer="Maybe"),
        "no steps": lambda rec: dict(rec, steps=[]),
        **{fault: _first_step_kind(kind) for fault, kind in BAD_KINDS.items()},
        "seed_meta not an object": lambda rec: dict(rec, seed_meta=[["n_shots", 1]]),
        "n_shots 0": _n_shots(0),
        "n_shots a string": _n_shots("2"),
        "n_shots true": _n_shots(True),
        "line not an object": lambda rec: [rec],
    },
    "scores": {
        "missing key": _without("trajectory_id"),
        "problem id not the id's": lambda rec: dict(rec, problem_id="ghost"),
        "probability 1.5": lambda rec: dict(rec, step_probs=[1.5]),
        "not the step product": lambda rec: dict(rec, trajectory_prob=rec["trajectory_prob"] + 0.1),
        "probability a string or true": lambda rec: dict(rec, step_probs=["0.5", True]),
    },
    "labels": {
        "missing key": _without("hard_label"),
        "matched not a JSON boolean": lambda rec: dict(
            rec, n_success=0, completions=[["True", "false"], ["False", 1]]
        ),
        "matched count not n_success": lambda rec: dict(rec, n_success=0, completions=[["True", True]]),
        "hard_label true": lambda rec: dict(rec, hard_label=True),
        "n_success a float": lambda rec: dict(rec, n_success=float(rec["n_success"])),
        "step_index a string": lambda rec: dict(rec, step_index=str(rec["step_index"])),
    },
    "pairs": {
        "missing key": _without("chosen"),
        "chosen is rejected": lambda rec: dict(rec, rejected=rec["chosen"]),
    },
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
    if artifact == "traces" and fault in BAD_KINDS:
        assert f"{BAD_KINDS[fault]!r} is not a valid StepKind" in err, err
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


@pytest.mark.parametrize("stage", [stage for stage, argv in READERS.items() if "{problems}" in argv])
def test_predicate_at_two_arities_is_one_invariant_line(artifacts, tmp_path, capsys, stage):
    bad = tmp_path / "bad-problems.jsonl"
    record = read_jsonl(artifacts["problems"])[0]
    premises = [{"nl": "a", "fol": "P(a)"}, {"nl": "b", "fol": "P(a, b)"}]
    write_jsonl(bad, [dict(record, source="custom", premises=premises)])
    capsys.readouterr()
    assert main(_argv(stage, dict(artifacts, problems=str(bad), out=str(tmp_path / "out.jsonl")))) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invariant violation: {bad}: record 0: ") and err.count("\n") == 1, err
    assert "predicate 'P' used with arity 1 and 2" in err


def test_duplicate_problem_ids_are_one_invariant_line(artifacts, tmp_path, capsys):
    # gen-problems names problems by length and index whatever the seed, so
    # two of its files joined share every id; each trace would be joined to
    # the last problem of its id.
    parts = []
    for seed in ("1", "2"):
        out = tmp_path / f"problems-{seed}.jsonl"
        assert main(["gen-problems", "--lengths", "3", "--count", "2", "--seed", seed, "--out", str(out)]) == 0
        parts.append(out.read_text(encoding="utf-8"))
    first, second = (read_jsonl(tmp_path / f"problems-{seed}.jsonl") for seed in ("1", "2"))
    assert first != second
    joined = tmp_path / "joined.jsonl"
    joined.write_text("".join(parts), encoding="utf-8")
    repeated = second[0]["id"]
    earlier = [r["id"] for r in first].index(repeated)
    for stage in (stage for stage, argv in READERS.items() if "{problems}" in argv):
        capsys.readouterr()
        assert main(_argv(stage, dict(artifacts, problems=str(joined), out=str(tmp_path / "out.jsonl")))) == 2
        err = capsys.readouterr().err
        assert err == (
            f"invariant violation: {joined}: record {len(first)}: "
            f"problem id {repeated!r} repeats record {earlier}\n"
        ), (stage, err)
        assert not (tmp_path / "out.jsonl").exists()


def test_remote_scorer_skips_a_trace_whose_reply_is_no_probability(
    artifacts, tmp_path, local_server, caplog, monkeypatch
):
    traces = read_jsonl(artifacts["traces"])
    reply = lambda probs: (200, {"probs": probs})  # noqa: E731
    local_server.default = lambda body: reply([0.5] * len(body["steps"]))
    # Record the backoff sleeps instead of sleeping through them.
    sleeps = []
    monkeypatch.setattr(cli, "RemoteScorer", functools.partial(RemoteScorer, sleep=sleeps.append))
    out = tmp_path / "scores.jsonl"
    argv = _argv("score", dict(artifacts, out=str(out))) + ["--remote-url", local_server.url]
    # The first trace gets an answer that is not a probability, or only 503s;
    # the rest get 0.5s.
    for script, warning in (
        ([reply(["x"] * len(traces[0]["steps"]))], "not a probability"),
        ([(503, {})] * MAX_ATTEMPTS, f"scorer request failed: giving up after {MAX_ATTEMPTS} attempts"),
    ):
        local_server.script = script
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            assert main(argv) == 0
        assert local_server.script == []
        assert len(read_jsonl(out)) == len(traces) - 1
        assert warning in caplog.text
        # The warning names the dropped trace, not only its problem.
        assert f"scoring {trajectory_from_dict(traces[0]).trajectory_id} failed" in caplog.text
    assert len(sleeps) == MAX_ATTEMPTS - 1


@pytest.fixture()
def twin_traces(artifacts, tmp_path):
    """The traces file with every record twice, the twins apart."""
    records = read_jsonl(artifacts["traces"])
    path = tmp_path / "twin-traces.jsonl"
    write_jsonl(path, records + records)
    return str(path)


def test_verify_and_score_write_each_twin_what_it_gets_alone(artifacts, twin_traces, tmp_path, capsys):
    problems = {p.id: p for p in load_problems(artifacts["problems"])}
    trajs = [trajectory_from_dict(r) for r in read_jsonl(twin_traces)]
    files = dict(artifacts, traces=twin_traces, out=str(tmp_path / "out.jsonl"))
    n = len(trajs)

    capsys.readouterr()
    assert main(_argv("verify", files)) == 0
    assert capsys.readouterr().out.endswith(f"({n // 2} distinct of {n} trajectories)\n")
    verdicts = [
        {
            "problem_id": traj.problem_id,
            "trajectory_id": traj.trajectory_id,
            "step_index": i,
            "status": v.status.value,
            "rule": v.rule.rule.value if v.rule else None,
            "note": v.note,
        }
        for traj in trajs
        for i, v in enumerate(verify_trajectory(problems[traj.problem_id], traj))
    ]
    assert read_jsonl(files["out"]) == verdicts

    assert main(_argv("score", files)) == 0
    assert capsys.readouterr().out.endswith(f"({n // 2} distinct of {n} trajectories)\n")
    scores = [
        json.loads(json.dumps(prm_score_to_dict(score_trajectory(problems[t.problem_id], t, SymbolicScorer()))))
        for t in trajs
    ]
    assert read_jsonl(files["out"]) == scores


def test_label_writes_each_twin_what_it_gets_alone(artifacts, twin_traces, tmp_path, capsys):
    problems = load_problems(artifacts["problems"])
    by_id = {p.id: p for p in problems}
    trajs = [trajectory_from_dict(r) for r in read_jsonl(twin_traces)]
    files = dict(artifacts, traces=twin_traces, out=str(tmp_path / "out.jsonl"))
    n = len(trajs)

    capsys.readouterr()
    assert main(_argv("label", files)) == 0
    assert capsys.readouterr().out.endswith(f"({n // 2} distinct of {n} trajectories)\n")
    cfg = load_config(artifacts["config"])
    options = dict(
        n_samples=cfg.n_samples,
        k=cfg.k,
        temperature=cfg.temperature,
        max_tokens=cfg.max_tokens,
        parallelism=cfg.parallelism,
    )
    labels = [
        json.loads(json.dumps({**step_label_to_dict(label), "problem_id": t.problem_id}))
        for t in trajs
        for label in mc_label(by_id[t.problem_id], t, build_backend(cfg, problems), **options)
    ]
    assert read_jsonl(files["out"]) == labels


def test_label_sends_one_batch_for_traces_that_share_prefixes(artifacts, twin_traces, tmp_path, monkeypatch):
    trajs = {t.trajectory_id: t for t in map(trajectory_from_dict, read_jsonl(twin_traces))}.values()
    prefixes = [(t.problem_id, t.steps[:n]) for t in trajs for n in range(1, len(t.steps) + 1)]
    assert len(set(prefixes)) < len(prefixes)  # distinct traces share prefixes, besides the twins
    batches = []
    generate_batch = supervision.generate_batch
    monkeypatch.setattr(supervision, "generate_batch", lambda *a: batches.append(a) or generate_batch(*a))
    assert main(_argv("label", dict(artifacts, traces=twin_traces, out=str(tmp_path / "out.jsonl")))) == 0
    assert len(batches) == 1


@pytest.mark.parametrize("stage", ["verify", "label", "score"])
def test_each_record_id_is_digested_once(artifacts, twin_traces, tmp_path, monkeypatch, stage):
    keys = []
    digest = trajectory.make_trajectory_id
    monkeypatch.setattr(trajectory, "make_trajectory_id", lambda *key: keys.append(key) or digest(*key))
    assert main(_argv(stage, dict(artifacts, traces=twin_traces, out=str(tmp_path / "out.jsonl")))) == 0
    assert len(keys) == len(read_jsonl(twin_traces))


def test_remote_scorer_sends_twins_one_request_and_skips_each_on_failure(
    artifacts, twin_traces, tmp_path, local_server, caplog, monkeypatch
):
    trajs = [trajectory_from_dict(r) for r in read_jsonl(twin_traces)]
    local_server.default = lambda body: (200, {"probs": [0.5] * len(body["steps"])})
    sleeps = []
    monkeypatch.setattr(cli, "RemoteScorer", functools.partial(RemoteScorer, sleep=sleeps.append))
    out = tmp_path / "scores.jsonl"
    files = dict(artifacts, traces=twin_traces, out=str(out))
    argv = _argv("score", files) + ["--remote-url", local_server.url]
    # The first trace's one request meets only 503s; every other trace is scored.
    local_server.script = [(503, {})] * MAX_ATTEMPTS
    with caplog.at_level(logging.WARNING):
        assert main(argv) == 0
    assert local_server.script == []
    assert len(local_server.requests) == MAX_ATTEMPTS + len(trajs) // 2 - 1
    assert len(sleeps) == MAX_ATTEMPTS - 1
    # Both twins are skipped, each with a warning of its own.
    failed = trajs[0].trajectory_id
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert [w for w in warnings if w.startswith(f"scoring {failed} failed")] == [
        f"scoring {failed} failed: scorer request failed: giving up after {MAX_ATTEMPTS} attempts: HTTP 503"
    ] * 2
    assert [r["trajectory_id"] for r in read_jsonl(out)] == [
        t.trajectory_id for t in trajs if t.trajectory_id != failed
    ]


@pytest.mark.parametrize(
    "stage, flags",
    [
        ("export-sft", ["--labels", "{labels}"]),
        ("export-sft", ["--pairs", "{pairs}"]),
        ("export-prm", ["--pairs", "{pairs}"]),
        ("export-dpo", ["--labels", "{labels}"]),
    ],
    ids=["sft-labels", "sft-pairs", "prm-pairs", "dpo-labels"],
)
def test_a_flag_the_chosen_mode_does_not_read_is_a_config_error(artifacts, tmp_path, capsys, stage, flags):
    out = tmp_path / "out.jsonl"
    argv = _argv(stage, dict(artifacts, out=str(out))) + [flag.format(**artifacts) for flag in flags]
    _fails_with_one_config_line(argv, capsys, flags[0])
    assert not out.exists()


def test_remote_url_that_is_not_http_is_a_config_error(artifacts, tmp_path, capsys):
    argv = _argv("score", dict(artifacts, out=str(tmp_path / "out.jsonl")))
    _fails_with_one_config_line(argv + ["--remote-url", "scorer:8000"], capsys, "--remote-url")


def test_http_base_url_that_is_not_http_is_a_config_error(workspace, tmp_path, capsys):
    cfg = _write_json(tmp_path / "cfg.json", {"backend": dict(HTTP, base_url="localhost:8000/v1")})
    argv = ["sample", "--problems", str(workspace["problems"]), "--backend", cfg]
    _fails_with_one_config_line(argv + ["--out", str(tmp_path / "t.jsonl")], capsys, "localhost:8000/v1")


def test_https_proxy_is_a_config_error(workspace, tmp_path, capsys, monkeypatch):
    # The client speaks plain HTTP to a proxy, also to tunnel to an https:// base_url.
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    monkeypatch.setenv("HTTPS_PROXY", "https://127.0.0.1:1")
    cfg = _write_json(tmp_path / "cfg.json", {"backend": dict(HTTP, base_url="https://127.0.0.1:2/v1")})
    argv = ["sample", "--problems", str(workspace["problems"]), "--backend", cfg]
    err = _fails_with_one_config_line(argv + ["--out", str(tmp_path / "t.jsonl")], capsys, "'https://127.0.0.1:1'")
    assert "only http:// proxies are supported" in err


@pytest.mark.parametrize("command, flag", [("gen-problems", "--count"), ("sample", "--n")])
def test_count_below_one_is_a_config_error(workspace, tmp_path, capsys, command, flag):
    argv = {
        "gen-problems": ["gen-problems", "--lengths", "3"],
        "sample": ["sample", "--problems", str(workspace["problems"]), "--backend", str(workspace["config"])],
    }[command]
    out = tmp_path / "out.jsonl"
    _fails_with_one_config_line(argv + [flag, "0", "--out", str(out)], capsys, flag)
    assert not out.exists()


@pytest.mark.parametrize("lengths", ["a,b", "0"])
def test_bad_lengths_is_a_config_error(tmp_path, capsys, lengths):
    out = tmp_path / "out.jsonl"
    _fails_with_one_config_line(["gen-problems", "--lengths", lengths, "--out", str(out)], capsys, "--lengths")
    assert not out.exists()


@pytest.mark.parametrize("stage, flag", [("select", "--step-threshold"), ("dpo-pairs", "--threshold")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_threshold_is_a_config_error(artifacts, tmp_path, capsys, stage, flag, value):
    out = tmp_path / "out.jsonl"
    argv = _argv(stage, dict(artifacts, out=str(out))) + [f"{flag}={value}"]
    _fails_with_one_config_line(argv, capsys, flag)
    assert not out.exists()


def test_every_flag_the_readme_names_is_accepted(capsys):
    flag = re.compile(r"--[a-z][a-z0-9-]*")
    readme = Path(__file__).resolve().parents[1] / "README.md"
    named = set(flag.findall(readme.read_text(encoding="utf-8")))
    parser = cli.build_parser()
    commands = re.search(r"\{([a-z,-]+)\}", parser.format_help()).group(1).split(",")
    accepted = set()
    for command in commands:
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        accepted.update(flag.findall(capsys.readouterr().out))
    assert "verify" in commands and "--out" in named
    assert named <= accepted, sorted(named - accepted)


def _parse(parser, argv, capsys):
    """What parsing argv gives: the namespace or exit code, and what was printed."""
    capsys.readouterr()
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr()


def test_main_reuses_one_parser_that_parses_as_a_fresh_one(artifacts, tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    export = ["export", "--kind", "sft", "--traces", artifacts["traces"], "--problems", artifacts["problems"]]
    out = str(tmp_path / "sft.jsonl")
    sequence = [
        (["export", "--kind", "sft"], 2),  # --traces, --problems and --out are required
        (["--help"], 0),
        (export + ["--labels", artifacts["labels"], "--out", out], 1),  # sft reads no labels
        (export + ["--out", out], 0),
    ]
    for argv, code in sequence:
        fresh = _parse(cli.build_parser.__wrapped__(), argv, capsys)
        assert _parse(cli.build_parser(), argv, capsys) == fresh, argv
        capsys.readouterr()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        assert rc == code, argv
        if isinstance(fresh[0], int):
            assert capsys.readouterr() == fresh[1], argv
    assert Path(out).exists()


def _run_command(monkeypatch, command):
    """main() with command standing in for the parsed subcommand's func."""
    parser = Namespace(parse_args=lambda argv: Namespace(func=command))
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    return main([])


def test_a_command_runs_with_only_generation_0s_threshold_raised(monkeypatch):
    seen = []

    def command(args):
        seen.append(gc.get_threshold())
        return 0

    caller = gc.get_threshold()
    assert _run_command(monkeypatch, command) == 0
    assert seen == [(cli.COMMAND_GC_THRESHOLD, *caller[1:])]


def _config_error(args):
    raise ConfigError("bad key")


def _invariant_violation(args):
    raise InvariantViolation("oracle disagrees")


def _crash(args):
    raise RuntimeError("crash")


@pytest.mark.parametrize(
    "command, code",
    [(lambda args: 0, 0), (_config_error, 1), (_invariant_violation, 2), (_crash, None)],
    ids=["success", "config-error", "invariant-violation", "exception"],
)
def test_main_restores_the_callers_gc_thresholds_on_every_exit(monkeypatch, capsys, command, code):
    saved = gc.get_threshold()
    gc.set_threshold(321, 7, 9)
    try:
        if code is None:
            with pytest.raises(RuntimeError, match="crash"):
                _run_command(monkeypatch, command)
        else:
            assert _run_command(monkeypatch, command) == code
        assert gc.get_threshold() == (321, 7, 9)
    finally:
        gc.set_threshold(*saved)


@pytest.mark.parametrize("stage", READERS)
def test_a_command_leaves_no_cyclic_garbage(artifacts, tmp_path, capsys, stage):
    # The premise of COMMAND_GC_THRESHOLD: a command's objects hold no
    # reference cycles. The first call may leave one-time set-up behind.
    argv = _argv(stage, dict(artifacts, out=str(tmp_path / "out.jsonl")))
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def _as_json(value):
    return json.loads(json.dumps(value))


def test_records_read_back_to_what_was_written(artifacts):
    traces, labels, scores = (read_jsonl(artifacts[name]) for name in ("traces", "labels", "scores"))
    assert traces and labels and scores
    for rec in traces:
        traj = trajectory_from_dict(rec)
        assert all(type(step.formulas) is tuple for step in traj.steps)
        assert _as_json(trajectory_to_dict(traj)) == rec
    for rec in labels:
        label = step_label_from_dict(rec)
        assert type(label.completions) is tuple and label.completions
        assert all(type(c) is tuple and len(c) == 2 for c in label.completions)
        # label writes each label's problem id beside the StepLabel fields.
        assert {**_as_json(step_label_to_dict(label)), "problem_id": rec["problem_id"]} == rec
    for rec in scores:
        assert _as_json(prm_score_to_dict(prm_score_from_dict(rec))) == rec


def test_readme_module_map_lists_each_module_once():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    listed = re.findall(r"^\| `symtraj\.(\w+)` \|", readme.read_text(encoding="utf-8"), re.MULTILINE)
    modules = [p.stem for p in Path(cli.__file__).parent.glob("*.py") if p.stem != "__init__"]
    assert sorted(listed) == sorted(modules)


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


def test_twin_scores_give_each_pair_and_dpo_record_once(artifacts, tmp_path):
    # score writes one record per trace record, so twins repeat (id, prob).
    doubled = tmp_path / "doubled-scores.jsonl"
    write_jsonl(doubled, [rec for rec in read_jsonl(artifacts["scores"]) for _ in range(2)])
    pairs = tmp_path / "pairs.jsonl"
    assert main(["dpo-pairs", "--scores", str(doubled), "--threshold", "0", "--out", str(pairs)]) == 0
    assert pairs.read_bytes() == Path(artifacts["pairs"]).read_bytes() != b""
    dpo = tmp_path / "dpo.jsonl"
    assert main(_argv("export-dpo", dict(artifacts, pairs=str(pairs), out=str(dpo)))) == 0
    records = dpo.read_text(encoding="utf-8").splitlines()
    assert len(records) == len(set(records)) == len(read_jsonl(pairs))


def _one_error_line(argv, capsys, message, out):
    capsys.readouterr()
    assert main(argv) == 1, argv[0]
    err = capsys.readouterr().err
    assert err == f"error: {message}\n", err
    assert not Path(out).exists()


def _twin_message(tid):
    return f"trajectory id {tid!r} comes twice with different steps, final answers or n_shots"


@pytest.mark.parametrize("stage", TRACE_READERS)
def test_every_trace_reader_refuses_a_twin_with_other_steps(artifacts, tmp_path, capsys, stage):
    # One Observation spoiled, raw_text kept: the same id over other steps.
    traces = read_jsonl(artifacts["traces"])
    record = traces[0]
    i = next(i for i, step in enumerate(record["steps"]) if step["kind"] == "Observation")
    spoiled_step = {"kind": "Observation", "text": "Observation: Mystery(zeta)", "formulas": ["Mystery(zeta)"]}
    spoiled = dict(record, steps=record["steps"][:i] + [spoiled_step] + record["steps"][i + 1 :])
    message = _twin_message(trajectory_from_dict(record).trajectory_id)
    path, out = tmp_path / "spoiled-twin-traces.jsonl", tmp_path / "out.jsonl"
    for order in ([spoiled] + traces, traces + [spoiled]):
        write_jsonl(path, order)
        _one_error_line(_argv(stage, dict(artifacts, traces=str(path), out=str(out))), capsys, message, out)


@pytest.mark.parametrize("stage", TRACE_READERS)
def test_every_trace_reader_refuses_a_record_without_raw_text(artifacts, tmp_path, capsys, stage):
    # A trajectory id digests raw_text, so without it a record names no trace.
    traces = read_jsonl(artifacts["traces"])
    path, out = tmp_path / "bare-traces.jsonl", tmp_path / "out.jsonl"
    write_jsonl(path, traces[:1] + [_without("raw_text")(traces[1])])
    message = f"{path}:2: missing key 'raw_text'"
    _one_error_line(_argv(stage, dict(artifacts, traces=str(path), out=str(out))), capsys, message, out)


def test_label_refuses_twins_sampled_with_other_n_shots(workspace, tmp_path, capsys):
    # The mock writes one text whatever the prompt's demonstrations, so both
    # samples of a problem share one id; label prompts each with its own n_shots.
    problems, config = str(workspace["problems"]), str(workspace["config"])
    lines = []
    for shots in ([], ["--n-shots", "2"]):
        out = tmp_path / f"traces{len(shots)}.jsonl"
        assert main(["sample", "--problems", problems, "--backend", config, "--n", "1", *shots, "--out", str(out)]) == 0
        lines += out.read_text(encoding="utf-8").splitlines(keepends=True)
    traces, out = tmp_path / "traces.jsonl", tmp_path / "labels.jsonl"
    traces.write_text("".join(lines), encoding="utf-8")
    message = _twin_message(trajectory_from_dict(json.loads(lines[0])).trajectory_id)
    argv = ["label", "--traces", str(traces), "--problems", problems, "--backend", config, "--out", str(out)]
    _one_error_line(argv, capsys, message, out)


@pytest.mark.parametrize("stage", ["dpo-pairs", "select"])
def test_a_second_score_for_one_id_is_one_error_line(artifacts, tmp_path, capsys, stage):
    scores = read_jsonl(artifacts["scores"])
    record = scores[0]
    other = dict(_without("trajectory_prob")(record), step_probs=[0.5] * len(record["step_probs"]))
    path = tmp_path / "two-scores.jsonl"
    write_jsonl(path, scores + [other])
    out = tmp_path / "out.jsonl"
    message = f"trajectory id {record['trajectory_id']!r} has two different scores"
    _one_error_line(_argv(stage, dict(artifacts, scores=str(path), out=str(out))), capsys, message, out)


@pytest.mark.parametrize("stage", ["select", "export-prm"])
def test_a_second_label_for_one_step_is_one_error_line(artifacts, tmp_path, capsys, stage):
    labels = read_jsonl(artifacts["labels"])
    record = labels[1]
    path = tmp_path / "two-labels.jsonl"
    write_jsonl(path, [dict(record, hard_label=-record["hard_label"])] + labels)
    out = tmp_path / "out.jsonl"
    message = (
        f"trajectory id {record['trajectory_id']!r} has two different hard labels"
        f" for step {record['step_index']}"
    )
    _one_error_line(_argv(stage, dict(artifacts, labels=str(path), out=str(out))), capsys, message, out)


FOLIO_RECORD = {
    "example_id": 17,
    "premises": ["All dogs bark.", "Rex is a dog."],
    "premises-FOL": ["forall x (Dog(x) -> Bark(x))", "Dog(rex)"],
    "conclusion": "Rex barks.",
    "conclusion-FOL": "Bark(rex)",
    "label": "True",
}
FOLIO_TRACE = """Thought: Translate the context into first-order logic.
Action: Translate each context statement into a logic premise
Observation:
∀x (Dog(x) → Bark(x))
Dog(rex)
Action: Apply modus ponens to derive the next fact
Observation: {claim}
Action: Finish [True]"""


def test_a_folio_file_runs_through_every_command(tmp_path, capsys):
    names = ("problems", "traces", "verdicts", "labels", "scores", "selected", "pairs", "prm", "sft", "dpo")
    files = {name: str(tmp_path / f"{name}.jsonl") for name in names}
    write_jsonl(files["problems"], [FOLIO_RECORD])
    # A scripted backend gives every prompt one reply: a sound trace, then
    # one whose last fact the premises do not give.
    traces = []
    for claim in ("Bark(rex)", "Mystery(zeta)"):
        backend = {"kind": "scripted", "script": {}, "default_text": FOLIO_TRACE.format(claim=claim)}
        files["config"] = _write_json(tmp_path / "scripted.json", {"backend": backend, "n_samples": 2})
        argv = f"sample --problems {files['problems']} --backend {files['config']} --n 1 --out {files['traces']}"
        assert main(argv.split()) == 0
        traces += read_jsonl(files["traces"])
    write_jsonl(files["traces"], traces)
    for argv in (
        "verify --traces {traces} --problems {problems} --out {verdicts}",
        "label --traces {traces} --problems {problems} --backend {config} --out {labels}",
        "score --traces {traces} --problems {problems} --out {scores}",
        "select --traces {traces} --problems {problems} --scores {scores} --labels {labels} --out {selected}",
        "dpo-pairs --scores {scores} --threshold 0 --out {pairs}",
        "export --kind prm --traces {traces} --problems {problems} --labels {labels} --out {prm}",
        "export --kind sft --traces {selected} --problems {problems} --out {sft}",
        "export --kind dpo --traces {traces} --problems {problems} --pairs {pairs} --out {dpo}",
    ):
        assert main(argv.format(**files).split()) == 0, argv
    assert {r["problem_id"] for r in read_jsonl(files["verdicts"])} == {"17"}
    assert [r["raw_text"] for r in read_jsonl(files["selected"])] == [traces[0]["raw_text"]]
    (sft,) = read_jsonl(files["sft"])
    assert "Rex barks." in sft["prompt"] and "true, false, or uncertain" in sft["prompt"]
    assert len(read_jsonl(files["prm"])) == 2
    assert [(r["chosen"], r["rejected"]) for r in read_jsonl(files["dpo"])] == [
        (traces[0]["raw_text"], traces[1]["raw_text"])
    ]
    capsys.readouterr()
    assert main(["evaluate", "--traces", files["traces"], "--problems", files["problems"]]) == 0
    assert "accuracy: 1.0000 (2/2)" in capsys.readouterr().out


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


def test_verify_trajectory_with_kept_groundings_equals_fresh_oracle_calls(artifacts, monkeypatch):
    # A trajectory's Context keeps one grounding across its oracle calls;
    # every step must get the verdict that fresh oracle calls give it.
    problems = {p.id: p for p in load_problems(artifacts["problems"])}
    items = [(problems[t.problem_id], t) for t in map(trajectory_from_dict, read_jsonl(artifacts["traces"]))]
    held = []

    def kept(premises, claimed, grounding):
        held.append(grounding.grounder is not None)
        return entails(premises, claimed, grounding=grounding)

    monkeypatch.setattr(rules, "entails", kept)
    with_kept = [verify_trajectory(problem, traj) for problem, traj in items]
    monkeypatch.setattr(rules, "entails", lambda premises, claimed, grounding: entails(premises, claimed))
    assert [verify_trajectory(problem, traj) for problem, traj in items] == with_kept
    assert any(held)
