"""Command-line pipeline: generate problems, sample traces, label, score, select.

Every command reads and writes line-delimited JSON. Exit codes: 0 success,
1 configuration or IO error, 2 invariant violation during generation or
loading.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import logging
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .fol import clear_parse_cache
from .jsonl import FormatError, read_jsonl, write_jsonl
from .llm import (
    DEFAULT_MAX_TOKENS,
    DEFAULT_PARALLELISM,
    DEFAULT_TEMPERATURE,
    BackendUnavailable,
    GenerationRequest,
    HttpBackend,
    ScriptedMockBackend,
    check_max_prompt_chars,
    check_retry_limits,
    generate_batch,
)
from .mock import OracleMockBackend, check_mock_options
from .problems import (
    InvariantViolation,
    Problem,
    generate_logicasker,
    load_problems,
    save_problems,
    split_even,
)
from .rules import verify_trajectory
from .supervision import (
    DEFAULT_DPO_THRESHOLD,
    DEFAULT_K,
    DEFAULT_N_SAMPLES,
    DEFAULT_STEP_THRESHOLD,
    RemoteScorer,
    ScorerUnavailable,
    SymbolicScorer,
    build_dpo_pairs,
    export_dpo_dataset,
    export_prm_dataset,
    export_sft_dataset,
    judge_distinct,
    mc_label,  # noqa: F401  (perfbench/layers.py wraps cli.mc_label)
    mc_labeler,
    preference_pair_from_dict,
    preference_pair_to_dict,
    prm_score_from_dict,
    prm_score_to_dict,
    score_trajectory,
    select_trajectories,
    step_label_from_dict,
    step_label_to_dict,
    with_problems,
)
from .trajectory import (
    DEFAULT_N_SHOTS,
    EmptyTrajectory,
    build_sampling_prompt,
    parse_trajectory,
    trajectory_from_dict,
    trajectory_to_dict,
)

logger = logging.getLogger(__name__)

# The options a config file may give each backend kind, and its pipeline
# keys, with the JSON types each accepts. The options' defaults live in the
# backend constructors; the constructors' test hooks are not listed.
_INT, _NUMBER, _INT_OR_NULL, _STR_OR_NULL = (int,), (int, float), (int, type(None)), (str, type(None))
BACKEND_OPTIONS = {
    "http": {"base_url": (str,), "model": (str,), "api_key_env": _STR_OR_NULL, "timeout_s": _NUMBER,
             "max_retries": _INT, "max_prompt_chars": _INT_OR_NULL},
    "oracle-mock": {"seed": _INT, "accuracy": _NUMBER, "sloppiness": _NUMBER,
                    "max_prompt_chars": _INT_OR_NULL},
    "scripted": {"script": (dict,), "default_text": _STR_OR_NULL, "max_prompt_chars": _INT_OR_NULL},
}
PIPELINE_KEYS = {"parallelism": _INT, "temperature": _NUMBER, "max_tokens": _INT, "n_shots": _INT,
                 "seed": _INT, "n_samples": _INT, "k": _INT}


class ConfigError(ValueError):
    """The configuration file or flags do not describe a runnable pipeline."""


@dataclass(frozen=True)
class PipelineConfig:
    backend_kind: str = "http"
    backend_options: dict = field(default_factory=dict)
    parallelism: int = DEFAULT_PARALLELISM
    temperature: float = DEFAULT_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS
    n_shots: int = DEFAULT_N_SHOTS
    seed: int = 0
    n_samples: int = DEFAULT_N_SAMPLES
    k: int = DEFAULT_K

    def __post_init__(self):
        if self.backend_kind not in BACKEND_OPTIONS:
            raise ConfigError(f"unknown backend kind {self.backend_kind!r}")
        unknown = sorted(set(self.backend_options) - set(BACKEND_OPTIONS[self.backend_kind]))
        if unknown:
            names = ", ".join(map(repr, unknown))
            raise ConfigError(f"unknown {self.backend_kind} backend option(s) {names}")
        opts, option_types = self.backend_options, BACKEND_OPTIONS[self.backend_kind]
        settings = [(f"{self.backend_kind} backend option", n, opts[n], option_types[n]) for n in opts]
        settings += [("pipeline key", n, getattr(self, n), types) for n, types in PIPELINE_KEYS.items()]
        for what, name, value, types in settings:
            # JSON true and false are not numbers, although bool subclasses int.
            if not isinstance(value, types) or isinstance(value, bool):
                wanted = " or ".join("null" if t is type(None) else t.__name__ for t in types)
                raise ConfigError(f"{what} {name!r} must be {wanted}, got {value!r}")
        # Only the options the file gives are checked: the type check above
        # refuses null for these, so None here is an option not given.
        try:
            check_max_prompt_chars(opts.get("max_prompt_chars"))
            if self.backend_kind == "http":
                check_retry_limits(opts.get("max_retries"), opts.get("timeout_s"))
            elif self.backend_kind == "oracle-mock":
                check_mock_options(opts.get("accuracy"), opts.get("sloppiness"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not 1 <= self.k <= self.n_samples:
            raise ConfigError(f"need 1 <= k <= n_samples, got k={self.k} n_samples={self.n_samples}")
        for name in ("parallelism", "max_tokens", "n_shots"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} {getattr(self, name)} must be at least 1")
        if not 0 <= self.temperature < math.inf:
            raise ConfigError(f"temperature {self.temperature} must be finite and at least 0")


def load_config(path: str) -> PipelineConfig:
    """Config file -> PipelineConfig; flags overlay later via replace().

    The one file shape is {"backend": {"kind": ..., <options>}, <pipeline keys>}.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    unknown = sorted(set(data) - {"backend", *PIPELINE_KEYS})
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise ConfigError(f"{path}: unknown key(s) {names}; backend options go in 'backend'")
    if not isinstance(data.get("backend"), dict):
        raise ConfigError(f"{path}: needs a 'backend' object")
    options = dict(data["backend"])
    kind = options.pop("kind", PipelineConfig.backend_kind)
    knobs = {key: data[key] for key in PIPELINE_KEYS if key in data}
    return PipelineConfig(backend_kind=kind, backend_options=options, **knobs)


def _overlay_flags(cfg: PipelineConfig, args) -> PipelineConfig:
    updates = {}
    for key in PIPELINE_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            updates[key] = value
    return replace(cfg, **updates) if updates else cfg


def build_backend(cfg: PipelineConfig, problems: list[Problem]):
    opts = dict(cfg.backend_options)
    if cfg.backend_kind == "http":
        if not opts.get("base_url"):
            raise ConfigError("http backend needs a base_url")
        try:
            return HttpBackend(**opts)
        except ValueError as exc:  # a base_url or proxy this client cannot use
            raise ConfigError(str(exc)) from None
    if cfg.backend_kind == "oracle-mock":
        return OracleMockBackend(problems, **opts)
    if not isinstance(opts.get("script"), dict):
        raise ConfigError("scripted backend needs a 'script' object")
    return ScriptedMockBackend(**opts)


def _close(resource) -> None:
    """Close a backend or scorer that holds connections; the in-process ones hold none."""
    close = getattr(resource, "close", None)
    if close is not None:
        close()


# ---------------------------------------------------------------------------
# Flag parsing
# ---------------------------------------------------------------------------


def _parse_lengths(text: str) -> list[int]:
    try:
        lengths = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --lengths {text!r}: {exc}") from exc
    if not lengths or any(n < 1 for n in lengths):
        raise ConfigError(f"bad --lengths {text!r}: need positive integers")
    return lengths


def _check_count(flag: str, value: int) -> None:
    if value < 1:
        raise ConfigError(f"{flag} must be at least 1, got {value}")


def _check_finite(flag: str, value: float) -> None:
    # Against a NaN or infinite threshold every score compares alike: none, or all, clear it.
    if not math.isfinite(value):
        raise ConfigError(f"{flag} must be a finite number, got {value}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _judge_traces(items, judge, records_of, out, what: str) -> None:
    """Judge each distinct trace of the (problem, trajectory) items once
    (judge_distinct), write records_of(problem, trajectory, result) for every
    item to out, in order, and report the counts."""
    results, n_distinct = judge_distinct(items, judge)
    records = [rec for (problem, traj), result in zip(items, results) for rec in records_of(problem, traj, result)]
    write_jsonl(out, records)
    print(f"wrote {len(records)} {what} to {out} ({n_distinct} distinct of {len(items)} trajectories)")


def cmd_gen_problems(args) -> int:
    lengths = _parse_lengths(args.lengths)
    _check_count("--count", args.count)
    problems = generate_logicasker(args.count, lengths, seed=args.seed)
    if args.no_split:
        ordered = problems
        counts = ""
    else:
        train, dev, test = split_even(problems, seed=args.seed)
        ordered = train + dev + test
        counts = f" (train/dev/test = {len(train)}/{len(dev)}/{len(test)})"
    save_problems(args.out, ordered)
    print(f"wrote {len(ordered)} problems to {args.out}{counts}")
    return 0


def cmd_sample(args) -> int:
    _check_count("--n", args.n)
    cfg = _overlay_flags(load_config(args.backend), args)
    problems = load_problems(args.problems)
    backend = build_backend(cfg, problems)
    # The backend fills in its configured model; this name only labels traces.
    generator = cfg.backend_options.get("model", cfg.backend_kind)
    requests_out = []
    owners = []
    for problem in problems:
        messages = tuple(build_sampling_prompt(problem, cfg.n_shots).to_messages())
        for i in range(args.n):
            requests_out.append(
                GenerationRequest(
                    messages=messages,
                    temperature=cfg.temperature,
                    max_tokens=cfg.max_tokens,
                    seed=cfg.seed + i,
                )
            )
            owners.append((problem, i))
    try:
        responses = generate_batch(backend, requests_out, cfg.parallelism)
    finally:
        _close(backend)
    records = []
    failures = 0
    answers: dict[str, int] = {}
    for (problem, i), resp in zip(owners, responses):
        if resp.error:
            logger.warning("%s sample %d failed: %s", problem.id, i, resp.error)
            failures += 1
            continue
        try:
            traj = parse_trajectory(
                resp.text,
                problem_id=problem.id,
                generator=generator,
                seed_meta={
                    "temperature": cfg.temperature,
                    "sample_index": i,
                    "seed": cfg.seed + i,
                    "n_shots": cfg.n_shots,
                },
            )
        except EmptyTrajectory:
            logger.warning("%s sample %d: no parseable steps", problem.id, i)
            failures += 1
            continue
        answers[str(traj.final_answer)] = answers.get(str(traj.final_answer), 0) + 1
        records.append(trajectory_to_dict(traj))
    write_jsonl(args.out, records)
    print(f"wrote {len(records)} trajectories to {args.out} ({failures} failures)")
    print(f"answers: {json.dumps(answers, sort_keys=True)}")
    return 0


def _label_records(problem, traj, labels) -> list[dict]:
    return [{**step_label_to_dict(label), "problem_id": problem.id} for label in labels]


def cmd_label(args) -> int:
    cfg = _overlay_flags(load_config(args.backend), args)
    problems = load_problems(args.problems)
    items = with_problems(read_jsonl(args.traces, trajectory_from_dict), problems)
    backend = build_backend(cfg, problems)
    try:
        labeler = mc_labeler(
            backend,
            n_samples=cfg.n_samples,
            k=cfg.k,
            temperature=cfg.temperature,
            max_tokens=cfg.max_tokens,
            parallelism=cfg.parallelism,
        )
        _judge_traces(items, labeler, _label_records, args.out, "step labels")
    finally:
        _close(backend)
    return 0


def _verdict_records(problem, traj, verdicts) -> list[dict]:
    return [
        {
            "problem_id": problem.id,
            "trajectory_id": traj.trajectory_id,
            "step_index": i,
            "status": verdict.status.value,
            "rule": verdict.rule.rule.value if verdict.rule else None,
            "note": verdict.note,
        }
        for i, verdict in enumerate(verdicts)
    ]


def cmd_verify(args) -> int:
    problems = load_problems(args.problems)
    items = with_problems(read_jsonl(args.traces, trajectory_from_dict), problems)
    _judge_traces(items, verify_trajectory, _verdict_records, args.out, "step verdicts")
    return 0


def _score_records(problem, traj, result) -> list[dict]:
    # A failure is the result that twins share: each is skipped with a warning.
    if isinstance(result, ScorerUnavailable):
        logger.warning("scoring %s failed: %s", traj.trajectory_id, result)
        return []
    return [prm_score_to_dict(result)]


def cmd_score(args) -> int:
    if args.remote_url and args.scorer != "remote":
        raise ConfigError("--remote-url is read only with --scorer remote")
    problems = load_problems(args.problems)
    items = with_problems(read_jsonl(args.traces, trajectory_from_dict), problems)
    if args.scorer == "symbolic":
        scorer = SymbolicScorer()
    else:
        if not args.remote_url:
            raise ConfigError("--scorer remote needs --remote-url")
        try:
            scorer = RemoteScorer(args.remote_url)
        except ValueError as exc:
            raise ConfigError(f"--remote-url: {exc}") from None

    def score(problem, traj):
        try:
            return score_trajectory(problem, traj, scorer)
        except ScorerUnavailable as exc:
            return exc

    try:
        _judge_traces(items, score, _score_records, args.out, "trajectory scores")
    finally:
        _close(scorer)
    return 0


def cmd_select(args) -> int:
    if not args.scores and not args.labels:
        raise ConfigError("select needs --scores, --labels, or both")
    _check_finite("--step-threshold", args.step_threshold)
    problems = load_problems(args.problems)
    trajectories = read_jsonl(args.traces, trajectory_from_dict)
    scores = read_jsonl(args.scores, prm_score_from_dict) if args.scores else None
    labels = read_jsonl(args.labels, step_label_from_dict) if args.labels else None
    selected = select_trajectories(
        trajectories,
        problems,
        scores=scores,
        labels=labels,
        step_threshold=args.step_threshold,
    )
    write_jsonl(args.out, [trajectory_to_dict(t) for t in selected])
    print(f"selected {len(selected)} of {len(trajectories)} trajectories -> {args.out}")
    return 0


def cmd_dpo_pairs(args) -> int:
    _check_finite("--threshold", args.threshold)
    groups: dict[str, list[tuple[str, float]]] = {}
    for score in read_jsonl(args.scores, prm_score_from_dict):
        groups.setdefault(score.problem_id, []).append((score.trajectory_id, score.trajectory_prob))
    pairs = build_dpo_pairs(groups, threshold=args.threshold)
    write_jsonl(args.out, [preference_pair_to_dict(p) for p in pairs])
    print(f"wrote {len(pairs)} preference pairs to {args.out}")
    return 0


def cmd_export(args) -> int:
    # The flag naming the file each kind reads beside its traces; the other is an error.
    wanted = {"prm": "labels", "sft": None, "dpo": "pairs"}[args.kind]
    for name in ("labels", "pairs"):
        if name == wanted and not getattr(args, name):
            raise ConfigError(f"export --kind {args.kind} needs --{name}")
        if name != wanted and getattr(args, name):
            raise ConfigError(f"export --kind {args.kind} reads no --{name}")
    problems = load_problems(args.problems)
    trajectories = read_jsonl(args.traces, trajectory_from_dict)
    if args.kind == "prm":
        labels = read_jsonl(args.labels, step_label_from_dict)
        count = export_prm_dataset(labels, trajectories, problems, args.out)
    elif args.kind == "sft":
        count = export_sft_dataset(trajectories, problems, args.out)
    else:
        pairs = read_jsonl(args.pairs, preference_pair_from_dict)
        count = export_dpo_dataset(pairs, trajectories, problems, args.out)
    print(f"wrote {count} {args.kind} records to {args.out}")
    return 0


def evaluate_traces(trajectories, problems) -> dict:
    """Accuracy and shape statistics; traces without answers count as wrong."""
    total = 0
    matches = 0
    confusion: dict[str, dict[str, int]] = {}
    step_counts = []
    formula_counts = []
    for problem, traj in with_problems(trajectories, problems):
        total += 1
        answer = str(traj.final_answer) if traj.final_answer is not None else "None"
        gold = str(problem.label)
        confusion.setdefault(gold, {})
        confusion[gold][answer] = confusion[gold].get(answer, 0) + 1
        if traj.final_answer is problem.label:
            matches += 1
        step_counts.append(len(traj.steps))
        formula_counts.append(sum(len(s.formulas) for s in traj.steps))
    return {
        "accuracy": matches / total if total else 0.0,
        "matches": matches,
        "total": total,
        "confusion": confusion,
        "mean_steps": sum(step_counts) / total if total else 0.0,
        "mean_formulas": sum(formula_counts) / total if total else 0.0,
    }


def cmd_evaluate(args) -> int:
    problems = load_problems(args.problems)
    trajectories = read_jsonl(args.traces, trajectory_from_dict)
    stats = evaluate_traces(trajectories, problems)
    print(f"accuracy: {stats['accuracy']:.4f} ({stats['matches']}/{stats['total']})")
    print(f"confusion: {json.dumps(stats['confusion'], sort_keys=True)}")
    print(f"mean steps: {stats['mean_steps']:.2f}")
    print(f"mean formulas: {stats['mean_formulas']:.2f}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls.

    Parsing keeps no state in the parser: each call returns a new namespace.
    """
    parser = argparse.ArgumentParser(
        prog="symtraj", description="Symbolic reasoning trajectory pipeline."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-problems", help="generate chained entailment problems")
    p.add_argument("--lengths", default="7,8,9")
    p.add_argument("--count", type=int, default=300, help="problems per length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--no-split", action="store_true", help="skip train/dev/test assignment")
    p.set_defaults(func=cmd_gen_problems)

    p = sub.add_parser("sample", help="sample reasoning trajectories")
    p.add_argument("--problems", required=True)
    p.add_argument("--backend", required=True, help="backend config JSON")
    p.add_argument("--n", type=int, default=4, help="trajectories per problem")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="completion seed of sample 0")
    p.add_argument("--n-shots", dest="n_shots", type=int, default=None)
    _add_knob_flags(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("label", help="Monte Carlo step labels from completions")
    p.add_argument("--traces", required=True)
    p.add_argument("--problems", required=True)
    p.add_argument("--backend", required=True)
    p.add_argument("--n-samples", dest="n_samples", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_knob_flags(p)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("verify", help="rule and semantic step verdicts")
    p.add_argument("--traces", required=True)
    p.add_argument("--problems", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("score", help="per-step probabilities for each trajectory")
    p.add_argument("--traces", required=True)
    p.add_argument("--problems", required=True)
    p.add_argument("--scorer", choices=("symbolic", "remote"), default="symbolic")
    p.add_argument("--remote-url", dest="remote_url", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("select", help="keep trajectories with all-positive steps")
    p.add_argument("--traces", required=True)
    p.add_argument("--problems", required=True)
    p.add_argument("--scores", default=None)
    p.add_argument("--labels", default=None)
    p.add_argument(
        "--step-threshold", dest="step_threshold", type=float, default=DEFAULT_STEP_THRESHOLD
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("dpo-pairs", help="preference pairs from trajectory scores")
    p.add_argument("--scores", required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_DPO_THRESHOLD)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dpo_pairs)

    p = sub.add_parser("export", help="write PRM, SFT, or DPO training files")
    p.add_argument("--kind", choices=("prm", "sft", "dpo"), required=True)
    p.add_argument("--traces", required=True)
    p.add_argument("--problems", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--pairs", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("evaluate", help="answer accuracy against gold labels")
    p.add_argument("--traces", required=True)
    p.add_argument("--problems", required=True)
    p.set_defaults(func=cmd_evaluate)

    return parser


def _add_knob_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--max-tokens", dest="max_tokens", type=int, default=None)
    p.add_argument("--parallelism", type=int, default=None)


# Generation 0's collection threshold while a command runs (CPython's default
# is 700 net allocations). A command streams thousands of small records,
# formula trees and requests that hold no reference cycles, so reference
# counting frees them and the cyclic collector finds nothing: with automatic
# collection off, gc.collect() after each command of a perfbench round
# returned 0 on all three workloads (after a process's first command, which
# leaves its one-time set-up). At 700 the collector still ran 116 gen0, 10
# gen1 and 1 gen2 collections in mock-shared round 2003, 4-6% of its CPU on a
# 2-CPU Xeon; at 50,000 it runs 6/0/0, for the same peak memory. Generations
# 1 and 2 keep their thresholds, so a cycle is still collected.
COMMAND_GC_THRESHOLD = 50_000


def main(argv=None) -> int:
    clear_parse_cache()  # parses are shared within one command, not across commands
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    thresholds = gc.get_threshold()  # the caller's, restored on every exit
    gc.set_threshold(COMMAND_GC_THRESHOLD, *thresholds[1:])
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, json.JSONDecodeError, BackendUnavailable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    finally:
        gc.set_threshold(*thresholds)


if __name__ == "__main__":
    sys.exit(main())
