"""Command-line pipeline: generate problems, sample traces, label, score, select.

Every command reads and writes line-delimited JSON. Exit codes: 0 success,
1 configuration or IO error, 2 invariant violation during generation or
loading.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .fol import clear_parse_cache
from .jsonl import FormatError, read_jsonl, write_jsonl
from .llm import (
    DEFAULT_MAX_TOKENS,
    DEFAULT_TEMPERATURE,
    BackendUnavailable,
    GenerationRequest,
    HttpBackend,
    ScriptedMockBackend,
    generate_batch,
)
from .mock import OracleMockBackend
from .problems import (
    GenerationBudgetExceeded,
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
    mc_label,  # noqa: F401  (perfbench/layers.py wraps cli.mc_label)
    mc_label_all,
    preference_pair_from_dict,
    preference_pair_to_dict,
    prm_score_from_dict,
    prm_score_to_dict,
    score_trajectory,
    select_trajectories,
    step_label_from_dict,
    step_label_to_dict,
    trajectory_id_of,
    with_problems,
)
from .trajectory import (
    EmptyTrajectory,
    build_sampling_prompt,
    parse_trajectory,
    trajectory_from_dict,
    trajectory_to_dict,
)

logger = logging.getLogger(__name__)

# The options a config file may give each backend kind, with the JSON types
# each accepts. Their defaults live in the backend constructors; the
# constructors' test hooks are not listed.
_NUMBER, _INT_OR_NULL, _STR_OR_NULL = (int, float), (int, type(None)), (str, type(None))
BACKEND_OPTIONS = {
    "http": {"base_url": (str,), "model": (str,), "api_key_env": _STR_OR_NULL, "timeout_s": _NUMBER,
             "max_retries": (int,), "max_prompt_chars": _INT_OR_NULL},
    "oracle-mock": {"problems": (str,), "seed": (int,), "accuracy": _NUMBER, "sloppiness": _NUMBER,
                    "max_prompt_chars": _INT_OR_NULL},
    "scripted": {"script": (dict,), "default_text": _STR_OR_NULL, "max_prompt_chars": _INT_OR_NULL},
}


class ConfigError(ValueError):
    """The configuration file or flags do not describe a runnable pipeline."""


@dataclass(frozen=True)
class PipelineConfig:
    backend_kind: str = "http"
    backend_options: dict = field(default_factory=dict)
    parallelism: int = 4
    temperature: float = DEFAULT_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS
    n_shots: int = 1
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
        for name, value in self.backend_options.items():
            types = BACKEND_OPTIONS[self.backend_kind][name]
            # JSON true and false are not numbers, although bool subclasses int.
            if not isinstance(value, types) or isinstance(value, bool):
                wanted = " or ".join("null" if t is type(None) else t.__name__ for t in types)
                raise ConfigError(
                    f"{self.backend_kind} backend option {name!r} must be {wanted}, got {value!r}"
                )
        if self.backend_kind == "http":
            # Either would make every request fail, one error response each.
            if self.backend_options.get("max_retries", 1) < 1:
                raise ConfigError("http backend option 'max_retries' must be at least 1")
            if self.backend_options.get("timeout_s", 1) <= 0:
                raise ConfigError("http backend option 'timeout_s' must be above 0")
        if not 1 <= self.k <= self.n_samples:
            raise ConfigError(f"need 1 <= k <= n_samples, got k={self.k} n_samples={self.n_samples}")
        if self.parallelism < 1:
            raise ConfigError(f"parallelism {self.parallelism} must be at least 1")
        if self.max_tokens < 1 or self.temperature < 0.0:
            raise ConfigError("max_tokens must be >= 1 and temperature >= 0")
        if self.n_shots < 1:
            raise ConfigError(f"n_shots {self.n_shots} must be at least 1")


_PIPELINE_KEYS = tuple(f.name for f in fields(PipelineConfig) if not f.name.startswith("backend_"))


def load_config(path: str | None) -> PipelineConfig:
    """Config file -> PipelineConfig; flags overlay later via replace().

    The one file shape is {"backend": {"kind": ..., <options>}, <pipeline keys>}.
    """
    if path is None:
        return PipelineConfig(backend_kind="scripted")
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    unknown = sorted(set(data) - {"backend", *_PIPELINE_KEYS})
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise ConfigError(f"{path}: unknown key(s) {names}; backend options go in 'backend'")
    if not isinstance(data.get("backend"), dict):
        raise ConfigError(f"{path}: needs a 'backend' object")
    options = dict(data["backend"])
    kind = options.pop("kind", PipelineConfig.backend_kind)
    knobs = {key: data[key] for key in _PIPELINE_KEYS if key in data}
    return PipelineConfig(backend_kind=kind, backend_options=options, **knobs)


def _overlay_flags(cfg: PipelineConfig, args) -> PipelineConfig:
    updates = {}
    for key in _PIPELINE_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            updates[key] = value
    return replace(cfg, **updates) if updates else cfg


def build_backend(cfg: PipelineConfig, problems: list[Problem] | None = None):
    opts = dict(cfg.backend_options)
    if cfg.backend_kind == "http":
        if not opts.get("base_url"):
            raise ConfigError("http backend needs a base_url")
        return HttpBackend(**opts)
    if cfg.backend_kind == "oracle-mock":
        if "problems" in opts:
            problems = load_problems(opts.pop("problems"))
        if problems is None:
            raise ConfigError("oracle-mock backend needs problems")
        return OracleMockBackend(problems, **opts)
    if not isinstance(opts.get("script"), dict):
        raise ConfigError("scripted backend needs a 'script' object")
    return ScriptedMockBackend(**opts)


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


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen_problems(args) -> int:
    lengths = _parse_lengths(args.lengths)
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
    cfg = _overlay_flags(load_config(args.backend), args)
    problems = load_problems(args.problems, format=args.format)
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
    responses = generate_batch(backend, requests_out, cfg.parallelism)
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
                seed_meta={"temperature": cfg.temperature, "sample_index": i, "seed": cfg.seed + i},
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


def cmd_label(args) -> int:
    cfg = _overlay_flags(load_config(args.backend), args)
    problems = load_problems(args.problems)
    trajectories = read_jsonl(args.traces, trajectory_from_dict)
    backend = build_backend(cfg, problems)
    items = with_problems(trajectories, problems)
    all_labels = mc_label_all(
        items,
        backend,
        n_samples=cfg.n_samples,
        k=cfg.k,
        temperature=cfg.temperature,
        max_tokens=cfg.max_tokens,
        parallelism=cfg.parallelism,
        n_shots=cfg.n_shots,
    )
    records = [
        {**step_label_to_dict(label), "problem_id": problem.id}
        for (problem, _), labels in zip(items, all_labels)
        for label in labels
    ]
    write_jsonl(args.out, records)
    print(f"wrote {len(records)} step labels to {args.out}")
    return 0


def _max_domain(args) -> int:
    if args.max_domain < 1:
        raise ConfigError(f"--max-domain must be at least 1, got {args.max_domain}")
    return args.max_domain


def cmd_verify(args) -> int:
    max_domain = _max_domain(args)
    problems = load_problems(args.problems)
    trajectories = read_jsonl(args.traces, trajectory_from_dict)
    records = []
    for problem, traj in with_problems(trajectories, problems):
        tid = trajectory_id_of(traj)
        for i, verdict in enumerate(verify_trajectory(problem, traj, max_domain=max_domain)):
            records.append(
                {
                    "problem_id": problem.id,
                    "trajectory_id": tid,
                    "step_index": i,
                    "status": verdict.status.value,
                    "rule": verdict.rule.rule.value if verdict.rule else None,
                    "note": verdict.note,
                }
            )
    write_jsonl(args.out, records)
    print(f"wrote {len(records)} step verdicts to {args.out}")
    return 0


def cmd_score(args) -> int:
    problems = load_problems(args.problems)
    trajectories = read_jsonl(args.traces, trajectory_from_dict)
    if args.scorer == "symbolic":
        scorer = SymbolicScorer(problems, max_domain=_max_domain(args))
    else:
        if not args.remote_url:
            raise ConfigError("--scorer remote needs --remote-url")
        scorer = RemoteScorer(args.remote_url)
    records = []
    for _, traj in with_problems(trajectories, problems):
        try:
            records.append(prm_score_to_dict(score_trajectory(traj, scorer)))
        except ScorerUnavailable as exc:
            logger.warning("scoring %s failed: %s", traj.problem_id, exc)
    write_jsonl(args.out, records)
    print(f"wrote {len(records)} trajectory scores to {args.out}")
    return 0


def cmd_select(args) -> int:
    if not args.scores and not args.labels:
        raise ConfigError("select needs --scores, --labels, or both")
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
    groups: dict[str, list[tuple[str, float]]] = {}
    for score in read_jsonl(args.scores, prm_score_from_dict):
        groups.setdefault(score.problem_id, []).append((score.trajectory_id, score.trajectory_prob))
    pairs = build_dpo_pairs(groups, threshold=args.threshold)
    write_jsonl(args.out, [preference_pair_to_dict(p) for p in pairs])
    print(f"wrote {len(pairs)} preference pairs to {args.out}")
    return 0


def cmd_export(args) -> int:
    if args.n_shots < 1:
        raise ConfigError(f"n_shots {args.n_shots} must be at least 1")
    problems = load_problems(args.problems)
    trajectories = read_jsonl(args.traces, trajectory_from_dict)
    if args.kind == "prm":
        if not args.labels:
            raise ConfigError("export --kind prm needs --labels")
        labels = read_jsonl(args.labels, step_label_from_dict)
        count = export_prm_dataset(labels, trajectories, problems, args.out, n_shots=args.n_shots)
    elif args.kind == "sft":
        count = export_sft_dataset(trajectories, problems, args.out, n_shots=args.n_shots)
    else:
        if not args.pairs:
            raise ConfigError("export --kind dpo needs --pairs")
        pairs = read_jsonl(args.pairs, preference_pair_from_dict)
        count = export_dpo_dataset(pairs, trajectories, problems, args.out, n_shots=args.n_shots)
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


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--format", choices=("native-json", "folio-json"), default="native-json")
    p.add_argument("--seed", type=int, default=None, help="completion seed of sample 0")
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
    p.add_argument("--max-domain", dest="max_domain", type=int, default=3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("score", help="per-step probabilities for each trajectory")
    p.add_argument("--traces", required=True)
    p.add_argument("--problems", required=True)
    p.add_argument("--scorer", choices=("symbolic", "remote"), default="symbolic")
    p.add_argument("--remote-url", dest="remote_url", default=None)
    p.add_argument("--max-domain", dest="max_domain", type=int, default=3)
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
    p.add_argument("--n-shots", dest="n_shots", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("evaluate", help="answer accuracy against gold labels")
    p.add_argument("--traces", required=True)
    p.add_argument("--problems", required=True)
    p.set_defaults(func=cmd_evaluate)

    return parser


def _add_knob_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-shots", dest="n_shots", type=int, default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--max-tokens", dest="max_tokens", type=int, default=None)
    p.add_argument("--parallelism", type=int, default=None)


def main(argv=None) -> int:
    clear_parse_cache()  # parses are shared within one command, not across commands
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
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
    except (InvariantViolation, GenerationBudgetExceeded) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
