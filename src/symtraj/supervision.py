"""Step-level supervision: Monte Carlo labels, PRM scores, selection, DPO pairs.

A trajectory's steps are labeled by cutting it after each prefix, asking a
backend to finish the reasoning, and counting how many completions land on
the gold answer. Scores come either from the symbolic verifier or a remote
scoring service. Selection and preference-pair construction sit on top of
those judgments.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import math
import time
from dataclasses import dataclass, fields

from .jsonl import FormatError, write_jsonl
from .llm import (
    DEFAULT_MAX_TOKENS,
    DEFAULT_PARALLELISM,
    DEFAULT_TEMPERATURE,
    BackendUnavailable,
    GenerationRequest,
    JsonClient,
    generate_batch,
)
from .problems import Problem
from .rules import VerdictStatus, verify_trajectory
from .trajectory import (
    Trajectory,
    _final_answer,
    build_completion_prompt,
    build_sampling_prompt,
    n_shots_of,
    parse_trajectory,  # noqa: F401  (perfbench/layers.py wraps supervision.parse_trajectory)
    problem_id_of,
    render_step,
)

logger = logging.getLogger(__name__)

DEFAULT_N_SAMPLES = 10
DEFAULT_K = 1
DEFAULT_STEP_THRESHOLD = 0.5
DEFAULT_DPO_THRESHOLD = 0.25
LOSS_EPSILON = 1e-7

VERDICT_PROBS = {
    VerdictStatus.VERIFIED_BY_RULE: 0.99,
    VerdictStatus.VERIFIED_SEMANTICALLY: 0.90,
    VerdictStatus.UNPARSEABLE: 0.50,
    VerdictStatus.INVALID: 0.01,
}


class LengthMismatch(ValueError):
    """Labels and scores disagree on the number of steps."""


class ScorerUnavailable(RuntimeError):
    """The scoring service cannot judge this trajectory."""


@dataclass(frozen=True)
class StepLabel:
    trajectory_id: str
    step_index: int
    n_samples: int
    n_success: int
    hard_label: int
    completions: tuple[tuple[str | None, bool], ...] = ()

    def __post_init__(self):
        if not 0 <= self.n_success <= self.n_samples:
            raise ValueError(f"n_success {self.n_success} outside 0..{self.n_samples}")
        if self.hard_label not in (1, -1):
            raise ValueError(f"hard_label must be +1 or -1, got {self.hard_label}")


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _record(obj) -> dict:
    # One key per field, values as they are: tuples are written as JSON arrays.
    return {name: getattr(obj, name) for name in _field_names(type(obj))}


def step_label_to_dict(label: StepLabel) -> dict:
    return _record(label)


def step_label_from_dict(d: dict) -> StepLabel:
    for name in ("step_index", "n_samples", "n_success", "hard_label"):
        if not isinstance(d[name], int) or isinstance(d[name], bool):
            raise ValueError(f"{name} must be an integer, got {d[name]!r}")
    completions = tuple([(answer, matched) for answer, matched in d.get("completions", ())])
    if any(not isinstance(matched, bool) for _, matched in completions):
        raise ValueError("a completion's matched must be true or false")
    n_matched = sum(matched for _, matched in completions)
    if completions and n_matched != d["n_success"]:
        raise ValueError(f"{n_matched} completions matched, but n_success is {d['n_success']}")
    return StepLabel(
        trajectory_id=d["trajectory_id"],
        step_index=d["step_index"],
        n_samples=d["n_samples"],
        n_success=d["n_success"],
        hard_label=d["hard_label"],
        completions=completions,
    )


@dataclass(frozen=True)
class PrmScore:
    trajectory_id: str
    step_probs: tuple[float, ...]
    trajectory_prob: float | None = None
    problem_id: str = ""

    def __post_init__(self):
        for p in self.step_probs:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"step probability {p} outside [0, 1]")
        product = math.prod(self.step_probs)
        if self.trajectory_prob is None:
            object.__setattr__(self, "trajectory_prob", product)
        elif abs(self.trajectory_prob - product) > 1e-12:
            raise ValueError(
                f"trajectory_prob {self.trajectory_prob} differs from step product {product}"
            )


def prm_score_to_dict(score: PrmScore) -> dict:
    return _record(score)


def prm_score_from_dict(d: dict) -> PrmScore:
    tid, problem_id = d["trajectory_id"], d["problem_id"]
    # dpo-pairs groups scores by problem_id, so it must name the id's own problem.
    if problem_id_of(tid) != problem_id:
        raise ValueError(f"problem_id {problem_id!r} is not the problem of trajectory id {tid!r}")
    for p in d["step_probs"]:
        if not is_probability(p):
            raise ValueError(f"step probability {p!r} is not a number in [0, 1]")
    step_probs = tuple([float(p) for p in d["step_probs"]])
    return PrmScore(tid, step_probs, d.get("trajectory_prob"), problem_id)


def is_probability(p) -> bool:
    """A JSON number in [0, 1]. JSON true and false are not numbers, and NaN
    fails both comparisons."""
    return isinstance(p, (int, float)) and not isinstance(p, bool) and 0.0 <= p <= 1.0


@dataclass(frozen=True)
class PreferencePair:
    problem_id: str
    chosen: str
    rejected: str
    gap: float


def preference_pair_to_dict(pair: PreferencePair) -> dict:
    return _record(pair)


def preference_pair_from_dict(d: dict) -> PreferencePair:
    if d["chosen"] == d["rejected"]:
        raise ValueError(f"preference pair chooses trajectory {d['chosen']!r} over itself")
    return PreferencePair(d["problem_id"], d["chosen"], d["rejected"], d["gap"])


def index_once(pairs, conflict) -> dict:
    """{key: value} of the (key, value) pairs; a key may come again only with
    an equal value, else FormatError(conflict(key)). This is the one rule for
    repeated records: an id names one trace, one score and one hard label per
    step, and a twin repeats it exactly."""
    index: dict = {}
    for key, value in pairs:
        if index.setdefault(key, value) != value:
            raise FormatError(conflict(key))
    return index


def with_problems(trajs, problems) -> list[tuple[Problem, Trajectory]]:
    """(problem, trajectory) for each trajectory in order; every stage joins here.

    A trajectory whose problem is not on record is dropped with a warning.
    Twins, joined records of one trajectory id, must repeat its steps, answer
    and n_shots (n_shots_of): label and export prompt each with its own.
    """
    by_id = {p.id: p for p in problems}
    joined = []
    for traj in trajs:
        problem = by_id.get(traj.problem_id)
        if problem is None:
            logger.warning("no problem on record for %r, skipping", traj.problem_id)
        else:
            joined.append((problem, traj))
    index_once(
        ((t.trajectory_id, (t.steps, t.final_answer, n_shots_of(t))) for _, t in joined),
        lambda tid: f"trajectory id {tid!r} comes twice with different steps, final answers or n_shots",
    )
    return joined


def judge_distinct(items, judge) -> tuple[list, int]:
    """judge(problem, trajectory) for each (problem, trajectory) of items, in
    order, and the number of distinct traces judged.

    Twins, records with one trajectory id, share one call and its result:
    with_problems has checked that they repeat one trace.
    """
    judged: dict[str, object] = {}
    results = []
    for problem, traj in items:
        tid = traj.trajectory_id
        if tid not in judged:
            judged[tid] = judge(problem, traj)
        results.append(judged[tid])
    return results, len(judged)


# ---------------------------------------------------------------------------
# Monte Carlo labeling
# ---------------------------------------------------------------------------


def mc_label(problem: Problem, traj: Trajectory, backend, **options) -> list[StepLabel]:
    """One StepLabel per prefix of the trajectory; options as for mc_label_all."""
    return mc_label_all([(problem, traj)], backend, **options)[traj.trajectory_id]


def mc_label_all(
    items,
    backend,
    n_samples: int = DEFAULT_N_SAMPLES,
    k: int = DEFAULT_K,
    temperature: float = DEFAULT_TEMPERATURE,
    max_tokens: int = DEFAULT_MAX_TOKENS,
    parallelism: int = DEFAULT_PARALLELISM,
) -> dict[str, list[StepLabel]]:
    """{trajectory id: one StepLabel per prefix} for the (problem, trajectory)
    items; twins, records of one id, are labelled once.

    The label for step_index p-1 counts completions sampled after the first p
    steps that end on the gold answer; hard_label is +1 iff at least k do.
    Each trajectory is prompted with the demonstrations it was sampled with
    (n_shots_of).
    Backend failures count as non-matching; a too-long prompt skips that
    prefix with a logged reason.

    All requests go out in one batch: each distinct prefix (sampling prompt,
    rendered steps) is sent once, with seeds 0..n_samples-1, and a failed
    request counts as failed for every trajectory that needs it.
    """
    if not 1 <= k <= n_samples:
        raise ValueError(f"need 1 <= k <= n_samples, got k={k} n_samples={n_samples}")
    # Plan: each distinct trace's prefix keys; each distinct key's batch place.
    traces: dict[str, tuple[Problem, list[tuple]]] = {}
    places: dict[tuple, int] = {}
    for problem, traj in items:
        tid = traj.trajectory_id
        if tid in traces:
            continue
        if not traj.steps:
            raise ValueError("trajectory has no steps to label")
        sampling = build_sampling_prompt(problem, n_shots_of(traj))
        rendered = tuple([render_step(s) for s in traj.steps])
        keys = [(sampling, rendered[:n]) for n in range(1, len(rendered) + 1)]
        for key in keys:
            places.setdefault(key, len(places))
        traces[tid] = (problem, keys)

    def requests():
        # Built as the batch takes them, each distinct prefix's messages once.
        for sampling, prefix in places:
            messages = tuple(build_completion_prompt(sampling, prefix, len(prefix)).to_messages())
            for seed in range(n_samples):
                yield GenerationRequest(messages=messages, temperature=temperature, max_tokens=max_tokens, seed=seed)

    responses = generate_batch(backend, requests(), parallelism)
    answer_of = functools.cache(_final_answer)  # each distinct reply text is parsed once
    outcomes = [(r.error, None) if r.error else (None, answer_of(r.text)) for r in responses]
    labelled: dict[str, list[StepLabel]] = {}
    for tid, (problem, keys) in traces.items():
        labels = labelled[tid] = []
        for prefix_len, key in enumerate(keys, start=1):
            start = places[key] * n_samples
            results = outcomes[start : start + n_samples]
            if any(error and error.startswith("PromptTooLong") for error, _ in results):
                logger.warning("%s: prefix %d skipped: prompt too long", tid, prefix_len)
                continue
            completions: list[tuple[str | None, bool]] = []
            n_success = 0
            for error, answer in results:
                if error:
                    logger.warning("%s: completion failed, counted as non-matching: %s", tid, error)
                    completions.append((None, False))
                    continue
                matched = answer is problem.label
                n_success += matched
                completions.append((str(answer) if answer is not None else None, matched))
            labels.append(
                StepLabel(
                    trajectory_id=tid,
                    step_index=prefix_len - 1,
                    n_samples=n_samples,
                    n_success=n_success,
                    hard_label=1 if n_success >= k else -1,
                    completions=tuple(completions),
                )
            )
    return labelled


# ---------------------------------------------------------------------------
# PRM loss and scoring
# ---------------------------------------------------------------------------


def prm_loss(labels, scores: PrmScore) -> float:
    """Binary cross-entropy between hard step labels and step probabilities."""
    labels = list(labels)
    if len(labels) != len(scores.step_probs):
        raise LengthMismatch(f"{len(labels)} labels vs {len(scores.step_probs)} probabilities")
    total = 0.0
    for label, prob in zip(labels, scores.step_probs):
        y = 1.0 if label.hard_label > 0 else 0.0
        r = min(max(prob, LOSS_EPSILON), 1.0 - LOSS_EPSILON)
        total -= y * math.log(r) + (1.0 - y) * math.log(1.0 - r)
    return total


class SymbolicScorer:
    """Step probabilities from the rule verifier's verdicts."""

    def step_probs(self, problem: Problem, traj: Trajectory) -> list[float]:
        verdicts = verify_trajectory(problem, traj)
        return [VERDICT_PROBS[v.status] for v in verdicts]


class RemoteScorer:
    """Step probabilities from an HTTP service: POST {steps:[...]} -> {probs:[...]}."""

    def __init__(self, url: str, sleep=time.sleep, rng=None):
        # Test hooks for the client's backoff; its timeout and attempt limit are fixed.
        self._client = JsonClient(url, sleep=sleep, rng=rng)

    def close(self) -> None:
        self._client.close()

    def step_probs(self, problem: Problem, traj: Trajectory) -> list[float]:
        payload = {"steps": [render_step(s) for s in traj.steps]}
        try:
            raw = self._client.post(payload)
        except BackendUnavailable as exc:
            raise ScorerUnavailable(f"scorer request failed: {exc}") from exc
        try:
            probs = json.loads(raw)["probs"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ScorerUnavailable(f"scorer response malformed: {exc}") from exc
        if not isinstance(probs, list) or len(probs) != len(traj.steps):
            raise ScorerUnavailable("scorer returned a wrong-length probability list")
        for p in probs:
            if not is_probability(p):
                raise ScorerUnavailable(f"scorer returned {p!r}, not a probability in [0, 1]")
        return [float(p) for p in probs]


def score_trajectory(problem: Problem, traj: Trajectory, scorer) -> PrmScore:
    return PrmScore(
        trajectory_id=traj.trajectory_id,
        step_probs=tuple(scorer.step_probs(problem, traj)),
        problem_id=traj.problem_id,
    )


# ---------------------------------------------------------------------------
# Selection and preference pairs
# ---------------------------------------------------------------------------


def _score_conflict(tid) -> str:
    return f"trajectory id {tid!r} has two different scores"


def _hard_labels(labels) -> dict[str, dict[int, int]]:
    """{trajectory id: {step index: hard_label}}; two different hard labels
    for one step are refused (see index_once)."""
    steps = index_once(
        (((l.trajectory_id, l.step_index), l.hard_label) for l in labels),
        lambda key: f"trajectory id {key[0]!r} has two different hard labels for step {key[1]}",
    )
    by_id: dict[str, dict[int, int]] = {}
    for (tid, i), hard_label in steps.items():
        by_id.setdefault(tid, {})[i] = hard_label
    return by_id


def _step_labels(label_map, traj: Trajectory) -> list[int] | None:
    """traj's hard labels (from _hard_labels) in step order, or None unless every step has one."""
    per_step = label_map.get(traj.trajectory_id, {})
    if per_step.keys() != set(range(len(traj.steps))):
        return None
    return [per_step[i] for i in range(len(traj.steps))]


def select_trajectories(
    trajs,
    problems,
    scores=None,
    labels=None,
    step_threshold: float = DEFAULT_STEP_THRESHOLD,
) -> list[Trajectory]:
    """Trajectories whose every step is judged positive and whose answer is gold.

    Judgments come from MC labels (every hard_label +1), from PRM scores
    (every step probability strictly above step_threshold), or both when both
    are given. Trajectories without a complete judgment are dropped.
    """
    if scores is None and labels is None:
        raise ValueError("need scores, labels, or both to judge steps")
    score_map = index_once(((s.trajectory_id, s) for s in scores or ()), _score_conflict)
    label_map = _hard_labels(labels or ())
    selected = []
    for problem, traj in with_problems(trajs, problems):
        if traj.final_answer is not problem.label:
            continue
        ok = True
        if labels is not None:
            hard_labels = _step_labels(label_map, traj)
            ok &= hard_labels is not None and all(hard_label > 0 for hard_label in hard_labels)
        if ok and scores is not None:
            score = score_map.get(traj.trajectory_id)
            ok &= (
                score is not None
                and len(score.step_probs) == len(traj.steps)
                and all(p > step_threshold for p in score.step_probs)
            )
        if ok:
            selected.append(traj)
    return selected


def build_dpo_pairs(groups, threshold: float = DEFAULT_DPO_THRESHOLD) -> list[PreferencePair]:
    """Preference pairs within each problem group.

    groups maps problem_id -> iterable of (trajectory_id, trajectory_prob);
    twins repeat an entry, and an id with two different probabilities is
    refused (see index_once). Every pair of two ids whose probability gap
    strictly exceeds the threshold is emitted once, higher probability as
    chosen. Output is sorted by problem_id, then gap descending.
    """
    pairs: list[PreferencePair] = []
    for problem_id in sorted(groups):
        probs = index_once(groups[problem_id], _score_conflict)
        entries = sorted(probs.items(), key=lambda e: (-e[1], e[0]))
        for (tid_a, prob_a), (tid_b, prob_b) in itertools.combinations(entries, 2):
            if prob_a - prob_b > threshold:
                pairs.append(PreferencePair(problem_id, tid_a, tid_b, prob_a - prob_b))
    pairs.sort(key=lambda p: (p.problem_id, -p.gap, p.chosen, p.rejected))
    return pairs


# ---------------------------------------------------------------------------
# Dataset exports
# ---------------------------------------------------------------------------


def _prompt_text(problem: Problem, traj: Trajectory) -> str:
    """The prompt traj was sampled with, as one text."""
    messages = build_sampling_prompt(problem, n_shots_of(traj)).to_messages()
    return "\n\n".join(m["content"] for m in messages)


def export_prm_dataset(labels, trajectories, problems, path) -> int:
    """PRM records {prompt, steps, step_labels}; returns the record count.
    A trace is exported only when every step has a hard label, as
    select_trajectories requires; the others are counted in a warning."""
    label_map = _hard_labels(labels)
    items = with_problems(trajectories, problems)
    records = []
    for problem, traj in items:
        hard_labels = _step_labels(label_map, traj)
        if hard_labels is None:
            continue
        records.append(
            {
                "prompt": _prompt_text(problem, traj),
                "steps": [render_step(s) for s in traj.steps],
                "step_labels": hard_labels,
            }
        )
    left_out = len(items) - len(records)
    if left_out:
        logger.warning("%d of %d traces left out: not every step has a hard label", left_out, len(items))
    write_jsonl(path, records)
    return len(records)


def export_sft_dataset(selected, problems, path) -> int:
    """SFT records {prompt, response}; returns the record count."""
    records = [
        {"prompt": _prompt_text(problem, traj), "response": traj.raw_text}
        for problem, traj in with_problems(selected, problems)
    ]
    write_jsonl(path, records)
    return len(records)


def export_dpo_dataset(pairs, trajectories, problems, path) -> int:
    """DPO records {prompt, chosen, rejected}; returns the record count.
    A pair must join two traces of its problem sampled with one n_shots."""
    by_tid = {t.trajectory_id: (p, t) for p, t in with_problems(trajectories, problems)}
    records = []
    for pair in pairs:
        if pair.chosen not in by_tid or pair.rejected not in by_tid:
            logger.warning("skipping pair with missing pieces: %s", pair)
            continue
        (problem, chosen), (other, rejected) = by_tid[pair.chosen], by_tid[pair.rejected]
        what = f"preference pair {pair.chosen!r} over {pair.rejected!r}"
        if not problem.id == other.id == pair.problem_id:
            raise FormatError(f"{what} is not two traces of its problem {pair.problem_id!r}")
        if n_shots_of(chosen) != n_shots_of(rejected):
            raise FormatError(
                f"{what} joins traces sampled with n_shots {n_shots_of(chosen)} and {n_shots_of(rejected)}"
            )
        records.append(
            {"prompt": _prompt_text(problem, chosen), "chosen": chosen.raw_text, "rejected": rejected.raw_text}
        )
    write_jsonl(path, records)
    return len(records)
