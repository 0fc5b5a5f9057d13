"""Independent checks of one round's artifacts.

An operation is one record a stage must produce. It fails when the record is
missing or fails its check. The checks compare against what this module
computes itself, or against properties the method must have, never against
a stored copy of earlier output:

- gen: one problem per (length, index); its gold label agrees with a forward
  derivation over the premises' universal implications, with case analysis
  for the disjunctive shape. The finite-model oracle is not used.
- sample: one trace per requested sample, holding the text the backend
  serves for that request, split into the steps its markers delimit.
- verify: every step of a clean trace is accepted; on a spoiled trace the
  first rejected step is the spoiled one. A trace is clean when it equals
  what the same mock writes at sloppiness 0.
- label: one label per step; hard_label follows n_success and k. With an
  accuracy-1 mock every completion is gold; against the stand-in, n_success
  is the number of gold answers it says it served for that prefix.
- score: one probability per step, trajectory_prob is their product, and a
  step clears the threshold exactly when verify accepted it.
- select: a trace is selected exactly when its answer is gold, all its step
  labels are +1 and all its step probabilities clear the threshold.
- dpo-pairs: per problem, exactly the pairs of scored traces whose gap
  exceeds the threshold.
- exports: prm has one record per trace with its steps and labels, sft one
  per selected trace, dpo one per pair, with the texts of the traces named.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter, defaultdict
from itertools import combinations
from pathlib import Path

from standin import FINISH_RE, prefix_digest
from workloads import DPO_THRESHOLD, K, STEP_THRESHOLD

ACCEPTED = ("VerifiedByRule", "VerifiedSemantically")


class Report:
    """Operations attempted and failed per stage, plus the first few reasons."""

    def __init__(self):
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.extra: list[str] = []  # records no operation asked for
        self.reasons: list[str] = []

    def op(self, stage: str, ok: bool, reason: str = "") -> bool:
        self.attempted[stage] += 1
        if not ok:
            self.failed[stage] += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{stage}: {reason}")
        return ok

    def unexpected(self, what: str) -> None:
        self.extra.append(what)

    def to_dict(self) -> dict:
        return {
            "attempted": dict(self.attempted),
            "failed": dict(self.failed),
            "extra": self.extra,
            "reasons": self.reasons,
        }


# ---------------------------------------------------------------------------
# Reading artifacts
# ---------------------------------------------------------------------------


def read_records(path: Path) -> list[dict] | None:
    """Records of a JSONL file; None when the file is missing or unreadable."""
    try:
        text = path.read_text(encoding="utf-8")
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    except (OSError, ValueError):
        return None


def runs_by_step(records: list[dict]) -> list[list[dict]]:
    """Per-step records cut into one run per trace at each step_index 0."""
    runs: list[list[dict]] = []
    for rec in records:
        if rec.get("step_index") == 0 or not runs:
            runs.append([])
        runs[-1].append(rec)
    return runs


_MARKER = re.compile(r"^(Thought|Action|Observation):", re.MULTILINE)


def split_steps(text: str) -> list[tuple[str, str]]:
    """(kind, body) for each marker line of a mock trace."""
    marks = list(_MARKER.finditer(text))
    steps = []
    for i, m in enumerate(marks):
        end = marks[i + 1].start() if i + 1 < len(marks) else len(text)
        steps.append((m.group(1), text[m.end() : end].strip()))
    return steps


def render_prefix(steps: list[dict], n: int) -> str:
    return "\n".join(f"{s['kind']}: {s['text']}" for s in steps[:n])


# ---------------------------------------------------------------------------
# Gold labels by forward derivation
# ---------------------------------------------------------------------------

_IMPL = re.compile(r"∀(\w+) \((\w+)\(\1\) → (¬?)(\w+)\(\1\)\)")
_FACT = re.compile(r"(\w+)\((\w+)\)")
_EXISTS = re.compile(r"∃(\w+) (\w+)\(\1\)")
_EXISTS_OR = re.compile(r"∃(\w+) \((\w+)\(\1\) ∨ (\w+)\(\1\)\)")


def _closure(start: str, links: dict[str, list[tuple[bool, str]]]) -> tuple[set, set]:
    """Predicates that hold (and that fail) of an individual with `start`."""
    pos, neg, todo = {start}, set(), [start]
    while todo:
        for negated, q in links.get(todo.pop(), ()):
            if negated:
                neg.add(q)
            elif q not in pos:
                pos.add(q)
                todo.append(q)
    return pos, neg


def derive_label(premises: list[str], hypothesis: str) -> str | None:
    """"True"/"False" derived from the premise formulas, or None."""
    links: dict[str, list[tuple[bool, str]]] = defaultdict(list)
    seeds = []
    for text in premises:
        if m := _IMPL.fullmatch(text):
            links[m.group(2)].append((m.group(3) == "¬", m.group(4)))
        elif m := _EXISTS_OR.fullmatch(text):
            seeds.append(("cases", (m.group(2), m.group(3))))
        elif m := _EXISTS.fullmatch(text):
            seeds.append(("witness", (m.group(2),)))
        elif m := _FACT.fullmatch(text):
            seeds.append(("fact", (m.group(1), m.group(2))))
        else:
            return None
    if len(seeds) != 1:
        return None
    kind, seed = seeds[0]
    if kind == "fact":
        pos, neg = _closure(seed[0], links)
        m = _FACT.fullmatch(hypothesis)
        if m is None or m.group(2) != seed[1]:
            return None
        if m.group(1) in pos and m.group(1) not in neg:
            return "True"
        if m.group(1) in neg and m.group(1) not in pos:
            return "False"
        return None
    if kind == "witness":
        pos, _ = _closure(seed[0], links)
    else:
        # Case analysis: what holds of the witness in both branches.
        pos = _closure(seed[0], links)[0] & _closure(seed[1], links)[0]
    negated = hypothesis.startswith("¬")
    m = _EXISTS.fullmatch(hypothesis.removeprefix("¬"))
    if m is None or m.group(2) not in pos:
        return None
    return "False" if negated else "True"


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------


def expected_texts(symtraj, problems, w, seed: int) -> dict[tuple[int, str, int], tuple[str, str]]:
    """(group, problem id, sample index) -> (text served, its sloppiness-0 twin).

    The twin comes from the same mock with the same seed and accuracy, so it
    differs from a spoiled text only at the spoiled step.
    """
    from symtraj.llm import DEFAULT_MAX_TOKENS, DEFAULT_TEMPERATURE, GenerationRequest
    from symtraj.mock import OracleMockBackend
    from symtraj.trajectory import build_sampling_prompt

    clean = OracleMockBackend(problems, seed=seed, accuracy=w.accuracy, sloppiness=0.0)
    out = {}
    for gi, group in enumerate(w.groups):
        mock = OracleMockBackend(
            problems, seed=seed, accuracy=w.accuracy, sloppiness=group.sloppiness
        )
        for problem in problems:
            messages = tuple(build_sampling_prompt(problem).to_messages())
            for i in range(group.n):
                req = GenerationRequest(
                    messages=messages,
                    temperature=DEFAULT_TEMPERATURE,
                    max_tokens=DEFAULT_MAX_TOKENS,
                    seed=i,
                )
                out[(gi, problem.id, i)] = (mock.generate(req).text, clean.generate(req).text)
    return out


def check_round(d: Path, w, seed: int, symtraj) -> Report:
    rep = Report()
    problem_recs = read_records(d / "problems.jsonl") or []
    by_id = {}
    for rec in problem_recs:
        if rec.get("id") in by_id:
            rep.unexpected(f"problem {rec.get('id')} twice")
        by_id[rec.get("id")] = rec
    expected_ids = [f"logicasker-l{n}-{i:04d}" for n in w.lengths for i in range(w.count)]
    for pid in expected_ids:
        rec = by_id.get(pid)
        ok = rec is not None and derive_label(
            [s.get("fol") or "" for s in rec["premises"]], rec["hypothesis"].get("fol") or ""
        ) == rec["label"]
        rep.op("gen", ok, f"{pid}: missing or gold label not derivable")
    for pid in set(by_id) - set(expected_ids):
        rep.unexpected(f"problem {pid}")

    problems = []
    if problem_recs:
        from symtraj.problems import problem_from_dict

        problems = [problem_from_dict(r) for r in problem_recs if r.get("id") in expected_ids]
    texts = expected_texts(symtraj, problems, w, seed)

    # sample: the served text, in (group, problem, index) order.
    traces = read_records(d / "traces.jsonl") or []
    order = [(gi, p.id, i) for gi, g in enumerate(w.groups) for p in problems for i in range(g.n)]
    if len(traces) > len(order):
        rep.unexpected(f"{len(traces) - len(order)} traces beyond those requested")
    slots = []  # (trace, served text, clean twin) for every requested sample
    for pos, key in enumerate(order):
        trace = traces[pos] if pos < len(traces) else None
        served, twin = texts[key]
        ok = (
            trace is not None
            and trace.get("problem_id") == key[1]
            and trace.get("seed_meta", {}).get("sample_index") == key[2]
            and trace.get("raw_text") == served
            and [(s["kind"], s["text"]) for s in trace["steps"]] == split_steps(served)
            and trace.get("final_answer") == (FINISH_RE.findall(served) or [None])[-1]
        )
        rep.op("sample", ok, f"{key}: trace missing or not the served text")
        slots.append((trace if ok else None, served, twin))

    # Every later stage has one run of per-step records per trace.
    verdict_runs = runs_by_step(read_records(d / "verdicts.jsonl") or [])
    label_runs = runs_by_step(read_records(d / "labels.jsonl") or [])
    scores = read_records(d / "scores.jsonl") or []
    for name, got in (("verdict", verdict_runs), ("label", label_runs), ("score", scores)):
        if len(got) > len(slots):
            rep.unexpected(f"{len(got) - len(slots)} {name} records beyond the traces")
    served_gold = load_served(d / "served.json") if w.backend == "http" else None

    judged = []  # per trace: (trace, labels ok and all +1, probs all clear)
    for j, (trace, served, twin) in enumerate(slots):
        verdicts = verdict_runs[j] if j < len(verdict_runs) else None
        labels = label_runs[j] if j < len(label_runs) else None
        score = scores[j] if j < len(scores) else None
        n = len(trace["steps"]) if trace else 0
        accepted = None
        if trace is not None and verdicts is not None and len(verdicts) == n:
            accepted = [v.get("status") in ACCEPTED for v in verdicts]
            consistent = all(
                v.get("step_index") == i and v.get("problem_id") == trace["problem_id"]
                for i, v in enumerate(verdicts)
            )
            rep.op("verify", consistent and verify_ok(accepted, served, twin),
                   f"trace {j}: verdicts disagree with the spoiled step")
        else:
            rep.op("verify", False, f"trace {j}: verdicts missing or wrong count")
        reasons: list[str] = []
        labels_ok = (
            trace is not None
            and labels is not None
            and check_labels(labels, trace, w, served_gold, reasons)
        )
        rep.op("label", labels_ok, f"trace {j}: {reasons[0] if reasons else 'labels missing'}")
        probs = score.get("step_probs") if score else None
        score_ok = (
            trace is not None
            and probs is not None
            and len(probs) == n
            and score.get("problem_id") == trace["problem_id"]
            and math.isclose(score.get("trajectory_prob", -1.0), math.prod(probs), rel_tol=1e-12)
            and accepted is not None
            and all((p > STEP_THRESHOLD) == a for p, a in zip(probs, accepted))
        )
        rep.op("score", score_ok, f"trace {j}: not the product of its steps, or not as verified")
        judged.append(
            (
                trace,
                labels_ok and all(l["hard_label"] == 1 for l in labels),
                score_ok and all(p > STEP_THRESHOLD for p in probs),
            )
        )

    check_select(d, judged, by_id, rep)
    check_pairs_and_exports(d, judged, label_runs, problems, rep)
    return rep


def verify_ok(accepted: list[bool], served: str, twin: str) -> bool:
    if served == twin:
        return all(accepted)
    mine, clean = split_steps(served), split_steps(twin)
    if len(mine) != len(clean) or len(accepted) != len(mine):
        return False
    spoiled = next((i for i, (a, b) in enumerate(zip(mine, clean)) if a != b), None)
    return (
        spoiled is not None
        and mine[spoiled][0] == "Observation"
        and all(accepted[:spoiled])
        and not accepted[spoiled]
    )


def load_served(path: Path) -> dict[tuple[str, str], dict[int, bool]]:
    """(problem id, prefix digest) -> {seed: gold answer served}."""
    try:
        served = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    out: dict[tuple[str, str], dict[int, bool]] = defaultdict(dict)
    for problem_id, digest, seed, gold in served:
        out[(problem_id, digest)][seed] = gold
    return out


def check_labels(labels, trace, w, served_gold, reasons: list) -> bool:
    steps = trace["steps"]
    if len(labels) != len(steps):
        reasons.append(f"{len(labels)} labels for {len(steps)} steps")
        return False
    for i, lab in enumerate(labels):
        n_success = lab.get("n_success")
        if (
            lab.get("step_index") != i
            or lab.get("n_samples") != w.n_samples
            or len(lab.get("completions", [])) != w.n_samples
            or lab.get("hard_label") != (1 if n_success >= K else -1)
        ):
            reasons.append(f"step {i}: label record malformed")
            return False
        if served_gold is None:
            expected = w.n_samples if w.accuracy == 1.0 else None
        else:
            prefix = prefix_digest(render_prefix(steps, i + 1))
            gold = served_gold.get((trace["problem_id"], prefix), {})
            seeds = range(w.n_samples)
            expected = sum(gold[s] for s in seeds) if all(s in gold for s in seeds) else None
        if expected is None or n_success != expected:
            reasons.append(f"step {i}: n_success {n_success}, expected {expected}")
            return False
    return True


def _trace_key(t: dict) -> tuple:
    return (t.get("problem_id"), t.get("seed_meta", {}).get("sample_index"), t.get("raw_text"))


def check_select(d: Path, judged, by_id, rep: Report) -> None:
    selected = Counter(_trace_key(t) for t in read_records(d / "selected.jsonl") or [])
    for trace, labels_pos, probs_clear in judged:
        if trace is None:
            rep.op("select", False, "trace missing")
            continue
        gold = by_id[trace["problem_id"]]["label"]
        want = trace.get("final_answer") == gold and labels_pos and probs_clear
        key = _trace_key(trace)
        got = selected[key] > 0
        if got:
            selected[key] -= 1
        reason = f"{trace['problem_id']} #{key[1]}: selected={got}, rule says {want}"
        rep.op("select", want == got, reason)
    if sum(selected.values()):
        rep.unexpected(f"{sum(selected.values())} selected traces match no trace")


def check_pairs_and_exports(d: Path, judged, label_runs, problems, rep: Report) -> None:
    scores = read_records(d / "scores.jsonl") or []
    by_problem: dict[str, list[tuple[str, float]]] = defaultdict(list)
    for s in scores:
        by_problem[s.get("problem_id")].append((s.get("trajectory_id"), s.get("trajectory_prob")))
    pairs = read_records(d / "pairs.jsonl")
    dpo = read_records(d / "dpo.jsonl")
    pairs_of: dict[str, list[dict]] = defaultdict(list)
    for p in pairs or []:
        pairs_of[p.get("problem_id")].append(p)
    raw_by_tid = {
        s.get("trajectory_id"): t["raw_text"] for s, (t, _, _) in zip(scores, judged) if t
    }
    hypothesis = {p.id: p.hypothesis.text() for p in problems}

    dpo_at = 0
    for problem in problems:
        want = Counter()
        for (ta, pa), (tb, pb) in combinations(by_problem.get(problem.id, []), 2):
            if abs(pa - pb) > DPO_THRESHOLD:
                chosen, rejected = (ta, tb) if pa > pb else (tb, ta)
                want[(chosen, rejected, round(abs(pa - pb), 12))] += 1
        got = pairs_of.get(problem.id, [])
        got_keys = Counter((p["chosen"], p["rejected"], round(p["gap"], 12)) for p in got)
        rep.op(
            "dpo_pairs",
            pairs is not None and got_keys == want and all(p["gap"] > DPO_THRESHOLD for p in got),
            f"{problem.id}: pairs differ from the scores",
        )
        records = dpo[dpo_at : dpo_at + len(got)] if dpo is not None else []
        dpo_at += len(got)
        rep.op(
            "dpo",
            dpo is not None
            and len(records) == len(got)
            and all(
                r.get("chosen") == raw_by_tid.get(p["chosen"])
                and r.get("rejected") == raw_by_tid.get(p["rejected"])
                and hypothesis[problem.id] in r.get("prompt", "")
                for r, p in zip(records, got)
            ),
            f"{problem.id}: dpo records do not match the pairs",
        )
    if dpo is not None and len(dpo) > dpo_at:
        rep.unexpected(f"{len(dpo) - dpo_at} dpo records beyond the pairs")

    prm = read_records(d / "prm.jsonl") or []
    if len(prm) > len(judged):
        rep.unexpected(f"{len(prm) - len(judged)} prm records beyond the traces")
    for j, (trace, _, _) in enumerate(judged):
        rec = prm[j] if j < len(prm) else None
        labels = label_runs[j] if j < len(label_runs) else []
        ok = (
            trace is not None
            and rec is not None
            and rec.get("steps") == [f"{s['kind']}: {s['text']}" for s in trace["steps"]]
            and rec.get("step_labels") == [l.get("hard_label") for l in labels]
            and hypothesis[trace["problem_id"]] in rec.get("prompt", "")
        )
        rep.op("prm", ok, f"trace {j}: prm record missing or wrong")

    # sft: the selected traces, in order, each with its own record.
    selected = read_records(d / "selected.jsonl") or []
    sft = read_records(d / "sft.jsonl") or []
    if len(sft) > len(selected):
        rep.unexpected(f"{len(sft) - len(selected)} sft records beyond the selected traces")
    exported: dict[tuple, list[bool]] = defaultdict(list)
    for i, sel in enumerate(selected):
        rec = sft[i] if i < len(sft) else None
        exported[_trace_key(sel)].append(
            rec is not None
            and rec.get("response") == sel.get("raw_text")
            and hypothesis.get(sel.get("problem_id"), "\0") in rec.get("prompt", "")
        )
    for trace, _, _ in judged:
        oks = exported.get(_trace_key(trace)) if trace is not None else None
        # A trace that was not selected needs no sft record.
        ok = trace is not None and (oks.pop() if oks else True)
        rep.op("sft", ok, "sft record missing or wrong")
