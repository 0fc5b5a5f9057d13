"""Where the traced run wraps the program, and the per-layer metrics.

Each wrapper goes where the caller looks the name up: ``rules.entails`` and
``problems.entails`` are the same function imported twice, and wrapping
``semantics.entails`` alone would catch neither call. A metric named
``*_self_s`` is the layer's time minus its child spans; other ``*_s``
metrics include the children.
"""

from __future__ import annotations

import os

from spans import percentile


def install(tracer, symtraj, http: bool) -> None:
    from symtraj import cli, llm, mock, problems, rules, semantics, supervision, trajectory

    def count_interpretations(verdict, args, kwargs):
        tracer.add("semantics.interpretations", verdict.interpretations_explored)

    def count_budget(exc):
        if isinstance(exc, semantics.BudgetExceeded):
            tracer.add("semantics.budget_exceeded")

    for owner in (rules, problems):
        tracer.install(owner, "entails", "semantics.entails", count_interpretations, count_budget)

    def count_rule_hit(verdict, args, kwargs):
        if verdict.status is rules.VerdictStatus.VERIFIED_BY_RULE:
            tracer.add("rules.verified_by_rule")

    tracer.install(rules, "verify_step", "rules.verify_step", count_rule_hit)

    def count_distinct(resp, args, kwargs):
        req = args[1]
        messages = tuple((m.get("role"), m.get("content")) for m in req.messages)
        tracer.add_distinct(
            "llm.distinct_requests", (hash(messages), req.seed, req.temperature, req.max_tokens)
        )

    backend_cls = llm.HttpBackend if http else mock.OracleMockBackend
    tracer.install(backend_cls, "generate", "llm.generate", count_distinct)
    for owner in (cli, supervision):
        tracer.install(owner, "generate_batch", "llm.generate_batch")
        tracer.install(owner, "parse_trajectory", "trajectory.parse")
        tracer.install(owner, "build_sampling_prompt", "trajectory.prompt")
    tracer.install(supervision, "build_completion_prompt", "trajectory.prompt")
    tracer.install(cli, "trajectory_from_dict", "trajectory.from_dict")
    tracer.install(trajectory, "parse_formula", "fol.parse")
    tracer.install(trajectory, "parse_prefix", "fol.parse")
    tracer.install(problems, "parse_formula", "fol.parse")

    tracer.install(cli, "mc_label", "supervision.mc_label")
    tracer.install(
        cli, "select_trajectories", "supervision.select",
        lambda selected, a, k: tracer.add("supervision.selected", len(selected)),
    )
    tracer.install(
        cli, "build_dpo_pairs", "supervision.dpo_pairs",
        lambda pairs, a, k: tracer.add("supervision.dpo_pairs", len(pairs)),
    )
    for name in ("export_prm_dataset", "export_sft_dataset", "export_dpo_dataset"):
        tracer.install(cli, name, "supervision.export")

    tracer.install(cli, "generate_logicasker", "problems.generate")
    tracer.install(cli, "load_problems", "problems.load")

    def count_written(result, args, kwargs):
        tracer.add("jsonl.mb_written", os.path.getsize(args[0]) / 1e6)

    for owner in (cli, problems):
        tracer.install(owner, "read_jsonl", "jsonl.read")
    for owner in (cli, problems, supervision):
        tracer.install(owner, "write_jsonl", "jsonl.write", count_written)


STAGES = ("gen", "sample", "verify", "label", "score", "select", "dpo_pairs", "export")


def metrics(tracer, endpoint: dict | None) -> dict[str, float]:
    """Per-layer numbers of one traced round; endpoint holds the stand-in's
    counters on http-unique and is None when the mock runs in process."""
    s = tracer.summary(keep_durations=("llm.generate",))
    c = tracer.counters

    def total(name):
        return s.get(name, {}).get("total_s", 0.0)

    def count(name):
        return s.get(name, {}).get("count", 0)

    def self_time(name):
        return s.get(name, {}).get("self_s", 0.0)

    out = {f"cli.{stage}_s": total(f"cli.{stage}") for stage in STAGES}
    step_calls = count("rules.verify_step")
    gen_calls = count("llm.generate")
    latencies_ms = [d * 1000 for d in s.get("llm.generate", {}).get("durations", [])]
    entails_parents = s.get("semantics.entails", {}).get("parents", {})
    out.update(
        {
            "semantics.entails_calls": count("semantics.entails"),
            "semantics.entails_s": total("semantics.entails"),
            "semantics.interpretations": c["semantics.interpretations"],
            "semantics.budget_exceeded": c["semantics.budget_exceeded"],
            "rules.verify_step_calls": step_calls,
            "rules.verify_step_self_s": self_time("rules.verify_step"),
            "rules.verified_by_rule": c["rules.verified_by_rule"],
            "rules.oracle_fallbacks": entails_parents.get("rules.verify_step", 0),
            "rules.rule_hit_ratio": c["rules.verified_by_rule"] / step_calls if step_calls else 0.0,
            "llm.batches": count("llm.generate_batch"),
            "llm.batch_s": total("llm.generate_batch"),
            "llm.generate_calls": gen_calls,
            "llm.distinct_requests": c["llm.distinct_requests"],
            "llm.distinct_ratio": c["llm.distinct_requests"] / gen_calls if gen_calls else 0.0,
            "llm.generate_s": total("llm.generate"),
            "llm.latency_p50_ms": percentile(latencies_ms, 50),
            "llm.latency_p95_ms": percentile(latencies_ms, 95),
            "trajectory.parse_calls": count("trajectory.parse"),
            "trajectory.parse_s": total("trajectory.parse"),
            "trajectory.from_dict_s": total("trajectory.from_dict"),
            "trajectory.prompt_s": total("trajectory.prompt"),
            "fol.parse_calls": count("fol.parse"),
            "fol.parse_s": total("fol.parse"),
            "supervision.mc_label_self_s": self_time("supervision.mc_label"),
            "supervision.select_s": total("supervision.select"),
            "supervision.export_s": total("supervision.export"),
            "supervision.selected": c["supervision.selected"],
            "supervision.dpo_pairs": c["supervision.dpo_pairs"],
            "problems.generate_s": total("problems.generate"),
            "problems.load_s": total("problems.load"),
            "jsonl.read_s": total("jsonl.read"),
            "jsonl.write_s": total("jsonl.write"),
            "jsonl.mb_written": c["jsonl.mb_written"],
        }
    )
    if endpoint is None:
        # The mock answers in process: its generate is the serving side.
        out["mock.generate_s"] = total("llm.generate")
        out["endpoint.requests"] = gen_calls
        out["endpoint.busy_s"] = total("llm.generate")
    else:
        out["mock.generate_s"] = endpoint["mock_generate_s"]
        out["endpoint.requests"] = endpoint["requests"]
        out["endpoint.busy_s"] = endpoint["busy_s"]
    return out
