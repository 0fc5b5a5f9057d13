"""Workload shapes. Every input is made from the workload seed alone.

A workload draws its problems with ``gen-problems --seed SEED`` and gives the
same seed to the mock that answers generation requests. Samples come in
groups of a fixed sloppiness: a group at sloppiness 0 gives clean traces, a
group at sloppiness 1 spoils one derivation step in every trace. Fixing how
many traces of each kind a problem gets keeps the number of operations, and
the number that the trajectory-id collision makes fail, the same share on
every seed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SampleGroup:
    n: int  # samples per problem
    sloppiness: float


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str  # "oracle-mock" in process, or "http" to the stand-in endpoint
    lengths: tuple[int, ...]
    count: int  # problems per length
    groups: tuple[SampleGroup, ...]
    accuracy: float
    n_samples: int  # completions per prefix in label
    service_delay_ms: float = 0.0  # stand-in only

    @property
    def n_problems(self) -> int:
        return self.count * len(self.lengths)

    @property
    def samples_per_problem(self) -> int:
        return sum(g.n for g in self.groups)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mock-shared",
            backend="oracle-mock",
            lengths=(7, 8, 9),
            count=7,
            groups=(SampleGroup(2, 0.0), SampleGroup(1, 1.0)),
            accuracy=1.0,
            n_samples=4,
        ),
        Workload(
            name="http-unique",
            backend="http",
            lengths=(5, 6),
            count=3,
            groups=(SampleGroup(1, 0.3),),
            accuracy=0.7,
            n_samples=4,
            service_delay_ms=20.0,
        ),
        Workload(
            name="long-chain",
            backend="oracle-mock",
            lengths=(14, 15, 16),
            count=3,
            groups=(SampleGroup(1, 1.0),),
            accuracy=1.0,
            n_samples=2,
        ),
    )
}

# Threads of generate_batch, and so connections on http-unique, on every workload.
PARALLELISM = 2

# Selection and pairing thresholds the pipeline runs with (the CLI defaults).
STEP_THRESHOLD = 0.5
DPO_THRESHOLD = 0.25
K = 1
