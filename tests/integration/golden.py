"""The golden corpus: pinned virtual-time outcomes of litmus and chaos runs.

Every case here is a seeded, fully deterministic run. Its record holds
the outcome counts, the violation strings, the kernel's
``processed_events``, a digest of every memory node's final object
state, and each memory node's per-verb totals. Any change to the
kernel, the fabric, the memory model or a protocol that moves virtual
behaviour at all moves at least one of those fields, so
``tests/integration/test_golden_corpus.py`` replays every case and
compares it with ``golden_corpus.json`` field by field.

Cases:

* litmus — {litmus1_direct_write, litmus3_indirect_write} x
  {clean, crashing (p=0.3), sanitized} x all five protocols, each at
  ``rounds=12, seed=7``;
* chaos — ``generate_schedule`` seeds 0-9 for pandora and 0-4 (one per
  fault family) for ford, tradlog, lotus and vote1pc.

Regenerating the corpus is a deliberate act, never a side effect::

    PYTHONPATH=src python -m tests.integration.golden

rewrites the JSON. Log every regeneration, and why the pinned
behaviour had to move, in CHANGES.md. The first generation ran while
the single-heap scheduler and the pre-refactor engine still existed,
and asserted that both produced the same record as the default build
for every case they could run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List

from repro.chaos import ChaosRunner, generate_schedule, state_fingerprint
from repro.litmus import LitmusRunner, litmus1_direct_write, litmus3_indirect_write

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "golden_corpus.json")

PROTOCOLS = ("pandora", "ford", "tradlog", "lotus", "vote1pc")

LITMUS_SPECS = {
    "litmus1": litmus1_direct_write,
    "litmus3": litmus3_indirect_write,
}

#: mode -> (crash_probability, sanitize)
LITMUS_MODES = {
    "clean": (0.0, False),
    "crashing": (0.3, False),
    "sanitized": (0.0, True),
}

#: The scheduler bank for the flagship; one seed per fault family
#: (``seed % 5`` selects it) for every other protocol.
CHAOS_SEEDS = {
    "pandora": range(10),
    "ford": range(5),
    "tradlog": range(5),
    "lotus": range(5),
    "vote1pc": range(5),
}

LITMUS_ROUNDS = 12
LITMUS_SEED = 7


@dataclass(frozen=True)
class Case:
    kind: str  # "litmus" | "chaos"
    protocol: str
    spec: str = ""
    mode: str = ""
    seed: int = 0

    @property
    def id(self) -> str:
        if self.kind == "litmus":
            return f"{self.spec}-{self.mode}-{self.protocol}"
        return f"chaos-{self.protocol}-{self.seed}"


CASES: List[Case] = [
    Case("litmus", protocol, spec=spec, mode=mode)
    for spec in LITMUS_SPECS
    for mode in LITMUS_MODES
    for protocol in PROTOCOLS
] + [
    Case("chaos", protocol, seed=seed)
    for protocol, seeds in CHAOS_SEEDS.items()
    for seed in seeds
]


def _verb_counts(cluster) -> Dict[str, Dict[str, int]]:
    return {
        str(node_id): dict(sorted(node.verb_counts.items()))
        for node_id, node in sorted(cluster.memory_nodes.items())
    }


def _run_litmus(case: Case) -> dict:
    crash_probability, sanitize = LITMUS_MODES[case.mode]
    runner = LitmusRunner(
        LITMUS_SPECS[case.spec](),
        protocol=case.protocol,
        rounds=LITMUS_ROUNDS,
        seed=LITMUS_SEED,
        crash_probability=crash_probability,
        sanitize=sanitize,
    )
    report = runner.run()
    cluster = runner.cluster
    return {
        "committed": report.commits,
        "aborts": report.aborts,
        "unknown": report.unknown,
        "crashes": report.crashes_injected,
        "violations": [str(v) for v in report.violations],
        "processed_events": cluster.sim.processed_events,
        "fingerprint": state_fingerprint(cluster),
        "verb_counts": _verb_counts(cluster),
    }


def _run_chaos(case: Case) -> dict:
    runner = ChaosRunner(generate_schedule(case.seed, protocol=case.protocol))
    result = runner.run()
    cluster = runner.cluster
    return {
        "committed": result.committed,
        "crashes": result.crashes,
        "recovery_kills": result.recovery_kills,
        "violations": [str(v) for v in result.violations],
        "processed_events": cluster.sim.processed_events,
        "fingerprint": result.fingerprint,
        "verb_counts": _verb_counts(cluster),
    }


def run_case(case: Case) -> dict:
    """Run *case* once and return its record (JSON-shaped)."""
    runner = _run_litmus if case.kind == "litmus" else _run_chaos
    return runner(case)


def load_corpus() -> Dict[str, dict]:
    with open(CORPUS_PATH) as handle:
        return json.load(handle)


def generate() -> Dict[str, dict]:
    """Run every case once and return the corpus."""
    corpus = {}
    for case in CASES:
        corpus[case.id] = record = run_case(case)
        print(f"{case.id}: fp={record['fingerprint']:016x}")
    return corpus


def main() -> None:
    corpus = generate()
    with open(CORPUS_PATH, "w") as handle:
        json.dump(corpus, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(corpus)} cases to {CORPUS_PATH}")


if __name__ == "__main__":
    main()
