"""The benchmark's workloads and how a run seed becomes their inputs.

Two study families, each a paper figure run through the library's public
API.  Their sizes are the paper sweeps cut down so that one batch (a fresh
process running the whole figure) takes seconds, not minutes:

* ``bv`` is Figure 8: one Bernstein-Vazirani key per width 5-16 on each of
  the three IBM device models, 8192 shots (36 circuits).  The full figure
  uses seven keys per width (252 circuits).
* ``qaoa`` is Figure 10(a): grid-graph QAOA on 12 and 18 nodes at p = 1-5,
  8192 shots, untranspiled (10 circuits).  The full figure averages over
  10-20 nodes in steps of two; its 20-node circuits alone need about 2.5 GB.
  The 18-node circuits keep the full figure's shape: dense statevector
  simulation first, then HAMMER, then brute-force max-cut.

Figure 8 runs at ``--jobs 2`` on an empty cache dir.  Before timing, each
run also replays the same inputs at ``--jobs 1`` on the cache the untimed
warm-up batch filled, and requires bit-identical rows: the engine's
worker-count and cache-hit identity.

A run seed selects one of ten study seeds; every study seed has a reference
artifact recorded under ``references/``.  The held-out study seed is never
selected by a run seed, only by ``--held-out``, so a later claim can be
rechecked on inputs nobody tuned against.
"""

from __future__ import annotations

from dataclasses import dataclass

FAMILIES = {
    "bv": {"qubit_range": [5, 16], "keys_per_size": 1, "shots": 8192},
    "qaoa": {"node_values": [12, 18], "layer_values": [1, 2, 3, 4, 5], "shots": 8192},
}

#: The paper's own seed for each figure comes first, so run seed 0 is the
#: configuration the figure scripts use.
STUDY_SEEDS = {
    "bv": tuple(8 + 100 * step for step in range(10)),
    "qaoa": tuple(20 + 100 * step for step in range(10)),
}
HELD_OUT_SEEDS = {"bv": 9008, "qaoa": 9020}


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    jobs: int
    #: Fill a cache untimed, replay it at ``--jobs 1`` and require identical rows.
    warm_check: bool
    why: str


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "bv-fig8-j2", "bv", jobs=2, warm_check=True,
            why="Figure 8 BV sweep at --jobs 2 on an empty cache dir: every engine "
                "phase in pool workers, cache writes, HAMMER serially in the parent; "
                "a --jobs 1 cache replay must match bit for bit",
        ),
        Workload(
            "qaoa-fig10", "qaoa", jobs=1, warm_check=False,
            why="Figure 10(a) QAOA grid sweep, serial and cold: dense untranspiled "
                "statevectors, cost ratios and brute-force max-cut, sets peak memory",
        ),
    )
}


def study_seed(family: str, run_seed: int, held_out: bool = False) -> int:
    """The study seed a run uses: the held-out one, or one picked by ``run_seed``."""
    if held_out:
        return HELD_OUT_SEEDS[family]
    seeds = STUDY_SEEDS[family]
    return seeds[run_seed % len(seeds)]


def circuits_per_row(family: str) -> int:
    """How many circuits one artifact row stands for.

    A BV row is one circuit; a Figure 10(a) row averages one circuit per
    node count at its depth.
    """
    return 1 if family == "bv" else len(FAMILIES["qaoa"]["node_values"])
