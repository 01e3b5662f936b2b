"""``repro tune``: the one-time microbenchmark suite behind the cost model.

This module measures, on the current machine, everything the autoscheduling
dispatchers in :mod:`repro.core.costmodel` need to rank implementations by
predicted seconds:

* the **bit-flip sampler** across a (shots × qubits) grid — fitted as
  ``a·shots·qubits + b·shots + c``;
* the **shard layout**: chunked sampling of one large job at several chunk
  sizes, yielding the best chunk size, the fitted per-chunk overhead, and
  the shot count above which sharding pays;
* the **engine overhead**: per-job fixed cost and the process-pool
  break-even (``parallel_min_seconds``) below which fanning a batch out
  loses to dispatch latency;
* the **ideal-simulation backends** on circuits both can run (Clifford BV)
  — statevector fitted against ``2^q·q``, stabilizer against ``q³ + q²``;
* the best **pairwise tile size** (``tile_entries``) by direct search.

All inputs are seeded, every measurement is a best-of-``repeats`` minimum
(robust to scheduler noise), and the fitted profile serializes stably — the
same measurements always produce byte-identical JSON.  The suite is sized
to finish in seconds (``quick=True``, the CI default) or tens of seconds
(full grid); it runs *once* per machine, then every subsequent run loads
the persisted profile.
"""

from __future__ import annotations

import os
import time
from typing import Any

import numpy as np

from repro.core import costmodel, tuning
from repro.core.costmodel import CostCurve, MachineProfile, fit_cost_curve
from repro.experiments.runner import ExperimentReport

__all__ = ["run_tune", "TuneConfig"]

#: Chunk-size candidates for the shard bench, capped well below the memory
#: cliff of one chunk's (shots × qubits) scratch matrices.
_QUICK_CHUNKS = (131_072, 262_144, 524_288)
_FULL_CHUNKS = (65_536, 131_072, 262_144, 524_288, 1_048_576)
_MAX_CHUNK_SHOTS = 2_097_152

_SAMPLER_TERMS = ("shots_qubits", "shots", "1")
_STATEVECTOR_TERMS = ("pow2q_q", "1")
_STABILIZER_TERMS = ("q3", "q2", "1")


class TuneConfig:
    """Grid sizes of one tuning run (``quick`` = CI-friendly subset)."""

    def __init__(self, quick: bool = True, seed: int = 0) -> None:
        self.quick = bool(quick)
        self.seed = int(seed)
        if quick:
            self.tile_support = 4_096
            self.sampler_shots = (4_096, 32_768)
            self.sampler_qubits = (8, 12)
            self.shard_chunks = _QUICK_CHUNKS
            self.shard_total_shots = 786_432
            self.backend_qubits = (6, 10, 14)
            self.tile_candidates = (1 << 20, 1 << 21, 1 << 22)
            self.repeats = 2
        else:
            self.tile_support = 8_192
            self.sampler_shots = (4_096, 32_768, 131_072)
            self.sampler_qubits = (8, 12, 14)
            self.shard_chunks = _FULL_CHUNKS
            self.shard_total_shots = 2_097_152
            self.backend_qubits = (6, 10, 14, 18)
            self.tile_candidates = (1 << 20, 1 << 21, 1 << 22, 1 << 23)
            self.repeats = 3


def _best_of(repeats: int, fn) -> float:
    """Minimum wall time over ``repeats`` calls (robust location estimate)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _synthetic_support(width: int, support: int, seed: int):
    """A clustered synthetic histogram, the shape HAMMER actually sees."""
    from repro.core.bitstring import PackedOutcomes
    from repro.core.distribution import Distribution

    rng = np.random.default_rng(seed)
    center = rng.integers(0, 2, size=width, dtype=np.uint8)
    draws = max(6 * support, 20_000)
    bits = (rng.random((draws, width)) < 0.3).astype(np.uint8) ^ center
    unique = np.unique(bits, axis=0)[:support]
    weights = rng.random(unique.shape[0]) + 1e-3
    distribution = Distribution.from_packed(
        PackedOutcomes.from_bit_matrix(unique), weights=weights
    )
    distribution.packed()  # pack outside every timed region
    return distribution


def _tune_noop(value: float) -> float:
    """Module-level no-op shipped to workers by the pool-overhead bench."""
    return value


def _bv_circuit(qubits: int, seed: int):
    from repro.circuits.bv import bernstein_vazirani

    rng = np.random.default_rng((seed, qubits))
    key = "".join(str(bit) for bit in rng.integers(0, 2, size=qubits))
    if "1" not in key:  # degenerate oracle: no CX ladder, unrepresentative
        key = "1" + key[1:]
    return bernstein_vazirani(key)


# ---------------------------------------------------------------------------
# Benches
# ---------------------------------------------------------------------------
def _bench_sampler(config: TuneConfig, rows: list[dict[str, Any]]) -> CostCurve:
    """Time unsharded bit-flip sampling across the (shots × qubits) grid."""
    from repro.backends import get_backend
    from repro.quantum.noise import NoiseModel
    from repro.quantum.sampler import sample_bitflip_distribution

    noise_model = NoiseModel()
    feature_rows: list[dict[str, float]] = []
    targets: list[float] = []
    for qubits in config.sampler_qubits:
        circuit = _bv_circuit(qubits, config.seed)
        ideal = get_backend("statevector").ideal_distribution(circuit)
        for shots in config.sampler_shots:
            rng_factory = lambda: np.random.default_rng(  # noqa: E731
                np.random.SeedSequence((config.seed, qubits, shots))
            )
            sample_bitflip_distribution(
                circuit, noise_model, min(shots, 1_024), rng=rng_factory(), ideal=ideal
            )  # warm-up
            seconds = _best_of(
                config.repeats,
                lambda: sample_bitflip_distribution(
                    circuit, noise_model, shots, rng=rng_factory(), ideal=ideal
                ),
            )
            feature_rows.append({"shots": shots, "qubits": qubits})
            targets.append(seconds)
            rows.append(
                {"bench": "sampler", "qubits": qubits, "shots": shots, "seconds": seconds}
            )
    return fit_cost_curve(_SAMPLER_TERMS, feature_rows, targets)


def _bench_shard(config: TuneConfig, rows: list[dict[str, Any]]) -> dict[str, float]:
    """Chunked sampling of one large job: best chunk size + per-chunk overhead."""
    from repro.backends import get_backend
    from repro.engine.engine import DEFAULT_SAMPLE_SHARD_SHOTS
    from repro.quantum.noise import NoiseModel
    from repro.quantum.sampler import (
        merge_counted_chunks,
        sample_bitflip_chunk,
        sample_bitflip_distribution,
    )

    noise_model = NoiseModel()
    circuit = _bv_circuit(12, config.seed + 1)
    ideal = get_backend("statevector").ideal_distribution(circuit)
    total = config.shard_total_shots

    def run_sharded(chunk_shots: int) -> None:
        sizes = [chunk_shots] * (total // chunk_shots)
        if total % chunk_shots:
            sizes.append(total % chunk_shots)
        segments = []
        for index, size in enumerate(sizes):
            rng = np.random.default_rng(np.random.SeedSequence((config.seed, 7, index)))
            segments.append(
                sample_bitflip_chunk(circuit, noise_model, size, rng, ideal=ideal)
            )
        merge_counted_chunks(segments, circuit.num_qubits)

    run_sharded(max(config.shard_chunks))  # warm-up
    unsharded_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 7)))
    unsharded_seconds = _best_of(
        config.repeats,
        lambda: sample_bitflip_distribution(
            circuit, noise_model, total, rng=unsharded_rng, ideal=ideal
        ),
    )
    per_shot = unsharded_seconds / total
    feature_rows: list[dict[str, float]] = []
    targets: list[float] = []
    chunk_seconds: dict[int, float] = {}
    for chunk_shots in config.shard_chunks:
        if chunk_shots > _MAX_CHUNK_SHOTS:
            continue
        seconds = _best_of(config.repeats, lambda: run_sharded(chunk_shots))
        num_chunks = -(-total // chunk_shots)
        chunk_seconds[chunk_shots] = seconds
        feature_rows.append({"chunks": num_chunks})
        targets.append(seconds)
        rows.append(
            {
                "bench": "shard",
                "chunk_shots": chunk_shots,
                "chunks": num_chunks,
                "seconds": seconds,
            }
        )
    overhead_curve = fit_cost_curve(("chunks", "1"), feature_rows, targets)
    per_chunk_overhead = overhead_curve.coefficients[0]
    best_chunk = min(chunk_seconds, key=lambda chunk: (chunk_seconds[chunk], chunk))
    # Sharding at the best chunk costs a constant *fraction* of the sampling
    # work (overhead per chunk over work per chunk).  When that fraction is
    # small, shard as soon as a job fills two chunks — bounded memory for
    # free; when it is not, keep the historical threshold so small sweeps
    # never pay it.
    overhead_fraction = per_chunk_overhead / max(per_shot * best_chunk, 1e-12)
    if overhead_fraction <= 0.10:
        min_shots = 2 * best_chunk
    else:
        min_shots = max(2 * best_chunk, DEFAULT_SAMPLE_SHARD_SHOTS)
    rows.append(
        {
            "bench": "shard_decision",
            "chunk_shots": best_chunk,
            "min_shots": min_shots,
            "per_chunk_overhead": per_chunk_overhead,
            "overhead_fraction": overhead_fraction,
        }
    )
    return {
        "chunk_shots": float(best_chunk),
        "min_shots": float(min_shots),
        "per_chunk_overhead": float(per_chunk_overhead),
        "per_shot_seconds": float(per_shot),
    }


def _bench_engine(config: TuneConfig, rows: list[dict[str, Any]]) -> dict[str, float]:
    """Per-job engine overhead and the process-pool break-even."""
    from repro.engine.engine import ExecutionEngine
    from repro.engine.jobs import CircuitJob
    from repro.quantum.noise import NoiseModel

    noise_model = NoiseModel()
    num_jobs = 8
    jobs = [
        CircuitJob(
            job_id=f"tune-{index}",
            circuit=_bv_circuit(5 + (index % 3), config.seed + 2 + index),
            shots=64,
            noise_model=noise_model,
        )
        for index in range(num_jobs)
    ]
    with ExecutionEngine() as engine:
        engine.run(jobs[:2], seed=config.seed)  # warm caches/imports
    with ExecutionEngine() as engine:
        start = time.perf_counter()
        engine.run(jobs, seed=config.seed)
        wall = time.perf_counter() - start
        stats = engine.last_run_stats
    work = stats.prepare_seconds + stats.sample_seconds
    per_job_overhead = max(wall - work, 0.0) / num_jobs

    payload = [0.0] * 8
    with ExecutionEngine() as serial_engine:
        serial_engine.map_timed(_tune_noop, payload)  # symmetry with the pool warm-up
        serial_start = time.perf_counter()
        serial_engine.map_timed(_tune_noop, payload)
        serial_wall = time.perf_counter() - serial_start
    with ExecutionEngine(max_workers=2) as pool_engine:
        pool_engine.map_timed(_tune_noop, payload)  # spawn + import outside the clock
        pool_start = time.perf_counter()
        pool_engine.map_timed(_tune_noop, payload)
        pool_wall = time.perf_counter() - pool_start
    dispatch_overhead = max(pool_wall - serial_wall, 0.0)
    # A batch is worth parallelising when the pool's dispatch tax is a small
    # fraction of the work; clamp so a noisy measurement can neither disable
    # the pool entirely nor serialize genuinely large batches.
    parallel_min_seconds = min(max(4.0 * dispatch_overhead, 0.02), 2.0)
    rows.append(
        {
            "bench": "engine",
            "per_job_overhead": per_job_overhead,
            "pool_dispatch_overhead": dispatch_overhead,
            "parallel_min_seconds": parallel_min_seconds,
        }
    )
    return {
        "per_job_overhead": float(per_job_overhead),
        "parallel_min_seconds": float(parallel_min_seconds),
    }


def _bench_backends(
    config: TuneConfig, rows: list[dict[str, Any]]
) -> dict[str, CostCurve]:
    """Time both backends on Clifford circuits they can each run."""
    from repro.backends import get_backend

    measurements: dict[str, tuple[list[dict[str, float]], list[float]]] = {
        "statevector": ([], []),
        "stabilizer": ([], []),
    }
    for qubits in config.backend_qubits:
        circuit = _bv_circuit(qubits, config.seed + 3)
        gates = len(circuit.instructions)
        for name in ("statevector", "stabilizer"):
            backend = get_backend(name)
            backend.ideal_distribution(circuit)  # warm-up
            seconds = _best_of(
                config.repeats, lambda: backend.ideal_distribution(circuit)
            )
            feature_rows, targets = measurements[name]
            feature_rows.append({"qubits": qubits, "gates": gates})
            targets.append(seconds)
            rows.append(
                {"bench": "backend", "backend": name, "qubits": qubits, "seconds": seconds}
            )
    return {
        "statevector": fit_cost_curve(
            _STATEVECTOR_TERMS, *measurements["statevector"]
        ),
        "stabilizer": fit_cost_curve(_STABILIZER_TERMS, *measurements["stabilizer"]),
    }


def _bench_tile_entries(config: TuneConfig, rows: list[dict[str, Any]]) -> int:
    """Direct search over tile sizes on one large-support HAMMER shape.

    The tile size sets the float accumulation *order* inside the ``levels``
    plan's sweeps, so two tile sizes generally disagree at the last ulp.  The tuned
    profile must never change results, so the search only adopts a
    non-default candidate whose scores are bit-identical to the default's;
    otherwise it keeps the cache-derived default and records the measured
    timings in the tune report (``REPRO_TILE_ENTRIES`` remains the explicit,
    result-affecting override for users who want the faster size anyway).
    """
    from repro.core.hammer import neighborhood_scores

    distribution = _synthetic_support(
        width=63, support=config.tile_support, seed=config.seed + 4
    )
    previous = os.environ.get("REPRO_TILE_ENTRIES")
    os.environ.pop("REPRO_TILE_ENTRIES", None)
    try:
        default_entries = tuning.tile_entries()
        default_scores = neighborhood_scores(distribution).scores
        best_entries, best_seconds = default_entries, float("inf")
        candidates = sorted(set(config.tile_candidates) | {default_entries})
        for entries in candidates:
            os.environ["REPRO_TILE_ENTRIES"] = str(entries)
            result = neighborhood_scores(distribution)  # warm-up
            seconds = _best_of(
                config.repeats, lambda: neighborhood_scores(distribution)
            )
            identical = result.scores == default_scores
            rows.append(
                {
                    "bench": "tile",
                    "tile_entries": entries,
                    "seconds": seconds,
                    "bit_identical_to_default": identical,
                }
            )
            if identical and seconds < best_seconds:
                best_entries, best_seconds = entries, seconds
    finally:
        if previous is None:
            os.environ.pop("REPRO_TILE_ENTRIES", None)
        else:
            os.environ["REPRO_TILE_ENTRIES"] = previous
    return best_entries


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def run_tune(quick: bool = True, seed: int = 0) -> tuple[MachineProfile, ExperimentReport]:
    """Run the full microbenchmark suite and fit a :class:`MachineProfile`.

    Returns ``(profile, report)``: the profile ready for
    :func:`~repro.core.costmodel.save_profile`, and an
    :class:`~repro.experiments.runner.ExperimentReport` with one row per
    measurement and the fitted decisions.  Any active profile is
    suspended for the duration so the stopwatch sees the raw
    implementations, never profile-steered ones.
    """
    config = TuneConfig(quick=quick, seed=seed)
    previous = costmodel.active_profile()
    costmodel.set_active_profile(None)
    rows: list[dict[str, Any]] = []
    wall_start = time.perf_counter()
    try:
        sampler = _bench_sampler(config, rows)
        shard = _bench_shard(config, rows)
        engine = _bench_engine(config, rows)
        backends = _bench_backends(config, rows)
        tile_entries = _bench_tile_entries(config, rows)
    finally:
        costmodel.set_active_profile(previous)
    profile = MachineProfile(
        machine={
            "cache_bytes": tuning.detected_cache_bytes(),
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
            "quick": config.quick,
            "seed": config.seed,
        },
        tuning={"tile_entries": float(tile_entries)},
        sampler=sampler,
        shard=shard,
        engine=engine,
        backends=backends,
    )
    report = ExperimentReport(
        name="tune_machine_profile",
        rows=rows,
        summary={
            "chunk_shots": shard["chunk_shots"],
            "min_shard_shots": shard["min_shots"],
            "parallel_min_seconds": engine["parallel_min_seconds"],
            "tile_entries": float(tile_entries),
            "tune_seconds": time.perf_counter() - wall_start,
        },
        meta={
            "quick": config.quick,
            "seed": config.seed,
            "profile_fingerprint": profile.fingerprint(),
            "profile_version": costmodel.PROFILE_VERSION,
        },
    )
    return profile, report
