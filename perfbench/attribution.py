"""Per-layer metrics of one traced batch, computed from its spans.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans.  A span's children are the spans that name it as
parent, in any process: pool workers forked inside ``engine`` spans inherit
it as their parent, so on a pooled run the engine's self time is what is
left after the workers' busy intervals are taken out (dispatch, pickling,
hashing, waiting).  Worker layers sum their busy time over all workers.

Whole-run numbers use the batch process's clock stamps: set-up runs from
spawn to the engine being built, and whatever the top-level spans of the
batch process leave uncovered after that is unattributed.
"""

from __future__ import annotations

import math
import statistics

#: Span name -> the per-layer metric its self time adds to.
SELF_TIME = {
    "transpile": "transpile.self_s",
    "ideal": "ideal.self_s",
    "sample": "sample.self_s",
    "engine": "engine.self_s",
    "cache.get": "cache.read_s",
    "cache.put": "cache.write_s",
    "hammer": "hammer.self_s",
    "metrics": "metrics.self_s",
    "maxcut": "maxcut.self_s",
    "report": "report.self_s",
}


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals if b > start and a < end)
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time of every span, keyed by span id."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(children.get(span["id"], []), span["start"], span["end"])
        for span in spans
    }


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(share * len(ordered), 9)))
    return ordered[min(rank, len(ordered)) - 1]


def layer_metrics(spans: list[dict], stamps: dict, main_pid: int) -> dict[str, float]:
    """Every per-layer metric of one traced batch.

    ``stamps`` carries the batch's monotonic clock readings: ``spawn`` (taken
    by the benchmark just before starting the process), ``import_start``,
    ``imported``, ``ready`` and ``done`` (artifact written), plus the
    ``import_scipy_s`` / ``import_networkx_s`` sums parsed from the
    interpreter's import-time log.
    """
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def total(name: str, unit: str) -> int:
        return sum(int(span["units"].get(unit, 0)) for span in by_name.get(name, []))

    metrics: dict[str, float] = {
        key: sum(own[span["id"]] for span in by_name.get(name, []))
        for name, key in SELF_TIME.items()
    }

    wall = stamps["done"] - stamps["spawn"]
    metrics["setup.import_s"] = stamps["imported"] - stamps["import_start"]
    metrics["setup.import_scipy_s"] = stamps["import_scipy_s"]
    metrics["setup.import_networkx_s"] = stamps["import_networkx_s"]
    metrics["setup.engine_init_s"] = stamps["ready"] - stamps["imported"]

    metrics["transpile.calls"] = len(by_name.get("transpile", []))
    metrics["transpile.instructions_out"] = total("transpile", "instructions_out")
    metrics["transpile.swaps"] = total("transpile", "swaps")

    metrics["ideal.calls"] = len(by_name.get("ideal", []))
    metrics["ideal.gates"] = total("ideal", "gates")
    metrics["ideal.amplitude_updates"] = total("ideal", "amplitude_updates")
    metrics["ideal.amplitude_updates_per_s"] = _rate(
        metrics["ideal.amplitude_updates"], metrics["ideal.self_s"]
    )

    metrics["sample.calls"] = len(by_name.get("sample", []))
    metrics["sample.shots"] = total("sample", "shots")
    metrics["sample.shots_per_s"] = _rate(metrics["sample.shots"], metrics["sample.self_s"])

    engine_spans = by_name.get("engine", [])
    metrics["engine.run_s"] = sum(span["end"] - span["start"] for span in engine_spans)
    metrics["engine.jobs"] = total("engine", "jobs")
    metrics["engine.workers"] = max((span["units"]["workers"] for span in engine_spans), default=0)

    metrics["cache.hits"] = total("cache.get", "hits")
    metrics["cache.misses"] = total("cache.get", "misses")
    metrics["cache.disk_bytes"] = stamps["cache_disk_bytes"]

    calls = by_name.get("hammer", [])
    durations_ms = [1000.0 * (span["end"] - span["start"]) for span in calls]
    metrics["hammer.calls"] = len(calls)
    metrics["hammer.call_p50_ms"] = percentile(durations_ms, 0.50) if calls else 0.0
    metrics["hammer.call_p95_ms"] = percentile(durations_ms, 0.95) if calls else 0.0
    metrics["hammer.outcomes"] = total("hammer", "outcomes")
    metrics["hammer.pairs"] = total("hammer", "pairs")
    metrics["hammer.pairs_per_s"] = _rate(metrics["hammer.pairs"], metrics["hammer.self_s"])
    metrics["hammer.lowest_level_share"] = _median(calls, "lowest_level_share")
    metrics["hammer.count_levels_p50"] = _median(calls, "levels")
    metrics["hammer.dense_call_share"] = (
        sum(span["units"]["dense"] for span in calls) / len(calls) if calls else 0.0
    )

    top_level = [
        (span["start"], span["end"])
        for span in spans
        if span["parent"] is None and span["pid"] == main_pid
    ]
    unattributed = (stamps["done"] - stamps["ready"]) - covered(
        top_level, stamps["ready"], stamps["done"]
    )
    metrics["unattributed_s"] = unattributed
    metrics["unattributed_share"] = unattributed / wall
    return {name: metrics[name] for name in METRICS}


#: Every metric :func:`layer_metrics` returns, grouped by layer, in order.
METRICS = (
    "setup.import_s",
    "setup.import_scipy_s",
    "setup.import_networkx_s",
    "setup.engine_init_s",
    "transpile.calls",
    "transpile.self_s",
    "transpile.instructions_out",
    "transpile.swaps",
    "ideal.calls",
    "ideal.self_s",
    "ideal.gates",
    "ideal.amplitude_updates",
    "ideal.amplitude_updates_per_s",
    "sample.calls",
    "sample.self_s",
    "sample.shots",
    "sample.shots_per_s",
    "engine.run_s",
    "engine.self_s",
    "engine.jobs",
    "engine.workers",
    "cache.read_s",
    "cache.write_s",
    "cache.hits",
    "cache.misses",
    "cache.disk_bytes",
    "hammer.calls",
    "hammer.self_s",
    "hammer.call_p50_ms",
    "hammer.call_p95_ms",
    "hammer.outcomes",
    "hammer.pairs",
    "hammer.pairs_per_s",
    "hammer.lowest_level_share",
    "hammer.count_levels_p50",
    "hammer.dense_call_share",
    "metrics.self_s",
    "maxcut.self_s",
    "report.self_s",
    "unattributed_s",
    "unattributed_share",
)


#: Metrics that count work.  They repeat exactly for the same inputs, so the
#: benchmark requires every traced batch of a run to agree on them.
WORK_UNITS = (
    "transpile.calls",
    "transpile.instructions_out",
    "transpile.swaps",
    "ideal.calls",
    "ideal.gates",
    "ideal.amplitude_updates",
    "sample.calls",
    "sample.shots",
    "engine.jobs",
    "engine.workers",
    "cache.hits",
    "cache.misses",
    "hammer.calls",
    "hammer.outcomes",
    "hammer.pairs",
    "hammer.lowest_level_share",
    "hammer.count_levels_p50",
    "hammer.dense_call_share",
)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _median(spans: list[dict], unit: str) -> float:
    return float(statistics.median(span["units"][unit] for span in spans)) if spans else 0.0
