"""Spans recorded from outside the library, around each layer's entry points.

A traced batch installs wrappers on the names the library looks up at call
time: the engine's module-level ``transpile`` / ``sample_bitflip_*``, the
statevector backend's ``ideal_distribution``, the cache's ``get`` / ``put``,
the engine's ``run``, and the ``hammer``, metric and max-cut names each
study module bound at import.  Nothing in the library changes;
:func:`uninstall` puts every original back.

Each span keeps its name, start, end, parent span and run id in memory, plus
work units counted from the call's inputs and outputs (never from timers).
Pool workers forked from a traced process inherit the wrappers; their spans
are appended to one spool file per worker, since a worker's memory never
returns to the parent.  :meth:`Tracer.collect` gathers both.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """In-memory span recorder shared by the wrappers of one batch."""

    def __init__(self, run_id: str, spool_dir: str) -> None:
        self.run_id = run_id
        self.spool_dir = Path(spool_dir)
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._counter = 0

    def open(self, name: str) -> dict:
        self._counter += 1
        span = {
            "id": f"{os.getpid()}:{self._counter}",
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "run": self.run_id,
            "pid": os.getpid(),
            "start": time.monotonic(),
            "end": None,
            "units": {},
        }
        self._stack.append(span)
        return span

    def close(self, span: dict, end: float, units: dict | None = None) -> None:
        span["end"] = end
        if units:
            span["units"] = units
        self._stack.pop()
        if os.getpid() == self.pid:
            self.spans.append(span)
        else:
            path = self.spool_dir / f"worker-{os.getpid()}.jsonl"
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(span) + "\n")

    @contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as one span."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span, time.monotonic())

    def collect(self) -> list[dict]:
        """This process's spans plus every span the pool workers spooled."""
        spans = list(self.spans)
        for path in sorted(self.spool_dir.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                spans.extend(json.loads(line) for line in handle if line.strip())
        return spans


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _transpile_units(args, kwargs, result) -> dict:
    return {"instructions_out": len(result.circuit), "swaps": int(result.num_swaps)}


def _ideal_units(args, kwargs, result) -> dict:
    circuit = _arg(args, kwargs, 1, "circuit")
    gates = len(circuit)
    return {"gates": gates, "amplitude_updates": gates << circuit.num_qubits}


def _batch_units(args, kwargs, result) -> dict:
    requests = _arg(args, kwargs, 2, "requests")
    return {"shots": sum(int(shots) for shots, _ in requests)}


def _shots_units(args, kwargs, result) -> dict:
    return {"shots": int(_arg(args, kwargs, 2, "shots"))}


def _engine_units(args, kwargs, result) -> dict:
    return {"jobs": len(result), "workers": int(args[0].max_workers)}


def _cache_get_units(args, kwargs, result) -> dict:
    return {"hits": int(result is not None), "misses": int(result is None)}


def _hammer_units(args, kwargs, result) -> dict:
    """Support shape of the input histogram.

    ``levels`` counts distinct count values (probabilities are counts over
    shots, so equal counts give equal floats).  A call is *dense* when the
    full ``2^n`` space is no larger than ``N * levels``.
    """
    import numpy as np

    distribution = _arg(args, kwargs, 0, "distribution")
    probabilities = distribution.packed().probabilities
    outcomes = int(probabilities.size)
    levels = int(np.unique(probabilities).size)
    lowest = int(np.count_nonzero(probabilities == probabilities.min()))
    return {
        "outcomes": outcomes,
        "pairs": outcomes * outcomes,
        "levels": levels,
        "lowest_level_share": lowest / outcomes,
        "dense": int((1 << distribution.num_bits) <= outcomes * levels),
    }


def _targets() -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, work-unit function) for every wrapper.

    Modules come from :func:`importlib.import_module`, i.e. ``sys.modules``:
    ``repro.core.hammer`` read as an attribute is the re-exported function,
    not the module.
    """
    engine = importlib.import_module("repro.engine.engine")
    cache = importlib.import_module("repro.engine.cache")
    statevector = importlib.import_module("repro.backends.statevector_backend")
    bv_study = importlib.import_module("repro.experiments.bv_study")
    layers_study = importlib.import_module("repro.experiments.layers_study")
    maxcut = importlib.import_module("repro.maxcut.cost")
    return [
        (engine, "transpile", "transpile", _transpile_units),
        (statevector.StatevectorBackend, "ideal_distribution", "ideal", _ideal_units),
        (engine, "sample_bitflip_batch", "sample", _batch_units),
        (engine, "sample_bitflip_chunk", "sample", _shots_units),
        (engine.ExecutionEngine, "run", "engine", _engine_units),
        (cache.ExecutionCache, "get", "cache.get", _cache_get_units),
        (cache.ExecutionCache, "put", "cache.put", None),
        (bv_study, "hammer", "hammer", _hammer_units),
        (layers_study, "hammer", "hammer", _hammer_units),
        (bv_study, "probability_of_successful_trial", "metrics", None),
        (bv_study, "inference_strength", "metrics", None),
        (bv_study, "relative_improvement", "metrics", None),
        (layers_study, "cost_ratio", "metrics", None),
        (layers_study, "grid_graph_problem", "maxcut", None),
        (maxcut.CutCostEvaluator, "minimum_cost", "maxcut", None),
        (maxcut.CutCostEvaluator, "costs_for_distribution", "maxcut", None),
    ]


def _wrap(tracer: Tracer, original, name: str, units_fn):
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        except BaseException:
            tracer.close(span, time.monotonic())
            raise
        end = time.monotonic()
        tracer.close(span, end, units_fn(args, kwargs, result) if units_fn else None)
        return result

    wrapper.__wrapped__ = original
    return wrapper


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target; returns what :func:`uninstall` needs to undo it."""
    installed = []
    for owner, attribute, name, units_fn in _targets():
        original = owner.__dict__[attribute]
        setattr(owner, attribute, _wrap(tracer, original, name, units_fn))
        installed.append((owner, attribute, original))
    return installed


def uninstall(installed: list[tuple[object, str, object]]) -> None:
    """Restore the original attributes, last wrapped first."""
    for owner, attribute, original in reversed(installed):
        setattr(owner, attribute, original)
