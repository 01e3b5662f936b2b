"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q            # about three minutes
    python3 -m pytest perfbench/selftest.py -q -m "not slow"

The file is deliberately not named ``test_*.py``: the repository's test
suite does not collect it, and it runs only when named.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import attribution
import run
import spans
from checks import failed_circuits, load_reference, reference_circuits
from workloads import WORKLOADS, circuits_per_row

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=200,
    )


@pytest.mark.slow
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    completed = run_benchmark(workload, trace)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, completed.stdout
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    # The human-readable table names every metric with its unit, and the
    # error rate, which is zero on a passing run and so is not a gated metric.
    table = "\n".join(lines[:-1])
    for metric in declared:
        assert f" {metric['name']} " in table
    assert " error_rate " in table


def test_benchmark_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_benchmark("qaoa-fig10", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_measured_batches_pin_one_thread_and_unpinned_keep_the_callers(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    pinned = run.batch_env(ROOT)
    unpinned = run.batch_env(ROOT, pinned=False)
    assert {name: pinned[name] for name in run.PINNED} == run.PINNED
    assert unpinned["OPENBLAS_NUM_THREADS"] == "3"
    assert "OMP_NUM_THREADS" not in unpinned
    for env in (pinned, unpinned):
        assert env["PYTHONPATH"].split(os.pathsep)[0] == str(ROOT / "src")


@pytest.mark.parametrize("family", ["bv", "qaoa"])
def test_output_check_rejects_a_row_perturbed_beyond_tolerance(family):
    reference = load_reference(family, 8 if family == "bv" else 20)
    artifact = copy.deepcopy(reference)
    assert failed_circuits(artifact, reference, family) == 0

    row = artifact["rows"][1]
    key = next(name for name, value in row.items() if isinstance(value, float) and value)
    row[key] = reference["rows"][1][key] * (1 + 1e-13)
    assert failed_circuits(artifact, reference, family) == 0

    row[key] = reference["rows"][1][key] * (1 + 1e-6)
    assert failed_circuits(artifact, reference, family) == circuits_per_row(family)

    row[key] = None
    assert failed_circuits(artifact, reference, family) == circuits_per_row(family)

    artifact = copy.deepcopy(reference)
    integer = next(name for name, value in artifact["rows"][0].items() if type(value) is int)
    artifact["rows"][0][integer] += 1
    assert failed_circuits(artifact, reference, family) == circuits_per_row(family)

    artifact = copy.deepcopy(reference)
    artifact["rows"].pop()
    assert failed_circuits(artifact, reference, family) == reference_circuits(reference, family)


def _traced_bv_units(tmp_path: Path, name: str) -> dict:
    from repro.engine import ExecutionEngine
    from repro.experiments import BvStudyConfig, run_bv_study

    spool = tmp_path / name
    spool.mkdir()
    tracer = spans.Tracer(name, str(spool))
    installed = spans.install(tracer)
    try:
        with ExecutionEngine(max_workers=2) as engine:
            run_bv_study(BvStudyConfig(qubit_range=(5, 7), shots=1024), engine=engine)
    finally:
        spans.uninstall(installed)
    recorded = tracer.collect()
    start = min(span["start"] for span in recorded)
    end = max(span["end"] for span in recorded)
    stamps = {
        "spawn": start, "import_start": start, "imported": start, "ready": start, "done": end,
        "import_scipy_s": 0.0, "import_networkx_s": 0.0, "cache_disk_bytes": 0,
    }
    return attribution.layer_metrics(recorded, stamps, main_pid=tracer.pid)


def test_wrappers_restore_the_original_functions(tmp_path):
    targets = spans._targets()
    originals = [owner.__dict__[attribute] for owner, attribute, _, _ in targets]
    _traced_bv_units(tmp_path, "restore")
    for (owner, attribute, _, _), original in zip(targets, originals):
        assert owner.__dict__[attribute] is original, f"{owner}.{attribute} still wrapped"


def test_work_unit_counts_are_identical_across_two_runs(tmp_path):
    first = _traced_bv_units(tmp_path, "first")
    second = _traced_bv_units(tmp_path, "second")
    # Pool workers report through their spool files, so the worker-side
    # layers must be there too.
    assert first["transpile.calls"] == first["ideal.calls"] == first["sample.calls"] > 0
    assert first["hammer.calls"] == first["engine.jobs"] == 18
    assert {key: first[key] for key in attribution.WORK_UNITS} == {
        key: second[key] for key in attribution.WORK_UNITS
    }


def test_self_time_subtracts_the_union_of_children():
    spans_ = [
        {"id": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "b", "parent": "a", "start": 1.0, "end": 4.0},
        {"id": "c", "parent": "a", "start": 3.0, "end": 6.0},
        {"id": "d", "parent": "c", "start": 3.5, "end": 4.5},
    ]
    own = attribution.self_times(spans_)
    assert own == {"a": 5.0, "b": 3.0, "c": 2.0, "d": 1.0}
