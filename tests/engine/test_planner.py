"""Tests for engine dispatch planning: explicit override, else heuristic.

The invariants under test:

* **Precedence** — an explicit env/constructor shard threshold is recorded
  as an ``override``; without one the built-in threshold applies and is
  recorded as ``heuristic``.
* **Provenance** — every decision is counted in
  ``EngineRunStats.planner_decisions`` and surfaced through
  ``attach_engine_meta``.
"""

from __future__ import annotations

from repro.circuits.bv import bernstein_vazirani
from repro.engine import CircuitJob, ExecutionEngine
from repro.experiments.runner import ExperimentReport, attach_engine_meta
from repro.quantum.noise import NoiseModel


def _job(job_id: str = "j0", shots: int = 1_024, width: int = 5, **kwargs) -> CircuitJob:
    return CircuitJob(
        job_id=job_id,
        circuit=bernstein_vazirani("1" * width),
        shots=shots,
        noise_model=NoiseModel(),
        **kwargs,
    )


class TestShardPrecedence:
    def test_env_value_is_an_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLE_SHARD_SHOTS", "5000")
        engine = ExecutionEngine()
        engine.run_single(_job(shots=8_192), seed=3)
        stats = engine.last_run_stats
        assert stats.sharded_jobs == 1
        assert stats.sample_shards == 2  # 5000 + 3192, the override layout
        assert stats.planner_decisions["shard"] == {"chunk:5000/override": 1}

    def test_constructor_argument_is_an_override(self):
        engine = ExecutionEngine(sample_shard_shots=4_096)
        engine.run_single(_job(shots=8_192), seed=3)
        assert engine.last_run_stats.sample_shards == 2
        assert engine.last_run_stats.planner_decisions["shard"] == {
            "chunk:4096/override": 1
        }

    def test_heuristic_without_profile(self):
        engine = ExecutionEngine()
        engine.run_single(_job(shots=8_192), seed=3)
        stats = engine.last_run_stats
        assert stats.sharded_jobs == 0
        assert stats.planner_decisions["shard"] == {"none/heuristic": 1}


class TestPlannerProvenance:
    def test_attach_engine_meta_records_planner_block(self):
        engine = ExecutionEngine()
        engine.run([_job(job_id="a"), _job(job_id="b", width=6)], seed=2)
        report = attach_engine_meta(ExperimentReport(name="planner-test"), engine)
        planner = report.meta["planner"]
        assert set(planner) == {"engine", "reduction"}
        assert planner["engine"] == {"shard": {"none/heuristic": 2}}
        assert planner["reduction"]["merges"] == 0
        assert report.meta["engine"]["planner_decisions"]["shard"] == {
            "none/heuristic": 2
        }

    def test_stats_accumulate_merges_decision_counters(self):
        engine = ExecutionEngine()
        engine.run_single(_job(job_id="a"), seed=2)
        engine.run_single(_job(job_id="b", width=6), seed=3)
        assert engine.lifetime_stats.planner_decisions["shard"] == {
            "none/heuristic": 2
        }
