"""Tests for the calibrated cost model: fitting, persistence, precedence."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.core import costmodel, tuning
from repro.core.costmodel import (
    CostCurve,
    MachineProfile,
    fit_cost_curve,
    load_profile,
    profile_path,
    save_profile,
)
from repro.core.kernels import DENSE_SUPPORT_MAX, choose_plan
from repro.exceptions import CostModelError


@pytest.fixture(autouse=True)
def _isolated_costmodel():
    """Each test starts with no active profile and clean decision counters."""
    costmodel.set_active_profile(None)
    costmodel.reset_decisions()
    yield
    costmodel.reset_active_profile()
    costmodel.reset_decisions()


_STATEVECTOR = CostCurve(terms=("pow2q_q", "1"), coefficients=(1e-8, 1e-5))
_STABILIZER = CostCurve(terms=("q3", "q2", "1"), coefficients=(1e-7, 0.0, 1e-4))


def _profile(**overrides) -> MachineProfile:
    fields = dict(
        sampler=CostCurve(
            terms=("shots_qubits", "shots", "1"), coefficients=(1e-8, 1e-7, 1e-4)
        ),
        shard={"chunk_shots": 2048.0, "min_shots": 2048.0, "per_chunk_overhead": 1e-4},
        engine={"per_job_overhead": 1e-4, "parallel_min_seconds": 0.05},
        backends={"statevector": _STATEVECTOR, "stabilizer": _STABILIZER},
        tuning={"tile_entries": float(1 << 22)},
    )
    fields.update(overrides)
    return MachineProfile(**fields)


class TestFitting:
    def test_fit_recovers_known_coefficients(self):
        rows = [
            {"n": n, "w": w}
            for n in (1_000, 2_000, 4_000, 8_000)
            for w in (1, 2, 5, 10)
        ]
        seconds = [2e-9 * r["n"] ** 2 * r["w"] + 5e-6 * r["n"] + 1e-3 for r in rows]
        curve = fit_cost_curve(("n2w", "n", "1"), rows, seconds)
        for row, expected in zip(rows, seconds):
            assert curve.predict(**row) == pytest.approx(expected, rel=1e-3)

    def test_fit_never_produces_negative_coefficients(self):
        rows = [{"n": n, "w": 1} for n in (100, 200, 400, 800)]
        # Concave-ish data that a plain lstsq would fit with a negative
        # quadratic term.
        seconds = [1e-5 * n for n in (100, 200, 390, 760)]
        curve = fit_cost_curve(("n2w", "n", "1"), rows, seconds)
        assert all(coefficient >= 0.0 for coefficient in curve.coefficients)
        assert curve.predict(n=10_000, w=1) >= 0.0

    def test_fit_validates_shapes(self):
        with pytest.raises(CostModelError, match="feature rows"):
            fit_cost_curve(("n", "1"), [{"n": 1}], [0.1, 0.2])
        with pytest.raises(CostModelError, match="cannot fit"):
            fit_cost_curve(("n", "1"), [{"n": 1}], [0.1])

    def test_curve_rejects_unknown_terms_and_shape_mismatch(self):
        with pytest.raises(CostModelError, match="unknown cost term"):
            CostCurve(terms=("banana",), coefficients=(1.0,))
        with pytest.raises(CostModelError, match="terms but"):
            CostCurve(terms=("n", "1"), coefficients=(1.0,))


class TestPersistence:
    def test_json_round_trip_preserves_fingerprint(self, tmp_path):
        profile = _profile()
        path = save_profile(profile, tmp_path / "profile.json")
        loaded = load_profile(path)
        assert loaded is not None
        assert loaded.fingerprint() == profile.fingerprint()
        assert loaded.to_json() == profile.to_json()

    def test_serialization_is_stable(self):
        profile = _profile()
        assert profile.to_json() == profile.to_json()
        # Insertion order must not leak into the artifact.
        reordered = _profile(backends={"stabilizer": _STABILIZER, "statevector": _STATEVECTOR})
        assert reordered.to_json() == profile.to_json()

    def test_missing_file_is_silent_none(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_profile(tmp_path / "absent.json") is None

    def test_version_mismatch_warns_and_falls_back(self, tmp_path):
        payload = json.loads(_profile().to_json())
        payload["version"] = 999
        path = tmp_path / "future.json"
        path.write_text(json.dumps(payload))
        with pytest.warns(UserWarning, match="version"):
            assert load_profile(path) is None
        with pytest.raises(CostModelError, match="version"):
            MachineProfile.from_dict(payload)

    def test_corrupt_file_warns_and_falls_back(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json")
        with pytest.warns(UserWarning, match="falling back"):
            assert load_profile(path) is None

    def test_profile_path_env_precedence(self, monkeypatch):
        for disabled in ("off", "none", "disabled", "", "  OFF "):
            monkeypatch.setenv(costmodel.ENV_PROFILE, disabled)
            assert profile_path() is None
        monkeypatch.setenv(costmodel.ENV_PROFILE, "/tmp/somewhere.json")
        assert str(profile_path()) == "/tmp/somewhere.json"
        monkeypatch.delenv(costmodel.ENV_PROFILE)
        default = profile_path()
        assert default is not None and default.name == "machine_profile.json"

    def test_active_profile_loads_from_env_path(self, tmp_path, monkeypatch):
        path = save_profile(_profile(), tmp_path / "profile.json")
        monkeypatch.setenv(costmodel.ENV_PROFILE, str(path))
        costmodel.reset_active_profile()
        active = costmodel.active_profile()
        assert active is not None
        assert costmodel.active_fingerprint() == active.fingerprint()
        # The cached result survives env changes until an explicit reset.
        monkeypatch.setenv(costmodel.ENV_PROFILE, "off")
        assert costmodel.active_profile() is active
        costmodel.reset_active_profile()
        assert costmodel.active_profile() is None


class TestDecisions:
    def test_shard_layout_thresholds(self):
        profile = _profile()
        assert profile.shard_layout(1_000) is None
        assert profile.shard_layout(2_048) is None
        assert profile.shard_layout(8_192) == 2_048
        assert _profile(shard={}).shard_layout(10**9) is None

    def test_effective_workers_break_even(self):
        profile = _profile()
        assert profile.effective_workers(0.001, 4) == 1
        assert profile.effective_workers(1.0, 4) == 4
        assert profile.effective_workers(None, 4) == 4
        assert profile.effective_workers(0.001, 1) == 1
        assert _profile(engine={}).effective_workers(0.001, 4) == 4

    def test_backend_choice_requires_full_ranking(self):
        profile = _profile()
        # At 4 qubits the stabilizer cubic beats the statevector exponential
        # only when the constants say so; just assert the argmin is honoured.
        choice = profile.backend_choice(("stabilizer", "statevector"), qubits=20, gates=40)
        assert choice == "stabilizer"
        partial = _profile(backends={"stabilizer": _profile().backends["stabilizer"]})
        assert partial.backend_choice(("stabilizer", "statevector"), 20, 40) is None

    def test_decision_counters(self):
        costmodel.record_decision("kernel", "levels", "heuristic")
        costmodel.record_decision("kernel", "levels", "heuristic")
        costmodel.record_decision("backend", "stabilizer", "heuristic")
        assert costmodel.decision_counts() == {
            "kernel": {"levels/heuristic": 2},
            "backend": {"stabilizer/heuristic": 1},
        }
        costmodel.reset_decisions()
        assert costmodel.decision_counts() == {}


class TestChoosePlanPrecedence:
    def test_heuristic_without_profile(self):
        assert choose_plan(DENSE_SUPPORT_MAX, 16) == "dense"
        assert choose_plan(5_000, 16) == "levels"
        assert choose_plan(5_000, 640) == "levels"
        counts = costmodel.decision_counts()["kernel"]
        assert counts["dense/heuristic"] == 1
        assert counts["levels/heuristic"] == 2

    def test_env_override_beats_profile(self, monkeypatch):
        costmodel.set_active_profile(_profile())
        monkeypatch.setenv("REPRO_HAMMER_KERNEL", "dense")
        assert choose_plan(5_000, 16) == "dense"
        assert costmodel.decision_counts()["kernel"] == {"dense/override": 1}

    def test_dense_boundary_immune_to_profile(self):
        # Supports at or below DENSE_SUPPORT_MAX hold the golden fixtures;
        # a profile — even one with a tuned tile size — never reroutes them,
        # and larger supports always run levels.
        costmodel.set_active_profile(_profile(tuning={"tile_entries": float(1 << 23)}))
        assert choose_plan(DENSE_SUPPORT_MAX, 16) == "dense"
        assert choose_plan(DENSE_SUPPORT_MAX + 1, 16) == "levels"
        assert costmodel.decision_counts()["kernel"] == {
            "dense/heuristic": 1,
            "levels/heuristic": 1,
        }


class TestTileEntriesPrecedence:
    def test_profile_beats_cache_default(self):
        untuned = tuning.tile_entries()
        costmodel.set_active_profile(_profile(tuning={"tile_entries": float(1 << 23)}))
        assert tuning.tile_entries() == 1 << 23
        costmodel.set_active_profile(None)
        assert tuning.tile_entries() == untuned

    def test_env_beats_profile_and_clamp_applies_last(self, monkeypatch):
        costmodel.set_active_profile(_profile(tuning={"tile_entries": float(1 << 23)}))
        monkeypatch.setenv("REPRO_TILE_ENTRIES", str(1 << 21))
        assert tuning.tile_entries() == 1 << 21
        monkeypatch.delenv("REPRO_TILE_ENTRIES")
        costmodel.set_active_profile(_profile(tuning={"tile_entries": float(1 << 30)}))
        assert tuning.tile_entries() == 1 << 23  # clamped to the sane maximum

    def test_tuning_report_carries_fingerprint(self):
        assert tuning.tuning_report()["machine_profile"] == "untuned"
        profile = _profile()
        costmodel.set_active_profile(profile)
        assert tuning.tuning_report()["machine_profile"] == profile.fingerprint()
