"""Calibrated cost model behind the autoscheduling dispatchers.

Several dispatch decisions in the stack — whether (and how) to shard a
large sampling job, how many worker processes a batch deserves, which
ideal-simulation backend to use for a Clifford circuit, and the tile size
of the pairwise-Hamming sweeps — were historically hand-tuned heuristics
with fixed crossovers.  This module replaces those constants with a
*calibrated* model in the style of Ahrens & Kjolstad's asymptotic
cost-model autoscheduling: ``repro tune`` (see
:mod:`repro.engine.autotune`) times each implementation across a small
deterministic microbenchmark grid once per machine, fits the known
asymptotic cost terms by least squares (e.g. ``a·shots·qubits + b·shots +
c`` for the sampler), and persists the fitted curves as a versioned
:class:`MachineProfile` JSON.  The dispatchers then rank implementations by
*predicted* seconds instead of by fixed thresholds.  The HAMMER kernel plan
is not among them: it follows support size alone (see
:func:`repro.core.kernels.choose_plan`).

Precedence is strict and uniform across every consumer::

    explicit env override  >  tuned MachineProfile  >  built-in heuristic

(``REPRO_SAMPLE_SHARD_SHOTS`` beats the profile's shard layout,
``REPRO_TILE_ENTRIES`` beats its tile sizing) — and with no profile on disk
every consumer falls back to the historical heuristics **bit-identically**.

The profile lives at ``~/.cache/repro/machine_profile.json`` by default;
``REPRO_TUNE_PROFILE`` points somewhere else (the values ``off`` / ``none``
/ the empty string disable loading entirely, which is how the test suite
isolates itself from a developer's tuned machine).  A corrupt or
version-mismatched file is rejected with a warning and the heuristics take
over — a stale profile must never break a run.

Scheduling decisions are recorded in a lightweight process-global counter
(:func:`record_decision` / :func:`decision_counts`) that
``attach_engine_meta`` snapshots into ``ExperimentReport.meta``, so any
JSON artifact shows how its sweep was scheduled.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.exceptions import CostModelError

__all__ = [
    "PROFILE_VERSION",
    "ENV_PROFILE",
    "CostCurve",
    "MachineProfile",
    "fit_cost_curve",
    "load_profile",
    "save_profile",
    "profile_path",
    "active_profile",
    "active_fingerprint",
    "set_active_profile",
    "reset_active_profile",
    "record_decision",
    "decision_counts",
    "reset_decisions",
]

#: Schema version of the persisted profile.  Bumped whenever the curve
#: basis, the decision procedures, or the JSON layout change incompatibly;
#: profiles of any other version are rejected (with a warning) at load.
PROFILE_VERSION = 1

ENV_PROFILE = "REPRO_TUNE_PROFILE"

#: Env values that disable profile loading outright (no default path probe).
_DISABLED_VALUES = frozenset({"", "off", "none", "disabled"})

# ---------------------------------------------------------------------------
# Cost-curve basis
# ---------------------------------------------------------------------------
#: The named asymptotic terms a curve may combine.  Each maps a feature dict
#: to one regressor value; fitting solves for non-negative per-term
#: coefficients.  Features: ``n`` (support size), ``w`` (uint64 words),
#: ``shots``, ``qubits``, ``chunks``, ``gates``.
_TERMS = {
    "1": lambda f: 1.0,
    "n": lambda f: float(f["n"]),
    "n2": lambda f: float(f["n"]) ** 2,
    "w": lambda f: float(f["w"]),
    "nw": lambda f: float(f["n"]) * float(f["w"]),
    "n2w": lambda f: float(f["n"]) ** 2 * float(f["w"]),
    "shots": lambda f: float(f["shots"]),
    "shots_qubits": lambda f: float(f["shots"]) * float(f["qubits"]),
    "qubits": lambda f: float(f["qubits"]),
    "chunks": lambda f: float(f["chunks"]),
    "pow2q": lambda f: 2.0 ** float(f["qubits"]),
    "pow2q_q": lambda f: 2.0 ** float(f["qubits"]) * float(f["qubits"]),
    "q2": lambda f: float(f["qubits"]) ** 2,
    "q3": lambda f: float(f["qubits"]) ** 3,
}


def _round_coefficient(value: float) -> float:
    """Stable short decimal form so serialized curves are platform-stable."""
    return float(f"{float(value):.6e}")


@dataclass(frozen=True)
class CostCurve:
    """A fitted cost curve: non-negative coefficients over named terms.

    ``predict`` evaluates ``Σ c_i · term_i(features)`` — seconds, by
    construction of the fit.  Terms are restricted to the :data:`_TERMS`
    registry so a persisted curve is self-describing and a profile written
    by a newer build with unknown terms fails loudly at load.
    """

    terms: tuple[str, ...]
    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.terms) != len(self.coefficients):
            raise CostModelError(
                f"cost curve has {len(self.terms)} terms but "
                f"{len(self.coefficients)} coefficients"
            )
        for term in self.terms:
            if term not in _TERMS:
                raise CostModelError(
                    f"unknown cost term {term!r}; expected one of {sorted(_TERMS)}"
                )

    def predict(self, **features: float) -> float:
        """Predicted seconds for one feature point."""
        return float(
            sum(
                coefficient * _TERMS[term](features)
                for term, coefficient in zip(self.terms, self.coefficients)
            )
        )

    def as_dict(self) -> dict[str, object]:
        return {"terms": list(self.terms), "coefficients": list(self.coefficients)}

    @classmethod
    def from_dict(cls, payload: object) -> "CostCurve":
        if not isinstance(payload, dict) or "terms" not in payload or "coefficients" not in payload:
            raise CostModelError(f"cost curve must be {{terms, coefficients}}, got {payload!r}")
        return cls(
            terms=tuple(str(term) for term in payload["terms"]),
            coefficients=tuple(float(value) for value in payload["coefficients"]),
        )


def fit_cost_curve(
    terms: tuple[str, ...], feature_rows: list[dict[str, float]], seconds: list[float]
) -> CostCurve:
    """Fit non-negative coefficients for ``terms`` to measured ``seconds``.

    Non-negativity matters: a plain least-squares fit of collinear
    asymptotic terms happily turns one coefficient negative, and a curve
    that predicts negative seconds at some shape would invert every argmin
    the dispatchers take.  Uses ``scipy.optimize.nnls`` (deterministic)
    with a clipped ``numpy.linalg.lstsq`` fallback, and rounds coefficients
    to a short stable decimal form so fitting the same measurements always
    serializes identically.
    """
    if len(feature_rows) != len(seconds):
        raise CostModelError(
            f"{len(feature_rows)} feature rows but {len(seconds)} measurements"
        )
    if len(feature_rows) < len(terms):
        raise CostModelError(
            f"cannot fit {len(terms)} terms from {len(feature_rows)} measurements"
        )
    design = np.array(
        [[_TERMS[term](row) for term in terms] for row in feature_rows], dtype=float
    )
    target = np.asarray(seconds, dtype=float)
    # Scale columns to comparable magnitude: the raw regressors span ~1e0
    # (the constant) to ~1e9 (N²·w), which wrecks the conditioning of the
    # normal equations nnls solves.
    scales = np.maximum(np.abs(design).max(axis=0), 1e-30)
    try:
        from scipy.optimize import nnls

        scaled, _ = nnls(design / scales, target)
        coefficients = scaled / scales
    except ImportError:  # pragma: no cover - scipy ships with the test env
        solution, *_ = np.linalg.lstsq(design / scales, target, rcond=None)
        coefficients = np.clip(solution, 0.0, None) / scales
    return CostCurve(
        terms=tuple(terms),
        coefficients=tuple(_round_coefficient(value) for value in coefficients),
    )


# ---------------------------------------------------------------------------
# MachineProfile
# ---------------------------------------------------------------------------
@dataclass
class MachineProfile:
    """Fitted per-machine cost curves plus the scheduling decisions they imply.

    Attributes
    ----------
    machine:
        Provenance of the tuning run (cache bytes, cpu count, numpy
        version); informational only, never consulted by decisions.
    tuning:
        Tuned sizing constants (``tile_entries``); consulted by
        :mod:`repro.core.tuning` below its env overrides.
    sampler:
        Bit-flip sampling cost over ``(shots, qubits)``.
    shard:
        ``chunk_shots`` (best measured chunk size), ``min_shots`` (shot
        count above which sharding pays) and ``per_chunk_overhead``
        (fitted fixed cost of one extra chunk).
    engine:
        ``per_job_overhead`` and ``parallel_min_seconds`` — the predicted
        batch work below which fanning out over a process pool loses to
        dispatch overhead.
    backends:
        Backend name → cost curve over ``(qubits, gates)`` for ideal
        simulation.
    """

    version: int = PROFILE_VERSION
    machine: dict[str, object] = field(default_factory=dict)
    tuning: dict[str, float] = field(default_factory=dict)
    sampler: CostCurve | None = None
    shard: dict[str, float] = field(default_factory=dict)
    engine: dict[str, float] = field(default_factory=dict)
    backends: dict[str, CostCurve] = field(default_factory=dict)

    # -- serialization --------------------------------------------------
    def as_dict(self) -> dict[str, object]:
        return {
            "version": self.version,
            "machine": dict(self.machine),
            "tuning": dict(self.tuning),
            "sampler": self.sampler.as_dict() if self.sampler is not None else None,
            "shard": dict(self.shard),
            "engine": dict(self.engine),
            "backends": {name: curve.as_dict() for name, curve in sorted(self.backends.items())},
        }

    def to_json(self) -> str:
        """Stable serialization: sorted keys, short stable floats."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, payload: object) -> "MachineProfile":
        if not isinstance(payload, dict):
            raise CostModelError(f"machine profile must be a JSON object, got {type(payload).__name__}")
        version = payload.get("version")
        if version != PROFILE_VERSION:
            raise CostModelError(
                f"machine profile version {version!r} does not match this build's "
                f"version {PROFILE_VERSION}; re-run 'repro tune'"
            )
        sampler = payload.get("sampler")
        return cls(
            version=PROFILE_VERSION,
            machine=dict(payload.get("machine", {})),
            tuning={str(k): float(v) for k, v in dict(payload.get("tuning", {})).items()},
            sampler=CostCurve.from_dict(sampler) if sampler is not None else None,
            shard={str(k): float(v) for k, v in dict(payload.get("shard", {})).items()},
            engine={str(k): float(v) for k, v in dict(payload.get("engine", {})).items()},
            backends={
                str(name): CostCurve.from_dict(curve)
                for name, curve in dict(payload.get("backends", {})).items()
            },
        )

    @classmethod
    def from_json(cls, text: str) -> "MachineProfile":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise CostModelError(f"machine profile is not valid JSON: {error}") from error
        return cls.from_dict(payload)

    def fingerprint(self) -> str:
        """Content hash of everything a scheduling decision can depend on.

        ``machine`` is provenance, not behaviour, and is excluded — two
        profiles that schedule identically share a fingerprint.
        """
        payload = self.as_dict()
        payload.pop("machine", None)
        digest = hashlib.sha256(b"repro-machine-profile-v1")
        digest.update(json.dumps(payload, sort_keys=True).encode("utf-8"))
        return digest.hexdigest()

    # -- scheduling decisions -------------------------------------------
    def predict_sample_seconds(self, shots: int, qubits: int) -> float | None:
        """Predicted seconds of one unsharded bit-flip sampling job."""
        if self.sampler is None:
            return None
        return self.sampler.predict(shots=shots, qubits=qubits)

    def shard_layout(self, shots: int) -> int | None:
        """Chunk size for a sampling job, or ``None`` when sharding loses.

        A job shards when it is large enough to fill at least two of the
        tuned chunks *and* exceeds the tuned pay-off threshold
        (``min_shots`` — large when the measured per-chunk overhead is a
        big fraction of a chunk's sampling work, small when chunking is
        nearly free).  Returns ``None`` (unsharded) otherwise.
        """
        chunk_shots = int(self.shard.get("chunk_shots", 0))
        if chunk_shots <= 0:
            return None
        min_shots = int(self.shard.get("min_shots", 2 * chunk_shots))
        if shots <= max(min_shots, chunk_shots):
            return None
        return chunk_shots

    def effective_workers(self, predicted_seconds: float | None, requested: int) -> int:
        """Worker count worth using for a batch of predicted serial work.

        Fanning a batch out over the process pool pays a fixed dispatch
        cost (pickling, IPC, result collection) measured at tune time as
        ``parallel_min_seconds``; below that much predicted work the pool
        only adds latency and the batch runs serially.  Unknown work
        (``None``) keeps the requested count — never degrade on no data.
        """
        if requested <= 1 or predicted_seconds is None:
            return requested
        threshold = float(self.engine.get("parallel_min_seconds", 0.0))
        if threshold > 0.0 and predicted_seconds < threshold:
            return 1
        return requested

    def predict_backend_seconds(self, backend: str, qubits: int, gates: int) -> float | None:
        """Predicted ideal-simulation seconds for one circuit on a backend."""
        curve = self.backends.get(backend)
        if curve is None:
            return None
        return curve.predict(qubits=qubits, gates=gates)

    def backend_choice(
        self, candidates: tuple[str, ...], qubits: int, gates: int
    ) -> str | None:
        """Cheapest candidate backend by predicted cost, or ``None``.

        Returns ``None`` when any candidate lacks a fitted curve — a
        partial ranking must not override the heuristic.
        """
        best_name: str | None = None
        best_seconds = float("inf")
        for name in candidates:
            seconds = self.predict_backend_seconds(name, qubits, gates)
            if seconds is None:
                return None
            if seconds < best_seconds:
                best_name, best_seconds = name, seconds
        return best_name


# ---------------------------------------------------------------------------
# Persistence and the active profile
# ---------------------------------------------------------------------------
def profile_path() -> Path | None:
    """Where the active profile lives (``None`` when loading is disabled).

    ``REPRO_TUNE_PROFILE`` overrides the default
    ``~/.cache/repro/machine_profile.json``; the values ``off`` / ``none``
    / ``disabled`` / empty disable loading entirely.
    """
    raw = os.environ.get(ENV_PROFILE)
    if raw is not None:
        if raw.strip().lower() in _DISABLED_VALUES:
            return None
        return Path(raw).expanduser()
    return Path("~/.cache/repro").expanduser() / "machine_profile.json"


def load_profile(path: Path | str) -> MachineProfile | None:
    """Load a profile from disk, or ``None`` (with a warning) when unusable.

    A missing file is the normal untuned state and returns ``None``
    silently; corrupt JSON, schema violations and version mismatches warn
    and fall back — a stale profile degrades to heuristics, never to a
    crash.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    except OSError as error:
        warnings.warn(
            f"ignoring unreadable machine profile {path}: {error}; "
            f"falling back to built-in heuristics",
            stacklevel=2,
        )
        return None
    try:
        return MachineProfile.from_json(text)
    except CostModelError as error:
        warnings.warn(
            f"ignoring machine profile {path}: {error}; "
            f"falling back to built-in heuristics",
            stacklevel=2,
        )
        return None


def save_profile(profile: MachineProfile, path: Path | str) -> Path:
    """Write a profile (stable JSON) to ``path``, creating parent dirs."""
    path = Path(path).expanduser()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(profile.to_json(), encoding="utf-8")
    return path


#: Sentinel distinguishing "not loaded yet" from "loaded, none found".
_UNSET = object()
_active: object = _UNSET


def active_profile() -> MachineProfile | None:
    """The process-wide tuned profile, loaded lazily from :func:`profile_path`.

    The result (including "no profile") is cached; call
    :func:`reset_active_profile` after changing ``REPRO_TUNE_PROFILE`` or
    rewriting the file.
    """
    global _active
    if _active is _UNSET:
        path = profile_path()
        _active = load_profile(path) if path is not None else None
    return _active  # type: ignore[return-value]


def active_fingerprint() -> str | None:
    """Fingerprint of the active profile, or ``None`` when untuned."""
    profile = active_profile()
    return profile.fingerprint() if profile is not None else None


def set_active_profile(profile: MachineProfile | None) -> None:
    """Install a profile programmatically (``None`` = run on heuristics)."""
    global _active
    _active = profile


def reset_active_profile() -> None:
    """Forget the cached profile so the next use reloads from disk/env."""
    global _active
    _active = _UNSET


# ---------------------------------------------------------------------------
# Decision recording
# ---------------------------------------------------------------------------
#: ``{kind: {"choice/source": count}}`` — e.g. ``{"kernel": {"levels/heuristic": 3}}``.
_decisions: dict[str, dict[str, int]] = {}


def record_decision(kind: str, choice: str, source: str) -> None:
    """Count one scheduling decision (``source`` ∈ override/profile/heuristic)."""
    bucket = _decisions.setdefault(kind, {})
    key = f"{choice}/{source}"
    bucket[key] = bucket.get(key, 0) + 1


def decision_counts() -> dict[str, dict[str, int]]:
    """Snapshot of every decision counted since the last reset."""
    return {kind: dict(bucket) for kind, bucket in _decisions.items()}


def reset_decisions() -> None:
    """Clear the decision counters (reports snapshot deltas around a run)."""
    _decisions.clear()
