"""Output check: a batch's artifact against the reference recorded for its inputs.

References live in ``references/<family>-<study seed>.json`` and hold the
rows and summary the figure produced when they were recorded.  Integers,
strings, booleans and nulls must match exactly.  Floats must be finite and
match within :data:`REL_TOL`, far above summation-order noise (about 1e-15)
and far below what any change to the algorithm moves.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import circuits_per_row

REL_TOL = 1e-9
ABS_TOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "references"


def reference_path(family: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{family}-{seed}.json"


def load_reference(family: str, seed: int) -> dict:
    with open(reference_path(family, seed), encoding="utf-8") as handle:
        return json.load(handle)


def values_match(actual, expected) -> bool:
    """Whether one artifact value agrees with its reference value."""
    if isinstance(expected, float):
        return (
            isinstance(actual, float)
            and math.isfinite(actual)
            and math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(values_match(a, e) for a, e in zip(actual, expected))
        )
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and actual.keys() == expected.keys()
            and all(values_match(actual[key], expected[key]) for key in expected)
        )
    return type(actual) is type(expected) and actual == expected


def reference_circuits(reference: dict, family: str) -> int:
    """Circuits one batch carries through the whole pipeline."""
    return len(reference["rows"]) * circuits_per_row(family)


def failed_circuits(artifact: dict, reference: dict, family: str) -> int:
    """Circuits of one batch whose rows are missing or disagree with the reference.

    A summary that disagrees, or a row table of the wrong length, fails every
    circuit of the batch.
    """
    rows = artifact.get("rows")
    expected = reference["rows"]
    if (
        not isinstance(rows, list)
        or len(rows) != len(expected)
        or not values_match(artifact.get("summary"), reference["summary"])
    ):
        return reference_circuits(reference, family)
    bad_rows = sum(not values_match(row, ref) for row, ref in zip(rows, expected))
    return bad_rows * circuits_per_row(family)
