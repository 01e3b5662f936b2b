"""Machine- and environment-aware sizing of the pairwise Hamming kernels.

The ``O(N^2)`` kernels in :mod:`repro.core.kernels` evaluate the pairwise
structure of a histogram support in bounded-memory pieces.  Two sizes govern
that evaluation:

* the **pairwise block budget** — how many pairwise entries (one entry = one
  ``(x, y)`` distance) a ``dense``-plan row-block may hold at once.
  Overridable via ``REPRO_PAIRWISE_BLOCK_ENTRIES``; the historical default
  of 4,000,000 is kept so the ``dense`` plan's float accumulation order is
  unchanged when the variable is unset;
* the **tile size** of the ``levels`` plan's sweeps — auto-tuned at import
  from the detected last-level data cache so one tile's working set stays
  cache-resident.  ``REPRO_TILE_ENTRIES`` overrides the tuned value.

Tuning is *deterministic*: sizes derive from ``/sys`` cache topology (with a
fixed fallback), never from timing runs, so repeated runs — and worker
processes of the same sweep — always agree on accumulation order.

``REPRO_HAMMER_KERNEL`` force-selects a kernel plan (``dense`` / ``levels``)
for benchmarking and differential testing; :func:`kernel_override` reads it
and :func:`set_kernel_override` sets it programmatically (benchmarks use
this to time before/after pairs in one process).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.exceptions import DistributionError

__all__ = [
    "KERNEL_PLANS",
    "kernel_override",
    "set_kernel_override",
    "pairwise_block_entries",
    "pairwise_block_size",
    "tile_entries",
    "tile_shape",
    "detected_cache_bytes",
    "tuning_report",
]

#: Valid kernel plan names: ``dense`` (the bit-stable historical arithmetic,
#: the dispatcher's choice up to 1024 outcomes and the reference baseline at
#: any size) and ``levels`` (the filter-aware large-support plan).
KERNEL_PLANS = ("dense", "levels")

_ENV_KERNEL = "REPRO_HAMMER_KERNEL"
_ENV_BLOCK_ENTRIES = "REPRO_PAIRWISE_BLOCK_ENTRIES"
_ENV_TILE_ENTRIES = "REPRO_TILE_ENTRIES"

#: Historical pairwise-entry budget; kept as the default so the ``dense``
#: plan's float accumulation order is bit-stable.
_DEFAULT_BLOCK_ENTRIES = 4_000_000

_MIN_BLOCK_ENTRIES = 1 << 16
_MAX_BLOCK_ENTRIES = 1 << 28

#: Tile entries ~ cache bytes: the *hot* per-entry operands of a symmetric
#: tile (the uint16 distances and the boolean filter mask) are ~3 bytes, so
#: one entry per cache byte keeps them resident while the bulkier uint64 XOR
#: and float64 weight tiles stream through.  Tiles are clamped to >= 2^20
#: entries because each tile costs a fixed number of numpy dispatches —
#: smaller tiles drown the sweep in per-call overhead long before cache
#: misses matter.
_MIN_TILE_ENTRIES = 1 << 20
_MAX_TILE_ENTRIES = 1 << 23

_FALLBACK_CACHE_BYTES = 1 << 20  # 1 MiB: a conservative L2

_override: str | None = None


def _parse_positive_int(env_name: str) -> int | None:
    raw = os.environ.get(env_name)
    if raw is None or not raw.strip():
        return None
    try:
        value = int(raw)
    except ValueError as error:
        raise DistributionError(
            f"{env_name} must be a positive integer, got {raw!r}"
        ) from error
    if value <= 0:
        raise DistributionError(f"{env_name} must be positive, got {value}")
    return value


def _detect_cache_bytes() -> int:
    """Largest per-core data cache reported by ``/sys`` (fallback: 1 MiB).

    Deterministic on a given machine: worker processes of one sweep always
    derive the same tile shape, so accumulation order never depends on
    scheduling.
    """
    best = 0
    cache_root = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(cache_root.glob("index*")):
            try:
                cache_type = (index / "type").read_text().strip()
                level = int((index / "level").read_text().strip())
                size_text = (index / "size").read_text().strip()
            except (OSError, ValueError):
                continue
            if cache_type not in ("Data", "Unified") or level > 2:
                continue
            if size_text.endswith("K"):
                size = int(size_text[:-1]) * 1024
            elif size_text.endswith("M"):
                size = int(size_text[:-1]) * 1024 * 1024
            else:
                size = int(size_text)
            best = max(best, size)
    except OSError:
        pass
    return best or _FALLBACK_CACHE_BYTES


_CACHE_BYTES = _detect_cache_bytes()


def detected_cache_bytes() -> int:
    """The cache size (bytes) the import-time tuner derived tile sizes from."""
    return _CACHE_BYTES


def kernel_override() -> str | None:
    """The forced kernel plan, if any (env ``REPRO_HAMMER_KERNEL`` or API)."""
    if _override is not None:
        return _override
    raw = os.environ.get(_ENV_KERNEL)
    if raw is None or not raw.strip():
        return None
    name = raw.strip().lower()
    if name == "auto":
        return None
    if name not in KERNEL_PLANS:
        raise DistributionError(
            f"{_ENV_KERNEL}={raw!r} is not a kernel plan; expected one of "
            f"{KERNEL_PLANS + ('auto',)}"
        )
    return name


def set_kernel_override(name: str | None) -> None:
    """Force a kernel plan programmatically (``None``/``"auto"`` restores dispatch)."""
    global _override
    if name is None or name == "auto":
        _override = None
        return
    if name not in KERNEL_PLANS:
        raise DistributionError(
            f"unknown kernel plan {name!r}; expected one of {KERNEL_PLANS + ('auto',)}"
        )
    _override = name


def pairwise_block_entries() -> int:
    """Pairwise entries one ``dense``-plan row-block may hold (env-overridable)."""
    value = _parse_positive_int(_ENV_BLOCK_ENTRIES)
    if value is None:
        return _DEFAULT_BLOCK_ENTRIES
    return max(_MIN_BLOCK_ENTRIES, min(_MAX_BLOCK_ENTRIES, value))


def pairwise_block_size(num_outcomes: int) -> int:
    """Rows per block for an ``O(N^2)`` pairwise sweep under the entry budget."""
    budget = pairwise_block_entries()
    return max(1, min(num_outcomes, budget // max(1, num_outcomes)))


def tile_entries() -> int:
    """Entries per symmetric tile: env override, else tuned profile, else cache.

    The same precedence every autoscheduling consumer follows
    (``REPRO_TILE_ENTRIES`` > :mod:`repro.core.costmodel` profile >
    deterministic cache-derived default), with the clamp applied last so no
    source can push a tile outside the sane range.
    """
    value = _parse_positive_int(_ENV_TILE_ENTRIES)
    if value is None:
        from repro.core import costmodel

        profile = costmodel.active_profile()
        if profile is not None:
            tuned = profile.tuning.get("tile_entries")
            if tuned is not None and tuned > 0:
                value = int(tuned)
    if value is None:
        value = _CACHE_BYTES
    return max(_MIN_TILE_ENTRIES, min(_MAX_TILE_ENTRIES, value))


def tile_shape(num_outcomes: int) -> tuple[int, int]:
    """``(rows, cols)`` of one symmetric tile for an ``N x N`` triangular sweep.

    Tiles are wide rather than square — the inner accumulations are row-major
    reductions (matvec / bincount over contiguous rows), which favour long
    contiguous columns — but rows are kept >= 64 so the triangular sweep does
    not degenerate into row-at-a-time passes.
    """
    entries = tile_entries()
    cols = max(1, min(num_outcomes, entries // 64))
    rows = max(1, min(num_outcomes, max(64, entries // max(1, min(num_outcomes, cols)))))
    return rows, cols


def tuning_report() -> dict[str, object]:
    """Flat summary of the effective tuning decisions (for ``repro profile``)."""
    from repro.core import costmodel

    fingerprint = costmodel.active_fingerprint()
    return {
        "cache_bytes": _CACHE_BYTES,
        "pairwise_block_entries": pairwise_block_entries(),
        "tile_entries": tile_entries(),
        "kernel_override": kernel_override() or "auto",
        "machine_profile": fingerprint if fingerprint is not None else "untuned",
    }
