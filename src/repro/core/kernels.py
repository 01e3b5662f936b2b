"""Pairwise Hamming kernels behind HAMMER and the CHS spectrum.

Every ``O(N^2)`` hot path of the reproduction — HAMMER's step-1 CHS
accumulation, its step-3 neighbourhood scores, and ``average_chs`` — runs
through this module under one of two plans, chosen by support size alone:

``dense``
    Supports of at most :data:`DENSE_SUPPORT_MAX` outcomes.  The historical
    two-pass arithmetic: the CHS spectrum from the dense Walsh–Hadamard
    transform (WHT) where the hypercube is cheap, otherwise from blocked
    ordered-pair popcounts, then one ordered pass over every pair for the
    scores.  It is kept **bit-identical** to previous releases, so the
    golden fixtures (all at most 1024 outcomes) reproduce exactly; forced
    at any size (``REPRO_HAMMER_KERNEL=dense``) it is the reference
    baseline.

``levels``
    Larger supports.  The CHS spectrum comes from the dense WHT where it is
    eligible, otherwise from one symmetric sweep that popcounts each
    unordered pair once.  The scores then use the shape of the paper's
    filter: an outcome gains credit only from neighbours of *strictly
    lower* probability.  Histogram probabilities are counts over shots, so
    a support falls on a few dozen count levels, and on wide registers most
    outcomes sit on the lowest one.  Outcomes are stably sorted by
    probability and

    * every row on the lowest level is skipped: it has no strictly-lower
      neighbour, so its neighbourhood score is exactly zero;
    * each remaining row tile is popcounted only against the prefix of
      columns below its highest level, gathered through ``W[d]`` and
      reduced by one matvec;
    * the ``p_i > p_j`` mask is applied only to the narrow strip of columns
      whose level falls inside the tile's own level range — every column
      left of that strip is strictly lower than every row of the tile.

    The skipped pairs contribute exactly zero under the filter, so
    ``levels`` differs from ``dense`` only in floating-point summation
    order.  Without the filter every column is scored with ``W[0]`` zeroed:
    the outcomes of a support are distinct, so distance 0 is the outcome
    itself, the one pair the unfiltered rule excludes.

The popcount primitive is runtime-dispatched at import: ``np.bitwise_count``
where the running NumPy provides it (>= 2.0), a byte-table lookup fallback
otherwise.  All tile/block sizes come from :mod:`repro.core.tuning`
(cache-derived at import, env-overridable, deterministic per machine).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from repro.core import tuning
from repro.exceptions import DistributionError
from repro.obs.metrics import counter_add

__all__ = [
    "KernelPass",
    "popcount_u64",
    "has_fast_popcount",
    "choose_plan",
    "chs_histogram",
    "hammer_pass",
    "walsh_hadamard_inplace",
    "DENSE_CHS_MAX_BITS",
    "DENSE_SUPPORT_MAX",
]

# ---------------------------------------------------------------------------
# Popcount dispatch
# ---------------------------------------------------------------------------
_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Per-byte popcount table for the NumPy < 2 fallback.
_POPCOUNT_LUT = np.array([bin(value).count("1") for value in range(256)], dtype=np.uint8)


def has_fast_popcount() -> bool:
    """True when the running NumPy provides a native ``bitwise_count``."""
    return _HAVE_BITWISE_COUNT


def _popcount_lut_u64(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-element popcount of a uint64 array via the byte-LUT fallback.

    Used as :func:`popcount_u64` on NumPy < 2 (no ``np.bitwise_count``);
    kept importable on every NumPy so the differential test can hold the
    two implementations against each other.
    """
    contiguous = np.ascontiguousarray(values, dtype=np.uint64)
    as_bytes = contiguous.view(np.uint8).reshape(contiguous.shape + (8,))
    counts = _POPCOUNT_LUT[as_bytes].sum(axis=-1, dtype=np.uint8)
    if out is None:
        return counts
    out[...] = counts
    return out


if _HAVE_BITWISE_COUNT:

    def popcount_u64(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Per-element popcount of a uint64 array (native ``np.bitwise_count``)."""
        return np.bitwise_count(values, out=out)

else:  # pragma: no cover - exercised only on NumPy < 2
    popcount_u64 = _popcount_lut_u64


# ---------------------------------------------------------------------------
# Shared primitives
# ---------------------------------------------------------------------------
#: Widest register for which the dense Walsh–Hadamard CHS path is considered
#: (2**20 float64 work vectors = 8 MiB each).
DENSE_CHS_MAX_BITS = 20

#: Largest support the dispatcher hands to the ``dense`` plan (the
#: bit-identical historical arithmetic).  Laptop-scale sweeps — including
#: every golden fixture — stay below this; bigger supports run ``levels``.
DENSE_SUPPORT_MAX = 1024


def _tile_buffers(entries: int, num_words: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat scratch for :func:`_tile_distances`: ``entries`` XOR and distance slots.

    Distances stay uint8 for single-word registers (width <= 64) and uint16
    wider; both are valid fancy indices into the weight vector, so no int64
    widening ever happens inside a tile.
    """
    distance_dtype = np.uint8 if num_words == 1 else np.uint16
    return np.empty(entries, dtype=np.uint64), np.empty(entries, dtype=distance_dtype)


def _tile_distances(
    words_a: np.ndarray, words_b: np.ndarray, buffers: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Pairwise distances between two row blocks, as a view into ``buffers``.

    The buffers come from :func:`_tile_buffers` and are reused tile after
    tile, which spares every tile a fresh allocation and its page faults.
    """
    xor_buffer, distance_buffer = buffers
    shape = (words_a.shape[0], words_b.shape[0])
    size = shape[0] * shape[1]
    xor = xor_buffer[:size].reshape(shape)
    distances = distance_buffer[:size].reshape(shape)
    np.bitwise_xor(words_a[:, :1], words_b[:, 0], out=xor)
    popcount_u64(xor, out=distances)
    for word_index in range(1, words_a.shape[1]):
        np.bitwise_xor(words_a[:, word_index : word_index + 1], words_b[:, word_index], out=xor)
        distances += popcount_u64(xor)
    return distances


def walsh_hadamard_inplace(vector: np.ndarray) -> np.ndarray:
    """Unnormalised fast Walsh–Hadamard transform, O(n * 2**n)."""
    half = 1
    size = vector.size
    while half < size:
        paired = vector.reshape(-1, 2 * half)
        left = paired[:, :half].copy()
        right = paired[:, half:].copy()
        paired[:, :half] = left + right
        paired[:, half:] = left - right
        half *= 2
    return vector


def _dense_chs(packed, weights: np.ndarray, limit: int) -> np.ndarray:
    """CHS via the XOR-convolution theorem on the dense hypercube.

    ``chs[d] = Σ_{x,y: d(x,y)=d} w(y)`` equals the sum of the XOR-convolution
    ``(f ⊛ w)(z) = Σ_x f(x) w(x ⊕ z)`` (``f`` the support indicator) over all
    ``z`` of popcount ``d`` — three Walsh–Hadamard transforms instead of an
    ``O(N^2)`` pairwise sweep.
    """
    num_bits = packed.num_bits
    size = 1 << num_bits
    indices = packed.words[:, 0].astype(np.int64)
    support = np.zeros(size, dtype=float)
    support[indices] = 1.0
    weighted = np.zeros(size, dtype=float)
    weighted[indices] = weights
    product = walsh_hadamard_inplace(support) * walsh_hadamard_inplace(weighted)
    convolution = walsh_hadamard_inplace(product) / size
    popcounts = popcount_u64(np.arange(size, dtype=np.uint64)).astype(np.int64)
    histogram = np.bincount(popcounts, weights=convolution, minlength=num_bits + 1)[
        : num_bits + 1
    ]
    # The transform leaves ~1e-13-relative fuzz where the exact answer is 0;
    # snap it out so downstream 1/CHS weighting never divides by noise.
    histogram[np.abs(histogram) < 1e-10 * max(1.0, float(np.abs(histogram).max()))] = 0.0
    np.clip(histogram, 0.0, None, out=histogram)
    histogram[limit + 1 :] = 0.0
    return histogram


def _dense_chs_cost(num_bits: int) -> int | None:
    """Work estimate of the dense WHT path (``None`` when the width is too wide)."""
    if num_bits > DENSE_CHS_MAX_BITS:
        return None
    return (3 * num_bits + 1) * (1 << num_bits)


def _blocked_chs(packed, weights: np.ndarray, limit: int) -> np.ndarray:
    """Historical ordered-pair blocked CHS (bit-identical to PR 1-4).

    ``packed.block_distances`` is the single home of the int64 ordered-pair
    arithmetic the bit-stable ``dense`` plan depends on — it is deliberately
    not duplicated here.
    """
    num_bits = packed.num_bits
    num_outcomes = packed.num_outcomes
    chs = np.zeros(num_bits + 1, dtype=float)
    block_size = tuning.pairwise_block_size(num_outcomes)
    for start in range(0, num_outcomes, block_size):
        distances = packed.block_distances(start, min(start + block_size, num_outcomes))
        within = distances <= limit
        if within.any():
            chs[: limit + 1] += np.bincount(
                distances[within],
                weights=np.broadcast_to(weights, distances.shape)[within],
                minlength=limit + 1,
            )[: limit + 1]
    return chs


# ---------------------------------------------------------------------------
# Large-support sweeps (the levels plan)
# ---------------------------------------------------------------------------
def _symmetric_chs(packed, pair_weights: np.ndarray, limit: int) -> tuple[np.ndarray, int]:
    """CHS histogram from one triangular traversal; returns ``(chs, pairs)``.

    ``chs[d] = Σ_{x,y: d(x,y)=d, d<=limit} pair_weights[y]`` over ordered
    pairs, self pairs included (Algorithm-1 semantics).  Each unordered
    pair is popcounted once and its distance serves both directions;
    ``pairs`` counts the pairs popcounted.
    """
    words = packed.words
    num_outcomes = packed.num_outcomes
    num_bins = limit + 2  # [0, limit] real bins + one overflow sentinel
    chs = np.zeros(num_bins, dtype=float)
    pairs = 0
    tile_rows, tile_cols = tuning.tile_shape(num_outcomes)
    buffers = _tile_buffers(tile_rows * tile_cols, words.shape[1])
    sentinel = np.int64(limit + 1)
    for i0 in range(0, num_outcomes, tile_rows):
        i1 = min(i0 + tile_rows, num_outcomes)
        w_i = pair_weights[i0:i1]
        # Diagonal square (covers both ordered directions within the block).
        bins = np.minimum(_tile_distances(words[i0:i1], words[i0:i1], buffers), sentinel)
        pairs += bins.size
        chs += np.bincount(
            bins.ravel(),
            weights=np.broadcast_to(w_i[None, :], bins.shape).ravel(),
            minlength=num_bins,
        )[:num_bins]
        for j0 in range(i1, num_outcomes, tile_cols):
            j1 = min(j0 + tile_cols, num_outcomes)
            w_j = pair_weights[j0:j1]
            bins = np.minimum(_tile_distances(words[i0:i1], words[j0:j1], buffers), sentinel)
            pairs += bins.size
            flat_bins = bins.ravel()
            # CHS takes both ordered directions from the one distance tile.
            chs += np.bincount(
                flat_bins,
                weights=np.broadcast_to(w_j[None, :], bins.shape).ravel(),
                minlength=num_bins,
            )[:num_bins]
            chs += np.bincount(
                flat_bins,
                weights=np.broadcast_to(w_i[:, None], bins.shape).ravel(),
                minlength=num_bins,
            )[:num_bins]
    chs_full = np.zeros(packed.num_bits + 1, dtype=float)
    stop = min(limit, packed.num_bits) + 1
    chs_full[:stop] = chs[:stop]
    return chs_full, pairs


def _level_scores(
    packed,
    probabilities: np.ndarray,
    weights: np.ndarray,
    cutoff: int,
    use_filter: bool,
) -> tuple[np.ndarray, int, int]:
    """Neighbourhood scores of the ``levels`` plan; returns ``(scores, rows, pairs)``.

    ``rows`` is the number of rows scored (with the filter: the outcomes
    above the lowest count level) and ``pairs`` the pairs popcounted.

    With the filter, outcomes are stably sorted by probability and
    ``lower[i]`` — the number of strictly-lower outcomes of sorted row
    ``i`` — is where its level starts.  A row tile ``[i0, i1)`` needs only
    columns ``[0, lower[i1 - 1])``; columns before ``lower[i0]`` are
    strictly lower than every row of the tile, so the ``p_i > p_j`` mask is
    applied to the strip ``[lower[i0], lower[i1 - 1])`` alone.  Without the
    filter ``lower`` is ``N`` everywhere: every column, an empty strip, and
    ``W[0] = 0`` excludes the self pair.

    The cutoff (``distance < cutoff``) is folded into the gather by zeroing
    a local copy of ``W`` at and beyond it.  ``tuning.tile_entries()`` is a
    budget of cache bytes, and every live buffer of a tile counts against
    it — XOR words, distances and gathered weights, 17-18 bytes a pair — so
    one tile's whole working set stays cache-resident.
    """
    num_outcomes = packed.num_outcomes
    weights = weights.astype(float, copy=True)
    weights[cutoff:] = 0.0
    if not use_filter:
        weights[0] = 0.0
    if not weights.any():
        return np.zeros(num_outcomes, dtype=float), 0, 0

    if use_filter:
        order = np.argsort(probabilities, kind="stable")
        words = packed.words[order]
        sorted_p = probabilities[order]
        lower = np.searchsorted(sorted_p, sorted_p, side="left")
        first = int(np.searchsorted(lower, 0, side="right"))
    else:
        order = None
        words = packed.words
        sorted_p = probabilities
        lower = np.full(num_outcomes, num_outcomes)
        first = 0

    distance_bytes = 1 if words.shape[1] == 1 else 2
    budget = max(1, tuning.tile_entries() // (8 + distance_bytes + 8))
    tile_rows = max(64, budget // max(1, num_outcomes))
    tile_cols = max(1, budget // tile_rows)
    buffers = _tile_buffers(tile_rows * tile_cols, words.shape[1])
    gather_buffer = np.empty(tile_rows * tile_cols, dtype=float)
    sorted_scores = np.zeros(num_outcomes, dtype=float)
    pairs = 0
    for i0 in range(first, num_outcomes, tile_rows):
        i1 = min(i0 + tile_rows, num_outcomes)
        strip, stop = int(lower[i0]), int(lower[i1 - 1])
        rows = words[i0:i1]
        p_i = sorted_p[i0:i1, None]
        for j0 in range(0, stop, tile_cols):
            j1 = min(j0 + tile_cols, stop)
            distances = _tile_distances(rows, words[j0:j1], buffers)
            gathered = gather_buffer[: distances.size].reshape(distances.shape)
            # Distances never exceed the register width, the last index of
            # ``weights``, so "wrap" never wraps; unlike the default "raise"
            # it writes into ``out`` without an intermediate buffer.
            weights.take(distances, out=gathered, mode="wrap")
            if j1 > strip:
                masked = gathered[:, max(strip, j0) - j0 :]
                masked *= p_i > sorted_p[max(strip, j0) : j1]
            sorted_scores[i0:i1] += gathered @ sorted_p[j0:j1]
            pairs += distances.size
    if order is None:
        return sorted_scores, num_outcomes, pairs
    scores = np.empty(num_outcomes, dtype=float)
    scores[order] = sorted_scores
    return scores, num_outcomes - first, pairs


# ---------------------------------------------------------------------------
# Plan dispatch
# ---------------------------------------------------------------------------
def choose_plan(num_outcomes: int, num_bits: int) -> str:
    """Kernel plan for a ``(support size, width)`` shape.

    Override, else heuristic: ``REPRO_HAMMER_KERNEL`` (or the programmatic
    override) wins outright; otherwise supports up to
    :data:`DENSE_SUPPORT_MAX` run ``dense`` — the bit-identical historical
    arithmetic the golden fixtures live on — and larger ones run
    ``levels``.  The width does not enter the choice: the one large-support
    plan serves every register width.  Each choice counts one
    ``kernel.plan.<plan>`` obs counter.
    """
    plan = tuning.kernel_override()
    if plan is None:
        plan = "dense" if num_outcomes <= DENSE_SUPPORT_MAX else "levels"
    counter_add(f"kernel.plan.{plan}")
    return plan


def _check_plan(plan: str) -> None:
    if plan not in tuning.KERNEL_PLANS:
        raise DistributionError(
            f"unknown kernel plan {plan!r}; expected one of {tuning.KERNEL_PLANS}"
        )


def _dense_chs_eligible(num_outcomes: int, num_bits: int) -> bool:
    """The dense-WHT CHS rule, unchanged since it was introduced."""
    dense_cost = _dense_chs_cost(num_bits)
    return dense_cost is not None and dense_cost < num_outcomes * num_outcomes


def chs_histogram(packed, weights: np.ndarray, limit: int, plan: str | None = None) -> np.ndarray:
    """Per-distance pair mass ``chs[d] = Σ_{x,y: d(x,y)=d, d<=limit} w(y)``.

    The step-1 kernel of HAMMER and the body of ``average_chs``.  Always
    returns a vector of length ``num_bits + 1`` with zeros beyond ``limit``.
    The dense Walsh–Hadamard transform runs wherever it beats the pairwise
    sweep; otherwise ``dense`` uses the historical blocked ordered sweep and
    ``levels`` the symmetric sweep — half the popcounts.  Decisions made
    here are not recorded: only HAMMER passes count as kernel dispatches.
    """
    num_bits = packed.num_bits
    num_outcomes = packed.num_outcomes
    limit = min(limit, num_bits)
    if plan is not None:
        _check_plan(plan)
    if limit < 0:
        return np.zeros(num_bits + 1, dtype=float)
    if plan is None:
        plan = tuning.kernel_override()
    if plan is None:
        plan = "dense" if num_outcomes <= DENSE_SUPPORT_MAX else "levels"
    if _dense_chs_eligible(num_outcomes, num_bits):
        return _dense_chs(packed, weights, limit)
    if plan == "dense":
        return _blocked_chs(packed, weights, limit)
    chs, _ = _symmetric_chs(packed, weights, limit)
    return chs


class KernelPass(NamedTuple):
    """Output of :func:`hammer_pass`: steps 1-3 plus the work they did."""

    chs: np.ndarray
    weights: np.ndarray
    scores: np.ndarray
    plan: str
    #: Rows the score sweep evaluated (``levels`` with the filter: the
    #: outcomes above the lowest count level).
    rows: int
    #: Pairs popcounted by the call, CHS sweep included.
    pairs: int


def _dense_pass(
    packed,
    probabilities: np.ndarray,
    cutoff: int,
    weight_fn: Callable[[np.ndarray], np.ndarray],
    use_filter: bool,
) -> KernelPass:
    """The historical two-pass HAMMER arithmetic, preserved bit-for-bit.

    Pass 1 computes the CHS spectrum (dense WHT or blocked ordered pairs);
    pass 2 re-popcounts every ordered pair to accumulate the scores.
    """
    num_bits = packed.num_bits
    num_outcomes = packed.num_outcomes
    block_size = tuning.pairwise_block_size(num_outcomes)

    limit = min(cutoff, num_bits + 1) - 1
    pairs = num_outcomes * num_outcomes
    if limit < 0:
        chs = np.zeros(num_bits + 1, dtype=float)
    elif _dense_chs_eligible(num_outcomes, num_bits):
        chs = _dense_chs(packed, probabilities, min(limit, num_bits))
    else:
        chs = _blocked_chs(packed, probabilities, min(limit, num_bits))
        pairs *= 2

    weights = weight_fn(chs)

    scores = np.zeros(num_outcomes, dtype=float)
    for start in range(0, num_outcomes, block_size):
        stop = min(start + block_size, num_outcomes)
        distances = packed.block_distances(start, stop)
        weight_of_pair = weights[distances]
        within_cutoff = distances < cutoff
        if use_filter:
            allowed = probabilities[start:stop, None] > probabilities[None, :]
        else:
            allowed = np.ones_like(within_cutoff, dtype=bool)
            rows = np.arange(start, stop)
            allowed[np.arange(rows.size), rows] = False
        contribution = np.where(
            within_cutoff & allowed, weight_of_pair * probabilities[None, :], 0.0
        )
        scores[start:stop] = contribution.sum(axis=1)
    return KernelPass(chs, weights, scores, "dense", num_outcomes, pairs)


def hammer_pass(
    packed,
    probabilities: np.ndarray,
    cutoff: int,
    weight_fn: Callable[[np.ndarray], np.ndarray],
    use_filter: bool,
    plan: str | None = None,
) -> KernelPass:
    """Steps 1-3 of HAMMER (CHS, weights, neighbourhood scores) in one call.

    ``weight_fn`` maps the raw CHS histogram to the padded per-distance
    weight vector (length ``num_bits + 1``, zero at and beyond ``cutoff``).
    """
    if plan is None:
        plan = choose_plan(packed.num_outcomes, packed.num_bits)
    else:
        _check_plan(plan)
    if plan == "dense":
        return _dense_pass(packed, probabilities, cutoff, weight_fn, use_filter)

    num_bits = packed.num_bits
    limit = min(cutoff, num_bits + 1) - 1
    chs_pairs = 0
    if limit < 0:
        chs = np.zeros(num_bits + 1, dtype=float)
    elif _dense_chs_eligible(packed.num_outcomes, num_bits):
        chs = _dense_chs(packed, probabilities, min(limit, num_bits))
    else:
        chs, chs_pairs = _symmetric_chs(packed, probabilities, min(limit, num_bits))
    weights = weight_fn(chs)
    scores, rows, pairs = _level_scores(packed, probabilities, weights, cutoff, use_filter)
    return KernelPass(chs, weights, scores, plan, rows, chs_pairs + pairs)
