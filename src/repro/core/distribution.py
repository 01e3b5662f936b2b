"""Outcome distributions (measurement histograms) for NISQ programs.

A :class:`Distribution` is the central data structure of this package: the
noisy device output consumed by HAMMER and the corrected distribution it
produces are both :class:`Distribution` objects.

Design notes
------------
* **Arrays are the storage.**  A distribution holds its support as packed
  ``uint64`` words (one row per outcome, 64 bits per word, MSB first, last
  word right-aligned; see :func:`~repro.core.bitstring.pack_bit_matrix`), a
  float64 weight vector aligned with those rows and the weights' total.
  Weights may be raw shot counts or probabilities; every normalised view
  divides by the total.  Support order is ascending outcome value for
  statevector and sampled histograms and the caller's row or key order
  everywhere else.
* **Strings are a lazy view.**  The ``outcome -> weight`` mapping behind
  :meth:`~Distribution.outcomes`, :meth:`~Distribution.items`,
  :meth:`~Distribution.counts` and iteration is rendered from the words on
  first string access and cached; a distribution built from a mapping keeps
  the caller's mapping instead.  :meth:`~Distribution.probability`,
  membership, PST/IST, :meth:`~Distribution.mapped`,
  :meth:`~Distribution.marginal`, :meth:`~Distribution.top_k` and pickling
  work on the arrays and never render a bitstring, so a dense 18-qubit
  statevector histogram costs a few array passes, not 2^18 Python strings.
* Two totals, by design.  :attr:`~Distribution.total_weight` (and so
  ``probability(o) = weight / total``) is a left-to-right float sum in
  support order (:func:`sequential_sum`), identical on every Python version;
  :meth:`~Distribution.probability_vector` is ``weights / weights.sum()``
  with NumPy's pairwise sum.  Both feed recorded results, so neither is
  rewritten in terms of the other.
* The packed Hamming view (:meth:`~Distribution.packed`: words plus the
  probability vector, with cached bit-matrix and string renderings) is built
  lazily and shared with derived distributions whose support carries over
  (:meth:`~Distribution.normalized`, :meth:`~Distribution.top_k`,
  :meth:`~Distribution.resampled`, :meth:`~Distribution.from_packed`).
  Every Hamming hot path (HAMMER, spectra, CHS, EHD, histogram metrics, cut
  costs) consumes it directly.
* A pickle holds only the width, the words, the weights and the total.
* Figures of merit (PST, IST, total variation and Hellinger distance) live
  in :mod:`repro.metrics.fidelity`; this module keeps only structural
  behaviour.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping

import numpy as np

from repro.core.bitstring import (
    PackedOutcomes,
    int_to_bitstring,
    validate_bitstring,
)
from repro.exceptions import BitstringError, DistributionError

__all__ = ["Distribution", "sequential_sum"]

_BINARY_DIGITS = frozenset("01")


def sequential_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum ``((v0 + v1) + v2) + ...`` (0.0 when empty).

    Python 3.12 made the builtin :func:`sum` of floats compensated, so the
    builtin gives different last bits on different interpreters.  Every
    total that reaches a recorded result goes through this one plain
    accumulation instead (``np.add.accumulate`` is strictly sequential).
    """
    array = np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=float)
    if array.size == 0:
        return 0.0
    return float(np.add.accumulate(array)[-1])


def _has_duplicate_rows(words: np.ndarray) -> bool:
    """Whether two rows of a packed ``(N, W)`` word array are equal."""
    if words.shape[0] < 2:
        return False
    if words.shape[1] == 1:
        column = words[:, 0]
        if np.all(column[1:] > column[:-1]):
            return False
        return np.unique(column).size != column.size
    return np.unique(words, axis=0).shape[0] != words.shape[0]


class Distribution:
    """A probability distribution over measurement bitstrings.

    Parameters
    ----------
    data:
        Mapping from bitstring to non-negative weight.  Weights may be raw
        shot counts or probabilities; they are normalised on demand.
    num_bits:
        Optional explicit bit width.  If omitted it is inferred from the
        first outcome.
    validate:
        If True (default) every key is checked to be a well-formed bitstring
        of consistent width and every value to be a finite non-negative
        number.

    Examples
    --------
    >>> dist = Distribution({"00": 30, "11": 60, "01": 10})
    >>> dist.probability("11")
    0.6
    >>> dist.most_probable()
    '11'
    """

    __slots__ = ("_words", "_weights", "_num_bits", "_total", "_mapping", "_packed")

    def __init__(
        self,
        data: Mapping[str, float],
        num_bits: int | None = None,
        validate: bool = True,
    ) -> None:
        if not data:
            raise DistributionError("distribution must contain at least one outcome")
        items = dict(data)
        inferred_bits = num_bits if num_bits is not None else len(next(iter(items)))
        if validate:
            for outcome, weight in items.items():
                try:
                    validate_bitstring(outcome, num_bits=inferred_bits)
                except BitstringError as error:
                    raise DistributionError(str(error)) from error
                if not math.isfinite(weight) or weight < 0:
                    raise DistributionError(
                        f"weight for outcome {outcome!r} must be finite and >= 0, got {weight}"
                    )
        mapping = {outcome: float(weight) for outcome, weight in items.items()}
        try:
            support = PackedOutcomes.from_strings(
                list(mapping), num_bits=inferred_bits, validate=False
            )
        except BitstringError as error:
            raise DistributionError(str(error)) from error
        weights = np.fromiter(mapping.values(), dtype=float, count=len(mapping))
        self._set_arrays(support.words, weights, inferred_bits)
        self._mapping = mapping

    def _set_arrays(self, words: np.ndarray, weights: np.ndarray, num_bits: int) -> None:
        total = sequential_sum(weights)
        if not total > 0:
            raise DistributionError("distribution weights must sum to a positive value")
        self._words = words
        self._weights = weights
        self._num_bits = num_bits
        self._total = total
        self._mapping: dict[str, float] | None = None
        self._packed: PackedOutcomes | None = None

    @classmethod
    def _from_arrays(
        cls, words: np.ndarray, weights: np.ndarray, num_bits: int
    ) -> "Distribution":
        """Wrap already-validated words and weights (no copies, no checks on rows)."""
        distribution = cls.__new__(cls)
        distribution._set_arrays(words, weights, num_bits)
        return distribution

    @classmethod
    def _over_packed(cls, packed: PackedOutcomes, weights: np.ndarray) -> "Distribution":
        """Wrap a packed support whose rows are distinct, sharing its caches."""
        distribution = cls._from_arrays(packed.words, weights, packed.num_bits)
        distribution._packed = packed.with_probabilities(weights / weights.sum())
        return distribution

    # ------------------------------------------------------------------
    # Pickling: the arrays only
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {
            "num_bits": self._num_bits,
            "words": self._words,
            "weights": self._weights,
            "total": self._total,
        }

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):
            # Slot layout of the dict-backed class (``_weights`` was the
            # outcome -> weight mapping).  Rebuild from the mapping, checked,
            # so an entry that cannot become a working object fails here, in
            # the unpickle, where a cache treats it as a miss.
            slots = state[1]
            rebuilt = Distribution(slots["_weights"], num_bits=slots["_num_bits"])
            for name in self.__slots__:
                setattr(self, name, getattr(rebuilt, name))
            return
        self._words = state["words"]
        self._weights = state["weights"]
        self._num_bits = state["num_bits"]
        self._total = state["total"]
        self._mapping = None
        self._packed = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_counts(cls, counts: Mapping[str, float], num_bits: int | None = None) -> "Distribution":
        """Build a distribution from raw shot counts."""
        return cls(counts, num_bits=num_bits)

    @classmethod
    def from_probabilities(
        cls, probabilities: Mapping[str, float], num_bits: int | None = None
    ) -> "Distribution":
        """Build a distribution from probabilities (need not sum exactly to 1)."""
        return cls(probabilities, num_bits=num_bits)

    @classmethod
    def from_samples(cls, samples: Iterable[str], num_bits: int | None = None) -> "Distribution":
        """Build a distribution by counting an iterable of sampled bitstrings."""
        counts: dict[str, float] = {}
        for sample in samples:
            counts[sample] = counts.get(sample, 0.0) + 1.0
        if not counts:
            raise DistributionError("cannot build a distribution from zero samples")
        return cls(counts, num_bits=num_bits)

    @classmethod
    def from_statevector_probabilities(
        cls, probabilities: np.ndarray, num_bits: int, cutoff: float = 1e-12
    ) -> "Distribution":
        """Build a distribution from a dense ``2**num_bits`` probability vector.

        Entries below ``cutoff`` are dropped to keep the support sparse.  The
        support is the ascending indices above the cutoff, and for one-word
        widths an index already is its packed word.
        """
        probabilities = np.asarray(probabilities, dtype=float)
        if probabilities.ndim != 1 or probabilities.shape[0] != (1 << num_bits):
            raise DistributionError(
                f"expected a vector of length 2**{num_bits}, got shape {probabilities.shape}"
            )
        if np.any(probabilities < -1e-9):
            raise DistributionError("probability vector contains negative entries")
        support = np.flatnonzero(probabilities > cutoff)
        if support.size == 0:
            raise DistributionError("probability vector has no support above the cutoff")
        words = support.astype(np.uint64).reshape(-1, 1)
        return cls._from_arrays(words, probabilities[support], num_bits)

    @classmethod
    def from_bit_matrix(cls, bits: np.ndarray, num_bits: int | None = None) -> "Distribution":
        """Build a distribution from a ``(shots, n)`` 0/1 sample matrix.

        The shot matrix is deduplicated with array operations (pack to uint64
        words, unique rows, bincount) — no per-shot strings are ever created.
        The resulting distribution arrives with its packed view pre-cached,
        so downstream Hamming kernels never re-pack.
        """
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[0] == 0:
            raise DistributionError(
                f"expected a non-empty (shots, n) bit matrix, got shape {bits.shape}"
            )
        if num_bits is not None and bits.shape[1] != num_bits:
            raise DistributionError(
                f"bit matrix width {bits.shape[1]} does not match num_bits={num_bits}"
            )
        try:
            packed, counts = PackedOutcomes.aggregate_bit_matrix(bits)
        except BitstringError as error:
            raise DistributionError(str(error)) from error
        return cls.from_packed(packed, weights=counts)

    @classmethod
    def from_packed(
        cls, packed: PackedOutcomes, weights: np.ndarray | None = None
    ) -> "Distribution":
        """Build a distribution directly from a packed support.

        ``weights`` defaults to the packed probability vector.  The packed
        words (and whatever bit-matrix or string rendering is already
        cached) are shared with the new distribution rather than rebuilt.
        Rows must be distinct; duplicates are detected on the words.
        """
        if weights is None:
            if packed.probabilities is None:
                raise DistributionError("packed outcomes carry no probabilities")
            weights = packed.probabilities
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (packed.num_outcomes,):
            raise DistributionError("weight vector length does not match packed support")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise DistributionError("weights must be finite and >= 0")
        if not weights.sum() > 0:
            raise DistributionError("distribution weights must sum to a positive value")
        if _has_duplicate_rows(packed.words):
            raise DistributionError(
                "packed outcomes contain duplicate rows; aggregate them first "
                "(e.g. via PackedOutcomes.aggregate_bit_matrix)"
            )
        return cls._over_packed(packed, weights)

    @classmethod
    def uniform(cls, num_bits: int) -> "Distribution":
        """Return the uniform distribution over all ``2**num_bits`` outcomes."""
        if num_bits > 20:
            raise DistributionError("uniform distribution limited to 20 bits (dense support)")
        size = 1 << num_bits
        words = np.arange(size, dtype=np.uint64).reshape(-1, 1)
        return cls._from_arrays(words, np.full(size, 1.0 / size), num_bits)

    @classmethod
    def point_mass(cls, outcome: str) -> "Distribution":
        """Return the distribution concentrated on a single outcome."""
        return cls({outcome: 1.0})

    # ------------------------------------------------------------------
    # Array views
    # ------------------------------------------------------------------
    @property
    def num_bits(self) -> int:
        """Bit width shared by all outcomes."""
        return self._num_bits

    @property
    def num_outcomes(self) -> int:
        """Number of distinct outcomes with non-zero weight."""
        return int(self._weights.shape[0])

    @property
    def total_weight(self) -> float:
        """Left-to-right sum of the raw weights (shot count if built from counts)."""
        return self._total

    def weight_vector(self) -> np.ndarray:
        """Raw (unnormalised) weights aligned with the support order (read-only)."""
        view = self._weights.view()
        view.flags.writeable = False
        return view

    def probability_vector(self) -> np.ndarray:
        """Normalised probability vector aligned with the support order.

        ``weights / weights.sum()``, built once with the packed view and
        cached; every array consumer (sampling, expectations, the packed
        Hamming kernels) reads this.
        """
        return self.packed().probabilities

    def packed(self) -> PackedOutcomes:
        """The packed array view of this histogram (built lazily, cached).

        Returns a :class:`~repro.core.bitstring.PackedOutcomes` over the
        stored words whose probability vector is :meth:`probability_vector`.
        """
        if self._packed is None:
            self._packed = PackedOutcomes(
                self._words,
                self._num_bits,
                self._weights / self._weights.sum(),
                _strings=list(self._mapping) if self._mapping is not None else None,
            )
        return self._packed

    def has_packed_view(self) -> bool:
        """True when the packed view is already materialised (no rebuild needed).

        Diagnostic hook for pipeline tracing and tests asserting the
        pack-once behaviour; does not trigger a build.
        """
        return self._packed is not None

    def support_indices(self, outcomes: Iterable[str]) -> np.ndarray:
        """Row of each outcome in the support order, ``-1`` where absent.

        Looked up on the packed words; a string that is not a bitstring of
        this width is simply absent.
        """
        return np.array([self._row_of(outcome) for outcome in outcomes], dtype=np.intp)

    def _row_of(self, outcome: str) -> int:
        """Row of one outcome in the support order, ``-1`` where absent."""
        if (
            not isinstance(outcome, str)
            or len(outcome) != self._num_bits
            or not set(outcome) <= _BINARY_DIGITS
        ):
            return -1
        query = np.array(
            [int(outcome[lo : lo + 64], 2) for lo in range(0, self._num_bits, 64)],
            dtype=np.uint64,
        )
        hits = np.flatnonzero((self._words == query).all(axis=1))
        return int(hits[0]) if hits.size else -1

    def _order(self, keys: np.ndarray) -> np.ndarray:
        """Rows sorted by ascending ``keys``, ties by ascending outcome.

        Equal-width bitstrings order lexicographically exactly as their
        packed words order numerically, most significant word first.
        """
        return np.lexsort((*self._words.T[::-1], keys))

    def _row_string(self, row: int) -> str:
        if self._words.shape[1] == 1:
            return int_to_bitstring(int(self._words[row, 0]), self._num_bits)
        return PackedOutcomes(self._words[row : row + 1], self._num_bits).to_strings()[0]

    # ------------------------------------------------------------------
    # Mapping-like behaviour (the lazy string view)
    # ------------------------------------------------------------------
    def _string_view(self) -> dict[str, float]:
        """The ``outcome -> weight`` mapping, rendered from the words once."""
        if self._mapping is None:
            packed = self._packed
            if packed is None:
                packed = PackedOutcomes(self._words, self._num_bits)
            self._mapping = dict(zip(packed.to_strings(), self._weights.tolist()))
        return self._mapping

    def outcomes(self) -> list[str]:
        """Return the outcomes in support order."""
        return list(self._string_view())

    def items(self) -> Iterator[tuple[str, float]]:
        """Iterate over ``(outcome, probability)`` pairs."""
        return zip(self._string_view(), (self._weights / self._total).tolist())

    def counts(self) -> dict[str, float]:
        """Return the raw (unnormalised) weights."""
        return dict(self._string_view())

    def probabilities(self) -> dict[str, float]:
        """Return a normalised ``outcome -> probability`` dictionary."""
        return dict(self.items())

    def probability(self, outcome: str, default: float = 0.0) -> float:
        """Return the probability of ``outcome`` (``default`` if absent)."""
        if self._mapping is not None:
            weight = self._mapping.get(outcome)
            return default if weight is None else weight / self._total
        row = self._row_of(outcome)
        if row < 0:
            return default
        return float(self._weights[row]) / self._total

    def __contains__(self, outcome: str) -> bool:
        if self._mapping is not None:
            return outcome in self._mapping
        return self._row_of(outcome) >= 0

    def __len__(self) -> int:
        return self.num_outcomes

    def __iter__(self) -> Iterator[str]:
        return iter(self._string_view())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        if self._num_bits != other._num_bits:
            return False
        mine = self.probabilities()
        theirs = other.probabilities()
        if mine.keys() != theirs.keys():
            return False
        return all(math.isclose(mine[k], theirs[k], rel_tol=1e-9, abs_tol=1e-12) for k in mine)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        head = dict(sorted(self.probabilities().items(), key=lambda kv: -kv[1])[:4])
        return f"Distribution(num_bits={self._num_bits}, outcomes={len(self)}, top={head})"

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def normalized(self) -> "Distribution":
        """Return a copy whose weights are exact probabilities summing to 1.

        Same support, same order: the words and the packed view, with this
        distribution's probability vector, carry over unchanged.
        """
        result = Distribution._from_arrays(
            self._words, self._weights / self._total, self._num_bits
        )
        result._packed = self.packed()
        return result

    def top_k(self, k: int) -> "Distribution":
        """Return a distribution restricted to the ``k`` most probable outcomes.

        Weight ties are broken lexicographically on the outcome (the same
        ``(-p, outcome)`` ordering as :meth:`ranked_outcomes`), so truncation
        is deterministic across equivalent inputs regardless of insertion
        order.  The packed view is sliced, not re-packed, and the kept
        probabilities are renormalised.
        """
        if k <= 0:
            raise DistributionError(f"k must be positive, got {k}")
        order = self._order(-self._weights)[:k]
        result = Distribution._from_arrays(
            self._words[order], self._weights[order], self._num_bits
        )
        kept = self.packed().subset(order)
        result._packed = kept.with_probabilities(kept.probabilities / kept.probabilities.sum())
        return result

    def filtered(self, min_probability: float) -> "Distribution":
        """Drop outcomes below ``min_probability`` (keeps at least the argmax)."""
        keep = self._weights / self._total >= min_probability
        rows = np.flatnonzero(keep) if keep.any() else [self._most_probable_row()]
        return Distribution._from_arrays(
            self._words[rows], self._weights[rows], self._num_bits
        )

    def merged_with(self, other: "Distribution", weight: float = 0.5) -> "Distribution":
        """Return the convex mixture ``weight*self + (1-weight)*other``.

        The union support is resolved on the packed words (unique rows of the
        concatenated supports) and the mixture is one weighted ``bincount``.
        """
        if not 0.0 <= weight <= 1.0:
            raise DistributionError(f"mixture weight must be in [0, 1], got {weight}")
        if other.num_bits != self._num_bits:
            raise DistributionError("cannot mix distributions of different bit widths")
        words = np.concatenate([self._words, other._words], axis=0)
        scaled = np.concatenate(
            [weight * self.probability_vector(), (1 - weight) * other.probability_vector()]
        )
        merged, totals = PackedOutcomes._aggregate_words(words, self._num_bits, scaled)
        return Distribution.from_packed(merged, weights=totals)

    def mapped(self, permutation: list[int]) -> "Distribution":
        """Reorder the bits of every outcome according to ``permutation``.

        ``permutation[i]`` gives the source position of output bit ``i``.
        Used to undo qubit-routing permutations introduced by the transpiler.
        A column permutation of the packed bit matrix; rows keep their order
        and their weights, and stay distinct.
        """
        if sorted(permutation) != list(range(self._num_bits)):
            raise DistributionError("permutation must be a rearrangement of all bit positions")
        bits = self.packed().bit_matrix()[:, permutation]
        return Distribution._over_packed(PackedOutcomes.from_bit_matrix(bits), self._weights)

    def marginal(self, bit_positions: list[int]) -> "Distribution":
        """Return the marginal distribution over the given bit positions.

        Projects the packed bit matrix onto the kept columns and merges
        duplicate projections with one weighted ``bincount``.
        """
        if not bit_positions:
            raise DistributionError("marginal requires at least one bit position")
        for position in bit_positions:
            if not 0 <= position < self._num_bits:
                raise DistributionError(
                    f"bit position {position} out of range for width {self._num_bits}"
                )
        bits = self.packed().bit_matrix()[:, bit_positions]
        projected, totals = PackedOutcomes.aggregate_bit_matrix(bits, self._weights)
        return Distribution.from_packed(projected, weights=totals)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _most_probable_row(self) -> int:
        candidates = np.flatnonzero(self._weights == self._weights.max())
        if candidates.size == 1:
            return int(candidates[0])
        return int(candidates[np.lexsort(self._words[candidates].T[::-1])[0]])

    def most_probable(self) -> str:
        """Return the single most probable outcome (ties broken lexicographically)."""
        return self._row_string(self._most_probable_row())

    def ranked_outcomes(self) -> list[tuple[str, float]]:
        """Return ``(outcome, probability)`` pairs sorted by decreasing probability."""
        probabilities = self._weights / self._total
        outcomes = self.outcomes()
        values = probabilities.tolist()
        return [(outcomes[row], values[row]) for row in self._order(-probabilities)]

    def entropy(self) -> float:
        """Shannon entropy of the distribution, in bits."""
        probabilities = (self._weights / self._total).tolist()
        return -sequential_sum([p * math.log2(p) for p in probabilities if p > 0])

    def expectation(self, cost_function) -> float:
        """Expected value of ``cost_function(outcome)`` under the distribution."""
        costs = np.fromiter(
            (cost_function(outcome) for outcome in self._string_view()),
            dtype=float,
            count=self.num_outcomes,
        )
        return float(costs @ self.probability_vector())

    def hamming_distances_to(self, reference: str) -> np.ndarray:
        """Hamming distance of every outcome (in support order) to ``reference``."""
        validate_bitstring(reference, num_bits=self._num_bits)
        return self.packed().distances_to_reference(reference)

    def sample(self, num_samples: int, rng: np.random.Generator | None = None) -> list[str]:
        """Draw ``num_samples`` outcomes i.i.d. from the distribution."""
        if num_samples <= 0:
            raise DistributionError(f"num_samples must be positive, got {num_samples}")
        generator = rng if rng is not None else np.random.default_rng()
        outcomes = self.outcomes()
        indices = generator.choice(
            len(outcomes), size=num_samples, p=self.probability_vector()
        )
        return [outcomes[i] for i in indices]

    def resampled(self, num_shots: int, rng: np.random.Generator | None = None) -> "Distribution":
        """Return a finite-shot (multinomial) resampling of this distribution."""
        if num_shots <= 0:
            raise DistributionError(f"num_shots must be positive, got {num_shots}")
        generator = rng if rng is not None else np.random.default_rng()
        counts = generator.multinomial(num_shots, self.probability_vector())
        kept = np.flatnonzero(counts)
        return Distribution._over_packed(
            self.packed().subset(kept), counts[kept].astype(float)
        )

    def to_dense(self) -> np.ndarray:
        """Return the dense probability vector of length ``2**num_bits``."""
        if self._num_bits > 24:
            raise DistributionError("dense conversion limited to 24 bits")
        dense = np.zeros(1 << self._num_bits, dtype=float)
        dense[self._words[:, 0].astype(np.intp)] = self._weights / self._total
        return dense
