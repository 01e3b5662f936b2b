"""Tests for the HAMMER algorithm: paper examples, invariants, equivalence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Distribution,
    HammerConfig,
    hammer,
    hammer_reference,
    neighborhood_scores,
    variants,
)
from repro.exceptions import DistributionError


def clustered_distribution(num_bits: int, rng: np.random.Generator, support: int = 20) -> Distribution:
    """A noisy histogram clustered around a random correct outcome."""
    correct = "".join(rng.choice(["0", "1"]) for _ in range(num_bits))
    data = {correct: 0.15}
    while len(data) < support:
        distance = int(min(num_bits, rng.geometric(0.4)))
        positions = rng.choice(num_bits, size=distance, replace=False)
        outcome = list(correct)
        for position in positions:
            outcome[position] = "1" if outcome[position] == "0" else "0"
        data["".join(outcome)] = data.get("".join(outcome), 0.0) + float(rng.random() * 0.6 ** distance + 0.001)
    return Distribution(data, num_bits=num_bits)


def random_distributions(num_bits: int = 6, max_outcomes: int = 15):
    outcome = st.integers(min_value=0, max_value=2**num_bits - 1).map(
        lambda v: format(v, f"0{num_bits}b")
    )
    return st.dictionaries(
        outcome, st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=max_outcomes
    ).map(lambda data: Distribution(data, num_bits=num_bits))


class TestPaperExample:
    """Figure 6's 3-qubit illustrative distribution (used for reference-equivalence)."""

    def setup_method(self):
        self.noisy = Distribution(
            {"111": 0.30, "101": 0.40, "110": 0.05, "011": 0.10, "010": 0.10, "001": 0.05}
        )

    def test_baseline_argmax_is_wrong(self):
        assert self.noisy.most_probable() == "101"

    def test_output_is_normalised(self):
        corrected = hammer(self.noisy)
        assert sum(corrected.probabilities().values()) == pytest.approx(1.0)

    def test_reference_agrees_with_vectorized(self):
        corrected = hammer(self.noisy)
        reference = hammer_reference(self.noisy)
        for outcome in self.noisy.outcomes():
            assert corrected.probability(outcome) == pytest.approx(
                reference.probability(outcome), abs=1e-12
            )


class TestFlagshipFlip:
    """HAMMER's core promise: a clustered correct answer overtakes an isolated wrong one."""

    def test_three_qubit_flip(self):
        noisy = Distribution(
            {"111": 0.20, "000": 0.25, "011": 0.15, "101": 0.15, "110": 0.15, "001": 0.10}
        )
        assert noisy.most_probable() == "000"
        corrected = hammer(noisy)
        assert corrected.most_probable() == "111"
        assert corrected.probability("111") > noisy.probability("111")

    def test_eight_qubit_flip(self):
        correct = "11111111"
        data = {correct: 0.12, "00000000": 0.16}
        for position in range(8):
            neighbor = list(correct)
            neighbor[position] = "0"
            data["".join(neighbor)] = 0.05
        for first, second in [(0, 1), (2, 3), (4, 5), (6, 7), (1, 2)]:
            neighbor = list(correct)
            neighbor[first] = "0"
            neighbor[second] = "0"
            data["".join(neighbor)] = 0.02
        noisy = Distribution(data)
        assert noisy.most_probable() == "00000000"
        corrected = hammer(noisy)
        assert corrected.most_probable() == correct
        assert corrected.probability(correct) > 2 * noisy.probability(correct)


class TestInvariants:
    @given(random_distributions())
    @settings(max_examples=30, deadline=None)
    def test_output_is_valid_distribution(self, dist):
        corrected = hammer(dist)
        assert sum(corrected.probabilities().values()) == pytest.approx(1.0)
        assert all(p >= 0 for p in corrected.probabilities().values())

    @given(random_distributions())
    @settings(max_examples=30, deadline=None)
    def test_support_is_preserved(self, dist):
        corrected = hammer(dist)
        assert set(corrected.outcomes()) == set(dist.outcomes())

    @given(random_distributions())
    @settings(max_examples=25, deadline=None)
    def test_vectorized_matches_reference(self, dist):
        vectorized = hammer(dist)
        reference = hammer_reference(dist)
        for outcome in dist.outcomes():
            assert vectorized.probability(outcome) == pytest.approx(
                reference.probability(outcome), abs=1e-9
            )

    @given(random_distributions(), st.sampled_from(["no_filter", "uniform_weights", "no_self_term"]))
    @settings(max_examples=15, deadline=None)
    def test_variants_match_reference(self, dist, variant_name):
        config = getattr(variants, variant_name)()
        vectorized = hammer(dist, config)
        reference = hammer_reference(dist, config)
        for outcome in dist.outcomes():
            assert vectorized.probability(outcome) == pytest.approx(
                reference.probability(outcome), abs=1e-9
            )

    def test_single_outcome_distribution_is_unchanged(self):
        dist = Distribution({"0101": 1.0})
        assert hammer(dist).probability("0101") == pytest.approx(1.0)

    def test_idempotent_support(self):
        rng = np.random.default_rng(3)
        dist = clustered_distribution(8, rng)
        once = hammer(dist)
        twice = hammer(once)
        assert set(twice.outcomes()) == set(dist.outcomes())


class TestEffectiveness:
    def test_clustered_correct_outcome_overtakes_isolated_spurious_one(self):
        """The paper's core claim on synthetic histograms with a tight error cluster.

        The correct outcome has a rich distance-1/2 neighbourhood; the spurious
        outcome is its bitwise complement (distance ``n``, i.e. far outside the
        HAMMER cutoff) and slightly more probable in the raw histogram.
        """
        rng = np.random.default_rng(11)
        for trial in range(5):
            num_bits = 10
            correct = "".join(rng.choice(["0", "1"]) for _ in range(num_bits))
            spurious = "".join("1" if bit == "0" else "0" for bit in correct)
            data = {correct: 0.10, spurious: 0.13}
            for position in range(num_bits):
                neighbor = list(correct)
                neighbor[position] = "1" if neighbor[position] == "0" else "0"
                data["".join(neighbor)] = float(rng.uniform(0.02, 0.05))
            for _ in range(8):
                positions = rng.choice(num_bits, size=2, replace=False)
                neighbor = list(correct)
                for position in positions:
                    neighbor[position] = "1" if neighbor[position] == "0" else "0"
                key = "".join(neighbor)
                data[key] = data.get(key, 0.0) + float(rng.uniform(0.005, 0.02))
            noisy = Distribution(data, num_bits=num_bits)
            assert noisy.most_probable() == spurious
            corrected = hammer(noisy)
            assert corrected.most_probable() == correct, f"trial {trial} did not flip"
            gap_before = noisy.probability(correct) / noisy.probability(spurious)
            gap_after = corrected.probability(correct) / corrected.probability(spurious)
            assert gap_after > gap_before


class TestConfig:
    def test_resolved_cutoff_default(self):
        assert HammerConfig().resolved_cutoff(10) == 5

    def test_resolved_cutoff_explicit(self):
        assert HammerConfig(neighborhood_cutoff=3).resolved_cutoff(10) == 3

    def test_resolved_cutoff_rejects_negative(self):
        with pytest.raises(DistributionError):
            HammerConfig(neighborhood_cutoff=-1).resolved_cutoff(10)

    def test_weight_scheme_by_name(self):
        config = HammerConfig(weight_scheme="uniform")
        corrected = hammer(Distribution({"00": 0.6, "01": 0.4}), config)
        assert sum(corrected.probabilities().values()) == pytest.approx(1.0)

    def test_unknown_weight_scheme_rejected(self):
        with pytest.raises(DistributionError):
            hammer(Distribution({"00": 0.6, "01": 0.4}), HammerConfig(weight_scheme="bogus"))


class TestNeighborhoodScores:
    def test_result_exposes_intermediates(self):
        dist = Distribution({"000": 0.4, "001": 0.3, "011": 0.2, "111": 0.1})
        result = neighborhood_scores(dist)
        assert result.num_bits == 3
        assert len(result.weights) >= 2
        assert set(result.scores) == set(dist.outcomes())
        assert result.config.use_filter is True

    def test_weights_zero_beyond_cutoff(self):
        dist = Distribution({"0000": 0.4, "0001": 0.3, "0011": 0.2, "1111": 0.1})
        result = neighborhood_scores(dist)
        cutoff = result.config.resolved_cutoff(4)
        assert all(w == 0 for w in result.weights[cutoff:])

    def test_filter_limits_credit(self):
        """With the filter, a low-probability outcome gets no credit from richer neighbours."""
        dist = Distribution({"000": 0.55, "001": 0.40, "011": 0.05})
        with_filter = neighborhood_scores(dist, HammerConfig(use_filter=True))
        without_filter = neighborhood_scores(dist, HammerConfig(use_filter=False))
        assert with_filter.scores["011"] <= without_filter.scores["011"]

    def test_scores_dict_is_built_lazily_and_once(self):
        dist = Distribution({"000": 0.4, "001": 0.3, "011": 0.2, "111": 0.1})
        result = neighborhood_scores(dist)
        assert "scores" not in result.__dict__
        scores = result.scores
        assert result.scores is scores
        assert list(scores) == dist.outcomes()
        assert list(scores.values()) == result.score_vector.tolist()
