"""Property suite for the pairwise Hamming kernels.

Both kernel plans — the bit-stable ``dense`` arithmetic and the
filter-aware ``levels`` sweep — must agree with ``hammer_reference`` (the
paper's Algorithm 1, pure-Python loops) on arbitrary supports, including
word-boundary widths (63/64/65), count-level supports where ties dominate,
and degenerate single-outcome distributions.  The popcount dispatch, the
dispatcher and the environment overrides of the tuning layer are covered
here too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Distribution, HammerConfig, hammer, hammer_reference
from repro.core import tuning
from repro.core.hammer import neighborhood_scores
from repro.core.kernels import (
    DENSE_SUPPORT_MAX,
    _popcount_lut_u64,
    choose_plan,
    chs_histogram,
    has_fast_popcount,
    hammer_pass,
    popcount_u64,
)
from repro.core.spectrum import average_chs
from repro.core.bitstring import pairwise_block_size
from repro.exceptions import DistributionError
from repro.obs import Observation

ALL_PLANS = ("dense", "levels")


@pytest.fixture(autouse=True)
def _reset_kernel_override():
    yield
    tuning.set_kernel_override(None)


def _force(plan):
    tuning.set_kernel_override(plan)


@st.composite
def kernel_distributions(draw):
    """Random supports biased toward the word-boundary widths 63/64/65."""
    num_bits = draw(
        st.one_of(
            st.sampled_from([63, 64, 65]),
            st.integers(min_value=1, max_value=70),
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**31))
    size = draw(st.integers(min_value=1, max_value=28))
    rng = np.random.default_rng(seed)
    bits = np.unique(rng.integers(0, 2, size=(size, num_bits), dtype=np.uint8), axis=0)
    strings = ["".join("1" if b else "0" for b in row) for row in bits]
    weights = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0),
            min_size=len(strings),
            max_size=len(strings),
        )
    )
    return Distribution(dict(zip(strings, weights)), num_bits=num_bits)


def _count_distribution(num_bits, shots, seed, flip=0.15):
    """A sampled histogram: ``shots`` noisy copies of one random outcome.

    Each bit of each shot flips with probability ``flip``.  Probabilities
    are counts over shots, so outcomes share a few count levels, ties
    dominate and most outcomes of a wide register sit at count 1, as in
    the histograms HAMMER post-processes.
    """
    rng = np.random.default_rng(seed)
    center = rng.integers(0, 2, size=num_bits, dtype=np.uint8)
    draws = (rng.random((shots, num_bits)) < flip).astype(np.uint8) ^ center
    bits, counts = np.unique(draws, axis=0, return_counts=True)
    strings = ["".join("1" if b else "0" for b in row) for row in bits]
    return Distribution(dict(zip(strings, counts.tolist())), num_bits=num_bits)


@st.composite
def count_distributions(draw):
    num_bits = draw(st.sampled_from([5, 16, 63, 64, 65]))
    shots = draw(st.integers(min_value=1, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    flip = draw(st.sampled_from([0.02, 0.1, 0.3]))
    return _count_distribution(num_bits, shots, seed, flip)


def _assert_matches_reference(dist, config):
    reference = hammer_reference(dist, config)
    reconstructed = hammer(dist, config)
    for outcome, probability in reference.probabilities().items():
        assert reconstructed.probability(outcome) == pytest.approx(
            probability, rel=1e-9, abs=1e-12
        ), outcome


class TestKernelEquivalence:
    @given(kernel_distributions(), st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_all_plans_match_reference(self, dist, use_filter, include_self):
        config = HammerConfig(use_filter=use_filter, include_self_probability=include_self)
        reference = hammer_reference(dist, config)
        for plan in ALL_PLANS:
            _force(plan)
            reconstructed = hammer(dist, config)
            for outcome, probability in reference.probabilities().items():
                assert reconstructed.probability(outcome) == pytest.approx(
                    probability, abs=1e-9
                ), (plan, outcome)

    @given(kernel_distributions())
    @settings(max_examples=40, deadline=None)
    def test_chs_plans_agree(self, dist):
        packed = dist.packed()
        expected = chs_histogram(packed, packed.probabilities, dist.num_bits, plan="dense")
        got = chs_histogram(packed, packed.probabilities, dist.num_bits, plan="levels")
        assert np.allclose(got, expected, atol=1e-9)

    @pytest.mark.parametrize("plan", ALL_PLANS)
    def test_single_outcome_distribution(self, plan):
        _force(plan)
        dist = Distribution.point_mass("0" * 65)
        assert hammer(dist).probability("0" * 65) == pytest.approx(1.0)

    @pytest.mark.parametrize("width", [63, 64, 65])
    def test_word_boundary_widths_large_support(self, width):
        """The levels plan agrees with forced dense across the uint64 seam."""
        rng = np.random.default_rng(width)
        center = rng.integers(0, 2, size=width, dtype=np.uint8)
        bits = np.unique(
            (rng.random((4000, width)) < 0.2).astype(np.uint8) ^ center, axis=0
        )
        strings = ["".join("1" if b else "0" for b in row) for row in bits]
        weights = rng.random(len(strings)) + 0.01
        dist = Distribution(dict(zip(strings, weights)), num_bits=width)
        _force("dense")
        expected = hammer(dist)
        _force("levels")
        got = hammer(dist)
        for outcome in expected.probabilities():
            assert got.probability(outcome) == pytest.approx(
                expected.probability(outcome), abs=1e-9
            )

    def test_unknown_plan_rejected(self):
        dist = Distribution({"01": 1.0, "10": 1.0})
        packed = dist.packed()
        with pytest.raises(DistributionError):
            hammer_pass(packed, packed.probabilities, 1, lambda chs: chs, True, plan="nope")
        with pytest.raises(DistributionError):
            chs_histogram(packed, packed.probabilities, 1, plan="legcay")
        assert tuning.KERNEL_PLANS == ("dense", "levels")
        for retired in ("legacy", "tiled", "streaming", "gpu"):
            with pytest.raises(DistributionError):
                hammer_pass(packed, packed.probabilities, 1, lambda chs: chs, True, plan=retired)


class TestLevelsPlan:
    """The filter-aware sweep on count-level supports, where ties dominate."""

    @given(count_distributions(), st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_levels_matches_reference_on_count_supports(self, dist, use_filter, include_self):
        _force("levels")
        config = HammerConfig(use_filter=use_filter, include_self_probability=include_self)
        _assert_matches_reference(dist, config)

    @pytest.mark.parametrize("width", [5, 16, 63, 64, 65])
    @pytest.mark.parametrize("use_filter", [True, False])
    def test_degenerate_supports_match_reference(self, width, use_filter):
        config = HammerConfig(use_filter=use_filter)
        one_above = {format(k, f"0{width}b"): 1 for k in range(8)}
        one_above["0" * (width - 1) + "1"] = 3
        cases = {
            "all-equal": {format(k, f"0{width}b"): 4 for k in range(1, 9)},
            "one row above the lowest level": one_above,
            "single outcome": {"1" * width: 7},
        }
        _force("levels")
        for name, counts in cases.items():
            dist = Distribution(counts, num_bits=width)
            _assert_matches_reference(dist, config)
            assert neighborhood_scores(dist, config).kernel == "levels", name

    @pytest.mark.parametrize("plan", ALL_PLANS)
    def test_equal_count_neighbours_give_zero_credit(self, plan):
        """The filter is strict: ``P(y) < P(x)``, never ``<=``."""
        _force(plan)
        # 0000 and 0001 tie at distance 1; 0011 is one flip from 0001 only
        # (the 4-bit cutoff keeps distances 0 and 1).
        dist = Distribution({"0000": 5, "0001": 5, "0011": 1})
        result = neighborhood_scores(dist, HammerConfig(include_self_probability=False))
        assert result.scores["0000"] == 0.0
        assert result.scores["0011"] == 0.0
        assert result.scores["0001"] == pytest.approx(result.weights[1] * 1 / 11)
        # Break the tie and 0000 earns credit from its now-lower neighbour.
        broken = Distribution({"0000": 6, "0001": 5, "0011": 1})
        assert neighborhood_scores(broken).scores["0000"] > 6 / 12

    @pytest.mark.parametrize("width", [16, 64])
    def test_count_levels_large_support(self, width):
        """Above the dense boundary, levels matches forced dense on real-shaped counts."""
        dist = _count_distribution(width, shots=8192 if width == 16 else 3000, seed=width, flip=0.2 if width == 16 else 0.05)
        assert dist.num_outcomes > DENSE_SUPPORT_MAX
        for use_filter in (True, False):
            config = HammerConfig(use_filter=use_filter)
            _force("dense")
            expected = neighborhood_scores(dist, config)
            _force("levels")
            got = neighborhood_scores(dist, config)
            assert got.kernel == "levels"
            # Past the WHT's width limit the two plans sum the CHS spectrum
            # in different orders; the scores inherit that last-ulp spread.
            assert np.allclose(got.score_vector, expected.score_vector, rtol=1e-10, atol=0)

    def test_work_accounting_skips_the_lowest_level(self):
        # 12 bits: the CHS step is the dense WHT, so every pair counted here
        # was popcounted by the score sweep.
        dist = _count_distribution(12, shots=4096, seed=3, flip=0.2)
        packed = dist.packed()
        probabilities = packed.probabilities
        above = int(np.count_nonzero(probabilities > probabilities.min()))
        assert 0 < above < dist.num_outcomes
        weight_fn = lambda chs: np.where(chs > 0, 1.0 / np.maximum(chs, 1e-12), 0.0)  # noqa: E731
        filtered = hammer_pass(packed, probabilities, 8, weight_fn, True, plan="levels")
        assert filtered.rows == above
        assert 0 < filtered.pairs < above * dist.num_outcomes
        unfiltered = hammer_pass(packed, probabilities, 8, weight_fn, False, plan="levels")
        assert unfiltered.rows == dist.num_outcomes
        assert unfiltered.pairs == dist.num_outcomes**2
        flat = Distribution({format(k, "012b"): 2 for k in range(1200)}).packed()
        none = hammer_pass(flat, flat.probabilities, 8, weight_fn, True, plan="levels")
        assert (none.rows, none.pairs) == (0, 0)
        assert not none.scores.any()

    def test_span_and_counter_record_the_work(self):
        dist = _count_distribution(16, shots=4096, seed=5, flip=0.2)
        with Observation() as observation:
            result = neighborhood_scores(dist)
        assert result.kernel == "levels"
        counters = observation.registry.snapshot()["counters"]
        assert counters["kernel.plan.levels"] == 1
        events = [
            event
            for event in observation.chrome_trace()["traceEvents"]
            if event.get("ph") == "X" and event["name"] == "kernel.hammer"
        ]
        assert len(events) == 1
        args = events[0]["args"]
        assert args["plan"] == "levels"
        assert args["rows"] < dist.num_outcomes
        assert counters["kernel.hammer.pairs"] == args["pairs"] > 0


class TestPopcountDispatch:
    def test_lut_matches_native(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 2**63, size=(257,), dtype=np.uint64)
        values[:3] = (0, 1, np.iinfo(np.uint64).max)
        expected = np.array([bin(int(v)).count("1") for v in values], dtype=np.uint8)
        assert np.array_equal(_popcount_lut_u64(values), expected)
        assert np.array_equal(popcount_u64(values), expected)

    def test_lut_handles_2d_and_noncontiguous(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 2**63, size=(8, 6), dtype=np.uint64)
        assert np.array_equal(_popcount_lut_u64(values.T), popcount_u64(values.T))

    def test_fast_popcount_reports_numpy2(self):
        assert has_fast_popcount() == hasattr(np, "bitwise_count")


class TestDispatcher:
    def test_small_supports_stay_on_dense(self):
        assert choose_plan(DENSE_SUPPORT_MAX, 12) == "dense"
        assert choose_plan(1, 127) == "dense"

    def test_large_supports_tile(self):
        """Large supports run the row-tiled levels sweep at every width."""
        for width in (12, 127, 640):
            assert choose_plan(DENSE_SUPPORT_MAX + 1, width) == "levels"
        assert choose_plan(50_000, 16) == "levels"

    def test_override_wins(self):
        _force("levels")
        assert choose_plan(2, 2) == "levels"
        _force("dense")
        assert choose_plan(50_000, 16) == "dense"

    def test_hammer_result_reports_plan(self):
        small = Distribution({"01": 1.0, "10": 2.0})
        assert neighborhood_scores(small).kernel == "dense"
        _force("levels")
        assert neighborhood_scores(small).kernel == "levels"


class TestTuningOverrides:
    def test_block_entries_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAIRWISE_BLOCK_ENTRIES", str(1 << 20))
        assert tuning.pairwise_block_entries() == 1 << 20
        assert pairwise_block_size(2048) == (1 << 20) // 2048

    def test_block_entries_default_is_historical(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAIRWISE_BLOCK_ENTRIES", raising=False)
        assert tuning.pairwise_block_entries() == 4_000_000
        assert pairwise_block_size(100) == 100

    def test_block_entries_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAIRWISE_BLOCK_ENTRIES", "many")
        with pytest.raises(DistributionError):
            tuning.pairwise_block_entries()
        monkeypatch.setenv("REPRO_PAIRWISE_BLOCK_ENTRIES", "-3")
        with pytest.raises(DistributionError):
            tuning.pairwise_block_entries()

    def test_tile_entries_env_override_and_clamp(self, monkeypatch):
        monkeypatch.setenv("REPRO_TILE_ENTRIES", str(1 << 22))
        assert tuning.tile_entries() == 1 << 22
        monkeypatch.setenv("REPRO_TILE_ENTRIES", "1")
        assert tuning.tile_entries() == 1 << 20  # clamped to the minimum

    def test_tile_shape_is_deterministic_and_bounded(self):
        rows, cols = tuning.tile_shape(100_000)
        assert (rows, cols) == tuning.tile_shape(100_000)
        assert rows * cols <= 2 * tuning.tile_entries()
        small_rows, small_cols = tuning.tile_shape(10)
        assert small_rows == 10 and small_cols == 10

    def test_kernel_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_HAMMER_KERNEL", "levels")
        assert tuning.kernel_override() == "levels"
        monkeypatch.setenv("REPRO_HAMMER_KERNEL", "tiled")
        with pytest.raises(DistributionError):
            tuning.kernel_override()
        monkeypatch.setenv("REPRO_HAMMER_KERNEL", "auto")
        assert tuning.kernel_override() is None
        monkeypatch.setenv("REPRO_HAMMER_KERNEL", "warp")
        with pytest.raises(DistributionError):
            tuning.kernel_override()

    def test_set_kernel_override_validates(self):
        with pytest.raises(DistributionError):
            tuning.set_kernel_override("warp")

    def test_tuning_report_shape(self):
        report = tuning.tuning_report()
        assert set(report) == {
            "cache_bytes",
            "pairwise_block_entries",
            "tile_entries",
            "kernel_override",
        }
        assert report["kernel_override"] == "auto"


class TestAverageChsRoutesThroughKernels:
    @pytest.mark.parametrize("plan", ALL_PLANS)
    def test_average_chs_stable_across_plans(self, plan):
        rng = np.random.default_rng(9)
        bits = np.unique(rng.integers(0, 2, size=(300, 65), dtype=np.uint8), axis=0)
        strings = ["".join("1" if b else "0" for b in row) for row in bits]
        dist = Distribution(
            dict(zip(strings, rng.random(len(strings)) + 0.01)), num_bits=65
        )
        expected = average_chs(dist)
        _force(plan)
        assert np.allclose(average_chs(dist), expected, atol=1e-9)
