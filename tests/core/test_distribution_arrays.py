"""The array storage of Distribution: parity with mappings, totals, pickles, no strings.

A distribution stores packed uint64 words, a float64 weight vector and the
weights' left-to-right total; the ``outcome -> weight`` mapping is a lazy
view.  These tests pin that every constructor agrees bit for bit with the
mapping it stands for, that totals do not depend on the Python version,
that the cache loads entries pickled by the dict-backed class, and that the
two benchmark studies run without rendering a single outcome string.
"""

from __future__ import annotations

import copyreg
import io
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitstring as bitstring_module
from repro.core import distribution as distribution_module
from repro.core.bitstring import PackedOutcomes
from repro.core.distribution import Distribution, sequential_sum
from repro.engine import ExecutionEngine
from repro.engine.cache import ExecutionCache
from repro.exceptions import DistributionError
from repro.experiments import BvStudyConfig, LayersStudyConfig, run_bv_study, run_layers_study
from repro.metrics.fidelity import (
    geometric_mean,
    inference_strength,
    probability_of_successful_trial,
)


def _bits_of(values: list[int], width: int) -> np.ndarray:
    return np.array(
        [[(value >> (width - 1 - column)) & 1 for column in range(width)] for value in values],
        dtype=np.uint8,
    )


def _string(value: int, width: int) -> str:
    return format(value, f"0{width}b")


# ----------------------------------------------------------------------
# Parity: array-built and mapping-built distributions agree bit for bit
# ----------------------------------------------------------------------
_WEIGHTS = st.one_of(
    st.sampled_from([1.0, 2.0, 3.0, 0.5, 1e-16, 7.25]),
    st.floats(min_value=1e-9, max_value=1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def _supports(draw, width: int):
    values = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << width) - 1),
            min_size=1,
            max_size=24,
            unique=True,
        )
    )
    weights = draw(st.lists(_WEIGHTS, min_size=len(values), max_size=len(values)))
    absent = draw(st.integers(min_value=0, max_value=(1 << width) - 1).filter(
        lambda value: value not in values
    ))
    return values, weights, absent


def _assert_same(array_built: Distribution, mapping_built: Distribution, absent: str) -> None:
    assert array_built.outcomes() == mapping_built.outcomes()
    assert list(array_built.items()) == list(mapping_built.items())
    assert array_built.counts() == mapping_built.counts()
    assert array_built.probabilities() == mapping_built.probabilities()
    for outcome in mapping_built.outcomes() + [absent]:
        assert array_built.probability(outcome) == mapping_built.probability(outcome)
        assert (outcome in array_built) == (outcome in mapping_built)
    assert array_built.probability(absent, default=-1.0) == -1.0
    assert len(array_built) == len(mapping_built)
    assert array_built.total_weight == mapping_built.total_weight
    assert np.array_equal(array_built.probability_vector(), mapping_built.probability_vector())
    assert np.array_equal(array_built.packed().words, mapping_built.packed().words)
    assert array_built.ranked_outcomes() == mapping_built.ranked_outcomes()
    assert array_built.most_probable() == mapping_built.most_probable()


def _assert_same_metrics(
    array_built: Distribution, mapping_built: Distribution, absent: str
) -> None:
    outcomes = mapping_built.outcomes()
    queries = [
        outcomes[:1],
        outcomes[:3],
        outcomes[-2:] + [absent],
        [absent],
        outcomes,  # every support outcome correct: IST is inf
    ]
    for correct in queries:
        assert probability_of_successful_trial(array_built, correct) == (
            probability_of_successful_trial(mapping_built, correct)
        )
        assert inference_strength(array_built, correct) == inference_strength(
            mapping_built, correct
        )
    assert inference_strength(array_built, outcomes) == math.inf


class TestParity:
    @pytest.mark.parametrize("width", [5, 16, 63, 64, 65])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_from_packed_matches_mapping(self, width, data):
        values, weights, absent_value = data.draw(_supports(width))
        mapping = {_string(v, width): w for v, w in zip(values, weights)}
        packed = PackedOutcomes.from_bit_matrix(_bits_of(values, width))
        array_built = Distribution.from_packed(packed, weights=np.array(weights))
        mapping_built = Distribution(mapping, num_bits=width)
        absent = _string(absent_value, width)
        _assert_same(array_built, mapping_built, absent)
        _assert_same_metrics(array_built, mapping_built, absent)

    @pytest.mark.parametrize("width", [5, 16])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_from_statevector_matches_mapping(self, width, data):
        values, weights, absent_value = data.draw(_supports(width))
        vector = np.zeros(1 << width)
        vector[values] = weights
        vector /= vector.sum()
        cutoff = 1e-12
        mapping = {
            _string(index, width): float(vector[index])
            for index in range(1 << width)
            if vector[index] > cutoff
        }
        array_built = Distribution.from_statevector_probabilities(vector, width, cutoff)
        mapping_built = Distribution(mapping, num_bits=width)
        absent = _string(absent_value, width)
        _assert_same(array_built, mapping_built, absent)
        _assert_same_metrics(array_built, mapping_built, absent)

    @pytest.mark.parametrize("width", [5, 16, 63, 64, 65])
    def test_duplicate_packed_rows_raise(self, width):
        values = [3, 1, 3] if width < 64 else [3, 1 << (width - 1), 3]
        packed = PackedOutcomes.from_bit_matrix(_bits_of(values, width))
        with pytest.raises(DistributionError, match="duplicate rows"):
            Distribution.from_packed(packed, weights=np.ones(3))

    def test_malformed_queries_are_absent(self):
        dist = Distribution.from_statevector_probabilities(np.full(8, 0.125), 3)
        for query in ("1", "0101", "01x", " 01", "0b1", 5):
            assert dist.probability(query) == 0.0
            assert query not in dist
        assert dist.support_indices(["011", "11", "111"]).tolist() == [3, -1, 7]


# ----------------------------------------------------------------------
# Totals: one left-to-right accumulation on every Python version
# ----------------------------------------------------------------------
class TestSequentialTotals:
    # 1e-16 is below half an ulp of 1.0: a plain left-to-right sum stays at
    # 1.0, a compensated one (builtin sum on Python >= 3.12) reaches
    # 1.0000000000000002.
    WEIGHTS = [1.0, 1e-16, 1e-16]

    def test_inputs_separate_the_two_summations(self):
        assert math.fsum(self.WEIGHTS) == 1.0000000000000002
        assert sequential_sum(self.WEIGHTS) == 1.0
        assert sequential_sum([]) == 0.0

    def test_total_weight_is_left_to_right(self):
        mapping = Distribution({"00": 1.0, "01": 1e-16, "10": 1e-16})
        packed = Distribution.from_packed(
            PackedOutcomes.from_bit_matrix(_bits_of([0, 1, 2], 2)),
            weights=np.array(self.WEIGHTS),
        )
        statevector = Distribution.from_statevector_probabilities(
            np.array(self.WEIGHTS + [0.0]), 2, cutoff=0.0
        )
        for dist in (mapping, packed, statevector):
            assert dist.total_weight == 1.0
            assert dist.probability("00") == 1.0

    def test_geometric_mean_is_left_to_right(self):
        # log(e^2) = 2.0 exactly and log(1 + 2^-52) is half an ulp of 2.0.
        values = [math.exp(2.0), 1.0 + 2.0**-52, 1.0 + 2.0**-52]
        logs = [math.log(value) for value in values]
        assert math.fsum(logs) != 2.0
        assert geometric_mean(values) == math.exp(2.0 / 3)

    def test_pst_is_left_to_right(self):
        dist = Distribution({"00": 1.0, "01": 1e-16, "10": 1e-16})
        assert probability_of_successful_trial(dist, ["00", "01", "10"]) == 1.0


# ----------------------------------------------------------------------
# Pickles: arrays only, and entries written by the dict-backed class
# ----------------------------------------------------------------------
def _dict_backed_pickle(slots: dict) -> bytes:
    """Bytes exactly as the dict-backed ``Distribution`` pickled itself.

    That class had ``__slots__ = ("_weights", "_num_bits", "_total",
    "_packed", "_pvec")`` and no ``__getstate__``, so protocol 2+ wrote
    ``copyreg.__newobj__(Distribution)`` followed by the state
    ``(None, {slot: value})``.
    """

    class DictBackedPickler(pickle.Pickler):
        def reducer_override(self, obj):
            if type(obj) is Distribution:
                return copyreg.__newobj__, (Distribution,), (None, slots)
            return NotImplemented

    buffer = io.BytesIO()
    DictBackedPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(
        Distribution.__new__(Distribution)
    )
    return buffer.getvalue()


def _dict_backed_slots() -> dict:
    weights = {"0110": 3.0, "0001": 1.0, "1111": 4.0}
    strings = list(weights)
    probabilities = np.array(list(weights.values())) / 8.0
    packed = PackedOutcomes.from_strings(strings, probabilities=probabilities)
    packed.bit_matrix()
    return {
        "_weights": weights,
        "_num_bits": 4,
        "_total": 8.0,
        "_packed": packed,
        "_pvec": probabilities,
    }


class TestPickles:
    def test_state_holds_only_arrays(self):
        dist = Distribution.from_bit_matrix(_bits_of([5, 5, 9, 12], 4))
        dist.outcomes()
        dist.packed().bit_matrix()
        state = dist.__getstate__()
        assert set(state) == {"num_bits", "words", "weights", "total"}
        loaded = pickle.loads(pickle.dumps(dist, protocol=pickle.HIGHEST_PROTOCOL))
        assert not loaded.has_packed_view()
        assert np.array_equal(loaded.packed().words, dist.packed().words)
        assert np.array_equal(loaded.probability_vector(), dist.probability_vector())
        assert loaded.total_weight == dist.total_weight
        assert list(loaded.items()) == list(dist.items())

    def test_dense_ideal_pickles_small(self):
        vector = np.full(1 << 12, 1.0 / (1 << 12))
        dist = Distribution.from_statevector_probabilities(vector, 12)
        payload = pickle.dumps(dist, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(payload) < 16 * (1 << 12) + 1024

    def test_dict_backed_entry_loads_fully_working(self, tmp_path):
        expected = Distribution({"0110": 3.0, "0001": 1.0, "1111": 4.0})
        cache = ExecutionCache(cache_dir=tmp_path)
        path = tmp_path / "sample" / "legacy.pkl"
        path.parent.mkdir(parents=True)
        path.write_bytes(_dict_backed_pickle(_dict_backed_slots()))
        loaded = cache.get("sample", "legacy")
        assert isinstance(loaded, Distribution)
        _assert_same(loaded, expected, "1010")
        assert np.array_equal(loaded.weight_vector(), expected.weight_vector())
        assert loaded.mapped([3, 2, 1, 0]).probability("0110") == 0.375
        assert loaded.top_k(1).outcomes() == ["1111"]
        # ... and it round-trips in the array layout.
        again = pickle.loads(pickle.dumps(loaded))
        _assert_same(again, expected, "1010")

    def test_unusable_dict_backed_entry_is_a_clean_miss(self, tmp_path):
        slots = _dict_backed_slots()
        slots["_weights"] = {"01x0": 1.0}
        cache = ExecutionCache(cache_dir=tmp_path)
        path = tmp_path / "ideal" / "broken.pkl"
        path.parent.mkdir(parents=True)
        path.write_bytes(_dict_backed_pickle(slots))
        assert cache.get("ideal", "broken") is None
        assert not path.exists()


# ----------------------------------------------------------------------
# The benchmark studies never render an outcome string
# ----------------------------------------------------------------------
def _study_rows() -> dict:
    bv = run_bv_study(
        BvStudyConfig(qubit_range=(5, 8), keys_per_size=1, shots=2048, seed=8),
        engine=ExecutionEngine(),
    )
    layers = run_layers_study(
        LayersStudyConfig(node_values=(12,), layer_values=(1, 2), shots=2048, seed=20),
        engine=ExecutionEngine(),
    )
    return {"bv": (bv.rows, bv.summary), "layers": (layers.rows, layers.summary)}


def test_benchmark_studies_render_no_outcome_strings(monkeypatch):
    expected = _study_rows()

    def refuse(*args, **kwargs):
        raise AssertionError("an outcome string was rendered")

    monkeypatch.setattr(bitstring_module.PackedOutcomes, "to_strings", refuse)
    monkeypatch.setattr(distribution_module, "int_to_bitstring", refuse)
    assert _study_rows() == expected
