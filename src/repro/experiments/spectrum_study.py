"""Hamming-spectrum characterisation experiments (Figures 1(a), 2, 3 and 7).

These experiments visualise the paper's core observation: erroneous outcomes
cluster around the correct answer in Hamming space.

* :func:`run_bv_histogram_example` — Figure 1(a)/2(b): the noisy histogram of
  a small BV circuit, annotated with each outcome's Hamming distance to the
  key.
* :func:`run_noise_impact_example` — Figure 2(d): ideal vs noisy expected
  cost of a QAOA instance.
* :func:`run_hamming_spectrum` — Figure 3(b)/(c): the Hamming spectrum of a
  BV-8 and a QAOA-8 circuit, including the uniform-error reference line.
* :func:`run_chs_pipeline` — Figure 7: the CHS vectors, inverse-CHS weights
  and neighbourhood scores for a BV-10 circuit, showing how HAMMER closes the
  gap between the correct and the strongest incorrect outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.bv import bernstein_vazirani, bv_secret_key
from repro.circuits.ghz import ghz_circuit, ghz_correct_outcomes
from repro.circuits.qaoa import default_qaoa_parameters, qaoa_circuit
from repro.core.distribution import sequential_sum
from repro.core.hammer import HammerConfig, neighborhood_scores
from repro.core.spectrum import cumulative_hamming_strength, hamming_spectrum
from repro.engine import CircuitJob, ExecutionEngine, JobResult
from repro.exceptions import ExperimentError
from repro.experiments.runner import ExperimentReport, attach_engine_meta
from repro.maxcut.cost import CutCostEvaluator
from repro.maxcut.graphs import regular_graph_problem
from repro.metrics.fidelity import probability_of_successful_trial
from repro.quantum.device import DeviceProfile, ibm_manhattan, ibm_paris

__all__ = [
    "SpectrumStudyConfig",
    "run_bv_histogram_example",
    "run_noise_impact_example",
    "run_hamming_spectrum",
    "run_ghz_clustering",
    "run_chs_pipeline",
]


@dataclass(frozen=True)
class SpectrumStudyConfig:
    """Common knobs of the characterisation experiments."""

    shots: int = 8192
    noise_scale: float = 1.0
    transpile_circuits: bool = True
    seed: int = 3

    def __post_init__(self) -> None:
        if self.shots <= 0:
            raise ExperimentError("shots must be positive")


def _execute_circuit(
    circuit,
    device: DeviceProfile,
    config: SpectrumStudyConfig,
    engine: ExecutionEngine,
    job_id: str,
) -> JobResult:
    """Run one characterisation circuit through the engine."""
    job = CircuitJob(
        job_id=job_id,
        circuit=circuit,
        shots=config.shots,
        noise_model=device.noise_model.scaled(config.noise_scale),
        coupling_map=device.coupling_map if config.transpile_circuits else None,
        basis_gates=device.basis_gates if config.transpile_circuits else None,
    )
    return engine.run_single(job, seed=config.seed)


def run_bv_histogram_example(
    num_qubits: int = 4,
    device: DeviceProfile | None = None,
    config: SpectrumStudyConfig | None = None,
    engine: ExecutionEngine | None = None,
) -> ExperimentReport:
    """Figure 1(a): noisy histogram of a small BV circuit with Hamming annotations."""
    config = config or SpectrumStudyConfig()
    device = device or ibm_paris()
    engine = engine or ExecutionEngine()
    secret_key = bv_secret_key(num_qubits, "ones")
    noisy = _execute_circuit(
        bernstein_vazirani(secret_key), device, config, engine, f"fig1a-bv{num_qubits}"
    ).noisy
    rows = []
    for outcome, probability in noisy.ranked_outcomes():
        distance = sum(a != b for a, b in zip(outcome, secret_key))
        rows.append(
            {
                "outcome": outcome,
                "probability": probability,
                "hamming_distance": distance,
                "is_correct": outcome == secret_key,
            }
        )
    report = ExperimentReport(name="figure1a_bv_histogram", rows=rows)
    report.summary["correct_probability"] = probability_of_successful_trial(noisy, secret_key)
    within_two = sequential_sum([r["probability"] for r in rows if r["hamming_distance"] <= 2])
    report.summary["mass_within_distance_2"] = float(within_two)
    return attach_engine_meta(report, engine)


def run_noise_impact_example(
    num_qubits: int = 9,
    device: DeviceProfile | None = None,
    config: SpectrumStudyConfig | None = None,
    engine: ExecutionEngine | None = None,
) -> ExperimentReport:
    """Figure 2(d): ideal vs noisy expected cut cost of a QAOA instance."""
    config = config or SpectrumStudyConfig()
    device = device or ibm_paris()
    engine = engine or ExecutionEngine()
    nodes = num_qubits if num_qubits % 2 == 0 else num_qubits + 1
    problem = regular_graph_problem(nodes, degree=3, seed=config.seed)
    circuit = qaoa_circuit(problem, default_qaoa_parameters(1))
    evaluator = CutCostEvaluator(problem)
    result = _execute_circuit(circuit, device, config, engine, f"fig2d-qaoa{nodes}")
    ideal, noisy = result.ideal, result.noisy
    ideal_expected = evaluator.expected_cost(ideal)
    noisy_expected = evaluator.expected_cost(noisy)
    rows = [
        {
            "distribution": "ideal",
            "expected_cost": ideal_expected,
            "cost_ratio": ideal_expected / evaluator.minimum_cost(),
        },
        {
            "distribution": "noisy",
            "expected_cost": noisy_expected,
            "cost_ratio": noisy_expected / evaluator.minimum_cost(),
        },
    ]
    report = ExperimentReport(name="figure2d_noise_impact", rows=rows)
    report.summary["ideal_expected_cost"] = rows[0]["expected_cost"]
    report.summary["noisy_expected_cost"] = rows[1]["expected_cost"]
    report.summary["cost_degradation"] = rows[0]["cost_ratio"] - rows[1]["cost_ratio"]
    return attach_engine_meta(report, engine)


def run_hamming_spectrum(
    benchmark: str = "bv",
    num_qubits: int = 8,
    device: DeviceProfile | None = None,
    config: SpectrumStudyConfig | None = None,
    engine: ExecutionEngine | None = None,
) -> ExperimentReport:
    """Figure 3(b)/(c): the Hamming spectrum of a BV-8 or QAOA-8 circuit."""
    config = config or SpectrumStudyConfig()
    device = device or ibm_manhattan()
    engine = engine or ExecutionEngine()
    if benchmark == "bv":
        secret_key = bv_secret_key(num_qubits, "ones")
        circuit = bernstein_vazirani(secret_key)
        correct = [secret_key]
    elif benchmark == "qaoa":
        nodes = num_qubits if num_qubits % 2 == 0 else num_qubits + 1
        problem = regular_graph_problem(nodes, degree=3, seed=config.seed)
        circuit = qaoa_circuit(problem, default_qaoa_parameters(1))
        correct = list(CutCostEvaluator(problem).optimal_cuts())
    else:
        raise ExperimentError(f"unknown benchmark {benchmark!r}; use 'bv' or 'qaoa'")
    noisy = _execute_circuit(
        circuit, device, config, engine, f"fig3-{benchmark}{num_qubits}"
    ).noisy
    spectrum = hamming_spectrum(noisy, correct)
    uniform_bin_probability = 1.0 / (2**noisy.num_bits)
    rows = []
    for distance, probability in spectrum.as_series():
        rows.append(
            {
                "hamming_bin": distance,
                "bin_probability": probability,
                "bin_average_probability": spectrum.bin_average_probability(distance),
                "uniform_outcome_probability": uniform_bin_probability,
            }
        )
    report = ExperimentReport(name=f"figure3_hamming_spectrum_{benchmark}{num_qubits}", rows=rows)
    report.summary["correct_probability"] = spectrum.correct_probability()
    report.summary["mass_within_distance_3"] = float(spectrum.bins[: min(4, len(spectrum.bins))].sum())
    return attach_engine_meta(report, engine)


def run_ghz_clustering(
    num_qubits: int = 10,
    device: DeviceProfile | None = None,
    config: SpectrumStudyConfig | None = None,
    engine: ExecutionEngine | None = None,
) -> ExperimentReport:
    """Section 3.1: GHZ-10 — correct mass and clustering of dominant errors."""
    config = config or SpectrumStudyConfig(noise_scale=2.0)
    device = device or ibm_paris()
    engine = engine or ExecutionEngine()
    noisy = _execute_circuit(
        ghz_circuit(num_qubits), device, config, engine, f"ghz-{num_qubits}"
    ).noisy
    correct = ghz_correct_outcomes(num_qubits)
    spectrum = hamming_spectrum(noisy, correct)
    dominant_incorrect = [
        (outcome, probability)
        for outcome, probability in noisy.ranked_outcomes()
        if outcome not in correct
    ][:10]
    rows = [
        {
            "outcome": outcome,
            "probability": probability,
            "distance_to_correct": min(
                sum(a != b for a, b in zip(outcome, reference)) for reference in correct
            ),
        }
        for outcome, probability in dominant_incorrect
    ]
    report = ExperimentReport(name="section31_ghz_clustering", rows=rows)
    report.summary["correct_probability"] = spectrum.correct_probability()
    report.summary["incorrect_probability"] = 1.0 - spectrum.correct_probability()
    within_two = sequential_sum([r["probability"] for r in rows if r["distance_to_correct"] <= 2])
    total_listed = sequential_sum([r["probability"] for r in rows]) or 1.0
    report.summary["dominant_errors_within_distance_2"] = float(within_two / total_listed)
    return attach_engine_meta(report, engine)


def run_chs_pipeline(
    num_qubits: int = 10,
    device: DeviceProfile | None = None,
    config: SpectrumStudyConfig | None = None,
    engine: ExecutionEngine | None = None,
) -> ExperimentReport:
    """Figure 7: CHS, weights and neighbourhood scores for a BV-10 circuit.

    The default configuration samples the logical circuit (no SWAP routing):
    the CHS/weight mechanics of Figure 7 are clearest in the moderate-noise
    regime where the error cluster around the key is still dense.
    """
    config = config or SpectrumStudyConfig(transpile_circuits=False)
    device = device or ibm_paris()
    engine = engine or ExecutionEngine()
    secret_key = bv_secret_key(num_qubits, "ones")
    noisy = _execute_circuit(
        bernstein_vazirani(secret_key), device, config, engine, f"fig7-bv{num_qubits}"
    ).noisy
    result = neighborhood_scores(noisy, HammerConfig())
    top_incorrect = next(
        outcome for outcome, _ in noisy.ranked_outcomes() if outcome != secret_key
    )
    correct_chs = cumulative_hamming_strength(noisy, secret_key)
    incorrect_chs = cumulative_hamming_strength(noisy, top_incorrect)
    rows = []
    for distance in range(len(result.weights)):
        rows.append(
            {
                "hamming_bin": distance,
                "average_chs": float(result.average_chs[distance]),
                "weight": float(result.weights[distance]),
                "correct_chs": float(correct_chs[distance]) if distance < len(correct_chs) else 0.0,
                "top_incorrect_chs": float(incorrect_chs[distance]) if distance < len(incorrect_chs) else 0.0,
            }
        )
    report = ExperimentReport(name="figure7_chs_pipeline", rows=rows)
    report.summary["baseline_correct_probability"] = noisy.probability(secret_key)
    report.summary["baseline_top_incorrect_probability"] = noisy.probability(top_incorrect)
    report.summary["correct_score"] = result.scores.get(secret_key, 0.0)
    report.summary["top_incorrect_score"] = result.scores.get(top_incorrect, 0.0)
    report.summary["hammer_correct_probability"] = result.distribution.probability(secret_key)
    report.summary["hammer_top_incorrect_probability"] = result.distribution.probability(top_incorrect)
    return attach_engine_meta(report, engine)
