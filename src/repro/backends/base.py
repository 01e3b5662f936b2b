"""The ``SimulatorBackend`` protocol and backend registry.

A *backend* turns a circuit into its noise-free measurement
:class:`~repro.core.distribution.Distribution`; everything downstream of that
artifact (noisy sampling, caching, HAMMER post-processing) is
backend-agnostic.  The engine asks the registry to resolve a job's
``backend`` field:

* ``"statevector"`` — dense simulation, any gate set, ≤ 24 qubits;
* ``"stabilizer"`` — packed-tableau simulation, Clifford circuits only,
  device-scale widths;
* ``"auto"`` — stabilizer whenever the (transpiled) circuit is Clifford and
  fits the tableau, dense statevector otherwise.

New backends register with :func:`register_backend`; resolution is pure (no
state beyond the registry), so worker processes rebuild it from the module
import alone.
"""

from __future__ import annotations

import abc

from repro.core.distribution import Distribution
from repro.exceptions import BackendError
from repro.obs.metrics import counter_add
from repro.quantum.circuit import QuantumCircuit

__all__ = [
    "SimulatorBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "resolve_backend",
    "backend_rows",
    "AUTO_BACKEND",
]

#: Registry token for dispatch-by-circuit (not itself a backend).
AUTO_BACKEND = "auto"


class SimulatorBackend(abc.ABC):
    """Interface every ideal-simulation backend implements.

    Subclasses are stateless: one registered instance serves every job, and
    worker processes obtain the same instance from the registry by name.
    """

    #: Registry key (lower case).
    name: str = "abstract"
    #: One-line human description for the ``backends`` CLI listing.
    description: str = ""

    @abc.abstractmethod
    def ideal_distribution(self, circuit: QuantumCircuit) -> Distribution:
        """Noise-free measurement distribution of the circuit."""

    def max_qubits(self) -> int | None:
        """Largest register the backend can simulate (``None`` = unbounded)."""
        return None

    def unsupported_reason(self, circuit: QuantumCircuit) -> str | None:
        """Why this backend cannot run the circuit, or ``None`` if it can."""
        limit = self.max_qubits()
        if limit is not None and circuit.num_qubits > limit:
            return (
                f"circuit {circuit.name!r} needs {circuit.num_qubits} qubits but the "
                f"{self.name} backend is limited to {limit}"
            )
        return None

    def supports(self, circuit: QuantumCircuit) -> bool:
        """True when the backend can simulate the circuit."""
        return self.unsupported_reason(circuit) is None

    def ensure_supports(self, circuit: QuantumCircuit) -> None:
        """Raise :class:`~repro.exceptions.BackendError` when unsupported."""
        reason = self.unsupported_reason(circuit)
        if reason is not None:
            raise BackendError(reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


_REGISTRY: dict[str, SimulatorBackend] = {}


def register_backend(backend: SimulatorBackend) -> SimulatorBackend:
    """Add a backend instance to the registry (idempotent per name)."""
    if not backend.name or backend.name == AUTO_BACKEND:
        raise BackendError(f"invalid backend name {backend.name!r}")
    _REGISTRY[backend.name] = backend
    return backend


def available_backends() -> list[str]:
    """Sorted names of every registered backend (excluding ``"auto"``)."""
    return sorted(_REGISTRY)


def get_backend(name: str) -> SimulatorBackend:
    """Look up a backend by registry name."""
    key = name.lower()
    if key not in _REGISTRY:
        raise BackendError(
            f"unknown backend {name!r}; available: {available_backends()} (or 'auto')"
        )
    return _REGISTRY[key]


def resolve_backend(name: str, circuit: QuantumCircuit) -> SimulatorBackend:
    """Resolve a job's backend request against the circuit that will run.

    An explicit name is the override: it is validated against the circuit
    (width limit, gate set) so misconfigured jobs fail with a clear message
    instead of deep inside simulation.  ``"auto"`` applies the heuristic:
    the stabilizer backend when the circuit is Clifford and fits the
    tableau, the statevector backend otherwise.  Every resolution counts
    one ``backend.<name>`` obs counter.
    """
    if name == AUTO_BACKEND:
        stabilizer = _REGISTRY.get("stabilizer")
        stabilizer_reason = (
            stabilizer.unsupported_reason(circuit) if stabilizer is not None
            else "stabilizer backend not registered"
        )
        if stabilizer_reason is None:
            backend = stabilizer
        else:
            backend = get_backend("statevector")
            reason = backend.unsupported_reason(circuit)
            if reason is not None:
                raise BackendError(
                    f"no backend can run circuit {circuit.name!r}: {reason}; "
                    f"{stabilizer_reason}"
                )
    else:
        backend = get_backend(name)
        backend.ensure_supports(circuit)
    counter_add(f"backend.{backend.name}")
    return backend


def backend_rows() -> list[dict[str, object]]:
    """The registry as flat rows for the ``backends`` CLI subcommand."""
    rows = []
    for name in available_backends():
        backend = _REGISTRY[name]
        limit = backend.max_qubits()
        rows.append(
            {
                "name": name,
                "max_qubits": "unbounded" if limit is None else limit,
                "description": backend.description,
            }
        )
    rows.append(
        {
            "name": AUTO_BACKEND,
            "max_qubits": "-",
            "description": "dispatch: stabilizer for Clifford circuits, statevector otherwise",
        }
    )
    return rows
