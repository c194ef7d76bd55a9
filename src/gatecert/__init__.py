"""gatecert: certify noisy multi-qubit gates from two classical fidelities.

Simulate a noisy implementation of a target unitary as a Kraus channel,
measure how faithfully it maps two complementary product bases, and turn
those two numbers into rigorous bounds on the process fidelity, a lower
bound on the entanglement capability, and (for the 3-qubit entangling
chain) a certified violation of the local-realistic correlation ceiling.
"""

from .channel import (
    Channel,
    ChiMatrix,
    PauliChannel,
    error_probabilities,
    kraus_to_chi,
    process_fidelity,
)
from .certify import (
    BASES,
    CAPABILITY_THRESHOLD,
    VIOLATION_THRESHOLD,
    FidelityReport,
    capability_bound,
    certify,
    classical_fidelity,
    fidelity_bounds,
    ghz_chain_gate,
    ghz_floor,
    ghz_summary,
    violation_verdict,
)
from .core import (
    CapacityError,
    ConsistencyError,
    ErrorBasis,
    GateSpec,
    build_error_basis,
    orthogonality_residual,
)
from .noise import NOISE_KINDS, NoiseSpec, noisy_gate, random_cptp
from .sampler import FidelityEstimate, ShotPlan, basis_subseed, sample_transfer, sampled_report
from .tolerances import MAX_QUBITS, TOL, Tolerances

__version__ = "0.1.0"

__all__ = [
    "BASES",
    "CAPABILITY_THRESHOLD",
    "CapacityError",
    "Channel",
    "ChiMatrix",
    "ConsistencyError",
    "ErrorBasis",
    "FidelityEstimate",
    "FidelityReport",
    "GateSpec",
    "MAX_QUBITS",
    "NOISE_KINDS",
    "NoiseSpec",
    "PauliChannel",
    "ShotPlan",
    "TOL",
    "Tolerances",
    "VIOLATION_THRESHOLD",
    "basis_subseed",
    "build_error_basis",
    "capability_bound",
    "certify",
    "classical_fidelity",
    "error_probabilities",
    "fidelity_bounds",
    "ghz_chain_gate",
    "ghz_floor",
    "ghz_summary",
    "kraus_to_chi",
    "noisy_gate",
    "orthogonality_residual",
    "process_fidelity",
    "random_cptp",
    "sample_transfer",
    "sampled_report",
    "violation_verdict",
]
