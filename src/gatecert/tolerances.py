"""Numerical tolerances and capacity limits, collected in one place.

Every validation threshold used by the package lives here so that the
individual modules never hard-code their own magic numbers.  The defaults
reflect what double-precision arithmetic comfortably achieves for systems
of up to ``MAX_QUBITS`` qubits.
"""

from dataclasses import dataclass

__all__ = ["Tolerances", "TOL", "MAX_QUBITS"]


@dataclass(frozen=True)
class Tolerances:
    """Absolute tolerances for the package's validation checks."""

    # Limits on the largest absolute row sum of u^dag u - I and of
    # sum_m K_m^dag K_m - I, which bound every eigenvalue.  By Cauchy-Schwarz
    # every transfer probability is then at most (1 + unitarity)(1 +
    # kraus_trace_preserving) < 1 + probability_slack, and every trace the
    # basis-check reads is at most 2**n unitarity (core._orthogonality_bound).
    unitarity: float = 4e-11
    kraus_trace_preserving: float = 4e-11
    chi_diagonal: float = 1e-9
    chi_trace: float = 1e-9
    diagonal_identity: float = 1e-8
    probability_slack: float = 1e-10
    bound_slack: float = 1e-9
    # Pure phase noise makes the lower fidelity bound analytically tight, so
    # the two sides of the comparison are independently rounded copies of the
    # same real number; bound_dust absorbs that last-ulp disagreement.
    bound_dust: float = 1e-12
    # A report's bounds and correlation floor must be those that certify._certificate
    # and ghz_floor derive from its own fz, fx and F.
    capability_arithmetic: float = 1e-12
    # A finite-shot mean must be its pooled success count over the shot total.
    pooled_mean: float = 1e-12
    # Entry-wise distance at which a gate counts as the 3-qubit entangling chain.
    gate_match: float = 1e-12


TOL = Tolerances()

# Certification, exact or sampled, reads only 2**(N+1) - 1 diagonal entries
# of the process matrix (its phase-only column and bit-only row), and
# basis-check works on the 2**N x 2**N u^dag u, but the text of
# the process matrix that --include-chi writes still holds 16**N entries.
# Six qubits (16.8 million entries, about 201 MB of JSON) is the largest
# configuration that stays desk-friendly.
MAX_QUBITS = 6
