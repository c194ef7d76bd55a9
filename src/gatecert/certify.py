"""Two-basis classical fidelities and what they certify about a noisy gate.

The certification rests on three facts about a channel E with target
unitary u00, stated over the gate-relative process matrix chi:

* The computational-basis transfer fidelity equals the chi-diagonal sum over
  phase-only errors, and the complementary-basis transfer fidelity equals
  the sum over bit-only errors.  Each is measurable with product inputs and
  local projective readout when every ideal image u00|psi_n> of its input
  frame is a product state, as for the entangling chain and the identity;
  a generic (Haar-random) gate has entangled images, and this package does
  not check the condition.
* Their combination sandwiches the process fidelity:
  fz + fx - 1 <= chi_00 <= min(fz, fx).
* For entangling chain gates the sandwich converts into operational
  statements: a lower bound of 2(fz + fx) - 3 on the entanglement
  capability (certified when (fz + fx)/2 > 3/4), and for three qubits a
  floor of 8 chi_00 - 4 on a four-term three-party correlation whose
  classical ceiling is 2 (violation certified when (fz + fx)/2 > 7/8).

Each sweep (``classical_fidelity``) returns its per-input success
probabilities as one read-only vector, checked where it is made: an entry
outside [0, 1] is a bug and raises ConsistencyError.

The correlation the floor is checked against is simulator ground truth,
read from four entries of each Kraus operator (``ghz_summary``); the package
never forms a density matrix.

Every report, exact or sampled, checks the first fact on every run
(``_checked_transfer``): the 2**(n+1) - 1 diagonal entries it needs, the
phase-only column and the bit-only row that share chi_00, come from
``channel._transfer_entries``, and their sums must match fz and fx from
the basis-state sweeps, which never read chi.  The phase column goes
through the Walsh sign table and the fz sweep does not; the fx sweep's
Hadamard frame is that table and the bit row does not read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import Channel, _check_pair, _transfer_entries
from .core import (
    ConsistencyError,
    GateSpec,
    _check_qubit_count,
    _frozen,
    _kraus_blocks,
    _walsh_signs,
)
from .tolerances import TOL

__all__ = [
    "BASES",
    "CAPABILITY_THRESHOLD",
    "VIOLATION_THRESHOLD",
    "CLASSICAL_CORRELATION_CEILING",
    "FidelityReport",
    "classical_fidelity",
    "fidelity_bounds",
    "ghz_chain_gate",
    "capability_bound",
    "violation_verdict",
    "ghz_floor",
    "ghz_summary",
    "certify",
]

BASES = ("z", "x")

# Certification thresholds on (fz + fx)/2, both strict.
CAPABILITY_THRESHOLD = 3.0 / 4.0
VIOLATION_THRESHOLD = 7.0 / 8.0

# Any local-realistic model keeps the four-term correlation within +/- 2.
CLASSICAL_CORRELATION_CEILING = 2.0


@dataclass(frozen=True)
class FidelityReport:
    """Everything the two transfer fidelities certify about one channel.

    ``f_process_exact`` always comes from the process-matrix decomposition
    (simulator ground truth); ``fz``/``fx`` are exact transfer fidelities or
    finite-shot estimates depending on ``provenance``.  The three-party
    correlation fields are populated only for the 3-qubit entangling chain.
    """

    fz: float
    fx: float
    f_process_exact: float
    lower_bound: float
    upper_bound: float
    capability_bound: float
    capability_certified: bool
    violation_certified: bool
    ghz_expectation: float | None = None
    ghz_floor: float | None = None
    provenance: str = "exact"
    fz_std_error: float | None = None
    fx_std_error: float | None = None
    counts: dict | None = None

    def __post_init__(self):
        if self.provenance not in ("exact", "sampled"):
            raise ValueError(f"provenance must be 'exact' or 'sampled', got {self.provenance!r}")
        if (self.ghz_expectation is None) != (self.ghz_floor is None):
            raise ValueError("correlation expectation and floor must be reported together")
        _check_unit_interval(fz=self.fz, fx=self.fx)
        expected_cap = 2.0 * self.fz + 2.0 * self.fx - 3.0
        if not abs(self.capability_bound - expected_cap) <= TOL.capability_arithmetic:
            raise ConsistencyError(
                f"capability bound {self.capability_bound!r} disagrees with 2(fz + fx) - 3"
            )
        if self.provenance == "exact":
            if not (
                self.lower_bound - TOL.bound_dust
                <= self.f_process_exact
                <= self.upper_bound + TOL.bound_slack
            ):
                raise ConsistencyError(
                    "process fidelity escaped its bounds: "
                    f"{self.lower_bound!r} <= {self.f_process_exact!r} "
                    f"<= {self.upper_bound!r} failed"
                )


def _input_frame(n_qubits: int, basis: str) -> np.ndarray:
    """Real (float64) matrix whose column n is input state |psi_n> of the chosen product basis.

    The computational frame is the identity; the complementary frame is the
    Kronecker power H^(x n) of the normalized Hadamard, whose column n is the
    product of |+> and |-> factors selected by the bits of n.  Its entries are
    products of n entries of H, all of one magnitude, so it is bit for bit the
    Walsh sign table times the left-to-right product of n copies of that magnitude.
    A product with a complex operand casts the frame to complex128 first, so a
    complex gate or channel is swept against the frame's exact complex copy.
    """
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
    if basis == "z":
        return np.eye(1 << n_qubits)
    return _walsh_signs(n_qubits) * math.prod([1.0 / np.sqrt(2.0)] * n_qubits)


def classical_fidelity(channel: Channel, gate: GateSpec, basis: str) -> tuple[np.ndarray, float]:
    """Per-input success probabilities and their mean, the transfer fidelity for one basis.

    Input n of the chosen product basis succeeds with probability
    sum_m |<t_n| K_m |psi_n>|^2, the weight of E(|psi_n><psi_n|) on its ideal
    image |t_n> = u00 |psi_n>; all inputs are propagated at once as the
    columns of one frame matrix.  The amplitudes <t_n| K_m |psi_n> go into one
    (m x 2**n) array, real when the gate and the stack are (the frames are
    real), that is squared and summed once into the read-only vector
    of per-input probabilities, whose mean is the transfer fidelity.  An entry
    beyond TOL.probability_slack of [0, 1], NaN included, raises ConsistencyError.

    The computational frame is the identity, so there the propagated columns
    are the Kraus operators themselves, the ideal images are the columns of
    u00, and one ``einsum`` reads the stack in place.  The complementary sweep
    takes one of two routes, picked by the Kraus rank m; both do m * 8**n
    multiply-adds and read the stack once:

    * m >= 2**(n+2): each amplitude is the inner product of vec(K_m) with
      vec(|t_n><psi_n|), so all of them are one product of the stack, read in
      place as an (m x 4**n) matrix, with the (4**n x 2**n) frame
      W[(t, s), n] = conj(t_n[t]) psi_n[s].  Building W writes 8**n entries,
      a cost the other route never pays, while the one product saves that
      route's per-block temporaries and loop steps.  From this rank on the
      stack holds at least four times as many entries as W, enough for the
      saving to outweigh the build at every supported n (the crossover
      measurements are in BENCH_15.json).
    * below that rank the stack is taken in the blocks of
      ``core._kraus_blocks``: each block's K_m @ frame comes from one product
      of its vertically stacked operators with the frame, and is contracted
      with the ideal images column by column.

    Both routes build the frame from ``_input_frame``, the Walsh sign table
    that the bit-only row of ``channel._transfer_entries`` never reads, so a
    broken frame on either route still fails the fx identity in ``certify``.
    """
    n = _check_pair(channel, gate)
    kraus = channel.kraus_ops
    m, d, _ = kraus.shape
    if basis == "z":
        amplitudes = np.einsum("in,min->mn", gate.u00.conj(), kraus)
    else:
        frame = _input_frame(n, basis)
        targets = gate.u00 @ frame
        if m >= 4 * d:
            w_frame = (targets.conj()[:, np.newaxis, :] * frame).reshape(d * d, d)
            amplitudes = kraus.reshape(m, d * d) @ w_frame
        else:
            amplitudes = np.empty((m, d), dtype=np.result_type(targets, kraus))
            for block in _kraus_blocks(m, d):
                outputs = (kraus[block].reshape(-1, d) @ frame).reshape(-1, d, d)
                amplitudes[block] = np.vecdot(targets, outputs, axis=-2)
    weights = np.abs(amplitudes)
    weights **= 2
    probabilities = np.sum(weights, axis=0)
    low, high = float(np.min(probabilities)), float(np.max(probabilities))
    if not (low >= -TOL.probability_slack and high <= 1.0 + TOL.probability_slack):
        raise ConsistencyError(f"transfer probabilities outside [0, 1]: min {low!r}, max {high!r}")
    # entries a few ulps outside [0, 1] are rounding; clipped, they reach no mean or shot draw
    _frozen(np.clip(probabilities, 0.0, 1.0, out=probabilities))
    return probabilities, float(np.mean(probabilities))


def _require_diagonal_identity(fz: float, fx: float, phase: np.ndarray, bit: np.ndarray) -> tuple[float, float]:
    """Compare fz and fx with the sums of the phase-only column and the bit-only row of the chi diagonal."""
    residual_z = abs(fz - float(np.sum(phase)))
    residual_x = abs(fx - float(np.sum(bit)))
    if not (residual_z <= TOL.diagonal_identity and residual_x <= TOL.diagonal_identity):
        raise ConsistencyError(
            "transfer fidelities disagree with the process-matrix diagonal sums: "
            f"|fz - sum| = {residual_z:.3e}, |fx - sum| = {residual_x:.3e}"
        )
    return residual_z, residual_x


def _check_unit_interval(**named: float) -> None:
    for label, value in named.items():
        if not -TOL.probability_slack <= value <= 1.0 + TOL.probability_slack:
            raise ValueError(f"{label} must lie in [0, 1], got {value!r}")


def fidelity_bounds(fz: float, fx: float) -> tuple[float, float]:
    """Sandwich on the process fidelity: (fz + fx - 1, min(fz, fx)).

    The lower bound is returned unclamped, so it goes negative when the two
    fidelities are jointly poor; that keeps the bound arithmetic transparent.
    """
    _check_unit_interval(fz=fz, fx=fx)
    return fz + fx - 1.0, min(fz, fx)


def _ghz_chain_unitary(n_qubits: int) -> np.ndarray:
    """The raw matrix of ``ghz_chain_gate``, without the GateSpec checks."""
    half = 1 << (n_qubits - 1)
    u = np.zeros((2 * half, 2 * half))
    u[:half, :half] = np.eye(half)
    u[half:, half:] = np.fliplr(np.eye(half))
    return u


def ghz_chain_gate(n_qubits: int) -> GateSpec:
    """Entangling chain on n qubits: flip every target iff the first qubit is 1.

    The unitary is |0><0| (x) I + |1><1| (x) X...X with qubit 0 as control.
    It maps the product input |0_x, 0_z, ..., 0_z> to the maximally
    entangled (|0...0> + |1...1>)/sqrt(2) state.  The matrix is a real
    permutation and is held as float64.
    """
    if n_qubits < 2:
        raise ValueError(f"the entangling chain needs at least 2 qubits, got {n_qubits!r}")
    _check_qubit_count(n_qubits)
    return GateSpec(n_qubits, _ghz_chain_unitary(n_qubits), name="ghz-chain")


def capability_bound(fz: float, fx: float) -> tuple[float, bool]:
    """Lower bound 2(fz + fx) - 3 on the entanglement capability, plus the verdict.

    The verdict is True exactly when (fz + fx)/2 > 3/4 strictly, i.e. when
    the bound certifies that some product input is mapped to an entangled
    output.
    """
    _check_unit_interval(fz=fz, fx=fx)
    bound = 2.0 * fz + 2.0 * fx - 3.0
    return bound, (fz + fx) / 2.0 > CAPABILITY_THRESHOLD


def violation_verdict(fz: float, fx: float) -> bool:
    """True exactly when (fz + fx)/2 > 7/8 strictly.

    Above that line the correlation floor exceeds the local-realistic
    ceiling of 2, so the two transfer fidelities alone certify a violation.
    """
    _check_unit_interval(fz=fz, fx=fx)
    return (fz + fx) / 2.0 > VIOLATION_THRESHOLD


def ghz_floor(f_process: float) -> float:
    """Guaranteed correlation magnitude 8 f - 4 implied by process fidelity f."""
    _check_unit_interval(f_process=f_process)
    return 8.0 * f_process - 4.0


# Built once: ghz_summary compares every gate against it.
_GHZ_CHAIN_3 = _frozen(_ghz_chain_unitary(3))


def _is_ghz_chain_3(gate: GateSpec) -> bool:
    if gate.n_qubits != 3:
        return False
    return float(np.max(np.abs(gate.u00 - _GHZ_CHAIN_3))) <= TOL.gate_match


def ghz_summary(channel: Channel, gate: GateSpec, f_process: float) -> tuple[float | None, float | None]:
    """Measured three-party correlation and its floor, or (None, None).

    Populated only when the target is the 3-qubit entangling chain.  The
    correlation is <M_3> on the channel output for the entangling input
    |psi> = (|000> + |100>)/sqrt(2), with M_3 = XXX - XYY - YXY - YYX, the
    Hermitian part of (X + iY)^(x3) (Mermin, PRL 65, 1838 (1990)).  Since
    X + iY = 2|0><1|, M_3 = 4(|000><111| + h.c.) reads only amplitudes 0 and
    7 of each K_m|psi>, which are A_m / sqrt(2) and B_m / sqrt(2) with
    A_m = K_m[0, 0] + K_m[0, 4] and B_m = K_m[7, 0] + K_m[7, 4]:

        <M_3> = 4 Re sum_m conj(A_m) B_m,

    four entries per operator, O(m), with no state formed; the noiseless
    chain has A = B = 1 and gives 4 exactly.  Quantum mechanics keeps the
    value within +/- 4 (local realism within +/- 2); anything beyond, NaN
    included, is a bug and raises ConsistencyError.  The floor follows from
    the process fidelity.
    """
    if not _is_ghz_chain_3(gate):
        return None, None
    _check_pair(channel, gate)
    kraus = channel.kraus_ops
    # row m holds (A_m, B_m): rows 0 and 7 of K_m, column 0 plus column 4
    amplitudes = kraus[:, ::7, 0] + kraus[:, ::7, 4]
    value = 4.0 * float(np.vdot(amplitudes[:, 0], amplitudes[:, 1]).real)
    if not abs(value) <= 4.0 + TOL.bound_slack:
        raise ConsistencyError(f"correlation {value!r} exceeds the quantum ceiling of 4")
    return value, ghz_floor(f_process)


def _assemble_report(
    channel: Channel, gate: GateSpec, f_process: float, fz: float, fx: float, **estimate_fields
) -> FidelityReport:
    """Bounds, capability, violation verdict and GHZ summary for one (fz, fx) pair.

    ``estimate_fields`` carries the provenance, standard errors and counts of
    a finite-shot report; an exact report passes none.
    """
    lower, upper = fidelity_bounds(fz, fx)
    cap_bound, cap_ok = capability_bound(fz, fx)
    expectation, floor = ghz_summary(channel, gate, f_process)
    return FidelityReport(
        fz=fz,
        fx=fx,
        f_process_exact=f_process,
        lower_bound=lower,
        upper_bound=upper,
        capability_bound=cap_bound,
        capability_certified=cap_ok,
        violation_certified=violation_verdict(fz, fx),
        ghz_expectation=expectation,
        ghz_floor=floor,
        **estimate_fields,
    )


def _checked_transfer(channel: Channel, gate: GateSpec) -> tuple[float, dict[str, tuple[np.ndarray, float]]]:
    """The process fidelity and both sweeps, each basis keyed to its (probabilities, mean), cross-checked.

    Computes the 2**(n+1) - 1 process-matrix entries the certificate reads
    (``channel._transfer_entries``: the phase-only column, the bit-only row
    and chi_00, which they share), runs both ``classical_fidelity`` sweeps
    and checks the diagonal identities.  The process fidelity is entry 0 of
    the phase column; the full 4**n-entry diagonal is never formed.  Exact
    and sampled reports both start here, so they run the same checks.
    """
    phase, bit = _transfer_entries(channel, gate)
    sweeps = {basis: classical_fidelity(channel, gate, basis) for basis in BASES}
    _require_diagonal_identity(sweeps["z"][1], sweeps["x"][1], phase, bit)
    return float(phase[0]), sweeps


def certify(channel: Channel, gate: GateSpec) -> FidelityReport:
    """Run the full two-basis certification of a channel against its target gate.

    Takes the process fidelity and both exact transfer fidelities from
    ``_checked_transfer`` and assembles the bounds and verdicts into a
    report.  For the 3-qubit entangling chain the report also carries the
    measured three-party correlation and its fidelity floor.
    """
    f_process, sweeps = _checked_transfer(channel, gate)
    return _assemble_report(channel, gate, f_process, sweeps["z"][1], sweeps["x"][1])
