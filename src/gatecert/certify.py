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
the basis-state sweeps, which never read chi.  The phase column is a Walsh
transform over the input index and the fz sweep takes none.  The fx sweep's
Hadamard frame (``_input_frame``) is read by the fx sweep alone: the bit row
never reads it.  Both a Kraus stack and a ``PauliChannel`` follow this rule;
the second is read from its gate and weights, never from a Kraus stack.
For it the fz sweep and the phase column read the same overlaps
<u_s| P_b |v_s>, so the sweep computes them by code of its own, not through
the ``core`` helpers that the phase column calls.

Each side gathers through its own XOR index r ^ x, built once per n and
shared read-only: the fz sweep through ``_bra_index``, the phase column and
the fx sweep through ``core._xor_index`` (inside ``core._pauli_overlaps``),
and the bit row through ``channel._bit_frame_index``.  No identity has one
index on both of its sides.  A single index for every side, with two of its
columns swapped, certifies other weights consistently: on 24 such swaps
over non-symmetric weight grids (``tests/test_pauli_channel.py``) six
printed a wrong fz, fx and F with no ConsistencyError; with one index per
side none did.

The certificate rule, every report field that fz and fx alone decide, is
stated once, in ``_certificate``; the report's check, its assembly and the
exported helpers all read it.  A change to the verdicts, such as gating them
on the target or subtracting a sampling margin from estimates, is made there
alone.  The correlation floor 8F - 4 lives in ``ghz_floor``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .channel import Channel, PauliChannel, _check_pair, _transfer_entries
from .core import (
    _KRAUS_BLOCK_BYTES,
    ConsistencyError,
    GateSpec,
    _check_qubit_count,
    _frozen,
    _kraus_blocks,
    _pauli_overlaps,
    _shorter_loop,
    _walsh_signs,
)
from .tolerances import TOL

__all__ = [
    "BASES",
    "CAPABILITY_THRESHOLD",
    "VIOLATION_THRESHOLD",
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


@dataclass(frozen=True)
class FidelityReport:
    """Everything the two transfer fidelities certify about one channel.

    ``f_process_exact`` always comes from the process-matrix decomposition
    (simulator ground truth); ``fz``/``fx`` are exact transfer fidelities or
    finite-shot estimates depending on ``provenance``.  The three-party
    correlation fields are populated only for the 3-qubit entangling chain.
    Construction re-derives the bounds, the floor and both verdicts from fz,
    fx and F, so a report, or a document read back, cannot disagree with them,
    and requires the standard errors and counts that its provenance implies,
    an F in [0, 1] and a correlation within the quantum ceiling of 4.
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
        expected = _certificate(self.fz, self.fx)
        if self.ghz_floor is not None:
            expected["ghz_floor"] = ghz_floor(self.f_process_exact)
        for name, value in expected.items():
            recorded = getattr(self, name)
            if isinstance(value, (bool, np.bool_)):
                agrees = recorded == value
            else:
                agrees = abs(recorded - value) <= TOL.capability_arithmetic
            if not agrees:
                raise ConsistencyError(f"{name} {recorded!r} disagrees with {value!r}, its value from fz, fx and F")
        self._check_estimates()
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
        _check_unit_interval(f_process_exact=self.f_process_exact)
        if self.ghz_expectation is not None and not abs(self.ghz_expectation) <= 4.0 + TOL.bound_slack:
            raise ValueError(f"ghz_expectation must be finite and at most 4 in magnitude, got {self.ghz_expectation!r}")

    def _check_estimates(self) -> None:
        """An exact report has no standard errors or counts; a sampled one has both, well formed."""
        errors = {"fz_std_error": self.fz_std_error, "fx_std_error": self.fx_std_error}
        if self.provenance == "exact":
            if any(error is not None for error in errors.values()) or self.counts is not None:
                raise ValueError("an exact report carries no standard errors and no counts")
            return
        for name, error in errors.items():
            if error is None or not 0.0 <= error < math.inf:
                raise ValueError(f"{name} of a sampled report must be finite and non-negative, got {error!r}")
        counts = self.counts if isinstance(self.counts, dict) and self.counts.keys() == set(BASES) else {}
        per_basis = [counts.get(basis) for basis in BASES]
        if not all(isinstance(per, dict) for per in per_basis) or per_basis[0].keys() != per_basis[1].keys():
            raise ValueError(f"counts of a sampled report must map each basis of {BASES} to the same inputs")
        for count in (count for per in per_basis for count in per.values()):
            if not isinstance(count, (int, np.integer)) or isinstance(count, bool) or count < 0:
                raise ValueError(f"every count must be a non-negative integer, got {count!r}")


@cache
def _input_frame(n_qubits: int, basis: str) -> np.ndarray:
    """Real (float64) matrix whose column n is input state |psi_n> of the chosen product basis.

    The computational frame is the identity; the complementary frame is the
    Kronecker power H^(x n) of the normalized Hadamard, whose column n is the
    product of |+> and |-> factors selected by the bits of n.  Its entries are
    products of n entries of H, all of one magnitude, so it is bit for bit the
    Walsh sign table times the left-to-right product of n copies of that magnitude.
    A product with a complex operand casts the frame to complex128 first, so a
    complex gate or channel is swept against the frame's exact complex copy.
    Each frame is built once per n and shared read-only.
    """
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
    if basis == "z":
        return _frozen(np.eye(1 << n_qubits))
    return _frozen(_walsh_signs(n_qubits) * math.prod([1.0 / np.sqrt(2.0)] * n_qubits))


@cache
def _bra_index(n_qubits: int) -> np.ndarray:
    """The fz sweep's own 2**n x 2**n gather index r ^ x, row r, column x, built once per n, read-only.

    It equals ``core._xor_index``, the phase column's, but is built apart (module docstring).
    """
    index = np.arange(1 << n_qubits)
    return _frozen(np.bitwise_xor.outer(index, index))


def _stack_probabilities(kraus: np.ndarray, u: np.ndarray, basis: str) -> np.ndarray:
    """sum_m |<t_n| K_m |psi_n>|**2 for every input n of ``basis``, read from a Kraus stack.

    The computational frame is the identity, so there one ``einsum`` reads
    the stack in place against the columns of u00.  The complementary sweep
    takes one of two routes, picked by the Kraus rank m; both do m * 8**n
    multiply-adds and read the stack once:

    * m >= 2**(n+2): each amplitude is the inner product of vec(K_m) with
      vec(|t_n><psi_n|), so all of them are one product of the stack, read in
      place as an (m x 4**n) matrix, with the (4**n x 2**n) frame
      W[(t, s), n] = conj(t_n[t]) psi_n[s].  From this rank on the stack
      holds at least four times as many entries as W.
    * below that rank the stack is taken in the blocks of
      ``core._kraus_blocks``: each block's K_m @ frame comes from one product
      of its vertically stacked operators with the frame, and is contracted
      with the ideal images column by column.
    """
    m, d, _ = kraus.shape
    if basis == "z":
        amplitudes = np.einsum("in,min->mn", u.conj(), kraus)
    else:
        frame = _input_frame(d.bit_length() - 1, basis)
        targets = u @ frame
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
    return weights.sum(axis=0)


def _pauli_probabilities(channel: PauliChannel, u: np.ndarray, basis: str) -> np.ndarray:
    """sum_b w_b |<t_n| P_b |c_n>|**2 for every input n of ``basis``, from a ``PauliChannel``'s gate and weights.

    With t_n = u00 |psi_n> the ideal image and c_n the channel gate's image
    of |psi_n>, each overlap is <t_n| Z**z X**x |c_n> over the weight
    support Zs x Xs.

    The computational frame is the identity, so its images are the gates'
    columns, and the phase column of ``channel._transfer_entries`` is the
    Walsh transform of these very overlaps.  The fz sweep therefore computes
    them by code of its own, gathering the bra's rows, and never calls
    ``core._pauli_overlaps`` or ``core._shorter_loop``, which the phase column
    reads; so the fz identity compares two codes rather than restating
    Parseval.  The complementary sweep takes those two: an XOR row gather of
    the ket images and the sign rows of the support.
    """
    n = channel.n_qubits
    v = channel.gate.u00
    signs = _walsh_signs(n)
    if basis == "z":
        phase_masks, amp_masks, grid = channel.support
        d = len(u)
        if len(phase_masks) < len(amp_masks) and len(amp_masks) * d * d * 16 >= _KRAUS_BLOCK_BYTES:
            # S Z**z X**x S = +-2**n Z**x X**z moves a gather that fills a block to the shorter side
            u, v, phase_masks, amp_masks, grid = signs @ u, signs @ v, amp_masks, phase_masks, grid.T / (d * d)
        # S[z, x] <u_n| Z**z X**x |v_n> = sum_r S[z, r] conj(u[r ^ x, n]) v[r, n]: the bra's rows are gathered
        index = _bra_index(n)
        if len(amp_masks) < d:
            index = index.take(amp_masks, axis=1)
        products = u.conj().take(index, axis=0).astype(np.result_type(u, v), copy=False)
        products *= v[:, np.newaxis]
        rows = signs if len(phase_masks) == d else signs.take(phase_masks, axis=0)
        overlaps = np.abs(rows @ products.reshape(d, -1))
        overlaps **= 2
        return grid.reshape(-1) @ overlaps.reshape(-1, d)
    frame = _input_frame(n, basis)
    targets = u @ frame
    u, v = targets, targets if v is u else v @ frame
    bra, ket, phase_masks, amp_masks, grid = _shorter_loop(u, v, signs, channel.support)
    rows = signs if len(phase_masks) == len(signs) else signs.take(phase_masks, axis=0)
    overlaps = np.abs(_pauli_overlaps(bra, ket, rows, amp_masks))
    overlaps **= 2
    return grid.reshape(-1) @ overlaps


def classical_fidelity(channel: Channel | PauliChannel, gate: GateSpec, basis: str) -> tuple[np.ndarray, float]:
    """Per-input success probabilities and their mean, the transfer fidelity for one basis.

    Input n of the chosen product basis succeeds with probability
    sum_m |<t_n| K_m |psi_n>|^2, the weight of E(|psi_n><psi_n|) on its ideal
    image |t_n> = u00 |psi_n>; all inputs are propagated at once as the
    columns of one frame matrix.  A Kraus stack is read by
    ``_stack_probabilities``; a ``PauliChannel`` by ``_pauli_probabilities``,
    which never forms its stack.  The probabilities are one read-only vector,
    whose mean is the transfer fidelity.  An entry beyond
    TOL.probability_slack of [0, 1], NaN included, raises ConsistencyError.

    Both routes take the complementary frame from ``_input_frame``, the Walsh
    sign table that the bit-only row of ``channel._transfer_entries`` never
    reads, so a broken frame still fails the fx identity in ``certify``.
    """
    _check_pair(channel, gate)
    if isinstance(channel, PauliChannel):
        probabilities = _pauli_probabilities(channel, gate.u00, basis)
    else:
        probabilities = _stack_probabilities(channel.kraus_ops, gate.u00, basis)
    low, high = float(probabilities.min()), float(probabilities.max())
    if not (low >= -TOL.probability_slack and high <= 1.0 + TOL.probability_slack):
        raise ConsistencyError(f"transfer probabilities outside [0, 1]: min {low!r}, max {high!r}")
    # entries a few ulps outside [0, 1] are rounding; clipped, they reach no mean or shot draw
    if low < 0.0:
        np.maximum(probabilities, 0.0, out=probabilities)
    if high > 1.0:
        np.minimum(probabilities, 1.0, out=probabilities)
    _frozen(probabilities)
    return probabilities, float(probabilities.sum()) / len(probabilities)


def _require_diagonal_identity(fz: float, fx: float, phase: np.ndarray, bit: np.ndarray) -> tuple[float, float]:
    """Compare fz and fx with the sums of the phase-only column and the bit-only row of the chi diagonal."""
    residual_z = abs(fz - float(phase.sum()))
    residual_x = abs(fx - float(bit.sum()))
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


def _certificate(fz: float, fx: float) -> dict:
    """The certificate rule: every report field that fz and fx alone decide, keyed by its field name.

    The sandwich fz + fx - 1 <= F <= min(fz, fx) on the process fidelity, its
    lower end unclamped, so negative when both fidelities are poor; the lower
    bound 2(fz + fx) - 3 on the entanglement capability, which certifies that
    some product input is mapped to an entangled output when (fz + fx)/2 > 3/4
    strictly; and the violation verdict (fz + fx)/2 > 7/8 strictly, above which
    the correlation floor exceeds the local-realistic ceiling of 2.
    """
    _check_unit_interval(fz=fz, fx=fx)
    average = (fz + fx) / 2.0
    return {
        "lower_bound": fz + fx - 1.0,
        "upper_bound": min(fz, fx),
        "capability_bound": 2.0 * fz + 2.0 * fx - 3.0,
        "capability_certified": average > CAPABILITY_THRESHOLD,
        "violation_certified": average > VIOLATION_THRESHOLD,
    }


def fidelity_bounds(fz: float, fx: float) -> tuple[float, float]:
    """The sandwich (lower, upper) on the process fidelity, as ``_certificate`` states it."""
    rule = _certificate(fz, fx)
    return rule["lower_bound"], rule["upper_bound"]


def capability_bound(fz: float, fx: float) -> tuple[float, bool]:
    """The lower bound on the entanglement capability and its verdict, as ``_certificate`` states them."""
    rule = _certificate(fz, fx)
    return rule["capability_bound"], rule["capability_certified"]


def violation_verdict(fz: float, fx: float) -> bool:
    """Whether fz and fx alone certify a three-party violation, as ``_certificate`` states it."""
    return _certificate(fz, fx)["violation_certified"]


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


def ghz_summary(channel: Channel | PauliChannel, gate: GateSpec, f_process: float) -> tuple[float | None, float | None]:
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
    chain has A = B = 1 and gives 4 exactly.  A ``PauliChannel`` has
    K_b = sqrt(w_b) P_b v, so with a = v[:, 0] + v[:, 4] the sum is
    sum_b w_b (-1)**popcount(z & 7) conj(a[x]) a[x ^ 7], read from its
    weights.  Quantum mechanics keeps the value within +/- 4 (local realism
    within +/- 2); anything beyond, NaN included, is a bug and raises
    ConsistencyError.  The floor follows from the process fidelity.
    """
    if not _is_ghz_chain_3(gate):
        return None, None
    _check_pair(channel, gate)
    if isinstance(channel, PauliChannel):
        phase_masks, amp_masks, grid = channel.support
        column = channel.gate.u00[:, 0] + channel.gate.u00[:, 4]
        products = column[amp_masks].conj() * column[amp_masks ^ 7]
        value = 4.0 * float((_walsh_signs(3)[phase_masks, 7] @ grid @ products).real)
    else:
        kraus = channel.kraus_ops
        # row m holds (A_m, B_m): rows 0 and 7 of K_m, column 0 plus column 4
        amplitudes = kraus[:, ::7, 0] + kraus[:, ::7, 4]
        value = 4.0 * float(np.vdot(amplitudes[:, 0], amplitudes[:, 1]).real)
    if not abs(value) <= 4.0 + TOL.bound_slack:
        raise ConsistencyError(f"correlation {value!r} exceeds the quantum ceiling of 4")
    return value, ghz_floor(f_process)


def _assemble_report(
    channel: Channel | PauliChannel, gate: GateSpec, f_process: float, fz: float, fx: float, **estimate_fields
) -> FidelityReport:
    """Bounds, capability, violation verdict and GHZ summary for one (fz, fx) pair.

    ``estimate_fields`` carries the provenance, standard errors and counts of
    a finite-shot report; an exact report passes none.
    """
    rule = _certificate(fz, fx)
    expectation, floor = ghz_summary(channel, gate, f_process)
    return FidelityReport(
        fz=fz,
        fx=fx,
        f_process_exact=f_process,
        **rule,
        ghz_expectation=expectation,
        ghz_floor=floor,
        **estimate_fields,
    )


def _checked_transfer(channel: Channel | PauliChannel, gate: GateSpec) -> tuple[float, dict[str, tuple[np.ndarray, float]]]:
    """The process fidelity and both sweeps, each basis keyed to its (probabilities, mean), cross-checked.

    Computes the 2**(n+1) - 1 process-matrix entries the certificate reads
    (``channel._transfer_entries``: the phase-only column, the bit-only row
    and chi_00, which they share), runs both ``classical_fidelity`` sweeps
    and checks the diagonal identities.  Each identity compares two codes:
    for a ``PauliChannel`` the fz sweep shares no helper with the phase
    column, and the bit row reads no Hadamard frame.  The process fidelity is
    entry 0 of the phase column; the full 4**n-entry diagonal is never
    formed.  Exact and sampled reports both start here, so they run the same
    checks.
    """
    phase, bit = _transfer_entries(channel, gate)
    sweeps = {basis: classical_fidelity(channel, gate, basis) for basis in BASES}
    _require_diagonal_identity(sweeps["z"][1], sweeps["x"][1], phase, bit)
    return float(phase[0]), sweeps


def certify(channel: Channel | PauliChannel, gate: GateSpec) -> FidelityReport:
    """Run the full two-basis certification of a channel against its target gate.

    Takes the process fidelity and both exact transfer fidelities from
    ``_checked_transfer`` and assembles the bounds and verdicts into a
    report.  For the 3-qubit entangling chain the report also carries the
    measured three-party correlation and its fidelity floor.
    """
    f_process, sweeps = _checked_transfer(channel, gate)
    return _assemble_report(channel, gate, f_process, sweeps["z"][1], sweeps["x"][1])
