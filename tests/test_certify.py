import dataclasses
import importlib
from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest

from gatecert.channel import Channel, _transfer_entries, kraus_to_chi, process_fidelity
from gatecert.core import (
    _kraus_blocks,
    CapacityError,
    ConsistencyError,
    GateSpec,
    build_error_basis,
)
from gatecert.certify import (
    _input_frame,
    _is_ghz_chain_3,
    _require_diagonal_identity,
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
from gatecert.noise import NoiseSpec, noisy_gate, random_cptp
from gatecert.tolerances import TOL
from _oracles import (
    allocation_peak,
    chi_entries,
    dense_chi,
    entangling_input,
    ghz_correlation,
    ghz_output,
    haar_unitary,
    product_inputs,
    skew_the_complementary_frame,
    transfer_probabilities,
)

CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=float,
)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def unitary_channel(matrix):
    return Channel(int(np.log2(matrix.shape[0])), np.asarray(matrix, dtype=complex)[np.newaxis])


def ghz_state(n_qubits):
    amp = np.zeros(2**n_qubits, dtype=complex)
    amp[0] = amp[-1] = 1 / np.sqrt(2)
    return amp


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5, 6])
def test_input_frames_hold_the_product_kets_bit_for_bit(n_qubits):
    for basis in ("z", "x"):
        frame = _input_frame(n_qubits, basis)
        assert frame.dtype == np.float64
        assert np.array_equal(frame, product_inputs(n_qubits, basis))


@pytest.mark.parametrize("n_qubits", range(1, 7))
def test_complementary_frame_is_the_kron_power_of_the_hadamard_bit_for_bit(n_qubits):
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    reference = reduce(np.kron, [hadamard] * n_qubits)
    frame = _input_frame(n_qubits, "x")
    assert frame.dtype == reference.dtype == np.float64 and frame.shape == reference.shape
    # tobytes compares every bit, the signs of the entries included
    assert frame.tobytes() == reference.tobytes()


def ideal_outputs(gate, basis):
    """Columns u00 |psi_n>: the ideal images classical_fidelity scores each input against."""
    return (gate.u00 @ _input_frame(gate.n_qubits, basis)).T


def test_ideal_outputs_of_the_identity_are_the_inputs():
    gate = GateSpec.identity(2)
    for n, ket in enumerate(ideal_outputs(gate, "z")):
        assert np.array_equal(ket, product_inputs(2, "z")[:, n])
    for n, ket in enumerate(ideal_outputs(gate, "x")):
        assert np.allclose(ket, product_inputs(2, "x")[:, n])


def test_cnot_truth_table_in_the_computational_basis():
    gate = ghz_chain_gate(2)
    outputs = ideal_outputs(gate, "z")
    truth = {0: 0, 1: 1, 2: 3, 3: 2}
    for n, m in truth.items():
        assert np.allclose(outputs[n], product_inputs(2, "z")[:, m])


def test_cnot_label_map_in_the_complementary_basis():
    # in the complementary basis the roles invert: the second label flows
    # into the first, (x1, x2) -> (x1 xor x2, x2), with no extra phases
    gate = ghz_chain_gate(2)
    outputs = ideal_outputs(gate, "x")
    for n in range(4):
        x1, x2 = n >> 1, n & 1
        mapped = ((x1 ^ x2) << 1) | x2
        assert np.allclose(outputs[n], product_inputs(2, "x")[:, mapped], atol=1e-12)


def test_classical_fidelity_of_the_perfect_gate():
    gate = ghz_chain_gate(3)
    ch = unitary_channel(gate.u00)
    for basis in ("z", "x"):
        probabilities, fidelity = classical_fidelity(ch, gate, basis)
        assert fidelity == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(probabilities, 1.0, atol=1e-12)


def test_classical_fidelity_closed_form_under_depolarizing():
    # survival of a basis state is (1 - p) + p / 2**n, averaged over inputs
    gate = ghz_chain_gate(3)
    for p in (0.1, 0.4, 0.9):
        ch = noisy_gate(gate, NoiseSpec("depolarizing_global", p))
        for basis in ("z", "x"):
            _, fidelity = classical_fidelity(ch, gate, basis)
            assert fidelity == pytest.approx(1 - 7 * p / 8, abs=1e-12)


def test_phase_noise_before_the_gate_is_invisible_in_z():
    # diagonal phase factors on the inputs never move probability between
    # computational outcomes, whatever the gate
    rng = np.random.default_rng(23)
    gate = GateSpec.from_matrix(haar_unitary(rng, 8))
    weights = rng.dirichlet(np.ones(4))
    kraus = np.stack(
        [
            np.sqrt(w) * gate.u00 @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 8)))
            for w in weights
        ]
    )
    _, fz = classical_fidelity(Channel(3, kraus), gate, "z")
    assert fz == pytest.approx(1.0, abs=1e-10)


def test_bit_type_noise_before_the_gate_is_invisible_in_x():
    # same statement with the roles of the bases swapped: operators diagonal
    # in the complementary basis leave fx at 1
    rng = np.random.default_rng(24)
    h2 = np.kron(HADAMARD, HADAMARD)
    gate = GateSpec.from_matrix(haar_unitary(rng, 4))
    weights = rng.dirichlet(np.ones(3))
    kraus = np.stack(
        [
            np.sqrt(w)
            * gate.u00
            @ (h2 @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 4))) @ h2)
            for w in weights
        ]
    )
    _, fx = classical_fidelity(Channel(2, kraus), gate, "x")
    assert fx == pytest.approx(1.0, abs=1e-10)


def test_phase_error_after_the_chain_gate_breaks_only_fx():
    # Z on the control commutes with the chain, so it acts as an input phase:
    # fz stays at 1 while fx drops to 1 - p
    gate = ghz_chain_gate(3)
    p = 0.3
    z_control = np.kron(np.diag([1.0, -1.0]), np.eye(4))
    kraus = np.stack(
        [np.sqrt(1 - p) * gate.u00, np.sqrt(p) * z_control @ gate.u00]
    )
    ch = Channel(3, kraus)
    _, fz = classical_fidelity(ch, gate, "z")
    _, fx = classical_fidelity(ch, gate, "x")
    assert fz == pytest.approx(1.0, abs=1e-10)
    assert fx == pytest.approx(1 - p, abs=1e-10)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5])
def test_transfer_probabilities_match_density_matrix_propagation(n_qubits):
    rng = np.random.default_rng(40 + n_qubits)
    d = 2**n_qubits
    for rank in (1, 3, min(8, d * d)):
        u = haar_unitary(rng, d)
        gate = GateSpec.from_matrix(u)
        noise = random_cptp(n_qubits, rank, seed=int(rng.integers(1 << 30)))
        ch = Channel(n_qubits, noise.kraus_ops @ u)
        for basis in ("z", "x"):
            probabilities, fidelity = classical_fidelity(ch, gate, basis)
            expected = transfer_probabilities(ch.kraus_ops, u, product_inputs(n_qubits, basis))
            assert np.max(np.abs(probabilities - expected)) < 1e-12
            assert fidelity == pytest.approx(float(np.mean(expected)), abs=1e-12)


@pytest.mark.parametrize("basis", ["z", "x"])
def test_classical_fidelity_returns_a_read_only_vector_and_its_mean(basis):
    gate = ghz_chain_gate(3)
    channel = noisy_gate(gate, NoiseSpec("random_cptp", rank=5, seed=17))
    probabilities, fidelity = classical_fidelity(channel, gate, basis)
    assert probabilities.dtype == np.float64
    assert probabilities.shape == (8,)
    assert not probabilities.flags.writeable
    assert fidelity == float(np.mean(probabilities))


@pytest.mark.parametrize("kind", ["dephasing_per_qubit", "depolarizing_global"])
def test_a_probability_outside_the_unit_interval_is_an_internal_inconsistency(monkeypatch, kind):
    # a complementary frame scaled by 1.5 scales every fx-sweep probability by
    # 1.5**4, on the per-operator route (rank 8) and the frame route (rank 64)
    certify_module = importlib.import_module("gatecert.certify")
    frame_of = certify_module._input_frame
    monkeypatch.setattr(certify_module, "_input_frame", lambda n, basis: 1.5 * frame_of(n, basis))
    gate = ghz_chain_gate(3)
    channel = noisy_gate(gate, NoiseSpec(kind, 0.1))
    with pytest.raises(ConsistencyError, match=r"outside \[0, 1\]"):
        classical_fidelity(channel, gate, "x")


def test_diagonal_identity_residuals_are_tiny():
    gate = ghz_chain_gate(2)
    for seed in range(25):
        ch_raw = random_cptp(2, rank=1 + seed % 16, seed=seed)
        ch = Channel(2, ch_raw.kraus_ops @ gate.u00)
        report = certify(ch, gate)
        phase, bit = _transfer_entries(ch, gate)
        assert abs(report.fz - phase.sum()) < 1e-12
        assert abs(report.fx - bit.sum()) < 1e-12


def test_fidelity_bounds_values():
    assert fidelity_bounds(1.0, 1.0) == (1.0, 1.0)
    lower, upper = fidelity_bounds(0.825, 0.825)
    assert lower == pytest.approx(0.65)
    assert upper == pytest.approx(0.825)
    lower, _ = fidelity_bounds(0.4, 0.3)
    assert lower == pytest.approx(-0.3)  # deliberately unclamped
    with pytest.raises(ValueError):
        fidelity_bounds(1.2, 0.5)


def test_ghz_chain_on_two_qubits_is_cnot():
    assert np.array_equal(ghz_chain_gate(2).u00, CNOT)
    with pytest.raises(ValueError):
        ghz_chain_gate(1)


def test_ghz_chain_flips_targets_iff_control_set():
    gate = ghz_chain_gate(3)
    u = gate.u00
    for n in range(8):
        out = np.flatnonzero(u[:, n])
        expected = n if n < 4 else 4 + (7 - n)
        assert list(out) == [expected]


def test_entangling_input_reaches_the_ghz_state():
    for n_qubits in (2, 3, 4):
        gate = ghz_chain_gate(n_qubits)
        out = gate.u00 @ entangling_input(n_qubits)
        assert np.allclose(out, ghz_state(n_qubits), atol=1e-12)


def test_capability_bound_values_and_strict_threshold():
    bound, certified = capability_bound(1.0, 1.0)
    assert bound == pytest.approx(1.0) and certified
    bound, certified = capability_bound(0.75, 0.75)
    assert bound == pytest.approx(0.0) and not certified  # equality must not certify
    _, certified = capability_bound(0.7501, 0.7501)
    assert certified
    assert (0.75 + 0.75) / 2 == CAPABILITY_THRESHOLD


def test_ghz_correlation_extremes():
    # the dense reference that ghz_summary's closed form is checked against
    ghz = np.outer(ghz_state(3), ghz_state(3).conj())
    assert ghz_correlation(ghz) == pytest.approx(4.0, abs=1e-10)
    mixed = np.eye(8) / 8
    assert ghz_correlation(mixed) == pytest.approx(0.0, abs=1e-12)
    basis_state = np.diag(np.eye(8)[5])
    assert ghz_correlation(basis_state) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        ghz_correlation(np.diag(np.eye(4)[0]))


def test_ghz_correlation_is_linear_in_the_state():
    rng = np.random.default_rng(31)
    ghz = np.outer(ghz_state(3), ghz_state(3).conj())
    other = np.eye(8) / 8
    for alpha in rng.uniform(0, 1, 5):
        blend = alpha * ghz + (1 - alpha) * other
        parts = alpha * ghz_correlation(ghz) + (1 - alpha) * ghz_correlation(other)
        assert ghz_correlation(blend) == pytest.approx(parts, abs=1e-10)


def test_ghz_floor_values():
    assert ghz_floor(1.0) == pytest.approx(4.0)
    assert ghz_floor(0.75) == pytest.approx(2.0)
    assert ghz_floor(0.5) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        ghz_floor(1.5)


def test_certify_perfect_chain():
    gate = ghz_chain_gate(3)
    report = certify(unitary_channel(gate.u00), gate)
    assert report.fz == pytest.approx(1.0, abs=1e-12)
    assert report.fx == pytest.approx(1.0, abs=1e-12)
    assert report.f_process_exact == pytest.approx(1.0, abs=1e-12)
    assert report.capability_certified and report.violation_certified
    assert report.ghz_expectation == pytest.approx(4.0, abs=1e-10)
    assert report.ghz_floor == pytest.approx(4.0, abs=1e-9)
    assert report.provenance == "exact"


def test_certify_depolarized_chain_closed_forms():
    gate = ghz_chain_gate(3)
    report = certify(noisy_gate(gate, NoiseSpec("depolarizing_global", 0.1)), gate)
    assert report.fz == pytest.approx(0.9125, abs=1e-9)
    assert report.fx == pytest.approx(0.9125, abs=1e-9)
    assert report.f_process_exact == pytest.approx(1 - 63 * 0.1 / 64, abs=1e-9)
    assert report.ghz_expectation == pytest.approx(3.6, abs=1e-9)
    assert report.capability_certified and report.violation_certified

    report = certify(noisy_gate(gate, NoiseSpec("depolarizing_global", 0.2)), gate)
    assert report.capability_certified and not report.violation_certified


def test_certify_full_rank_depolarizing_on_five_qubits():
    # rank 1024: fz = fx = 1 - p + p / 2**n and F = 1 - p + p / 4**n
    p = 0.1
    gate = ghz_chain_gate(5)
    report = certify(noisy_gate(gate, NoiseSpec("depolarizing_global", p)), gate)
    assert report.fz == pytest.approx(1 - p + p / 32, abs=1e-12)
    assert report.fx == pytest.approx(1 - p + p / 32, abs=1e-12)
    assert report.f_process_exact == pytest.approx(1 - p + p / 1024, abs=1e-12)


def test_certify_dephasing_on_six_qubits():
    # phase flips after the chain gate never move a computational-basis
    # image, and every one of them moves the complementary-basis image
    p = 0.05
    gate = ghz_chain_gate(6)
    report = certify(noisy_gate(gate, NoiseSpec("dephasing_per_qubit", p)), gate)
    assert report.fz == pytest.approx(1.0, abs=1e-12)
    assert report.fx == pytest.approx((1 - p) ** 6, abs=1e-12)
    assert report.f_process_exact == pytest.approx((1 - p) ** 6, abs=1e-12)


def test_certify_rejects_a_transfer_fidelity_off_the_chi_diagonal(monkeypatch):
    certify_module = importlib.import_module("gatecert.certify")
    exact = certify_module.classical_fidelity

    def shifted(channel, gate, basis):
        probabilities, value = exact(channel, gate, basis)
        return probabilities, value + 1e-6

    monkeypatch.setattr(certify_module, "classical_fidelity", shifted)
    gate = ghz_chain_gate(3)
    with pytest.raises(ConsistencyError, match="diagonal sums"):
        certify(noisy_gate(gate, NoiseSpec("depolarizing_global", 0.1)), gate)


@pytest.mark.parametrize("n_qubits", [2, 3, 4, 5])
def test_certify_runs_no_coefficient_transform(monkeypatch, n_qubits):
    # certify reads the phase-only column and the bit-only row alone; the
    # Walsh transform of the whole stack serves kraus_to_chi only
    channel_module = importlib.import_module("gatecert.channel")
    gate = ghz_chain_gate(n_qubits)
    channel = noisy_gate(gate, NoiseSpec("depolarizing_global", 0.1))
    expected = certify(channel, gate)

    def refuse(*args):
        raise AssertionError("the Kraus stack was transformed")

    monkeypatch.setattr(channel_module, "_error_coefficients", refuse)
    with pytest.raises(AssertionError, match="transformed"):
        kraus_to_chi(channel, gate)
    assert certify(channel, gate) == expected


@pytest.mark.parametrize("fz,fx", [(np.nan, 0.25), (0.25, np.nan), (np.nan, np.nan)])
def test_diagonal_identity_rejects_nan_fidelities(fz, fx):
    entries = np.full(4, 1.0 / 16)  # phase-only and bit-only sums are both 1/4
    assert _require_diagonal_identity(0.25, 0.25, entries, entries) == (0.0, 0.0)
    with pytest.raises(ConsistencyError, match="diagonal sums"):
        _require_diagonal_identity(fz, fx, entries, entries)


def _full_rank_depolarized_haar_gate():
    """A full-rank Kraus stack (256 operators at n=4), held as a dense Channel so the stack routes read it."""
    gate = GateSpec.from_matrix(haar_unitary(np.random.default_rng(8), 16))
    return Channel(4, noisy_gate(gate, NoiseSpec("depolarizing_global", 0.2)).kraus_ops), gate


# Kraus ranks one below, at and one above the block length (16 operators at
# n=4, 4 at n=5), then rank 1 and full rank for every n <= 4.
BLOCK_BOUNDARY_CASES = [(4, 15), (4, 16), (4, 17), (5, 3), (5, 4), (5, 5)] + [
    (n, rank) for n in range(1, 5) for rank in (1, 4**n)
]
# The last rank of the complementary sweep's per-operator route and the first
# of its frame route, 2**(n+2) - 1 and 2**(n+2).
ROUTE_BOUNDARY_CASES = [(n, (1 << (n + 2)) + step) for n in (3, 4, 5) for step in (-1, 0)]


@pytest.mark.parametrize("n_qubits,rank", BLOCK_BOUNDARY_CASES + ROUTE_BOUNDARY_CASES)
def test_streamed_stages_match_the_oracles_across_block_boundaries(n_qubits, rank):
    block = _kraus_blocks(rank, 2**n_qubits)[0]
    assert block.stop == min(rank, {3: 64, 4: 16, 5: 4}.get(n_qubits, rank))
    gate = GateSpec.from_matrix(haar_unitary(np.random.default_rng(40 + rank), 2**n_qubits))
    channel = random_cptp(n_qubits, rank, seed=n_qubits * 1000 + rank)
    kraus, u = channel.kraus_ops, gate.u00
    chi = dense_chi(kraus, u)
    assert np.max(np.abs(chi_entries(kraus_to_chi(channel, gate)) - chi)) < 1e-12
    phase, bit = _transfer_entries(channel, gate)
    d = 2**n_qubits
    assert np.max(np.abs(phase - np.diagonal(chi).real[::d])) < 1e-12
    assert np.max(np.abs(bit - np.diagonal(chi).real[:d])) < 1e-12
    fidelities = {}
    for basis in ("z", "x"):
        probabilities, fidelities[basis] = classical_fidelity(channel, gate, basis)
        expected = transfer_probabilities(kraus, u, product_inputs(n_qubits, basis))
        assert np.max(np.abs(probabilities - expected)) < 1e-12
    assert abs(fidelities["x"] - float(np.sum(bit))) < 1e-12


def test_certify_stays_within_its_allocation_budget():
    # the stack is streamed in 64 KiB blocks: one block's product, gather,
    # coefficients and residual, plus the (m x 2**n) transfer weights
    channel, gate = _full_rank_depolarized_haar_gate()
    report, peak = allocation_peak(lambda: certify(channel, gate))
    assert report.fz < 1.0
    assert peak <= 0.5 * channel.kraus_ops.nbytes


def test_complementary_sweep_streams_the_kraus_stack():
    # full rank takes the frame route: one product of the stack, read in
    # place, with the (4**n x 2**n) frame, so no propagated copy is made
    channel, gate = _full_rank_depolarized_haar_gate()
    (probabilities, _), peak = allocation_peak(lambda: classical_fidelity(channel, gate, "x"))
    expected = transfer_probabilities(channel.kraus_ops, gate.u00, product_inputs(4, "x"))
    assert np.max(np.abs(probabilities - expected)) < 1e-12
    assert peak <= 0.25 * channel.kraus_ops.nbytes


def test_per_operator_complementary_sweep_streams_the_kraus_stack():
    # one rank below the frame route each block is propagated through the
    # frame on its own, so no propagated copy of the whole stack is made
    gate = GateSpec.from_matrix(haar_unitary(np.random.default_rng(9), 32))
    channel = random_cptp(5, 127, seed=5127)
    (probabilities, _), peak = allocation_peak(lambda: classical_fidelity(channel, gate, "x"))
    expected = transfer_probabilities(channel.kraus_ops, gate.u00, product_inputs(5, "x"))
    assert np.max(np.abs(probabilities - expected)) < 1e-12
    assert peak <= 0.25 * channel.kraus_ops.nbytes


@pytest.mark.parametrize("rank", [31, 32])
def test_a_skewed_complementary_frame_fails_the_bit_row_identity(monkeypatch, rank):
    # ranks 31 and 32 at n=3 take the per-operator and the frame route; the
    # bit-only row never reads the frame, so it catches a broken one on both
    gate = ghz_chain_gate(3)
    channel = noisy_gate(gate, NoiseSpec("random_cptp", rank=rank, seed=rank))
    certify(channel, gate)
    skew_the_complementary_frame(monkeypatch)
    with pytest.raises(ConsistencyError, match="diagonal sums"):
        certify(channel, gate)


def test_computational_sweep_reads_the_kraus_stack_in_place():
    channel, gate = _full_rank_depolarized_haar_gate()
    (probabilities, _), peak = allocation_peak(lambda: classical_fidelity(channel, gate, "z"))
    expected = transfer_probabilities(channel.kraus_ops, gate.u00, np.eye(16))
    assert np.max(np.abs(probabilities - expected)) < 1e-12
    assert peak < 0.1 * channel.kraus_ops.nbytes


def test_certify_reports_no_correlation_outside_the_three_qubit_chain():
    cnot = ghz_chain_gate(2)
    report = certify(unitary_channel(cnot.u00), cnot)
    assert report.ghz_expectation is None and report.ghz_floor is None
    identity = GateSpec.identity(3)
    report = certify(unitary_channel(np.eye(8)), identity)
    assert report.ghz_expectation is None and report.ghz_floor is None
    assert ghz_summary(unitary_channel(np.eye(8)), identity, 1.0) == (None, None)


def _ghz_test_channels():
    """Chain-3 under the Pauli families at six strengths, seeded random noise of ranks 1-64, and a coherent Rz."""
    gate = ghz_chain_gate(3)
    for kind in ("depolarizing_global", "dephasing_per_qubit", "bitflip_per_qubit"):
        for p in (0.0, 0.05, 0.13, 0.37, 0.9, 1.0):
            yield f"{kind}:{p}", noisy_gate(gate, NoiseSpec(kind, p))
    rng = np.random.default_rng(2026)
    for rank in range(1, 65):
        yield f"random_cptp:{rank}", noisy_gate(gate, NoiseSpec("random_cptp", rank=rank, seed=int(rng.integers(1 << 30))))
    rz = np.diag(np.exp(-1j * np.pi / 12 * np.array([1.0, -1.0])))  # Rz(pi/6)
    yield "rz", Channel(3, (np.kron(np.kron(rz, rz), rz) @ gate.u00)[np.newaxis])


def test_ghz_summary_matches_the_dense_mermin_oracle():
    # four Kraus entries per operator against the propagated state scored by the dense operator
    gate = ghz_chain_gate(3)
    for label, ch in _ghz_test_channels():
        fp = process_fidelity(kraus_to_chi(ch, gate))
        expectation, floor = ghz_summary(ch, gate, fp)
        assert abs(expectation - ghz_correlation(ghz_output(ch.kraus_ops))) <= 1e-14, label
        assert floor == ghz_floor(fp), label


def test_the_noiseless_chain_reports_the_ghz_correlation_exactly():
    gate = ghz_chain_gate(3)
    report = certify(unitary_channel(gate.u00), gate)
    assert report.ghz_expectation == report.ghz_floor == 4.0


def test_ghz_summary_rejects_a_correlation_beyond_the_quantum_ceiling():
    # no validated channel gets there, so the stack is handed over unchecked
    gate = ghz_chain_gate(3)
    for scale in (1.01, np.nan):
        unchecked = SimpleNamespace(n_qubits=3, kraus_ops=scale * gate.u00[np.newaxis])
        with pytest.raises(ConsistencyError, match="quantum ceiling"):
            ghz_summary(unchecked, gate, 1.0)


def test_ghz_summary_rejects_a_channel_of_another_size():
    with pytest.raises(ValueError, match="qubit"):
        ghz_summary(unitary_channel(CNOT), ghz_chain_gate(3), 1.0)


def test_bound_sandwich_on_random_channels():
    # 1000 seeded random channels across both sizes, plus every named noise
    # family on a grid; the lower side allows only last-ulp dust while the
    # upper side gets the usual slack.
    for n_qubits, count, seed_base in ((2, 650, 21000), (3, 350, 23000)):
        gate = ghz_chain_gate(n_qubits)
        basis = build_error_basis(gate)
        channels = [
            Channel(
                n_qubits,
                random_cptp(n_qubits, rank=1 + k % 4**n_qubits, seed=seed_base + k).kraus_ops
                @ gate.u00,
            )
            for k in range(count)
        ]
        for kind in (
            "depolarizing_global",
            "dephasing_per_qubit",
            "bitflip_per_qubit",
        ):
            channels.extend(noisy_gate(gate, NoiseSpec(kind, k / 10)) for k in range(11))
        for ch in channels:
            _, fz = classical_fidelity(ch, gate, "z")
            _, fx = classical_fidelity(ch, gate, "x")
            chi = kraus_to_chi(ch, gate, basis)
            fp = process_fidelity(chi)
            diag = np.diagonal(chi_entries(chi)).real
            d = 1 << n_qubits
            assert abs(fz - diag[::d].sum()) < 1e-8
            assert abs(fx - diag[:d].sum()) < 1e-8
            assert fz + fx - 1.0 <= fp + 1e-12
            assert fp <= min(fz, fx) + 1e-9


def test_certify_reports_stay_internally_consistent_on_random_channels():
    gate = ghz_chain_gate(2)
    for seed in range(100):
        ch_raw = random_cptp(2, rank=1 + seed % 16, seed=1000 + seed)
        ch = Channel(2, ch_raw.kraus_ops @ gate.u00)
        report = certify(ch, gate)
        assert report.lower_bound <= report.f_process_exact + 1e-12
        assert report.f_process_exact <= report.upper_bound + 1e-9


def test_certified_flags_are_sound():
    # whenever a flag is raised, the thing it certifies must actually hold
    gate = ghz_chain_gate(3)
    ghz = ghz_state(3)
    for p in np.linspace(0.0, 1.0, 11):
        ch = noisy_gate(gate, NoiseSpec("depolarizing_global", float(p)))
        report = certify(ch, gate)
        rho_out = ghz_output(ch.kraus_ops)
        if report.capability_certified:
            overlap = float(np.vdot(ghz, rho_out @ ghz).real)
            assert overlap > 0.5
        if report.violation_certified:
            assert abs(report.ghz_expectation) > 2.0


def test_certify_fails_fast_over_capacity():
    # no 7-qubit gate or channel can be constructed, so certify never gets
    # one to grind through a per-basis-state sweep
    with pytest.raises(CapacityError, match="maximum"):
        GateSpec.identity(7)
    with pytest.raises(CapacityError, match="maximum"):
        Channel(7, np.eye(128, dtype=complex)[np.newaxis])


def test_ghz_chain_gate_checks_capacity_before_allocating():
    with pytest.raises(CapacityError, match="maximum"):
        ghz_chain_gate(9)


def test_report_rejects_an_escaped_sandwich():
    with pytest.raises(ConsistencyError):
        FidelityReport(
            fz=0.9,
            fx=0.9,
            f_process_exact=0.95,  # above min(fz, fx)
            lower_bound=0.8,
            upper_bound=0.9,
            capability_bound=2 * 0.9 + 2 * 0.9 - 3,
            capability_certified=True,
            violation_certified=True,
        )
    with pytest.raises(ConsistencyError):
        FidelityReport(
            fz=0.9,
            fx=0.9,
            f_process_exact=0.75,  # below fz + fx - 1
            lower_bound=0.8,
            upper_bound=0.9,
            capability_bound=2 * 0.9 + 2 * 0.9 - 3,
            capability_certified=True,
            violation_certified=True,
        )


@pytest.mark.parametrize("provenance", ["exact", "sampled"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1.5])
@pytest.mark.parametrize("field", ["fz", "fx"])
def test_report_rejects_a_fidelity_outside_the_unit_interval(field, bad, provenance):
    # The capability bound is built from the bad value, so only the range check can catch it.
    values = {"fz": 0.9, "fx": 0.9, field: bad}
    with pytest.raises(ValueError, match=field):
        FidelityReport(
            **values,
            f_process_exact=0.85,
            lower_bound=0.8,
            upper_bound=0.9,
            capability_bound=2 * values["fz"] + 2 * values["fx"] - 3,
            capability_certified=True,
            violation_certified=True,
            provenance=provenance,
        )


def test_report_rejects_inconsistent_capability_bound():
    with pytest.raises(ConsistencyError):
        FidelityReport(
            fz=0.9,
            fx=0.9,
            f_process_exact=0.85,
            lower_bound=0.8,
            upper_bound=0.9,
            capability_bound=0.5,
            capability_certified=True,
            violation_certified=True,
        )


def test_report_rejects_half_populated_correlation_fields():
    with pytest.raises(ValueError):
        FidelityReport(
            fz=1.0,
            fx=1.0,
            f_process_exact=1.0,
            lower_bound=1.0,
            upper_bound=1.0,
            capability_bound=1.0,
            capability_certified=True,
            violation_certified=True,
            ghz_expectation=4.0,
            ghz_floor=None,
        )


def test_violation_verdict_is_strict():
    assert not violation_verdict(VIOLATION_THRESHOLD, VIOLATION_THRESHOLD)
    assert violation_verdict(0.876, 0.876)
    assert not violation_verdict(1.0, 0.75)  # average exactly at the line
    with pytest.raises(ValueError):
        violation_verdict(1.1, 0.5)


@pytest.mark.parametrize(
    "offset, expected",
    [(0.0, True), (0.9 * TOL.gate_match, True), (0.9j * TOL.gate_match, True),
     (1.1 * TOL.gate_match, False), (-1.1j * TOL.gate_match, False)],
)
def test_ghz_chain_match_holds_up_to_gate_match(offset, expected):
    # entry (0, 1) of the chain is zero, so the entry-wise distance is |offset|
    # the chain is real, so cast before adding an imaginary offset
    u = ghz_chain_gate(3).u00.astype(complex)
    u[0, 1] += offset
    assert _is_ghz_chain_3(GateSpec(3, u)) is expected


def test_ghz_chain_match_rejects_other_gates():
    assert not _is_ghz_chain_3(GateSpec.from_matrix(haar_unitary(np.random.default_rng(33), 8)))
    assert not _is_ghz_chain_3(GateSpec.identity(3))
    assert not _is_ghz_chain_3(ghz_chain_gate(4))


@pytest.mark.parametrize("n_qubits", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["depolarizing_global", "dephasing_per_qubit", "bitflip_per_qubit"])
def test_a_real_channel_certifies_as_its_complex_copy(kind, n_qubits):
    # the float64 pipeline and the complex128 one on the same operators give
    # the same report up to rounding, the same verdicts, and the same C
    gate = ghz_chain_gate(n_qubits)
    complex_gate = GateSpec(n_qubits, gate.u00.astype(complex))
    for p in (0.0, 0.05, 0.13, 0.37, 0.5, 1.0):
        channel = noisy_gate(gate, NoiseSpec(kind, p))
        complex_channel = Channel(n_qubits, channel.kraus_ops.astype(complex))
        assert channel.kraus_ops.dtype == np.float64
        real, complex_ = certify(channel, gate), certify(complex_channel, complex_gate)
        for field in dataclasses.fields(FidelityReport):
            a, b = getattr(real, field.name), getattr(complex_, field.name)
            if isinstance(a, float):
                assert abs(a - b) <= 1e-14, (field.name, p, a - b)
            else:
                assert a == b, (field.name, p)
        real_chi = kraus_to_chi(channel, gate).coefficients
        assert real_chi.dtype == np.float64
        complex_chi = kraus_to_chi(complex_channel, complex_gate).coefficients
        assert complex_chi.dtype == np.complex128
        assert np.max(np.abs(real_chi - complex_chi)) <= 1e-15, p
