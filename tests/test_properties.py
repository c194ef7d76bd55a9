"""Property checks of the certify path against the raw-numpy references in _oracles.

Each example draws a qubit count n <= 4, a Haar gate and a seeded random
channel of any Kraus rank, so full-rank stacks are covered as well as
unitary ones.  Seeded examples at n = 5 and 6 follow the drawn ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatecert.certify import certify, classical_fidelity
from gatecert.channel import _completeness_residual, _transfer_entries, kraus_to_chi
from gatecert.core import GateSpec
from gatecert.noise import NoiseSpec, noisy_gate, random_cptp
from _oracles import (
    completeness_residual,
    dense_chi,
    haar_unitary,
    product_inputs,
    transfer_probabilities,
)

SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def gates_and_channels(draw, max_qubits=4):
    n_qubits = draw(st.integers(1, max_qubits))
    rank = draw(st.integers(1, 4**n_qubits))
    gate = GateSpec.from_matrix(haar_unitary(np.random.default_rng(draw(SEEDS)), 2**n_qubits))
    return gate, random_cptp(n_qubits, rank, draw(SEEDS))


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(gates_and_channels(), SEEDS)
def test_certify_path_matches_the_references(drawn, distortion_seed):
    gate, channel = drawn
    n_qubits, kraus, u = gate.n_qubits, channel.kraus_ops, gate.u00

    chi = dense_chi(kraus, u)
    d = 2**n_qubits
    phase, bit = _transfer_entries(channel, gate)
    assert np.max(np.abs(phase - np.diagonal(chi).real[::d])) < 1e-12
    assert np.max(np.abs(bit - np.diagonal(chi).real[:d])) < 1e-12

    for basis in ("z", "x"):
        probabilities, _ = classical_fidelity(channel, gate, basis)
        expected = transfer_probabilities(kraus, u, product_inputs(n_qubits, basis))
        assert np.max(np.abs(probabilities - expected)) < 1e-12

    # a Ginibre distortion makes every entry of sum K^dag K, imaginary parts
    # included, differ from the identity
    rng = np.random.default_rng(distortion_seed)
    distorted = kraus + 0.1 * (rng.standard_normal(kraus.shape) + 1j * rng.standard_normal(kraus.shape))
    for stack in (kraus, distorted):
        expected = completeness_residual(stack)
        assert abs(_completeness_residual(stack) - expected) <= 1e-12 * expected + 1e-13

    report = certify(channel, gate)
    assert abs(report.f_process_exact - chi[0, 0].real) < 1e-12
    assert report.fz + report.fx - 1.0 - 1e-12 <= report.f_process_exact
    assert report.f_process_exact <= min(report.fz, report.fx) + 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(gates_and_channels(max_qubits=3))
def test_transfer_entries_are_the_phase_column_and_bit_row_of_kraus_to_chi(drawn):
    # the frame-product bit row and the Walsh phase column against the
    # diagonal of the full coefficient transform
    gate, channel = drawn
    d = 2**gate.n_qubits
    diag = np.diagonal(kraus_to_chi(channel, gate).entries).real
    phase, bit = _transfer_entries(channel, gate)
    assert np.max(np.abs(phase - diag[::d])) <= 1e-14
    assert np.max(np.abs(bit - diag[:d])) <= 1e-14


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
def test_kraus_to_chi_is_positive_semidefinite(n_qubits):
    # ChiMatrix runs no eigendecomposition: chi = C C^dag gives
    # v^dag chi v = ||C^dag v||^2 >= 0, which this checks numerically
    rng = np.random.default_rng(40 + n_qubits)
    gate = GateSpec.from_matrix(haar_unitary(rng, 2**n_qubits))
    channels = [random_cptp(n_qubits, rank, seed=rank) for rank in (1, 3, 8) if rank <= 4**n_qubits]
    channels += [
        noisy_gate(gate, NoiseSpec(kind, 0.2))
        for kind in ("depolarizing_global", "dephasing_per_qubit", "bitflip_per_qubit")
    ]
    for channel in channels:
        entries = kraus_to_chi(channel, gate).entries
        assert np.min(np.linalg.eigvalsh(entries)) >= -1e-12


@pytest.mark.parametrize("n_qubits", [5, 6])
def test_diagonal_identities_and_sandwich_hold_at_five_and_six_qubits(n_qubits):
    # fz and fx come from state propagation; the phase-only column of the chi
    # diagonal from the Walsh transform and its bit-only row from the XOR
    # gathered frames must reproduce them, and chi_00 must lie in
    # [fz + fx - 1, min(fz, fx)]
    rng = np.random.default_rng(500 + n_qubits)
    d = 2**n_qubits
    gate = GateSpec.from_matrix(haar_unitary(rng, d))
    specs = [NoiseSpec("random_cptp", rank=7, seed=int(rng.integers(1 << 30)))]
    specs += [NoiseSpec(kind, 0.2) for kind in ("dephasing_per_qubit", "bitflip_per_qubit")]
    if n_qubits == 5:
        specs.append(NoiseSpec("depolarizing_global", 0.2))
    for spec in specs:
        channel = noisy_gate(gate, spec)
        phase, bit = _transfer_entries(channel, gate)
        fz = classical_fidelity(channel, gate, "z")[1]
        fx = classical_fidelity(channel, gate, "x")[1]
        assert abs(fz - np.sum(phase)) < 1e-12
        assert abs(fx - np.sum(bit)) < 1e-12
        assert fz + fx - 1.0 - 1e-12 <= phase[0] <= min(fz, fx) + 1e-12
