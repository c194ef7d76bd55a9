from functools import reduce

import numpy as np
import pytest

from gatecert.core import (
    _kraus_blocks,
    _orthogonality_bound,
    _pauli_products,
    _walsh_signs,
    CapacityError,
    ErrorBasis,
    GateSpec,
    build_error_basis,
    orthogonality_residual,
)
from gatecert.certify import _input_frame, ghz_chain_gate
from gatecert.channel import Channel
from gatecert.tolerances import MAX_QUBITS, TOL
from _oracles import allocation_peak, gram_residual, haar_unitary, pauli_product

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.array([[1.0, 0.0], [0.0, -1.0]])
ZX = np.array([[0.0, 1.0], [-1.0, 0.0]])
CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=float,
)


def test_computational_ket_matches_unit_vectors():
    # column n of the computational input frame is the ket |n>
    assert np.array_equal(_input_frame(1, "z")[:, 0], [1, 0])
    assert np.array_equal(_input_frame(2, "z")[:, 2], [0, 0, 1, 0])
    assert np.array_equal(_input_frame(3, "z")[:, 5], np.eye(8)[5])


def test_complementary_ket_single_qubit():
    root_half = 1 / np.sqrt(2)
    assert np.allclose(_input_frame(1, "x")[:, 0], [root_half, root_half])
    assert np.allclose(_input_frame(1, "x")[:, 1], [root_half, -root_half])


def test_complementary_ket_signs_follow_popcount():
    # amplitude on |m> is (-1)**popcount(n & m) / 2**(N/2)
    n_qubits = 3
    for n in range(8):
        amp = _input_frame(n_qubits, "x")[:, n]
        for m in range(8):
            expected = (-1) ** ((n & m).bit_count()) / 2 ** (n_qubits / 2)
            assert amp[m] == pytest.approx(expected, abs=1e-15)


def test_complementarity_between_the_two_bases():
    # every cross overlap has probability exactly (1/2)**N
    for n_qubits in (1, 2, 3, 4):
        target = 0.5**n_qubits
        for n in range(1 << n_qubits):
            amp = _input_frame(n_qubits, "x")[:, n]
            probs = np.abs(amp) ** 2
            assert np.max(np.abs(probs - target)) < 1e-12


def test_error_operator_identity_and_single_factors():
    assert np.array_equal(_pauli_products([0], [0], 3)[0], np.eye(8))
    assert np.array_equal(_pauli_products([1], [0], 1)[0], Z)
    assert np.array_equal(_pauli_products([0], [1], 1)[0], X)


def test_error_operator_two_qubit_hand_product():
    # masks address qubit 0 as the most significant bit, so amp_mask=1 puts
    # the bit flip on qubit 1 (the rightmost factor)
    got = _pauli_products([3], [1], 2)[0]
    expected = np.kron(Z, Z) @ np.kron(I2, X)
    assert np.array_equal(got, expected)
    assert np.array_equal(got, np.kron(Z, Z @ X))


def test_error_operators_are_unitary():
    for flat in range(16):
        op = _pauli_products([flat >> 2], [flat & 3], 2)[0]
        gram = op.conj().T @ op
        assert np.allclose(gram, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5])
def test_pauli_stack_matches_the_kron_of_factors_bit_for_bit(n_qubits):
    d = 2**n_qubits
    flat = np.arange(d * d)
    stack = _pauli_products(flat >> n_qubits, flat % d, n_qubits)
    for a in range(d * d):
        assert np.array_equal(stack[a], pauli_product(a >> n_qubits, a % d, n_qubits))
    # only the requested pairs are built, in the requested order
    picked = flat[::-7]
    assert np.array_equal(_pauli_products(picked >> n_qubits, picked % d, n_qubits), stack[picked])


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5])
def test_scaled_pauli_stack_matches_the_weighted_kron_of_factors_bit_for_bit(n_qubits):
    rng = np.random.default_rng(40 + n_qubits)
    d = 2**n_qubits
    flat = np.arange(d * d)
    subset = rng.permutation(flat)[: max(2, d * d // 3)]  # unsorted, identity not always present
    for picked in (flat, subset):
        weights = np.sqrt(rng.uniform(0.0, 1.0, picked.size))
        stack = _pauli_products(picked >> n_qubits, picked % d, n_qubits, weights)
        for k, a in enumerate(picked):
            expected = pauli_product(a >> n_qubits, a % d, n_qubits) * weights[k]
            assert np.array_equal(stack[k], expected)


def test_basis_ordering_for_single_qubit_identity():
    basis = build_error_basis(GateSpec.identity(1))
    assert len(basis) == 4
    assert np.array_equal(basis.operators[0], I2)
    assert np.array_equal(basis.operators[1], X)
    assert np.array_equal(basis.operators[2], Z)
    assert np.array_equal(basis.operators[3], ZX)


def test_basis_row_zero_is_the_gate_itself():
    gate = GateSpec.from_matrix(CNOT, name="cnot")
    basis = build_error_basis(gate)
    assert np.array_equal(basis.operators[0], gate.u00)


@pytest.mark.parametrize(
    "gate",
    [
        GateSpec.identity(1),
        GateSpec.identity(2),
        GateSpec.from_matrix(CNOT, name="cnot"),
    ],
)
def test_basis_orthogonality_exact_gates(gate):
    assert build_error_basis(gate).gram_residual() < 1e-10


def test_basis_orthogonality_random_gate():
    rng = np.random.default_rng(7)
    gate = GateSpec.from_matrix(haar_unitary(rng, 4))
    assert build_error_basis(gate).gram_residual() < 1e-10


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_gram_residual_matches_the_pairwise_traces(n_qubits):
    # Perturbing every row but the gate itself makes the Gram matrix far from 2**n I.
    rng = np.random.default_rng(80 + n_qubits)
    d = 2**n_qubits
    gate = GateSpec.from_matrix(haar_unitary(rng, d))
    ops = np.array(build_error_basis(gate).operators)
    ops[1:] += 0.1 * (rng.standard_normal(ops[1:].shape) + 1j * rng.standard_normal(ops[1:].shape))
    perturbed = ErrorBasis(gate, ops)
    assert perturbed.gram_residual() == pytest.approx(gram_residual(ops), rel=1e-12)
    exact = build_error_basis(gate)
    assert exact.gram_residual() == pytest.approx(gram_residual(exact.operators), abs=1e-13)


def _residual_gates(n_qubits):
    """Haar, identity, ghz-chain (n >= 2) and two off-unitary gates that GateSpec accepts."""
    rng = np.random.default_rng(90 + n_qubits)
    d = 2**n_qubits
    haar = haar_unitary(rng, d)
    # u^dag u = diag(1 + delta): an E of at most 3e-11, below TOL.unitarity
    delta = rng.uniform(-3e-11, 3e-11, d)
    sign = 1.0 - 2.0 * ((np.arange(d) >> (n_qubits - 1)) & 1)
    gates = [
        GateSpec.from_matrix(haar),
        GateSpec.identity(n_qubits),
        GateSpec.from_matrix(haar * np.sqrt(1.0 + delta)),
        GateSpec.from_matrix(np.diag(np.sqrt(1.0 + 3e-11 * sign))),
    ]
    return gates + ([ghz_chain_gate(n_qubits)] if n_qubits >= 2 else [])


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_orthogonality_residual_matches_the_pairwise_traces(n_qubits):
    d = 2**n_qubits
    for gate in _residual_gates(n_qubits):
        ops = np.stack([gate.u00 @ pauli_product(a >> n_qubits, a % d, n_qubits) for a in range(d * d)])
        assert orthogonality_residual(gate) == pytest.approx(gram_residual(ops), rel=1e-6, abs=1e-13)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5])
def test_orthogonality_residual_matches_the_dense_gram(n_qubits):
    for gate in _residual_gates(n_qubits):
        dense = build_error_basis(gate).gram_residual()
        assert orthogonality_residual(gate) == pytest.approx(dense, rel=1e-6, abs=1e-13)
        assert (orthogonality_residual(gate) <= _orthogonality_bound(n_qubits)) == (
            dense <= _orthogonality_bound(n_qubits)
        )


@pytest.mark.parametrize("n_qubits", range(1, MAX_QUBITS + 1))
def test_orthogonality_bound_holds_every_gate_at_the_unitarity_limit(n_qubits):
    # u^dag u = diag(1 + delta (-1)**s_0) has row residuals delta and
    # Tr(Z_0 E) = 2**n delta; delta is the largest of a few that GateSpec accepts
    sign = 1.0 - 2.0 * ((np.arange(2**n_qubits) >> (n_qubits - 1)) & 1)
    gates = {}
    for delta in TOL.unitarity * (1.0 - np.arange(1, 10) * 1e-6):
        try:
            gates[delta] = GateSpec.from_matrix(np.diag(np.sqrt(1.0 + delta * sign)))
        except ValueError:
            continue
    delta = max(gates)
    residual = orthogonality_residual(gates[delta])
    assert residual == pytest.approx(2**n_qubits * delta, rel=1e-5)
    bound = _orthogonality_bound(n_qubits)
    assert residual <= bound < 2**n_qubits * TOL.unitarity * (1 + 1e-12)
    assert all(orthogonality_residual(gate) <= bound for gate in _residual_gates(n_qubits))


def test_orthogonality_residual_is_exactly_zero_for_permutation_gates():
    for n_qubits in range(2, MAX_QUBITS + 1):
        assert orthogonality_residual(ghz_chain_gate(n_qubits)) == 0.0


def test_orthogonality_residual_builds_no_basis():
    # at n = 6 the dense basis and its Gram matrix hold 4**6 operators each
    # (268 MB); the closed form holds a few 2**6 x 2**6 operators
    gate = GateSpec.from_matrix(haar_unitary(np.random.default_rng(96), 64))
    residual, peak = allocation_peak(lambda: orthogonality_residual(gate))
    assert residual <= _orthogonality_bound(6)
    assert peak <= 6 * gate.u00.nbytes, peak / gate.u00.nbytes


def test_basis_operator_lookup():
    basis = build_error_basis(GateSpec.from_matrix(CNOT))
    op = basis.operators[(2 << 2) + 0]
    assert np.array_equal(op, CNOT @ np.kron(Z, I2))


def test_basis_capacity_limit():
    with pytest.raises(CapacityError):
        build_error_basis(GateSpec.identity(7))


OVER = MAX_QUBITS + 1


@pytest.mark.parametrize(
    "construct",
    [
        pytest.param(lambda: GateSpec.identity(OVER), id="GateSpec.identity"),
        pytest.param(lambda: GateSpec.from_matrix(np.eye(1 << OVER)), id="GateSpec.from_matrix"),
        # the placeholder arrays are never read: the qubit count is checked first
        pytest.param(lambda: GateSpec(OVER, np.eye(2)), id="GateSpec"),
        pytest.param(lambda: Channel(OVER, np.eye(2)[np.newaxis]), id="Channel"),
    ],
)
def test_every_constructor_refuses_a_qubit_count_over_capacity(construct):
    with pytest.raises(CapacityError, match="maximum"):
        construct()


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_completeness_reconstruction(n_qubits):
    # any matrix decomposes as sum_a Tr{U_a^dag M} U_a / 2**N
    rng = np.random.default_rng(40 + n_qubits)
    d = 2**n_qubits
    gate = GateSpec.from_matrix(haar_unitary(rng, d))
    ops = build_error_basis(gate).operators
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    coeffs = np.einsum("aij,ij->a", ops.conj(), m) / d
    rebuilt = np.einsum("a,aij->ij", coeffs, ops)
    assert np.max(np.abs(rebuilt - m)) < 1e-10


@pytest.mark.parametrize("n_qubits,length", [(1, 1024), (3, 64), (4, 16), (5, 4), (6, 1)])
def test_kraus_blocks_hold_64_kib_and_cover_the_stack(n_qubits, length):
    d = 1 << n_qubits
    for count in (1, length - 1, length, length + 1, 4**n_qubits):
        if count < 1:
            continue
        blocks = _kraus_blocks(count, d)
        assert blocks[0].start == 0 and blocks[-1].stop == count
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all(b.stop - b.start == length for b in blocks[:-1])
        assert 1 <= blocks[-1].stop - blocks[-1].start <= length
        assert length * 16 * d * d <= 1 << 16


@pytest.mark.parametrize("n_qubits", range(1, 7))
def test_walsh_signs_are_the_kron_table_bit_for_bit(n_qubits):
    table = _walsh_signs(n_qubits)
    kron = reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * n_qubits)
    assert table.dtype == np.float64 and table.shape == kron.shape
    assert table.tobytes() == kron.tobytes()
    # built once per n and shared, so no caller can edit it
    assert not table.flags.writeable and table is _walsh_signs(n_qubits)


@pytest.mark.parametrize("n_qubits", range(1, MAX_QUBITS + 1))
def test_walsh_signs_are_their_own_inverse_up_to_2_to_the_n_exactly(n_qubits):
    # S = S^T and S S = 2**n I hold exactly in float64 (entries +-1, integer
    # sums of at most 64 terms), so the coefficient transform of
    # channel._error_coefficients, a product with S / 2**n, is inverted
    # exactly by S and needs no rebuild of the Kraus operators at run time
    table = _walsh_signs(n_qubits)
    d = 1 << n_qubits
    assert np.array_equal(table, table.T)
    assert np.array_equal(table @ table, d * np.eye(d))
    assert np.array_equal(table @ (table / d), np.eye(d))


def test_operator_unitary_flag():
    with pytest.raises(ValueError, match="unitary"):
        GateSpec(1, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_gate_spec_residual_bounds_every_input_norm():
    # u = I + c J / 4 has u^dag u = I + s J / 4 with s = 2c + c**2: its largest
    # entry deviation is s / 4, but the all-plus input grows by the full s,
    # the eigenvalue of s J / 4 on it, and its transfer probability by 2s
    s = 0.9 * TOL.probability_slack
    c = np.sqrt(1.0 + s) - 1.0
    u = np.eye(4) + c * np.ones((4, 4)) / 4
    assert np.max(np.abs(u.T @ u - np.eye(4))) < TOL.unitarity < s
    with pytest.raises(ValueError, match="not unitary"):
        GateSpec(2, u)


def test_gate_spec_rejects_a_nan_matrix():
    with pytest.raises(ValueError, match="unitary"):
        GateSpec.from_matrix([[np.nan, 0.0], [0.0, 1.0]])


def test_gate_spec_validation():
    with pytest.raises(ValueError):
        GateSpec.from_matrix(np.ones((2, 2)))
    with pytest.raises(ValueError):
        GateSpec.from_matrix(np.eye(3))  # not a power of two
    with pytest.raises(ValueError, match="4 x 4"):
        GateSpec(2, np.eye(2))  # one qubit's matrix declared on two
    gate = GateSpec.from_matrix(np.eye(4))
    assert gate.n_qubits == 2


def test_value_arrays_are_read_only():
    basis = build_error_basis(GateSpec.identity(1))
    with pytest.raises(ValueError):
        basis.operators[0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        basis.gate.u00[0, 0] = 5.0
