"""Independent reference computations used to cross-check the package.

Everything here is deliberately written against raw numpy arrays, not the
package's own decomposition code, so that agreement between the two is a
meaningful check rather than a tautology.
"""

import importlib
import tracemalloc

import numpy as np


def random_density(rng, n_qubits):
    """Random full-rank density matrix from a normalized Ginibre product."""
    d = 2**n_qubits
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def apply_channel(kraus, rho):
    """E(rho) = sum_m K_m rho K_m^dag, one operator at a time."""
    return sum(k @ rho @ k.conj().T for k in np.asarray(kraus))


def mermin_operator():
    """XXX - XYY - YXY - YYX, the three-qubit correlation combination, as a dense 8 x 8 matrix."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    return (
        np.kron(np.kron(x, x), x)
        - np.kron(np.kron(x, y), y)
        - np.kron(np.kron(y, x), y)
        - np.kron(np.kron(y, y), x)
    )


def ghz_correlation(rho):
    """Tr(M_3 rho) for the dense Mermin operator; its imaginary part must vanish."""
    value = complex(np.trace(mermin_operator() @ rho))
    assert abs(value.imag) < 1e-12, value
    return value.real


def entangling_input(n_qubits):
    """(|0...0> + |10...0>)/sqrt(2), the product input the chain gate turns maximally entangled."""
    amp = np.zeros(2**n_qubits, dtype=complex)
    amp[0] = amp[2 ** (n_qubits - 1)] = 1 / np.sqrt(2)
    return amp


def ghz_output(kraus):
    """The channel output for the entangling input of 3 qubits, by full density-matrix propagation."""
    psi = entangling_input(3)
    return apply_channel(kraus, np.outer(psi, psi.conj()))


def haar_unitary(rng, dim):
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def superoperator(kraus):
    """Matrix S with E(rho).reshape(-1) = S @ rho.reshape(-1), row-major vec."""
    kraus = np.asarray(kraus)
    d = kraus.shape[-1]
    s = np.zeros((d * d, d * d), dtype=complex)
    for k in kraus:
        s += np.kron(k, k.conj())
    return s


def completeness_residual(kraus):
    """Largest absolute row sum of sum_m K_m^dag K_m - I, summed one row outer product at a time.

    sum_m K_m^dag K_m = sum_{m,j} conj(row_j(K_m))^T row_j(K_m).
    """
    kraus = np.asarray(kraus)
    d = kraus.shape[-1]
    total = np.zeros((d, d), dtype=complex)
    for k in kraus:
        for row in k:
            total += np.outer(row.conj(), row)
    return max(sum(abs(entry) for entry in row) for row in total - np.eye(d))


def gram_residual(operators):
    """Max deviation of Tr{U_a^dag U_b} from d delta_ab, one pair at a time."""
    operators = np.asarray(operators)
    q, d = operators.shape[0], operators.shape[-1]
    worst = 0.0
    for a in range(q):
        for b in range(q):
            inner = np.sum(operators[a].conj() * operators[b])
            worst = max(worst, abs(inner - (d if a == b else 0.0)))
    return worst


def chi_via_superoperator(kraus, basis_ops):
    """Process matrix recovered by least squares from the superoperator.

    Solves sum_ab chi_ab kron(U_a, U_b^*) = S for chi, touching none of the
    package's coefficient bookkeeping.
    """
    s = superoperator(kraus)
    q = basis_ops.shape[0]
    columns = np.empty((s.size, q * q), dtype=complex)
    for a in range(q):
        for b in range(q):
            columns[:, a * q + b] = np.kron(basis_ops[a], basis_ops[b].conj()).reshape(-1)
    solution, *_ = np.linalg.lstsq(columns, s.reshape(-1), rcond=None)
    return solution.reshape(q, q)


def apply_via_chi(chi, basis_ops, rho):
    """E(rho) evaluated through the double-sum expansion over the basis."""
    return np.einsum("ab,aij,jk,blk->il", chi, basis_ops, rho, basis_ops.conj(), optimize=True)


def product_inputs(n_qubits, basis):
    """Matrix whose column n is product input n: |n> for "z", H^(x n)|n> for "x"."""
    if basis == "z":
        return np.eye(2**n_qubits, dtype=complex)
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    frame = np.ones((1, 1))
    for _ in range(n_qubits):
        frame = np.kron(frame, hadamard)
    return frame.astype(complex)


def transfer_probabilities(kraus, unitary, inputs):
    """Per-input success probabilities by full density-matrix propagation.

    For each column psi of ``inputs``, rho_out = sum_m K_m rho K_m^dag with
    rho = |psi><psi| is projected on the ideal image u|psi>.
    """
    probs = []
    for psi in np.asarray(inputs).T:
        rho = np.outer(psi, psi.conj())
        rho_out = sum(k @ rho @ k.conj().T for k in kraus)
        target = unitary @ psi
        probs.append(float(np.vdot(target, rho_out @ target).real))
    return np.array(probs)


def pauli_product(phase_mask, amp_mask, n_qubits):
    """Z**z @ X**x as a Kronecker product of per-qubit factors Z**z_k @ X**x_k.

    Qubit 0 is the leftmost factor and the most significant bit of each mask.
    """
    z_factor = np.diag([1.0, -1.0]).astype(complex)
    x_factor = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    out = np.ones((1, 1), dtype=complex)
    for k in range(n_qubits):
        shift = n_qubits - 1 - k
        factor = np.linalg.matrix_power(z_factor, (phase_mask >> shift) & 1) @ np.linalg.matrix_power(
            x_factor, (amp_mask >> shift) & 1
        )
        out = np.kron(out, factor)
    return out


def dense_chi(kraus, unitary):
    """Process matrix through the dense 4**n-operator basis U_a = u Z**z X**x.

    c_{m,a} = Tr(U_a^dag K_m) / 2**n for a = (z << n) + x, then chi = C^T C^*.
    """
    kraus = np.asarray(kraus)
    d = kraus.shape[-1]
    n_qubits = d.bit_length() - 1
    # each Z**z and X**x is built once; operator (z, x) is (u Z**z) @ X**x
    phases = np.stack([unitary @ pauli_product(z, 0, n_qubits) for z in range(d)])
    flips = np.stack([pauli_product(0, x, n_qubits) for x in range(d)])
    basis = (phases[:, np.newaxis] @ flips).reshape(d * d, d, d)
    coeffs = np.einsum("aij,mij->ma", basis.conj(), kraus, optimize=True) / d
    return coeffs.T @ coeffs.conj()


def dense_chi_diagonal(kraus, unitary):
    """Diagonal of ``dense_chi``, building the basis 2**n operators (one phase mask) at a time.

    chi_{a,a} = sum_m |Tr(U_a^dag K_m)|^2 / 4**n; no more than 2**n basis
    operators are held at once, so a 6-qubit diagonal needs 4 MB, not the
    268 MB of the whole 4**6-operator stack.
    """
    kraus = np.asarray(kraus)
    d = kraus.shape[-1]
    n_qubits = d.bit_length() - 1
    flat = kraus.reshape(kraus.shape[0], -1)
    # Z**z X**x = (Z**z X**0)(Z**0 X**x), each factor a Kronecker product; the
    # bit-flip factor is a permutation matrix, so multiplying by it on the
    # right moves column sources[x, j] of the left operand to column j
    sources = np.stack([np.argmax(pauli_product(0, x, n_qubits), axis=0) for x in range(d)])
    diag = np.empty(d * d)
    for z in range(d):
        row = (unitary @ pauli_product(z, 0, n_qubits))[:, sources].transpose(1, 0, 2).reshape(d, -1)
        diag[z * d : (z + 1) * d] = np.sum(np.abs(row.conj() @ flat.T) ** 2, axis=1) / (d * d)
    return diag


def chi_entries(chi):
    """The dense 4**n x 4**n process matrix C C^dag of a ``ChiMatrix``, which the package never holds."""
    return chi.coefficients @ chi.coefficients.conj().T


def ghz_family_overlap(amplitudes):
    """Largest squared overlap with any phase-adjusted |m> + |complement(m)> pair."""
    amp = np.asarray(amplitudes)
    d = amp.shape[0]
    best = 0.0
    for m in range(d // 2):
        overlap = (abs(amp[m]) + abs(amp[d - 1 - m])) ** 2 / 2.0
        best = max(best, overlap)
    return best


def allocation_peak(fn):
    """Run ``fn()`` and return (its result, the peak traced bytes allocated above the start)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def skew_the_complementary_frame(monkeypatch):
    """Zero entry (1, 0) of the fx sweep's Hadamard frame, on either route of ``classical_fidelity``."""
    # the package's certify function shadows its certify module as an attribute
    certify_module = importlib.import_module("gatecert.certify")
    frame_of = certify_module._input_frame

    def skewed(n_qubits, basis):
        frame = frame_of(n_qubits, basis).copy()
        if basis == "x":
            frame[1, 0] = 0.0
        return frame

    monkeypatch.setattr(certify_module, "_input_frame", skewed)


def swap_in_the_x_1_bit_frame(monkeypatch):
    """Make the certify path's bit row gather the x = 1 frame in place of x = 0, so its chi_00 reads chi_{(0,1)}.

    The package builds each index once and shares it read-only, so the
    corruption is written into a copy; the shared index stays intact for
    every later call once the monkeypatch is undone.
    """
    import gatecert.channel as channel_module

    index = channel_module._bit_frame_index

    def corrupted(d, rows):
        table = index(d, rows).copy()
        table[:, 0] = table[:, 1]
        return table

    monkeypatch.setattr(channel_module, "_bit_frame_index", corrupted)
