"""Quantum channels in Kraus form and their gate-relative process matrices.

A channel E acts as E(rho) = sum_m K_m rho K_m^dag with
sum_m K_m^dag K_m = I.  The package never forms a density matrix rho:
everything it reports is a contraction of the Kraus stack itself.

Expanding each Kraus operator in the orthogonal
gate-relative error basis U_a = u00 Z**z X**x, K_m = sum_a c_{m,a} U_a with
c_{m,a} = Tr{U_a^dag K_m} / 2**n, gives the process matrix
chi_{a,b} = sum_m c_{m,a} c_{m,b}^*; then
E(rho) = sum_{a,b} chi_{a,b} U_a rho U_b^dag.  The entry chi_{0,0} is the
process fidelity of the channel with respect to the target gate.

The coefficients never need the dense basis.  With M_m = u00^dag K_m and the
flat index a = (z << n) + x,

    c_{m,a} = 2**-n sum_s (-1)**popcount(z & s) M_m[s, s ^ x],

a Walsh-Hadamard transform over s of the gathered G_m[s, x] = M_m[s, s ^ x]
(the tensorized Pauli decomposition of Hantzko, Binkowski and Gupta,
arXiv:2310.13421).  All coefficients cost O(m 8**n) instead of O(m 16**n).

The sign table S is symmetric and S S = 2**n I exactly in float64 (entries
+-1, integer sums), so S inverts the transform exactly and no run rebuilds G
to check it; the tests check the identity.  A wrong sign or normalization
still breaks Parseval: sum_a |c_{m,a}|**2 = Tr(K_m^dag K_m) / 2**n, so the
squared Frobenius norm of the coefficient matrix, which is the trace of chi,
must be Tr(sum_m K_m^dag K_m) / 2**n = 1.  ``ChiMatrix`` holds that matrix
and checks the trace, and a ``kraus_to_chi`` result that fails it is a bug,
reported as ConsistencyError.  ``error_probabilities`` hands out the diagonal
of chi, the squared row norms of the coefficient matrix, keyed by plain
(phase_mask, amp_mask) = (z, x) tuples.

Certification reads only the phase-only column chi_{(z,0),(z,0)} and the
bit-only row chi_{(0,x),(0,x)} of that diagonal, 2**(n+1) - 1 entries that
share chi_{0,0}.  ``_transfer_entries`` computes just those, the column in
O(m 4**n) through the sign table and the row in O(m 8**n) without it, and
never transforms the whole stack; it checks that both give the same
chi_{0,0}, that every entry lies in [0, 1] and that each partial sum is at
most 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConsistencyError,
    ErrorBasis,
    GateSpec,
    _check_qubit_count,
    _frozen,
    _identity_residual,
    _kraus_blocks,
    _readonly,
    _walsh_signs,
)
from .tolerances import TOL

__all__ = [
    "Channel",
    "ChiMatrix",
    "kraus_to_chi",
    "process_fidelity",
    "error_probabilities",
]


def _completeness_residual(kraus: np.ndarray) -> float:
    """``core._identity_residual`` of sum_m K_m^dag K_m, for a C-contiguous float64 or complex128 stack.

    Stacking the operators vertically into one (m 2**n x 2**n) matrix turns
    the sum into a single product: sum_m K_m^dag K_m = flat^dag flat.  For a
    real stack that is the plain Gram matrix flat^T flat.  A complex stack's
    product is taken as the real Gram matrix g = v^T v of the float64 view v
    of ``flat``, whose columns interleave the real and imaginary parts, so
    no conjugated copy of the stack is made:
    Re = g[re, re] + g[im, im] and Im = g[re, im] - g[im, re].
    This is the package's only computation that branches on the dtype;
    everywhere else the dtype of a product follows its operands.
    """
    d = kraus.shape[-1]
    flat = kraus.reshape(-1, d)
    if not np.iscomplexobj(flat):
        return _identity_residual(flat.T @ flat)
    view = flat.view(np.float64)
    gram = view.T @ view
    total = (gram[0::2, 0::2] + gram[1::2, 1::2]) + 1j * (gram[0::2, 1::2] - gram[1::2, 0::2])
    return _identity_residual(total)


@dataclass(frozen=True)
class Channel:
    """Completely positive trace-preserving map as a Kraus stack, taken over without a copy when frozen.

    A real stack (a real gate under the Pauli families) is held as float64
    and a complex one as complex128, by the rule of ``core._readonly``; every
    stage that reads it computes in that dtype, or in complex128 when the
    gate is complex.
    """

    n_qubits: int
    kraus_ops: np.ndarray

    def __post_init__(self):
        n = _check_qubit_count(self.n_qubits)
        kraus = _readonly(self.kraus_ops)
        d = 1 << n
        if kraus.ndim != 3 or kraus.shape[1:] != (d, d):
            raise ValueError(
                f"expected a stack of {d} x {d} Kraus operators, got shape {kraus.shape}"
            )
        count = kraus.shape[0]
        if not 1 <= count <= 1 << (2 * n):
            raise ValueError(
                f"Kraus rank must lie in [1, {1 << (2 * n)}] for {n} qubit(s), got {count}"
            )
        residual = _completeness_residual(kraus)
        if not residual <= TOL.kraus_trace_preserving:
            raise ValueError(f"channel is not trace preserving: max residual {residual:.3e}")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "kraus_ops", kraus)

    @property
    def rank(self) -> int:
        return self.kraus_ops.shape[0]


@dataclass(frozen=True)
class ChiMatrix:
    """Process matrix chi = C C^dag of a channel relative to a target gate, held as C.

    Row a of the 4**n x r coefficient matrix C belongs to the flat error index
    a = (phase_mask << n_qubits) + amp_mask, and column k expands one Kraus
    operator.  For every vector v, v^dag chi v = ||C^dag v||^2 >= 0, so chi
    is Hermitian and positive semidefinite by representation, and its
    diagonal chi_{a,a} = ||C[a]||^2, the error probability distribution, is
    real and non-negative.

    Construction checks the shape and the unit trace Tr chi = ||C||_F^2, which
    also bounds every diagonal entry by 1 and rejects a NaN or infinite
    coefficient.  A frozen C is taken over without a copy, by the rule of
    ``core._readonly``; a real C, the coefficients of a real channel against a
    real gate, stays real and so does chi.  The dense 4**n x 4**n chi is
    never held; the ``--include-chi`` writer forms it a row block at a time.
    """

    gate: GateSpec
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = _readonly(self.coefficients)
        q = 1 << (2 * self.gate.n_qubits)
        if coeffs.ndim != 2 or coeffs.shape[0] != q or coeffs.shape[1] < 1:
            raise ValueError(f"expected a {q} x r coefficient matrix with r >= 1, got shape {coeffs.shape}")
        trace = float(np.vdot(coeffs, coeffs).real)
        if not abs(trace - 1.0) <= TOL.chi_trace:
            raise ValueError(f"process matrix must have unit trace, got {trace!r}")
        object.__setattr__(self, "coefficients", coeffs)


def _check_pair(channel: Channel, gate: GateSpec) -> int:
    """The common qubit count of ``channel`` and ``gate``, or ValueError."""
    if channel.n_qubits != gate.n_qubits:
        raise ValueError(
            f"channel acts on {channel.n_qubits} qubit(s) but the gate has {gate.n_qubits}"
        )
    return gate.n_qubits


def _error_coefficients(channel: Channel, gate: GateSpec) -> np.ndarray:
    """C, the 4**n x m coefficient matrix: row a, column m holds c_{m,a}.

    The qubit counts are checked first.  The blocks of ``core._kraus_blocks``
    are then transformed one at a time, each by the Walsh-Hadamard transform
    of the module docstring, and written into their columns of C, so every
    temporary stays within one block.

    The gather lays a block's G out as one 2**n x (2**n b) matrix, row s and
    column (x, m), so the transform is a single product with the real sign
    table, taken over the float64 view (real and imaginary parts side by
    side, or the real entries alone), with the 1/2**n normalization folded
    into the table.  C is real when both the gate and the stack are.
    """
    n = _check_pair(channel, gate)
    d = 1 << n
    scaled = _walsh_signs(n) / d
    rows = np.arange(d)[:, np.newaxis]
    columns = rows ^ rows.T
    u_dag = gate.u00.conj().T
    kraus = channel.kraus_ops
    coeffs = np.empty((d * d, channel.rank), dtype=np.result_type(gate.u00, kraus))
    for block in _kraus_blocks(channel.rank, d):
        product = u_dag @ kraus[block]
        count = product.shape[0]
        gathered = product.transpose(1, 2, 0)[rows, columns].reshape(d, d * count)
        coeffs[:, block] = (scaled @ gathered.view(np.float64)).view(coeffs.dtype).reshape(d * d, count)
    return coeffs


def _bit_frame_index(d: int, rows: int) -> np.ndarray:
    """Gather index of a frame chunk: entry ((t, s), x) reads row t, column s ^ x of ``rows`` matrix rows.

    Applied to the flattened rows t0 .. t0 + rows of conj(u00), it lays out
    conj(u00 X**x)[t, s] = conj(u00)[t, s ^ x] for every x as one
    (rows 2**n x 2**n) matrix, row (t, s) and column x.  Since x < 2**n, the
    flat source t 2**n + (s ^ x) is (t 2**n + s) ^ x.
    """
    return np.arange(rows * d)[:, np.newaxis] ^ np.arange(d)


def _transfer_entries(channel: Channel, gate: GateSpec) -> tuple[np.ndarray, np.ndarray]:
    """The phase-only column chi_{(z,0)} and the bit-only row chi_{(0,x)}: the 2**(n+1) - 1 entries certify reads.

    Phase column: Tr{(u00 Z**z)^dag K_m} = sum_s S[z, s] diag(u00^dag K_m)[s]
    with S the Walsh sign table, and diag(u00^dag K_m)[s] =
    sum_t conj(u00[t, s]) K_m[t, s] is one O(m 4**n) contraction of the stack
    in place, so the m x 2**n diagonals are multiplied once by S.

    Bit row, read without the Walsh table: Tr{(u00 X**x)^dag K_m} is the inner
    product of the flattened K_m with the frame vec(conj(u00 X**x)), an XOR
    gather of conj(u00)'s columns.  The rows t of the stack are walked in the
    slices of ``core._kraus_blocks(2**n, 2**n)``: a slice's frames hold as
    many entries as that many operators, so each frame chunk stays within
    64 KiB, and each slice adds one product of the (m x 4**n) stack view's
    columns with its chunk.  The frames hold 8**n entries whatever m is, so
    a stack of fewer than 2**(n-1) operators spread over several chunks
    takes the other order instead: it forms u00^dag K_m, as many operators
    at a time as a frame chunk has rows, and sums the XOR diagonals
    Tr{(u00 X**x)^dag K_m} = sum_s (u00^dag K_m)[s ^ x, s].  Its own range
    loop walks the operators, not the ``_kraus_blocks(m, 2**n)`` slices of
    the transfer sweeps, so a slicing bug cannot drop the same operators on
    both sides of the fx identity.

    The column and the row both hold chi_00.  Every entry must lie in
    [0, 1], the two values of chi_00 must agree within ``TOL.chi_diagonal``,
    and each of the two partial sums must be at most 1.  A validated channel
    fails these checks only through a bug, NaN included, so they raise
    ConsistencyError.  No array of the stack's size is made: the largest are
    a few m x 2**n arrays and one 64 KiB chunk.
    """
    n = _check_pair(channel, gate)
    d = 1 << n
    u = gate.u00
    kraus = channel.kraus_ops
    m = kraus.shape[0]
    dtype = np.result_type(u, kraus)

    # Row 0 collects sum_m |c|^2 for the phase column, row 1 for the bit row.
    weights = np.empty((2, d), dtype=dtype)
    phase_coeffs = np.vecdot(u, kraus, axis=-2) @ _walsh_signs(n).T
    np.vecdot(phase_coeffs, phase_coeffs, axis=0, out=weights[0])

    # 2**n and the slice length are powers of two, so every slice holds the same number of rows.
    chunks = _kraus_blocks(d, d)
    rows_per_chunk = chunks[0].stop
    if 2 * m < d and len(chunks) > 1:
        # The frames would cost more than the stack they read.
        s = np.arange(d)[:, np.newaxis]
        xor_diagonals = (s ^ s.T) * d + s  # row s, column x: flat (s ^ x, s)
        u_dag = u.conj().T
        bit_coeffs = np.empty((m, d), dtype=dtype)
        for start in range(0, m, rows_per_chunk):
            products = (u_dag @ kraus[start : start + rows_per_chunk]).reshape(-1, d * d)
            gathered = np.take(products, xor_diagonals, axis=1, mode="clip")
            np.sum(gathered, axis=1, out=bit_coeffs[start : start + rows_per_chunk])
    else:
        flat = kraus.reshape(m, d * d)
        u_conj = u.conj().reshape(d * d)
        index = _bit_frame_index(d, rows_per_chunk)
        frame = np.empty(index.shape, dtype=u.dtype)
        bit_coeffs = np.zeros((m, d), dtype=dtype)
        for rows in chunks:
            lo, hi = rows.start * d, rows.stop * d
            # The index lies in range by construction; "clip" skips the bounds check.
            np.take(u_conj[lo:hi], index, out=frame, mode="clip")
            # The spent phase coefficients, also m x 2**n, hold each product.
            bit_coeffs += np.matmul(flat[:, lo:hi], frame, out=phase_coeffs)
    np.vecdot(bit_coeffs, bit_coeffs, axis=0, out=weights[1])

    entries = weights.real / (d * d)
    phase, bit = entries
    low, high = float(entries.min()), float(entries.max())
    if not (low >= -TOL.chi_diagonal and high <= 1.0 + TOL.chi_diagonal):
        raise ConsistencyError(
            f"phase-only and bit-only error probabilities must lie in [0, 1]: min {low!r}, max {high!r}"
        )
    gap = abs(float(phase[0]) - float(bit[0]))
    if not gap <= TOL.chi_diagonal:
        raise ConsistencyError(
            f"the phase and bit routes to chi_00 differ by {gap:.3e}; the decomposition is broken"
        )
    total = float(entries.sum(axis=1).max())
    if not total <= 1.0 + TOL.chi_trace:
        raise ConsistencyError(f"phase-only or bit-only error probabilities sum to {total!r}, above 1")
    return phase, bit


def kraus_to_chi(channel: Channel, gate: GateSpec, basis: ErrorBasis | None = None) -> ChiMatrix:
    """Decompose a channel over the gate-relative error basis.

    Computes the expansion coefficients c_{m,a} = Tr{U_a^dag K_m} / 2**n by
    the Walsh-Hadamard transform
    c_{m,a} = 2**-n sum_s (-1)**popcount(z & s) (u00^dag K_m)[s, s ^ x] for
    a = (z << n) + x, into one 4**n x m matrix C, the size of the Kraus stack,
    which the returned ``ChiMatrix`` takes over.  The dense basis is never
    built; a supplied ``basis`` is only checked to belong to ``gate``.  A C
    built this way from a validated channel fails the unit-trace check only
    through a bug, so such a failure raises ConsistencyError.
    """
    if basis is not None and basis.gate is not gate and not np.array_equal(
        basis.gate.u00, gate.u00
    ):
        raise ValueError("supplied basis was built for a different gate")
    coefficients = _frozen(_error_coefficients(channel, gate))
    try:
        return ChiMatrix(gate, coefficients)
    except ValueError as exc:
        raise ConsistencyError(f"{exc}; the decomposition is broken") from exc


def process_fidelity(chi: ChiMatrix) -> float:
    """The no-error weight chi_{00,00} = ||C[0]||^2: overlap of the channel with the target gate."""
    first = chi.coefficients[0]
    return float(np.vdot(first, first).real)


def error_probabilities(chi: ChiMatrix) -> dict[tuple[int, int], float]:
    """Diagonal of the process matrix, the squared row norms of C, keyed by (phase_mask, amp_mask) tuples.

    Entry a is keyed by (a >> n, a & (2**n - 1)): key (z, x) is flat index
    (z << n) + x, and sorted keys run in flat order.

    The values form a probability distribution over the discrete error set:
    their sum is the trace of the process matrix, which ``ChiMatrix`` has
    already checked to be 1.
    """
    n = chi.gate.n_qubits
    coeffs = chi.coefficients
    diag = np.vecdot(coeffs, coeffs).real.tolist()
    return {(a >> n, a & ((1 << n) - 1)): p for a, p in enumerate(diag)}

