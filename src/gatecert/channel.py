"""Quantum channels and their gate-relative process matrices.

A channel E acts as E(rho) = sum_m K_m rho K_m^dag with
sum_m K_m^dag K_m = I.  ``Channel`` holds the Kraus stack; ``PauliChannel``
holds a gate followed by Pauli noise as (gate, w), E(rho) =
sum_b w_b P_b u00 rho u00^dag P_b, and forms its stack only when it is read.
The package never forms a density matrix rho.

Expanding each Kraus operator in the orthogonal gate-relative error basis
U_a = u00 Z**z X**x, K_m = sum_a c_{m,a} U_a with
c_{m,a} = Tr{U_a^dag K_m} / 2**n, gives the process matrix
chi_{a,b} = sum_m c_{m,a} c_{m,b}^*; chi_{0,0} is the process fidelity.
With M_m = u00^dag K_m and the flat index a = (z << n) + x,

    c_{m,a} = 2**-n sum_s (-1)**popcount(z & s) M_m[s, s ^ x],

a Walsh-Hadamard transform over s of the gathered M_m[s, s ^ x] (Hantzko,
Binkowski and Gupta, arXiv:2310.13421), O(m 8**n) for all coefficients.  The
sign table S is symmetric with S S = 2**n I exactly, and a wrong sign or
normalization breaks Parseval: the squared Frobenius norm of the coefficient
matrix, the trace of chi, must be 1.  ``ChiMatrix`` holds that matrix and
checks the trace; ``kraus_to_chi`` reads the Kraus stack, so for a
``PauliChannel`` it forms it.

Certification reads only the phase-only column chi_{(z,0),(z,0)} and the
bit-only row chi_{(0,x),(0,x)}, 2**(n+1) - 1 entries that share chi_00
(``_transfer_entries``).  A Kraus stack gives them in O(m 4**n) and
O(m 8**n).  A ``PauliChannel`` gives them from (u00, w) alone: chi is not
diag(w), since the noise acts after the gate and the basis puts the Pauli
before it, chi_aa = sum_b w_b |Tr(P_a u00^dag P_b u00)|**2 / 4**n (a
permutation of w for a Clifford gate, dense for a Haar one).  Both routes
check that the two values of chi_00 agree, that every entry lies in [0, 1]
and that each partial sum is at most 1.  Neither reads the Hadamard frame
of the complementary sweep: that frame is the fx sweep's alone.

Their XOR gathers read per-n, read-only indices apart from their partners':
the phase column ``core._xor_index`` (in ``core._pauli_overlaps``), which
the fx sweep shares, and the bit row ``_bit_frame_index`` alone; the fz sweep
has its own.  The ``certify`` module docstring says why none is shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .core import (
    ConsistencyError,
    ErrorBasis,
    GateSpec,
    _check_qubit_count,
    _frozen,
    _identity_residual,
    _kraus_blocks,
    _pauli_overlaps,
    _pauli_products,
    _readonly,
    _shorter_loop,
    _walsh_signs,
)
from .tolerances import TOL

__all__ = [
    "Channel",
    "PauliChannel",
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


def _pauli_mixture(weights: np.ndarray, n_qubits: int, right) -> np.ndarray:
    """sqrt(w_a) Z**z X**x @ right for each flat mask a = (z << n) + x whose weight w_a is not zero."""
    flat = weights.nonzero()[0]
    return _pauli_products(flat >> n_qubits, flat & ((1 << n_qubits) - 1), n_qubits, np.sqrt(weights[flat]), right)


@dataclass(frozen=True)
class PauliChannel:
    """A gate followed by Pauli noise, E(rho) = sum_b w_b P_b u00 rho u00^dag P_b, held as (gate, w).

    ``weights`` is indexed by the flat mask b = (z << n) + x of P_b = Z**z X**x.
    Construction checks it in O(4**n): finite, non-negative and summing to 1
    within TOL.kraus_trace_preserving, which makes the channel trace
    preserving for the unitary ``gate.u00``.  ``rank`` counts the nonzero
    weights.  The Kraus stack sqrt(w_b) P_b u00 of those weights is formed
    the first time ``kraus_ops`` is read, by the row gather of
    ``core._pauli_products``, and kept; ``certify`` and ``sample`` never read it.
    """

    gate: GateSpec
    weights: np.ndarray

    def __post_init__(self):
        weights = _readonly(self.weights)
        q = 1 << (2 * self.gate.n_qubits)
        if weights.shape != (q,) or weights.dtype != np.float64:
            raise ValueError(f"expected {q} real Pauli weights, got shape {weights.shape} of {weights.dtype}")
        low = float(weights.min())
        if not low >= 0.0:
            raise ValueError(f"Pauli weights must be non-negative numbers, got a minimum of {low!r}")
        # an infinite weight makes the sum infinite
        total = float(weights.sum())
        if not abs(total - 1.0) <= TOL.kraus_trace_preserving:
            raise ValueError(f"channel is not trace preserving: Pauli weights sum to {total!r}")
        object.__setattr__(self, "weights", weights)

    @property
    def n_qubits(self) -> int:
        return self.gate.n_qubits

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.weights))

    @cached_property
    def kraus_ops(self) -> np.ndarray:
        return _frozen(_pauli_mixture(self.weights, self.n_qubits, self.gate.u00))

    @cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Zs, Xs, W): the phase and bit masks that carry weight, and W[i, j] = w of (Zs[i], Xs[j]).

        A full support's W is a read-only view of the weights.
        """
        d = 1 << self.n_qubits
        grid = self.weights.reshape(d, d)
        phase_masks = grid.any(axis=1).nonzero()[0]
        amp_masks = grid.any(axis=0).nonzero()[0]
        if len(phase_masks) < d:
            grid = grid.take(phase_masks, axis=0)
        if len(amp_masks) < d:
            grid = grid.take(amp_masks, axis=1)
        return phase_masks, amp_masks, grid


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


def _check_pair(channel: Channel | PauliChannel, gate: GateSpec) -> int:
    """The common qubit count of ``channel`` and ``gate``, or ValueError."""
    if channel.n_qubits != gate.n_qubits:
        raise ValueError(
            f"channel acts on {channel.n_qubits} qubit(s) but the gate has {gate.n_qubits}"
        )
    return gate.n_qubits


def _error_coefficients(channel: Channel | PauliChannel, gate: GateSpec) -> np.ndarray:
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


@cache
def _bit_frame_index(d: int, rows: int) -> np.ndarray:
    """Gather index of a frame chunk: entry ((t, s), x) reads row t, column s ^ x of ``rows`` matrix rows.

    Applied to the flattened rows t0 .. t0 + rows of conj(u00), it lays out
    conj(u00 X**x)[t, s] = conj(u00)[t, s ^ x] for every x as one
    (rows 2**n x 2**n) matrix, row (t, s) and column x.  Since x < 2**n, the
    flat source t 2**n + (s ^ x) is (t 2**n + s) ^ x.  With one row it is
    the table s ^ x.  Built once and read-only; the bit row reads no other XOR table.
    """
    return _frozen(np.arange(rows * d)[:, np.newaxis] ^ np.arange(d))


def _stack_entries(kraus: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Rows sum_m |Tr{(u00 Z**z)^dag K_m}|**2 and sum_m |Tr{(u00 X**x)^dag K_m}|**2 of a Kraus stack, unnormalized.

    Phase column: Tr{(u00 Z**z)^dag K_m} = sum_s S[z, s] diag(u00^dag K_m)[s],
    one O(m 4**n) contraction of the stack in place and one product with S.

    Bit row, read without the Walsh table: Tr{(u00 X**x)^dag K_m} is the inner
    product of vec(K_m) with the XOR frame vec(conj(u00 X**x)), walked in the
    row slices of ``core._kraus_blocks(2**n, 2**n)`` so each frame chunk stays
    within 64 KiB.  A stack of fewer than 2**(n-1) operators spread over
    several chunks instead forms u00^dag K_m in its own range loop, so a
    slicing bug cannot drop the same operators on both sides of the fx
    identity, and sums its XOR diagonals.  No array of the stack's size is made.
    """
    m, d, _ = kraus.shape
    n = d.bit_length() - 1
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
            gathered = products.take(xor_diagonals, axis=1, mode="clip")
            gathered.sum(axis=1, out=bit_coeffs[start : start + rows_per_chunk])
    else:
        flat = kraus.reshape(m, d * d)
        u_conj = u.conj().reshape(d * d)
        index = _bit_frame_index(d, rows_per_chunk)
        frame = np.empty(index.shape, dtype=u.dtype)
        bit_coeffs = np.zeros((m, d), dtype=dtype)
        for rows in chunks:
            lo, hi = rows.start * d, rows.stop * d
            # The index lies in range by construction; "clip" skips the bounds check.
            u_conj[lo:hi].take(index, out=frame, mode="clip")
            # The spent phase coefficients, also m x 2**n, hold each product.
            bit_coeffs += np.matmul(flat[:, lo:hi], frame, out=phase_coeffs)
    np.vecdot(bit_coeffs, bit_coeffs, axis=0, out=weights[1])
    return weights.real


def _bit_traces(u: np.ndarray, v: np.ndarray, signs: np.ndarray, amp_masks: np.ndarray) -> np.ndarray:
    """Tr{X**x' u^dag Z**z X**x v} = sum_r signs[z, r] sum_s conj(u[r, s ^ x']) v[r ^ x, s]: an array [(z, x), x'].

    The XOR frame conj(u[r, s ^ x']) of ``_bit_frame_index`` is contracted
    over s with the rows of v gathered for each x through the same index,
    one 2**n x 2**n product per row r, and the sign rows then sum over r.
    The frame holds 8**n entries, 2 MB for a real gate at n=6.
    """
    d = len(u)
    index = _bit_frame_index(d, 1)
    frame = u.conj().take(index, axis=1)
    rows = index if len(amp_masks) == d else index.take(amp_masks, axis=1)
    gathered = v.take(rows, axis=0) @ frame
    return (signs @ gathered.reshape(d, -1)).reshape(-1, d)


def _pauli_entries(channel: PauliChannel, gate: GateSpec) -> np.ndarray:
    """The rows of ``_stack_entries`` for a ``PauliChannel``, from its gate and weights alone.

    With u = gate.u00, v = channel.gate.u00 and M_b = u^dag P_b v, each row
    is sum_b w_b |Tr{P_a M_b}|**2 over the support Zs x Xs of w:

    * phase column, a = (z', 0): Tr{Z**z' M_b} = sum_s S[z', s] diag(M_b)[s],
      the Walsh transform of the diagonals that ``core._pauli_overlaps``
      gives for the columns of u and v;
    * bit row, a = (0, x'): Tr{X**x' M_b} = sum_s M_b[s ^ x', s], the XOR
      diagonal sums of ``_bit_traces``, which read no Walsh table over s.

    Both loop over Xs, or over Zs where ``core._shorter_loop`` moves the loop
    there: the phase column costs |Zs| |Xs| 4**n and the bit row that plus
    8**n per pass of the loop.  Nothing of the Kraus stack's size is made.
    """
    signs = _walsh_signs(gate.n_qubits)
    u, v, phase_masks, amp_masks, grid = _shorter_loop(gate.u00, channel.gate.u00, signs, channel.support)
    weights = grid.reshape(-1)
    rows = signs if len(phase_masks) == len(signs) else signs.take(phase_masks, axis=0)
    phase = np.abs(_pauli_overlaps(u, v, rows, amp_masks) @ signs)
    bit = np.abs(_bit_traces(u, v, rows, amp_masks))
    phase **= 2
    bit **= 2
    return np.array([weights @ phase, weights @ bit])


def _transfer_entries(channel: Channel | PauliChannel, gate: GateSpec) -> tuple[np.ndarray, np.ndarray]:
    """The phase-only column chi_{(z,0)} and the bit-only row chi_{(0,x)}: the 2**(n+1) - 1 entries certify reads.

    A Kraus stack goes through ``_stack_entries`` and a ``PauliChannel``
    through ``_pauli_entries``, which never forms its stack.  The column and
    the row both hold chi_00.  Every entry must lie in [0, 1], the two values
    of chi_00 must agree within ``TOL.chi_diagonal``, and each of the two
    partial sums must be at most 1.  A validated channel fails these checks
    only through a bug, NaN included, so they raise ConsistencyError.
    """
    n = _check_pair(channel, gate)
    d = 1 << n
    if isinstance(channel, PauliChannel):
        entries = _pauli_entries(channel, gate)
    else:
        entries = _stack_entries(channel.kraus_ops, gate.u00)
    entries /= d * d
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


def kraus_to_chi(channel: Channel | PauliChannel, gate: GateSpec, basis: ErrorBasis | None = None) -> ChiMatrix:
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

