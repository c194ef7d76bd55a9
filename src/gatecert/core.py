"""Immutable gate types and the orthogonal error-operator basis.

Conventions, fixed once for the whole package:

* Qubit 0 is the leftmost tensor factor and the most significant bit of every
  basis-state index and every error mask.  Reading the binary expansion of an
  index left to right gives the per-qubit labels in qubit order.
* The per-qubit error factor combines a phase flip and a bit flip in the fixed
  order ``Z**z @ X**x``, so the combined (z=1, x=1) factor is
  ``[[0, 1], [-1, 0]]``, i.e. iY.
* A multi-qubit error operator is the tensor product of per-qubit factors.
  Because phase-type and bit-type factors acting on different qubits commute,
  this equals (product of all phase factors) @ (product of all bit factors).

All value types validate themselves on construction and hold read-only
arrays; operations on them are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .tolerances import MAX_QUBITS, TOL

__all__ = [
    "CapacityError",
    "ConsistencyError",
    "GateSpec",
    "ErrorBasis",
    "build_error_basis",
    "orthogonality_residual",
]


class CapacityError(ValueError):
    """Requested qubit count exceeds MAX_QUBITS.

    ``_check_qubit_count`` raises it, as the first check of every value type
    sized by a qubit count (``GateSpec``, ``Channel``) and of the builders
    that size an array from one, so nothing larger than MAX_QUBITS qubits is
    ever constructed or allocated.
    """


class ConsistencyError(RuntimeError):
    """Two internal code paths disagree; this signals a bug, not bad input."""


def _frozen(fresh: np.ndarray) -> np.ndarray:
    """Mark a fresh array and every array it views read-only, so ``_readonly`` takes it over."""
    view = fresh
    while isinstance(view, np.ndarray):
        view.setflags(write=False)
        view = view.base
    return fresh


def _readonly(values) -> np.ndarray:
    """``values`` as a read-only, C-contiguous array: the ownership rule of every value type.

    The dtype follows the data: complex128 for complex input, float64 for
    anything else, so a real gate or Kraus stack is held and processed in real
    arithmetic.  Nothing is demoted by looking at values.  An array of that
    dtype, read-only down its ``.base`` chain to the owner of the memory, is
    taken over unchanged, since nothing can write to it; anything else is copied.
    """
    dtype = np.complex128 if np.iscomplexobj(values) else np.float64
    owner = values
    while isinstance(owner, np.ndarray) and not owner.flags.writeable:
        owner = owner.base
    if owner is None and getattr(values, "dtype", None) == dtype and values.flags.c_contiguous:
        return values
    return _frozen(np.array(values, dtype=dtype, order="C"))


def _check_qubit_count(n_qubits) -> int:
    """``n_qubits`` as an int: ValueError unless a positive integer, CapacityError above MAX_QUBITS."""
    if not isinstance(n_qubits, (int, np.integer)) or n_qubits < 1:
        raise ValueError(f"n_qubits must be a positive integer, got {n_qubits!r}")
    if n_qubits > MAX_QUBITS:
        raise CapacityError(
            f"{n_qubits} qubit(s) exceeds the supported maximum of {MAX_QUBITS}; "
            f"the full process matrix would hold 16**{n_qubits} complex entries"
        )
    return int(n_qubits)


def _identity_residual(gram: np.ndarray) -> float:
    """Largest absolute row sum of gram - I; for Hermitian gram it bounds |<psi|gram|psi> - 1| for unit psi.

    The identity is subtracted in place: every caller passes a fresh product it does not read again.
    """
    d = len(gram)
    flat = gram.reshape(-1)
    flat[:: d + 1] -= 1.0
    return float(np.abs(flat).reshape(d, d).sum(axis=1).max())


@dataclass(frozen=True)
class GateSpec:
    """Target gate: the ideal unitary the noisy implementation is compared against.

    ``u00`` is the read-only 2**n_qubits x 2**n_qubits unitary matrix, float64
    when given as a real array (``identity``, the builtin chain) and complex128 otherwise;
    ``from_matrix`` always makes it complex128.  The array is frozen, so code
    that edits a copy in place must cast a real one first,
    ``gate.u00.astype(complex)``, or a complex entry is dropped.
    """

    n_qubits: int
    u00: np.ndarray
    name: str | None = None

    def __post_init__(self):
        n = _check_qubit_count(self.n_qubits)
        mat = _readonly(self.u00)
        d = 1 << n
        if mat.shape != (d, d):
            raise ValueError(f"expected a {d} x {d} matrix for {n} qubit(s), got shape {mat.shape}")
        residual = _identity_residual(mat.conj().T @ mat)
        if not residual <= TOL.unitarity:
            raise ValueError(f"gate matrix is not unitary: max residual {residual:.3e}")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "u00", mat)

    @classmethod
    def from_matrix(cls, matrix, name: str | None = None) -> "GateSpec":
        """Build a GateSpec from a raw square matrix, inferring the qubit count; ``u00`` is complex128."""
        mat = np.asarray(matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"gate matrix must be square, got shape {mat.shape}")
        d = mat.shape[0]
        n = d.bit_length() - 1
        if d < 2 or (1 << n) != d:
            raise ValueError(f"gate dimension must be a power of two >= 2, got {d}")
        return cls(n, mat, name=name)

    @classmethod
    def identity(cls, n_qubits: int) -> "GateSpec":
        n = _check_qubit_count(n_qubits)
        return cls(n, np.eye(1 << n), name="identity")


@dataclass(frozen=True)
class ErrorBasis:
    """All 4**n_qubits gate-relative error operators u00 @ Pi(i, j), stacked.

    Row ``a`` of ``operators`` holds the operator for the flat index
    ``a = (phase_mask << n_qubits) + amp_mask``.  Row 0 is the target unitary
    itself, stored bit-for-bit.
    """

    gate: GateSpec
    operators: np.ndarray

    def __post_init__(self):
        ops = _readonly(self.operators)
        n = self.gate.n_qubits
        d = 1 << n
        if ops.shape != (1 << (2 * n), d, d):
            raise ValueError(
                f"expected a ({1 << (2 * n)}, {d}, {d}) operator stack, got shape {ops.shape}"
            )
        if not np.array_equal(ops[0], self.gate.u00):
            raise ValueError("row 0 of the basis must equal the target unitary exactly")
        object.__setattr__(self, "operators", ops)

    def __len__(self) -> int:
        return self.operators.shape[0]

    def gram_residual(self) -> float:
        """Max deviation of Tr{U_a^dag U_b} from 2**n delta_ab over all pairs.

        Tr{U_a^dag U_b} is the inner product of the flattened operators, so
        the whole Gram matrix is one (4**n x 4**n) product.  For a basis that
        ``build_error_basis`` built, ``orthogonality_residual`` gives the same
        number without the basis or the Gram matrix.
        """
        flat = self.operators.reshape(len(self), -1)
        gram = flat.conj() @ flat.T
        expected = (1 << self.gate.n_qubits) * np.eye(len(self))
        return float(np.max(np.abs(gram - expected)))


@cache
def _walsh_signs(n_qubits: int) -> np.ndarray:
    """The 2**n x 2**n sign table (-1)**popcount(z & r), row z, column r.

    Row z holds the diagonal of the phase product Z**z; as a matrix the table
    is the unnormalized Walsh-Hadamard transform, its own inverse up to 2**n.
    The parity of z & r is folded onto bit 0 by XOR: after the shifts
    1, 2, ..., 2**k, bit 0 holds the parity of the low 2**(k+1) bits.  Each
    table is built once per n and shared read-only.
    """
    index = np.arange(1 << n_qubits)
    parity = index[:, np.newaxis] & index
    shift = 1
    while shift < n_qubits:
        parity ^= parity >> shift
        shift <<= 1
    return _frozen(1.0 - 2.0 * (parity & 1))


# Every stage that walks a Kraus stack takes it in blocks of at most this many
# bytes.  That is below glibc's default 128 KiB mmap threshold, so the per-block
# temporaries are recycled by malloc instead of being mapped and page-faulted
# afresh, and no stage holds more than a block's worth of any stack-sized array.
_KRAUS_BLOCK_BYTES = 1 << 16


def _kraus_blocks(count: int, dim: int) -> list[slice]:
    """Consecutive slices covering a stack of ``count`` dim x dim operators, sized for complex128 entries.

    Each slice spans as many whole operators as fit in _KRAUS_BLOCK_BYTES, and
    at least one; only the last may be shorter.
    """
    step = max(1, _KRAUS_BLOCK_BYTES // (np.dtype(np.complex128).itemsize * dim * dim))
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _pauli_products(phase_masks, amp_masks, n_qubits: int, scale=None, right=None) -> np.ndarray:
    """Stack of Z**z @ X**x @ right (right defaults to the identity) for the given (z, x) mask pairs only.

    Each error product is a signed permutation, (Z**z X**x)[r, r ^ x] = (-1)**popcount(z & r), so the
    stack is one gather of rows of [right; -right]: row r ^ x of the half the sign picks.  ``scale``
    (product k times ``scale[k]``) is one in-place multiply; no second stack-sized array is made.
    The products are real, so the stack has the dtype of ``right``, float64 for the default identity.
    """
    z = np.asarray(phase_masks, dtype=np.int64)
    x = np.asarray(amp_masks, dtype=np.int64)
    d = 1 << n_qubits
    right = np.eye(d) if right is None else right
    signed = np.concatenate([right, -right])
    stack = signed[(np.arange(d) ^ x[:, np.newaxis]) + d * (_walsh_signs(n_qubits)[z] < 0)]
    if scale is not None:
        stack.view(np.float64)[...] *= np.asarray(scale, dtype=np.float64)[:, np.newaxis, np.newaxis]
    return stack


def _shorter_loop(bra: np.ndarray, ket: np.ndarray, signs: np.ndarray, support) -> tuple:
    """(bra, ket, Zs, Xs, W) for a sum over the support Zs x Xs of Pauli weights W, its loop over Xs made short.

    The sums gather 4**n rows for each x in Xs.  When Zs is the smaller and
    those gathers fill a Kraus block (``_KRAUS_BLOCK_BYTES``), the Walsh table
    S moves the loop to the other side: S Z**z X**x S = +-2**n Z**x X**z, so
    <bra| Z**z X**x |ket> = +-<S bra| Z**x X**z |S ket> / 2**n, and with S bra,
    S ket, Zs and Xs traded and W transposed and divided by 4**n, every
    weighted squared magnitude is unchanged.  Below a block, the two extra
    products cost more than the gathers they save.
    """
    phase_masks, amp_masks, weights = support
    d = len(bra)
    gathered_bytes = len(amp_masks) * d * d * np.dtype(np.complex128).itemsize
    if len(phase_masks) >= len(amp_masks) or gathered_bytes < _KRAUS_BLOCK_BYTES:
        return bra, ket, phase_masks, amp_masks, weights
    return signs @ bra, signs @ ket, amp_masks, phase_masks, weights.T / (d * d)


@cache
def _xor_index(n_qubits: int) -> np.ndarray:
    """The 2**n x 2**n gather index r ^ x, row r, column x, of ``_pauli_overlaps`` alone, built once per n, read-only.

    The fz sweep and the bit row gather through indices of their own (``certify`` module docstring).
    """
    index = np.arange(1 << n_qubits)
    return _frozen(index[:, np.newaxis] ^ index)


def _pauli_overlaps(bra: np.ndarray, ket: np.ndarray, signs: np.ndarray, amp_masks: np.ndarray) -> np.ndarray:
    """<bra_n| Z**z X**x |ket_n> for every column n, row z of ``signs`` and x of ``amp_masks``: an array [(z, x), n].

    With (Z**z X**x)[r, r ^ x] = signs[z, r], each overlap is
    sum_r signs[z, r] conj(bra[r, n]) ket[r ^ x, n]: one XOR row gather of
    ``ket`` for all x, times conj(bra), and one product with the sign rows.
    The gather reads the columns ``amp_masks`` of ``_xor_index``.
    """
    d = len(bra)
    index = _xor_index(d.bit_length() - 1)
    if len(amp_masks) < d:
        index = index.take(amp_masks, axis=1)
    products = ket.take(index, axis=0).astype(np.result_type(bra, ket), copy=False)
    products *= bra.conj()[:, np.newaxis]
    return (signs @ products.reshape(d, -1)).reshape(-1, products.shape[-1])


def build_error_basis(gate: GateSpec) -> ErrorBasis:
    """Stack all 4**n gate-relative error operators u00 @ Pi(i, j).

    The stack holds 4**n dense matrices of size 2**n; a GateSpec has at most
    MAX_QUBITS qubits, so that size is bounded.
    """
    n = gate.n_qubits
    flat = np.arange(1 << (2 * n))
    u = gate.u00
    stack = u @ _pauli_products(flat >> n, flat & ((1 << n) - 1), n)
    stack[0] = u
    return ErrorBasis(gate, _frozen(stack))


def orthogonality_residual(gate: GateSpec) -> float:
    """Max deviation of Tr{U_a^dag U_b} from 2**n delta_ab over the gate's error basis, without building it.

    With U_a = u00 P_a, P_a = Z**z X**x for a = (z << n) + x, and
    E = u00^dag u00 - I,

        Tr{U_a^dag U_b} - 2**n delta_ab = Tr{P_a^dag E P_b} = Tr{E P_b P_a^dag},

    since U_a^dag U_b = P_a^dag (I + E) P_b and Tr{P_a^dag P_b} = 2**n delta_ab.
    Phase and bit flips commute up to a sign, so P_b P_a^dag = +-P_c with c
    the mask-wise XOR of a and b, a real sign.  Each deviation is therefore +-Tr{P_c E}, and every c occurs
    (a = 0, b = c), so the worst entry of the dense Gram matrix minus 2**n I,
    which ``ErrorBasis.gram_residual`` computes, is max_c |Tr{P_c E}|.

    With (Z**z X**x)[r, r ^ x] = (-1)**popcount(z & r),
    Tr{P_c E} = sum_s (-1)**popcount(z & s) E[s ^ x, s]: the Walsh-Hadamard
    transform over s of the gathered G[s, x] = E[s ^ x, s], one product with
    ``_walsh_signs``.  That costs O(8**n) time and O(4**n) memory, against
    the 4**n x 4**n Gram matrix of the 4**n dense operators.
    """
    n = gate.n_qubits
    d = 1 << n
    u = gate.u00
    error = u.conj().T @ u - np.eye(d)
    rows = np.arange(d)[:, np.newaxis]
    traces = _walsh_signs(n) @ error[rows ^ rows.T, rows]
    return float(np.max(np.abs(traces)))


def _orthogonality_bound(n_qubits: int) -> float:
    """The largest ``orthogonality_residual`` a gate that ``GateSpec`` accepts can have: 2**n TOL.unitarity plus rounding.

    Tr{P_c E} = sum_s +-E[s ^ x, s] takes one entry from each row of E, so
    |Tr{P_c E}| <= 2**n max_r sum_t |E[r, t]|, which ``GateSpec`` holds to
    TOL.unitarity; diag(1 + delta (-1)**s_0) reaches it.  The row sums of
    ``GateSpec`` and the Walsh sums of ``orthogonality_residual`` each add
    2**n rounded terms, so the margin 4 * 2**n ulps covers both.
    """
    d = 1 << _check_qubit_count(n_qubits)
    return d * TOL.unitarity * (1.0 + 4.0 * d * float(np.finfo(np.float64).eps))
