"""Standard noise families, random channels, and composition with a target gate.

Kraus sets, for noise strength p on n qubits:

* depolarizing_global: rho -> (1 - p) rho + p I / 2**n, realized by the
  uniform mixture of all 4**n phase/bit error products.  The two operators
  proportional to the identity are merged into one, so the set has exactly
  4**n elements with weights (1 - p + p/4**n) for the identity and p/4**n
  for everything else.
* dephasing_per_qubit: each qubit independently suffers a phase flip with
  probability p; the 2**n Kraus operators are the Z-type products with
  weights (1-p)**(n-k) p**k for k flipped qubits.
* bitflip_per_qubit: same construction with X in place of Z.
* random_cptp: a seeded random channel of chosen Kraus rank, drawn by
  orthonormalizing the columns of a complex Ginibre matrix so the stacked
  Kraus blocks form an exact isometry.

Operators with exactly zero weight are dropped, so p = 0 always yields the
single-operator identity channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Channel
from .core import GateSpec, _check_qubit_count, _frozen, _kraus_blocks, _pauli_products

__all__ = ["NOISE_KINDS", "NoiseSpec", "random_cptp", "noisy_gate"]

NOISE_KINDS = (
    "depolarizing_global",
    "dephasing_per_qubit",
    "bitflip_per_qubit",
    "random_cptp",
)


@dataclass(frozen=True)
class NoiseSpec:
    """Parameters naming one member of the supported noise families."""

    kind: str
    strength: float = 0.0
    rank: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected one of {NOISE_KINDS}")
        if not 0.0 <= self.strength <= 1.0:
            raise ValueError(f"noise strength must lie in [0, 1], got {self.strength!r}")
        if self.rank < 1:
            raise ValueError(f"Kraus rank must be at least 1, got {self.rank!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")


def _pauli_mixture(weights: np.ndarray, n_qubits: int, right) -> np.ndarray:
    """sqrt(w_a) Z**z X**x @ right for each flat mask a = (z << n) + x whose weight w_a is not zero."""
    flat = np.flatnonzero(weights)
    return _pauli_products(flat >> n_qubits, flat & ((1 << n_qubits) - 1), n_qubits, np.sqrt(weights[flat]), right)


def _random_isometry(n_qubits: int, rank: int, seed: int, right) -> np.ndarray:
    d = 1 << n_qubits
    if not 1 <= rank <= d * d:
        raise ValueError(f"rank must lie in [1, {d * d}] for {n_qubits} qubit(s), got {rank}")
    rng = np.random.default_rng(seed)
    ginibre = np.empty((rank * d, d), dtype=np.complex128)
    ginibre.real = rng.standard_normal((rank * d, d))
    ginibre.imag = rng.standard_normal((rank * d, d))
    isometry, _ = np.linalg.qr(ginibre)
    if right is not None:
        for block in _kraus_blocks(rank, d):
            rows = slice(block.start * d, block.stop * d)
            isometry[rows] = isometry[rows] @ right
    return isometry.reshape(rank, d, d)


def _noise_kraus(
    kind: str, n_qubits: int, strength: float = 0.0, rank: int = 1, seed: int = 0, right=None
) -> np.ndarray:
    """A fresh, frozen Kraus stack of one noise family (each N_k @ ``right`` if given), not yet validated."""
    _check_qubit_count(n_qubits)
    if kind == "random_cptp":
        return _frozen(_random_isometry(n_qubits, rank, seed, right))
    count = 1 << (2 * n_qubits)
    if kind == "depolarizing_global":
        weights = np.full(count, strength / count)
        weights[0] += 1.0 - strength
    elif kind in ("dephasing_per_qubit", "bitflip_per_qubit"):
        # k flipped qubits weigh (1-p)**(n-k) p**k; phase flips sit at z = mask, bit flips at x = mask.
        masks = np.arange(1 << n_qubits)
        weights = np.zeros(count)
        weights[masks << n_qubits if kind == "dephasing_per_qubit" else masks] = [
            (1.0 - strength) ** (n_qubits - k) * strength**k for k in map(int.bit_count, range(1 << n_qubits))
        ]
    else:
        raise ValueError(f"unknown noise kind {kind!r}")  # unreachable after NoiseSpec validation
    return _frozen(_pauli_mixture(weights, n_qubits, right))


def random_cptp(n_qubits: int, rank: int, seed: int) -> Channel:
    """Draw a random channel of the given Kraus rank, reproducibly from ``seed``.

    A (rank * 2**n) x 2**n complex Ginibre matrix is column-orthonormalized
    with a QR factorization; slicing the resulting isometry into rank blocks
    of 2**n rows yields Kraus operators satisfying sum K^dag K = I up to
    rounding.  The same seed always returns bit-identical operators.
    """
    return Channel(n_qubits, _noise_kraus("random_cptp", n_qubits, rank=rank, seed=seed))


def noisy_gate(gate: GateSpec, spec: NoiseSpec) -> Channel:
    """The target gate followed by noise: Kraus operators N_k @ u00.

    The stack is built once, with u00 on its right (a row gather for the Pauli
    families, an in-place blocked product for a random isometry), and the
    returned Channel takes it over without a copy.  Only that Channel is
    validated: when sum N^dag N = I and u00 is unitary (which GateSpec checks),
    sum u00^dag N^dag N u00 = u00^dag I u00 = I, so the completeness check of
    the result covers the noise stack too.

    The Pauli products are real, so a Pauli family keeps u00's dtype: a real
    gate gives a float64 stack, half the bytes of a complex one.  A random
    isometry is complex whatever the gate.
    """
    stack = _noise_kraus(spec.kind, gate.n_qubits, spec.strength, spec.rank, spec.seed, gate.u00)
    return Channel(gate.n_qubits, stack)
