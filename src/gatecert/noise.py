"""Standard noise families, random channels, and composition with a target gate.

For noise strength p on n qubits:

* depolarizing_global: rho -> (1 - p) rho + p I / 2**n, the uniform mixture
  of all 4**n phase/bit error products, with weights (1 - p + p/4**n) for
  the identity and p/4**n for everything else.
* dephasing_per_qubit: each qubit independently suffers a phase flip with
  probability p; the Z-type products carry weights (1-p)**(n-k) p**k for k
  flipped qubits.
* bitflip_per_qubit: same construction with X in place of Z.
* random_cptp: a seeded random channel of chosen Kraus rank, drawn by
  orthonormalizing the columns of a complex Ginibre matrix so the stacked
  Kraus blocks form an exact isometry.

``noisy_gate`` holds the three Pauli families as a ``PauliChannel``: the
gate and the 4**n weights, which ``certify`` and ``sample`` read directly.
Their Kraus stack, formed only when read, has one operator per nonzero
weight, so p = 0 yields the single-operator identity channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Channel, PauliChannel, _pauli_mixture
from .core import GateSpec, _check_qubit_count, _frozen, _kraus_blocks

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


def _pauli_weights(kind: str, n_qubits: int, strength: float) -> np.ndarray:
    """The 4**n weights of a Pauli family over the flat masks (z << n) + x."""
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
    return weights


def _noise_kraus(
    kind: str, n_qubits: int, strength: float = 0.0, rank: int = 1, seed: int = 0, right=None
) -> np.ndarray:
    """A fresh, frozen Kraus stack of one noise family (each N_k @ ``right`` if given), not yet validated."""
    _check_qubit_count(n_qubits)
    if kind == "random_cptp":
        return _frozen(_random_isometry(n_qubits, rank, seed, right))
    return _frozen(_pauli_mixture(_pauli_weights(kind, n_qubits, strength), n_qubits, right))


def random_cptp(n_qubits: int, rank: int, seed: int) -> Channel:
    """Draw a random channel of the given Kraus rank, reproducibly from ``seed``.

    A (rank * 2**n) x 2**n complex Ginibre matrix is column-orthonormalized
    with a QR factorization; slicing the resulting isometry into rank blocks
    of 2**n rows yields Kraus operators satisfying sum K^dag K = I up to
    rounding.  The same seed always returns bit-identical operators.
    """
    return Channel(n_qubits, _noise_kraus("random_cptp", n_qubits, rank=rank, seed=seed))


def noisy_gate(gate: GateSpec, spec: NoiseSpec) -> Channel | PauliChannel:
    """The target gate followed by noise: Kraus operators N_k @ u00.

    A Pauli family gives a ``PauliChannel`` of the gate and the family's 4**n
    weights; its Kraus stack is formed only if ``kraus_ops`` is read.  A
    random isometry gives a ``Channel`` whose stack is built once, with u00
    multiplied on its right in place, block by block.  Only that Channel is
    validated: when sum N^dag N = I and u00 is unitary (which GateSpec
    checks), sum u00^dag N^dag N u00 = I, so its completeness check covers
    the noise too.
    """
    if spec.kind != "random_cptp":
        return PauliChannel(gate, _pauli_weights(spec.kind, gate.n_qubits, spec.strength))
    stack = _noise_kraus(spec.kind, gate.n_qubits, rank=spec.rank, seed=spec.seed, right=gate.u00)
    return Channel(gate.n_qubits, stack)
