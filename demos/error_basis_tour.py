"""Tour of the gate-relative error basis and the process-matrix diagonal.

Every N-qubit channel can be expanded over 4**N operators built from the
target gate itself: the gate times a tensor product of Z factors (selected
by a phase mask) and X factors (selected by an amplitude mask).  The member
with both masks zero is the ideal gate, so the weight sitting on that
member is exactly the process fidelity, and the remaining diagonal weights
read off as physical error probabilities.

This script labels the basis for a CNOT target and checks its
orthogonality without building the 4**N dense operators, then injects a
known error (Z on the control qubit, applied after the gate) and shows that
the process matrix puts all of its diagonal weight on the matching mask
pair.

=== EXAMPLE OUTPUT ===
error basis for 2-qubit controlled flip (CNOT)
  members: 16, each 4 x 4
  orthogonality residual: 0.000e+00

member labels (phase mask | amplitude mask):
  a= 0: Z^00 X^00 (the ideal gate)
  a= 1: Z^00 X^01
  a= 2: Z^00 X^10
  a= 3: Z^00 X^11
  a= 4: Z^01 X^00
  ...
  a=15: Z^11 X^11

channel: CNOT followed by Z on the control with probability 0.3
nonzero error probabilities:
  phase mask 00, amplitude mask 00: 0.700000
  phase mask 10, amplitude mask 00: 0.300000
process fidelity: 0.700000
"""

import numpy as np

from gatecert import (
    Channel,
    error_probabilities,
    ghz_chain_gate,
    kraus_to_chi,
    orthogonality_residual,
    process_fidelity,
)

PAULI_Z = np.diag([1.0, -1.0]).astype(np.complex128)


def mask_label(mask: int, n_qubits: int) -> str:
    return format(mask, f"0{n_qubits}b")


def main() -> None:
    gate = ghz_chain_gate(2)  # the 2-qubit chain is plain CNOT
    n = gate.n_qubits
    print("error basis for 2-qubit controlled flip (CNOT)")
    print(f"  members: {4**n}, each {2**n} x {2**n}")
    print(f"  orthogonality residual: {orthogonality_residual(gate):.3e}")
    print()

    print("member labels (phase mask | amplitude mask):")
    for a in range(4**n):
        # flat index a = (phase_mask << n) + amp_mask
        phase_mask, amp_mask = a >> n, a & ((1 << n) - 1)
        tag = " (the ideal gate)" if a == 0 else ""
        print(f"  a={a:2d}: Z^{mask_label(phase_mask, n)} X^{mask_label(amp_mask, n)}{tag}")
    print()

    # Build a noisy channel by hand: with probability 0.3 a Z error hits the
    # control qubit (qubit 0, the left tensor factor) after the gate fires.
    p = 0.3
    u = gate.u00
    z_on_control = np.kron(PAULI_Z, np.eye(2))
    kraus = np.stack([np.sqrt(1.0 - p) * u, np.sqrt(p) * z_on_control @ u])
    channel = Channel(2, kraus)

    print(f"channel: CNOT followed by Z on the control with probability {p}")
    chi = kraus_to_chi(channel, gate)
    print("nonzero error probabilities:")
    # sorted (phase_mask, amp_mask) keys run in flat order
    for (phase_mask, amp_mask), weight in sorted(error_probabilities(chi).items()):
        if weight > 1e-12:
            print(f"  phase mask {mask_label(phase_mask, n)}, amplitude mask {mask_label(amp_mask, n)}: {weight:.6f}")
    print(f"process fidelity: {process_fidelity(chi):.6f}")


if __name__ == "__main__":
    main()
