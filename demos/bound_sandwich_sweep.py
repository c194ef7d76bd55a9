"""Two local fidelities sandwich the process fidelity of a noisy gate.

Full process tomography of an N-qubit gate needs state preparation and
readout in entangled bases.  The shortcut demonstrated here needs only
two product-basis experiments: feed in computational (z) states and check
the outputs, then feed in complementary (x) states and check again.  The
two mean success probabilities fz and fx pin the process fidelity F into

    fz + fx - 1  <=  F  <=  min(fz, fx)

and the lower bound converts into certificates: the gate can create
entanglement whenever (fz + fx)/2 > 3/4.

The sweep below applies global depolarizing noise of strength p to the
2-qubit controlled flip and prints the sandwich at every step, together
with the certification verdict.  The exact process fidelity is computed
independently from the channel's process-matrix decomposition, so the
table doubles as a numerical check of the inequality.

=== EXAMPLE OUTPUT ===
depolarizing sweep on the 2-qubit controlled flip
   p      fz      fx   lower       F   upper   capability
0.00  1.0000  1.0000  1.0000  1.0000  1.0000   certified (bound 1.000)
0.10  0.9250  0.9250  0.8500  0.9062  0.9250   certified (bound 0.700)
0.20  0.8500  0.8500  0.7000  0.8125  0.8500   certified (bound 0.400)
0.30  0.7750  0.7750  0.5500  0.7188  0.7750   certified (bound 0.100)
0.40  0.7000  0.7000  0.4000  0.6250  0.7000   not certified
0.50  0.6250  0.6250  0.2500  0.5312  0.6250   not certified
0.60  0.5500  0.5500  0.1000  0.4375  0.5500   not certified
0.70  0.4750  0.4750 -0.0500  0.3438  0.4750   not certified
0.80  0.4000  0.4000 -0.2000  0.2500  0.4000   not certified
0.90  0.3250  0.3250 -0.3500  0.1562  0.3250   not certified
1.00  0.2500  0.2500 -0.5000  0.0625  0.2500   not certified

sandwich held at every step.
"""

from gatecert import NoiseSpec, certify, ghz_chain_gate, noisy_gate


def main() -> None:
    gate = ghz_chain_gate(2)
    print("depolarizing sweep on the 2-qubit controlled flip")
    print(f"{'p':>4} {'fz':>7} {'fx':>7} {'lower':>7} {'F':>7} {'upper':>7}   capability")

    held = True
    for step in range(11):
        p = step / 10
        report = certify(noisy_gate(gate, NoiseSpec("depolarizing_global", p)), gate)
        verdict = (
            f"certified (bound {report.capability_bound:.3f})"
            if report.capability_certified
            else "not certified"
        )
        print(
            f"{p:4.2f} {report.fz:7.4f} {report.fx:7.4f} {report.lower_bound:7.4f}"
            f" {report.f_process_exact:7.4f} {report.upper_bound:7.4f}   {verdict}"
        )
        held &= report.lower_bound <= report.f_process_exact <= report.upper_bound + 1e-9

    print()
    print("sandwich held at every step." if held else "sandwich violated somewhere!")


if __name__ == "__main__":
    main()
