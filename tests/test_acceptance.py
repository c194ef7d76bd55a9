"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest output.
"""

import json

import numpy as np
import pytest

from gatecert.certify import certify, classical_fidelity, ghz_chain_gate
from gatecert.channel import Channel, kraus_to_chi, process_fidelity
from gatecert.cli import main, matrix_to_pairs, report_from_dict
from gatecert.core import GateSpec, build_error_basis
from gatecert.noise import NOISE_KINDS, NoiseSpec, noisy_gate, random_cptp
from gatecert.sampler import ShotPlan, sample_transfer, sampled_report
from _oracles import ghz_correlation, ghz_family_overlap, ghz_output

P_GRID = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
FAMILY_KINDS = [k for k in NOISE_KINDS if k != "random_cptp"]


def conclude(number, description, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def two_qubit_population():
    gate = ghz_chain_gate(2)
    basis = build_error_basis(gate)
    channels = [random_cptp(2, rank=1 + i % 16, seed=5000 + i) for i in range(500)]
    return gate, basis, channels


@pytest.fixture(scope="module")
def three_qubit_population():
    gate = ghz_chain_gate(3)
    basis = build_error_basis(gate)
    channels = [random_cptp(3, rank=1 + i % 64, seed=9000 + i) for i in range(100)]
    return gate, basis, channels


def fidelities_both_ways(channel, gate, basis):
    """(fz, fx) by state simulation and by chi-diagonal sums, independently."""
    _, fz = classical_fidelity(channel, gate, "z")
    _, fx = classical_fidelity(channel, gate, "x")
    chi = kraus_to_chi(channel, gate, basis)
    d = 1 << gate.n_qubits
    diag = np.diagonal(chi.entries).real
    return (fz, fx), (float(np.sum(diag[::d])), float(np.sum(diag[:d]))), chi


def test_criterion_1_basis_orthogonality():
    worst = 0.0
    for gate in (GateSpec.identity(1), GateSpec.identity(2), ghz_chain_gate(2), ghz_chain_gate(3)):
        worst = max(worst, build_error_basis(gate).gram_residual())
    conclude(
        1,
        f"error bases orthogonal for identity, CNOT and 3-qubit chain (worst {worst:.2e})",
        worst < 1e-10,
    )


def test_criterion_2_diagonal_identities(two_qubit_population, three_qubit_population):
    worst = 0.0
    for gate, basis, channels in (two_qubit_population, three_qubit_population):
        for ch in channels:
            (fz, fx), (phase_sum, bit_sum), _ = fidelities_both_ways(ch, gate, basis)
            worst = max(worst, abs(fz - phase_sum), abs(fx - bit_sum))
    conclude(
        2,
        f"transfer fidelities equal chi-diagonal sums on 600 random channels (worst {worst:.2e})",
        worst < 1e-8,
    )


def test_criterion_3_bound_sandwich(two_qubit_population, three_qubit_population):
    violations = 0
    cases = 0

    def check(channel, gate, basis=None):
        nonlocal violations, cases
        _, fz = classical_fidelity(channel, gate, "z")
        _, fx = classical_fidelity(channel, gate, "x")
        fp = process_fidelity(kraus_to_chi(channel, gate, basis))
        cases += 1
        if not (fz + fx - 1.0 <= fp + 1e-12 and fp <= min(fz, fx) + 1e-9):
            violations += 1

    for gate, basis, channels in (two_qubit_population, three_qubit_population):
        for ch in channels:
            check(ch, gate, basis)
    for gate, basis, _ in (two_qubit_population, three_qubit_population):
        for kind in FAMILY_KINDS:
            for p in P_GRID:
                check(noisy_gate(gate, NoiseSpec(kind, p)), gate, basis)
    conclude(
        3,
        f"process fidelity stayed inside [fz+fx-1, min(fz, fx)] in all {cases} cases",
        violations == 0,
    )


def test_criterion_4_depolarizing_closed_forms():
    gate = ghz_chain_gate(3)
    basis = build_error_basis(gate)
    worst = 0.0
    for p in (0.0, 0.1, 0.2, 0.5, 1.0):
        ch = noisy_gate(gate, NoiseSpec("depolarizing_global", p))
        _, fz = classical_fidelity(ch, gate, "z")
        _, fx = classical_fidelity(ch, gate, "x")
        fp = process_fidelity(kraus_to_chi(ch, gate, basis))
        worst = max(
            worst,
            abs(fz - (1 - 7 * p / 8)),
            abs(fx - (1 - 7 * p / 8)),
            abs(fp - (1 - 63 * p / 64)),
        )
    conclude(
        4,
        f"depolarized chain matches 1-7p/8 and 1-63p/64 closed forms (worst {worst:.2e})",
        worst < 1e-9,
    )


def test_criterion_5_perfect_chain_correlation():
    gate = ghz_chain_gate(3)
    ch = Channel(3, gate.u00[np.newaxis])
    correlation = ghz_correlation(ghz_output(ch.kraus_ops))
    corr_ok = abs(correlation - 4.0) < 1e-10

    # the four product inputs |x_x, a_z, 0_z> must all land on maximally
    # entangled outputs
    worst_overlap = 1.0
    for x in (0, 1):
        for a in (0, 1):
            amp = np.kron(
                (np.array([1.0, 1.0]) if x == 0 else np.array([1.0, -1.0])) / np.sqrt(2),
                np.eye(4)[2 * a],
            )
            out = gate.u00 @ amp
            worst_overlap = min(worst_overlap, ghz_family_overlap(out))
    conclude(
        5,
        f"perfect chain: correlation {correlation:.12f}, entangled-family overlaps >= "
        f"{worst_overlap:.12f}",
        corr_ok and abs(worst_overlap - 1.0) < 1e-12,
    )


def test_criterion_6_correlation_floor(three_qubit_population):
    gate, basis, channels = three_qubit_population
    holds = True
    for ch in channels:
        fp = process_fidelity(kraus_to_chi(ch, gate, basis))
        measured = ghz_correlation(ghz_output(ch.kraus_ops))
        if abs(measured) < 8 * fp - 4 - 1e-8:
            holds = False
    for kind in FAMILY_KINDS:
        for p in P_GRID:
            ch = noisy_gate(gate, NoiseSpec(kind, p))
            fp = process_fidelity(kraus_to_chi(ch, gate, basis))
            measured = ghz_correlation(ghz_output(ch.kraus_ops))
            if abs(measured) < 8 * fp - 4 - 1e-8:
                holds = False

    ch = noisy_gate(gate, NoiseSpec("depolarizing_global", 0.5))
    fp = process_fidelity(kraus_to_chi(ch, gate, basis))
    measured = ghz_correlation(ghz_output(ch.kraus_ops))
    anchor_ok = abs(measured - 2.0) < 1e-9 and abs((8 * fp - 4) - 0.0625) < 1e-9
    conclude(
        6,
        f"correlation floor 8*chi00-4 held everywhere; at p=0.5 measured {measured:.6f} "
        f"with floor {8 * fp - 4:.6f}",
        holds and anchor_ok,
    )


def test_criterion_7_threshold_sweep(three_qubit_population):
    gate, basis, channels = three_qubit_population
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[-1] = 1 / np.sqrt(2)

    cap_flags = []
    viol_flags = []
    sound = True
    for k in range(101):
        p = k / 100
        ch = noisy_gate(gate, NoiseSpec("depolarizing_global", p))
        report = certify(ch, gate)
        cap_flags.append(report.capability_certified)
        viol_flags.append(report.violation_certified)
        if report.capability_certified:
            rho_out = ghz_output(ch.kraus_ops)
            if float(np.vdot(ghz, rho_out @ ghz).real) <= 0.5:
                sound = False
        if report.violation_certified and abs(report.ghz_expectation) <= 2.0:
            sound = False
    # fz = fx = 1 - 7p/8 crosses 3/4 at p = 2/7 and 7/8 at p = 1/7
    cap_expected = [k / 100 < 2 / 7 for k in range(101)]
    viol_expected = [k / 100 < 1 / 7 for k in range(101)]
    flips_ok = cap_flags == cap_expected and viol_flags == viol_expected

    # random channels almost never certify, but when they do it must be true
    for ch in channels:
        report = certify(ch, gate)
        if report.capability_certified:
            rho_out = ghz_output(ch.kraus_ops)
            if float(np.vdot(ghz, rho_out @ ghz).real) <= 0.5:
                sound = False
        if report.violation_certified and abs(report.ghz_expectation) <= 2.0:
            sound = False
    conclude(
        7,
        "certification flags flip at p=2/7 and p=1/7 with no false certification "
        f"(capability off from p={cap_flags.index(False) / 100:.2f}, "
        f"violation off from p={viol_flags.index(False) / 100:.2f})",
        flips_ok and sound,
    )


def test_criterion_8_sampler_convergence_and_determinism():
    gate = ghz_chain_gate(3)
    ch = noisy_gate(gate, NoiseSpec("depolarizing_global", 0.2))
    hits = {"z": 0, "x": 0}
    for basis in ("z", "x"):
        _, exact = classical_fidelity(ch, gate, basis)
        for seed in range(100):
            est = sample_transfer(ch, gate, ShotPlan(100_000, seed, basis))
            if abs(est.mean - exact) < 5 * est.std_error:
                hits[basis] += 1
    repeat_a = sampled_report(ch, gate, shots_per_input=100_000, seed=77)
    repeat_b = sampled_report(ch, gate, shots_per_input=100_000, seed=77)
    identical = repeat_a == repeat_b
    conclude(
        8,
        f"100k-shot estimates within 5 sigma in {hits['z']}/100 (z) and {hits['x']}/100 (x) "
        "seeds; identical seeds give identical reports",
        hits["z"] >= 99 and hits["x"] >= 99 and identical,
    )


def test_criterion_9_cli_contract(tmp_path):
    out = tmp_path / "report.json"

    code_clean = main(
        ["certify", "--gate", "ghz-chain", "--qubits", "3", "--output", str(out)]
    )
    clean = json.loads(out.read_text())
    clean_ok = (
        code_clean == 0
        and clean["fz"] == pytest.approx(1.0, abs=1e-12)
        and clean["fx"] == pytest.approx(1.0, abs=1e-12)
        and clean["capability_certified"]
        and clean["violation_certified"]
    )

    code_noisy = main(
        [
            "certify", "--gate", "ghz-chain", "--qubits", "3",
            "--noise", "depolarizing_global:0.2", "--output", str(out),
        ]
    )
    noisy = json.loads(out.read_text())
    noisy_ok = (
        code_noisy == 0
        and noisy["fz"] == pytest.approx(0.825, abs=1e-9)
        and noisy["fx"] == pytest.approx(0.825, abs=1e-9)
        and noisy["capability_certified"] is True
        and noisy["violation_certified"] is False
    )

    bad_config = tmp_path / "bad.json"
    bad_config.write_text(json.dumps({"gate": {"matrix": matrix_to_pairs(np.ones((2, 2)))}}))
    code_bad = main(["certify", "--config", str(bad_config), "--output", str(out)])

    report = report_from_dict(noisy)
    round_trip_ok = report.fz == noisy["fz"] and report.capability_bound == noisy["capability_bound"]

    conclude(
        9,
        f"CLI exit codes ({code_clean}/{code_noisy}/{code_bad}) and report values match "
        "the contract; JSON round-trips losslessly",
        clean_ok and noisy_ok and code_bad == 1 and round_trip_ok,
    )
