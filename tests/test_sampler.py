import numpy as np
import pytest

from gatecert.certify import certify, classical_fidelity, ghz_chain_gate
from gatecert.channel import Channel
from gatecert.noise import NoiseSpec, noisy_gate
from gatecert.sampler import FidelityEstimate, ShotPlan, basis_subseed, sample_transfer, sampled_report


def perfect_chain(n_qubits):
    gate = ghz_chain_gate(n_qubits)
    return gate, Channel(n_qubits, gate.u00[np.newaxis])


def test_shot_plan_validation():
    with pytest.raises(ValueError):
        ShotPlan(0, 1, "z")
    with pytest.raises(ValueError):
        ShotPlan(10, -1, "z")
    with pytest.raises(ValueError):
        ShotPlan(10, 1, "y")
    ShotPlan(int(np.iinfo(np.int64).max), 1, "z")
    with pytest.raises(ValueError, match=str(np.iinfo(np.int64).max)):
        ShotPlan(int(np.iinfo(np.int64).max) + 1, 1, "z")


def test_perfect_gate_sampling_is_noiseless():
    gate, ch = perfect_chain(3)
    est = sample_transfer(ch, gate, ShotPlan(500, 7, "z"))
    assert est.mean == 1.0
    assert est.std_error == 0.0
    assert est.shots_total == 8 * 500
    assert all(count == 500 for count in est.per_input_counts.values())


def test_sampling_is_deterministic_per_seed():
    gate = ghz_chain_gate(2)
    ch = noisy_gate(gate, NoiseSpec("depolarizing_global", 0.3))
    a = sample_transfer(ch, gate, ShotPlan(2000, 99, "x"))
    b = sample_transfer(ch, gate, ShotPlan(2000, 99, "x"))
    assert a == b
    c = sample_transfer(ch, gate, ShotPlan(2000, 100, "x"))
    assert a != c


def test_estimate_bookkeeping():
    gate = ghz_chain_gate(2)
    ch = noisy_gate(gate, NoiseSpec("depolarizing_global", 0.5))
    est = sample_transfer(ch, gate, ShotPlan(1000, 5, "z"))
    successes = sum(est.per_input_counts.values())
    assert est.mean == pytest.approx(successes / est.shots_total, abs=1e-15)
    expected_se = np.sqrt(est.mean * (1 - est.mean) / est.shots_total)
    assert est.std_error == pytest.approx(expected_se, abs=1e-15)


def test_estimate_validation():
    with pytest.raises(ValueError):
        FidelityEstimate(1.2, 0.0, 100, {0: 120})
    with pytest.raises(ValueError):
        FidelityEstimate(0.5, -0.1, 100, {0: 50})
    with pytest.raises(ValueError):
        FidelityEstimate(0.9, 0.01, 100, {0: 50})  # mean disagrees with counts


def test_estimate_rejects_a_nan_standard_error():
    with pytest.raises(ValueError, match="standard error"):
        FidelityEstimate(0.5, float("nan"), 10, {0: 3, 1: 2})


def test_estimates_concentrate_around_the_exact_value():
    # 5-sigma coverage check at every shot budget: nearly every seed must
    # land inside the pooled-error band around the exact fidelity
    gate = ghz_chain_gate(3)
    ch = noisy_gate(gate, NoiseSpec("depolarizing_global", 0.2))
    _, exact = classical_fidelity(ch, gate, "z")
    for shots in (1_000, 10_000, 100_000, 1_000_000):
        hits = 0
        for seed in range(100):
            est = sample_transfer(ch, gate, ShotPlan(shots, seed, "z"))
            if abs(est.mean - exact) < 5 * est.std_error:
                hits += 1
        assert hits >= 99, f"only {hits}/100 seeds inside 5 sigma at {shots} shots"


def test_basis_subseed_separates_the_bases():
    assert basis_subseed(0, "z") != basis_subseed(0, "x")
    assert basis_subseed(123, "z") == 123 ^ basis_subseed(0, "z")
    with pytest.raises(ValueError):
        basis_subseed(1, "w")


def test_sampled_report_is_reproducible():
    gate = ghz_chain_gate(3)
    ch = noisy_gate(gate, NoiseSpec("depolarizing_global", 0.2))
    a = sampled_report(ch, gate, shots_per_input=2000, seed=31)
    b = sampled_report(ch, gate, shots_per_input=2000, seed=31)
    assert a == b
    c = sampled_report(ch, gate, shots_per_input=2000, seed=32)
    assert a != c


def test_sampled_report_carries_sampling_metadata():
    gate = ghz_chain_gate(3)
    ch = noisy_gate(gate, NoiseSpec("depolarizing_global", 0.2))
    report = sampled_report(ch, gate, shots_per_input=5000, seed=8)
    assert report.provenance == "sampled"
    assert report.fz_std_error is not None and report.fx_std_error is not None
    assert set(report.counts) == {"z", "x"}
    assert all(len(per_basis) == 8 for per_basis in report.counts.values())
    # ground-truth fields stay exact regardless of sampling
    exact = certify(ch, gate)
    assert report.f_process_exact == pytest.approx(exact.f_process_exact, abs=1e-12)
    assert report.ghz_expectation == pytest.approx(exact.ghz_expectation, abs=1e-12)


def test_sampled_report_flags_track_the_estimates():
    gate, ch = perfect_chain(3)
    report = sampled_report(ch, gate, shots_per_input=100, seed=0)
    assert report.fz == 1.0 and report.fx == 1.0
    assert report.capability_certified and report.violation_certified
    assert report.capability_bound == pytest.approx(1.0)
