import numpy as np
import pytest

from gatecert import cli
from gatecert.certify import ghz_chain_gate
from gatecert.channel import Channel, _completeness_residual, kraus_to_chi
from gatecert.core import CapacityError, GateSpec
from gatecert.noise import NOISE_KINDS, NoiseSpec, _noise_kraus, noisy_gate, random_cptp
from gatecert.tolerances import TOL
from _oracles import allocation_peak, apply_channel, chi_entries, haar_unitary, product_inputs, random_density, superoperator

CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=float,
)


def noise_channel(spec, n_qubits):
    """The bare noise channel from the stack builder noisy_gate uses, with no gate on the right.

    The builder is looked up on its module at each call, so a monkeypatched one applies.
    """
    import gatecert.noise as noise_module

    return Channel(n_qubits, noise_module._noise_kraus(spec.kind, n_qubits, spec.strength, spec.rank, spec.seed))


def ket_density(column):
    return np.outer(column, column.conj())


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec("amplitude_damping", 0.1)
    with pytest.raises(ValueError):
        NoiseSpec("depolarizing_global", 1.5)
    with pytest.raises(ValueError):
        NoiseSpec("random_cptp", rank=0)
    with pytest.raises(ValueError):
        NoiseSpec("random_cptp", seed=-1)


def test_noise_kraus_rejects_over_capacity_qubit_counts():
    # the guard must fire before any operator stack is allocated
    with pytest.raises(CapacityError):
        _noise_kraus("depolarizing_global", 7, 0.1)
    with pytest.raises(CapacityError):
        _noise_kraus("dephasing_per_qubit", 9, 0.1)


def test_zero_strength_collapses_to_the_identity_channel():
    for kind in NOISE_KINDS[:-1]:
        ch = noise_channel(NoiseSpec(kind, 0.0), 2)
        assert ch.rank == 1
        assert np.allclose(ch.kraus_ops[0], np.eye(4), atol=1e-15)


def test_depolarizing_kraus_count_stays_within_capacity():
    # the two identity-proportional operators merge, so the set has 4**n
    # members, not 4**n + 1
    ch = noise_channel(NoiseSpec("depolarizing_global", 0.3), 2)
    assert ch.rank == 16


def test_depolarizing_matches_its_closed_form():
    # E(rho) = (1 - p) rho + p I / 2**n
    rng = np.random.default_rng(17)
    for n_qubits, p in ((1, 0.3), (2, 0.65), (3, 0.08)):
        ch = noise_channel(NoiseSpec("depolarizing_global", p), n_qubits)
        d = 2**n_qubits
        for _ in range(5):
            rho = random_density(rng, n_qubits)
            out = apply_channel(ch.kraus_ops, rho)
            expected = (1 - p) * rho + p * np.eye(d) / d
            assert np.max(np.abs(out - expected)) < 1e-12


def test_full_depolarizing_erases_everything():
    ch = noise_channel(NoiseSpec("depolarizing_global", 1.0), 2)
    rho = ket_density(product_inputs(2, "z")[:, 3])
    out = apply_channel(ch.kraus_ops, rho)
    assert np.allclose(out, np.eye(4) / 4, atol=1e-12)


def test_full_dephasing_flips_the_complementary_state():
    # at p = 1 the only Kraus operator is Z, so |+> goes to |->
    ch = noise_channel(NoiseSpec("dephasing_per_qubit", 1.0), 1)
    assert ch.rank == 1
    plus, minus = product_inputs(1, "x").T
    out = apply_channel(ch.kraus_ops, ket_density(plus))
    assert np.allclose(out, ket_density(minus), atol=1e-14)


def test_half_dephasing_kills_coherences():
    ch = noise_channel(NoiseSpec("dephasing_per_qubit", 0.5), 1)
    out = apply_channel(ch.kraus_ops, ket_density(product_inputs(1, "x")[:, 0]))
    assert np.allclose(out, np.diag([0.5, 0.5]), atol=1e-14)


def test_dephasing_weights_are_binomial():
    p = 0.25
    ch = noise_channel(NoiseSpec("dephasing_per_qubit", p), 2)
    assert ch.rank == 4
    weights = sorted(float(np.abs(k[0, 0]) ** 2) for k in ch.kraus_ops)
    expected = sorted([(1 - p) ** 2, (1 - p) * p, p * (1 - p), p**2])
    assert np.allclose(weights, expected, atol=1e-14)


def test_full_bitflip_flips_a_computational_state():
    ch = noise_channel(NoiseSpec("bitflip_per_qubit", 1.0), 1)
    zero, one = product_inputs(1, "z").T
    out = apply_channel(ch.kraus_ops, ket_density(zero))
    assert np.allclose(out, ket_density(one), atol=1e-14)


def test_the_removed_phaseflip_alias_is_rejected(tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["certify", "--gate", "ghz-chain", "--qubits", "2", "--noise", "phaseflip_per_qubit:0.1"]
    assert cli.main([*argv, "--output", str(out)]) == 1
    assert "phaseflip_per_qubit" in capsys.readouterr().err
    assert not out.exists()


def test_noise_kraus_rejects_a_non_integer_qubit_count():
    with pytest.raises(ValueError, match="positive integer"):
        _noise_kraus("dephasing_per_qubit", 2.0, 0.1)


def test_random_cptp_is_deterministic_per_seed():
    a = random_cptp(2, rank=5, seed=42)
    b = random_cptp(2, rank=5, seed=42)
    assert np.array_equal(a.kraus_ops, b.kraus_ops)
    c = random_cptp(2, rank=5, seed=43)
    assert not np.array_equal(a.kraus_ops, c.kraus_ops)


def test_random_cptp_rank_one_is_unitary():
    ch = random_cptp(2, rank=1, seed=9)
    u = ch.kraus_ops[0]
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10


def test_random_cptp_rank_bounds():
    with pytest.raises(ValueError):
        random_cptp(1, rank=0, seed=0)
    with pytest.raises(ValueError):
        random_cptp(1, rank=5, seed=0)
    assert random_cptp(1, rank=4, seed=0).rank == 4


def test_every_noise_family_is_trace_preserving():
    for kind in NOISE_KINDS[:-1]:
        for p in (0.0, 0.15, 0.5, 0.85, 1.0):
            for n_qubits in (1, 2, 3):
                ch = noise_channel(NoiseSpec(kind, p), n_qubits)
                assert _completeness_residual(ch.kraus_ops) <= TOL.kraus_trace_preserving
    for seed in range(10):
        ch = random_cptp(2, 1 + seed, seed)
        assert _completeness_residual(ch.kraus_ops) <= TOL.kraus_trace_preserving


def test_noisy_gate_without_noise_strength_is_the_pure_gate():
    gate = GateSpec.from_matrix(CNOT, name="cnot")
    ch = noisy_gate(gate, NoiseSpec("depolarizing_global", 0.0))
    assert ch.rank == 1
    assert np.allclose(ch.kraus_ops[0], CNOT, atol=1e-15)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
def test_noisy_gate_multiplies_every_noise_operator_by_the_gate(n_qubits):
    rng = np.random.default_rng(90 + n_qubits)
    gate = GateSpec.from_matrix(haar_unitary(rng, 2**n_qubits))
    for kind in NOISE_KINDS:
        spec = NoiseSpec(kind, 0.3, rank=3, seed=n_qubits)
        noise = noise_channel(spec, n_qubits).kraus_ops
        expected = [k @ gate.u00 for k in noise]
        got = noisy_gate(gate, spec).kraus_ops
        if kind == "random_cptp":
            assert np.max(np.abs(got - expected)) < 1e-14
        else:
            # a Pauli-family operator is a scaled signed permutation: its
            # product with u00 is a row gather and a sign, exact to the bit
            assert np.array_equal(got, expected)


def test_noisy_gate_process_fidelity_closed_form():
    # depolarizing after any two-qubit unitary: chi_00 = 1 - 15 p / 16
    gate = GateSpec.from_matrix(CNOT, name="cnot")
    for p in (0.0, 0.1, 0.2, 0.5, 1.0):
        chi = kraus_to_chi(noisy_gate(gate, NoiseSpec("depolarizing_global", p)), gate)
        assert chi_entries(chi)[0, 0].real == pytest.approx(1 - 15 * p / 16, abs=1e-12)


def test_depolarizing_commutes_with_the_gate():
    # noise-after-gate and gate-after-noise give the same map when the noise
    # is the global depolarizing family
    gate = GateSpec.from_matrix(CNOT, name="cnot")
    noise = noise_channel(NoiseSpec("depolarizing_global", 0.4), 2)
    after = superoperator(noise.kraus_ops @ CNOT)
    before = superoperator(CNOT @ noise.kraus_ops)
    assert np.max(np.abs(after - before)) < 1e-10


def test_noisy_gate_holds_one_kraus_stack():
    # the stack is gathered from the rows of +/- u00 and scaled in place, and
    # the returned Channel takes that same array over without a copy
    gate = GateSpec.from_matrix(haar_unitary(np.random.default_rng(5), 16))
    channel, peak = allocation_peak(lambda: noisy_gate(gate, NoiseSpec("depolarizing_global", 0.2)))
    assert channel.rank == 256
    assert peak <= 1.1 * channel.kraus_ops.nbytes


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_noisy_gate_hands_its_stack_to_the_channel(monkeypatch, kind):
    import gatecert.noise as noise_module

    build = noise_module._noise_kraus
    built = []

    def recorded(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(noise_module, "_noise_kraus", recorded)
    gate = GateSpec.from_matrix(haar_unitary(np.random.default_rng(7), 8))
    channel = noisy_gate(gate, NoiseSpec(kind, 0.2, rank=5, seed=3))
    assert channel.kraus_ops is built[0]
    assert not channel.kraus_ops.flags.writeable


def test_noisy_gate_validates_only_the_returned_channel(monkeypatch):
    # sum u^dag N^dag N u = u^dag (sum N^dag N) u, so one completeness check on
    # the product also catches a noise stack that is not trace preserving
    import gatecert.channel as channel_module
    import gatecert.noise as noise_module

    build = noise_module._noise_kraus
    residual = channel_module._completeness_residual
    checks = []

    def counted(kraus):
        checks.append(kraus.shape)
        return residual(kraus)

    monkeypatch.setattr(channel_module, "_completeness_residual", counted)
    gate = GateSpec.from_matrix(haar_unitary(np.random.default_rng(6), 8))
    noisy_gate(gate, NoiseSpec("depolarizing_global", 0.2))
    assert checks == [(64, 8, 8)]

    monkeypatch.setattr(noise_module, "_noise_kraus", lambda *args, **kwargs: 1.01 * build(*args, **kwargs))
    with pytest.raises(ValueError, match="trace preserving"):
        noisy_gate(gate, NoiseSpec("depolarizing_global", 0.2))
    with pytest.raises(ValueError, match="trace preserving"):
        noise_channel(NoiseSpec("dephasing_per_qubit", 0.2), 3)
    with pytest.raises(ValueError, match="trace preserving"):
        random_cptp(3, rank=5, seed=1)


def test_random_cptp_is_the_qr_of_its_seeded_ginibre_draw_bit_for_bit():
    # the real parts are drawn first, then the imaginary parts, each into one complex array
    for seed in range(20):
        rng = np.random.default_rng(seed)
        ginibre = rng.standard_normal((7 * 32, 32)) + 1j * rng.standard_normal((7 * 32, 32))
        expected = np.linalg.qr(ginibre)[0].reshape(7, 32, 32)
        assert random_cptp(5, rank=7, seed=seed).kraus_ops.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", ["depolarizing_global", "dephasing_per_qubit", "bitflip_per_qubit"])
def test_a_pauli_family_on_a_real_gate_is_a_float64_stack_of_half_the_bytes(kind):
    gate = ghz_chain_gate(3)
    complex_gate = GateSpec(3, gate.u00.astype(complex))
    spec = NoiseSpec(kind, 0.13)
    real, complex_ = noisy_gate(gate, spec).kraus_ops, noisy_gate(complex_gate, spec).kraus_ops
    assert real.dtype == np.float64 and complex_.dtype == np.complex128
    assert 2 * real.nbytes == complex_.nbytes
    assert np.array_equal(real, complex_.real) and not np.any(complex_.imag)
    # the bare noise stack is real too
    assert _noise_kraus(kind, 3, 0.13).dtype == np.float64


def test_random_cptp_stays_complex_and_bit_identical_on_a_real_gate():
    assert random_cptp(3, 5, seed=2).kraus_ops.dtype == np.complex128
    gate = ghz_chain_gate(3)
    spec = NoiseSpec("random_cptp", rank=5, seed=2)
    real_right = noisy_gate(gate, spec).kraus_ops
    complex_right = noisy_gate(GateSpec(3, gate.u00.astype(complex)), spec).kraus_ops
    assert real_right.dtype == np.complex128
    assert real_right.tobytes() == complex_right.tobytes()
