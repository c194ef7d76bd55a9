import numpy as np
import pytest

from gatecert.channel import (
    Channel,
    _completeness_residual,
    _error_coefficients,
    _transfer_entries,
    ChiMatrix,
    error_probabilities,
    kraus_to_chi,
    process_fidelity,
)
from gatecert.core import (
    ConsistencyError,
    GateSpec,
    build_error_basis,
)
from gatecert.certify import certify, ghz_chain_gate
from gatecert.noise import NoiseSpec, noisy_gate, random_cptp
from gatecert.sampler import sampled_report
from gatecert.tolerances import TOL
from _oracles import (
    allocation_peak,
    apply_channel,
    apply_via_chi,
    chi_entries,
    chi_via_superoperator,
    completeness_residual,
    dense_chi,
    dense_chi_diagonal,
    haar_unitary,
    random_density,
    superoperator,
    swap_in_the_x_1_bit_frame,
)

I2 = np.eye(2)
Z = np.diag([1.0, -1.0])
CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=float,
)


def unitary_channel(matrix):
    return Channel(int(np.log2(matrix.shape[0])), np.asarray(matrix, dtype=complex)[np.newaxis])


def test_channel_rejects_non_trace_preserving_sets():
    with pytest.raises(ValueError):
        Channel(1, np.stack([I2, I2]))  # sums to 2I
    with pytest.raises(ValueError):
        Channel(1, np.stack([0.5 * I2]))


def test_channel_rejects_a_stack_whose_probabilities_could_exceed_one():
    # sum K^dag K = (1 + 8e-10) I passed a 1e-9 completeness check, and every
    # transfer probability of the identity gate, 1 + 8e-10, then failed the
    # range check of the transfer table
    with pytest.raises(ValueError, match="not trace preserving"):
        Channel(1, np.sqrt(1.0 + 8e-10) * I2[np.newaxis])


def test_channel_rejects_nan_kraus_operators():
    with pytest.raises(ValueError, match="trace preserving"):
        Channel(1, np.array([[[np.nan, 0.0], [0.0, 1.0]]]))


def test_channel_rejects_wrong_shapes():
    with pytest.raises(ValueError):
        Channel(2, I2[np.newaxis])  # 2x2 operators on a 2-qubit channel
    with pytest.raises(ValueError):
        Channel(1, np.stack([I2] + [np.zeros((2, 2))] * 4))  # rank 5 > 4


def test_apply_identity_channel_is_a_no_op():
    # the reference propagation of the oracles, which the GHZ tests rely on
    rng = np.random.default_rng(3)
    rho = random_density(rng, 2)
    out = apply_channel(unitary_channel(np.eye(4)).kraus_ops, rho)
    assert np.allclose(out, rho, atol=1e-12)


def test_apply_unitary_channel_conjugates():
    rng = np.random.default_rng(4)
    rho = random_density(rng, 2)
    out = apply_channel(unitary_channel(CNOT).kraus_ops, rho)
    assert np.allclose(out, CNOT @ rho @ CNOT.T, atol=1e-12)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5])
def test_completeness_residual_matches_the_row_by_row_sum(n_qubits):
    # Ginibre stacks are far from trace preserving, so every entry of the sum counts.
    rng = np.random.default_rng(60 + n_qubits)
    d = 2**n_qubits
    for rank in sorted({1, 2, d, d * d}):
        kraus = (rng.standard_normal((rank, d, d)) + 1j * rng.standard_normal((rank, d, d))) / d
        expected = completeness_residual(kraus)
        assert _completeness_residual(kraus) == pytest.approx(expected, rel=1e-12)
        isometry = random_cptp(n_qubits, rank, seed=rank).kraus_ops
        assert _completeness_residual(isometry) == pytest.approx(completeness_residual(isometry), abs=1e-13)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
def test_completeness_residual_of_a_real_stack_is_its_plain_gram(n_qubits):
    # a real stack takes the plain Gram flat^T flat; it must agree with the
    # complex route on the same operators and with the row-by-row sum
    rng = np.random.default_rng(80 + n_qubits)
    d = 2**n_qubits
    for rank in sorted({1, 2, d, d * d}):
        kraus = rng.standard_normal((rank, d, d)) / d
        expected = completeness_residual(kraus)
        assert _completeness_residual(kraus) == pytest.approx(expected, rel=1e-12)
        assert _completeness_residual(kraus) == pytest.approx(_completeness_residual(kraus.astype(complex)), rel=1e-12)
    real = noisy_gate(ghz_chain_gate(n_qubits + 1), NoiseSpec("depolarizing_global", 0.3)).kraus_ops
    assert real.dtype == np.float64
    assert _completeness_residual(real) <= TOL.kraus_trace_preserving
    with pytest.raises(ValueError, match="not trace preserving"):
        Channel(n_qubits + 1, 1.001 * real)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
def test_apply_channel_matches_the_superoperator(n_qubits):
    rng = np.random.default_rng(70 + n_qubits)
    d = 2**n_qubits
    for rank in sorted({1, 3, d * d}):
        ch = random_cptp(n_qubits, rank, seed=int(rng.integers(1 << 30)))
        rho = random_density(rng, n_qubits)
        expected = (superoperator(ch.kraus_ops) @ rho.reshape(-1)).reshape(d, d)
        out = apply_channel(ch.kraus_ops, rho)
        assert np.max(np.abs(out - expected)) < 1e-13


def test_chi_of_the_perfect_gate_is_a_point_mass():
    gate = GateSpec.from_matrix(CNOT, name="cnot")
    chi = kraus_to_chi(unitary_channel(CNOT), gate)
    expected = np.zeros((16, 16))
    expected[0, 0] = 1.0
    assert np.allclose(chi_entries(chi), expected, atol=1e-12)
    assert process_fidelity(chi) == pytest.approx(1.0, abs=1e-12)


def test_chi_of_a_deterministic_basis_error():
    gate = GateSpec.from_matrix(CNOT, name="cnot")
    basis = build_error_basis(gate)
    for flat in (3, 7, 12):
        chi = kraus_to_chi(Channel(2, basis.operators[flat][np.newaxis]), gate, basis)
        assert chi_entries(chi)[flat, flat] == pytest.approx(1.0, abs=1e-12)
        assert np.trace(chi_entries(chi)).real == pytest.approx(1.0, abs=1e-12)


def test_process_fidelity_of_an_orthogonal_unitary_is_zero():
    gate = GateSpec.from_matrix(CNOT, name="cnot")
    chi = kraus_to_chi(unitary_channel(np.kron(I2, Z) @ CNOT), gate)
    assert process_fidelity(chi) == pytest.approx(0.0, abs=1e-12)


def test_chi_diagonal_for_depolarized_cnot():
    # global depolarizing at p spreads p/16 onto every error class, leaving
    # 1 - 15 p / 16 on the identity
    p = 0.2
    gate = GateSpec.from_matrix(CNOT, name="cnot")
    chi = kraus_to_chi(noisy_gate(gate, NoiseSpec("depolarizing_global", p)), gate)
    diag = np.diagonal(chi_entries(chi)).real
    assert diag[0] == pytest.approx(1 - 15 * p / 16, abs=1e-12)
    assert np.allclose(diag[1:], p / 16, atol=1e-12)


def test_chi_matches_superoperator_least_squares():
    # independent route: solve for chi from the channel superoperator
    gate = GateSpec.from_matrix(CNOT, name="cnot")
    basis = build_error_basis(gate)
    for seed in range(5):
        ch = random_cptp(2, rank=4, seed=seed)
        chi = kraus_to_chi(ch, gate, basis)
        reference = chi_via_superoperator(ch.kraus_ops, basis.operators)
        assert np.max(np.abs(chi_entries(chi) - reference)) < 1e-9


@pytest.mark.parametrize("n_qubits,n_channels", [(1, 80), (2, 80), (3, 40)])
def test_chi_expansion_reproduces_the_channel_action(n_qubits, n_channels):
    # sum_ab chi_ab U_a rho U_b^dag must agree with the Kraus action
    rng = np.random.default_rng(90 + n_qubits)
    gate = GateSpec.identity(n_qubits)
    basis = build_error_basis(gate)
    for _ in range(n_channels):
        rank = int(rng.integers(1, 4**n_qubits + 1))
        ch = random_cptp(n_qubits, rank, int(rng.integers(0, 2**32)))
        chi = kraus_to_chi(ch, gate, basis)
        for _ in range(20):
            rho = random_density(rng, n_qubits)
            direct = np.einsum("mij,jk,mlk->il", ch.kraus_ops, rho, ch.kraus_ops.conj())
            via_chi = apply_via_chi(chi_entries(chi), basis.operators, rho)
            assert np.max(np.abs(direct - via_chi)) < 1e-8


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5, 6])
def test_structured_chi_matches_the_dense_basis_oracle(n_qubits):
    # the full matrix, off-diagonal phases included, and the certify-path
    # phase-only column and bit-only row against c = Tr(U_a^dag K) / 2**n over
    # an explicit basis; this is the test-time guard on the transform, which
    # no run re-inverts.  At n = 5 and 6 one low-rank and one per-qubit
    # channel keep the oracle cheap, and at n = 6 only the diagonal is
    # compared, through an oracle that holds 2**6 basis operators at a time
    # instead of all 4**6
    rng = np.random.default_rng(300 + n_qubits)
    if n_qubits <= 4:
        specs = [NoiseSpec("random_cptp", rank=r, seed=s) for r, s in ((1, 5), (3, 6), (8, 7)) if r <= 4**n_qubits]
        specs += [NoiseSpec(kind, 0.13) for kind in ("depolarizing_global", "dephasing_per_qubit", "bitflip_per_qubit")]
    else:
        specs = [NoiseSpec("random_cptp", rank=3, seed=6), NoiseSpec("dephasing_per_qubit", 0.13)]
    for _ in range(2 if n_qubits <= 4 else 1):
        gate = GateSpec.from_matrix(haar_unitary(rng, 2**n_qubits))
        for spec in specs:
            ch = noisy_gate(gate, spec)
            if n_qubits == 6:
                diagonal = dense_chi_diagonal(ch.kraus_ops, gate.u00)
            else:
                reference = dense_chi(ch.kraus_ops, gate.u00)
                assert np.max(np.abs(chi_entries(kraus_to_chi(ch, gate)) - reference)) < 1e-12
                diagonal = np.diagonal(reference).real
            phase, bit = _transfer_entries(ch, gate)
            d = 2**n_qubits
            assert np.max(np.abs(phase - diagonal[::d])) < 1e-12
            assert np.max(np.abs(bit - diagonal[:d])) < 1e-12


def test_broken_transform_fails_the_unit_trace_check(monkeypatch):
    # by Parseval the error probabilities sum to Tr(sum K^dag K) / 2**n = 1
    # only for a correct transform; one zeroed sign breaks that sum.  The
    # certify path reads no full diagonal: there the phase-only column the
    # same sign feeds no longer sums to fz
    import gatecert.channel as channel_module
    from gatecert.certify import certify

    signs = channel_module._walsh_signs

    def skewed_signs(n_qubits):
        table = signs(n_qubits).copy()
        table[1, 0] = 0.0
        return table

    monkeypatch.setattr(channel_module, "_walsh_signs", skewed_signs)
    channel, gate = random_cptp(2, rank=3, seed=1), GateSpec.identity(2)
    # a validated channel can fail only through a bug: ConsistencyError, not the ValueError of bad input
    with pytest.raises(ConsistencyError, match="unit trace"):
        kraus_to_chi(channel, gate)
    with pytest.raises(ConsistencyError, match="diagonal sums"):
        certify(channel, gate)


def test_nan_coefficients_fail_the_error_distribution_check(monkeypatch):
    import gatecert.channel as channel_module

    signs = channel_module._walsh_signs

    def poisoned_signs(n_qubits):
        table = signs(n_qubits).copy()
        table[1, 0] = np.nan
        return table

    monkeypatch.setattr(channel_module, "_walsh_signs", poisoned_signs)
    channel, gate = random_cptp(2, rank=3, seed=1), GateSpec.identity(2)
    assert np.isnan(_error_coefficients(channel, gate)).any()
    with pytest.raises(ConsistencyError, match=r"\[0, 1\]"):
        _transfer_entries(channel, gate)
    # a NaN coefficient makes the trace ||C||_F^2 NaN
    with pytest.raises(ConsistencyError, match="unit trace"):
        kraus_to_chi(channel, gate)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5])
@pytest.mark.parametrize(
    "spec",
    [
        NoiseSpec("depolarizing_global", 0.13),
        NoiseSpec("dephasing_per_qubit", 0.13),
        NoiseSpec("bitflip_per_qubit", 0.13),
        NoiseSpec("random_cptp", rank=3, seed=9),
    ],
    ids=lambda spec: spec.kind,
)
def test_chi_00_is_entry_0_of_the_chi_diagonal(n_qubits, spec):
    # the process fidelity a sampled report carries, against the bit row and the full transform
    rng = np.random.default_rng(700 + n_qubits)
    gate = GateSpec.from_matrix(haar_unitary(rng, 2**n_qubits))
    channel = noisy_gate(gate, spec)
    chi_00 = sampled_report(channel, gate, shots_per_input=1, seed=0).f_process_exact
    _, bit = _transfer_entries(channel, gate)
    assert abs(chi_00 - bit[0]) <= 1e-14
    assert abs(chi_00 - process_fidelity(kraus_to_chi(channel, gate))) <= 1e-14


@pytest.mark.parametrize("rank", [1, 15, 16, 17])
def test_both_bit_row_orders_match_the_dense_oracle(rank):
    # at n = 5 a stack of fewer than 16 operators forms u00^dag K_m, a few
    # operators at a time; from 16 on, the XOR-gathered frames multiply it
    gate = GateSpec.from_matrix(haar_unitary(np.random.default_rng(90 + rank), 32))
    channel = random_cptp(5, rank, seed=rank)
    diagonal = dense_chi_diagonal(channel.kraus_ops, gate.u00)
    phase, bit = _transfer_entries(channel, gate)
    assert np.max(np.abs(phase - diagonal[::32])) < 1e-12
    assert np.max(np.abs(bit - diagonal[:32])) < 1e-12


@pytest.mark.parametrize("n_qubits", [2, 5])
def test_a_corrupted_bit_frame_fails_the_two_route_chi_00_check(monkeypatch, n_qubits):
    # n = 5 walks the stack rows in eight frame chunks, n = 2 in one
    gate = GateSpec.from_matrix(haar_unitary(np.random.default_rng(80 + n_qubits), 2**n_qubits))
    channel = Channel(n_qubits, noisy_gate(gate, NoiseSpec("depolarizing_global", 0.2)).kraus_ops)
    expected = certify(channel, gate)
    swap_in_the_x_1_bit_frame(monkeypatch)
    with pytest.raises(ConsistencyError, match="routes to chi_00"):
        _transfer_entries(channel, gate)
    # the corruption went into a copy: the shared index serves the next call intact
    monkeypatch.undo()
    assert certify(channel, gate) == expected


def test_transfer_entries_stay_at_a_few_coefficient_arrays():
    # n = 5 full rank: the 16 MB stack is read in place; the phase diagonals,
    # their Walsh coefficients and the bit coefficients are m x 2**n arrays of
    # 512 KiB, one of which is reused, and each frame chunk is 64 KiB
    gate = GateSpec.from_matrix(haar_unitary(np.random.default_rng(76), 32))
    channel = Channel(5, noisy_gate(gate, NoiseSpec("depolarizing_global", 0.2)).kraus_ops)
    coefficient_bytes = channel.rank * 32 * 16
    _, peak = allocation_peak(lambda: _transfer_entries(channel, gate))
    assert peak <= 3 * coefficient_bytes, peak / coefficient_bytes
    assert channel.kraus_ops.nbytes == 32 * coefficient_bytes


@pytest.mark.parametrize("scale", [1.01, np.nan])
def test_chi_00_outside_the_unit_interval_is_a_consistency_error(scale):
    # only a broken invariant can push the Cauchy-Schwarz-bounded value out of
    # [0, 1]; a sampled report must catch it, NaN included, before any draw
    gate = GateSpec.identity(2)
    channel = Channel(2, gate.u00[np.newaxis])
    object.__setattr__(channel, "kraus_ops", scale * channel.kraus_ops)
    with pytest.raises(ConsistencyError, match=r"\[0, 1\]"):
        sampled_report(channel, gate, shots_per_input=10, seed=0)


def test_chi_00_checks_the_qubit_counts():
    with pytest.raises(ValueError, match="qubit"):
        sampled_report(random_cptp(2, rank=2, seed=1), GateSpec.identity(3), shots_per_input=10, seed=0)


def test_error_distribution_check_rejects_nan():
    # the trace ||C||_F^2 sums every squared coefficient, so one NaN
    # coefficient makes it NaN, and a NaN fails the unit-trace check
    coefficients = np.array([[1.0], [np.nan], [0.0], [0.0]], dtype=complex)
    with pytest.raises(ValueError, match="unit trace"):
        ChiMatrix(GateSpec.identity(1), coefficients)


def test_chi_is_invariant_under_kraus_reordering():
    gate = GateSpec.from_matrix(CNOT, name="cnot")
    ch = random_cptp(2, rank=6, seed=11)
    shuffled = Channel(2, ch.kraus_ops[::-1].copy())
    chi_a = kraus_to_chi(ch, gate)
    chi_b = kraus_to_chi(shuffled, gate)
    assert np.max(np.abs(chi_entries(chi_a) - chi_entries(chi_b))) < 1e-12


def test_chi_trace_is_one_for_random_channels():
    gate = GateSpec.identity(2)
    basis = build_error_basis(gate)
    for seed in range(20):
        chi = kraus_to_chi(random_cptp(2, rank=3, seed=seed), gate, basis)
        assert abs(np.trace(chi_entries(chi)) - 1.0) < 1e-10


def test_chi_matrix_rejects_bad_entries():
    gate = GateSpec.identity(1)
    with pytest.raises(ValueError, match="unit trace"):
        ChiMatrix(gate, np.sqrt(2.0) * np.eye(4, 1))
    # read as C, the non-positive chi with chi_00 = 1 and chi_01 = chi_10 = 0.5
    # has ||C||_F^2 = 1.5; as chi it would have the eigenvalue -0.207
    not_positive = np.zeros((4, 4), dtype=complex)
    not_positive[0, 0] = 1.0
    not_positive[0, 1] = not_positive[1, 0] = 0.5
    with pytest.raises(ValueError, match="unit trace"):
        ChiMatrix(gate, not_positive)
    for value in (np.nan, np.inf):
        bad_entry = np.eye(4, 2, dtype=complex) / np.sqrt(2.0)
        bad_entry[2, 1] = value
        with pytest.raises(ValueError, match="unit trace"):
            ChiMatrix(gate, bad_entry)
    for shape in ((3, 1), (4, 0), (4,), (4, 1, 1)):
        with pytest.raises(ValueError, match="coefficient matrix"):
            ChiMatrix(gate, np.ones(shape) / 2.0)


def test_chi_matrix_takes_its_coefficients_over_and_forms_no_chi():
    gate = GateSpec.identity(4)
    coefficients = kraus_to_chi(random_cptp(4, rank=3, seed=2), gate).coefficients
    chi, peak = allocation_peak(lambda: ChiMatrix(gate, coefficients))
    assert chi.coefficients is coefficients
    # the 12 KiB C is neither copied nor multiplied out into the 1 MiB chi
    assert peak < coefficients.nbytes
    assert not hasattr(chi, "entries")


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
def test_every_chi_matrix_is_hermitian_and_positive_semidefinite(n_qubits):
    # any C of unit Frobenius norm is a process matrix, so no check can miss
    # a non-positive chi
    rng = np.random.default_rng(60 + n_qubits)
    gate = GateSpec.identity(n_qubits)
    for rank in (1, 3, 17):
        coefficients = rng.normal(size=(4**n_qubits, rank)) + 1j * rng.normal(size=(4**n_qubits, rank))
        entries = chi_entries(ChiMatrix(gate, coefficients / np.linalg.norm(coefficients)))
        assert np.max(np.abs(entries - entries.conj().T)) <= 1e-15
        assert np.min(np.linalg.eigvalsh(entries)) >= -1e-12


def test_process_fidelity_and_error_probabilities_form_no_chi():
    # n = 4, rank 3: C holds 4**4 x 3 entries, chi 4**4 x 4**4
    gate = GateSpec.from_matrix(haar_unitary(np.random.default_rng(77), 16))
    channel = random_cptp(4, rank=3, seed=2)

    def decompose():
        chi = kraus_to_chi(channel, gate)
        return process_fidelity(chi), error_probabilities(chi)

    (fidelity, probabilities), peak = allocation_peak(decompose)
    chi_bytes = 16**4 * 16
    assert peak < 0.25 * chi_bytes, peak / chi_bytes
    diagonal = dense_chi_diagonal(channel.kraus_ops, gate.u00)
    assert abs(fidelity - diagonal[0]) < 1e-12
    assert np.max(np.abs(np.array(list(probabilities.values())) - diagonal)) < 1e-12


def _owned_values():
    """A valid 2-qubit Kraus stack, its chi coefficients and a gate, as (build, values) pairs for each value type."""
    gate = GateSpec.identity(2)
    channel = random_cptp(2, rank=3, seed=4)
    return [
        (lambda values: Channel(2, values).kraus_ops, channel.kraus_ops),
        (lambda values: ChiMatrix(gate, values).coefficients, kraus_to_chi(channel, gate).coefficients),
        (lambda values: GateSpec(2, values).u00, haar_unitary(np.random.default_rng(4), 4)),
    ]


OWNED_IDS = ["Channel", "ChiMatrix", "GateSpec"]


@pytest.mark.parametrize("build, values", _owned_values(), ids=OWNED_IDS)
def test_a_frozen_owning_array_is_taken_over(build, values):
    frozen = np.array(values)
    frozen.setflags(write=False)
    assert np.shares_memory(build(frozen), frozen)
    # so is a read-only view down to a read-only owner, but not an array
    # that is not C-contiguous
    assert np.shares_memory(build(frozen[...]), frozen)
    fortran = np.asfortranarray(values)
    fortran.setflags(write=False)
    held = build(fortran)
    assert not np.shares_memory(held, fortran)
    assert np.array_equal(held, values) and not held.flags.writeable


@pytest.mark.parametrize("build, values", _owned_values(), ids=OWNED_IDS)
def test_fortran_ordered_input_is_held_in_c_order(build, values):
    # so a later value type takes the array over instead of copying it again
    for writeable in (True, False):
        fortran = np.asfortranarray(values)
        fortran.setflags(write=writeable)
        held = build(fortran)
        assert held.flags.c_contiguous and not held.flags.writeable
        assert np.array_equal(held, values)
        assert build(held) is held


@pytest.mark.parametrize("build, values", _owned_values(), ids=OWNED_IDS)
def test_a_read_only_view_of_a_writable_array_is_copied(build, values):
    base = np.array(values)
    view = base[...]
    view.setflags(write=False)
    held = build(view)
    base *= 2.0
    assert not np.shares_memory(held, base)
    assert np.array_equal(held, values) and not held.flags.writeable


def test_error_probabilities_for_a_phase_error_on_qubit_zero():
    # Z on the control after a CNOT is exactly the (phase_mask=2, amp_mask=0)
    # error class: qubit 0 owns the most significant mask bit
    gate = GateSpec.from_matrix(CNOT, name="cnot")
    ch = unitary_channel(np.kron(Z, I2) @ CNOT)
    probs = error_probabilities(kraus_to_chi(ch, gate))
    assert probs[(2, 0)] == pytest.approx(1.0, abs=1e-12)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
    others = [v for k, v in probs.items() if k != (2, 0)]
    assert np.allclose(others, 0.0, atol=1e-12)


def test_error_probabilities_keys_cover_all_masks():
    gate = GateSpec.identity(2)
    chi = kraus_to_chi(random_cptp(2, 4, seed=2), gate)
    probs = error_probabilities(chi)
    assert len(probs) == 16
    # key (z, x) holds diagonal entry (z << n) + x, and sorted keys run in that order
    assert sorted(probs) == [(z, x) for z in range(4) for x in range(4)]
    # bit for bit what the code computes: the squared row norms of C
    coeffs = chi.coefficients
    assert list(probs.values()) == np.vecdot(coeffs, coeffs).real.tolist()
    # the diagonal of chi comes from another product (BLAS C C^dag), which
    # may sum in another order, so it agrees up to a few ulps
    diagonal = [chi_entries(chi)[(z << 2) + x, (z << 2) + x].real for z, x in probs]
    np.testing.assert_array_max_ulp(np.array(list(probs.values())), np.array(diagonal), maxulp=4)


def test_kraus_to_chi_rejects_mismatched_basis():
    gate = GateSpec.from_matrix(CNOT, name="cnot")
    basis = build_error_basis(GateSpec.identity(2))
    with pytest.raises(ValueError):
        kraus_to_chi(unitary_channel(CNOT), gate, basis)

