"""A Pauli-family channel held as (gate, weights) against the same channel as a dense Kraus stack."""

import dataclasses
import importlib
import json

import numpy as np
import pytest

from gatecert import cli
from gatecert.certify import certify, classical_fidelity, ghz_chain_gate, ghz_summary
from gatecert.channel import Channel, PauliChannel, _transfer_entries, kraus_to_chi
from gatecert.core import ConsistencyError, GateSpec
from gatecert.noise import NoiseSpec, noisy_gate
from gatecert.sampler import ShotPlan, sample_transfer, sampled_report
from _oracles import allocation_peak, haar_unitary, skew_the_complementary_frame, swap_in_the_x_1_bit_frame

PAULI_KINDS = ("depolarizing_global", "dephasing_per_qubit", "bitflip_per_qubit")


def _twin(gate):
    """Another ``GateSpec`` of the same matrix with an empty table slot: certify against it builds every table."""
    return dataclasses.replace(gate)


def _targets(n_qubits):
    rng = np.random.default_rng(300 + n_qubits)
    gates = [GateSpec.identity(n_qubits), GateSpec.from_matrix(haar_unitary(rng, 2**n_qubits))]
    if n_qubits > 1:
        gates.append(ghz_chain_gate(n_qubits))
    return gates, GateSpec.from_matrix(haar_unitary(rng, 2**n_qubits))


# numpy's binomial switches branch at p = 1/2 and its mode floor((M + 1) p) is
# an integer there for odd M, so a last-bit difference between two routes at
# p = 1/2 can change a count.  In this case, (n, kind, gate index, p) against
# the other target, every probability is 1/2 to a few ulps and the two routes
# round it differently; no other case may draw different counts.
COUNTS_DIFFER = {(1, "depolarizing_global", 1, 1.0)}


def _numbers(channel, gate):
    """Every number of the exact report, the chi entries and the sweeps, and the sampled counts."""
    phase, bit = _transfer_entries(channel, gate)
    report = certify(channel, gate)
    probabilities = np.concatenate([classical_fidelity(channel, gate, basis)[0] for basis in ("z", "x")])
    values = [report.fz, report.fx, report.f_process_exact, *phase, *bit, *probabilities]
    if report.ghz_expectation is not None:
        values.append(report.ghz_expectation)
    return np.array(values), sampled_report(channel, gate, 97, 5).counts


@pytest.mark.parametrize("kind", PAULI_KINDS)
@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5])
def test_a_pauli_channel_agrees_with_its_kraus_stack(n_qubits, kind):
    # on its own target and on another one of the same size; the stack route
    # reads the same operators as a dense Channel
    gates, other = _targets(n_qubits)
    for index, gate in enumerate(gates):
        for p in (0.0, 0.05, 0.37, 1.0):
            pauli = noisy_gate(gate, NoiseSpec(kind, p))
            dense = Channel(n_qubits, pauli.kraus_ops)
            for target in (gate, other):
                (got, got_counts), (expected, expected_counts) = _numbers(pauli, target), _numbers(dense, target)
                assert np.max(np.abs(got - expected)) < 1e-14, (gate.name, p)
                if not (target is other and (n_qubits, kind, index, p) in COUNTS_DIFFER):
                    assert got_counts == expected_counts, (gate.name, p)


def test_the_three_party_correlation_reads_the_weights():
    gate = ghz_chain_gate(3)
    for kind in PAULI_KINDS:
        for p in (0.0, 0.05, 0.37, 1.0):
            pauli = noisy_gate(gate, NoiseSpec(kind, p))
            got = ghz_summary(pauli, gate, 0.5)
            expected = ghz_summary(Channel(3, pauli.kraus_ops), gate, 0.5)
            assert abs(got[0] - expected[0]) < 1e-14 and got[1] == expected[1]


def test_chi_of_a_pauli_channel_is_not_its_weight_vector():
    # the error basis puts the Pauli before the gate and the noise acts after
    # it, so chi_aa = sum_b w_b |Tr(P_a u^dag P_b u)|**2 / 4**n: a permutation
    # of w for the chain (a Clifford gate), dense for a Haar gate
    gate = ghz_chain_gate(3)
    channel = noisy_gate(gate, NoiseSpec("dephasing_per_qubit", 0.2))
    phase, _ = _transfer_entries(channel, gate)
    assert np.allclose(phase, [0.512, 0.032, 0.032, 0.032, 0.128, 0.128, 0.128, 0.008], atol=1e-15)
    weights_on_phase_masks = channel.weights.reshape(8, 8)[:, 0]
    assert np.allclose(weights_on_phase_masks, [0.512, 0.128, 0.128, 0.032, 0.128, 0.032, 0.032, 0.008], atol=1e-15)
    haar = GateSpec.from_matrix(haar_unitary(np.random.default_rng(3), 8))
    phase, _ = _transfer_entries(noisy_gate(haar, NoiseSpec("dephasing_per_qubit", 0.2)), haar)
    assert np.all(phase > 1e-6)


def test_certify_and_sample_never_build_the_kraus_stack(monkeypatch, tmp_path):
    channel_module = importlib.import_module("gatecert.channel")

    def refuse(*args):
        raise AssertionError("the Kraus stack was built")

    monkeypatch.setattr(channel_module, "_pauli_mixture", refuse)
    for n_qubits in (2, 3, 5):
        gate = ghz_chain_gate(n_qubits)
        for kind in PAULI_KINDS:
            channel = noisy_gate(gate, NoiseSpec(kind, 0.2))
            certify(channel, gate)
            sampled_report(channel, gate, 100, 1)
            with pytest.raises(AssertionError, match="was built"):
                channel.kraus_ops
    for command in (["certify"], ["sample", "--shots", "10"]):
        argv = [*command, "--gate", "ghz-chain", "--qubits", "4", "--noise", "bitflip_per_qubit:0.1"]
        assert cli.main([*argv, "--output", str(tmp_path / "report.json")]) == 0


def test_full_rank_certify_at_six_qubits_stays_far_below_its_stack():
    # the 4096 real 64 x 64 operators would hold 134 MB; depolarizing noise
    # gives F = 1 - p + p / 4**n and fz = fx = 1 - p + p / 2**n on any gate
    gate, p = ghz_chain_gate(6), 0.1
    stack_bytes = 4096 * 64 * 64 * 8
    report, peak = allocation_peak(lambda: certify(noisy_gate(gate, NoiseSpec("depolarizing_global", p)), gate))
    assert peak <= stack_bytes / 8, peak
    assert report.f_process_exact == pytest.approx(1 - p + p / 4096, abs=1e-13)
    assert report.fz == pytest.approx(1 - p + p / 64, abs=1e-13)
    assert report.fx == pytest.approx(1 - p + p / 64, abs=1e-13)


def test_the_stack_is_built_on_demand_with_the_rank_of_the_nonzero_weights():
    gate = ghz_chain_gate(3)
    for kind, p, rank in (("depolarizing_global", 0.2, 64), ("bitflip_per_qubit", 0.2, 8), ("dephasing_per_qubit", 1.0, 1)):
        channel = noisy_gate(gate, NoiseSpec(kind, p))
        assert isinstance(channel, PauliChannel) and channel.rank == rank
        assert "kraus_ops" not in vars(channel)
        assert channel.kraus_ops.shape == (rank, 8, 8) and channel.kraus_ops is channel.kraus_ops
        assert kraus_to_chi(channel, gate).coefficients.shape == (64, rank)


BAD_WEIGHTS = {
    "nan": lambda w: np.where(np.arange(w.size) == 3, np.nan, w),
    "negative": lambda w: w - np.where(np.arange(w.size) == 1, 2 * w[1], 0.0),
    "not-summing-to-one": lambda w: 1.01 * w,
    "infinite": lambda w: np.where(np.arange(w.size) == 2, np.inf, w),
    "wrong-length": lambda w: w[:-1],
    "complex": lambda w: w + 0j,
}


@pytest.mark.parametrize("damage", BAD_WEIGHTS.values(), ids=BAD_WEIGHTS)
def test_a_pauli_channel_checks_its_weights(damage):
    gate = ghz_chain_gate(2)
    weights = noisy_gate(gate, NoiseSpec("depolarizing_global", 0.3)).weights
    with pytest.raises(ValueError):
        PauliChannel(gate, damage(weights.copy()))


@pytest.mark.parametrize("kind", PAULI_KINDS)
@pytest.mark.parametrize("n_qubits", [3, 5])
def test_a_skewed_complementary_frame_fails_the_bit_row_identity_of_a_pauli_channel(monkeypatch, n_qubits, kind):
    # bit flips at n = 5 take the sweeps' shorter loop through the Walsh table;
    # the bit-only row never reads the frame, so it catches a broken one
    gate = ghz_chain_gate(n_qubits)
    channel = noisy_gate(gate, NoiseSpec(kind, 0.2))
    certify(channel, gate)
    skew_the_complementary_frame(monkeypatch)
    with pytest.raises(ConsistencyError, match="diagonal sums"):
        certify(channel, _twin(gate))


@pytest.mark.parametrize("kind", PAULI_KINDS)
def test_a_shared_weight_bug_fails_the_phase_identity(monkeypatch, kind):
    # the phase column, the bit row and the fx sweep take the weights through
    # core._loop_weights, the weight half of the shorter loop, and the fz
    # sweep does not, so weights scaled there move every entry but fz, and
    # only the fz identity sees it; the weight half runs on every request, so
    # a pass over kept tables sees it too
    gate = ghz_chain_gate(4)
    channel = noisy_gate(gate, NoiseSpec(kind, 0.2))
    certify(channel, gate)
    loop_weights = importlib.import_module("gatecert.core")._loop_weights

    def scaled(*args):
        return loop_weights(*args) * (1 - 1e-6)

    for module in ("gatecert.channel", "gatecert.certify"):
        monkeypatch.setattr(importlib.import_module(module), "_loop_weights", scaled)
    for target in (_twin(gate), gate):
        with pytest.raises(ConsistencyError, match=r"diagonal sums: \|fz - sum\| = [1-9]"):
            certify(channel, target)


@pytest.mark.parametrize("kind", PAULI_KINDS)
@pytest.mark.parametrize("n_qubits", [2, 5])
def test_a_corrupted_bit_frame_fails_the_two_route_chi_00_check_of_a_pauli_channel(monkeypatch, n_qubits, kind):
    gate = GateSpec.from_matrix(haar_unitary(np.random.default_rng(80 + n_qubits), 2**n_qubits))
    channel = noisy_gate(gate, NoiseSpec(kind, 0.2))
    expected = certify(channel, gate)
    swap_in_the_x_1_bit_frame(monkeypatch)
    with pytest.raises(ConsistencyError, match="routes to chi_00"):
        _transfer_entries(channel, gate)
    with pytest.raises(ConsistencyError, match="routes to chi_00"):
        certify(channel, _twin(gate))
    # the corruption went into a copy: the shared index serves the next call intact
    monkeypatch.undo()
    assert certify(channel, _twin(gate)) == expected


# The per-n XOR gather indices and the sides that read them: the fz sweep its
# own, the phase column and the fx sweep core._pauli_overlaps', the bit row
# channel._bit_frame_index, and the bit row of a small Kraus stack at n >= 5
# channel._xor_diagonal_index.  No identity that certify checks has one index
# on both of its sides.
GATHER_INDICES = {
    "fz sweep": ("gatecert.certify", "_bra_index"),
    "phase column and fx sweep": ("gatecert.core", "_xor_index"),
    "bit row": ("gatecert.channel", "_bit_frame_index"),
    "stack bit row": ("gatecert.channel", "_xor_diagonal_index"),
}

# The per-n tables that gather nothing: the Walsh sign table and the input frames.
OTHER_CACHED_TABLES = {("gatecert.core", "_walsh_signs"), ("gatecert.certify", "_input_frame")}


def _gather_index(name, n_qubits):
    module, attribute = GATHER_INDICES[name]
    build = getattr(importlib.import_module(module), attribute)
    if name == "bit row":
        return build(1 << n_qubits, 1)
    return build(1 << n_qubits) if name == "stack bit row" else build(n_qubits)


def _swap_columns(monkeypatch, names, n_qubits, a, b):
    """Hand every side in ``names`` a copy of its index with columns a and b swapped."""
    for name in names:
        table = _gather_index(name, n_qubits).copy()
        table[:, [a, b]] = table[:, [b, a]]
        module, attribute = GATHER_INDICES[name]
        monkeypatch.setattr(importlib.import_module(module), attribute, lambda *args, table=table: table)


def _column_swap_cases():
    """(gate, channel, swapped columns): at n=2..4 chain and Haar gates under full and half-row
    weight supports, and at n=5 a rank-7 ``random_cptp`` stack on a Haar gate, which takes the
    small-stack bit row."""
    for n_qubits in (2, 3, 4):
        rng = np.random.default_rng(40 + n_qubits)
        d = 1 << n_qubits
        gates = (ghz_chain_gate(n_qubits), GateSpec.from_matrix(haar_unitary(rng, d)))
        for gate in gates:
            full, half = rng.random((d, d)), rng.random((d, d))
            half[1::2] = 0.0
            for grid in (full, half):
                channel = PauliChannel(gate, (grid / grid.sum()).reshape(-1))
                for columns in ((0, 1), (1, d - 1)):
                    yield gate, channel, columns
    gate = GateSpec.from_matrix(haar_unitary(np.random.default_rng(45), 32))
    channel = noisy_gate(gate, NoiseSpec("random_cptp", rank=7, seed=45))
    for columns in ((0, 1), (1, 31)):
        yield gate, channel, columns


@pytest.mark.parametrize("n_qubits", [2, 3, 4])
def test_each_side_gathers_through_its_own_read_only_index(n_qubits):
    tables = [_gather_index(name, n_qubits) for name in GATHER_INDICES]
    rows = np.arange(1 << n_qubits)[:, np.newaxis]
    for i, table in enumerate(tables):
        # the stack bit row reads the flat entry (r ^ x, r) of a 2**n x 2**n matrix
        flat = (rows ^ rows.T) * len(rows) + rows if list(GATHER_INDICES)[i] == "stack bit row" else rows ^ rows.T
        assert np.array_equal(table, flat)
        assert not table.flags.writeable
        assert table is _gather_index(list(GATHER_INDICES)[i], n_qubits)
        for other in tables[i + 1 :]:
            assert table is not other and not np.shares_memory(table, other)


@pytest.mark.parametrize("name", list(GATHER_INDICES))
def test_two_swapped_columns_of_one_gather_index_fail_an_identity(monkeypatch, name):
    # where the weights tell the two columns apart the broken side disagrees
    # with its partner; elsewhere the swap moves no number.  A random full
    # grid on a Haar gate tells every pair of columns apart.  The stack bit
    # row is the one index a small Kraus stack reads, and its entries enter
    # certify through their sum and chi_00: a swap that spares column 0 moves
    # no number.  The corrupted pass runs against a twin of the gate, so it
    # builds its tables
    for gate, channel, (a, b) in _column_swap_cases():
        clean = certify(channel, gate)
        _swap_columns(monkeypatch, [name], gate.n_qubits, a, b)
        try:
            assert certify(channel, _twin(gate)) == clean, (gate.name, a, b)
            if name == "stack bit row":
                assert isinstance(channel, PauliChannel) or 0 not in (a, b)
            elif isinstance(channel, PauliChannel):
                assert gate.name == "ghz-chain" or channel.rank < len(channel.weights)
        except ConsistencyError:
            pass
        monkeypatch.undo()


def test_every_cached_gather_index_is_listed():
    # a new per-n index cannot skip the independence tests above
    cached = set()
    for module_name in ("gatecert.core", "gatecert.channel", "gatecert.certify"):
        for attribute, value in vars(importlib.import_module(module_name)).items():
            if hasattr(value, "cache_info") and value.__module__ == module_name:
                cached.add((module_name, attribute))
    assert cached - OTHER_CACHED_TABLES == set(GATHER_INDICES.values())
    assert OTHER_CACHED_TABLES <= cached


def test_one_index_shared_by_every_side_would_print_wrong_numbers(monkeypatch):
    # the same swap on all three indices is certifying other weights
    # consistently: no identity sees it, which is why the sides do not share one
    wrong = 0
    for gate, channel, (a, b) in _column_swap_cases():
        clean = certify(channel, gate)
        _swap_columns(monkeypatch, list(GATHER_INDICES), gate.n_qubits, a, b)
        try:
            wrong += certify(channel, _twin(gate)) != clean
        except ConsistencyError:
            pass
        monkeypatch.undo()
    assert wrong >= 1


def test_a_report_rejects_a_process_fidelity_outside_the_unit_interval():
    gate = ghz_chain_gate(2)
    report = sampled_report(noisy_gate(gate, NoiseSpec("depolarizing_global", 0.1)), gate, 100, 3)
    for value in (np.nan, 1.5, -0.2):
        with pytest.raises(ValueError, match="f_process_exact"):
            dataclasses.replace(report, f_process_exact=value)


@pytest.mark.parametrize("value", [100.0, -4.5, np.nan, np.inf])
def test_a_report_rejects_a_correlation_beyond_the_quantum_ceiling(value):
    gate, noise = ghz_chain_gate(3), NoiseSpec("depolarizing_global", 0.1)
    channel = noisy_gate(gate, noise)
    for report in (certify(channel, gate), sampled_report(channel, gate, 100, 3)):
        with pytest.raises(ValueError, match="ghz_expectation"):
            dataclasses.replace(report, ghz_expectation=value)
        doc = json.loads(json.dumps(cli.report_to_dict(report, gate, noise)))
        assert cli.report_from_dict(doc) == report
        with pytest.raises(ValueError, match="ghz_expectation"):
            cli.report_from_dict({**doc, "ghz_expectation": value})


def _refuse_every_index_and_frame(monkeypatch):
    """Make every per-n gather index and the input frames raise when read, so only kept tables can serve."""

    def refuse(*args):
        raise AssertionError("a table was built")

    for module, attribute in (*GATHER_INDICES.values(), ("gatecert.certify", "_input_frame")):
        monkeypatch.setattr(importlib.import_module(module), attribute, refuse)


def _document(report):
    return repr(dataclasses.asdict(report))


@pytest.mark.parametrize("kind", PAULI_KINDS)
@pytest.mark.parametrize("n_qubits", [3, 5])
def test_a_second_pass_over_the_same_support_reads_the_kept_tables(monkeypatch, n_qubits, kind):
    # p = 0.2 and 0.3 share their support; the report of the pass over kept
    # tables is byte-identical to one that builds them
    rng = np.random.default_rng(60 + n_qubits)
    for gate in (ghz_chain_gate(n_qubits), GateSpec.from_matrix(haar_unitary(rng, 2**n_qubits))):
        certify(noisy_gate(gate, NoiseSpec(kind, 0.2)), gate)
        channel = noisy_gate(gate, NoiseSpec(kind, 0.3))
        expected = [_document(certify(channel, _twin(gate))), _document(sampled_report(channel, _twin(gate), 97, 5))]
        _refuse_every_index_and_frame(monkeypatch)
        got = [_document(certify(channel, gate)), _document(sampled_report(channel, gate, 97, 5))]
        monkeypatch.undo()
        assert got == expected


def test_every_other_pass_builds_its_tables_and_keeps_none(monkeypatch):
    gate = ghz_chain_gate(3)
    certify(noisy_gate(gate, NoiseSpec("depolarizing_global", 0.2)), gate)
    kept = gate._pauli_tables
    same_support = noisy_gate(gate, NoiseSpec("depolarizing_global", 0.3))
    of_a_twin = noisy_gate(_twin(gate), NoiseSpec("depolarizing_global", 0.3))
    misses = {
        "a channel gate that is another object": (certify, of_a_twin, gate),
        "a Kraus stack": (certify, Channel(3, same_support.kraus_ops), gate),
        "classical_fidelity z": (lambda *args: classical_fidelity(*args, "z"), same_support, gate),
        "classical_fidelity x": (lambda *args: classical_fidelity(*args, "x"), same_support, gate),
        "sample_transfer": (lambda *args: sample_transfer(*args, ShotPlan(10, 1, "z")), same_support, gate),
        "_transfer_entries": (_transfer_entries, same_support, gate),
        "another support": (certify, noisy_gate(gate, NoiseSpec("depolarizing_global", 0.0)), gate),
    }
    _refuse_every_index_and_frame(monkeypatch)
    for name, (call, channel, target) in misses.items():
        with pytest.raises(AssertionError, match="a table was built"):
            call(channel, target)
        assert gate._pauli_tables is kept, name
    monkeypatch.undo()
    # run for real, only the checked pass over another support replaces them
    for name, (call, channel, target) in misses.items():
        call(channel, target)
        assert (gate._pauli_tables is kept) == (name != "another support"), name


def test_tables_that_fail_a_check_are_not_kept(monkeypatch):
    gate = ghz_chain_gate(3)
    channel = noisy_gate(gate, NoiseSpec("bitflip_per_qubit", 0.2))
    skew_the_complementary_frame(monkeypatch)
    with pytest.raises(ConsistencyError, match="diagonal sums"):
        certify(channel, gate)
    assert gate._pauli_tables is None
    monkeypatch.undo()
    certify(channel, gate)
    kept = gate._pauli_tables
    # a failed pass over another support leaves the kept tables in place
    skew_the_complementary_frame(monkeypatch)
    with pytest.raises(ConsistencyError, match="diagonal sums"):
        certify(noisy_gate(gate, NoiseSpec("depolarizing_global", 0.2)), gate)
    assert gate._pauli_tables is kept


def test_a_gate_that_alternates_between_two_supports_holds_one_slot():
    gate = ghz_chain_gate(4)
    for p in (0.2, 0.0, 0.3, 0.0, 0.2):
        channel = noisy_gate(gate, NoiseSpec("depolarizing_global", p))
        assert certify(channel, gate) == certify(channel, _twin(gate))
        (phase_bytes, amp_bytes), tables = gate._pauli_tables
        phase_masks, amp_masks, _ = channel.support
        assert phase_bytes == phase_masks.tobytes() and amp_bytes == amp_masks.tobytes()
        assert sorted(tables) == ["bit", "phase", "x", "z"]
        for table in tables.values():
            assert table.shape == (len(phase_masks) * len(amp_masks), 16) and not table.flags.writeable
    assert [name for name, value in vars(gate).items() if isinstance(value, tuple)] == ["_pauli_tables"]
