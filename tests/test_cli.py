import ast
import importlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import gatecert
from gatecert import cli
from gatecert.certify import certify, ghz_chain_gate
from gatecert.channel import Channel, kraus_to_chi
from gatecert.cli import (
    CHI_SERIALIZATION_FLOOR,
    _chi_json,
    _write_document,
    build_parser,
    chi_to_pairs,
    main,
    matrix_to_pairs,
    pairs_to_matrix,
    report_from_dict,
    report_to_dict,
)
from gatecert.core import GateSpec, build_error_basis
from gatecert.noise import NoiseSpec, noisy_gate, random_cptp
from gatecert.sampler import sampled_report
from _oracles import allocation_peak, haar_unitary, skew_the_complementary_frame, swap_in_the_x_1_bit_frame

# below the floor, at the floor, and signed zeros in both parts
DUSTY = np.array([[complex(3e-15, -2e-15), complex(-0.0, 0.5)], [complex(1e-14, 0.0), complex(-0.25, -0.0)]])
# coefficients whose chi = C C^dag keeps an entry at the floor, 1e-14 * 1.0, and has dust below it
DUSTY_COEFFICIENTS = np.array([[1.0, 0.0], [1e-14, 0.0], [3e-15j, 0.0], [-0.5, 0.0], [complex(-0.0, 0.25), 0.0]])
# zero rows 1 and 2 give zero chi rows; rows 3 and 4 keep entries in the first and last columns
EDGES_COEFFICIENTS = np.array([[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.1, 0.2j], [0.0, complex(0.3, -0.1)]])


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--output", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


# both report modes run the same exact pass and its internal checks
REPORT_COMMANDS = (["certify"], ["sample", "--shots", "100"])


def test_certify_perfect_chain(tmp_path):
    code, doc = run(tmp_path, "certify", "--gate", "ghz-chain", "--qubits", "3")
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["gate"] == {"name": "ghz-chain", "qubits": 3}
    assert doc["noise"] is None
    assert doc["fz"] == pytest.approx(1.0, abs=1e-12)
    assert doc["fx"] == pytest.approx(1.0, abs=1e-12)
    assert doc["capability_certified"] is True
    assert doc["violation_certified"] is True
    assert doc["provenance"]["fz"] == "exact"
    assert doc["provenance"]["f_process_exact"] == "simulator ground truth"


def test_certify_with_noise_flag(tmp_path):
    code, doc = run(
        tmp_path, "certify", "--gate", "ghz-chain", "--qubits", "3",
        "--noise", "depolarizing_global:0.2",
    )
    assert code == 0
    assert doc["noise"] == {"kind": "depolarizing_global", "p": 0.2}
    assert doc["fz"] == pytest.approx(0.825, abs=1e-9)
    assert doc["fx"] == pytest.approx(0.825, abs=1e-9)
    assert doc["f_process_exact"] == pytest.approx(1 - 63 * 0.2 / 64, abs=1e-9)
    assert doc["capability_certified"] is True
    assert doc["violation_certified"] is False


def test_certify_explicit_matrix_config(tmp_path):
    cnot = ghz_chain_gate(2).u00
    config = {"gate": {"matrix": matrix_to_pairs(cnot), "name": "my-cnot"}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, doc = run(tmp_path, "certify", "--config", str(path))
    assert code == 0
    assert doc["gate"] == {"name": "my-cnot", "qubits": 2}
    assert doc["fz"] == pytest.approx(1.0, abs=1e-12)
    assert doc["ghz_expectation"] is None


def test_certify_rejects_non_unitary_matrix(tmp_path, capsys):
    config = {"gate": {"matrix": matrix_to_pairs(np.ones((2, 2)))}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, doc = run(tmp_path, "certify", "--config", str(path))
    assert code == 1
    assert doc is None
    assert "unitary" in capsys.readouterr().err


def test_nearly_unitary_matrix_fails_at_the_gate_not_at_the_probabilities(tmp_path, capsys):
    # residual 0.9e-10 passed a 1e-10 unitarity check, and the z-sweep
    # probability (u^dag u)_00**2 = 1 + 1.8e-10 then failed the range check
    # of the transfer probabilities with a message that named no cause
    matrix = [[[float(np.sqrt(1.0 + 0.9e-10)), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"gate": {"matrix": matrix}}))
    code, doc = run(tmp_path, "certify", "--config", str(path))
    assert code == 1
    assert doc is None
    err = capsys.readouterr().err
    assert "not unitary" in err
    assert "probabilities" not in err


def test_certify_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    code, _ = run(tmp_path, "certify", "--config", str(path))
    assert code == 1
    assert capsys.readouterr().err


def test_certify_rejects_unknown_gate(tmp_path, capsys):
    code, _ = run(tmp_path, "certify", "--gate", "toffoli", "--qubits", "3")
    assert code == 1
    assert "toffoli" in capsys.readouterr().err


def test_certify_requires_shots_in_sampled_mode(tmp_path, capsys):
    code, _ = run(
        tmp_path, "certify", "--gate", "ghz-chain", "--qubits", "3", "--mode", "sampled"
    )
    assert code == 1
    assert "shots" in capsys.readouterr().err


def test_random_cptp_needs_a_config(tmp_path, capsys):
    code, _ = run(
        tmp_path, "certify", "--gate", "ghz-chain", "--qubits", "2",
        "--noise", "random_cptp:0.1",
    )
    assert code == 1
    assert "config" in capsys.readouterr().err


def test_random_cptp_through_config(tmp_path):
    config = {
        "gate": {"builtin": "ghz-chain", "qubits": 2},
        "noise": {"kind": "random_cptp", "rank": 4, "seed": 7},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, doc = run(tmp_path, "certify", "--config", str(path))
    assert code == 0
    assert doc["noise"] == {"kind": "random_cptp", "rank": 4, "seed": 7}
    assert doc["lower_bound"] <= doc["f_process_exact"] <= doc["upper_bound"] + 1e-9


def test_basis_check_passes_for_small_gates(capsys):
    code = main(["basis-check", "--gate", "ghz-chain", "--qubits", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "operators: 64" in out
    assert "PASS" in out


@pytest.mark.parametrize("n_qubits", [2, 3, 4, 5])
def test_basis_check_prints_the_dense_gram_lines(capsys, n_qubits):
    # the three lines the dense basis and its Gram matrix gave, byte for byte
    basis = build_error_basis(ghz_chain_gate(n_qubits))
    expected = f"operators: {len(basis)}\nmax orthogonality residual: {basis.gram_residual():.6e}\nPASS\n"
    assert main(["basis-check", "--gate", "ghz-chain", "--qubits", str(n_qubits)]) == 0
    assert capsys.readouterr().out == expected
    assert expected.splitlines()[1] == "max orthogonality residual: 0.000000e+00"


def test_basis_check_passes_a_gate_that_passes_the_unitarity_check(tmp_path, capsys):
    # u^dag u = diag(1 + 3e-11 (-1)**s_0): every row residual is 3e-11, within
    # TOL.unitarity, and Tr(Z_0 E) = 8 * 3e-11 = 2.4e-10 lies within the
    # 2**3 TOL.unitarity that any gate GateSpec accepts can reach
    sign = 1.0 - 2.0 * (np.arange(8) >> 2)
    matrix = np.diag(np.sqrt(1.0 + 3e-11 * sign))
    gate = GateSpec.from_matrix(matrix)
    assert build_error_basis(gate).gram_residual() == pytest.approx(2.4e-10, rel=1e-6)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"gate": {"matrix": matrix_to_pairs(matrix)}}))
    assert main(["basis-check", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "operators: 64"
    assert float(lines[1].rpartition(": ")[2]) == pytest.approx(2.4e-10, rel=1e-6)
    assert lines[2] == "PASS"


def test_basis_check_refuses_a_gate_that_fails_the_unitarity_check(tmp_path, capsys):
    # row residuals of 5e-11 exceed TOL.unitarity, so no residual is printed
    sign = 1.0 - 2.0 * (np.arange(8) >> 2)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"gate": {"matrix": matrix_to_pairs(np.diag(np.sqrt(1.0 + 5e-11 * sign)))}}))
    assert main(["basis-check", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not unitary" in captured.err


def test_a_broken_transform_exits_with_the_consistency_code(monkeypatch, tmp_path, capsys):
    import gatecert.channel as channel_module

    signs = channel_module._walsh_signs

    def skewed_signs(n_qubits):
        table = signs(n_qubits).copy()
        table[1, 0] = 0.0
        return table

    monkeypatch.setattr(channel_module, "_walsh_signs", skewed_signs)
    for command in REPORT_COMMANDS:
        code, doc = run(tmp_path, *command, "--gate", "ghz-chain", "--qubits", "2", "--noise", "depolarizing_global:0.1")
        assert code == 2, command
        assert doc is None
        assert "internal consistency failure" in capsys.readouterr().err


@pytest.mark.parametrize("rank", [31, 32])
def test_a_skewed_complementary_frame_exits_with_the_consistency_code(monkeypatch, tmp_path, capsys, rank):
    # the last rank of the per-operator fx route at n=3 and the first of the frame route
    skew_the_complementary_frame(monkeypatch)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "gate": {"builtin": "ghz-chain", "qubits": 3},
        "noise": {"kind": "random_cptp", "rank": rank, "seed": rank},
    }))
    for command in REPORT_COMMANDS:
        code, doc = run(tmp_path, *command, "--config", str(config))
        assert code == 2, command
        assert doc is None
        assert "diagonal sums" in capsys.readouterr().err


def test_a_corrupted_bit_frame_exits_with_the_consistency_code(monkeypatch, tmp_path, capsys):
    swap_in_the_x_1_bit_frame(monkeypatch)
    for command in REPORT_COMMANDS:
        code, doc = run(tmp_path, *command, "--gate", "ghz-chain", "--qubits", "3", "--noise", "depolarizing_global:0.1")
        assert code == 2, command
        assert doc is None
        assert "routes to chi_00" in capsys.readouterr().err


def test_basis_check_over_capacity(capsys):
    code = main(["basis-check", "--gate", "ghz-chain", "--qubits", "9"])
    assert code == 1
    assert "maximum" in capsys.readouterr().err


@pytest.mark.parametrize(
    "source", [["--gate", "ghz-chain", "--qubits", "100000"], 1e300, 10**400 - 1], ids=["flag", "1e300", "400-digits"]
)
def test_a_huge_qubit_count_is_refused_by_the_capacity_message(tmp_path, monkeypatch, capsys, source):
    # the message names the size as 16**n, so no huge integer is built or printed
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"gate": {"builtin": "ghz-chain", "qubits": source}}))
    argv = source if isinstance(source, list) else ["--config", str(path)]
    assert main(["certify", *argv, "--output", "report.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "exceeds the supported maximum of 6" in err
    assert list(tmp_path.iterdir()) == [path]


def test_certify_over_capacity_fails_fast(capsys):
    # must exit promptly with code 1, not grind through a 512-state sweep
    start = time.monotonic()
    code = main(["certify", "--gate", "ghz-chain", "--qubits", "9"])
    elapsed = time.monotonic() - start
    assert code == 1
    assert "maximum" in capsys.readouterr().err
    assert elapsed < 5.0

    code = main(
        ["certify", "--gate", "ghz-chain", "--qubits", "9", "--noise", "depolarizing_global:0.1"]
    )
    assert code == 1
    assert "maximum" in capsys.readouterr().err


def test_config_matrix_over_capacity_is_rejected_before_the_unitarity_check(tmp_path, capsys):
    matrix = [[[1.0, 0.0]] * 128 for _ in range(128)]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"gate": {"matrix": matrix}}))
    code, doc = run(tmp_path, "certify", "--config", str(path))
    assert code == 1
    assert doc is None
    assert "maximum" in capsys.readouterr().err


def test_nan_gate_matrix_is_rejected_as_non_unitary(tmp_path, capsys):
    matrix = [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"gate": {"matrix": matrix}}))
    code, doc = run(tmp_path, "certify", "--config", str(path))
    assert code == 1
    assert doc is None
    err = capsys.readouterr().err
    assert "not unitary" in err
    assert "basis" not in err


def test_nan_transfer_fidelities_exit_as_an_internal_inconsistency(tmp_path, capsys, monkeypatch):
    certify_module = importlib.import_module("gatecert.certify")
    exact = certify_module.classical_fidelity
    monkeypatch.setattr(
        certify_module, "classical_fidelity", lambda *args: (exact(*args)[0], float("nan"))
    )
    code, doc = run(tmp_path, "certify", "--gate", "ghz-chain", "--qubits", "3")
    assert code == 2
    assert doc is None
    assert "internal consistency failure" in capsys.readouterr().err


@pytest.mark.parametrize("field,shots,seed", [("shots", "Infinity", "0"), ("seed", "10", "NaN")])
def test_non_finite_config_integers_are_rejected_by_name(tmp_path, capsys, field, shots, seed):
    path = tmp_path / "config.json"
    path.write_text(f'{{"gate": {{"builtin": "ghz-chain", "qubits": 3}}, "shots": {shots}, "seed": {seed}}}')
    code, doc = run(tmp_path, "sample", "--config", str(path))
    assert code == 1
    assert doc is None
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert field in err


def _sample_config(qubits=2, shots=10, seed=4, rank=2):
    return {
        "gate": {"builtin": "ghz-chain", "qubits": qubits},
        "noise": {"kind": "random_cptp", "rank": rank, "seed": 7},
        "shots": shots,
        "seed": seed,
    }


def _cnot_config(first_entry=1.0, **gate_fields):
    """The CNOT as a config matrix, its first real part replaced by ``first_entry``."""
    pairs = matrix_to_pairs(ghz_chain_gate(2).u00)
    pairs[0][0][0] = first_entry
    return {"gate": {"matrix": pairs, **gate_fields}}


# (id, subcommand, the settings replacing those of _sample_config, expected message)
WRONG_CONFIG_FIELDS = [
    ("qubits-2.7", "sample", {"gate": {"builtin": "ghz-chain", "qubits": 2.7}}, "qubits must be an integer"),
    ("shots-10.5", "sample", {"shots": 10.5}, "shots must be an integer"),
    ("seed--0.5", "sample", {"seed": -0.5}, "seed must be an integer"),
    ("rank-2.9", "sample", {"noise": {"kind": "random_cptp", "rank": 2.9, "seed": 7}}, "rank must be an integer"),
    ("qubits-True", "sample", {"gate": {"builtin": "ghz-chain", "qubits": True}}, "qubits must be an integer"),
    ("shots-10", "sample", {"shots": "10"}, "shots must be an integer"),
    ("p-True", "sample", {"noise": {"kind": "dephasing_per_qubit", "p": True}}, "p must be a number, got True"),
    ("p-string", "sample", {"noise": {"kind": "dephasing_per_qubit", "p": "0.3"}}, "p must be a number, got '0.3'"),
    ("output-2", "sample", {"output": 2}, "output must be a string, got 2"),
    ("output-True", "sample", {"output": True}, "output must be a string, got True"),
    ("mode-empty", "certify", {"mode": ""}, "mode must be 'exact' or 'sampled', got ''"),
    ("mode-False", "certify", {"mode": False}, "mode must be a string, got False"),
    ("name-5", "certify", _cnot_config(name=5), "name must be a string, got 5"),
    ("kind-3", "sample", {"noise": {"kind": 3, "p": 0.1}}, "kind must be a string, got 3"),
    ("builtin-3", "sample", {"gate": {"builtin": 3, "qubits": 2}}, "builtin must be a string, got 3"),
    ("matrix-string-entry", "certify", _cnot_config("1.0"), "matrix entries must be numbers, got a str"),
    ("matrix-bool-entry", "certify", _cnot_config(True), "matrix entries must be numbers, got a bool"),
    ("p-missing", "sample", {"noise": {"kind": "dephasing_per_qubit"}}, "config needs a 'p' field"),
    ("rank-missing", "sample", {"noise": {"kind": "random_cptp", "seed": 7}}, "config needs a 'rank' field"),
    ("seed-missing", "sample", {"noise": {"kind": "random_cptp", "rank": 2}}, "config needs a 'seed' field"),
    ("p-401-digits", "sample", {"noise": {"kind": "dephasing_per_qubit", "p": 10**400}}, "p is out of range"),
    ("matrix-401-digit-entry", "certify", _cnot_config(10**400), "matrix entries are out of range"),
]


@pytest.mark.parametrize(
    "command,settings,message",
    [case[1:] for case in WRONG_CONFIG_FIELDS],
    ids=[case[0] for case in WRONG_CONFIG_FIELDS],
)
def test_fractional_or_non_numeric_config_integers_are_rejected_by_name(
    tmp_path, monkeypatch, capsys, command, settings, message
):
    # every config field has one type rule; a wrong or missing field exits 1
    # with a message naming it, and nothing is written
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_sample_config(), **settings}))
    assert main([command, "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")
    assert message in err
    assert list(tmp_path.iterdir()) == [path]


# (section, subcommand, the settings replacing those of _sample_config, the unknown key)
UNKNOWN_CONFIG_KEYS = [
    ("top-level", "sample", {"seeed": 7}, "seeed"),
    ("gate", "sample", {"gate": {"builtin": "ghz-chain", "qubits": 2, "qubit": 3}}, "qubit"),
    ("noise", "sample", {"noise": {"kind": "dephasing_per_qubit", "p": 0.1, "rank": 3}}, "rank"),
    ("random_cptp noise", "sample", {"noise": {"kind": "random_cptp", "rank": 2, "seed": 7, "p": 0.1}}, "p"),
]


@pytest.mark.parametrize(
    "section,command,settings,key", UNKNOWN_CONFIG_KEYS, ids=[case[0] for case in UNKNOWN_CONFIG_KEYS]
)
def test_an_unknown_config_key_is_rejected_by_name(tmp_path, monkeypatch, capsys, section, command, settings, key):
    # a misspelled key must not run silently with the default of the field it meant
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_sample_config(), **settings}))
    assert main([command, "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: unknown key {key!r} in the {section} section")
    assert list(tmp_path.iterdir()) == [path]


def test_basis_check_rejects_an_unknown_top_level_key(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"gate": {"builtin": "ghz-chain", "qubits": 2}, "include_chi": True}))
    assert main(["basis-check", "--config", str(path)]) == 1
    assert "unknown key 'include_chi'" in capsys.readouterr().err


def test_a_config_matrix_gate_stays_complex(tmp_path):
    # pairs_to_matrix and from_matrix never demote, so a matrix config, even of
    # a real gate, runs in complex arithmetic
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"gate": {"matrix": matrix_to_pairs(ghz_chain_gate(2).u00)}}))
    config = cli.run_config_from_args(build_parser().parse_args(["certify", "--config", str(path)]))
    assert config.gate.u00.dtype == np.complex128
    assert cli._channel_for(config).kraus_ops.dtype == np.complex128


def test_a_null_config_field_counts_as_absent(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    plain, nulls = tmp_path / "plain.json", tmp_path / "nulls.json"
    plain.write_text(json.dumps({"gate": {"builtin": "ghz-chain", "qubits": 2}}))
    fields = ("noise", "mode", "shots", "seed", "output")
    gate = {"builtin": "ghz-chain", "qubits": 2, "matrix": None, "name": None}
    nulls.write_text(json.dumps({"gate": gate, **dict.fromkeys(fields)}))
    for path in (plain, nulls):
        config = cli.run_config_from_args(build_parser().parse_args(["certify", "--config", str(path)]))
        resolved = (config.gate.name, *(getattr(config, field) for field in fields))
        assert resolved == ("ghz-chain", None, "exact", None, 0, "-")
    # the report goes to stdout, not to open(None)
    assert main(["certify", "--config", str(nulls)]) == 0
    assert json.loads(capsys.readouterr().out)["gate"] == {"name": "ghz-chain", "qubits": 2}
    assert sorted(tmp_path.iterdir()) == [nulls, plain]


def test_a_config_output_that_is_not_a_path_leaves_the_callers_descriptors_open(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"gate": {"builtin": "ghz-chain", "qubits": 2}, "output": 2}))
    assert main(["certify", "--config", str(path)]) == 1
    assert "output must be a string" in capsys.readouterr().err
    os.fstat(1)
    os.fstat(2)


def test_integral_float_config_integers_pass(tmp_path):
    for name, config in (("ints", _sample_config()), ("floats", _sample_config(2.0, 10.0, 4.0, 2.0))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        assert main(["sample", "--config", str(path), "--output", str(tmp_path / f"{name}-report.json")]) == 0
    assert (tmp_path / "ints-report.json").read_bytes() == (tmp_path / "floats-report.json").read_bytes()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_shots_beyond_the_int64_range_are_rejected(tmp_path, capsys, source):
    too_many = int(np.iinfo(np.int64).max) + 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_sample_config(shots=too_many)))
    argv = ["--config", str(path)]
    if source == "flag":
        argv = ["--gate", "ghz-chain", "--qubits", "2", "--noise", "dephasing_per_qubit:0.1", "--shots", str(too_many)]
    code, doc = run(tmp_path, "sample", *argv)
    assert code == 1
    assert doc is None
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(too_many - 1) in err


def test_a_transfer_probability_outside_the_unit_interval_exits_as_an_internal_inconsistency(
    tmp_path, capsys, monkeypatch
):
    # the kind of fault the frame-skew tests inject: the complementary frame
    # scaled by 1.5 pushes every fx-sweep probability far above 1
    certify_module = importlib.import_module("gatecert.certify")
    frame_of = certify_module._input_frame
    monkeypatch.setattr(certify_module, "_input_frame", lambda n, basis: 1.5 * frame_of(n, basis))
    code, doc = run(tmp_path, "certify", "--gate", "ghz-chain", "--qubits", "3", "--noise", "dephasing_per_qubit:0.1")
    assert code == 2
    assert doc is None
    assert "internal consistency failure" in capsys.readouterr().err


def test_sample_command_round_trips_and_is_seeded(tmp_path):
    args = (
        "sample", "--gate", "ghz-chain", "--qubits", "3",
        "--noise", "depolarizing_global:0.2", "--shots", "2000", "--seed", "5",
    )
    code_a, doc_a = run(tmp_path, *args)
    code_b, doc_b = run(tmp_path, *args)
    assert code_a == code_b == 0
    assert doc_a == doc_b
    assert doc_a["provenance"]["fz"] == "sampled"
    assert doc_a["fz_std_error"] > 0
    assert set(doc_a["counts"]) == {"z", "x"}
    _, doc_c = run(tmp_path, *args[:-1], "6")
    assert doc_c["counts"] != doc_a["counts"]


CHAIN_3 = {"builtin": "ghz-chain", "qubits": 3}
FAMILY_CELLS = [(kind, p) for kind in ("depolarizing_global", "dephasing_per_qubit", "bitflip_per_qubit") for p in (0.05, 0.5)]


@pytest.mark.parametrize(
    "gate,noise",
    [
        *((CHAIN_3, {"kind": kind, "p": p}) for kind, p in FAMILY_CELLS),
        (CHAIN_3, {"kind": "random_cptp", "rank": 7, "seed": 4}),
        ({"matrix": matrix_to_pairs(haar_unitary(np.random.default_rng(3), 8))}, {"kind": "depolarizing_global", "p": 0.05}),
    ],
    ids=[*(f"{kind}-{p}" for kind, p in FAMILY_CELLS), "random_cptp-7", "haar"],
)
def test_sample_carries_the_exact_fields_of_certify_bit_for_bit(tmp_path, gate, noise):
    # a sampled report's ground truth is the exact pass of certify, not a second route to chi_00
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"gate": gate, "noise": noise}))
    _, exact = run(tmp_path, "certify", "--config", str(path))
    _, sampled = run(tmp_path, "sample", "--config", str(path), "--shots", "100")
    for field in ("f_process_exact", "ghz_expectation", "ghz_floor"):
        assert sampled[field] == exact[field], field
    assert (exact["ghz_floor"] is None) == ("matrix" in gate)


def test_stdout_output(capsys):
    code = main(["certify", "--gate", "ghz-chain", "--qubits", "2", "--output", "-"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fz"] == pytest.approx(1.0, abs=1e-12)


def test_report_round_trip_is_lossless(tmp_path):
    gate = ghz_chain_gate(3)
    ch = noisy_gate(gate, NoiseSpec("depolarizing_global", 0.13))
    report = certify(ch, gate)
    doc = report_to_dict(report, gate, NoiseSpec("depolarizing_global", 0.13))
    rebuilt = report_from_dict(json.loads(json.dumps(doc)))
    assert rebuilt == report


def test_sampled_report_round_trip_is_lossless():
    gate = ghz_chain_gate(2)
    ch = noisy_gate(gate, NoiseSpec("bitflip_per_qubit", 0.07))
    report = sampled_report(ch, gate, shots_per_input=1500, seed=2)
    doc = report_to_dict(report, gate, NoiseSpec("bitflip_per_qubit", 0.07))
    rebuilt = report_from_dict(json.loads(json.dumps(doc)))
    assert rebuilt == report


def test_matrix_pair_serialization_round_trip():
    rng = np.random.default_rng(12)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.array_equal(pairs_to_matrix(matrix_to_pairs(m)), m)
    # dust under the floor is written as an exact zero, signed zeros and
    # entries at the floor are written as they are
    written = [[str(v) for v in pair] for row in matrix_to_pairs(DUSTY, zero_floor=1e-14) for pair in row]
    assert written == [["0.0", "0.0"], ["-0.0", "0.5"], ["1e-14", "0.0"], ["-0.25", "-0.0"]]
    written = [[str(v) for v in pair] for row in matrix_to_pairs(DUSTY) for pair in row]
    assert written == [["3e-15", "-2e-15"], ["-0.0", "0.5"], ["1e-14", "0.0"], ["-0.25", "-0.0"]]
    with pytest.raises(ValueError):
        pairs_to_matrix([[1.0, 2.0], [3.0, 4.0]])


def test_chi_serialization_truncates_dust(tmp_path):
    gate = ghz_chain_gate(2)
    ch = Channel(2, gate.u00[np.newaxis])
    chi = kraus_to_chi(ch, gate)
    pairs = chi_to_pairs(chi)
    assert pairs[0][0] == [1.0, 0.0]
    # every other entry of the perfect-gate chi is numerical dust at most
    flat = [entry for row in pairs for entry in row]
    assert sum(entry != [0.0, 0.0] for entry in flat) == 1


def _dusty_chi():
    chi = DUSTY_COEFFICIENTS @ DUSTY_COEFFICIENTS.conj().T
    assert abs(chi[1, 0]) == CHI_SERIALIZATION_FLOOR and 0 < abs(chi[2, 0]) < CHI_SERIALIZATION_FLOOR
    return DUSTY_COEFFICIENTS


def _pauli_chi(n_qubits):
    gate = GateSpec.from_matrix(haar_unitary(np.random.default_rng(n_qubits), 2**n_qubits))
    return kraus_to_chi(noisy_gate(gate, NoiseSpec("depolarizing_global", 0.3)), gate).coefficients


def _real_chi(n_qubits, kind, p):
    gate = ghz_chain_gate(n_qubits)
    coefficients = kraus_to_chi(noisy_gate(gate, NoiseSpec(kind, p)), gate).coefficients
    assert coefficients.dtype == np.float64
    return coefficients


def _dense_chi(n_qubits):
    gate = GateSpec.from_matrix(haar_unitary(np.random.default_rng(3), 2**n_qubits))
    return kraus_to_chi(random_cptp(n_qubits, rank=5, seed=11), gate).coefficients


@pytest.mark.parametrize(
    "coefficients",
    [
        pytest.param(_dusty_chi, id="dusty"),
        *(pytest.param(lambda n=n: _pauli_chi(n), id=f"pauli-{n}") for n in range(1, 5)),
        # dense-4 and real-sparse-5 span several blocks of rows
        *(pytest.param(lambda n=n: _dense_chi(n), id=f"dense-{n}") for n in (3, 4)),
        pytest.param(lambda: _real_chi(3, "depolarizing_global", 0.3), id="real-3"),
        pytest.param(lambda: _real_chi(5, "dephasing_per_qubit", 0.1), id="real-sparse-5"),
        pytest.param(lambda: EDGES_COEFFICIENTS, id="edges"),
    ],
)
def test_chi_json_is_the_text_of_the_reference_pairs(coefficients):
    coeffs = coefficients()
    text = "".join(_chi_json(coeffs))
    assert text == json.dumps(matrix_to_pairs(coeffs @ coeffs.conj().T, zero_floor=CHI_SERIALIZATION_FLOOR))


def test_chi_json_shares_the_text_of_zero_rows():
    rows = [piece for piece in _chi_json(EDGES_COEFFICIENTS) if piece.startswith("[[")]
    assert len(rows) == 5
    assert rows[1] is rows[2]


def test_writing_a_chi_document_holds_less_than_the_document(tmp_path):
    gate, noise = ghz_chain_gate(4), NoiseSpec("dephasing_per_qubit", 0.1)
    channel = noisy_gate(gate, noise)
    chi = kraus_to_chi(channel, gate)
    doc = report_to_dict(certify(channel, gate), gate, noise)
    out = tmp_path / "report.json"
    _, peak = allocation_peak(lambda: _write_document(doc, str(out), chi))
    written = out.read_bytes()
    doc["chi"] = chi_to_pairs(chi)
    assert written == (json.dumps(doc) + "\n").encode()
    # chi is formed a block of rows at a time inside the measured write, so no chi-sized array is made
    assert peak < 0.3 * len(written)


def test_a_failing_chi_writer_creates_no_file(tmp_path, capsys, monkeypatch):
    cli_module = importlib.import_module("gatecert.cli")

    def broken(coefficients):
        yield "["
        raise ValueError("chi text failed")

    monkeypatch.setattr(cli_module, "_chi_json", broken)
    code, doc = run(tmp_path, "certify", "--gate", "ghz-chain", "--qubits", "2", "--include-chi")
    assert code == 1
    assert doc is None
    assert "chi text failed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["certify", "sample"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
def test_include_chi_documents_match_the_reference_byte_for_byte(tmp_path, capsys, command, to_file):
    config = {
        "gate": {"builtin": "ghz-chain", "qubits": 2},
        "noise": {"kind": "random_cptp", "rank": 3, "seed": 5},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    argv = [command, "--config", str(path), "--include-chi", "--output", str(out) if to_file else "-"]
    if command == "sample":
        argv += ["--shots", "400", "--seed", "9"]
    assert main(argv) == 0
    written = out.read_text() if to_file else capsys.readouterr().out

    gate, noise = ghz_chain_gate(2), NoiseSpec("random_cptp", rank=3, seed=5)
    channel = noisy_gate(gate, noise)
    report = certify(channel, gate) if command == "certify" else sampled_report(channel, gate, 400, 9)
    doc = report_to_dict(report, gate, noise)
    doc["chi"] = chi_to_pairs(kraus_to_chi(channel, gate))
    assert written == json.dumps(doc) + "\n"


def test_include_chi_flag_embeds_the_matrix(tmp_path):
    code, doc = run(
        tmp_path, "certify", "--gate", "ghz-chain", "--qubits", "2", "--include-chi"
    )
    assert code == 0
    assert len(doc["chi"]) == 16
    assert doc["chi"][0][0] == [1.0, 0.0]


def test_flag_misuse_exits_with_invalid_input_code():
    with pytest.raises(SystemExit) as info:
        main(["certify", "--qubits", "not-a-number", "--gate", "ghz-chain"])
    assert info.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["basis-check", "--include-chi"],
        ["basis-check", "--output", "report.json"],
        ["basis-check", "--mode", "sampled"],
        ["basis-check", "--noise", "depolarizing_global:0.1"],
        ["basis-check", "--shots", "100"],
        ["sample", "--mode", "exact", "--noise", "depolarizing_global:0.1", "--shots", "100", "--output", "report.json"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main([argv[0], "--gate", "ghz-chain", "--qubits", "2", *argv[1:]])
    assert info.value.code == 1
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "settings",
    [{"noise": {"kind": "amplitude_damping", "p": 0.1}}, {"mode": "sampled"}],
    ids=["unknown-noise", "sampled-without-shots"],
)
def test_basis_check_reads_only_the_gate_settings_of_a_config(tmp_path, capsys, settings):
    assert main(["basis-check", "--gate", "ghz-chain", "--qubits", "3"]) == 0
    expected = capsys.readouterr().out
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"gate": {"builtin": "ghz-chain", "qubits": 3}, **settings}))
    assert main(["basis-check", "--config", str(path)]) == 0
    assert capsys.readouterr().out == expected
    assert len(expected.splitlines()) == 3


def test_build_parser_returns_a_new_parser_each_call():
    assert build_parser() is not build_parser()


def test_consecutive_calls_share_no_state(tmp_path, capsys):
    _, doc = run(tmp_path, "certify", "--gate", "ghz-chain", "--qubits", "2", "--include-chi")
    assert "chi" in doc
    _, doc = run(tmp_path, "certify", "--gate", "ghz-chain", "--qubits", "2")
    assert "chi" not in doc

    args = ("--gate", "ghz-chain", "--qubits", "3", "--noise", "depolarizing_global:0.2")
    _, doc = run(tmp_path, "sample", *args, "--shots", "300", "--seed", "4")
    assert doc["provenance"]["fz"] == "sampled"
    code, doc = run(tmp_path, "certify", *args)
    assert code == 0
    assert doc["provenance"]["fz"] == "exact"
    assert "counts" not in doc and "fz_std_error" not in doc
    assert doc["fz"] == pytest.approx(0.825, abs=1e-9)

    with pytest.raises(SystemExit) as info:
        main(["certify", "--qubits", "not-a-number", "--gate", "ghz-chain"])
    assert info.value.code == 1
    assert main(["certify", "--gate", "ghz-chain", "--qubits", "2", "--output", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["gate"] == {"name": "ghz-chain", "qubits": 2}


@pytest.mark.parametrize(
    "gate_entry,flags,expected",
    [
        ({"builtin": "ghz-chain", "qubits": 3}, [], 3),
        ({"builtin": "ghz-chain", "qubits": 3}, ["--qubits", "2"], 2),  # the flag wins
        ({"qubits": 3}, ["--gate", "ghz-chain"], 3),
        ({"matrix": "ignored"}, ["--gate", "ghz-chain", "--qubits", "2"], 2),
        # the message names the problem
        ({"builtin": "toffoli", "qubits": 3}, [], "available: ['ghz-chain']"),
        ({"builtin": "ghz-chain"}, [], "qubit count"),
    ],
)
def test_builtin_gates_resolve_the_same_way_from_flag_and_config(tmp_path, capsys, gate_entry, flags, expected):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"gate": gate_entry}))
    code, doc = run(tmp_path, "certify", "--config", str(path), *flags)
    if isinstance(expected, str):
        assert code == 1 and doc is None
        assert expected in capsys.readouterr().err
    else:
        assert code == 0 and doc["gate"] == {"name": "ghz-chain", "qubits": expected}


def test_every_library_name_the_benchmark_replay_uses_exists():
    # perfbench/worker.py replays the CLI and certify through these names.
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "worker.py").read_text())
    used = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name) and owner.value.id == "self":
            owner_name = owner.attr
        elif isinstance(owner, ast.Name):
            owner_name = owner.id
        else:
            continue
        if owner_name in ("gc", "cli"):
            used.add((owner_name, node.attr))
    modules = {"gc": gatecert, "cli": cli}
    assert {owner for owner, _ in used} == {"gc", "cli"}
    missing = sorted(f"{owner}.{name}" for owner, name in used if not hasattr(modules[owner], name))
    assert missing == []


def test_the_benchmark_replay_resolves_every_cli_request_shape(tmp_path):
    # perfbench/worker.py replays each valid CLI request through
    # build_parser().parse_args(argv) and run_config_from_args, then reads the
    # gate, mode, shots and include_chi back; one argv of each shape it sends
    noise = {"kind": "random_cptp", "rank": 3, "seed": 5}
    sample_config = tmp_path / "sample.json"
    sample_config.write_text(json.dumps(
        {"gate": {"builtin": "ghz-chain", "qubits": 4}, "noise": noise, "shots": 200, "seed": 9}
    ))
    haar_config = tmp_path / "haar.json"
    haar = matrix_to_pairs(haar_unitary(np.random.default_rng(3), 4))
    haar_config.write_text(json.dumps({"gate": {"matrix": haar, "name": "haar"}, "noise": noise}))
    flags = ["--gate", "ghz-chain", "--qubits", "3", "--noise", "dephasing_per_qubit:0.1"]
    cases = [
        (["certify", *flags, "--include-chi", "--output", "chi.json"], (3, "exact", None, True)),
        (["sample", *flags, "--shots", "200", "--seed", "7", "--output", "s.json"], (3, "sampled", 200, False)),
        (["sample", "--config", str(sample_config), "--output", "c.json"], (4, "sampled", 200, False)),
        (["certify", "--config", str(haar_config), "--output", "h.json"], (2, "exact", None, False)),
        (["basis-check", "--gate", "ghz-chain", "--qubits", "4"], (4, "exact", None, False)),
    ]
    for argv, expected in cases:
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]
        config = cli.run_config_from_args(args)
        assert (config.gate.n_qubits, config.mode, config.shots, config.include_chi) == expected


def test_the_readme_config_example_resolves_to_the_settings_it_shows(tmp_path):
    # the config reference and the reader cannot drift apart
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(example))
    config = cli.run_config_from_args(build_parser().parse_args(["certify", "--config", str(path)]))
    gate, noise = example["gate"], example["noise"]
    assert (config.gate.name, config.gate.n_qubits) == (gate["builtin"], gate["qubits"])
    assert config.noise == NoiseSpec(noise["kind"], noise["p"])
    assert (config.mode, config.shots, config.seed) == (example["mode"], example["shots"], example["seed"])
