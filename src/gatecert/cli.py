"""Command-line front end and the JSON report format.

Three subcommands, each taking only the flags it reads; a flag wins over the
same setting of ``--config``, whose every field ``_config_value`` reads:

* ``certify``: run the two-basis certification (exact or sampled) and write
  a JSON report; all nine flags.
* ``basis-check``: verify the orthogonality of the chosen gate's error
  basis, printing the worst residual of its Gram matrix; the residual comes
  in closed form from u00^dag u00 (``core.orthogonality_residual``), so the
  4**n-operator basis is never built.  Only ``--gate``, ``--qubits`` and
  the gate settings of ``--config``.
* ``sample``: a sampled certification run; every flag but ``--mode``.

Exit codes: 0 on success, 1 on invalid input (malformed JSON, a config key
its section does not take, a config field of the wrong type, too large for a
float or missing, where null counts as missing, a non-unitary gate matrix, a
qubit count over capacity, a flag the subcommand does not take), 2 when an
internal consistency check trips, which indicates a bug rather than a bad
invocation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .channel import Channel, ChiMatrix, kraus_to_chi
from .certify import FidelityReport, certify, ghz_chain_gate
from .core import ConsistencyError, GateSpec, _orthogonality_bound, orthogonality_residual
from .noise import NoiseSpec, noisy_gate
from .sampler import sampled_report

__all__ = [
    "SCHEMA_VERSION",
    "RunConfig",
    "build_parser",
    "run_config_from_args",
    "matrix_to_pairs",
    "pairs_to_matrix",
    "chi_to_pairs",
    "report_to_dict",
    "report_from_dict",
    "cmd_certify",
    "cmd_basis_check",
    "main",
]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_INCONSISTENT = 2

# Serialized chi entries smaller than this in magnitude are written as zero;
# in-memory matrices are never truncated.
CHI_SERIALIZATION_FLOOR = 1e-14
# The JSON text of one entry written as zero.
_ZERO_PAIR = "[0.0, 0.0]"
# Rows of chi that the writer forms at a time: a power of two of at least 16,
# since a single row takes the matrix-vector product and can change a digit.
_CHI_BLOCK_ROWS = 32

_BUILTIN_GATES = {"ghz-chain": ghz_chain_gate}

# The noun in the error message of each kind of config field.  An int field also
# takes an integral float such as 3.0, a float field an int, and no field a bool.
_KIND_NOUNS = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}
_REQUIRED = object()

# The keys each config section takes; any other key is an error.  The noise
# section's keys depend on its kind: a family takes p, random_cptp rank and seed.
_CONFIG_KEYS = {
    "top-level": ("gate", "noise", "mode", "shots", "seed", "output"),
    "gate": ("builtin", "qubits", "matrix", "name"),
    "noise": ("kind", "p"),
    "random_cptp noise": ("kind", "rank", "seed"),
}

# The FidelityReport fields a document carries, in document order, and whether
# ``report_from_dict`` requires them.  The last two, the standard errors, are
# written only for a sampled report, after "provenance".
_REPORT_FIELDS = (
    ("fz", True), ("fx", True), ("f_process_exact", True),
    ("lower_bound", True), ("upper_bound", True),
    ("capability_bound", True), ("capability_certified", True),
    ("ghz_expectation", False), ("ghz_floor", False), ("violation_certified", True),
    ("fz_std_error", False), ("fx_std_error", False),
)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one command invocation."""

    gate: GateSpec
    noise: NoiseSpec | None = None
    mode: str = "exact"
    shots: int | None = None
    seed: int = 0
    output: str = "-"
    include_chi: bool = False

    def __post_init__(self):
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"mode must be 'exact' or 'sampled', got {self.mode!r}")
        if self.mode == "sampled" and (self.shots is None or self.shots < 1):
            raise ValueError("sampled mode needs a positive --shots value")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the invalid-input code."""

    def error(self, message):
        self.exit(EXIT_INVALID_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the three subcommands, each with only its own flags; ``main`` reuses one built at import."""
    parser = _Parser(prog="gatecert", description="Certify noisy gates from two classical fidelities.")
    sub = parser.add_subparsers(dest="command", required=True)
    certify_cmd, basis_cmd, sample_cmd = (
        sub.add_parser(name, help=help_text)
        for name, help_text in (
            ("certify", "run the two-basis certification and write a JSON report"),
            ("basis-check", "verify orthogonality of the error basis for a gate, without building it"),
            ("sample", "run a finite-shot certification and write a JSON report"),
        )
    )
    for cmd in (certify_cmd, basis_cmd, sample_cmd):
        cmd.add_argument("--gate", help='builtin gate name (registry: "ghz-chain")')
        cmd.add_argument("--qubits", type=int, help="qubit count for a builtin gate")
        cmd.add_argument(
            "--config", help="path to a JSON config supplying gate/noise/run settings (basis-check reads the gate only)"
        )
    for cmd in (certify_cmd, sample_cmd):
        cmd.add_argument("--noise", help="noise as kind:p, e.g. depolarizing_global:0.1")
        cmd.add_argument("--shots", type=int, help="shots per input state in sampled mode")
        cmd.add_argument("--seed", type=int, help="seed for sampled runs")
        cmd.add_argument("--output", help='report destination path, or "-" for stdout')
        cmd.add_argument(
            "--include-chi",
            action="store_true",
            help="embed the serialized process matrix in the report",
        )
    certify_cmd.add_argument("--mode", choices=("exact", "sampled"), help="certification mode")
    return parser


def matrix_to_pairs(matrix: np.ndarray, zero_floor: float = 0.0) -> list:
    """Serialize a complex matrix as nested [re, im] pairs, row-major."""
    arr = np.asarray(matrix, dtype=np.complex128)
    if zero_floor:
        arr = np.where(np.abs(arr) < zero_floor, 0.0, arr)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def pairs_to_matrix(rows) -> np.ndarray:
    """Inverse of matrix_to_pairs; raises ValueError on malformed nesting or an entry that is not a number."""
    arr = np.asarray(rows, dtype=object)
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(
            "matrix must be a square grid of [re, im] pairs, "
            f"got an array of shape {arr.shape}"
        )
    # By type: a float array would take "0.5" for a number and a bool among floats for 1.0.
    for kind in set(map(type, arr.flat)):
        if kind is bool or not issubclass(kind, (int, float, np.integer, np.floating)):
            raise ValueError(f"matrix entries must be numbers, got a {kind.__name__}")
    try:
        arr = arr.astype(float)
    except OverflowError as exc:
        raise ValueError(f"matrix entries are out of range: {exc}") from None
    return arr[..., 0] + 1j * arr[..., 1]


def chi_to_pairs(chi: ChiMatrix) -> list:
    """Process matrix as nested [re, im] pairs, phase-mask-major row order.

    Entries below the serialization floor in magnitude are written as zero.
    This is the reference that ``_chi_json`` must match: it forms the whole
    4**n x 4**n chi = C C^dag at once.
    """
    coeffs = chi.coefficients
    return matrix_to_pairs(coeffs @ coeffs.conj().T, zero_floor=CHI_SERIALIZATION_FLOOR)


def _chi_json(coefficients: np.ndarray):
    """The text of ``json.dumps(matrix_to_pairs(C @ C.conj().T, zero_floor=CHI_SERIALIZATION_FLOOR))``, in pieces.

    chi is formed ``_CHI_BLOCK_ROWS`` rows at a time, as C[rows] @ C^dag; the
    tests hold its text to that of the full product (``chi_to_pairs``).  A row
    whose entries all lie below the floor is one shared string: its entries
    are the 10-character ``[0.0, 0.0]`` separated by ", ", so entry c of a
    q-column row starts at offset 1 + 12 c.  A row that keeps an entry is that
    string with the kept entries, formatted with the float repr json.dumps
    uses (signed zeros stay ``-0.0``), in the place of their zero text.  The
    entries must be finite, as a ChiMatrix's are.  A real C gives a real chi,
    whose imaginary parts are written as ``0.0``.
    """
    q = len(coefficients)
    coeffs_dag = coefficients.conj().T
    width = len(_ZERO_PAIR)
    zero_row = "[" + ", ".join([_ZERO_PAIR] * q) + "]"
    for first in range(0, q, _CHI_BLOCK_ROWS):
        block = coefficients[first : first + _CHI_BLOCK_ROWS] @ coeffs_dag
        flat = block.reshape(-1)
        kept = np.flatnonzero(~(np.abs(flat) < CHI_SERIALIZATION_FLOOR))
        kept_rows, kept_columns = np.divmod(kept, q)
        values = flat[kept]
        starts = 1 + kept_columns * (width + 2)
        bounds = np.searchsorted(kept_rows, np.arange(len(block) + 1)).tolist()
        for r, (low, high) in enumerate(zip(bounds, bounds[1:]), start=first):
            yield ", " if r else "["
            if low == high:
                yield zero_row
                continue
            row_starts = starts[low:high].tolist()
            row_values = values[low:high]
            gaps = map(slice, [0, *(start + width for start in row_starts)], [*row_starts, len(zero_row)])
            pieces = [""] * (2 * len(row_starts) + 1)
            pieces[0::2] = map(zero_row.__getitem__, gaps)
            pieces[1::2] = map("[{!r}, {!r}]".format, row_values.real.tolist(), row_values.imag.tolist())
            yield "".join(pieces)
    yield "]"


def _config_value(entry: dict, key: str, kind: type, default=_REQUIRED):
    """``entry[key]`` as ``kind``; a null counts as absent and reads ``default``, and with no default is an error."""
    value = entry.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ValueError(f"config needs a {key!r} field")
        return default
    number = kind is float and isinstance(value, int) or kind is int and isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not (isinstance(value, kind) or number):
        raise ValueError(f"{key} must be {_KIND_NOUNS[kind]}, got {value!r}")
    try:
        return kind(value)
    except OverflowError as exc:
        raise ValueError(f"{key} is out of range: {exc}") from None


def _check_keys(entry: dict, section: str) -> None:
    """ValueError naming the first key of ``entry`` that the config ``section`` does not take."""
    allowed = _CONFIG_KEYS[section]
    for key in entry:
        if key not in allowed:
            raise ValueError(f"unknown key {key!r} in the {section} section; it takes {', '.join(allowed)}")


def _gate_from_settings(entry: dict, flag_gate: str | None, flag_qubits: int | None) -> GateSpec:
    _check_keys(entry, "gate")
    name = flag_gate if flag_gate is not None else _config_value(entry, "builtin", str, None)
    if name is None:
        matrix = _config_value(entry, "matrix", list, None)
        if matrix is None:
            raise ValueError("no gate specified; pass --gate or a config gate entry with 'builtin' or 'matrix'")
        return GateSpec.from_matrix(pairs_to_matrix(matrix), name=_config_value(entry, "name", str, None))
    builder = _BUILTIN_GATES.get(name)
    if builder is None:
        raise ValueError(f"unknown builtin gate {name!r}; available: {sorted(_BUILTIN_GATES)}")
    qubits = flag_qubits if flag_qubits is not None else _config_value(entry, "qubits", int, None)
    if qubits is None:
        raise ValueError("a builtin gate needs --qubits or a config qubit count")
    return builder(qubits)


def _noise_from_flag(text: str) -> NoiseSpec:
    kind, sep, value = text.partition(":")
    if kind == "random_cptp":
        raise ValueError("random_cptp noise needs a JSON config carrying rank and seed")
    if not sep or not value:
        raise ValueError(f"expected noise as kind:p, got {text!r}")
    return NoiseSpec(kind=kind, strength=float(value))


def _noise_from_settings(settings: dict) -> NoiseSpec | None:
    entry = _config_value(settings, "noise", dict, None)
    if entry is None:
        return None
    kind = _config_value(entry, "kind", str, None)
    if kind is None:
        raise ValueError("config noise entry must be an object with a 'kind' field")
    _check_keys(entry, "random_cptp noise" if kind == "random_cptp" else "noise")
    if kind == "random_cptp":
        return NoiseSpec(kind=kind, rank=_config_value(entry, "rank", int), seed=_config_value(entry, "seed", int))
    return NoiseSpec(kind=kind, strength=_config_value(entry, "p", float))


def run_config_from_args(args: argparse.Namespace) -> RunConfig:
    """Merge a JSON config (if any) with command-line flags; flags win.  ``basis-check`` reads only the gate."""
    settings = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as handle:
            settings = json.load(handle)
        if not isinstance(settings, dict):
            raise ValueError("config file must contain a JSON object")
        _check_keys(settings, "top-level")
    gate = _gate_from_settings(_config_value(settings, "gate", dict, {}), args.gate, args.qubits)
    if args.command == "basis-check":
        return RunConfig(gate=gate)
    return RunConfig(
        gate=gate,
        noise=_noise_from_flag(args.noise) if args.noise is not None else _noise_from_settings(settings),
        mode="sampled" if args.command == "sample" else args.mode or _config_value(settings, "mode", str, "exact"),
        shots=args.shots if args.shots is not None else _config_value(settings, "shots", int, None),
        seed=args.seed if args.seed is not None else _config_value(settings, "seed", int, 0),
        output=args.output if args.output is not None else _config_value(settings, "output", str, "-"),
        include_chi=args.include_chi,
    )


def _channel_for(config: RunConfig) -> Channel:
    if config.noise is None:
        return Channel(config.gate.n_qubits, config.gate.u00[np.newaxis])
    return noisy_gate(config.gate, config.noise)


def _noise_json(spec: NoiseSpec | None):
    if spec is None:
        return None
    if spec.kind == "random_cptp":
        return {"kind": spec.kind, "rank": spec.rank, "seed": spec.seed}
    return {"kind": spec.kind, "p": spec.strength}


def report_to_dict(report: FidelityReport, gate: GateSpec, noise: NoiseSpec | None) -> dict:
    """Flatten a report into the JSON document schema."""
    label = report.provenance
    values = [(key, getattr(report, key)) for key, _ in _REPORT_FIELDS]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "gate": {"name": gate.name, "qubits": gate.n_qubits},
        "noise": _noise_json(noise),
        **dict(values[:-2]),
        "provenance": {
            "fz": label,
            "fx": label,
            "f_process_exact": "simulator ground truth",
        },
    }
    if report.provenance == "sampled":
        doc.update(values[-2:])
        doc["counts"] = {
            basis: {str(n): int(c) for n, c in sorted(per_basis.items())}
            for basis, per_basis in report.counts.items()
        }
    return doc


def report_from_dict(doc: dict) -> FidelityReport:
    """Rebuild a FidelityReport from a parsed JSON document."""
    counts = None
    if doc.get("counts") is not None:
        counts = {
            basis: {int(n): int(c) for n, c in per_basis.items()}
            for basis, per_basis in doc["counts"].items()
        }
    return FidelityReport(
        **{key: doc[key] if required else doc.get(key) for key, required in _REPORT_FIELDS},
        provenance=doc["provenance"]["fz"],
        counts=counts,
    )


def _write_document(doc: dict, destination: str, chi: ChiMatrix | None = None) -> None:
    """Write ``doc`` as one line of JSON, with ``chi`` (if given) as its last key, "chi".

    Every piece of the text is made before the destination is opened, so a
    failure writes no file.
    """
    text = json.dumps(doc)
    if chi is None:
        pieces = [text, "\n"]
    else:
        pieces = [text[:-1], ', "chi": ', *_chi_json(chi.coefficients), "}\n"]
    if destination == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)


def cmd_certify(config: RunConfig) -> int:
    """Certify the configured gate-plus-noise channel and write the report."""
    channel = _channel_for(config)
    if config.mode == "sampled":
        report = sampled_report(channel, config.gate, config.shots, config.seed)
    else:
        report = certify(channel, config.gate)
    chi = kraus_to_chi(channel, config.gate) if config.include_chi else None
    _write_document(report_to_dict(report, config.gate, config.noise), config.output, chi)
    return EXIT_OK


def cmd_basis_check(config: RunConfig) -> int:
    """Report the worst orthogonality residual of the configured gate's error basis.

    It passes up to ``core._orthogonality_bound``, the most that a gate within
    TOL.unitarity, which every ``GateSpec`` is, can reach.
    """
    residual = orthogonality_residual(config.gate)
    passed = residual <= _orthogonality_bound(config.gate.n_qubits)
    print(f"operators: {1 << (2 * config.gate.n_qubits)}")
    print(f"max orthogonality residual: {residual:.6e}")
    print("PASS" if passed else "FAIL")
    return EXIT_OK if passed else EXIT_INVALID_INPUT


# One parser per process: parse_args keeps no state between calls, and building
# the parser costs more than a small certify.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        config = run_config_from_args(args)
        if args.command == "basis-check":
            return cmd_basis_check(config)
        # run_config_from_args has already put ``sample`` into sampled mode.
        return cmd_certify(config)
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
