"""Seeded inputs for the benchmark workloads, with their reference values.

``generate`` draws every input of a run from the workload seed: noise
strengths, random_cptp rank and seed pairs, Haar-random custom gates and their
config files, and the invalid requests.  It also computes the reference values
(numpy only, see ``reference.py``).  The launcher calls it before any worker
process starts, so none of this is inside a timer.

A run replays a pool of passes in order, pass p using ``passes[p % len]``.
A request keeps its id wherever it repeats, so repeated sampled runs can be
compared with each other.  Every request also names its kind: requests of one
kind (the same call, n, noise kind and rank) cost the same, and the j-th
request of every pass has the same kind.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import reference

FAMILIES = ("depolarizing_global", "dephasing_per_qubit", "bitflip_per_qubit")
WORKLOADS = ("sweep_small", "certify_wide", "cli_reports")

# Passes with distinct inputs generated for certify_wide and for the custom
# gates of cli_reports; the timed loop wraps around after this many.
POOL_PASSES = 16
SHOTS = 10000
# Kraus rank of the random_cptp channels that cli_reports samples.  The rank
# sets the cost of a sampled n=4 call, so it is fixed and only the channel
# seed is drawn: every seed then asks for the same amount of work.
CLI_CPTP_RANK = 8


def _strength(rng) -> float:
    return float(rng.uniform(0.0, 1.0))


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def _family_noise(rng, kind: str) -> dict:
    return {"kind": kind, "p": _strength(rng)}


def _cptp_noise(rng, rank: int) -> dict:
    return {"kind": "random_cptp", "rank": rank, "seed": _seed(rng)}


def _label(n: int, noise: dict) -> str:
    if noise["kind"] == "random_cptp":
        return f"n={n} random_cptp rank={noise['rank']} seed={noise['seed']}"
    return f"n={n} {noise['kind']} p={noise['p']!r}"


def _noise_kind(n: int, noise: dict) -> str:
    rank = f"-rank{noise['rank']}" if noise["kind"] == "random_cptp" else ""
    return f"n{n}-{noise['kind']}{rank}"


def _lib_request(rid: str, n: int, noise: dict, refs: dict) -> dict:
    refs[rid] = reference.expected(reference.ghz_chain_unitary(n), noise, ghz_chain=True)
    return {"id": rid, "kind": _noise_kind(n, noise), "n": n, "noise": noise, "label": _label(n, noise)}


# Requests per noise kind in one sweep_small pass.  Sorted by latency, a pass
# is 39 cheap n=2 requests, 13 n=2 depolarizing (rank 16) and 36 n=3, so the
# median request lies inside the n=2 depolarizing block instead of on a step
# between two kinds of request, where it would swing between runs.
SWEEP_PER_KIND = {2: 13, 3: 9}


def _sweep_small(rng, refs: dict) -> list:
    """One pass of 88 requests: per n, the three families and random_cptp, SWEEP_PER_KIND[n] each."""
    requests = []
    for n, count in SWEEP_PER_KIND.items():
        for i in range(count):
            for kind in FAMILIES:
                rid = f"n{n}-{kind}-{i}"
                requests.append(_lib_request(rid, n, _family_noise(rng, kind), refs))
            rank = int(rng.integers(1, 17))
            requests.append(_lib_request(f"n{n}-random_cptp-{i}", n, _cptp_noise(rng, rank), refs))
    order = rng.permutation(len(requests))
    return [[requests[i] for i in order]]


def _certify_wide(rng, refs: dict) -> list:
    """Passes of five large requests, fresh strengths and seeds in every pass.

    The n=4 cell runs three times, so the median request is an n=4 one.  Of
    the three cells its latency swings least with the machine's speed; the
    n=5 cells, with their 16 MB basis and chi, swing most.
    """
    passes = []
    for p in range(POOL_PASSES):
        passes.append(
            [
                _lib_request(f"p{p}-n4-depolarizing_global-{i}", 4, _family_noise(rng, FAMILIES[0]), refs)
                for i in range(3)
            ]
            + [
                _lib_request(f"p{p}-n5-dephasing_per_qubit", 5, _family_noise(rng, FAMILIES[1]), refs),
                _lib_request(f"p{p}-n5-random_cptp", 5, _cptp_noise(rng, 7), refs),
            ]
        )
    return passes


def _pairs(matrix: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in matrix]


def _write_config(workdir: Path, name: str, doc: dict) -> str:
    path = Path("configs") / f"{name}.json"
    with open(workdir / path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, allow_nan=True)
    return str(path)


def _cli_request(rid: str, argv: list, expect: str, label: str, output: str | None = None, kind: str | None = None,
                 **extra) -> dict:
    """A CLI call; its kind defaults to its id, for a call that repeats unchanged in every pass."""
    if output is not None:
        argv = argv + ["--output", output]
    return {"id": rid, "kind": kind or rid, "argv": argv, "expect": expect, "output": output, "label": label, **extra}


def _cli_fixed(rng, workdir: Path, refs: dict) -> list:
    """Requests that repeat unchanged in every pass (sampled counts must repeat too)."""
    requests = []
    chi_cells = ((3, "dephasing_per_qubit"), (3, "depolarizing_global"), (4, "dephasing_per_qubit"), (4, "bitflip_per_qubit"))
    for n, kind in chi_cells:
        rid = f"chi-n{n}-{kind}"
        noise = _family_noise(rng, kind)
        refs[rid] = reference.expected(reference.ghz_chain_unitary(n), noise, ghz_chain=True)
        argv = ["certify", "--gate", "ghz-chain", "--qubits", str(n), "--noise", f"{kind}:{noise['p']!r}", "--include-chi"]
        requests.append(_cli_request(rid, argv, "chi", "certify --include-chi " + _label(n, noise), f"tmp/{rid}.json"))
    for n, kind in zip((2, 3, 4), FAMILIES):
        rid = f"sample-n{n}-{kind}"
        noise = _family_noise(rng, kind)
        refs[rid] = reference.expected(reference.ghz_chain_unitary(n), noise, ghz_chain=True)
        argv = ["sample", "--gate", "ghz-chain", "--qubits", str(n), "--noise", f"{kind}:{noise['p']!r}",
                "--shots", str(SHOTS), "--seed", str(_seed(rng))]
        requests.append(_cli_request(rid, argv, "sampled", "sample " + _label(n, noise), f"tmp/{rid}.json", shots=SHOTS))
    for n in (2, 3, 4):
        rid = f"sample-n{n}-random_cptp"
        noise = _cptp_noise(rng, CLI_CPTP_RANK)
        refs[rid] = reference.expected(reference.ghz_chain_unitary(n), noise, ghz_chain=True)
        config = {"gate": {"builtin": "ghz-chain", "qubits": n}, "noise": noise, "shots": SHOTS, "seed": _seed(rng)}
        argv = ["sample", "--config", _write_config(workdir, rid, config)]
        requests.append(_cli_request(rid, argv, "sampled", "sample config " + _label(n, noise), f"tmp/{rid}.json", shots=SHOTS))
    refs["basis-n4"] = {"n": 4}
    requests.append(_cli_request("basis-n4", ["basis-check", "--gate", "ghz-chain", "--qubits", "4"], "basis", "basis-check n=4"))
    requests.extend(_cli_rejects(rng, workdir, refs))
    return requests


def _cli_rejects(rng, workdir: Path, refs: dict) -> list:
    """Invalid requests: each must exit 1 and write no report."""
    bad_gate = _pairs(reference.haar_unitary(rng, 4))
    bad_gate[0][0] = [float("nan"), 0.0]
    cells = (
        ("reject-qubits9", ["certify", "--gate", "ghz-chain", "--qubits", "9"], "over capacity: --qubits 9"),
        ("reject-nan-matrix", ["certify", "--config", _write_config(workdir, "reject-nan-matrix", {"gate": {"matrix": bad_gate}})],
         "non-finite config matrix"),
        ("reject-unknown-noise", ["certify", "--gate", "ghz-chain", "--qubits", "3", "--noise", f"amplitude_damping:{_strength(rng)!r}"],
         "unknown noise kind"),
    )
    requests = []
    for rid, argv, label in cells:
        refs[rid] = {}
        requests.append(_cli_request(rid, argv, "reject", label, f"tmp/{rid}.json"))
    return requests


def _cli_custom(rng, workdir: Path, refs: dict, p: int) -> list:
    """Fresh Haar-random custom gates for pass p: 8 at n=2, 8 at n=3, 2 at n=4.

    The n=3 gates get rank-8 noise only (no depolarizing), so they form one
    block of similar latency that holds the median of a 32-call pass.
    """
    requests = []
    for i, n in enumerate([2] * 8 + [3] * 8 + [4] * 2):
        rid = f"p{p}-haar-n{n}-{i}"
        u = reference.haar_unitary(rng, 1 << n)
        noise = _family_noise(rng, FAMILIES[i % 3] if n == 2 else FAMILIES[1 + i % 2])
        refs[rid] = reference.expected(u, noise, ghz_chain=False)
        config = {"gate": {"matrix": _pairs(u), "name": rid}, "noise": noise}
        argv = ["certify", "--config", _write_config(workdir, rid, config)]
        requests.append(_cli_request(rid, argv, "report", "certify custom Haar gate " + _label(n, noise), f"tmp/{rid}.json",
                                     kind="haar-" + _noise_kind(n, noise)))
    return requests


def _cli_reports(rng, workdir: Path, refs: dict) -> list:
    """Passes of 32 CLI calls in a fixed seeded order; 3 of the 32 are invalid."""
    (workdir / "configs").mkdir(parents=True, exist_ok=True)
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    fixed = _cli_fixed(rng, workdir, refs)
    custom = [_cli_custom(rng, workdir, refs, p) for p in range(POOL_PASSES)]
    slots = [("fixed", i) for i in range(len(fixed))] + [("custom", i) for i in range(len(custom[0]))]
    order = rng.permutation(len(slots))
    return [
        [fixed[i] if kind == "fixed" else custom[p][i] for kind, i in (slots[j] for j in order)]
        for p in range(POOL_PASSES)
    ]


def generate(workload: str, seed: int, workdir: Path) -> tuple[dict, dict]:
    """Inputs and reference values of one run; config files go under ``workdir``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    refs: dict = {}
    if workload == "sweep_small":
        passes = _sweep_small(rng, refs)
    elif workload == "certify_wide":
        passes = _certify_wide(rng, refs)
    else:
        passes = _cli_reports(rng, workdir, refs)
    kind = "cli" if workload == "cli_reports" else "lib"
    return {"workload": workload, "seed": seed, "kind": kind, "passes": passes}, refs
