"""Reference values computed with numpy alone, and the checks that compare
gatecert's outputs against them.

Nothing here imports gatecert.  The noise families are rebuilt from their
definitions; only ``random_cptp`` repeats gatecert's seeded construction,
because that construction is what defines the channel a seed names.

For a channel with Kraus operators K_m and target U, with M_m = U^dag K_m:

* fz = mean over n of sum_m |<n|M_m|n>|^2
* fx = the same quantity in the H^(x)n frame, M_m -> H M_m H
* F  = sum_m |Tr M_m|^2 / 4**n
"""

from __future__ import annotations

from functools import reduce

import numpy as np

TOL = 1e-9
CAPABILITY_THRESHOLD = 3.0 / 4.0
VIOLATION_THRESHOLD = 7.0 / 8.0

_I = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)


def _kron(factors) -> np.ndarray:
    return reduce(np.kron, factors)


def ghz_chain_unitary(n: int) -> np.ndarray:
    """Qubit 0 controls an X on every other qubit (qubit 0 is the top bit)."""
    d = 1 << n
    half = d >> 1
    u = np.zeros((d, d), dtype=np.complex128)
    for col in range(d):
        u[col ^ (half - 1) if col & half else col, col] = 1.0
    return u


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a Ginibre matrix with the R phases removed."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _pauli_product(factor: np.ndarray, mask: int, n: int) -> np.ndarray:
    return _kron([factor if (mask >> (n - 1 - k)) & 1 else _I for k in range(n)])


def noise_kraus(kind: str, n: int, p: float = 0.0, rank: int = 1, seed: int = 0) -> np.ndarray:
    """Kraus operators of a noise family, shape (m, 2**n, 2**n)."""
    d = 1 << n
    if kind == "depolarizing_global":
        single = (_I, _X, _Y, _Z)
        ops = [np.sqrt(1.0 - p + p / d**2) * np.eye(d)]
        for labels in np.ndindex(*(4,) * n):
            if any(labels):
                ops.append(np.sqrt(p / d**2) * _kron([single[i] for i in labels]))
        return np.array(ops)
    if kind in ("dephasing_per_qubit", "bitflip_per_qubit"):
        factor = _Z if kind == "dephasing_per_qubit" else _X
        ops = []
        for mask in range(d):
            flips = bin(mask).count("1")
            weight = (1.0 - p) ** (n - flips) * p**flips
            ops.append(np.sqrt(weight) * _pauli_product(factor, mask, n))
        return np.array(ops)
    if kind == "random_cptp":
        rng = np.random.default_rng(seed)
        ginibre = rng.standard_normal((rank * d, d)) + 1j * rng.standard_normal((rank * d, d))
        isometry, _ = np.linalg.qr(ginibre)
        return isometry.reshape(rank, d, d)
    raise ValueError(f"no reference for noise kind {kind!r}")


def fidelities(u: np.ndarray, noise: np.ndarray) -> dict:
    """fz, fx and F of the channel rho -> sum N_m U rho U^dag N_m^dag against U."""
    d = u.shape[0]
    n = d.bit_length() - 1
    rel = u.conj().T @ noise @ u  # U^dag K_m with K_m = N_m U
    hadamard = _kron([_H] * n)
    rel_x = hadamard @ rel @ hadamard
    fz = float(np.sum(np.abs(np.diagonal(rel, axis1=1, axis2=2)) ** 2) / d)
    fx = float(np.sum(np.abs(np.diagonal(rel_x, axis1=1, axis2=2)) ** 2) / d)
    f = float(np.sum(np.abs(np.trace(rel, axis1=1, axis2=2)) ** 2) / d**2)
    return {"fz": fz, "fx": fx, "f_process_exact": f}


def closed_form(kind: str, n: int, p: float) -> dict | None:
    """Closed forms for the standard families on the ghz-chain target."""
    if kind == "depolarizing_global":
        return {"fz": 1 - p + p / 2**n, "fx": 1 - p + p / 2**n, "f_process_exact": 1 - p + p / 4**n}
    if kind == "dephasing_per_qubit":
        return {"fz": 1.0, "fx": (1 - p) ** n, "f_process_exact": (1 - p) ** n}
    if kind == "bitflip_per_qubit":
        return {"fz": (1 - p) ** n, "fx": 1.0, "f_process_exact": (1 - p) ** n}
    return None


def ghz_correlation(u: np.ndarray, noise: np.ndarray) -> float:
    """<XXX - XYY - YXY - YYX> on the channel output for (|000> + |100>)/sqrt(2)."""
    corr = _kron([_X, _X, _X]) - _kron([_X, _Y, _Y]) - _kron([_Y, _X, _Y]) - _kron([_Y, _Y, _X])
    psi = np.zeros(8, dtype=np.complex128)
    psi[0] = psi[4] = 1.0 / np.sqrt(2.0)
    out = noise @ (u @ psi)
    return float(np.einsum("mi,ij,mj->", out.conj(), corr, out).real)


def expected(u: np.ndarray, noise_spec: dict, ghz_chain: bool) -> dict:
    """Every reference value a report for this request must match.

    On the ghz-chain target the general formulas are cross-checked against the
    closed forms, so a mistake in this module cannot pass silently.
    """
    n = u.shape[0].bit_length() - 1
    kind = noise_spec["kind"]
    p = noise_spec.get("p", 0.0)
    kraus = noise_kraus(kind, n, p, noise_spec.get("rank", 1), noise_spec.get("seed", 0))
    ref = fidelities(u, kraus)
    closed = closed_form(kind, n, p) if ghz_chain else None
    for key, value in (closed or {}).items():
        if abs(ref[key] - value) > 1e-12:
            raise RuntimeError(f"reference {key} {ref[key]!r} != closed form {value!r} ({kind}, n={n})")
    if ghz_chain and n == 3:
        ref["ghz_expectation"] = ghz_correlation(u, kraus)
        ref["ghz_floor"] = 8.0 * ref["f_process_exact"] - 4.0
    else:
        ref["ghz_expectation"] = ref["ghz_floor"] = None
    ref["n"] = n
    return ref


def _close(name: str, got, want, problems: list, tol: float = TOL) -> None:
    if want is None or got is None:
        if want is not got:
            problems.append(f"{name}: got {got!r}, expected {want!r}")
        return
    if not abs(got - want) <= tol:
        problems.append(f"{name}: got {got!r}, expected {want!r} (|diff| {abs(got - want):.3e})")


def _verdict(name: str, got, mean: float, threshold: float, problems: list) -> None:
    if abs(mean - threshold) > TOL and bool(got) != (mean > threshold):
        problems.append(f"{name}: got {got!r} for (fz + fx)/2 = {mean!r}")


def _check_derived(doc: dict, fz: float, fx: float, problems: list) -> None:
    """The bounds, capability bound and verdicts a report derives from fz and fx."""
    _close("lower_bound", doc.get("lower_bound"), fz + fx - 1.0, problems)
    _close("upper_bound", doc.get("upper_bound"), min(fz, fx), problems)
    _close("capability_bound", doc.get("capability_bound"), 2.0 * (fz + fx) - 3.0, problems)
    _verdict("capability_certified", doc.get("capability_certified"), (fz + fx) / 2, CAPABILITY_THRESHOLD, problems)
    _verdict("violation_certified", doc.get("violation_certified"), (fz + fx) / 2, VIOLATION_THRESHOLD, problems)


def check_report(doc: dict, ref: dict) -> list:
    """Problems with an exact report, as a list of messages (empty when it is right)."""
    problems = []
    for key in ("fz", "fx", "f_process_exact", "ghz_expectation", "ghz_floor"):
        _close(key, doc.get(key), ref[key], problems)
    _check_derived(doc, ref["fz"], ref["fx"], problems)
    return problems


def check_sampled(doc: dict, ref: dict, shots: int) -> list:
    """Problems with a sampled report: counts in range and matching their means,
    estimates within six standard deviations of the exact fidelities, the bounds
    and verdicts derived from the report's own estimates, and the exact F and
    GHZ correlation."""
    problems = []
    for key in ("f_process_exact", "ghz_expectation", "ghz_floor"):
        _close(key, doc.get(key), ref[key], problems)
    inputs = 1 << ref["n"]
    total = shots * inputs
    counts = doc.get("counts") or {}
    for basis in ("z", "x"):
        per_input = counts.get(basis, {})
        values = [int(c) for c in per_input.values()]
        if len(values) != inputs or any(not 0 <= c <= shots for c in values):
            problems.append(f"counts[{basis}]: {len(values)} entries, expected {inputs} in [0, {shots}]")
            continue
        mean = doc.get(f"f{basis}")
        _close(f"f{basis} vs counts", mean, sum(values) / total, problems, tol=1e-12)
        exact = ref[f"f{basis}"]
        sigma = np.sqrt(max(exact * (1.0 - exact), 0.0) / total)
        _close(f"f{basis} vs exact", mean, exact, problems, tol=6.0 * sigma + TOL)
    fz, fx = doc.get("fz"), doc.get("fx")
    if isinstance(fz, float) and isinstance(fx, float):
        _check_derived(doc, fz, fx, problems)
    else:
        problems.append(f"sampled fz, fx: got {fz!r}, {fx!r}")
    return problems


def check_chi(chi_pairs: list, ref: dict) -> list:
    """Problems with an embedded chi: its trace must be 1 and chi_00 must equal F."""
    problems = []
    size = 1 << (2 * ref["n"])
    if len(chi_pairs) != size:
        return [f"chi has {len(chi_pairs)} rows, expected {size}"]
    trace = sum(chi_pairs[a][a][0] for a in range(size))
    _close("chi trace", trace, 1.0, problems)
    _close("chi_00", chi_pairs[0][0][0], ref["f_process_exact"], problems)
    return problems
