"""One benchmark worker process: set-up, then a timed closed loop or a traced replay.

Started by run.py as ``worker.py <workdir> <setup|run|trace> <seconds>`` with
``src`` on PYTHONPATH.  It reads ``inputs.json`` from the work directory (and
``refs.json`` once set-up is over) and writes ``<mode>.json`` there.

* setup: import gatecert, take the inputs, warm up; report the set-up time.
* run:   after set-up, send the requests one at a time (one closed-loop
  client) in whole passes, at least MIN_PASSES and then for as long as
  another pass fits in ``seconds``, and check every output against the
  reference after its timer stops.  Right before each request it times the
  calibration kernel.  Between requests, spaced evenly through the run, it
  starts SETUP_PROBES fresh ``setup`` workers and waits for each, so that
  the set-up samples see the same machine speed as the requests.
* trace: as run, but from one pass up and without set-up probes; after each
  checked request replay it through the public calls of each module inside
  spans, and compare the replayed result with the untraced one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# Spans reported as per-layer times "<span>_s": mean seconds per call.
LAYER_SPANS = (
    "core.build_error_basis", "noise.noisy_gate", "channel.validate", "channel.kraus_to_chi",
    "certify.transfer_z", "certify.transfer_x", "certify.ghz_summary", "certify.report",
    "sampler.sample_transfer", "cli.run_config", "cli.reject", "cli.report_to_dict",
    "cli.chi_to_pairs", "cli.serialize",
)
# Per-layer counts: mean per recorded call, except the basis size (largest seen).
LAYER_COUNTERS = {
    "core.error_basis_mb": max,
    "noise.kraus_rank": statistics.fmean,
    "certify.kraus_applications": statistics.fmean,
    "sampler.shots_drawn": statistics.fmean,
    "cli.report_bytes": statistics.fmean,
}
REPORT_KEYS = (
    "fz", "fx", "f_process_exact", "lower_bound", "upper_bound", "capability_bound",
    "capability_certified", "violation_certified", "ghz_expectation", "ghz_floor",
)
REPLAY_TOL = 1e-12
# Every timed run measures at least this many passes, so each request kind
# has several samples however slow the machine is.  A traced run, whose
# per-layer figures are means over spans, needs only one.
MIN_PASSES = 3
# Fresh set-up-only workers started during a timed run, at most one every
# seconds / SETUP_PROBES of measuring time.
SETUP_PROBES = 8
# Calibrations timed after each set-up; the set-up counts with their median.
SETUP_CALIBRATIONS = 5


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter and small-matrix numpy work.

    It calls no gatecert code, so a change to gatecert cannot change it; only
    the speed of the machine does.  numpy is imported here, after set-up has
    imported it, so that the set-up time still includes importing numpy.
    """
    import numpy as np

    t0 = perf_counter()
    total = 0
    for i in range(30000):
        total += i * i
    a = np.eye(16, dtype=complex) + 0.01j
    x = a
    for _ in range(100):
        x = (a @ x) * 0.5
        np.einsum("ij,jk->ik", a, x)
    return perf_counter() - t0


def replay_certification(tracer, gate, spec, sampled=False, shots=None, seed=0):
    """The public calls that ``certify`` and ``sampled_report`` make, one span each.

    ``Channel`` is constructed once more from the noisy Kraus stack so that its
    validation gets a span of its own; the basis is built before ``kraus_to_chi``
    so that the decomposition is timed without it.
    """
    import gatecert as gc

    with tracer.span("noise.noisy_gate"):
        noisy = gc.noisy_gate(gate, spec)
    tracer.count("noise.kraus_rank", noisy.rank)
    with tracer.span("channel.validate"):
        channel = gc.Channel(noisy.n_qubits, noisy.kraus_ops)
    with tracer.span("core.build_error_basis"):
        basis = gc.build_error_basis(gate)
    tracer.count("core.error_basis_mb", 16**gate.n_qubits * 16 / 1e6)
    with tracer.span("channel.kraus_to_chi"):
        chi = gc.kraus_to_chi(channel, gate, basis)
    with tracer.span("channel.process_fidelity"):
        f_process = gc.process_fidelity(chi)
    extra = {}
    if sampled:
        estimates = {}
        for basis_name in gc.BASES:
            plan = gc.ShotPlan(shots, gc.basis_subseed(seed, basis_name), basis_name)
            with tracer.span("sampler.sample_transfer"):
                estimates[basis_name] = gc.sample_transfer(channel, gate, plan)
            tracer.count("sampler.shots_drawn", estimates[basis_name].shots_total)
        fz, fx = estimates["z"].mean, estimates["x"].mean
        extra = {
            "provenance": "sampled",
            "fz_std_error": estimates["z"].std_error,
            "fx_std_error": estimates["x"].std_error,
            "counts": {b: e.per_input_counts for b, e in estimates.items()},
        }
    else:
        with tracer.span("certify.transfer_z"):
            _, fz = gc.classical_fidelity(channel, gate, "z")
        with tracer.span("certify.transfer_x"):
            _, fx = gc.classical_fidelity(channel, gate, "x")
        tracer.count("certify.kraus_applications", 2 * (1 << gate.n_qubits) * channel.rank)
    with tracer.span("certify.ghz_summary"):
        expectation, floor = gc.ghz_summary(channel, gate, f_process)
    with tracer.span("certify.report"):
        lower, upper = gc.fidelity_bounds(fz, fx)
        cap_bound, cap_ok = gc.capability_bound(fz, fx)
        report = gc.FidelityReport(
            fz=fz, fx=fx, f_process_exact=f_process, lower_bound=lower, upper_bound=upper,
            capability_bound=cap_bound, capability_certified=cap_ok,
            violation_certified=gc.violation_verdict(fz, fx),
            ghz_expectation=expectation, ghz_floor=floor, **extra,
        )
    return report, channel


def _counts(doc) -> dict | None:
    counts = doc.get("counts")
    if counts is None:
        return None
    return {b: {str(k): int(v) for k, v in per.items()} for b, per in counts.items()}


def compare_reports(untraced: dict, replayed: dict) -> list:
    """Replay mismatches: every number within REPLAY_TOL, verdicts and counts equal."""
    problems = []
    for key in REPORT_KEYS:
        a, b = untraced.get(key), replayed.get(key)
        if isinstance(a, float) and isinstance(b, float):
            same = abs(a - b) <= REPLAY_TOL
        else:
            same = a == b
        if not same:
            problems.append(f"replay {key}: {b!r} != untraced {a!r}")
    if _counts(untraced) != _counts(replayed):
        problems.append("replay counts differ from the untraced counts")
    return problems


class LibRunner:
    """Exact ``certify`` through the library; requests at one n share one target."""

    def __init__(self, passes):
        import gatecert as gc

        self.gc = gc
        requests = [r for p in passes for r in p]
        self.gates = {n: gc.ghz_chain_gate(n) for n in sorted({r["n"] for r in requests})}
        self.specs = {r["id"]: self._spec(r["noise"]) for r in requests}

    def _spec(self, noise):
        if noise["kind"] == "random_cptp":
            return self.gc.NoiseSpec(noise["kind"], rank=noise["rank"], seed=noise["seed"])
        return self.gc.NoiseSpec(noise["kind"], strength=noise["p"])

    def warm_up(self):
        gate = self.gc.ghz_chain_gate(2)
        self.gc.certify(self.gc.noisy_gate(gate, self.gc.NoiseSpec("dephasing_per_qubit", 0.1)), gate)

    def run(self, req):
        gate = self.gates[req["n"]]
        return self.gc.certify(self.gc.noisy_gate(gate, self.specs[req["id"]]), gate)

    def observe(self, req, report, ref, checker):
        observed = dataclasses.asdict(report)
        return observed, checker.check_report(observed, ref)

    def replay(self, req, tracer):
        report, _ = replay_certification(tracer, self.gates[req["n"]], self.specs[req["id"]])
        return dataclasses.asdict(report)

    def compare(self, req, observed, replayed):
        return compare_reports(observed, replayed)


class CliRunner:
    """In-process ``gatecert.cli.main(argv)`` calls writing JSON reports."""

    def __init__(self, passes):
        import gatecert as gc
        from gatecert import cli

        self.gc = gc
        self.cli = cli
        self.first_counts: dict[str, dict] = {}

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def warm_up(self):
        argv = ["certify", "--gate", "ghz-chain", "--qubits", "2", "--noise", "dephasing_per_qubit:0.1",
                "--output", "tmp/warm-up.json"]
        self._call(argv)
        if os.path.exists("tmp/warm-up.json"):
            os.remove("tmp/warm-up.json")

    def run(self, req):
        return self._call(req["argv"])

    def observe(self, req, result, ref, checker):
        """Check one call's exit code and output; remove the report it wrote."""
        code, out, err = result
        expect, path = req["expect"], req["output"]
        written = path is not None and os.path.exists(path)
        if expect == "reject":
            problems = [] if code == 1 else [f"exit code {code!r}, expected 1 ({err.strip()[:200]})"]
            if written:
                os.remove(path)
                problems.append("an invalid request wrote a report")
            return {"exit": code}, problems
        if code != 0:
            if written:
                os.remove(path)
            return None, [f"exit code {code!r}, expected 0 ({err.strip()[:200]})"]
        if expect == "basis":
            lines = out.splitlines()
            ok = len(lines) == 3 and lines[0] == f"operators: {4 ** ref['n']}" and lines[2] == "PASS"
            return {"exit": code, "stdout": out}, [] if ok else [f"basis-check printed {out!r}"]
        if not written:
            return None, [f"no report at {path}"]
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        os.remove(path)
        if expect == "sampled":
            problems = checker.check_sampled(doc, ref, req["shots"])
            counts = self.first_counts.setdefault(req["id"], _counts(doc))
            if counts != _counts(doc):
                problems.append("sampled counts differ from an earlier pass")
        else:
            problems = checker.check_report(doc, ref)
        if expect == "chi":
            problems += checker.check_chi(doc.get("chi", []), ref)
        doc.pop("chi", None)
        return doc, problems

    def replay(self, req, tracer):
        """The public calls ``main`` and ``cmd_certify`` make, one span each."""
        cli = self.cli
        if req["expect"] == "reject":
            with tracer.span("cli.reject"):
                code, _, _ = self._call(req["argv"])
            return {"exit": code}
        with tracer.span("cli.run_config"):
            args = cli.build_parser().parse_args(req["argv"])
            config = cli.run_config_from_args(args)
        if args.command == "basis-check":
            with tracer.span("core.build_error_basis"):
                basis = self.gc.build_error_basis(config.gate)
            with tracer.span("core.gram_residual"):
                residual = basis.gram_residual()
            # The lines cmd_basis_check prints after a pass.
            return {"exit": 0, "stdout": f"operators: {len(basis)}\nmax orthogonality residual: {residual:.6e}\nPASS\n"}
        report, channel = replay_certification(
            tracer, config.gate, config.noise, config.mode == "sampled", config.shots, config.seed
        )
        with tracer.span("cli.report_to_dict"):
            doc = cli.report_to_dict(report, config.gate, config.noise)
        if config.include_chi:
            with tracer.span("core.build_error_basis"):
                basis = self.gc.build_error_basis(config.gate)
            with tracer.span("channel.kraus_to_chi"):
                chi = self.gc.kraus_to_chi(channel, config.gate, basis)
            with tracer.span("cli.chi_to_pairs"):
                doc["chi"] = cli.chi_to_pairs(chi)
        with tracer.span("cli.serialize"):
            text = json.dumps(doc, indent=2) + "\n"
        tracer.count("cli.report_bytes", len(text.encode("utf-8")))
        with tracer.span("cli.write"):
            with open(config.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        os.remove(config.output)
        doc.pop("chi", None)
        # Through JSON, so the replayed document has the same types as the parsed one.
        return json.loads(json.dumps(doc))

    def compare(self, req, observed, replayed):
        if req["expect"] in ("reject", "basis"):
            return [] if observed == replayed else [f"replay gave {replayed!r}, untraced {observed!r}"]
        return compare_reports(observed, replayed)


def _error_text() -> str:
    return " | ".join(traceback.format_exc().strip().splitlines()[-3:])


def setup_probe() -> list:
    """[set-up time, calibration time] of a fresh ``setup`` worker on the same work directory."""
    command = [sys.executable, os.path.abspath(__file__), ".", "setup", "0"]
    subprocess.run(command, check=True, timeout=120)
    with open("setup.json", encoding="utf-8") as handle:
        result = json.load(handle)
    return [result["setup_s"], result["setup_calibration_s"]]


def measure(runner, passes, refs, seconds, tracer=None):
    """Closed loop over whole passes; every output is checked after its timer stops.

    The run's clock leaves out the set-up probes, which run between requests.
    """
    import reference

    pass_latencies, pass_calibrations, traced, failures, setups = [], [], [], [], []
    probe_every = seconds / SETUP_PROBES
    min_passes = MIN_PASSES if tracer is None else 1
    probe_s = 0.0
    start = perf_counter()
    done = 0
    while True:
        pass_start = perf_counter() - probe_s
        latencies, calibrations = [], []
        for req in passes[done % len(passes)]:
            calibrations.append(calibrate())
            t0 = perf_counter()
            try:
                result, error = runner.run(req), None
            except Exception:  # a failing request is counted and logged, not fatal
                result, error = None, "raised: " + _error_text()
            latencies.append(perf_counter() - t0)
            try:
                observed, problems = (None, [error]) if error else runner.observe(req, result, refs[req["id"]], reference)
            except Exception:
                problems = ["output check raised: " + _error_text()]
            if tracer is not None and not problems:
                tracer.request_id = f"{done}:{req['id']}"
                t0 = perf_counter()
                try:
                    with tracer.span("request"):
                        replayed = runner.replay(req, tracer)
                    traced.append(perf_counter() - t0)
                    problems = runner.compare(req, observed, replayed)
                except Exception:
                    problems = ["replay raised: " + _error_text()]
            if problems:
                failures.append({"pass": done, "id": req["id"], "request": req["label"], "problems": problems})
            due = len(setups) < SETUP_PROBES and perf_counter() - probe_s - start >= probe_every * (len(setups) + 1)
            if tracer is None and due:
                t0 = perf_counter()
                setups.append(setup_probe())
                probe_s += perf_counter() - t0
        pass_latencies.append(latencies)
        pass_calibrations.append(calibrations)
        done += 1
        now = perf_counter() - probe_s
        if done >= min_passes and now + (now - pass_start) - start > seconds:  # another pass would not fit
            break
    return {"pass_latencies": pass_latencies, "pass_calibrations": pass_calibrations, "traced_latencies": traced,
            "failures": failures, "passes": done, "probe_setups": setups}


def per_layer(tracer, latencies, traced) -> dict:
    """Per-layer metrics from the spans and counters; 0 for a layer the workload never runs."""
    values = {}
    for span in LAYER_SPANS:
        durations = tracer.durations(span)
        values[f"{span}_s"] = statistics.fmean(durations) if durations else 0.0
    for name, reduce in LAYER_COUNTERS.items():
        recorded = tracer.counters.get(name)
        values[name] = float(reduce(recorded)) if recorded else 0.0
    transfer_s = sum(tracer.durations("certify.transfer_z")) + sum(tracer.durations("certify.transfer_x"))
    applications = sum(tracer.counters.get("certify.kraus_applications", []))
    values["certify.transfer_rate_per_s"] = applications / transfer_s if transfer_s else 0.0
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(latencies) if traced else 0.0
    return values


def main(argv) -> int:
    workdir, mode, seconds = Path(argv[1]), argv[2], float(argv[3])
    os.chdir(workdir)
    start = perf_counter()
    import gatecert

    with open("inputs.json", encoding="utf-8") as handle:
        inputs = json.load(handle)
    runner = (CliRunner if inputs["kind"] == "cli" else LibRunner)(inputs["passes"])
    try:
        runner.warm_up()
        warm_up_error = None
    except Exception:  # the timed requests will fail the same way and be counted
        warm_up_error = _error_text()
    result = {"setup_s": perf_counter() - start, "gatecert_file": gatecert.__file__, "warm_up_error": warm_up_error}
    result["setup_calibration_s"] = statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))
    if mode != "setup":
        from spans import Tracer

        with open("refs.json", encoding="utf-8") as handle:
            refs = json.load(handle)
        tracer = Tracer() if mode == "trace" else None
        result.update(measure(runner, inputs["passes"], refs, seconds, tracer))
        if tracer is not None:
            latencies = [t for p in result["pass_latencies"] for t in p]
            result["per_layer"] = per_layer(tracer, latencies, result["traced_latencies"])
            result["self_times"] = tracer.self_times()
            tracer.dump("spans.json")
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(f"{mode}.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
