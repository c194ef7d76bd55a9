#!/usr/bin/env python3
"""gatecert benchmark launcher.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

For each workload it draws the inputs and their reference values from the seed,
then starts a fresh worker process (``worker.py``) with ``src`` on the import
path.  The worker runs the timed closed loop with set-up probes spread through
it (``--trace 0``) or the traced replay (``--trace 1``), and times a
calibration kernel before each request, by which the launcher scales the timed
figures to a fixed machine speed (see CAL_REF_S).  The launcher prints
the provenance, every metric by name with its unit, any failing request, and
as the last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Work files, the summary and the spans go to
``perfbench/out/<workload>-seed<seed>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# One closed-loop client in one process on a small shared machine: BLAS gets
# one thread (at most nproc), so results do not depend on idle cores.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc raises its mmap threshold each time it frees a large block, so whether
# a 16 MB array ends up in the heap, and stays resident after it is freed,
# depends on the order of earlier frees; peak RSS of certify_wide then read
# 129 or 144 MB from one seed to the next.  A fixed threshold (glibc's starting
# value) returns every block of 128 KiB or more when it is freed, so peak RSS
# follows the peak of live data.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}
# The timed figures are wall times scaled to one fixed machine speed: each
# is multiplied by CAL_REF_S / (the calibration kernel's time measured around
# it, see worker.calibrate).  A shared VM runs all code up to 1.6x slower for
# stretches of seconds to minutes, which moves the wall times of whole runs;
# the ratio of a request to the calibrations around it moves far less.
# CAL_REF_S is about the kernel's median time on the 2-vCPU Xeon VM the
# benchmark was sized on, so the scaled figures stay close to its wall times.
CAL_REF_S = 0.005
# Calibrations, centred on a request, whose median is its machine speed.  One
# 5-ms timing is noisy and a 10-s request outlasts it; the median of 15
# follows the speed over about 1.5 s of cli_reports requests, or over a whole
# certify_wide run.
CAL_WINDOW = 15
# A workload must end within its measuring time plus this allowance for
# generating inputs, set-up probes and the passes a slow machine runs past
# --seconds to reach the minimum pass count (170 s in all at --seconds 50).
DEADLINE_ALLOWANCE_S = 120.0

END_TO_END = {
    "throughput_per_s": "req/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_ratio": "1",
}
PER_LAYER = {
    "core.build_error_basis_s": "s",
    "core.error_basis_mb": "MB",
    "noise.noisy_gate_s": "s",
    "noise.kraus_rank": "count",
    "channel.validate_s": "s",
    "channel.kraus_to_chi_s": "s",
    "certify.transfer_z_s": "s",
    "certify.transfer_x_s": "s",
    "certify.kraus_applications": "count",
    "certify.transfer_rate_per_s": "1/s",
    "certify.ghz_summary_s": "s",
    "certify.report_s": "s",
    "sampler.sample_transfer_s": "s",
    "sampler.shots_drawn": "count",
    "cli.run_config_s": "s",
    "cli.reject_s": "s",
    "cli.report_to_dict_s": "s",
    "cli.chi_to_pairs_s": "s",
    "cli.serialize_s": "s",
    "cli.report_bytes": "B",
    "trace.overhead_ratio": "1",
}


def tail_latency(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the highest percentile with at
    least ten samples beyond it, never below p90 by nearest rank; with fewer than
    100 samples the p90 is reported and fewer than ten lie beyond it."""
    ordered = sorted(samples)
    count = len(ordered)
    rank = max(count - 10, math.ceil(0.9 * count))
    return ordered[rank - 1], 100.0 * rank / count, count - rank


def scaled(by_pass: list, calibrations: list) -> list:
    """Latencies per pass, each scaled by CAL_REF_S over the median calibration
    of the CAL_WINDOW requests centred on it."""
    flat = [c for p in calibrations for c in p]
    out, i = [], 0
    for latencies in by_pass:
        row = []
        for latency in latencies:
            lo = max(0, min(i - CAL_WINDOW // 2, len(flat) - CAL_WINDOW))
            row.append(latency * CAL_REF_S / statistics.median(flat[lo:lo + CAL_WINDOW]))
            i += 1
        out.append(row)
    return out


def typical_pass(by_pass: list, kinds: list) -> list:
    """One latency per request of a pass: the median run of its kind over the run.

    The latency of one request swings by up to 2x from one request to the
    next on a shared machine; the median of a kind barely moves, while its
    fastest run is a rare low outlier that varies from run to run.
    """
    runs_of_kind: dict[str, list] = {}
    for pass_latencies in by_pass:
        for kind, latency in zip(kinds, pass_latencies):
            runs_of_kind.setdefault(kind, []).append(latency)
    return [statistics.median(runs_of_kind[kind]) for kind in kinds]


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gatecert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas_threads_in_use() -> int | None:
    """Ask the loaded OpenBLAS how many threads it will use."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line})
        for path in paths:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    return int(getattr(lib, symbol)())
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})".strip(),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
    }


def _worker(workdir: Path, mode: str, seconds: float, env: dict, deadline: float) -> dict:
    command = [sys.executable, str(BENCH / "worker.py"), str(workdir), mode, repr(seconds)]
    # Its own process group, so that a set-up probe it has started is stopped with it.
    worker = subprocess.Popen(command, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        returncode = worker.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.wait()
        raise
    if returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {returncode}")
    with open(workdir / f"{mode}.json", encoding="utf-8") as handle:
        result = json.load(handle)
    if not Path(result["gatecert_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"worker imported gatecert from {result['gatecert_file']}, not from {SRC}")
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float, prov: dict) -> dict:
    from workloads import generate

    workdir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs, refs = generate(workload, seed, workdir)
    for name, doc in (("inputs.json", inputs), ("refs.json", refs)):
        with open(workdir / name, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    env = dict(os.environ, **MALLOC_ENV,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = _worker(workdir, "trace" if trace else "run", seconds, env, deadline)
    for work_files in ("configs", "tmp"):
        shutil.rmtree(workdir / work_files, ignore_errors=True)
    setups = [[result["setup_s"], result["setup_calibration_s"]]] + result["probe_setups"]

    by_pass = result["pass_latencies"]
    latencies = [t for p in by_pass for t in p]
    kinds = [req["kind"] for req in inputs["passes"][0]]
    typical = typical_pass(scaled(by_pass, result["pass_calibrations"]), kinds)
    wall = typical_pass(by_pass, kinds)
    attempted, failed = len(latencies), len(result["failures"])
    correct = attempted - failed
    tail, percentile, beyond = tail_latency(typical)
    summary = {
        "provenance": prov,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "error_ratio": failed / attempted,
        "passes": result["passes"],
        "latency_tail": {"percentile": percentile, "samples_beyond": beyond, "samples": len(typical)},
        "typical_pass_latencies": typical,
        "all_passes": {"throughput_per_s": correct / sum(latencies),
                       "latency_p50_s": statistics.median(latencies)},
        "wall_clock": {"throughput_per_s": correct / attempted * len(wall) / sum(wall),
                       "latency_p50_s": statistics.median(wall),
                       "latency_tail_s": tail_latency(wall)[0],
                       "setup_s": statistics.median(s for s, _ in setups)},
        "calibration_s": statistics.median(c for p in result["pass_calibrations"] for c in p),
        "setup_samples": setups,
        "warm_up_error": result["warm_up_error"],
        "failures": result["failures"],
    }
    if trace:
        summary["metrics"] = {name: result["per_layer"][name] for name in PER_LAYER}
        summary["self_times"] = result["self_times"]
    else:
        summary["metrics"] = {
            "throughput_per_s": correct / attempted * len(typical) / sum(typical),
            "latency_p50_s": statistics.median(typical),
            "latency_tail_s": tail,
            "peak_rss_mb": result["peak_rss_kb"] * 1024 / 1e6,
            "setup_s": statistics.median(s * CAL_REF_S / c for s, c in setups),
            "success_ratio": correct / attempted,
        }
    with open(workdir / "summary.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    return summary


def print_summary(summary: dict) -> None:
    units = PER_LAYER if summary["trace"] else END_TO_END
    print(f"workload {summary['workload']} seed {summary['seed']} trace {int(summary['trace'])}: "
          f"{summary['attempted']} requests in {summary['passes']} passes, {summary['failed']} failed "
          f"(error_ratio {summary['error_ratio']:.6g})")
    notes = {
        "latency_tail_s": "p{percentile:.2f}, {samples_beyond} of {samples} samples beyond".format(**summary["latency_tail"]),
        "setup_s": f"median of {len(summary['setup_samples'])} set-ups",
    }
    typical = (f"typical pass of {len(summary['typical_pass_latencies'])} requests, "
               f"each the median of its kind over {summary['passes']} passes")
    notes["throughput_per_s"] = notes["latency_p50_s"] = typical
    if not summary["trace"]:
        print(f"  calibration kernel: median {summary['calibration_s']:.6g} s; timed figures are scaled "
              f"by {CAL_REF_S} s / the calibrations around them")
        for name, value in summary["wall_clock"].items():
            notes[name] += f"; wall clock {value:.6g}"
    for name, value in summary["metrics"].items():
        note = f"  ({notes[name]})" if name in notes and not summary["trace"] else ""
        print(f"  {name:<30} {value:>14.6g} {units[name]}{note}")
    if summary["trace"] and "request" in summary["self_times"]:
        rows = summary["self_times"]
        traced = rows["request"]["total_s"]
        print(f"  self time by span, share of {traced:.3f} s of traced requests:")
        for name, row in sorted(rows.items(), key=lambda item: -item[1]["self_s"]):
            print(f"    {name:<28} calls {row['calls']:>6}  total {row['total_s']:>9.4f} s"
                  f"  self {row['self_s']:>9.4f} s  {100 * row['self_s'] / traced:6.2f} %")
    if summary["warm_up_error"]:
        print(f"  WARM-UP FAILED: {summary['warm_up_error']}")
    for failure in summary["failures"][:20]:
        print(f"  FAILED pass {failure['pass']} {failure['id']} [{failure['request']}]: {'; '.join(failure['problems'])}")
    if len(summary["failures"]) > 20:
        print(f"  ... {len(summary['failures']) - 20} more failures in summary.json")


def main(argv=None) -> int:
    for name in BLAS_ENV:  # before numpy is imported
        os.environ[name] = str(BLAS_THREADS)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="Run the gatecert benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gatecert" / "__init__.py").is_file():
        print(f"error: gatecert sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    prov = provenance(args.seed)
    print("provenance " + json.dumps(prov))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for name in names:
        try:
            summaries.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                          time.monotonic() + args.seconds + DEADLINE_ALLOWANCE_S, prov))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        print_summary(summaries[-1])
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for summary in summaries:
        prefix = f"{summary['workload']}." if args.workload == "all" else ""
        for name, value in summary["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
