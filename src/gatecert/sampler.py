"""Finite-shot estimation of the transfer fidelities, seeded and reproducible.

Shot noise is simulated by drawing, for each basis input, a binomial count
of successes out of M shots at the exact success probability the simulator
computes for that input.  Pooling all 2**n * M shots gives the estimate and
its standard error sqrt(p (1 - p) / total).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Channel
from .certify import BASES, FidelityReport, _assemble_report, _checked_transfer, classical_fidelity
from .core import GateSpec
from .tolerances import TOL

__all__ = ["ShotPlan", "FidelityEstimate", "sample_transfer", "sampled_report", "basis_subseed"]

# Fixed 64-bit tags XOR-ed into the user seed, one per basis, so the two
# measurement runs use decorrelated but reproducible random streams.
_BASIS_TAGS = {"z": 0x8C9F2A5711D36E04, "x": 0x35B6D1E87C409AF2}


def basis_subseed(seed: int, basis: str) -> int:
    """Derived seed for one basis: the user seed XOR a fixed per-basis tag."""
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
    return seed ^ _BASIS_TAGS[basis]


@dataclass(frozen=True)
class ShotPlan:
    """How many shots to spend per input state, and where the randomness comes from."""

    shots_per_input: int
    seed: int
    basis: str

    def __post_init__(self):
        # numpy's binomial draw takes the shot count as an int64
        if not 1 <= self.shots_per_input <= np.iinfo(np.int64).max:
            raise ValueError(f"shots_per_input must lie in [1, {np.iinfo(np.int64).max}], got {self.shots_per_input!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        if self.basis not in BASES:
            raise ValueError(f"basis must be one of {BASES}, got {self.basis!r}")


@dataclass(frozen=True)
class FidelityEstimate:
    """Pooled finite-shot estimate of one transfer fidelity."""

    mean: float
    std_error: float
    shots_total: int
    per_input_counts: dict[int, int]

    def __post_init__(self):
        if not 0.0 <= self.mean <= 1.0:
            raise ValueError(f"estimated mean must lie in [0, 1], got {self.mean!r}")
        if not self.std_error >= 0.0:
            raise ValueError(f"standard error must be non-negative, got {self.std_error!r}")
        successes = sum(self.per_input_counts.values())
        if self.shots_total < len(self.per_input_counts) or successes > self.shots_total:
            raise ValueError("success counts exceed the recorded shot total")
        if not abs(self.mean - successes / self.shots_total) <= TOL.pooled_mean:
            raise ValueError("estimated mean disagrees with the pooled counts")


def _draw(probabilities: np.ndarray, plan: ShotPlan) -> FidelityEstimate:
    """Pool binomial success counts drawn at the per-input ``probabilities`` under ``plan``."""
    rng = np.random.default_rng(plan.seed)
    shots = plan.shots_per_input
    counts = dict(enumerate(rng.binomial(shots, probabilities).tolist()))
    total = shots * len(counts)
    pooled = sum(counts.values()) / total
    std_error = float(np.sqrt(pooled * (1.0 - pooled) / total))
    return FidelityEstimate(pooled, std_error, total, counts)


def sample_transfer(channel: Channel, gate: GateSpec, plan: ShotPlan) -> FidelityEstimate:
    """Simulate M shots per basis input and pool them into one estimate.

    All inputs are drawn in one call, in index order, from a single generator
    seeded from the plan, so a given (channel, gate, plan) triple always
    produces identical counts.
    """
    probabilities, _ = classical_fidelity(channel, gate, plan.basis)
    return _draw(probabilities, plan)


def sampled_report(channel: Channel, gate: GateSpec, shots_per_input: int, seed: int) -> FidelityReport:
    """Certification report with finite-shot fz and fx instead of exact values.

    The exact pass is ``certify``'s own (``certify._checked_transfer``), with
    every internal check it runs; the counts of each basis are then drawn from
    its per-input probabilities with the sub-seed of ``basis_subseed``, the
    same counts ``sample_transfer`` draws.  All bound and verdict arithmetic
    runs on the estimated means.  The process fidelity and the three-party
    correlation remain exact simulator ground truth, bit for bit those of
    ``certify``, so a sampled report can show the estimates landing outside
    the exact sandwich; that scatter is the point of sampling.
    """
    plans = {basis: ShotPlan(shots_per_input, basis_subseed(seed, basis), basis) for basis in BASES}
    f_process, sweeps = _checked_transfer(channel, gate)
    est_z, est_x = (_draw(sweeps[basis][0], plan) for basis, plan in plans.items())
    return _assemble_report(
        channel,
        gate,
        f_process,
        est_z.mean,
        est_x.mean,
        provenance="sampled",
        fz_std_error=est_z.std_error,
        fx_std_error=est_x.std_error,
        counts={"z": est_z.per_input_counts, "x": est_x.per_input_counts},
    )
