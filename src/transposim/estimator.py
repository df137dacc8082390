"""Interferometric overlap estimation: exact probabilities and shot sampling.

The ancilla of the overlap-test circuit reads |0> with probability
(1 + tr{rho sigma})/2, so the outcome distribution is fully determined and is
sampled directly rather than simulated gate by gate.  Verdicts use Hoeffding
bounds, which are valid at every shot count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .linalg import DensityMatrix, _as_int, _as_seed, real_trace_product
from .witness import ApproxWitness

# the largest shot count numpy's binomial sampler takes (its count is an int64)
MAX_SHOTS = 2**63 - 1


@dataclass(frozen=True)
class ShotResult:
    shots: int
    zeros: int
    estimate: float  # estimate of tr{rho sigma} = 2 zeros/shots - 1
    std_error: float
    confidence_interval: tuple[float, float]
    level: float


@dataclass(frozen=True)
class EstimatorVerdict:
    verdict: str  # detected | not-detected | inconclusive
    threshold: float
    lower_bound: float
    upper_bound: float
    shot_result: ShotResult


def swap_test_probability(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """p(|0>) = (1 + tr{rho sigma}) / 2, computed exactly."""
    if rho.dim != sigma.dim:
        raise DomainError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    return (1.0 + real_trace_product(rho, sigma)) / 2.0


def hoeffding_epsilon(shots: int, level: float) -> float:
    """One-sided Hoeffding deviation for the overlap estimate at the given level.

    The one check of both: a level outside (0, 1), or a shot count that is not
    an integer (`linalg._as_int`) in 1..MAX_SHOTS, is a DomainError.
    """
    if not 0.0 < level < 1.0:
        raise DomainError(f"confidence level must lie in (0, 1), got {level}")
    shots = _as_int(shots, "shot count")
    if not 1 <= shots <= MAX_SHOTS:
        raise DomainError(f"shot count must lie in 1..{MAX_SHOTS}, got {shots}")
    return 2.0 * np.sqrt(np.log(1.0 / (1.0 - level)) / (2.0 * shots))


def sample_overlap(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    shots: int,
    seed: int,
    level: float = 0.95,
) -> ShotResult:
    """Simulate the ancilla statistics for `shots` repetitions, seeded.

    `shots` and `level` are checked first, by `hoeffding_epsilon`; `seed`
    follows the integer rule of `linalg._as_int` and must be >= 0.
    """
    eps = hoeffding_epsilon(shots, level)
    shots = int(shots)
    seed = _as_seed(seed)
    p0 = swap_test_probability(rho, sigma)
    p0 = min(1.0, max(0.0, p0))
    rng = np.random.default_rng(seed)
    zeros = int(rng.binomial(shots, p0))
    p_hat = zeros / shots
    estimate = 2.0 * p_hat - 1.0
    std_error = 2.0 * np.sqrt(p_hat * (1.0 - p_hat) / shots)
    return ShotResult(
        shots=shots,
        zeros=zeros,
        estimate=estimate,
        std_error=float(std_error),
        confidence_interval=(estimate - eps, estimate + eps),
        level=level,
    )


def detect_with_confidence(
    rho: DensityMatrix,
    a: ApproxWitness,
    shots: int,
    seed: int,
    level: float = 0.99,
) -> EstimatorVerdict:
    """Shot-based detection verdict with distribution-free confidence bounds.

    `detected` when the upper bound on tr{rho rho_W} falls below the
    threshold, `not-detected` when the lower bound clears it, `inconclusive`
    when the interval straddles the threshold.
    """
    sr = sample_overlap(rho, a.state, shots, seed, level=level)
    lo, hi = sr.confidence_interval
    if hi < a.threshold:
        verdict = "detected"
    elif lo > a.threshold:
        verdict = "not-detected"
    else:
        verdict = "inconclusive"
    return EstimatorVerdict(
        verdict=verdict,
        threshold=a.threshold,
        lower_bound=lo,
        upper_bound=hi,
        shot_result=sr,
    )


def estimator_to_dict(v: EstimatorVerdict) -> dict:
    sr = v.shot_result
    return {
        "verdict": v.verdict,
        "threshold": v.threshold,
        "lower_bound": v.lower_bound,
        "upper_bound": v.upper_bound,
        "shots": sr.shots,
        "zeros": sr.zeros,
        "estimate": sr.estimate,
        "std_error": sr.std_error,
        "level": sr.level,
    }
