"""Hypothesis-test detectors for poisoned collection rounds.

* Tree rounds (OUE): the number of 1s in an honest report follows
  ``Bin(n-1, q) + Bin(1, 1/2)``.  The detector counts reports whose 1-count
  falls outside a central interval and flags the round when that count
  exceeds a normal-approximation threshold.
* Grid rounds (OLH): honest users pick hash functions uniformly, so the
  maximum per-function usage follows a balls-into-bins law estimated by
  simulation; the round is flagged when the observed maximum load is in the
  distribution's upper alpha tail.

:func:`binomial_pmf` is the one binomial law of the package: the tree
detector's 1-count law and the adaptive grid attack's per-function honest
load are built from it.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .freq_oracles import OueParams

__all__ = [
    "DetectionResult",
    "binomial_pmf",
    "ones_count_cdf",
    "tree_detect",
    "MaxLoadCdf",
    "max_load_cdf",
    "grid_detect",
]


@dataclass(frozen=True)
class DetectionResult:
    detected: bool
    statistic: float
    threshold: float
    metadata: dict = field(default_factory=dict)


def binomial_pmf(n: int, q: float) -> np.ndarray:
    """Exact pmf of ``Bin(n, q)``: ``P[X = k]`` for k in 0..n.

    Built from ``math.lgamma`` log terms; ``q`` of 0 or 1 puts all mass on
    0 or ``n``.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if q in (0.0, 1.0):
        pmf = np.zeros(n + 1)
        pmf[n if q == 1.0 else 0] = 1.0
        return pmf
    k = np.arange(n + 1)
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(n + 1)])  # log(j!)
    log_choose = log_fact[n] - log_fact[k] - log_fact[n - k]
    return np.exp(log_choose + k * math.log(q) + (n - k) * math.log1p(-q))


def ones_count_cdf(n: int, q: float) -> np.ndarray:
    """Exact CDF of the honest OUE 1-count: Bin(n-1, q) + Bin(1, 1/2).

    Returns an array ``F`` with ``F[x] = P[count <= x]`` for x in 0..n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    pmf = np.convolve(binomial_pmf(n - 1, q), [0.5, 0.5])
    return np.minimum(np.cumsum(pmf), 1.0)


def tree_detect(
    ones_counts: Sequence[int],
    n: int,
    epsilon: float,
    alpha: float = 0.005,
) -> DetectionResult:
    """Ones-count interval test over one OUE round.

    The central interval [I-, I+] holds all but ``outside_mass =
    (1 - sqrt(1 / (1 + z_alpha^2))) / 2`` of the honest 1-count law (split
    evenly between tails), where ``z_alpha`` is the standard normal
    ``1 - alpha`` quantile; the statistic is the number of reports outside
    it, thresholded at its honest mean plus ``z_alpha`` standard deviations.
    Both constants are reported as metadata.
    """
    counts = np.asarray(ones_counts, dtype=np.int64)
    if counts.size == 0:
        raise ValueError("empty round")
    cdf = ones_count_cdf(n, OueParams(epsilon, n).q)
    z_alpha = statistics.NormalDist().inv_cdf(1.0 - alpha)
    f_out = (1.0 - math.sqrt(1.0 / (1.0 + z_alpha**2))) / 2.0
    half = f_out / 2.0

    below = np.nonzero(cdf <= half)[0]
    i_minus = int(below[-1]) if below.size else -1
    i_plus = int(np.nonzero(cdf >= 1.0 - half)[0][0])

    n_users = counts.size
    statistic = float(np.count_nonzero((counts < i_minus) | (counts > i_plus)))
    threshold = n_users * f_out + z_alpha * math.sqrt(n_users * f_out * (1.0 - f_out))
    return DetectionResult(
        detected=statistic > threshold,
        statistic=statistic,
        threshold=threshold,
        metadata={"interval": (i_minus, i_plus), "outside_mass": f_out, "z_alpha": z_alpha},
    )


@dataclass(frozen=True)
class MaxLoadCdf:
    """Empirical distribution of the max balls-into-bins occupancy."""

    n_balls: int
    n_bins: int
    samples: np.ndarray

    def cdf(self, x: float) -> float:
        return float(np.mean(self.samples <= x))

    def threshold(self, alpha: float) -> int:
        """Smallest integer load whose CDF value exceeds ``1 - alpha``.

        That is the ``c``-th smallest sample for the smallest count ``c``
        with ``c / n > 1 - alpha``; one above the largest sample when no
        count qualifies.
        """
        ordered = np.sort(self.samples)
        counts = np.arange(1, ordered.size + 1)
        hits = np.flatnonzero(counts / ordered.size > 1.0 - alpha)
        return int(ordered[hits[0]]) if hits.size else int(ordered[-1]) + 1


def max_load_cdf(n_balls: int, n_bins: int, trials: int = 1000) -> MaxLoadCdf:
    """Simulated max-load distribution, cached per (n_balls, n_bins, trials).

    The simulation seed is derived from the cache key, so results are
    deterministic across processes, and a repeated key returns the same
    object.
    """
    if trials < 100:
        raise ValueError("trials must be >= 100")
    return _max_load_cdf(int(n_balls), int(n_bins), int(trials))


@functools.lru_cache(maxsize=None)
def _max_load_cdf(n_balls: int, n_bins: int, trials: int) -> MaxLoadCdf:
    rng = np.random.default_rng(np.random.SeedSequence([0x6C0AD, n_balls, n_bins, trials]))
    samples = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        balls = rng.integers(0, n_bins, size=n_balls)
        samples[t] = np.bincount(balls, minlength=n_bins).max()
    return MaxLoadCdf(n_balls, n_bins, samples)


def grid_detect(
    fn_ids: Sequence[int],
    family_size: int,
    alpha: float = 0.005,
    trials: int = 1000,
) -> DetectionResult:
    """Max-load test over one OLH round's reported hash functions.

    Flags the round when the observed maximum per-function usage exceeds
    :meth:`MaxLoadCdf.threshold`, the smallest load whose simulated honest
    CDF value exceeds ``1 - alpha``, so honest rounds are flagged at most
    ``alpha`` of the time.  The rough analytic threshold
    ``log N / (log N - log |H|)`` is reported as metadata only (and omitted
    where it is singular).
    """
    fn_ids = np.asarray(fn_ids, dtype=np.int64)
    if fn_ids.size == 0:
        raise ValueError("empty round")
    usage = np.unique(fn_ids, return_counts=True)[1]
    statistic = float(usage.max())
    cdf = max_load_cdf(fn_ids.size, family_size, trials)
    threshold = float(cdf.threshold(alpha))
    n = float(fn_ids.size)
    analytic = None
    if family_size != n and n > 1:
        denominator = math.log(n) - math.log(family_size)
        if denominator != 0:
            analytic = math.log(n) / denominator
    return DetectionResult(
        detected=statistic > threshold,
        statistic=statistic,
        threshold=threshold,
        metadata={"analytic_threshold": analytic, "cdf_value": cdf.cdf(statistic)},
    )
