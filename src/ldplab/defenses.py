"""Hypothesis-test detectors for poisoned collection rounds.

* Tree rounds (OUE): the number of 1s in an honest report follows
  ``Bin(n-1, q) + Bin(1, 1/2)``.  The detector counts reports whose 1-count
  falls outside a central interval and flags the round when that count
  exceeds a normal-approximation threshold.
* Grid rounds (OLH): honest users pick hash functions uniformly, so each
  function's usage follows ``Bin(n, 1/|H|)`` and the maximum usage a
  balls-into-bins law.  Its CDF is bounded from below by the union bound over
  functions; the round is flagged when the observed maximum load is above the
  first load whose bound exceeds ``1 - alpha``.

:func:`binomial_pmf` is the one binomial law of the package: the tree
detector's 1-count law, the grid detector's max-load bound and the adaptive
grid attack's per-function honest load are built from it.  Both detectors
take a significance ``alpha`` in (0, 1).
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass
from typing import Sequence, Tuple

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


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


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
    """
    _check_alpha(alpha)
    counts = np.asarray(ones_counts, dtype=np.int64)
    if counts.size == 0:
        raise ValueError("empty round")
    i_minus, i_plus, f_out, z_alpha = _ones_count_interval(n, epsilon, alpha)

    n_users = counts.size
    statistic = float(np.count_nonzero((counts < i_minus) | (counts > i_plus)))
    threshold = n_users * f_out + z_alpha * math.sqrt(n_users * f_out * (1.0 - f_out))
    return DetectionResult(statistic > threshold, statistic, threshold)


@functools.lru_cache(maxsize=256)
def _ones_count_interval(n: int, epsilon: float, alpha: float) -> Tuple[int, int, float, float]:
    """``(I-, I+, outside_mass, z_alpha)`` of :func:`tree_detect`, cached per
    ``(n, epsilon, alpha)``: every layer of every defended run reads it."""
    cdf = ones_count_cdf(n, OueParams(epsilon, n).q)
    z_alpha = statistics.NormalDist().inv_cdf(1.0 - alpha)
    f_out = (1.0 - math.sqrt(1.0 / (1.0 + z_alpha**2))) / 2.0
    half = f_out / 2.0

    below = np.nonzero(cdf <= half)[0]
    i_minus = int(below[-1]) if below.size else -1
    i_plus = int(np.nonzero(cdf >= 1.0 - half)[0][0])
    return i_minus, i_plus, f_out, z_alpha


@dataclass(frozen=True)
class MaxLoadCdf:
    """Bound on the CDF of the max balls-into-bins occupancy.

    ``exceed[x]`` bounds ``P[max load > x]`` from above for x in 0..n_balls
    (the union bound, see :func:`max_load_cdf`); the CDF bound is
    ``1 - exceed[x]``.  Holding the upper tail, not one minus it, keeps
    thresholds right for ``alpha`` far below float rounding (1e-16).
    """

    exceed: np.ndarray

    def threshold(self, alpha: float) -> int:
        """Smallest integer load whose CDF bound exceeds ``1 - alpha``."""
        _check_alpha(alpha)
        return int(np.flatnonzero(self.exceed < alpha)[0])


@functools.lru_cache(maxsize=None)
def max_load_cdf(n_balls: int, n_bins: int) -> MaxLoadCdf:
    """The max-load CDF bound, cached per (n_balls, n_bins).

    ``F(x) = max(0, 1 - n_bins * P[Bin(n_balls, 1/n_bins) > x])`` by the union
    bound over bins, so ``F(x) <= P[max load <= x]``: a detector firing above
    the first load with ``F > 1 - alpha`` flags honest rounds at most
    ``alpha`` of the time.  A repeated key returns the same object.

    The cache is unbounded, so it relies on few distinct round sizes: grid
    rounds are near-equal splits with no draw, and a round size drawn per
    run would add an entry of ``n_balls + 1`` floats for every new size.
    """
    pmf = binomial_pmf(n_balls, 1.0 / n_bins)
    above = np.append(pmf[::-1].cumsum()[::-1][1:], 0.0)  # P[Bin > x]
    exceed = np.minimum(n_bins * above, 1.0)
    exceed.setflags(write=False)  # one cached object serves every caller
    return MaxLoadCdf(exceed)


def grid_detect(
    fn_ids: Sequence[int],
    family_size: int,
    alpha: float = 0.005,
) -> DetectionResult:
    """Max-load test over one OLH round's reported hash functions.

    Flags the round when the observed maximum per-function usage exceeds
    :meth:`MaxLoadCdf.threshold`, the smallest load whose honest CDF bound
    exceeds ``1 - alpha``, so honest rounds are flagged at most ``alpha`` of
    the time.
    """
    fn_ids = np.asarray(fn_ids, dtype=np.int64)
    if fn_ids.size == 0:
        raise ValueError("empty round")
    usage = np.unique(fn_ids, return_counts=True)[1]
    statistic = float(usage.max())
    threshold = float(max_load_cdf(fn_ids.size, family_size).threshold(alpha))
    return DetectionResult(statistic > threshold, statistic, threshold)
