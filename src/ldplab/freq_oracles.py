"""Frequency oracles for local differential privacy.

Implements the two oracles used by the range-query protocols:

* OUE (optimized unary encoding): one-hot vector of length ``n``; the true bit
  survives with probability ``p = 1/2`` and every other bit is set with
  probability ``q = 1/(e^eps + 1)``.
* OLH (optimal local hashing): each user picks a random function from a
  universal linear-congruential hash family mapping cells into ``g`` keys and
  reports a (function, key) pair; the key equals the hash of the true cell
  with probability 1/2, otherwise it is uniform over the remaining keys.

Both aggregators return unbiased (possibly negative) frequency estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "OueParams",
    "OlhParams",
    "HashFamily",
    "HashPair",
    "smallest_prime_above",
    "oue_perturb_batch",
    "oue_aggregate",
    "olh_perturb_batch",
    "olh_aggregate",
]


def smallest_prime_above(n: int) -> int:
    """Return the smallest prime strictly greater than ``n``."""
    candidate = max(2, n + 1)
    while True:
        if candidate < 4:
            return candidate
        is_prime = candidate % 2 != 0
        k = 3
        while is_prime and k * k <= candidate:
            if candidate % k == 0:
                is_prime = False
            k += 2
        if is_prime:
            return candidate
        candidate += 1


@dataclass
class OueParams:
    """Perturbation parameters for OUE on a length-``n`` bit vector."""

    epsilon: float
    n: int
    p: float = field(init=False)
    q: float = field(init=False)

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.n < 1:
            raise ValueError("vector length n must be >= 1")
        self.p = 0.5
        self.q = 1.0 / (np.exp(self.epsilon) + 1.0)


@dataclass
class OlhParams:
    """Parameters for OLH: number of keys ``g`` and aggregation constant ``q``.

    ``g`` is ``e^eps + 1`` rounded to the nearest integer.  The aggregation
    uses ``q = 1/g``, the post-hash collision probability, which matches the
    constants the grid attacks are calibrated against.
    """

    epsilon: float
    g: int = field(init=False)
    q: float = field(init=False)

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        self.g = max(2, int(round(np.exp(self.epsilon) + 1.0)))
        self.q = 1.0 / self.g


@dataclass(frozen=True)
class HashFamily:
    """Linear-congruential universal hash family over a prime modulus.

    ``h_{a,b}(x) = ((a*x + b) mod prime) mod g`` with ``fn_id = a*prime + b``.
    All ``prime**2`` pairs ``(a, b)`` are indexable (including the degenerate
    constant functions with ``a = 0``), but random draws and attack scans use
    the universal sub-family ``a in [1, prime-1]``, ``b in [0, prime-1]``.
    """

    prime: int
    g: int

    def __post_init__(self) -> None:
        if self.prime != smallest_prime_above(self.prime - 1):
            raise ValueError(f"prime={self.prime} is not prime")
        if self.g < 2:
            raise ValueError("g must be >= 2")

    @property
    def size(self) -> int:
        """Total number of indexable functions (``prime**2``)."""
        return self.prime * self.prime

    @property
    def n_random_functions(self) -> int:
        """Number of functions in the universal sub-family used for draws."""
        return self.prime * (self.prime - 1)

    def ab(self, fn_id: int) -> tuple[int, int]:
        if not 0 <= fn_id < self.size:
            raise ValueError(f"fn_id {fn_id} out of range [0, {self.size})")
        return divmod(fn_id, self.prime)

    def fn_id(self, a: int, b: int) -> int:
        return a * self.prime + b

    def random_fn_ids(self) -> np.ndarray:
        """All fn_ids of the universal sub-family (``a >= 1``), ascending."""
        a = np.arange(1, self.prime)
        b = np.arange(self.prime)
        return (a[:, None] * self.prime + b[None, :]).ravel()

    def key_table(self, n_cells: int) -> np.ndarray:
        """Key of every cell under every universal function.

        Returns an int array of shape ``(n_random_functions, n_cells)`` whose
        row order matches :meth:`random_fn_ids`.
        """
        if n_cells > self.prime:
            raise ValueError("cell domain must not exceed the prime modulus")
        a = np.arange(1, self.prime)
        b = np.arange(self.prime)
        cells = np.arange(n_cells)
        # shape (prime-1, prime, n_cells)
        table = (a[:, None, None] * cells[None, None, :] + b[None, :, None]) % self.prime % self.g
        return table.reshape(-1, n_cells)


@dataclass(frozen=True)
class HashPair:
    """A reported (hash function, key) pair."""

    fn_id: int
    key: int


# ---------------------------------------------------------------------------
# OUE
# ---------------------------------------------------------------------------

def oue_perturb_batch(
    true_indices: Sequence[int], params: OueParams, rng: np.random.Generator
) -> np.ndarray:
    """Perturb many users at once; returns a ``(len(users), n)`` bit matrix."""
    idx = np.asarray(true_indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= params.n):
        raise ValueError("index out of range")
    bits = rng.random((idx.size, params.n)) < params.q
    rows = np.arange(idx.size)
    bits[rows, idx] = rng.random(idx.size) < params.p
    return bits.astype(np.uint8)


def oue_aggregate(reports: Sequence[np.ndarray] | np.ndarray, params: OueParams) -> np.ndarray:
    """Unbiased frequency estimate from OUE reports (may contain negatives)."""
    matrix = np.asarray(reports)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.size == 0 or matrix.shape[0] == 0:
        raise ValueError("empty report set")
    if matrix.shape[1] != params.n:
        raise ValueError(f"report length {matrix.shape[1]} != n={params.n}")
    n_users = matrix.shape[0]
    counts = matrix.sum(axis=0, dtype=np.float64)
    return oue_aggregate_counts(counts, n_users, params)


def oue_aggregate_counts(
    counts: np.ndarray, n_users: int, params: OueParams
) -> np.ndarray:
    """Aggregate from per-item 1-counts (same estimator as :func:`oue_aggregate`)."""
    if n_users < 1:
        raise ValueError("empty report set")
    counts = np.asarray(counts, dtype=np.float64)
    return (counts - n_users * params.q) / (n_users * (params.p - params.q))


# ---------------------------------------------------------------------------
# OLH
# ---------------------------------------------------------------------------

def olh_perturb_batch(
    true_cells: Sequence[int],
    family: HashFamily,
    params: OlhParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Perturb many users' cells at once; returns (fn_ids, keys) arrays.

    Each user draws a universal function and reports the hash of its cell
    with probability 1/2, otherwise a uniformly drawn other key.
    """
    cells = np.asarray(true_cells, dtype=np.int64)
    m = cells.size
    a = rng.integers(1, family.prime, size=m)
    b = rng.integers(0, family.prime, size=m)
    fn_ids = a * family.prime + b
    true_keys = ((a * cells + b) % family.prime) % family.g
    keep = rng.random(m) < 0.5
    wrong = rng.integers(0, family.g - 1, size=m)
    wrong = np.where(wrong >= true_keys, wrong + 1, wrong)
    keys = np.where(keep, true_keys, wrong)
    return fn_ids, keys


def olh_aggregate(
    pairs: tuple[np.ndarray, np.ndarray],
    family: HashFamily,
    cells: Sequence[int],
    params: OlhParams,
    n_users: Optional[int] = None,
) -> np.ndarray:
    """Unbiased per-cell frequency estimate from OLH reports.

    ``pairs`` is the ``(fn_ids, keys)`` array tuple of the reports.
    """
    fn_ids, keys = (np.asarray(x, dtype=np.int64) for x in pairs)
    if fn_ids.size == 0:
        raise ValueError("empty report set")
    n = int(n_users) if n_users is not None else fn_ids.size
    cells = np.asarray(cells, dtype=np.int64)
    a, b = np.divmod(fn_ids, family.prime)
    counts = np.zeros(cells.size, dtype=np.float64)
    chunk = 65536
    for start in range(0, fn_ids.size, chunk):
        sl = slice(start, start + chunk)
        cell_keys = ((a[sl, None] * cells[None, :] + b[sl, None]) % family.prime) % family.g
        counts += (cell_keys == keys[sl, None]).sum(axis=0)
    return (counts - n * params.q) / (n * (0.5 - params.q))
