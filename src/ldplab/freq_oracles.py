"""Frequency oracles for local differential privacy.

Implements the two oracles used by the range-query protocols:

* OUE (optimized unary encoding): one-hot vector of length ``n``; the true bit
  survives with probability ``p = 1/2`` and every other bit is set with
  probability ``q = 1/(e^eps + 1)``.  A batch of reports comes back as its
  1-counts only (:class:`OueCounts`), never as a bit matrix.
* OLH (optimal local hashing): each user picks a random function from a
  universal linear-congruential hash family mapping cells into ``g`` keys and
  reports a (function, key) pair; the key equals the hash of the true cell
  with probability ``p`` (``OlhParams.p``), otherwise it is uniform over
  the remaining keys.

Each mechanism's constants live in its params (:class:`OueParams`,
:class:`OlhParams`), and both aggregators end in the one unbiased estimator
:func:`debias_counts`, whose estimates may be negative.

OLH aggregation and :meth:`HashFamily.key_table` (hence the grid attacks'
support scans) evaluate no hash per call.  They read one cached, read-only
cell-key table per (hash family, cell count): ``key[fn_id, cell]`` over all
``prime**2`` functions, in the narrowest unsigned dtype that holds ``g - 1``.
It takes ``prime**2 * n_cells`` bytes for ``g <= 256`` (712 KB at prime 211
and 16 cells).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

__all__ = [
    "OueParams",
    "OueCounts",
    "OlhParams",
    "HashFamily",
    "HashPair",
    "smallest_prime_above",
    "debias_counts",
    "oue_perturb_batch",
    "olh_perturb_batch",
    "olh_aggregate",
]


def _check_fake_count(n_fake) -> None:
    """Raise unless the fake user count ``n_fake`` is a non-negative integer."""
    if not isinstance(n_fake, (int, np.integer)) or n_fake < 0:
        raise ValueError(f"n_fake must be a non-negative integer, got {n_fake!r}")


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
    """Parameters for OLH: number of keys ``g``, keep probability ``p`` and
    aggregation constant ``q``.

    ``g`` is ``e^eps + 1`` rounded to the nearest integer.  A report keeps
    its hashed key with probability ``p = 1/2``.  The aggregation uses
    ``q = 1/g``, the post-hash collision probability, which matches the
    constants the grid attacks are calibrated against.
    """

    epsilon: float
    g: int = field(init=False)
    p: float = field(init=False)
    q: float = field(init=False)

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        self.g = max(2, int(round(np.exp(self.epsilon) + 1.0)))
        self.p = 0.5
        self.q = 1.0 / self.g


def debias_counts(
    counts: np.ndarray, n_users: int, params: Union[OueParams, OlhParams]
) -> np.ndarray:
    """Unbiased frequency estimate ``(C - n q) / (n (p - q))`` from per-item
    support counts ``C`` of ``n_users`` reports (may contain negatives).

    Item ``v``'s count has mean ``n (f_v p + (1 - f_v) q)`` under either
    mechanism, so one estimator serves OUE and OLH.
    """
    if n_users < 1:
        raise ValueError("empty report set")
    counts = np.asarray(counts, dtype=np.float64)
    return (counts - n_users * params.q) / (n_users * (params.p - params.q))


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

    def random_fn_ids(self) -> np.ndarray:
        """All fn_ids ``a*prime + b`` of the universal sub-family (``a >= 1``),
        ascending: exactly ``[prime, prime**2)``."""
        return np.arange(self.prime, self.size)

    def key_table(self, n_cells: int) -> np.ndarray:
        """Key of every cell under every universal function.

        Returns a read-only view of shape ``(n_random_functions, n_cells)``
        of the family's cached cell-key table, whose row order matches
        :meth:`random_fn_ids`.
        """
        return _cell_keys(self, n_cells)[self.prime :]


@functools.lru_cache(maxsize=4)
def _cell_keys(family: HashFamily, n_cells: int) -> np.ndarray:
    """Read-only ``key[fn_id, cell]`` of all ``prime**2`` functions of ``family``.

    Row ``fn_id = a*prime + b`` holds ``((a*x + b) mod prime) mod g`` for
    every cell ``x < n_cells``, in the narrowest unsigned dtype holding
    ``g - 1``.  Built one ``a`` at a time, so no temporary exceeds
    ``prime * n_cells`` int64 entries.
    """
    if n_cells > family.prime:
        raise ValueError("cell domain must not exceed the prime modulus")
    dtype = np.min_scalar_type(family.g - 1)
    key_of = (np.arange(family.prime) % family.g).astype(dtype)
    b = np.arange(family.prime)[:, None]
    cells = np.arange(n_cells)
    table = np.empty((family.prime, family.prime, n_cells), dtype=dtype)
    for a in range(family.prime):
        np.take(key_of, (a * cells + b) % family.prime, out=table[a])
    table = table.reshape(family.size, n_cells)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class HashPair:
    """A reported (hash function, key) pair."""

    fn_id: int
    key: int


# ---------------------------------------------------------------------------
# OUE
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OueCounts:
    """The 1-counts of a batch of OUE reports, which are not kept.

    ``support[j]`` is the number of reports with bit ``j`` set (shape
    ``(n,)``) and ``ones[i]`` the number of bits set in report ``i`` (shape
    ``(users,)``), both int64.
    """

    support: np.ndarray
    ones: np.ndarray


def oue_perturb_batch(
    true_indices: Sequence[int], params: OueParams, rng: np.random.Generator
) -> OueCounts:
    """Perturb many users at once; returns the reports' 1-counts.

    The noise bits are drawn in row chunks of about 65,536 uniforms (at
    least one row) into one reused buffer, thresholded at ``q`` in place and
    summed by column and by row straight away; each user's noise bit at its
    true index is kept aside.  The true bits are drawn after all chunks and
    take the place of those noise bits in both counts.  ``Generator.random``
    consumes its stream in order, so the counts are the column and row sums
    of one draw of the whole ``(users, n)`` bit matrix.  They are float64
    sums of 0/1 values below 2**53, hence exact.
    """
    idx = np.asarray(true_indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= params.n):
        raise ValueError("index out of range")
    step = max(1, 65536 // params.n)
    buf = np.empty((min(step, idx.size), params.n))
    per_row = np.ones(buf.shape[0])
    per_col = np.ones(params.n)
    support = np.zeros(params.n)
    ones = np.empty(idx.size)
    noise = np.empty(idx.size)
    for start in range(0, idx.size, step):
        chunk = buf[: min(step, idx.size - start)]
        rows = slice(start, start + chunk.shape[0])
        rng.random(out=chunk)
        np.less(chunk, params.q, out=chunk)
        support += per_row[: chunk.shape[0]] @ chunk
        ones[rows] = chunk @ per_col
        noise[rows] = chunk[np.arange(chunk.shape[0]), idx[rows]]
    change = (rng.random(idx.size) < params.p) - noise
    support += np.bincount(idx, weights=change, minlength=params.n)
    ones += change
    return OueCounts(support.astype(np.int64), ones.astype(np.int64))


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
    with probability ``params.p``, otherwise a uniformly drawn other key.
    """
    cells = np.asarray(true_cells, dtype=np.int64)
    m = cells.size
    a = rng.integers(1, family.prime, size=m)
    b = rng.integers(0, family.prime, size=m)
    fn_ids = a * family.prime + b
    true_keys = ((a * cells + b) % family.prime) % family.g
    keep = rng.random(m) < params.p
    wrong = rng.integers(0, family.g - 1, size=m)
    wrong = np.where(wrong >= true_keys, wrong + 1, wrong)
    keys = np.where(keep, true_keys, wrong)
    return fn_ids, keys


def olh_aggregate(
    pairs: tuple[np.ndarray, np.ndarray],
    family: HashFamily,
    cells: Sequence[int],
    params: OlhParams,
) -> np.ndarray:
    """Unbiased per-cell frequency estimate from OLH reports.

    ``pairs`` is the ``(fn_ids, keys)`` array tuple of the reports; every
    function must lie in ``[0, prime**2)``, every key in ``[0, g)`` and every
    cell in ``[0, prime)``.  The reports are counted as distinct (function,
    key) pairs: each distinct pair's row of the family's cached cell-key
    table (``prime**2`` rows of ``max(cells) + 1`` keys) is compared with its
    key, and its multiplicity is added to the cells it hits by one float64
    matmul.  The support counts are integers below 2**53, so they are exact;
    :func:`debias_counts` turns them into frequencies.
    """
    fn_ids, keys = (np.asarray(x, dtype=np.int64) for x in pairs)
    if fn_ids.size == 0:
        raise ValueError("empty report set")
    if fn_ids.min() < 0 or fn_ids.max() >= family.size:
        raise ValueError(f"report functions must lie in [0, {family.size})")
    if keys.min() < 0 or keys.max() >= family.g:
        raise ValueError(f"report keys must lie in [0, {family.g})")
    cells = np.asarray(cells, dtype=np.int64)
    if cells.size and (cells.min() < 0 or cells.max() >= family.prime):
        raise ValueError(f"cells must lie in [0, {family.prime})")
    table = _cell_keys(family, int(cells.max()) + 1 if cells.size else 0)
    if not np.array_equal(cells, np.arange(table.shape[1])):
        table = table[:, cells]
    distinct, mult = np.unique(fn_ids * family.g + keys, return_counts=True)
    fns, keys = np.divmod(distinct, family.g)
    keys = keys.astype(table.dtype)
    mult = mult.astype(np.float64)
    counts = np.zeros(cells.size, dtype=np.float64)
    chunk = 65536
    for start in range(0, distinct.size, chunk):
        sl = slice(start, start + chunk)
        counts += mult[sl] @ (table[fns[sl]] == keys[sl, None])
    return debias_counts(counts, fn_ids.size, params)
