"""Frequency oracles for local differential privacy.

Implements the two oracles used by the range-query protocols:

* OUE (optimized unary encoding): one-hot vector of length ``n``; the true bit
  survives with probability ``p = 1/2`` and every other bit is set with
  probability ``q = 1/(e^eps + 1)``.  A batch of reports comes back as its
  1-counts only (:class:`OueCounts`), never as a bit matrix.  The bits are
  independent, so column ``j``'s count is ``Bin(n_j, p) + Bin(m - n_j, q)``
  for ``n_j`` of the batch's ``m`` users holding item ``j``; a batch whose
  per-report 1-counts nobody reads is drawn from that law alone.  A batch
  that keeps them draws every bit from one uniform byte, cut at
  ``floor(256 r)`` for a bit at ``r`` with a double only on a tie.
* OLH (optimal local hashing): each user picks a random function from a
  universal linear-congruential hash family mapping cells into ``g`` keys and
  reports a (function, key) pair; the key equals the hash of the true cell
  with probability ``p`` (``OlhParams.p``), otherwise it is uniform over
  the remaining keys.

Each mechanism's constants live in its params (:class:`OueParams`,
:class:`OlhParams`).  Both oracles aggregate to integer support counts (OUE's
column 1-counts, :func:`olh_aggregate`'s per-cell counts), which the one
unbiased estimator :func:`debias_counts` turns into frequencies that may be
negative.

OLH aggregation and the grid attacks' support scans evaluate no hash per
call.  The cell-key table :meth:`HashFamily.key_table` holds the key of
every cell under each of the family's ``prime * (prime - 1)`` functions, in
the narrowest unsigned dtype that holds ``g - 1``; it is cached and
read-only per (hash family, cell count) and takes ``prime * (prime - 1) *
n_cells`` bytes for ``g <= 256`` (709 KB at prime 211 and 16 cells).  From
it one cached class map per (hash family, cell count) groups the family's
(function, key) pairs by support (:class:`_SupportClasses`): the 177,240
pairs at prime 211 on 16 cells have 903 distinct supports, and their 44,310
functions 6,508 distinct rows of classes.  Aggregation counts reports per
class, and the scans count in-range cells per class.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "OueParams",
    "OueCounts",
    "OlhParams",
    "HashFamily",
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


def _exp_epsilon(epsilon: float) -> float:
    """``e^epsilon`` of a budget that is > 0 and whose ``e^epsilon`` is
    finite; any other budget is a ``ValueError``."""
    with np.errstate(over="ignore"):
        e_eps = np.exp(epsilon)
    if not (epsilon > 0 and np.isfinite(e_eps)):
        raise ValueError(f"epsilon must be > 0 with e^epsilon finite, got {epsilon!r}")
    return float(e_eps)


@dataclass
class OueParams:
    """Perturbation parameters for OUE on a length-``n`` bit vector."""

    epsilon: float
    n: int
    p: float = field(init=False)
    q: float = field(init=False)

    def __post_init__(self) -> None:
        e_eps = _exp_epsilon(self.epsilon)
        if self.n < 1:
            raise ValueError("vector length n must be >= 1")
        self.p = 0.5
        self.q = 1.0 / (e_eps + 1.0)


@dataclass
class OlhParams:
    """OLH parameters: number of keys ``g``, keep probability ``p``, aggregation constant ``q``.

    ``g`` is ``e^eps + 1`` rounded to the nearest integer.  A report keeps
    its hashed key with probability ``p = 1/2``.  ``q = 1/g`` matches the
    constants the grid attacks are calibrated against, but only approximates
    the chance that an ``a >= 1`` hash maps a non-target cell to the report's
    key: raw cell estimates are biased by about ``-(1 - f_c) / prime``
    (measured -0.059 at prime 17, -0.0045 at prime 211; ROADMAP.md item 1).

    The mechanism is not eps-LDP whenever rounding raises ``g - 1`` above
    ``e^eps``: any other key is sent with probability ``(1 - p)/(g - 1)``,
    so the worst output likelihood ratio is ``p (g - 1)/(1 - p) = g - 1``
    (3 > e at eps = 1, 2 > e^0.5 at eps = 0.5; ROADMAP.md item 1).

    The estimator divides by ``p - q``, so a budget that leaves
    ``p - q <= 0`` is a ``ValueError``: below ``eps = ln 1.5`` the keys
    round to ``g = 2`` and ``p = q = 1/2``.
    """

    epsilon: float
    g: int = field(init=False)
    p: float = field(init=False)
    q: float = field(init=False)

    def __post_init__(self) -> None:
        e_eps = _exp_epsilon(self.epsilon)
        self.g = max(2, int(round(e_eps + 1.0)))
        self.p = 0.5
        self.q = 1.0 / self.g
        if self.p - self.q <= 0:
            raise ValueError(
                f"OLH at epsilon {self.epsilon!r} hashes into g = {self.g} keys, where "
                f"p - q = {self.p - self.q!r} <= 0 leaves the estimator undefined: raise epsilon"
            )


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

    ``h_{a,b}(x) = ((a*x + b) mod prime) mod g`` with ``fn_id = a*prime + b``
    for ``a in [1, prime-1]`` and ``b in [0, prime-1]``: the ids are exactly
    ``[prime, prime**2)``.  The constant functions ``a = 0`` are not members.
    """

    prime: int
    g: int

    def __post_init__(self) -> None:
        if self.prime != smallest_prime_above(self.prime - 1):
            raise ValueError(f"prime={self.prime} is not prime")
        if self.g < 2:
            raise ValueError("g must be >= 2")

    @property
    def n_random_functions(self) -> int:
        """Number of functions in the family (``prime * (prime - 1)``)."""
        return self.prime * (self.prime - 1)

    def random_fn_ids(self) -> np.ndarray:
        """All fn_ids ``a*prime + b`` of the family, ascending: exactly
        ``[prime, prime**2)``."""
        return np.arange(self.prime, self.prime * self.prime)

    def key_table(self, n_cells: int) -> np.ndarray:
        """Key of every cell under every function of the family.

        Returns the family's cached, read-only cell-key table of shape
        ``(n_random_functions, n_cells)``, whose row order matches
        :meth:`random_fn_ids`.
        """
        return _cell_keys(self, n_cells)


@functools.lru_cache(maxsize=4)
def _cell_keys(family: HashFamily, n_cells: int) -> np.ndarray:
    """Read-only cell-key table of ``family``'s functions.

    Row ``fn_id - prime`` of function ``fn_id = a*prime + b`` holds
    ``((a*x + b) mod prime) mod g`` for every cell ``x < n_cells``, in the
    narrowest unsigned dtype holding ``g - 1``.  Built one ``a`` at a time,
    so no temporary exceeds ``prime * n_cells`` int64 entries.
    """
    if n_cells > family.prime:
        raise ValueError("cell domain must not exceed the prime modulus")
    dtype = np.min_scalar_type(family.g - 1)
    key_of = (np.arange(family.prime) % family.g).astype(dtype)
    b = np.arange(family.prime)[:, None]
    cells = np.arange(n_cells)
    table = np.empty((family.prime - 1, family.prime, n_cells), dtype=dtype)
    for a in range(1, family.prime):
        np.take(key_of, (a * cells + b) % family.prime, out=table[a - 1])
    table = table.reshape(family.n_random_functions, n_cells)
    table.flags.writeable = False
    return table


def _group_rows(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the equal rows of the 2-D integer array ``keys``.

    Returns ``(ids, order, starts)``: each row's group id in the narrowest
    unsigned dtype, the rows sorted stably by group (so ascending within
    each), and the CSR bounds of group ``i``, ``order[starts[i]:starts[i +
    1]]``.  One stable lexsort over the integer columns, not ``np.unique``
    on rows, which views them as void and is far slower.
    """
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    starts = np.flatnonzero((ranked[1:] != ranked[:-1]).any(axis=1)) + 1
    starts = np.concatenate(([0], starts, [len(keys)]))
    ids = np.empty(len(keys), dtype=np.min_scalar_type(starts.size - 2))
    ids[order] = np.repeat(np.arange(starts.size - 1), np.diff(starts))
    return ids, order.astype(np.min_scalar_type(len(keys) - 1)), starts


@dataclass(frozen=True)
class _SupportClasses:
    """The family's (function, key) pairs grouped by their support on
    ``n_cells`` cells.

    A pair's support is the set of cells its function hashes to its key.
    ``classes[f, k]`` is the class of row ``f``'s key ``k`` (rows follow
    :meth:`HashFamily.random_fn_ids`), in the narrowest unsigned dtype;
    class ``c`` has cell mask ``members[c]`` and ``sizes[c]`` cells, and its
    pairs, as flat ids ``f*g + k``, are ``pairs[indptr[c]:indptr[c + 1]]``,
    ascending.  A function's ``g`` classes are one of the distinct rows
    ``patterns``: ``patterns[pattern_of[f]]`` is ``classes[f]``.  Every
    array is read-only.
    """

    family: HashFamily
    classes: np.ndarray
    members: np.ndarray
    sizes: np.ndarray
    indptr: np.ndarray
    pairs: np.ndarray
    patterns: np.ndarray
    pattern_of: np.ndarray

    def pairs_of(self, sel: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(fn_ids, keys, which)`` of every pair in the classes ``sel``, in
        row-major order of the pairs, all int64: ``which`` is the position
        in ``sel`` of the pair's class."""
        sel = np.asarray(sel, dtype=np.intp)
        starts, lengths = self.indptr[sel], np.diff(self.indptr)[sel]
        which = np.repeat(np.arange(sel.size), lengths)
        offset = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths - starts, lengths)
        flat = self.pairs[offset].astype(np.int64)
        order = np.argsort(flat)
        rows, keys = np.divmod(flat[order], self.family.g)
        return rows + self.family.prime, keys, which[order]


@functools.lru_cache(maxsize=4)
def _support_classes(family: HashFamily, n_cells: int) -> _SupportClasses:
    """The read-only support classes of ``family`` on ``n_cells`` cells.

    Each pair's support is keyed by integers, one uint64 bit mask per 64
    cells, set one cell column of the key table at a time; equal keys are
    one class (:func:`_group_rows`), and equal class rows one pattern.
    """
    table = _cell_keys(family, n_cells)
    n_fns, g = table.shape[0], family.g
    bits = np.zeros((n_fns * g, max(1, -(-n_cells // 64))), dtype=np.uint64)
    row_pairs = np.arange(n_fns) * g
    for cell in range(n_cells):
        bits[row_pairs + table[:, cell], cell // 64] |= np.uint64(1 << (cell % 64))
    classes, pairs, indptr = _group_rows(bits)
    rows, keys = np.divmod(pairs[indptr[:-1]], g)
    members = table[rows] == keys[:, None]
    classes = classes.reshape(n_fns, g)
    pattern_of, by_pattern, starts = _group_rows(classes)
    class_map = _SupportClasses(
        family,
        classes,
        members,
        members.sum(axis=1, dtype=np.int64),
        indptr,
        pairs,
        classes[by_pattern[starts[:-1]]],
        pattern_of,
    )
    for array in vars(class_map).values():
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return class_map


# ---------------------------------------------------------------------------
# OUE
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OueCounts:
    """The 1-counts of a batch of OUE reports, which are not kept.

    ``support[j]`` is the number of reports with bit ``j`` set (shape
    ``(n,)``) and ``ones[i]`` the number of bits set in report ``i`` (shape
    ``(users,)``), both int64.  ``ones`` is ``None`` for a batch drawn
    without per-report counts.
    """

    support: np.ndarray
    ones: Optional[np.ndarray]


_CHUNK_BITS = 131072  # about this many noise bits per row chunk of a per-report draw


def _byte_bits(rng: np.random.Generator, r: float, out: np.ndarray) -> np.ndarray:
    """Set ``out`` to Bern(``r``) bits, one uniform byte ``B`` each in C
    order, and return the flat positions of the ties.

    The bytes are ``ceil(out.size / 8)`` full-range uint64 draws (each one
    ``next_uint64`` of the bit generator) viewed as uint8.  With ``k =
    floor(256 r)`` a bit is 1 if ``B < k`` and 0 if ``B > k``; a tie ``B ==
    k`` (1 time in 256) is left 0 here and is 1 when :func:`_tie_ones` says
    so.  So a bit is 1 with probability ``r`` to within 2**-53.
    """
    draw = rng.integers(0, 2**64, size=-(-out.size // 8), dtype=np.uint64)
    draw = draw.view(np.uint8)[: out.size].reshape(out.shape)
    k = math.floor(256 * r)
    out[...] = draw < k
    return np.flatnonzero(draw == k)


def _tie_ones(rng: np.random.Generator, r: float, ties: np.ndarray) -> np.ndarray:
    """The ties of :func:`_byte_bits` whose bit is 1: one uniform double per
    tie, in order, below ``256 r - floor(256 r)``, a difference that is exact
    in floating point."""
    return ties[rng.random(ties.size) < 256 * r - math.floor(256 * r)]


def oue_perturb_batch(
    true_indices: Sequence[int],
    params: OueParams,
    rng: np.random.Generator,
    *,
    per_report: bool = True,
) -> OueCounts:
    """Perturb many users at once; returns the reports' 1-counts.

    With ``per_report=False`` only the column counts are drawn, each from
    its exact law ``Bin(n_j, p) + Bin(users - n_j, q)`` given the number
    ``n_j`` of users whose true index is ``j``, and ``ones`` is ``None``.
    The columns are independent, as the bits are.

    With ``per_report=True`` (the default) every bit comes from one uniform
    byte (:func:`_byte_bits`).  The ``(users, n)`` noise bits at ``q`` are
    drawn into one reused buffer in row chunks of about ``_CHUNK_BITS`` bits
    and a multiple of 8 rows (whole uint64 words), summed by column and by
    row in float32 (exact: below ``n = 2**24`` no chunk sum reaches 2**24),
    with each user's noise bit at its true index kept aside.  After the last
    chunk come its ties' doubles, then the users' true bits at ``p``, which
    take the place of those noise bits in both counts.  So the counts are
    the exact column and row sums of one draw of the whole bit matrix, the
    draw a detector of per-report 1-counts needs.
    """
    idx = np.asarray(true_indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= params.n):
        raise ValueError("index out of range")
    if not per_report:
        hist = np.bincount(idx, minlength=params.n)
        support = rng.binomial(hist, params.p) + rng.binomial(idx.size - hist, params.q)
        return OueCounts(support, None)
    step = 8 * max(1, _CHUNK_BITS // (8 * params.n))
    dtype = np.float32 if params.n < 2**24 else np.float64
    buf = np.empty((min(step, idx.size), params.n), dtype=dtype)
    per_row = np.ones(buf.shape[0], dtype=dtype)
    per_col = np.ones(params.n, dtype=dtype)
    support = np.zeros(params.n)
    ones = np.empty(idx.size)
    noise = np.empty(idx.size)
    at_true = np.arange(idx.size) * params.n + idx  # flat position of each true index
    ties = [np.empty(0, dtype=np.int64)]
    for start in range(0, idx.size, step):
        chunk = buf[: min(step, idx.size - start)]
        rows = slice(start, start + chunk.shape[0])
        ties.append(start * params.n + _byte_bits(rng, params.q, chunk))
        support += per_row[: chunk.shape[0]] @ chunk
        ones[rows] = chunk @ per_col
        noise[rows] = np.take(chunk, at_true[rows] - start * params.n)
    user, node = np.divmod(_tie_ones(rng, params.q, np.concatenate(ties)), params.n)
    support += np.bincount(node, minlength=params.n)
    ones += np.bincount(user, minlength=idx.size)
    noise[user[node == idx[user]]] = 1
    true = np.empty(idx.size)
    true[_tie_ones(rng, params.p, _byte_bits(rng, params.p, true))] = 1
    change = true - noise
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
    The draws are int32 (the values of int64 draws), the hash arithmetic is
    int32 below prime 46349 and int64 from it, and both arrays are int64.
    """
    dtype = np.promote_types(np.int32, np.min_scalar_type(-family.prime**2))
    cells = np.asarray(true_cells, dtype=dtype)
    m = cells.size
    a = rng.integers(1, family.prime, size=m, dtype=np.int32).astype(dtype, copy=False)
    b = rng.integers(0, family.prime, size=m, dtype=np.int32).astype(dtype, copy=False)
    fn_ids = a * family.prime + b
    true_keys = ((a * cells + b) % family.prime) % family.g
    keep = rng.random(m) < params.p
    wrong = rng.integers(0, family.g - 1, size=m, dtype=np.int32)
    wrong += wrong >= true_keys
    keys = np.where(keep, true_keys, wrong)
    return fn_ids.astype(np.int64), keys.astype(np.int64)


def olh_aggregate(
    pairs: tuple[np.ndarray, np.ndarray],
    family: HashFamily,
    cells: Sequence[int],
) -> np.ndarray:
    """Per-cell support counts of OLH reports: how many reports' (function,
    key) pair hashes each cell to the report's key, as int64.

    ``pairs`` is the ``(fn_ids, keys)`` integer array tuple of the reports
    (any other dtype is a ``ValueError``); every function must lie in
    ``[prime, prime**2)``, every key in ``[0, g)`` and every cell in ``[0,
    prime)``.  The reports are counted by support class (the family's cached
    class map on ``max(cells) + 1`` cells): one ``bincount`` of their class
    ids, then one float64 matmul of the hit classes' counts with their cell
    masks.  The counts are integers below 2**53, so they are exact.  Counts
    are additive over reports: the counts of two report sets sum to those of
    their union, and :func:`debias_counts` turns them into frequencies.
    """
    fn_ids, keys = (np.asarray(x) for x in pairs)
    if fn_ids.size == 0:
        raise ValueError("empty report set")
    if not (np.issubdtype(fn_ids.dtype, np.integer) and np.issubdtype(keys.dtype, np.integer)):
        raise ValueError("report functions and keys must be integers")
    if fn_ids.min() < family.prime or fn_ids.max() >= family.prime * family.prime:
        raise ValueError(f"report functions must lie in [{family.prime}, {family.prime ** 2})")
    if keys.min() < 0 or keys.max() >= family.g:
        raise ValueError(f"report keys must lie in [0, {family.g})")
    cells = np.asarray(cells, dtype=np.int64)
    if cells.size and (cells.min() < 0 or cells.max() >= family.prime):
        raise ValueError(f"cells must lie in [0, {family.prime})")
    class_map = _support_classes(family, int(cells.max()) + 1 if cells.size else 0)
    # np.take of flat pair ids (intp, so narrow inputs cannot wrap) gathers
    # several times faster than 2-D indexing.
    fn_ids, keys = fn_ids.astype(np.intp, copy=False), keys.astype(np.intp, copy=False)
    ids = np.take(class_map.classes, (fn_ids - family.prime) * family.g + keys)
    mult = np.bincount(ids, minlength=class_map.sizes.size)
    hit = np.flatnonzero(mult)
    members = class_map.members[hit]
    if not np.array_equal(cells, np.arange(members.shape[1])):
        members = members[:, cells]
    return (mult[hit].astype(np.float64) @ members).astype(np.int64)
