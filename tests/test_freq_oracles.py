import math
from fractions import Fraction

import numpy as np
import pytest

from ldplab.defenses import ones_count_cdf
from ldplab.freq_oracles import (
    HashFamily,
    OlhParams,
    OueParams,
    debias_counts,
    olh_aggregate,
    olh_perturb_batch,
    oue_perturb_batch,
    smallest_prime_above,
)

from .oracles import (
    hash_ab,
    hash_eval,
    hash_fn_id,
    olh_aggregate_pairs,
    olh_perturb,
    olh_support,
    olh_support_scan,
    olh_worst_ratio,
    oue_aggregate,
    oue_perturb,
    oue_perturb_batch_oneshot,
    oue_worst_ratio,
)


def test_smallest_prime_above():
    assert smallest_prime_above(1) == 2
    assert smallest_prime_above(16) == 17
    assert smallest_prime_above(17) == 19
    assert smallest_prime_above(25) == 29
    assert smallest_prime_above(210) == 211


class TestWorstCaseRatio:
    """Each mechanism's worst output likelihood ratio over every output and
    pair of inputs, enumerated exactly, is at most e^eps (eps-LDP)."""

    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_oue_is_eps_ldp(self, epsilon):
        ratio = oue_worst_ratio(OueParams(epsilon, 5))
        assert ratio == pytest.approx(np.exp(epsilon), rel=1e-12)
        assert ratio <= np.exp(epsilon) * (1 + 1e-12)

    # Rounding g makes the worst OLH ratio g - 1: 2 > e^0.5 and 3 > e^1.
    @pytest.mark.parametrize(
        "epsilon",
        [
            pytest.param(0.5, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1: OLH is not ε-LDP")),
            pytest.param(1.0, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1: OLH is not ε-LDP")),
            1.5,
            2.0,
            3.0,
        ],
    )
    def test_olh_is_eps_ldp(self, epsilon):
        params = OlhParams(epsilon)
        ratio = olh_worst_ratio(HashFamily(23, params.g), params, 5)
        assert ratio <= np.exp(epsilon) * (1 + 1e-12)


class TestOueParams:
    def test_ln3_gives_quarter(self):
        params = OueParams(np.log(3.0), 8)
        assert params.p == 0.5
        assert params.q == pytest.approx(0.25, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            OueParams(0.0, 8)
        with pytest.raises(ValueError, match="finite"):
            OueParams(800.0, 8)  # e^epsilon overflows, so q would read 0
        with pytest.raises(ValueError):
            OueParams(1.0, 0)


class TestOuePerturb:
    def test_large_epsilon_keeps_only_true_bit_half_the_time(self):
        # q -> 0, so non-true bits are never set and the true bit survives
        # with probability 1/2 (within 3 sigma over 1e5 draws).
        params = OueParams(20.0, 16)
        rng = np.random.default_rng(0)
        counts = oue_perturb_batch(np.full(100_000, 3), params, rng)
        assert np.delete(counts.support, 3).sum() == 0
        assert set(np.unique(counts.ones)) <= {0, 1}
        assert counts.ones.sum() == counts.support[3]
        rate = counts.support[3] / 100_000
        assert abs(rate - 0.5) <= 3.0 * np.sqrt(0.25 / 100_000)

    @pytest.mark.parametrize(
        "users, n",
        [
            (0, 5),
            (200_000, 1),  # one column, several chunks of rows
            (3, 70_000),  # fewer rows than a chunk's least 8
            (3, 140_001),  # one row is wider than a chunk; the last word is partly used
            (5_000, 187),  # many rows per chunk, several chunks
            (1_000, 100),  # one chunk (1,304 rows per chunk)
            (2_000, 100),  # a partial last chunk
        ],
    )
    def test_matches_one_shot_draw(self, users, n):
        params = OueParams(1.0, n)
        true_indices = np.random.default_rng(7).integers(0, n, users)
        counts = oue_perturb_batch(true_indices, params, np.random.default_rng(8))
        assert counts.support.dtype == counts.ones.dtype == np.int64
        assert counts.support.shape == (n,)
        assert counts.ones.shape == (users,)
        expected = oue_perturb_batch_oneshot(true_indices, params, np.random.default_rng(8))
        np.testing.assert_array_equal(counts.support, expected.sum(axis=0))
        np.testing.assert_array_equal(counts.ones, expected.sum(axis=1))

    # 4-sigma bands: a two-sided normal tail of 6.3e-5 per z-test, so a
    # correct draw fails one of the 36 z-tests below (6 columns, mean and
    # variance, for either draw, then the estimates' means at two budgets)
    # with probability below 2.3e-3 over the choice of seed.  The seeds are
    # fixed.
    _REPS = 2_000
    _HIST = np.array([0, 1, 10, 100, 300, 589])  # users per column, 1,000 in all

    def test_column_counts_follow_their_binomial_law(self):
        """Column j's count is Bin(n_j, p) + Bin(m - n_j, q), whether drawn
        from that law or summed from per-report bits: for either draw, its
        mean and variance over repetitions match the law's within 4 sigma
        each.  The sample variance's sigma uses the law's fourth cumulant."""
        for per_report in (False, True):
            self._check_column_count_law(per_report)

    def _check_column_count_law(self, per_report):
        params = OueParams(1.0, self._HIST.size)
        true_indices = np.repeat(np.arange(params.n), self._HIST)
        rng = np.random.default_rng(11)
        counts = np.array(
            [
                oue_perturb_batch(true_indices, params, rng, per_report=per_report).support
                for _ in range(self._REPS)
            ]
        )
        # Cumulants of Bin(k, r): k r (1 - r) for the variance and
        # k r (1 - r) (1 - 6 r (1 - r)) for the fourth; they add over the
        # two independent terms.
        rest = true_indices.size - self._HIST
        mean = self._HIST * params.p + rest * params.q
        vp, vq = params.p * (1 - params.p), params.q * (1 - params.q)
        var = self._HIST * vp + rest * vq
        k4 = self._HIST * vp * (1 - 6 * vp) + rest * vq * (1 - 6 * vq)
        r = self._REPS
        z_mean = (counts.mean(axis=0) - mean) / np.sqrt(var / r)
        z_var = (counts.var(axis=0, ddof=1) - var) / np.sqrt(2 * var**2 / (r - 1) + k4 / r)
        assert np.abs(z_mean).max() <= 4.0, (per_report, z_mean)
        assert np.abs(z_var).max() <= 4.0, (per_report, z_var)

    @pytest.mark.parametrize("epsilon", [0.5, 2.0])
    def test_column_count_estimates_are_unbiased(self, epsilon):
        """``debias_counts`` of the column counts averages to the true
        frequencies within 4 sigma of the mean's analytic spread."""
        params = OueParams(epsilon, self._HIST.size)
        true_indices = np.random.default_rng(12).permutation(
            np.repeat(np.arange(params.n), self._HIST)
        )
        m = true_indices.size
        rng = np.random.default_rng(13)
        estimates = np.array(
            [
                debias_counts(
                    oue_perturb_batch(true_indices, params, rng, per_report=False).support,
                    m,
                    params,
                )
                for _ in range(self._REPS)
            ]
        )
        freqs = self._HIST / m
        var = (freqs * params.p * (1 - params.p) + (1 - freqs) * params.q * (1 - params.q)) / (
            m * (params.p - params.q) ** 2
        )
        z = (estimates.mean(axis=0) - freqs) / np.sqrt(var / self._REPS)
        assert np.abs(z).max() <= 4.0, z

    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0])
    def test_report_ones_follow_the_detectors_law(self, epsilon):
        """Each report's 1-count is Bin(n - 1, q) + Bin(1, 1/2), the law
        ``defenses.ones_count_cdf`` gives the detector.  The empirical CDF of
        200,000 reports stays within t of it, where the
        Dvoretzky-Kiefer-Wolfowitz bound 2 exp(-2 m t^2) = 1e-6 sets t: a
        correct draw fails one of these 3 cases with probability below 3e-6,
        over the choice of seed.  The seeds are fixed."""
        m, params = 200_000, OueParams(epsilon, 16)
        true_indices = np.random.default_rng(21).integers(0, params.n, m)
        ones = oue_perturb_batch(true_indices, params, np.random.default_rng(22)).ones
        empirical = np.cumsum(np.bincount(ones, minlength=params.n + 1)) / m
        t = np.sqrt(np.log(2 / 1e-6) / (2 * m))
        gap = np.abs(empirical - ones_count_cdf(params.n, params.q)).max()
        assert gap <= t, (gap, t)

    @pytest.mark.parametrize(
        "r", [OueParams(epsilon, 1).q for epsilon in (0.5, 1.0, 2.0, 20.0)] + [0.5]
    )
    def test_byte_cut_is_exact(self, r):
        """A bit at ``r`` is 1 below the byte ``k = floor(256 r)`` and, on a
        tie, below ``256 r - k``: the float difference loses nothing, so the
        two parts add up to exactly ``256 r``."""
        k = math.floor(256 * r)
        frac = 256 * r - k
        assert 0 <= k < 256 and 0 <= frac < 1
        assert Fraction(k) + Fraction(frac) == 256 * Fraction(r)

    @pytest.mark.parametrize("per_report", [True, False])
    @pytest.mark.parametrize("bad", [[0, -1], [0, 5]])
    def test_out_of_range_indices_raise(self, per_report, bad):
        with pytest.raises(ValueError, match="index out of range"):
            oue_perturb_batch(bad, OueParams(1.0, 5), np.random.default_rng(0), per_report=per_report)

    def test_column_counts_of_no_users_are_zero(self):
        counts = oue_perturb_batch([], OueParams(1.0, 5), np.random.default_rng(0), per_report=False)
        assert counts.support.dtype == np.int64 and counts.ones is None
        np.testing.assert_array_equal(counts.support, np.zeros(5))

    def test_single_report_shape_and_bounds(self):
        params = OueParams(1.0, 8)
        rng = np.random.default_rng(1)
        report = oue_perturb(2, params, rng)
        assert report.shape == (8,)
        assert set(np.unique(report)) <= {0, 1}
        with pytest.raises(ValueError):
            oue_perturb(8, params, rng)


class TestOueAggregate:
    def test_full_presence_count(self):
        params = OueParams(np.log(3.0), 4)  # q = 0.25
        est = debias_counts(np.array([50.0, 25.0, 25.0, 25.0]), 100, params)
        assert est[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(est[1:], 0.0, atol=1e-12)

    def test_matches_independent_formula(self):
        params = OueParams(0.7, 12)
        rng = np.random.default_rng(2)
        counts = rng.integers(0, 500, 12).astype(float)
        est = debias_counts(counts, 500, params)
        expected = (counts - 500 * params.q) / (500 * (params.p - params.q))
        np.testing.assert_allclose(est, expected, atol=1e-12)

    def test_matrix_input(self):
        params = OueParams(1.0, 3)
        reports = np.array([[1, 0, 0], [1, 1, 0]], dtype=np.uint8)
        est = oue_aggregate(reports, params)
        expected = debias_counts(reports.sum(axis=0).astype(float), 2, params)
        np.testing.assert_allclose(est, expected)
        with pytest.raises(ValueError):
            oue_aggregate(np.zeros((0, 3)), params)

    def test_olh_params_use_their_own_p_and_q(self):
        params = OlhParams(1.0)  # g = 4: p = 1/2, q = 1/4
        est = debias_counts(np.array([50.0, 25.0]), 100, params)
        np.testing.assert_allclose(est, [1.0, 0.0], atol=1e-12)
        with pytest.raises(ValueError):
            debias_counts(np.zeros(2), 0, params)


class TestHashFamily:
    def test_constant_function(self):
        family = HashFamily(17, 4)
        assert hash_eval(family, hash_fn_id(family, 0, 0), 5) == 0
        np.testing.assert_array_equal(
            olh_support((hash_fn_id(family, 0, 0), 0), family, range(16)),
            np.arange(16),
        )
        assert olh_support((hash_fn_id(family, 0, 0), 1), family, range(16)).size == 0

    def test_identity_function(self):
        family = HashFamily(17, 4)
        assert hash_eval(family, hash_fn_id(family, 1, 0), 5) == 1

    def test_sizes(self):
        family = HashFamily(17, 4)
        assert family.n_random_functions == 272
        assert family.random_fn_ids().size == 272
        assert family.random_fn_ids().min() == 17  # a = 1, b = 0
        assert family.random_fn_ids().max() == 288  # a = b = 16

    def test_key_table_matches_per_cell_scan(self):
        family = HashFamily(17, 4)
        table = family.key_table(16)
        fn_ids = family.random_fn_ids()
        rng = np.random.default_rng(3)
        for row in rng.integers(0, fn_ids.size, 10):
            for key in range(4):
                support = np.nonzero(table[row] == key)[0]
                expected = olh_support_scan(17, 4, int(fn_ids[row]), key, 16)
                np.testing.assert_array_equal(support, expected)

    def test_key_table_is_a_shared_read_only_narrow_view(self):
        family = HashFamily(17, 4)
        table = family.key_table(16)
        assert table.dtype == np.uint8
        assert table.shape == (family.n_random_functions, 16)
        assert HashFamily(17, 4).key_table(16) is table
        with pytest.raises(ValueError):
            table[0, 0] = 1
        assert HashFamily(1031, 300).key_table(2).dtype == np.uint16

    def test_validation(self):
        with pytest.raises(ValueError):
            HashFamily(16, 4)
        with pytest.raises(ValueError):
            HashFamily(17, 1)
        family = HashFamily(17, 4)
        with pytest.raises(ValueError):
            hash_ab(family, 17 * 17)
        with pytest.raises(ValueError):
            family.key_table(18)


class TestOlhParams:
    def test_ln3_gives_four_keys(self):
        params = OlhParams(np.log(3.0))
        assert params.g == 4
        assert params.q == pytest.approx(0.25)

    def test_two_keys_leave_no_signal(self):
        # Below eps = ln 1.5 the keys round to g = 2, so p = q = 1/2.
        assert OlhParams(0.41).g == 3
        with pytest.raises(ValueError, match=r"epsilon 0\.3 hashes into g = 2 keys, where p - q = 0\.0 <= 0"):
            OlhParams(0.3)

    def test_key_distribution(self):
        # True key reported half the time, wrong keys uniform on the rest.
        family = HashFamily(17, 4)
        params = OlhParams(np.log(3.0))
        rng = np.random.default_rng(4)
        fn_ids, keys = olh_perturb_batch(np.full(40_000, 5), family, params, rng)
        true_keys = np.array([hash_eval(family, int(f), 5) for f in fn_ids])
        match_rate = (keys == true_keys).mean()
        assert abs(match_rate - 0.5) <= 3.0 * np.sqrt(0.25 / 40_000)
        wrong = keys[keys != true_keys]
        counts = np.bincount(wrong, minlength=4)
        # A wrong key k is drawn uniformly from the keys other than the true
        # hash, so P[wrong = k] = (1 - P[H(5) = k]) / (g - 1) where the true
        # hash follows the residue-class sizes of [0, 17) mod 4: {5, 4, 4, 4}.
        p_hash = np.array([5, 4, 4, 4]) / 17.0
        expected = (1.0 - p_hash) / 3.0 * wrong.size
        sigma = np.sqrt(expected * (1.0 - (1.0 - p_hash) / 3.0))
        assert np.all(np.abs(counts - expected) <= 4 * sigma)

    def test_single_report(self):
        family = HashFamily(17, 4)
        params = OlhParams(1.0)
        rng = np.random.default_rng(5)
        fn_id, key = olh_perturb(3, family, params, rng)
        assert 0 <= key < family.g
        a, _ = hash_ab(family, fn_id)
        assert a >= 1
        with pytest.raises(ValueError):
            olh_perturb(17, family, params, rng)


class TestOlhAggregate:
    def test_single_cell_support_saturates(self):
        # Every user reports a pair supporting exactly {v}: estimate
        # (1 - 1/g) / (1/2 - 1/g) = 3.0 at g = 4.  Over a 4-cell domain the
        # family contains single-cell supports (16 cells map onto residue
        # classes of sizes {5,4,4,4}, so there the minimum support is 3).
        family = HashFamily(17, 4)
        params = OlhParams(np.log(3.0))
        n_cells = 4
        table = family.key_table(n_cells)
        fn_ids = family.random_fn_ids()
        chosen = None
        for row in range(table.shape[0]):
            for key in range(4):
                support = np.nonzero(table[row] == key)[0]
                if support.size == 1 and support[0] == 2:
                    chosen = (int(fn_ids[row]), key)
                    break
            if chosen:
                break
        assert chosen is not None
        n = 100
        counts = olh_aggregate((np.full(n, chosen[0]), np.full(n, chosen[1])), family, np.arange(n_cells))
        np.testing.assert_array_equal(counts, [0, 0, n, 0])
        assert counts.dtype == np.int64
        est = debias_counts(counts, n, params)
        assert est[2] == pytest.approx(3.0, abs=1e-9)

    def test_count_at_collision_rate_gives_zero(self):
        family = HashFamily(17, 4)
        params = OlhParams(np.log(3.0))
        # Constant function: every cell is in the support of key 0, so the
        # estimate is (N - N/g) / (N (1/2 - 1/g)) for all cells; with a
        # support count of exactly N/g the estimator reads zero -- check the
        # formula through pairs that never support cell 0.
        pairs = (np.full(80, hash_fn_id(family, 1, 1)), np.full(80, 3))
        est = debias_counts(olh_aggregate(pairs, family, np.arange(16)), 80, params)
        support = olh_support((hash_fn_id(family, 1, 1), 3), family, range(16))
        outside = np.setdiff1d(np.arange(16), support)
        # Unsupported cells have count 0 -> estimate -q/(1/2-q) = -1.
        np.testing.assert_allclose(est[outside], -1.0, atol=1e-9)
        np.testing.assert_allclose(est[support], 3.0, atol=1e-9)

    def test_empty_raises(self):
        family = HashFamily(17, 4)
        with pytest.raises(ValueError):
            olh_aggregate((np.array([]), np.array([])), family, np.arange(16))

    def test_keys_outside_range_raise(self):
        family = HashFamily(17, 4)
        for bad_key in (-1, 4):
            pairs = (np.array([20, 21]), np.array([0, bad_key]))
            with pytest.raises(ValueError):
                olh_aggregate(pairs, family, np.arange(16))

    def test_functions_outside_family_raise(self):
        # A table lookup would wrap a negative id to another function and an
        # id past the family would read past its rows.
        family = HashFamily(17, 4)
        for bad_fn in (-1, -290, 289, 10**6):
            pairs = (np.array([20, bad_fn]), np.array([0, 1]))
            with pytest.raises(ValueError, match="functions"):
                olh_aggregate(pairs, family, np.arange(16))

    def test_constant_functions_raise(self):
        # The a = 0 ids [0, prime) are no member of the family.
        family = HashFamily(17, 4)
        for bad_fn in range(17):
            pairs = (np.array([20, bad_fn]), np.array([0, 1]))
            with pytest.raises(ValueError, match="functions"):
                olh_aggregate(pairs, family, np.arange(16))

    def test_cells_outside_prime_raise(self):
        family = HashFamily(17, 4)
        pairs = (np.array([20, 21]), np.array([0, 1]))
        for cells in ([-1, 0, 1], [0, 17], np.arange(18)):
            with pytest.raises(ValueError, match="cells"):
                olh_aggregate(pairs, family, cells)

    @pytest.mark.parametrize("prime", [17, 67, 211])
    def test_permuted_cell_subset_and_constant_functions(self, prime):
        # The cells are a permuted subset of [0, prime), so the table's
        # columns are gathered.  Reports of the a = 0 (constant) functions
        # among them are rejected.
        family = HashFamily(prime, 4)
        params = OlhParams(np.log(3.0))
        rng = np.random.default_rng(prime)
        fn_ids, keys = olh_perturb_batch(rng.integers(0, 16, 300), family, params, rng)
        fn_ids = np.concatenate([fn_ids, rng.integers(prime, prime * prime, 40)])
        keys = np.concatenate([keys, rng.integers(0, 4, 40)])
        cells = rng.permutation(prime)[: min(prime - 1, 40)]
        pairs = list(zip(fn_ids.tolist(), keys.tolist()))
        np.testing.assert_array_equal(
            olh_aggregate((fn_ids, keys), family, cells),
            olh_aggregate_pairs(pairs, family, cells),
        )
        constant = (np.append(fn_ids, rng.integers(0, prime)), np.append(keys, 0))
        with pytest.raises(ValueError, match="functions"):
            olh_aggregate(constant, family, cells)

    def test_repeated_fake_pair_equals_per_pair_oracle(self):
        family = HashFamily(17, 4)
        params = OlhParams(np.log(3.0))
        rng = np.random.default_rng(9)
        fn_ids, keys = olh_perturb_batch(rng.integers(0, 16, 400), family, params, rng)
        fn_ids = np.concatenate([fn_ids, np.full(100, hash_fn_id(family, 3, 5))])
        keys = np.concatenate([keys, np.full(100, 2)])
        pairs = list(zip(fn_ids.tolist(), keys.tolist()))
        np.testing.assert_array_equal(
            olh_aggregate((fn_ids, keys), family, np.arange(16)),
            olh_aggregate_pairs(pairs, family, np.arange(16)),
        )

    def test_many_distinct_pairs_equal_per_pair_oracle(self):
        family = HashFamily(211, 4)
        params = OlhParams(np.log(3.0))
        rng = np.random.default_rng(10)
        fn_ids, keys = olh_perturb_batch(rng.integers(0, 16, 120_000), family, params, rng)
        assert np.unique(fn_ids * family.g + keys).size > 65_536
        pairs = list(zip(fn_ids.tolist(), keys.tolist()))
        np.testing.assert_array_equal(
            olh_aggregate((fn_ids, keys), family, np.arange(16)),
            olh_aggregate_pairs(pairs, family, np.arange(16)),
        )

    def test_matches_per_pair_oracle(self):
        family = HashFamily(17, 4)
        params = OlhParams(np.log(3.0))
        rng = np.random.default_rng(6)
        fn_ids, keys = olh_perturb_batch(rng.integers(0, 16, 300), family, params, rng)
        pairs = list(zip(fn_ids.tolist(), keys.tolist()))
        np.testing.assert_allclose(
            olh_aggregate((fn_ids, keys), family, np.arange(16)),
            olh_aggregate_pairs(pairs, family, np.arange(16)),
            atol=1e-12,
        )
