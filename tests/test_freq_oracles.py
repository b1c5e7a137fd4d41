import numpy as np
import pytest

from ldplab.freq_oracles import (
    HashFamily,
    HashPair,
    OlhParams,
    OueParams,
    olh_aggregate,
    olh_perturb_batch,
    oue_aggregate,
    oue_aggregate_counts,
    oue_perturb_batch,
    smallest_prime_above,
)

from .oracles import (
    hash_eval,
    olh_aggregate_pairs,
    olh_perturb,
    olh_support,
    olh_support_scan,
    oue_perturb,
)


def test_smallest_prime_above():
    assert smallest_prime_above(1) == 2
    assert smallest_prime_above(16) == 17
    assert smallest_prime_above(17) == 19
    assert smallest_prime_above(25) == 29
    assert smallest_prime_above(210) == 211


class TestOueParams:
    def test_ln3_gives_quarter(self):
        params = OueParams(np.log(3.0), 8)
        assert params.p == 0.5
        assert params.q == pytest.approx(0.25, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            OueParams(0.0, 8)
        with pytest.raises(ValueError):
            OueParams(1.0, 0)


class TestOuePerturb:
    def test_large_epsilon_keeps_only_true_bit_half_the_time(self):
        # q -> 0, so non-true bits are never set and the true bit survives
        # with probability 1/2 (within 3 sigma over 1e5 draws).
        params = OueParams(20.0, 16)
        rng = np.random.default_rng(0)
        reports = oue_perturb_batch(np.full(100_000, 3), params, rng)
        off_target = np.delete(reports, 3, axis=1)
        assert off_target.sum() == 0
        rate = reports[:, 3].mean()
        assert abs(rate - 0.5) <= 3.0 * np.sqrt(0.25 / 100_000)

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
        est = oue_aggregate_counts(np.array([50.0, 25.0, 25.0, 25.0]), 100, params)
        assert est[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(est[1:], 0.0, atol=1e-12)

    def test_matches_independent_formula(self):
        params = OueParams(0.7, 12)
        rng = np.random.default_rng(2)
        counts = rng.integers(0, 500, 12).astype(float)
        est = oue_aggregate_counts(counts, 500, params)
        expected = (counts - 500 * params.q) / (500 * (params.p - params.q))
        np.testing.assert_allclose(est, expected, atol=1e-12)

    def test_matrix_input(self):
        params = OueParams(1.0, 3)
        reports = np.array([[1, 0, 0], [1, 1, 0]], dtype=np.uint8)
        est = oue_aggregate(reports, params)
        expected = oue_aggregate_counts(reports.sum(axis=0).astype(float), 2, params)
        np.testing.assert_allclose(est, expected)
        with pytest.raises(ValueError):
            oue_aggregate(np.zeros((0, 3)), params)


class TestHashFamily:
    def test_constant_function(self):
        family = HashFamily(17, 4)
        assert hash_eval(family, family.fn_id(0, 0), 5) == 0
        np.testing.assert_array_equal(
            olh_support(HashPair(family.fn_id(0, 0), 0), family, range(16)),
            np.arange(16),
        )
        assert olh_support(HashPair(family.fn_id(0, 0), 1), family, range(16)).size == 0

    def test_identity_function(self):
        family = HashFamily(17, 4)
        assert hash_eval(family, family.fn_id(1, 0), 5) == 1

    def test_sizes(self):
        family = HashFamily(17, 4)
        assert family.size == 289
        assert family.n_random_functions == 272
        assert family.random_fn_ids().size == 272
        assert family.random_fn_ids().min() == 17  # a = 1, b = 0

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

    def test_validation(self):
        with pytest.raises(ValueError):
            HashFamily(16, 4)
        with pytest.raises(ValueError):
            HashFamily(17, 1)
        family = HashFamily(17, 4)
        with pytest.raises(ValueError):
            family.ab(17 * 17)
        with pytest.raises(ValueError):
            family.key_table(18)


class TestOlhParams:
    def test_ln3_gives_four_keys(self):
        params = OlhParams(np.log(3.0))
        assert params.g == 4
        assert params.q == pytest.approx(0.25)

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
        pair = olh_perturb(3, family, params, rng)
        assert 0 <= pair.key < family.g
        a, _ = family.ab(pair.fn_id)
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
        est = olh_aggregate(
            (np.full(n, chosen[0]), np.full(n, chosen[1])),
            family,
            np.arange(n_cells),
            params,
        )
        assert est[2] == pytest.approx(3.0, abs=1e-9)

    def test_count_at_collision_rate_gives_zero(self):
        family = HashFamily(17, 4)
        params = OlhParams(np.log(3.0))
        # Constant function: every cell is in the support of key 0, so the
        # estimate is (N - N/g) / (N (1/2 - 1/g)) for all cells; with a
        # support count of exactly N/g the estimator reads zero -- check the
        # formula through pairs that never support cell 0.
        pairs = (np.full(80, family.fn_id(1, 1)), np.full(80, 3))
        est = olh_aggregate(pairs, family, np.arange(16), params)
        support = olh_support(HashPair(family.fn_id(1, 1), 3), family, range(16))
        outside = np.setdiff1d(np.arange(16), support)
        # Unsupported cells have count 0 -> estimate -q/(1/2-q) = -1.
        np.testing.assert_allclose(est[outside], -1.0, atol=1e-9)
        np.testing.assert_allclose(est[support], 3.0, atol=1e-9)

    def test_empty_raises(self):
        family = HashFamily(17, 4)
        with pytest.raises(ValueError):
            olh_aggregate((np.array([]), np.array([])), family, np.arange(16), OlhParams(1.0))

    def test_matches_per_pair_oracle(self):
        family = HashFamily(17, 4)
        params = OlhParams(np.log(3.0))
        rng = np.random.default_rng(6)
        fn_ids, keys = olh_perturb_batch(rng.integers(0, 16, 300), family, params, rng)
        pairs = [HashPair(int(f), int(k)) for f, k in zip(fn_ids, keys)]
        np.testing.assert_allclose(
            olh_aggregate((fn_ids, keys), family, np.arange(16), params),
            olh_aggregate_pairs(pairs, family, np.arange(16), params),
            atol=1e-12,
        )
