import numpy as np
import pytest
from scipy import stats

from ldplab.attacks import (
    AdaptiveTreeAttack,
    MgaTreeAttack,
    OptimalTreeAttack,
    aaot_transform,
    aot_assignment_fast,
    aot_zero_coeff_strategy,
    assignment_objective,
    mga_tree,
    tree_coefficients,
)
from ldplab.freq_oracles import OueParams
from ldplab.postprocess import tree_consistency
from ldplab.query import RangeQuery
from ldplab.tree_protocol import Tree, TreeConfig, estimate_query

from .oracles import (
    aaot_transform_oneshot,
    aaot_transform_rows,
    aot_assignment_bruteforce,
    exhaustive_best_objective,
    mga_tree_oneshot,
    mga_tree_rows,
    objective_reference,
)


def unit_leaves(n):
    """``lo, hi`` arrays of the unit intervals ``[i, i + 1)``, ``i < n``."""
    lo = np.arange(n)
    return lo, lo + 1


class TestMgaTree:
    def test_no_padding_when_target_large(self):
        # p=0.5, q=0.25, 9 nodes, 2 in range: floor(0.5 + 8*0.25 - 2) = 0 extra.
        nodes = unit_leaves(9)
        params = OueParams(np.log(3.0), 9)
        query = RangeQuery((0,), ((0, 2),))
        reports = mga_tree(*nodes, query, 5, params, np.random.default_rng(0))
        assert reports.shape == (5, 9)
        np.testing.assert_array_equal(reports[:, :2], 1)
        assert reports.sum() == 5 * 2

    def test_three_padding_bits(self):
        # 17 nodes, 1 in range: floor(0.5 + 16*0.25 - 1) = 3 extra per report.
        nodes = unit_leaves(17)
        params = OueParams(np.log(3.0), 17)
        query = RangeQuery((0,), ((0, 1),))
        reports = mga_tree(*nodes, query, 20, params, np.random.default_rng(1))
        np.testing.assert_array_equal(reports[:, 0], 1)
        np.testing.assert_array_equal(reports.sum(axis=1), 4)  # 1 target + 3 pads
        assert reports[:, 1:].sum(axis=0).max() <= 20  # pads are out of range

    def test_padding_is_uniform_and_matches_row_oracle(self):
        # 17 nodes, 1 in range, 3 pads per report over the 16 other nodes.
        # Picks within a row are drawn without replacement, which makes the
        # column counts less spread than the multinomial the chi^2 cutoffs
        # assume, so each assertion fails falsely with probability <= 0.1 %.
        nodes = unit_leaves(17)
        params = OueParams(np.log(3.0), 17)
        query = RangeQuery((0,), ((0, 1),))
        m = 4000
        batch = mga_tree(*nodes, query, m, params, np.random.default_rng(12))
        np.testing.assert_array_equal(batch.sum(axis=1), 1 + 3)
        np.testing.assert_array_equal(batch[:, 0], 1)
        columns = batch[:, 1:].sum(axis=0)
        expected = m * 3 / 16
        chi2 = ((columns - expected) ** 2 / expected).sum()
        assert chi2 < stats.chi2.ppf(0.999, 15)
        rows = mga_tree_rows(*nodes, query, m, params, np.random.default_rng(13))
        table = np.vstack([columns, rows[:, 1:].sum(axis=0)])
        assert stats.chi2_contingency(table)[1] > 0.001

    def test_chunked_equals_oneshot(self):
        # 2 of 40 nodes in range: about 1,724 rows per chunk, so 5,000 rows
        # cross two chunk boundaries.
        nodes = unit_leaves(40)
        params = OueParams(1.0, 40)
        query = RangeQuery((0,), ((10, 12),))
        batch = mga_tree(*nodes, query, 5000, params, np.random.default_rng(14))
        oneshot = mga_tree_oneshot(*nodes, query, 5000, params, np.random.default_rng(14))
        np.testing.assert_array_equal(batch, oneshot)

    def test_zero_fakes(self):
        reports = mga_tree(*unit_leaves(17), RangeQuery((0,), ((0, 1),)), 0,
                           OueParams(1.0, 17), np.random.default_rng(15))
        assert reports.shape == (0, 17)

    def test_hook_wrapper(self):
        hook = MgaTreeAttack(RangeQuery((0,), ((0, 2),)), 1.0)
        reports = hook(*unit_leaves(8), 3, np.random.default_rng(2))
        assert reports.shape == (3, 8)

    def test_validation(self):
        params = OueParams(1.0, 4)
        with pytest.raises(ValueError):
            mga_tree(*unit_leaves(0), RangeQuery((0,), ((0, 1),)), 1, params,
                     np.random.default_rng(0))
        with pytest.raises(ValueError):
            mga_tree(*unit_leaves(5), RangeQuery((0,), ((0, 1),)), 1, params,
                     np.random.default_rng(0))


def binary_tree(depth):
    """The complete binary tree over ``[0, 2**depth)``."""
    tree = Tree(2**depth, 2)
    tree.exists[:] = True
    return tree


class TestTreeCoefficients:
    def test_single_leaf_query(self):
        tree = binary_tree(2)
        query = RangeQuery((0,), ((0, 1),))
        coeffs = tree_coefficients(tree, query)
        leaf = tree.node_ids([0], [1])[0]
        assert coeffs[leaf] == pytest.approx(1.0)
        # The query is served by the leaf alone; other nodes carry no weight.
        assert coeffs[0] == 0.0

    def test_root_query_on_binary_tree(self):
        tree = binary_tree(1)
        query = RangeQuery((0,), ((0, 2),))
        coeffs = tree_coefficients(tree, query)
        assert coeffs[0] == pytest.approx(2.0 / 3.0)
        for child in tree.children([0]):
            assert coeffs[child] == pytest.approx(1.0 / 3.0)

    def test_weighted_sum_equals_consistency_estimate(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            tree = binary_tree(3)
            tree.f_hat[:] = rng.random(tree.f_hat.size)
            lo = int(rng.integers(0, 7))
            hi = int(rng.integers(lo + 1, 9))
            query = RangeQuery((0,), ((lo, hi),))
            coeffs = tree_coefficients(tree, query)
            weighted = float(np.dot(coeffs, tree.f_hat))
            tree_consistency(tree)
            assert weighted == pytest.approx(estimate_query(tree, query), abs=1e-12)

    def test_layer_coefficients_alignment(self):
        tree = binary_tree(1)
        coeffs = tree_coefficients(tree, RangeQuery((0,), ((0, 2),)))
        layer = coeffs[tree.node_ids([0, 1], [1, 2])]
        np.testing.assert_allclose(layer, [1.0 / 3.0, 1.0 / 3.0])


class TestAssignmentSearch:
    def _params(self):
        return OueParams(1.0, 4)

    def test_single_positive_coefficient_gets_everything(self):
        params = OueParams(1.0, 2)
        result = aot_assignment_bruteforce(
            [1.0, 0.0], 7, 100, [0.4, 0.6], params
        )
        assert result.counts.tolist() == [7, 0]

    def test_equal_coefficients_tie_value(self):
        params = self._params()
        coeffs = np.array([0.5, 0.5, 0.0, 0.0])
        freqs = np.full(4, 0.25)
        a = assignment_objective(coeffs, freqs, np.array([5.0, 0, 0, 0]), 100, 5, params)
        b = assignment_objective(coeffs, freqs, np.array([0.0, 5, 0, 0]), 100, 5, params)
        assert a == pytest.approx(b, abs=1e-12)
        # The optimum front-loads both tied nodes at the full budget.
        best = aot_assignment_bruteforce(coeffs, 5, 100, freqs, params)
        both = assignment_objective(
            coeffs, freqs, np.array([5.0, 5, 0, 0]), 100, 5, params
        )
        assert best.value == pytest.approx(both, abs=1e-12)
        assert best.value >= a

    def test_objective_matches_reference(self):
        rng = np.random.default_rng(4)
        params = OueParams(0.8, 6)
        for _ in range(50):
            coeffs = rng.random(6)
            freqs = rng.dirichlet(np.ones(6))
            assignment = rng.integers(0, 20, 6).astype(float)
            ours = assignment_objective(coeffs, freqs, assignment, 500, 40, params)
            reference = objective_reference(coeffs, freqs, assignment, 500, 40,
                                            params.p, params.q)
            assert ours == pytest.approx(reference, abs=1e-9)

    def test_bruteforce_finds_global_optimum_small(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            size = int(rng.integers(2, 5))
            m_fake = int(rng.integers(1, 5))
            coeffs = np.sort(rng.random(size))[::-1]
            freqs = rng.dirichlet(np.ones(size))
            params = OueParams(1.0, size)
            ours = aot_assignment_bruteforce(coeffs, m_fake, 200, freqs, params)
            best = exhaustive_best_objective(
                coeffs,
                freqs,
                m_fake,
                200,
                lambda a: assignment_objective(coeffs, freqs, a, 200, m_fake, params),
            )
            assert ours.value == pytest.approx(best, abs=1e-12)

    def test_fast_matches_bruteforce(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            size = int(rng.integers(2, 17))
            m_fake = int(rng.integers(1, 51))
            coeffs = np.sort(rng.random(size))[::-1]
            coeffs[rng.random(size) < 0.3] = 0.0
            coeffs = np.sort(coeffs)[::-1]
            if not coeffs.any():
                coeffs[0] = 1.0
            freqs = rng.dirichlet(np.ones(size))
            params = OueParams(1.0, size)
            slow = aot_assignment_bruteforce(coeffs, m_fake, 1000, freqs, params)
            fast = aot_assignment_fast(coeffs, m_fake, 1000, freqs, params)
            assert fast.value == pytest.approx(slow.value, abs=1e-9)

    def test_input_validation(self):
        params = self._params()
        with pytest.raises(ValueError):
            aot_assignment_fast([], 5, 100, [], params)
        with pytest.raises(ValueError):
            aot_assignment_fast([0.1, 0.5], 5, 100, [0.5, 0.5], params)
        with pytest.raises(ValueError):
            aot_assignment_fast([0.0, 0.0], 5, 100, [0.5, 0.5], params)


class TestZeroCoeffStrategies:
    def test_patterns(self):
        lo, hi = unit_leaves(6)
        query = RangeQuery((0,), ((2, 4),))
        np.testing.assert_array_equal(
            aot_zero_coeff_strategy("zero", lo, hi, query), np.zeros(6, dtype=np.uint8)
        )
        np.testing.assert_array_equal(
            aot_zero_coeff_strategy("one", lo, hi, query), np.ones(6, dtype=np.uint8)
        )
        np.testing.assert_array_equal(
            aot_zero_coeff_strategy("path", lo, hi, query),
            np.array([0, 0, 1, 1, 0, 0], dtype=np.uint8),
        )

    def test_path_hits_ancestors(self):
        query = RangeQuery((0,), ((2, 4),))
        np.testing.assert_array_equal(
            aot_zero_coeff_strategy("path", [0, 8], [8, 16], query), np.array([1, 0], np.uint8)
        )

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            aot_zero_coeff_strategy("typo", [], [], RangeQuery((0,), ((0, 1),)))


class TestOptimalTreeAttack:
    def test_hook_output_is_valid_bit_matrix(self):
        config = TreeConfig(domain_size=64, epsilon=1.0)
        query = RangeQuery((0,), ((16, 48),))
        hook = OptimalTreeAttack(config, query, n_real=10_000, n_fake=1111)
        rng = np.random.default_rng(7)
        reports = hook(np.array([0, 32]), np.array([32, 64]), 50, rng)
        assert reports.shape == (50, 2)
        assert set(np.unique(reports)) <= {0, 1}

    def test_zero_fakes(self):
        config = TreeConfig(domain_size=16, epsilon=1.0)
        hook = OptimalTreeAttack(config, RangeQuery((0,), ((0, 8),)), 1000, 111)
        out = hook(np.array([0, 8]), np.array([8, 16]), 0, np.random.default_rng(8))
        assert out.shape == (0, 2)

    def test_validation(self):
        config = TreeConfig(domain_size=16)
        query = RangeQuery((0,), ((0, 8),))
        with pytest.raises(ValueError):
            OptimalTreeAttack(config, query, 0, 11)
        for n_fake in (-1, 0.1, 2.0):
            with pytest.raises(ValueError, match="n_fake"):
                OptimalTreeAttack(config, query, 100, n_fake)
        with pytest.raises(ValueError):
            OptimalTreeAttack(config, query, 100, 11, strategy="typo")

    def test_accepts_no_fakes(self):
        """A tiny real count can round its fakes to 0; the attack still plans."""
        config = TreeConfig(domain_size=16)
        hook = OptimalTreeAttack(config, RangeQuery((0,), ((0, 8),)), 3, 0)
        assert hook._fake_sizes == [0] * config.depth
        out = hook(np.array([0, 8]), np.array([8, 16]), 0, np.random.default_rng(8))
        assert out.shape == (0, 2)


class TestAaot:
    def test_ones_count_law(self):
        # Output 1-counts must follow Bin(n-1, q) + Bin(1, 1/2); the chi^2
        # test at the 0.999 quantile fails falsely with probability 0.1 %.
        rng = np.random.default_rng(9)
        n, q = 16, 0.25
        base = np.zeros((4000, n), dtype=np.uint8)
        base[:, :4] = 1
        counts = aaot_transform(base, n, q, rng).sum(axis=1)
        pmf = np.convolve(stats.binom.pmf(np.arange(n), n - 1, q), [0.5, 0.5])
        observed = np.bincount(counts, minlength=n + 1)
        expected = pmf * counts.size
        keep = expected > 5
        chi2 = ((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum()
        cutoff = stats.chi2.ppf(0.999, keep.sum() - 1)
        assert chi2 < cutoff

    def test_keeps_targeting_bits_when_possible(self):
        # A row keeps every original 1 when its drawn count is at least its
        # 1-count, and keeps only original 1s when the count is at most it.
        rng = np.random.default_rng(10)
        n = 16
        base = (rng.random((2000, n)) < rng.random((2000, 1))).astype(np.uint8)
        out = aaot_transform(base, n, 0.25, rng)
        k, target = base.sum(axis=1), out.sum(axis=1)
        grew, shrank = target >= k, target <= k
        assert (target > k).any() and (target < k).any() and (target == k).any()
        assert np.all(out[grew] >= base[grew])
        assert np.all(out[shrank] <= base[shrank])

    def test_flipped_bits_are_uniform_and_match_row_oracle(self):
        # Base rows set the first 8 of 32 bits: the bits a row adds must be
        # spread evenly over the 24 zeros and the bits it clears over the 8
        # ones.  Flips within a row are drawn without replacement, which makes
        # column counts less spread than the chi^2 cutoffs assume, so each of
        # the three tests fails falsely with probability <= 0.1 %.
        n, q, m = 32, 0.25, 4000
        base = np.zeros((m, n), dtype=np.uint8)
        base[:, :8] = 1
        out = aaot_transform(base, n, q, np.random.default_rng(16))
        for columns in (out[:, 8:].sum(axis=0), m - out[:, :8].sum(axis=0)):
            expected = columns.mean()
            chi2 = ((columns - expected) ** 2 / expected).sum()
            assert chi2 < stats.chi2.ppf(0.999, columns.size - 1)
        rng = np.random.default_rng(17)
        rows = np.array([aaot_transform_rows(row, n, q, rng) for row in base])
        kept = [np.bincount(x[:, :8].sum(axis=1), minlength=9) for x in (out, rows)]
        table = np.array(kept)[:, np.array(kept).sum(axis=0) >= 10]  # expected >= 5
        assert stats.chi2_contingency(table)[1] > 0.001

    def test_chunked_equals_oneshot(self):
        # 55 nodes: 1,191 rows per chunk, so 3,000 rows cross two boundaries.
        rng = np.random.default_rng(18)
        base = (rng.random((3000, 55)) < 0.2).astype(np.uint8)
        batch = aaot_transform(base, 55, 0.27, np.random.default_rng(19))
        oneshot = aaot_transform_oneshot(base, 55, 0.27, np.random.default_rng(19))
        np.testing.assert_array_equal(batch, oneshot)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            aaot_transform(np.zeros((3, 4), np.uint8), 5, 0.25, np.random.default_rng(0))
        with pytest.raises(ValueError):
            aaot_transform(np.zeros(5, np.uint8), 5, 0.25, np.random.default_rng(0))

    def test_zero_fakes(self):
        out = aaot_transform(np.zeros((0, 7), np.uint8), 7, 0.25, np.random.default_rng(0))
        assert out.shape == (0, 7) and out.dtype == np.uint8
        inner = MgaTreeAttack(RangeQuery((0,), ((0, 4),)), 1.0)
        wrapper = AdaptiveTreeAttack(inner, 1.0)
        assert wrapper(*unit_leaves(16), 0, np.random.default_rng(0)).shape == (0, 16)

    def test_wrapper_resamples_every_row(self):
        inner = MgaTreeAttack(RangeQuery((0,), ((0, 4),)), 1.0)
        wrapper = AdaptiveTreeAttack(inner, 1.0)
        rng = np.random.default_rng(11)
        reports = wrapper(*unit_leaves(16), 200, rng)
        assert reports.shape == (200, 16)
        counts = reports.sum(axis=1)
        # MGA rows would all share one deterministic count; resampling spreads them.
        assert len(np.unique(counts)) > 3
