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
from ldplab.tree_protocol import RangeQuery, Tree, TreeConfig, estimate_query

from .oracles import (
    aot_assignment_bruteforce,
    exhaustive_best_objective,
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
        hook = OptimalTreeAttack(config, query, assumed_n=10_000, rho=0.1)
        rng = np.random.default_rng(7)
        reports = hook(np.array([0, 32]), np.array([32, 64]), 50, rng)
        assert reports.shape == (50, 2)
        assert set(np.unique(reports)) <= {0, 1}

    def test_zero_fakes(self):
        config = TreeConfig(domain_size=16, epsilon=1.0)
        hook = OptimalTreeAttack(config, RangeQuery((0,), ((0, 8),)), 1000, 0.1)
        out = hook(np.array([0, 8]), np.array([8, 16]), 0, np.random.default_rng(8))
        assert out.shape == (0, 2)

    def test_validation(self):
        config = TreeConfig(domain_size=16)
        query = RangeQuery((0,), ((0, 8),))
        with pytest.raises(ValueError):
            OptimalTreeAttack(config, query, 0, 0.1)
        with pytest.raises(ValueError):
            OptimalTreeAttack(config, query, 100, 0.0)
        with pytest.raises(ValueError):
            OptimalTreeAttack(config, query, 100, 0.1, strategy="typo")


class TestAaot:
    def test_ones_count_law(self):
        # Output 1-counts must follow Bin(n-1, q) + Bin(1, 1/2).
        rng = np.random.default_rng(9)
        n, q = 16, 0.25
        base = np.zeros(n, dtype=np.uint8)
        base[:4] = 1
        counts = np.array(
            [aaot_transform(base, n, q, rng).sum() for _ in range(4000)]
        )
        pmf = np.convolve(stats.binom.pmf(np.arange(n), n - 1, q), [0.5, 0.5])
        observed = np.bincount(counts, minlength=n + 1)
        expected = pmf * counts.size
        keep = expected > 5
        chi2 = ((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum()
        cutoff = stats.chi2.ppf(0.999, keep.sum() - 1)
        assert chi2 < cutoff

    def test_keeps_targeting_bits_when_possible(self):
        rng = np.random.default_rng(10)
        base = np.zeros(16, dtype=np.uint8)
        base[0] = 1
        for _ in range(50):
            out = aaot_transform(base, 16, 0.25, rng)
            if out.sum() >= 1:
                # The original targeted bit survives unless the drawn count
                # forces removals below the original 1-count.
                assert out[0] == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            aaot_transform(np.zeros(4, np.uint8), 5, 0.25, np.random.default_rng(0))

    def test_wrapper_resamples_every_row(self):
        inner = MgaTreeAttack(RangeQuery((0,), ((0, 4),)), 1.0)
        wrapper = AdaptiveTreeAttack(inner, 1.0)
        rng = np.random.default_rng(11)
        reports = wrapper(*unit_leaves(16), 200, rng)
        assert reports.shape == (200, 16)
        counts = reports.sum(axis=1)
        # MGA rows would all share one deterministic count; resampling spreads them.
        assert len(np.unique(counts)) > 3
