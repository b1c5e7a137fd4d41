import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldplab.postprocess import grid_consistency, norm_sub, tree_consistency
from ldplab.tree_protocol import Tree, tree_to_json

from .oracles import consistency_recursive, json_nodes, norm_sub_bisect


class TestNormSub:
    def test_already_normalized(self):
        result = norm_sub([0.5, 0.5])
        assert result.delta == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(result.normalized, [0.5, 0.5])

    def test_single_survivor(self):
        result = norm_sub([1.5, -0.5])
        assert result.delta == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(result.normalized, [1.0, 0.0])

    def test_negative_delta_adds_mass(self):
        result = norm_sub([0.0, 0.0])
        assert result.delta == pytest.approx(-0.5, abs=1e-12)
        np.testing.assert_allclose(result.normalized, [0.5, 0.5])

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            size = int(rng.integers(1, 40))
            vec = rng.normal(0.0, 2.0, size)
            result = norm_sub(vec)
            expected, delta = norm_sub_bisect(vec)
            assert abs(result.delta - delta) <= 1e-9
            np.testing.assert_allclose(result.normalized, expected, atol=1e-9)

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_output_is_distribution(self, values):
        out = norm_sub(values).normalized
        assert np.all(out >= 0.0)
        assert np.sum(out) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            norm_sub([])
        with pytest.raises(ValueError):
            norm_sub([0.5, np.nan])
        with pytest.raises(ValueError):
            norm_sub([[0.1, 0.2], [0.3, 0.4]])


def _random_tree(rng, domain=8, fanout=2):
    """A tree that splits every node with probability 3/4, random ``f_hat``."""
    tree = Tree(domain, fanout)
    frontier = tree.split(np.zeros(1, dtype=np.int64), np.ones(1, dtype=bool))
    while frontier is not None:
        frontier = tree.split(frontier, rng.random(frontier.size) < 0.75)
    tree.f_hat[tree.exists] = rng.random(int(tree.exists.sum()))
    return tree


class TestTreeConsistency:
    def test_leaf_passthrough(self):
        leaf = Tree(1, 2)
        leaf.f_hat[0] = 0.3
        tree_consistency(leaf)
        assert leaf.f_tilde[0] == pytest.approx(0.3)

    def test_four_children_average(self):
        tree = Tree(4, 4)
        tree.split(np.zeros(1, dtype=np.int64), np.ones(1, dtype=bool))
        tree.f_hat[0] = 0.5
        tree.f_hat[1:5] = 0.075
        tree_consistency(tree)
        # lam = 4/5; children sum 0.3 -> 0.8 * 0.5 + 0.2 * 0.3
        assert tree.f_tilde[0] == pytest.approx(0.46, abs=1e-12)

    def test_matches_recursive_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            tree = _random_tree(rng)
            mirror = json.loads(tree_to_json(tree))
            tree_consistency(tree)
            consistency_recursive(mirror)
            ours = json_nodes(json.loads(tree_to_json(tree)))
            for a, b in zip(ours, json_nodes(mirror)):
                assert a["interval"] == b["interval"]
                assert a["f_tilde"] == pytest.approx(b["f_tilde"], abs=1e-12)


class TestGridConsistency:
    def _uniform_grids(self, d=3, g1=16, g2=4):
        one_d = [np.full(g1, 1.0 / g1) for _ in range(d)]
        two_d = {
            (i, j): np.full((g2, g2), 1.0 / (g2 * g2))
            for i in range(d)
            for j in range(i + 1, d)
        }
        return one_d, two_d

    def test_consistent_grids_are_fixed_point(self):
        one_d, two_d = self._uniform_grids()
        out1, out2 = grid_consistency(one_d, two_d, 16, 4, 3)
        for before, after in zip(one_d, out1):
            np.testing.assert_allclose(after, before, atol=1e-12)
        for key in two_d:
            np.testing.assert_allclose(out2[key], two_d[key], atol=1e-12)

    def test_one_pass_equalizes_fraction_sums(self):
        # All grids carry equal total mass (1.0), arbitrary per-cell values.
        rng = np.random.default_rng(3)
        d, g1, g2 = 3, 16, 4
        one_d = [norm_sub_bisect(rng.normal(0, 1, g1))[0] for _ in range(d)]
        two_d = {
            (i, j): norm_sub_bisect(rng.normal(0, 1, g2 * g2))[0].reshape(g2, g2)
            for i in range(d)
            for j in range(i + 1, d)
        }
        out1, out2 = grid_consistency(one_d, two_d, g1, g2, d)
        span = g1 // g2
        for i in range(d):
            for c in range(g2):
                target = out1[i][c * span : (c + 1) * span].sum()
                for (a, b), grid in out2.items():
                    if a == i:
                        assert grid[c, :].sum() == pytest.approx(target, abs=1e-9)
                    elif b == i:
                        assert grid[:, c].sum() == pytest.approx(target, abs=1e-9)

    def test_rejects_mismatched_sizes(self):
        one_d, two_d = self._uniform_grids()
        with pytest.raises(ValueError):
            grid_consistency(one_d[:-1], two_d, 16, 4, 3)
        with pytest.raises(ValueError):
            grid_consistency(one_d, two_d, 15, 4, 3)
