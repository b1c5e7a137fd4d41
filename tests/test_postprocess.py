import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldplab.grid_protocol import GridConfig, grid_keys
from ldplab.postprocess import grid_consistency, norm_sub, norm_sub_deltas, tree_consistency
from ldplab.tree_protocol import Tree

from .oracles import (
    consistency_recursive,
    grid_consistency_slices,
    json_nodes,
    norm_sub_bisect,
    tree_to_json,
)


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

    def test_row_solver_equals_norm_sub_on_every_row(self):
        """Each row's delta has the bits of that row solved alone, for rows
        with ties, negatives, sums above and below one, and a single node."""
        rng = np.random.default_rng(11)
        for n_rows, n_cols in [(1, 1), (7, 1), (50, 3), (64, 64), (20, 1024)]:
            rows = rng.normal(0.0, 2.0, (n_rows, n_cols))
            rows[::3] = np.round(rows[::3])  # ties
            rows[1::3] = rng.dirichlet(np.ones(n_cols), n_rows)[1::3]  # sums of one
            deltas = norm_sub_deltas(rows)
            alone = np.array([norm_sub(row).delta for row in rows])
            np.testing.assert_array_equal(deltas.view(np.int64), alone.view(np.int64))

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


def _grid_inputs(config, values):
    """``freqs`` and ``columns`` for every grid of ``config``, cells from ``values``."""
    keys = grid_keys(config.d)
    freqs = {key: values(math.prod(config.shape(key))) for key in keys}
    return freqs, {key: config.columns(key) for key in keys}


def _split(config, freqs):
    """The same grids as 1-D vectors and 2-D matrices (the oracle's form)."""
    one_d = [freqs[("1d", i)] for i in range(config.d)]
    two_d = {
        (i, j): freqs[("2d", i, j)].reshape(config.g2, config.g2)
        for i, j in itertools.combinations(range(config.d), 2)
    }
    return one_d, two_d


class TestGridConsistency:
    def _uniform_grids(self, d=3, g1=16, g2=4):
        return _grid_inputs(GridConfig(d=d, g1=g1, g2=g2), lambda n: np.full(n, 1.0 / n))

    def test_consistent_grids_are_fixed_point(self):
        freqs, columns = self._uniform_grids()
        out = grid_consistency(freqs, columns, 4)
        for key in freqs:
            np.testing.assert_allclose(out[key], freqs[key], atol=1e-12)

    def test_one_pass_equalizes_fraction_sums(self):
        # All grids carry equal total mass (1.0), arbitrary per-cell values.
        rng = np.random.default_rng(3)
        d, g1, g2 = 3, 16, 4
        config = GridConfig(d=d, g1=g1, g2=g2)
        one_d = [norm_sub_bisect(rng.normal(0, 1, g1))[0] for _ in range(d)]
        two_d = {
            (i, j): norm_sub_bisect(rng.normal(0, 1, g2 * g2))[0]
            for i in range(d)
            for j in range(i + 1, d)
        }
        freqs = {("1d", i): v for i, v in enumerate(one_d)}
        freqs.update({("2d", i, j): v for (i, j), v in two_d.items()})
        columns = {key: config.columns(key) for key in freqs}
        out = grid_consistency(freqs, columns, g2)
        out1, out2 = _split(config, out)
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
        freqs, columns = self._uniform_grids()
        missing = {key: v for key, v in freqs.items() if key != ("1d", 2)}
        with pytest.raises(ValueError):
            grid_consistency(missing, columns, 4)
        with pytest.raises(ValueError):
            grid_consistency({**freqs, ("1d", 0): np.full(15, 1.0 / 15)}, columns, 4)
        with pytest.raises(ValueError):
            GridConfig(d=3, g1=15, g2=4)

    @given(
        d=st.integers(2, 5),
        g2=st.sampled_from([2, 4, 8]),
        ratio=st.sampled_from([1, 2, 4, 8]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_slice_oracle(self, d, g2, ratio, seed):
        config = GridConfig(d=d, g1=g2 * ratio, g2=g2, domain_size=g2 * ratio)
        rng = np.random.default_rng(seed)
        freqs, columns = _grid_inputs(config, lambda n: rng.normal(1.0 / n, 0.05, n))
        out = grid_consistency(freqs, columns, g2)
        assert list(out) == list(freqs)
        ref_one_d, ref_two_d = grid_consistency_slices(*_split(config, freqs), config.g1, g2, d)
        out_one_d, out_two_d = _split(config, out)
        for ours, ref in zip(out_one_d, ref_one_d):
            np.testing.assert_array_equal(ours, ref)
        for pair, ref in ref_two_d.items():
            np.testing.assert_array_equal(out_two_d[pair], ref)
