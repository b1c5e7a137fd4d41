import json

import numpy as np
import pytest

from ldplab.tree_protocol import (
    RangeQuery,
    TreeConfig,
    TreeNode,
    _partition_sizes,
    estimate_query,
    oue_sigma,
    query_cover,
    query_decomposition,
    run_tree_protocol,
    split_frontier,
    tree_to_json,
)

from .oracles import estimate_by_consistency


class TestConfig:
    def test_depth(self):
        assert TreeConfig(domain_size=1024, fanout=2).depth == 10
        assert TreeConfig(domain_size=256, fanout=4).depth == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            TreeConfig(domain_size=100, fanout=2)  # not a power of fanout
        with pytest.raises(ValueError):
            TreeConfig(fanout=1)
        with pytest.raises(ValueError):
            TreeConfig(split_threshold=-0.1)

    def test_threshold(self):
        assert TreeConfig(split_threshold=0.25).threshold_for(1000) == 0.25
        default = TreeConfig(epsilon=1.0).threshold_for(1000)
        assert default == pytest.approx(2.0 * oue_sigma(1.0, 1000))


class TestPartitionSizes:
    def test_even_split(self):
        sizes = _partition_sizes(10, 3, None)
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_fractions(self):
        assert _partition_sizes(100, 2, [0.3, 0.7]) == [30, 70]
        with pytest.raises(ValueError):
            _partition_sizes(100, 2, [0.3, 0.6])


class TestRunProtocol:
    def test_large_threshold_stops_after_first_layer(self):
        config = TreeConfig(domain_size=64, split_threshold=0.9)
        rng = np.random.default_rng(0)
        values = rng.integers(0, 64, 5000)
        root = run_tree_protocol(values, config, rng=rng)
        # Uniform data: every first-layer frequency ~ 1/2 < 0.9, no splits.
        assert all(child.is_leaf() for child in root.children)

    def test_zero_threshold_builds_full_tree(self):
        config = TreeConfig(domain_size=16, split_threshold=0.0)
        rng = np.random.default_rng(1)
        values = rng.integers(0, 16, 4000)
        root = run_tree_protocol(values, config, rng=rng)

        def depth(node):
            return 1 + max((depth(c) for c in node.children), default=0)

        assert depth(root) == 5  # root + 4 estimated layers

    def test_hook_shape_checked(self):
        config = TreeConfig(domain_size=16, split_threshold=0.0)
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="attack hook"):
            run_tree_protocol(
                np.zeros(100, dtype=int),
                config,
                hook=lambda nodes, m, r: np.zeros((m + 1, len(nodes))),
                rho=0.1,
                rng=rng,
            )

    def test_input_validation(self):
        config = TreeConfig(domain_size=16)
        with pytest.raises(ValueError):
            run_tree_protocol([], config)
        with pytest.raises(ValueError):
            run_tree_protocol([16], config)
        with pytest.raises(ValueError):
            run_tree_protocol([0], config, rho=1.0)

    def test_observer_sees_every_layer(self):
        config = TreeConfig(domain_size=16, split_threshold=0.0)
        rng = np.random.default_rng(3)
        seen = []
        run_tree_protocol(
            rng.integers(0, 16, 1000),
            config,
            rng=rng,
            observer=lambda nodes, real, fake: seen.append((len(nodes), fake)),
        )
        assert [n for n, _ in seen] == [2, 4, 8, 16]
        assert all(fake is None for _, fake in seen)


def test_split_frontier_replaces_masked_nodes_in_place():
    frontier = [TreeNode(0, 4), TreeNode(4, 8), TreeNode(8, 16)]
    out = split_frontier(frontier, [True, False, True], 2)
    assert [(n.lo, n.hi) for n in out] == [(0, 2), (2, 4), (4, 8), (8, 12), (12, 16)]
    assert out[0] is frontier[0].children[0] and out[2] is frontier[1]
    assert frontier[1].is_leaf()


class TestQueries:
    def _tree(self):
        rng = np.random.default_rng(4)
        config = TreeConfig(domain_size=64, split_threshold=0.0)
        return run_tree_protocol(rng.integers(0, 64, 8000), config, rng=rng)

    def test_full_domain_is_root(self):
        root = self._tree()
        full, partial = query_cover(root, 0, 64)
        assert full == [root]
        assert partial == []

    def test_half_domain_is_left_child(self):
        root = self._tree()
        full, partial = query_cover(root, 0, 32)
        assert full == [root.children[0]]
        assert partial == []

    def test_decomposition_rejects_multi_dim(self):
        root = self._tree()
        query = RangeQuery((0, 1), ((0, 8), (0, 8)))
        with pytest.raises(ValueError):
            query_decomposition(root, query)
        single = RangeQuery((0,), ((0, 32),))
        assert query_decomposition(root, single) == [root.children[0]]

    def test_additivity(self):
        root = self._tree()
        left = estimate_query(root, RangeQuery((0,), ((0, 32),)))
        right = estimate_query(root, RangeQuery((0,), ((32, 64),)))
        total = estimate_query(root, RangeQuery((0,), ((0, 64),)))
        assert left + right == pytest.approx(total, abs=1e-9)
        assert total == pytest.approx(root.f_tilde, abs=1e-12)

    def test_matches_consistency_oracle(self):
        root = self._tree()

        def clone(node):
            copy = TreeNode(node.lo, node.hi, f_hat=node.f_hat)
            copy.children = [clone(c) for c in node.children]
            return copy

        rng = np.random.default_rng(5)
        for _ in range(10):
            lo = int(rng.integers(0, 63))
            hi = int(rng.integers(lo + 1, 65))
            ours = estimate_query(root, RangeQuery((0,), ((lo, hi),)))
            reference = estimate_by_consistency(clone(root), lo, hi)
            assert ours == pytest.approx(reference, abs=1e-12)

    def test_out_of_domain_query(self):
        root = self._tree()
        with pytest.raises(ValueError):
            query_cover(root, 0, 65)

    def test_honest_accuracy(self):
        rng = np.random.default_rng(6)
        values = np.clip(np.rint(rng.normal(32, 8, 40_000)), 0, 63).astype(int)
        config = TreeConfig(domain_size=64, epsilon=1.0)
        root = run_tree_protocol(values, config, rng=rng)
        for lo, hi in [(16, 48), (24, 40), (0, 64)]:
            truth = ((values >= lo) & (values < hi)).mean()
            estimate = estimate_query(root, RangeQuery((0,), ((lo, hi),)))
            assert abs(estimate - truth) < 0.1


def test_json_round_trip():
    root = TreeNode(0, 4, f_hat=0.5, f_tilde=0.4)
    root.children = [TreeNode(0, 2, f_hat=0.2), TreeNode(2, 4, f_hat=0.3)]
    payload = json.loads(tree_to_json(root))
    assert payload["interval"] == [0, 4]
    assert payload["f_hat"] == 0.5
    assert [c["interval"] for c in payload["children"]] == [[0, 2], [2, 4]]


def test_range_query_validation():
    with pytest.raises(ValueError):
        RangeQuery((), ())
    with pytest.raises(ValueError):
        RangeQuery((0,), ((4, 4),))
    with pytest.raises(ValueError):
        RangeQuery((0, 1), ((0, 4),))
    query = RangeQuery((2, 5), ((0, 4), (8, 16)))
    assert query.interval_for(5) == (8, 16)
