import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldplab import tree_protocol
from ldplab.attacks import OptimalTreeAttack, tree_coefficients
from ldplab.defenses import tree_detect
from ldplab.freq_oracles import OueCounts
from ldplab.postprocess import tree_consistency
from ldplab.query import RangeQuery
from ldplab.tree_protocol import (
    Tree,
    TreeConfig,
    collect_tree_groups,
    estimate_query,
    oue_sigma,
    query_cover,
    run_tree_protocol,
)

from .oracles import (
    coefficients_by_linearity,
    estimate_by_consistency,
    json_nodes,
    oue_perturb_batch_oneshot,
    tree_to_json,
)


class TestConfig:
    def test_depth(self):
        assert TreeConfig(domain_size=1024, fanout=2).depth == 10
        assert TreeConfig(domain_size=256, fanout=4).depth == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            TreeConfig(domain_size=100, fanout=2)  # not a power of fanout
        with pytest.raises(ValueError):
            TreeConfig(fanout=1)
        for domain_size in (1, 0, -4):  # depth 0 has no layer to estimate
            with pytest.raises(ValueError, match="domain_size must be >= fanout"):
                TreeConfig(domain_size=domain_size, fanout=2)

    def test_trees_of_one_shape_share_a_read_only_skeleton(self):
        a, b = Tree(64, 4), Tree(64, 4)
        assert a.lo is b.lo and a.hi is b.hi
        assert not a.lo.flags.writeable and not a.hi.flags.writeable
        assert Tree(64, 2).lo.size == 127 and a.lo.size == 85
        assert a.exists is not b.exists and a.f_hat is not b.f_hat
        with pytest.raises(ValueError):
            Tree(100, 2)  # not a power of fanout

    def test_threshold(self):
        default = TreeConfig(epsilon=1.0).threshold_for(1000)
        assert default == pytest.approx(2.0 * oue_sigma(1.0, 1000))


class TestLayerPlan:
    @given(
        n_real=st.integers(1, 10**5),
        rho=st.sampled_from([0.0, 0.01, 0.1, 0.25, 0.5, 0.9]),
        shape=st.sampled_from([(16, 2), (64, 2), (1024, 2), (256, 4), (27, 3)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_near_equal_groups_larger_first(self, n_real, rho, shape):
        config = TreeConfig(domain_size=shape[0], fanout=shape[1])
        n_fake = int(round(n_real * rho / (1.0 - rho)))
        plan = config.layer_plan(n_real, n_fake)
        for sizes, total in zip(plan, (n_real, n_fake)):
            assert len(sizes) == config.depth and sum(sizes) == total
            assert max(sizes) - min(sizes) <= 1
            assert sizes == sorted(sizes, reverse=True)
            assert sizes == [a.size for a in np.array_split(np.arange(total), config.depth)]

    def test_no_fakes_without_rho(self):
        real, fake = TreeConfig(domain_size=16).layer_plan(10, 0)
        assert real == [3, 3, 2, 2] and fake == [0, 0, 0, 0]

    @pytest.mark.parametrize("n_fake", [-1, 0.1, 2.0])
    def test_rejects_counts_that_are_not_non_negative_integers(self, n_fake):
        with pytest.raises(ValueError, match="n_fake"):
            TreeConfig(domain_size=16).layer_plan(10, n_fake)


def _fixed_threshold(monkeypatch, theta):
    monkeypatch.setattr(TreeConfig, "threshold_for", lambda self, layer_users: theta)


class TestRunProtocol:
    def test_large_threshold_stops_after_first_layer(self, monkeypatch):
        _fixed_threshold(monkeypatch, 0.9)
        config = TreeConfig(domain_size=64)
        rng = np.random.default_rng(0)
        values = rng.integers(0, 64, 5000)
        tree = run_tree_protocol(collect_tree_groups(values, config, rng=rng), config, rng=rng)
        # Uniform data: every first-layer frequency ~ 1/2 < 0.9, no splits.
        assert tree.leaves()[tree.children([0])].all()

    def test_zero_threshold_builds_full_tree(self, monkeypatch):
        _fixed_threshold(monkeypatch, 0.0)
        config = TreeConfig(domain_size=16)
        rng = np.random.default_rng(1)
        values = rng.integers(0, 16, 4000)
        tree = run_tree_protocol(collect_tree_groups(values, config, rng=rng), config, rng=rng)
        assert tree.exists.all()  # root + 4 estimated layers, all complete
        assert tree.depth == 4

    def test_hook_shape_checked(self, monkeypatch):
        _fixed_threshold(monkeypatch, 0.0)
        config = TreeConfig(domain_size=16)
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="attack hook"):
            run_tree_protocol(
                collect_tree_groups(np.zeros(100, dtype=int), config, rng=rng),
                config,
                hook=lambda tree, frontier, m, r: np.zeros((m + 1, frontier.size)),
                n_fake=11,
                rng=rng,
            )

    @pytest.mark.parametrize("entry", [2, -1, 0.5])
    def test_hook_entries_checked(self, monkeypatch, entry):
        """A hook entry other than 0 or 1 is rejected, not cast: int64 -1
        would wrap to 255 as uint8 and 0.5 would truncate to 0."""
        _fixed_threshold(monkeypatch, 0.0)
        config = TreeConfig(domain_size=16)
        rng = np.random.default_rng(2)

        def hook(tree, frontier, m, r):
            reports = np.zeros((m, frontier.size), dtype=np.asarray(entry).dtype)
            reports[0, -1] = entry
            return reports

        with pytest.raises(ValueError, match="attack hook returned entries other than 0 and 1"):
            run_tree_protocol(
                collect_tree_groups(np.zeros(100, dtype=int), config, rng=rng),
                config,
                hook=hook,
                n_fake=11,
                rng=rng,
                keep_reports=True,
            )

    def test_collection_validation(self):
        config = TreeConfig(domain_size=16)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="empty user set"):
            collect_tree_groups([], config, rng=rng)
        for values in ([16], [-1], np.array([[3], [16]])):
            with pytest.raises(ValueError, match="values outside domain"):
                collect_tree_groups(values, config, rng=rng)
        with pytest.raises(ValueError):
            collect_tree_groups(np.zeros((5, 2), dtype=int), config, rng=rng)  # one column only

    def test_input_validation(self):
        config = TreeConfig(domain_size=16)
        rng = np.random.default_rng(0)
        groups = collect_tree_groups([0], config, rng=rng)
        for n_fake in (-1, 0.1, 2.0):
            with pytest.raises(ValueError, match="n_fake"):
                run_tree_protocol(groups, config, n_fake=n_fake, rng=rng)
        with pytest.raises(ValueError, match="n_fake"):
            run_tree_protocol(groups, config, None, 0.1, rng=rng)  # a stale positional rho
        # Raw values, or groups collected on another config, are not layer groups.
        for data in (np.zeros(100, dtype=int), collect_tree_groups(np.zeros(100, dtype=int), TreeConfig(64), rng=rng)):
            with pytest.raises(ValueError, match="real_groups"):
                run_tree_protocol(data, config, rng=rng)

    def test_collection_is_the_runs_first_draw(self):
        """The groups are read-only, sized by ``layer_plan``, and drawn by one
        permutation, so collect-then-run on one rng draws as a run did when
        it partitioned the users itself."""
        config = TreeConfig(domain_size=16)
        values = np.random.default_rng(7).integers(0, 16, 1001)
        groups = collect_tree_groups(values[:, None], config, rng=np.random.default_rng(8))
        assert [g.size for g in groups] == config.layer_plan(1001, 0)[0] == [251, 250, 250, 250]
        assert all(not g.flags.writeable for g in groups)
        np.testing.assert_array_equal(
            np.concatenate(groups), values[np.random.default_rng(8).permutation(values.size)]
        )

    def test_rounds_cover_every_layer(self, monkeypatch):
        _fixed_threshold(monkeypatch, 0.0)
        config = TreeConfig(domain_size=16)
        rng = np.random.default_rng(3)
        groups = collect_tree_groups(rng.integers(0, 16, 1000), config, rng=rng)
        tree = run_tree_protocol(groups, config, rng=rng, keep_reports=True)
        assert [len(nodes) for nodes, _ in tree.rounds] == [2, 4, 8, 16]
        assert [ones.size for _, ones in tree.rounds] == config.layer_plan(1000, 0)[0]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_node_is_estimated(self, seed):
        """Every non-root node of the tree appeared in a round's frontier:
        no split follows the last layer."""
        rng = np.random.default_rng(seed)
        values = np.clip(rng.normal(512, 40, 30_000), 0, 1023).astype(int)
        config = TreeConfig()
        tree = run_tree_protocol(collect_tree_groups(values, config, rng=rng), config, rng=rng, keep_reports=True)
        observed = np.concatenate([nodes for nodes, _ in tree.rounds])
        np.testing.assert_array_equal(np.flatnonzero(tree.exists)[1:], np.unique(observed))

    def test_optimal_attack_plans_on_the_protocol_layers(self):
        """The attack's layer plan is the protocol's: every layer's fake count
        equals the attack's ``_fake_sizes``, and each round holds the
        layer's ``_real_sizes`` real and ``_fake_sizes`` fake reports.  Each
        call sees the tree under construction: its leaves are the frontier,
        ``len(tree.rounds)`` is the call's index, and the attack leaves the
        tree's structure as it found it."""
        values = np.clip(np.random.default_rng(5).normal(32, 6, 5000), 0, 63).astype(int)
        config = TreeConfig(domain_size=64)
        attack = OptimalTreeAttack(config, RangeQuery((0,), ((24, 40),)), values.size, 556)
        fakes = []

        def recording(tree, frontier, m_fake, rng):
            np.testing.assert_array_equal(np.flatnonzero(tree.leaves()), np.sort(frontier))
            assert np.all(np.diff(tree.lo[frontier]) > 0)
            assert len(tree.rounds) == len(fakes)
            exists = tree.exists.copy()
            reports = attack(tree, frontier, m_fake, rng)
            np.testing.assert_array_equal(tree.exists, exists)
            fakes.append(m_fake)
            return reports

        rng = np.random.default_rng(6)
        groups = collect_tree_groups(values, config, rng=rng)
        tree = run_tree_protocol(groups, config, hook=recording, n_fake=556, rng=rng, keep_reports=True)
        assert len(fakes) == config.depth and max(nodes.size for nodes, _ in tree.rounds) > 2
        assert fakes == attack._fake_sizes and sum(fakes) == 556
        reports = [ones.size for _, ones in tree.rounds]
        assert reports == [r + f for r, f in zip(attack._real_sizes, attack._fake_sizes)]

    def test_run_stops_at_the_first_empty_layer(self):
        """At epsilon 10 one user splits a node, so five users leave the
        later layers with no user: no round records them, and the
        ones-count detector reads every round."""
        config = TreeConfig(domain_size=1024, epsilon=10.0)
        rng = np.random.default_rng(0)
        tree = run_tree_protocol(collect_tree_groups(np.full(5, 512), config, rng=rng), config, rng=rng, keep_reports=True)
        assert [ones.size for _, ones in tree.rounds] == [1] * 5
        for nodes, ones in tree.rounds:
            tree_detect(ones, nodes.size, config.epsilon)

    @staticmethod
    def _attacked_run(keep_reports=True):
        # Narrow data and the default threshold give adaptive, uneven
        # frontiers; the hook's random fake bits exercise the fake counts.
        values = np.clip(np.random.default_rng(5).normal(32, 6, 5000), 0, 63).astype(int)
        config, rng = TreeConfig(domain_size=64), np.random.default_rng(6)
        tree = run_tree_protocol(
            collect_tree_groups(values, config, rng=rng),
            config,
            hook=lambda tree, frontier, m, r: (r.random((m, frontier.size)) < 0.4).astype(np.uint8),
            n_fake=556,
            rng=rng,
            keep_reports=keep_reports,
        )
        return tree_to_json(tree), tree.rounds

    def test_counts_equal_one_shot_report_matrix(self, monkeypatch):
        """The protocol run on the 1-counts equals a run on the sums of the
        one-shot reference's whole report matrix.  Kept rounds hold every
        report's 1-count, so each layer asks for per-report counts."""
        tree_json, rounds = self._attacked_run()

        def matrix_sums(true_indices, params, rng, *, per_report):
            assert per_report is True
            bits = oue_perturb_batch_oneshot(true_indices, params, rng).astype(np.int64)
            return OueCounts(bits.sum(axis=0), bits.sum(axis=1))

        monkeypatch.setattr(tree_protocol, "oue_perturb_batch", matrix_sums)
        expected_json, expected_rounds = self._attacked_run()
        assert tree_json == expected_json
        assert len(rounds) == len(expected_rounds) > 1
        plan = zip(*TreeConfig(domain_size=64).layer_plan(5000, 556))
        for (nodes, ones), (nodes_x, ones_x), (n_real, n_fake) in zip(rounds, expected_rounds, plan):
            np.testing.assert_array_equal(nodes, nodes_x)
            np.testing.assert_array_equal(ones, ones_x)
            assert n_fake in (92, 93) and ones.size == n_real + n_fake  # 556 fakes over 6 layers

    def test_run_without_reports_draws_column_counts_only(self, monkeypatch):
        """Without ``keep_reports`` every layer asks for its column counts
        alone, every round's reports are ``None``, and the run is the one the
        real draw gives."""
        tree_json, rounds = self._attacked_run(keep_reports=False)
        assert len(rounds) > 1 and all(ones is None for _, ones in rounds)
        real_draw = tree_protocol.oue_perturb_batch
        per_report_flags = []

        def column_counts(true_indices, params, rng, *, per_report):
            per_report_flags.append(per_report)
            return real_draw(true_indices, params, rng, per_report=per_report)

        monkeypatch.setattr(tree_protocol, "oue_perturb_batch", column_counts)
        assert self._attacked_run(keep_reports=False)[0] == tree_json
        assert per_report_flags == [False] * TreeConfig(domain_size=64).depth


def test_split_replaces_masked_nodes_in_place():
    tree = Tree(16, 2)
    frontier = tree.split(np.zeros(1, dtype=np.int64), np.ones(1, dtype=bool))
    frontier = tree.split(frontier, np.array([True, False]))
    assert list(zip(tree.lo[frontier], tree.hi[frontier])) == [(0, 4), (4, 8), (8, 16)]
    out = tree.split(frontier, np.array([True, False, True]))
    assert list(zip(tree.lo[out], tree.hi[out])) == [(0, 2), (2, 4), (4, 8), (8, 12), (12, 16)]
    assert out[0] == tree.children([frontier[0]])[0] and out[2] == frontier[1]
    assert tree.leaves()[frontier[1]] and not tree.leaves()[frontier[0]]
    assert tree.split(out, np.zeros(5, dtype=bool)) is None


class TestQueries:
    def _tree(self):
        rng = np.random.default_rng(4)
        with pytest.MonkeyPatch.context() as monkeypatch:
            _fixed_threshold(monkeypatch, 0.0)
            config = TreeConfig(domain_size=64)
            return run_tree_protocol(collect_tree_groups(rng.integers(0, 64, 8000), config, rng=rng), config, rng=rng)

    def test_full_domain_is_root(self):
        tree = self._tree()
        full, partial, _ = query_cover(tree, 0, 64)
        assert full.tolist() == [0]
        assert partial.size == 0

    def test_half_domain_is_left_child(self):
        tree = self._tree()
        full, partial, _ = query_cover(tree, 0, 32)
        assert full.tolist() == [tree.children([0])[0]]
        assert partial.size == 0

    def test_estimate_rejects_multi_dim(self):
        tree = self._tree()
        query = RangeQuery((0, 1), ((0, 8), (0, 8)))
        with pytest.raises(ValueError):
            estimate_query(tree, query)
        single = RangeQuery((0,), ((0, 32),))
        assert estimate_query(tree, single) == tree.f_tilde[tree.children([0])[0]]

    def test_additivity(self):
        tree = self._tree()
        left = estimate_query(tree, RangeQuery((0,), ((0, 32),)))
        right = estimate_query(tree, RangeQuery((0,), ((32, 64),)))
        total = estimate_query(tree, RangeQuery((0,), ((0, 64),)))
        assert left + right == pytest.approx(total, abs=1e-9)
        assert total == pytest.approx(tree.f_tilde[0], abs=1e-12)

    def test_matches_consistency_oracle(self):
        tree = self._tree()
        rng = np.random.default_rng(5)
        for _ in range(10):
            lo = int(rng.integers(0, 63))
            hi = int(rng.integers(lo + 1, 65))
            ours = estimate_query(tree, RangeQuery((0,), ((lo, hi),)))
            reference = estimate_by_consistency(json.loads(tree_to_json(tree)), lo, hi)
            assert ours == pytest.approx(reference, abs=1e-12)

    def test_out_of_domain_query(self):
        tree = self._tree()
        with pytest.raises(ValueError):
            query_cover(tree, 0, 65)

    def test_honest_accuracy(self):
        rng = np.random.default_rng(6)
        values = np.clip(np.rint(rng.normal(32, 8, 40_000)), 0, 63).astype(int)
        config = TreeConfig(domain_size=64, epsilon=1.0)
        tree = run_tree_protocol(collect_tree_groups(values, config, rng=rng), config, rng=rng)
        for lo, hi in [(16, 48), (24, 40), (0, 64)]:
            truth = ((values >= lo) & (values < hi)).mean()
            estimate = estimate_query(tree, RangeQuery((0,), ((lo, hi),)))
            assert abs(estimate - truth) < 0.1


def test_json_round_trip():
    tree = Tree(4, 2)
    tree.split(np.zeros(1, dtype=np.int64), np.ones(1, dtype=bool))
    tree.f_hat[:3] = [0.5, 0.2, 0.3]
    tree.f_tilde[0] = 0.4
    payload = json.loads(tree_to_json(tree))
    assert payload["interval"] == [0, 4]
    assert payload["f_hat"] == 0.5
    assert payload["f_tilde"] == 0.4
    assert [c["interval"] for c in payload["children"]] == [[0, 2], [2, 4]]
    assert all(c["children"] == [] for c in payload["children"])


@given(
    fanout=st.sampled_from([2, 4]),
    depth=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_flat_tree_matches_recursive_references(fanout, depth, seed):
    """Consistency, query estimates and coefficients against the JSON oracles."""
    rng = np.random.default_rng(seed)
    domain = fanout**depth
    tree = Tree(domain, fanout)
    frontier = tree.split(np.zeros(1, dtype=np.int64), np.ones(1, dtype=bool))
    while frontier is not None:
        frontier = tree.split(frontier, rng.random(frontier.size) < 0.6)
    tree.f_hat[tree.exists] = rng.normal(0.1, 0.2, int(tree.exists.sum()))
    reference = json.loads(tree_to_json(tree))
    tree_consistency(tree)
    estimate_by_consistency(reference, 0, domain)  # fills f_tilde
    ours = json_nodes(json.loads(tree_to_json(tree)))
    assert [n["interval"] for n in ours] == [n["interval"] for n in json_nodes(reference)]
    for a, b in zip(ours, json_nodes(reference)):
        assert a["f_tilde"] == pytest.approx(b["f_tilde"], abs=1e-12)

    lo = int(rng.integers(0, domain))
    hi = int(rng.integers(lo + 1, domain + 1))
    query = RangeQuery((0,), ((lo, hi),))
    assert estimate_query(tree, query) == pytest.approx(
        estimate_by_consistency(reference, lo, hi), abs=1e-12
    )
    coeffs = tree_coefficients(tree, query)
    expected = coefficients_by_linearity(reference, lo, hi)
    built = np.flatnonzero(tree.exists)
    assert {(int(tree.lo[i]), int(tree.hi[i])) for i in built} == set(expected)
    for i in built:
        assert coeffs[i] == pytest.approx(expected[(tree.lo[i], tree.hi[i])], abs=1e-12)
    assert not coeffs[~tree.exists].any()


def test_range_query_validation():
    with pytest.raises(ValueError):
        RangeQuery((), ())
    with pytest.raises(ValueError):
        RangeQuery((0,), ((4, 4),))
    with pytest.raises(ValueError):
        RangeQuery((0, 1), ((0, 4),))
    query = RangeQuery((2, 5), ((0, 4), (8, 16)))
    assert query.interval_for(5) == (8, 16)


def test_range_query_snaps_outward():
    query = RangeQuery((0, 1, 2), ((3, 20), (16, 48), (50, 63)))
    snapped = query.snapped(16, 60)
    assert snapped.attrs == query.attrs
    # Outward to multiples of 16, the upper end capped at the domain.
    assert snapped.intervals == ((0, 32), (16, 48), (48, 60))
