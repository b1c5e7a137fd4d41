import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ldplab.attacks import (
    AdaptiveGridAttack,
    ColumnBook,
    GridRangeAttack,
    GridSupports,
    HeuristicGridAttack,
    MgaGridAttack,
    SizeConstraints,
    aaog_compute_load_limit,
    aog_size_constraints,
    haog_best_pair,
    match_functions_to_grids,
    mga_grid,
    scan_supports,
)
from ldplab.attacks import grid
from ldplab.attacks.grid import _key_sizes
from ldplab.defenses import binomial_pmf, max_load_cdf
from ldplab.freq_oracles import HashFamily, OlhParams
from ldplab.grid_protocol import GridConfig, cells_in_range, grid_keys
from ldplab.harness import gen_queries
from ldplab.query import RangeQuery

from .oracles import (
    aaog_load_limit_simulated,
    book_admits_one,
    float_ranking,
    match_functions_to_grids_loop,
    olh_support_scan,
    plan_once_loop,
    preference,
    range_attack_begin_loop,
    simulated_load_tail,
    stable_matching_audit,
    support_scan_reference,
)
from .test_grid_plans import CONFIG, CONFLICT_QUERY, HEAVY_QUERIES, RHO, _plan, _queries


def scan(family, in_range, scale=1.0, layout=(16, 4)):
    return scan_supports(family, np.asarray(in_range, dtype=bool), scale, layout)


class TestScanSupports:
    def test_matches_per_cell_scan(self):
        family = HashFamily(17, 4)
        masks = (
            np.random.default_rng(13).random(16) < 0.5,
            np.zeros(16, dtype=bool),
            np.ones(16, dtype=bool),
        )
        for in_range in masks:
            supports = scan(family, in_range)
            np.testing.assert_array_equal(supports.fn_ids, family.random_fn_ids())
            for row in (0, 7, 100, supports.fn_ids.size - 1):
                for key in range(4):
                    cells = olh_support_scan(17, 4, int(supports.fn_ids[row]), key, 16)
                    assert supports.sizes[row, key] == len(cells)
                    assert supports.inter[row, key] == int(in_range[cells].sum())

    def test_hits_match_key_table(self):
        family = HashFamily(31, 4)
        supports = scan(family, np.ones(20, dtype=bool))
        assert supports.table is family.key_table(20)

    @given(
        prime=st.sampled_from([17, 31, 67, 211]),
        g=st.sampled_from([2, 4, 8, 21, 56]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_scan(self, prime, g, data):
        n_cells = data.draw(st.integers(1, prime), label="n_cells")
        bits = data.draw(st.lists(st.booleans(), min_size=n_cells, max_size=n_cells))
        in_range = np.array(bits, dtype=bool)
        family = HashFamily(prime, g)
        supports = scan(family, in_range)
        sizes, inter = support_scan_reference(family, in_range)
        assert supports.sizes.dtype == supports.inter.dtype == np.int64
        np.testing.assert_array_equal(supports.sizes, sizes)
        np.testing.assert_array_equal(supports.inter, inter)


@pytest.fixture
def empty_sizes_cache():
    _key_sizes.cache_clear()
    yield
    _key_sizes.cache_clear()


@pytest.mark.usefixtures("empty_sizes_cache")
class TestHitTableCache:
    def test_equal_families_share_one_entry(self):
        a = scan(HashFamily(17, 4), np.arange(16) < 5)
        b = scan(HashFamily(17, 4), np.arange(16) >= 5)
        assert a.table is b.table and a.sizes is b.sizes
        assert _key_sizes.cache_info().currsize == 1

    def test_cached_tables_are_read_only(self):
        family = HashFamily(17, 4)
        sizes = _key_sizes(family, 16)
        with pytest.raises(ValueError):
            sizes += 1
        supports = scan(family, np.ones(16, dtype=bool))
        with pytest.raises(ValueError):
            supports.sizes[0, 0] = 0
        with pytest.raises(ValueError):
            supports.table[:] = 0

    def test_cache_stays_bounded(self):
        maxsize = _key_sizes.cache_parameters()["maxsize"]
        family = HashFamily(17, 4)
        for n_cells in range(1, maxsize + 4):
            scan(family, np.ones(n_cells, dtype=bool))
        assert _key_sizes.cache_info().currsize == maxsize

    def test_masks_give_independent_inter(self):
        family = HashFamily(31, 4)
        rng = np.random.default_rng(16)
        mask_a, mask_b = rng.random(24) < 0.5, rng.random(24) < 0.5
        a, b = scan(family, mask_a), scan(family, mask_b)
        assert not np.shares_memory(a.inter, b.inter)
        np.testing.assert_array_equal(a.inter, support_scan_reference(family, mask_a)[1])
        np.testing.assert_array_equal(b.inter, support_scan_reference(family, mask_b)[1])


class TestSizeConstraints:
    # epsilon = 1 gives g = 4 hash keys.
    CONFIG = GridConfig(d=5, g1=16, g2=4, epsilon=1.0)

    def test_documented_drop_from_seven_to_five(self):
        # (g=4, g1=16, g2=4, d=5): the 2-D minimum support rounds to 7 at
        # rho=0.10 and to 5 at rho=0.15.
        assert self.CONFIG.olh_params().g == 4
        low = aog_size_constraints(0.10, self.CONFIG)
        high = aog_size_constraints(0.15, self.CONFIG)
        assert low.w2_int == 7
        assert high.w2_int == 5

    def test_halving_rho_doubles_bounds(self):
        a = aog_size_constraints(0.2, self.CONFIG)
        b = aog_size_constraints(0.1, self.CONFIG)
        assert b.w1 == pytest.approx(2 * a.w1)
        assert b.w2 == pytest.approx(2 * a.w2)

    def test_spot_values_match_closed_form(self):
        rho, g, g1, g2, d = 0.1, 4, 16, 4, 5
        out = aog_size_constraints(rho, GridConfig(d=d, g1=g1, g2=g2, epsilon=1.0))
        factor = (OlhParams(1.0).p - 1.0 / g) / rho
        w1 = factor * ((d - 1) * g1 + g2**2) / ((d - 1) * (g1 - 2 * g2) + g2**2)
        w2 = factor * g2 / (g2 - 3 + 3 * g1 / (g1 * (d - 1) + g2**2))
        assert out.w1 == pytest.approx(w1, abs=1e-12)
        assert out.w2 == pytest.approx(w2, abs=1e-12)

    def test_infeasible_configurations_raise(self):
        with pytest.raises(ValueError):
            aog_size_constraints(0.0, self.CONFIG)
        with pytest.raises(ValueError):
            # g2=2 with g1=16, d=5 drives the 2-D denominator negative:
            # 2 - 3 + 48/68 < 0.
            aog_size_constraints(0.1, GridConfig(d=5, g1=16, g2=2, epsilon=1.0))


class TestMgaGrid:
    def test_single_cell_query(self):
        family = HashFamily(17, 4)
        in_range = np.zeros(16, dtype=bool)
        in_range[5] = True
        rng = np.random.default_rng(0)
        fn_id, key = mga_grid(scan(family, in_range), rng)
        support = olh_support_scan(17, 4, fn_id, key, 16)
        assert 5 in support

    def test_full_grid_query_maximizes_support(self):
        family = HashFamily(17, 4)
        rng = np.random.default_rng(1)
        fn_id, key = mga_grid(scan(family, np.ones(16, dtype=bool)), rng)
        size = len(olh_support_scan(17, 4, fn_id, key, 16))
        # Verify optimality against a full scan.
        best = 0
        for fn in family.random_fn_ids():
            for key in range(4):
                best = max(best, len(olh_support_scan(17, 4, int(fn), key, 16)))
        assert size == best

    def test_empty_range_raises(self):
        family = HashFamily(17, 4)
        with pytest.raises(ValueError):
            mga_grid(scan(family, np.zeros(16, dtype=bool)), np.random.default_rng(0))

    def test_hook_shapes(self):
        config = GridConfig(d=2)
        query = RangeQuery((0, 1), ((0, 32), (0, 32)))
        hook = MgaGridAttack(config, query)
        fns, keys = hook(("2d", 0, 1), 9, np.random.default_rng(2))
        assert fns.shape == keys.shape == (9,)
        assert len(set(fns)) == 1  # all fakes share the chosen pair


class TestColumnBook:
    def test_first_record_sets_baseline(self):
        book = ColumnBook()
        book.record(0, np.array([2, 0, 1, 0]))
        rows = np.array(
            [
                [2, 0, 1, 0],
                [3, 1, 2, 1],  # +1 everywhere is fine
                [4, 0, 1, 0],  # +2 rejected
                [1, 0, 1, 0],  # -1 rejected
            ]
        )
        assert book.admits(0, rows).tolist() == [True, True, False, False]

    def test_unknown_attr_always_passes(self):
        book = ColumnBook()
        assert book.admits(3, np.array([9, 9, 9, 9])).tolist() == [True]

    def test_admits_rows_as_per_column_rule(self):
        book = ColumnBook()
        book.record(0, np.array([2, 1, 1, 0]))
        rows = np.random.default_rng(17).integers(0, 4, (200, 4))
        admitted = book.admits(0, rows)
        assert admitted.dtype == bool and admitted.shape == (200,)
        assert admitted.tolist() == [book_admits_one(book, 0, row) for row in rows]
        assert admitted.any() and not admitted.all()
        assert book.admits(1, rows).all()


def test_attr_columns():
    config = GridConfig(d=3)
    one_d = config.columns(("1d", 1))
    np.testing.assert_array_equal(one_d[1], np.arange(16) // 4)
    two_d = config.columns(("2d", 0, 2))
    np.testing.assert_array_equal(two_d[0], np.arange(16) // 4)
    np.testing.assert_array_equal(two_d[2], np.arange(16) % 4)


class TestFindHashPair:
    """The constraint planner's per-grid pair search, on one 1-D grid with a
    pinned size floor."""

    @staticmethod
    def plan(config, interval, min_support, book=None):
        attack = GridRangeAttack(config, RangeQuery((0,), (interval,)), rho=0.2)
        attack.constraints = SizeConstraints(min_support, min_support)
        key = ("1d", 0)
        candidates = {key: attack._candidates(key, attack.supports(key))}
        book = book if book is not None else ColumnBook()
        chosen, failed = attack._plan_once(
            [key], candidates, np.random.default_rng(14), book
        )
        return chosen.get(key), failed

    def test_full_range_accepts_large_support(self):
        pair, failed = self.plan(GridConfig(d=2, prime=17), (0, 64), 4)
        assert pair is not None and not failed
        support = olh_support_scan(17, 4, *pair, 16)
        assert len(support) >= 4

    def test_returned_support_is_subset_of_range(self):
        config = GridConfig(d=2, prime=211)
        in_range = np.zeros(16, dtype=bool)
        in_range[4:] = True  # columns 1..3 of a 1-D grid
        query = RangeQuery((0,), ((16, 64),))
        np.testing.assert_array_equal(cells_in_range(config, query, ("1d", 0)), in_range)
        pair, failed = self.plan(config, (16, 64), 3)
        assert pair is not None and not failed
        support = olh_support_scan(211, 4, *pair, 16)
        assert all(in_range[c] for c in support)
        assert len(support) >= 3

    def test_impossible_min_support_returns_none(self):
        config = GridConfig(d=2, prime=17)
        pair, failed = self.plan(config, (0, 64), 17)
        assert pair is None and failed == [("1d", 0)]
        # Through begin, every relevant grid becomes a fallback grid that
        # still gets the heuristic pair.
        attack = GridRangeAttack(config, RangeQuery((0,), ((0, 64),)), rho=0.2)
        attack.constraints = SizeConstraints(17, 17)
        attack.begin({}, 0, np.random.default_rng(15))
        assert attack.fallback_keys == attack._relevant_keys()
        assert set(attack.chosen) == set(grid_keys(2))

    def test_book_conflict_returns_none(self):
        book = ColumnBook()
        book.counts[0] = np.full(4, 9, dtype=np.int64)  # unsatisfiable baseline
        pair, failed = self.plan(GridConfig(d=2, prime=17), (0, 64), 1, book)
        assert pair is None and failed == [("1d", 0)]


class TestPlanOnceEqualsLoop:
    """The planner checks a grid's candidates in one array operation; the
    per-candidate loop of ``tests.oracles`` is the reference."""

    @pytest.mark.parametrize("index", range(4))
    def test_same_choices_failures_book_and_rng_state(self, index):
        query = (_queries() + [CONFLICT_QUERY])[index * 2]
        attack = GridRangeAttack(CONFIG, query, RHO)
        keys = attack._relevant_keys()
        candidates = {key: attack._candidates(key, attack.supports(key)) for key in keys}
        rng_new = np.random.default_rng(100 + index)
        rng_old = np.random.default_rng(100 + index)
        for _ in range(5):  # restarts, each with a fresh book
            book_new, book_old = ColumnBook(), ColumnBook()
            new = attack._plan_once(keys, candidates, rng_new, book_new)
            old = plan_once_loop(keys, candidates, rng_old, book_old)
            assert new == old
            assert book_new.counts.keys() == book_old.counts.keys()
            for attr, counts in book_new.counts.items():
                np.testing.assert_array_equal(counts, book_old.counts[attr])
            assert rng_new.bit_generator.state == rng_old.bit_generator.state

    def test_preset_book_with_conflicts(self):
        config = GridConfig(d=3, prime=67)
        query = RangeQuery((0, 1, 2), ((0, 48), (16, 64), (0, 64)))
        attack = GridRangeAttack(config, query, rho=0.2)
        attack.constraints = SizeConstraints(2, 2)
        keys = attack._relevant_keys()
        candidates = {key: attack._candidates(key, attack.supports(key)) for key in keys}
        for seed in range(10):
            books = []
            for _ in range(2):
                book = ColumnBook()
                book.record(seed % 3, np.random.default_rng(seed).integers(0, 3, config.g2))
                books.append(book)
            rngs = [np.random.default_rng(seed), np.random.default_rng(seed)]
            new = attack._plan_once(keys, candidates, rngs[0], books[0])
            old = plan_once_loop(keys, candidates, rngs[1], books[1])
            assert new == old
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


# (size floors or None for the bench's, query index into _queries() +
# HEAVY_QUERIES + [CONFLICT_QUERY], planning attempts that begin runs): the
# first two plan every grid that has a candidate at attempt 0, the heavy
# query never does and runs all attempts, one plans every grid at attempt 7,
# and the last two plan theirs later.
BEGIN_CASES = [
    (None, 0, 1), (None, 2, 1), (None, 6, 50),
    ((1, 1), 1, 7), ((2, 2), 7, 10), ((4, 4), 9, 15),
]


class TestBeginPlansOnlyGridsWithCandidates:
    """``begin`` plans only the relevant grids that have a compliant
    candidate and stops at the first attempt that plans all of them;
    ``tests.oracles.range_attack_begin_loop`` is the per-candidate
    reference."""

    @pytest.mark.parametrize("floors, index, attempts", BEGIN_CASES)
    def test_same_plan_and_rng_state_as_the_reference(self, floors, index, attempts):
        query = (_queries() + HEAVY_QUERIES + [CONFLICT_QUERY])[index]
        hooks = [GridRangeAttack(CONFIG, query, RHO) for _ in range(2)]
        if floors is not None:
            for hook in hooks:
                hook.constraints = SizeConstraints(*floors)
        rngs = [np.random.default_rng(index), np.random.default_rng(index)]
        plan_once = GridRangeAttack._plan_once
        with mock.patch.object(GridRangeAttack, "_plan_once", autospec=True, side_effect=plan_once) as spy:
            hooks[0].begin({}, 0, rngs[0])
        chosen, fallback_keys = range_attack_begin_loop(hooks[1], rngs[1])
        assert spy.call_count == attempts
        # No attempt is handed a grid without a candidate.
        for call in spy.call_args_list:
            _, keys, candidates = call.args[:3]
            assert all(len(candidates[key][0]) > 0 for key in keys)
        assert hooks[0].chosen == chosen
        assert hooks[0].fallback_keys == fallback_keys
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


# (d, prime, g1, g2): the bench layout, whose ranks fit int16, and two
# layouts at prime 67 whose ranks need int32.
RANK_LAYOUTS = [(5, 211, 16, 4), (4, 67, 32, 8), (4, 67, 64, 8)]


def _descending(values: np.ndarray) -> np.ndarray:
    return np.argsort(-values, axis=None, kind="stable")


class TestRank:
    @pytest.mark.parametrize("layout", RANK_LAYOUTS)
    def test_dtype_is_the_narrowest_that_negates(self, layout):
        d, prime, g1, g2 = layout
        config = GridConfig(d=d, g1=g1, g2=g2, prime=prime)
        hook = HeuristicGridAttack(config, RangeQuery((0,), ((0, 16),)))
        dtypes = {hook.supports(key).rank().dtype for key in grid_keys(d)}
        # The rank spans [-(g1*g2)**2, g1*g2]: int16 holds it (and its
        # negation) only at g1*g2 = 64.
        assert dtypes == {np.dtype(np.int16) if g1 * g2 == 64 else np.dtype(np.int32)}

    @given(layout=st.sampled_from(RANK_LAYOUTS), dims=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=24, deadline=None)
    def test_orders_like_preference_across_grids(self, layout, dims, seed):
        """The integer rank is the float preference's order, ties included,
        over all grids of a query at once: the values the quota matching
        stable-sorts."""
        d, prime, g1, g2 = layout
        config = GridConfig(d=d, g1=g1, g2=g2, prime=prime)
        (query,) = gen_queries(1, 64, d, min(dims, d), np.random.default_rng(seed), snap=config.col_width)
        hook = HeuristicGridAttack(config, query)
        scans = [hook.supports(key) for key in grid_keys(d)]
        rank = np.stack([scan.rank() for scan in scans])
        scores = np.stack([preference(scan) for scan in scans])
        np.testing.assert_array_equal(_descending(rank), _descending(scores))
        # Negation does not wrap, so the descending sort is safe.
        np.testing.assert_array_equal(-rank.astype(np.int64), (-rank).astype(np.int64))

    def test_one_d_spill_4_against_two_d_spill_1(self):
        """At g1 = 16, g2 = 4 a 1-D spill of 4 and a 2-D spill of 1 tie on
        the preference's primary, so the larger scaled size decides.  A
        per-grid base (``sizes - (n_cells + 1) * spill``) orders the two
        the other way; the config's common base does not."""
        def one_pair(size, inter, scale):
            return GridSupports(
                np.array([0]), np.zeros((1, 16)), np.array([[size]]), np.array([[inter]]), scale, (16, 4)
            )

        one_d, two_d = one_pair(12, 8, 4.0), one_pair(2, 1, 1.0)
        scores = np.stack([preference(one_d), preference(two_d)])
        assert scores[0, 0, 0] > scores[1, 0, 0]  # secondaries 3 > 2
        rank = np.stack([one_d.rank(), two_d.rank()])
        np.testing.assert_array_equal(_descending(rank), _descending(scores))
        per_grid = np.stack([s.sizes - 17 * (s.sizes - s.inter) for s in (one_d, two_d)])
        assert _descending(per_grid).tolist() != _descending(scores).tolist()


# A layout whose ranks need int32, with queries over two of its attributes.
WIDE_CONFIG = GridConfig(d=4, g1=64, g2=8, prime=67)
WIDE_QUERIES = gen_queries(4, 64, 4, 2, np.random.default_rng(5), snap=WIDE_CONFIG.col_width)


@pytest.mark.parametrize("attack", ["mga", "haog", "aog", "aaog"])
@pytest.mark.parametrize("index", range(len(WIDE_QUERIES)))
def test_plans_equal_the_float_path(attack, index):
    """Every grid attack plans as it did on float64 preference scores,
    argwhere searches and a float64 matching sort, at a layout the plan
    pins do not cover.  10k users leave the adaptive attack a cap of 1, so
    its matching fills 333 functions per grid from 4,422."""
    def plan():
        rng = np.random.default_rng(np.random.SeedSequence([670, index]))
        return _plan(attack, WIDE_QUERIES[index], rng, WIDE_CONFIG, 10_000)

    expected = plan()
    with float_ranking():
        assert plan() == expected
    if attack == "aaog":
        assert expected["load_limit"] == 1


class TestHaog:
    def test_preference_values(self):
        config = GridConfig(d=2)
        # One function, three keys: (support size, in-range size) of
        # (5, 5), (5, 0) and (8, 8).
        supports = GridSupports(
            fn_ids=np.array([0]),
            table=np.zeros((1, 16), dtype=np.uint8),
            sizes=np.array([[5, 5, 8]]),
            inter=np.array([[5, 0, 8]]),
            scale=1.0,
            layout=(config.g1, config.g2),
        )
        score = preference(supports)
        assert score.shape == (1, 3)
        # 2-D grid (scale 1): subset support has no violation (primary 0,
        # secondary 5).
        assert score[0, 0] == 0.0 * 1e6 + 5.0
        # Disjoint support: primary = -|S|.
        assert score[0, 1] == -5.0 * 1e6 + 5.0
        # 1-D grids rescale both components by g1/g2 = 4.
        hook = HeuristicGridAttack(config, RangeQuery((0,), ((0, 64),)))
        assert hook.supports(("2d", 0, 1)).scale == 1.0
        one_d = hook.supports(("1d", 0))
        assert one_d.scale == config.g1 / config.g2
        score = preference(dataclasses.replace(supports, scale=one_d.scale))
        assert score[0, 2] == 0.0 * 1e6 + 2.0
        assert score[0, 1] == -1.25 * 1e6 + 1.25

    @given(
        n_cells=st.integers(1, 1031),
        shape=st.tuples(st.integers(1, 40), st.sampled_from([2, 4, 8])),
        scale=st.sampled_from([1.0, 3.0, 4.0, 5.0, 7.0, 0.75, None]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_preference_is_lexicographic(self, n_cells, shape, scale, data):
        """One score orders (function, key) pairs by (spill, size): its tie
        set over the grid is the heuristic pick, its per-row argmax the
        adaptive attack's best key."""
        scale = n_cells / 9 if scale is None else scale
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        sizes = rng.integers(0, n_cells + 1, shape)
        inter = rng.integers(0, sizes + 1)
        supports = GridSupports(np.arange(shape[0]), np.zeros((0,)), sizes, inter, scale, (16, 4))
        score = preference(supports)
        # Exact integer reference: rank by (inter - sizes, sizes), descending.
        rank = [(int(i - s), int(s)) for i, s in zip(inter.ravel(), sizes.ravel())]
        top = max(rank)
        expected = [divmod(idx, shape[1]) for idx, r in enumerate(rank) if r == top]
        assert grid._best_pairs(score, supports.fn_ids).tolist() == [list(t) for t in expected]
        for row in range(shape[0]):
            keys = rank[row * shape[1] : (row + 1) * shape[1]]
            assert score[row].argmax() == keys.index(max(keys))

    def test_best_pair_on_full_range_has_max_support(self):
        config = GridConfig(d=2)
        family = config.family()
        pair = haog_best_pair(scan(family, np.ones(16, dtype=bool)), np.random.default_rng(3))
        size = len(olh_support_scan(config.prime, 4, *pair, 16))
        best = max(
            len(olh_support_scan(config.prime, 4, int(fn), key, 16))
            for fn in family.random_fn_ids()
            for key in range(4)
        )
        assert size == best

    def test_hook_shapes(self):
        config = GridConfig(d=2)
        hook = HeuristicGridAttack(config, RangeQuery((0, 1), ((0, 32), (0, 32))))
        fns, keys = hook(("1d", 0), 4, np.random.default_rng(4))
        assert fns.shape == keys.shape == (4,)


class TestGridRangeAttack:
    def test_plans_pair_for_every_grid(self):
        config = GridConfig(d=3, prime=211)
        query = RangeQuery((0, 1), ((16, 64), (0, 48)))
        attack = GridRangeAttack(config, query, rho=0.2)
        rng = np.random.default_rng(5)
        with mock.patch.object(grid, "_MAX_RESTARTS", 10):
            attack.begin({}, 0, rng)
        assert set(attack.chosen) == set(grid_keys(3))
        # Chosen pairs on relevant grids whose plan succeeded are in-range
        # subsets meeting the size floor.
        for key, pair in attack.chosen.items():
            if key in attack.fallback_keys:
                continue
            if not any(a in query.attrs for a in key[1:]):
                continue
            mask = cells_in_range(config, query, key)
            support = olh_support_scan(config.prime, 4, *pair, mask.size)
            assert all(mask[c] for c in support)

    def test_call_emits_planned_pair(self):
        config = GridConfig(d=3, prime=211)
        query = RangeQuery((0, 1), ((16, 64), (0, 48)))
        attack = GridRangeAttack(config, query, rho=0.2)
        rng = np.random.default_rng(6)
        with mock.patch.object(grid, "_MAX_RESTARTS", 10):
            attack.begin({}, 0, rng)
        fns, keys = attack(("2d", 0, 1), 7, rng)
        assert fns.shape == (7,)
        assert len(set(fns)) == 1
        assert (fns[0], keys[0]) == attack.chosen[("2d", 0, 1)]


    def test_call_before_begin_raises(self):
        config = GridConfig(d=2, prime=17)
        attack = GridRangeAttack(config, RangeQuery((0,), ((0, 64),)), rho=0.2)
        with pytest.raises(RuntimeError):
            attack(("1d", 0), 5, np.random.default_rng(12))


class TestAaog:
    def test_load_limit_basic_bounds(self):
        limit = aaog_compute_load_limit(
            threshold=10.0,
            beta=0.1,
            m_round=50,
            n_round_real=100,
            family_size=10_000,
        )
        assert 1 <= limit <= 9  # below ceil(threshold) - 1

    def test_zero_fakes_gives_zero(self):
        assert aaog_compute_load_limit(10.0, 0.1, 0, 100, 100) == 0

    def test_crowded_family_is_infeasible(self):
        # Single bin: honest occupancy always equals the whole round, so no
        # cap can stay under the threshold.
        assert aaog_compute_load_limit(5.0, 0.1, 10, 100, 1) == 0

    def test_exact_tail_within_binomial_tolerance_of_simulation(self):
        # The simulated tail pools family_size * trials per-function loads.
        # Loads of one round are negatively associated, so the count of
        # loads >= k is at least as concentrated as Bin(N, tail[k]); the
        # band below is that law's [1e-7, 1 - 1e-7] quantile range, a
        # false-failure rate under 2e-7 per k (about 1e-6 over every k).
        family_size, trials = 211 * 210, 200
        n_samples = family_size * trials
        for n_round_real in (800, 2000, 6667):
            exact = binomial_pmf(n_round_real, 1.0 / family_size)[::-1].cumsum()[::-1]
            simulated = simulated_load_tail(
                n_round_real, family_size, trials, np.random.default_rng(n_round_real)
            )
            hits = np.rint(simulated * n_samples)
            p = np.clip(exact, 0.0, 1.0)
            lo = stats.binom.ppf(1e-7, n_samples, p)
            hi = stats.binom.isf(1e-7, n_samples, p)
            assert np.all((lo <= hits) & (hits <= hi)), n_round_real

    @pytest.mark.parametrize("round_size, m_round", [(888, 88), (2222, 222), (7407, 740)])
    def test_cap_matches_simulated_reference(self, round_size, m_round):
        # The prime-211 family at the bench's round sizes, with the harness
        # defaults alpha = 0.005, beta = 0.1 split over 15 rounds.
        family_size = 211 * 210
        threshold = max_load_cdf(round_size, family_size).threshold(0.005)
        beta_round = 1.0 - 0.9 ** (1.0 / 15)
        args = (threshold, beta_round, m_round, round_size - m_round, family_size)
        cap = aaog_compute_load_limit(*args)
        # False-failure rate: the reference's cap moves only if a simulated
        # tail value crosses a cap's decision point.  That chance, per seed,
        # is bounded by the binomial law of the simulated count (see above).
        tail = binomial_pmf(round_size - m_round, 1.0 / family_size)[::-1].cumsum()[::-1]
        n_samples = family_size * 200
        flip = 0.0
        for trial_cap in range(min(math.ceil(threshold) - 1, m_round), 0, -1):
            n_fns = math.ceil(m_round / trial_cap)
            p_bad = tail[math.ceil(threshold - trial_cap)]
            edge = n_samples * (1.0 - (1.0 - beta_round) ** (1.0 / n_fns))
            safe = 1.0 - (1.0 - p_bad) ** n_fns <= beta_round
            flip += stats.binom.cdf(edge, n_samples, p_bad) if not safe else stats.binom.sf(edge, n_samples, p_bad)
        assert flip < 1e-6
        for seed in range(5):
            assert cap == aaog_load_limit_simulated(*args, 200, np.random.default_rng(seed))

    def test_matching_respects_quotas_and_is_stable(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n_grids = int(rng.integers(2, 6))
            n_fns = int(rng.integers(10, 30))
            values = rng.random((n_grids, n_fns))
            quotas = rng.integers(0, 4, n_grids).tolist()
            if sum(quotas) > n_fns:
                continue
            matched = match_functions_to_grids(values, quotas)
            flat = [f for fns in matched for f in fns]
            assert len(flat) == len(set(flat))  # no function reused
            for fns, quota in zip(matched, quotas):
                assert len(fns) == quota
            assert stable_matching_audit(values, quotas, matched)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matching_equals_greedy_loop(self, data):
        # Few distinct values make long runs of ties, so the stable order
        # decides.
        n_grids = data.draw(st.integers(1, 6), label="n_grids")
        n_fns = data.draw(st.integers(1, 40), label="n_fns")
        levels = data.draw(st.integers(1, 4), label="levels")
        flat = data.draw(
            st.lists(st.integers(0, levels - 1), min_size=n_grids * n_fns, max_size=n_grids * n_fns)
        )
        values = np.array(flat, dtype=np.float64).reshape(n_grids, n_fns)
        total = data.draw(st.one_of(st.just(0), st.just(n_fns), st.integers(0, n_fns)), label="total")
        cuts = data.draw(st.lists(st.integers(0, total), min_size=n_grids - 1, max_size=n_grids - 1))
        quotas = np.diff([0, *sorted(cuts), total]).tolist()
        assert match_functions_to_grids(values, quotas) == match_functions_to_grids_loop(values, quotas)

    def test_matching_grid_runs_out_within_a_level(self):
        # Grid 0 wants every function first, but its quota of 2 ends inside
        # the top level; the rest of the level must go on to grid 1.
        values = np.array([[3.0, 3.0, 3.0, 3.0], [2.0, 1.0, 2.0, 1.0]])
        matched = match_functions_to_grids(values, [2, 2])
        assert matched == match_functions_to_grids_loop(values, [2, 2])
        assert matched == [[0, 1], [2, 3]]

    def test_matching_holds_the_dtype_minimum(self):
        # The dtype minimum has no negation in its dtype, yet ranks last.
        low = np.iinfo(np.int16).min
        values = np.array([[low, 5, 0], [3, low, 1]], dtype=np.int16)
        expected = match_functions_to_grids_loop(values.astype(float), [1, 1])
        assert match_functions_to_grids(values, [1, 1]) == expected == [[1], [0]]
        rng = np.random.default_rng(3)
        for _ in range(50):
            values = rng.choice(np.array([low, low + 1, -1, 0, 7], dtype=np.int16), (3, 8))
            quotas = rng.multinomial(rng.integers(0, 9), [1 / 3] * 3).tolist()
            expected = match_functions_to_grids_loop(values.astype(float), quotas)
            assert match_functions_to_grids(values, quotas) == expected

    def test_matching_rejects_overfull_quotas(self):
        with pytest.raises(ValueError):
            match_functions_to_grids(np.ones((2, 3)), [2, 2])

    def test_quotas_beyond_the_family_are_infeasible(self):
        # 100k users at rho 0.1 on the prime-67 family: the cap is 1, so the
        # 11,111 fakes need 11,111 functions of the family's 4,422.
        config = GridConfig(d=5, g1=32, g2=8, prime=67)
        query = RangeQuery((0, 1), ((0, 32), (16, 48)))
        attack = AdaptiveGridAttack(config, query)
        fake_counts = config.fake_counts(11_111)
        with pytest.raises(RuntimeError, match="adaptive grid attack infeasible: 11111 functions"):
            attack.begin(fake_counts, 111_111, np.random.default_rng(0))
        assert attack.load_limit == 1

    def test_plan_respects_cap_and_counts(self):
        config = GridConfig(d=5, prime=211)
        query = RangeQuery((0, 1, 2), ((16, 64), (0, 48), (16, 64)))
        attack = AdaptiveGridAttack(config, query)
        rng = np.random.default_rng(11)
        fake_counts = {key: 222 for key in grid_keys(5)}
        attack.begin(fake_counts, 33_330, rng)
        assert attack.load_limit >= 1
        for key in grid_keys(5):
            fns, keys = attack(key, 222, rng)
            assert fns.size == keys.size == 222
            assert np.bincount(fns).max() <= attack.load_limit

    def test_call_before_begin_raises(self):
        config = GridConfig(d=2)
        attack = AdaptiveGridAttack(config, RangeQuery((0, 1), ((0, 32), (0, 32))))
        with pytest.raises(RuntimeError):
            attack(("1d", 0), 5, np.random.default_rng(12))
