import json

import numpy as np
import pytest

from ldplab.grid_protocol import (
    GridConfig,
    build_response_matrix,
    cells_in_range,
    estimate_query,
    grid_keys,
    grids_to_json,
    run_grid_protocol,
)
from ldplab.harness import gen_queries
from ldplab.query import RangeQuery


class TestConfig:
    def test_defaults(self):
        config = GridConfig()
        assert config.n_groups == 15
        assert config.prime == 17  # smallest prime above max(g1, g2^2) = 16
        assert config.col_width == 16
        assert config.cell_width == 4
        assert config.olh_params().g == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            GridConfig(d=1)
        with pytest.raises(ValueError):
            GridConfig(g1=15)
        with pytest.raises(ValueError):
            GridConfig(g1=16, g2=3)
        with pytest.raises(ValueError):
            GridConfig(prime=16)
        with pytest.raises(ValueError):
            GridConfig(pp_rounds=0)

    def test_shape_and_columns(self):
        config = GridConfig(d=3, g1=32, g2=4)
        assert config.shape(("1d", 2)) == (32,)
        assert config.shape(("2d", 0, 2)) == (4, 4)
        np.testing.assert_array_equal(config.columns(("1d", 2))[2], np.arange(32) // 8)
        cols = config.columns(("2d", 1, 2))
        assert list(cols) == [1, 2]
        np.testing.assert_array_equal(cols[1], np.repeat(np.arange(4), 4))
        np.testing.assert_array_equal(cols[2], np.tile(np.arange(4), 4))


def test_grid_keys_order():
    keys = grid_keys(3)
    assert keys == [
        ("2d", 0, 1),
        ("2d", 0, 2),
        ("2d", 1, 2),
        ("1d", 0),
        ("1d", 1),
        ("1d", 2),
    ]


def test_round_plan_is_one_balanced_draw():
    """Real users and fakes share one near-equal random partition: the draw
    ``rng.permutation(arange(n_real + n_fake) % n_groups)``, real users first."""
    config = GridConfig(d=2)  # 3 groups
    groups, fake_counts = config.round_plan(5, 3, np.random.default_rng(0))
    draw = np.random.default_rng(0).permutation(np.arange(8) % 3)
    np.testing.assert_array_equal(groups, draw[:5])
    np.testing.assert_array_equal(fake_counts, np.bincount(draw[5:], minlength=3))
    assert sorted(np.bincount(groups, minlength=3) + fake_counts) == [2, 3, 3]
    rng = np.random.default_rng(1)
    for n_real, n_fake in ((2, 0), (1, 1)):
        with pytest.raises(ValueError, match="fewer users than groups"):
            config.round_plan(n_real, n_fake, rng)
    for n_fake in (-1, 0.1, 2.0):
        with pytest.raises(ValueError, match="n_fake"):
            config.round_plan(8, n_fake, rng)


class TestQueryGeometry:
    def test_trim_snaps_outward(self):
        config = GridConfig(d=2)
        query = RangeQuery((0, 1), ((3, 20), (16, 48)))
        trimmed = query.snapped(config.col_width, config.domain_size)
        assert trimmed.intervals == ((0, 32), (16, 48))

    def test_cells_in_range_full_domain(self):
        config = GridConfig(d=2)
        query = RangeQuery((0, 1), ((0, 64), (0, 64)))
        assert cells_in_range(config, query, ("1d", 0)).all()
        assert cells_in_range(config, query, ("2d", 0, 1)).all()

    def test_cells_in_range_rectangle(self):
        config = GridConfig(d=3)
        query = RangeQuery((0, 1), ((0, 32), (16, 64)))
        mask_2d = cells_in_range(config, query, ("2d", 0, 1)).reshape(4, 4)
        expected = np.zeros((4, 4), dtype=bool)
        expected[0:2, 1:4] = True
        np.testing.assert_array_equal(mask_2d, expected)
        # Grid on an attribute outside the query spans the full axis.
        mask_other = cells_in_range(config, query, ("2d", 1, 2)).reshape(4, 4)
        assert mask_other[1:4, :].all() and not mask_other[0, :].any()
        mask_1d = cells_in_range(config, query, ("1d", 0))
        np.testing.assert_array_equal(mask_1d, np.arange(16) < 8)


    def test_cells_in_range_matches_per_cell_extent(self):
        config = GridConfig(d=3, g1=32, g2=8, domain_size=128)
        for query in gen_queries(20, 128, 3, 2, np.random.default_rng(7)):
            trimmed = query.snapped(config.col_width, config.domain_size)
            for key in grid_keys(3):
                shape = config.shape(key)
                expected = []
                for idx in np.ndindex(*shape):
                    inside = True
                    for attr, i, n in zip(key[1:], idx, shape):
                        width = config.domain_size // n
                        if attr in trimmed.attrs:
                            lo, hi = trimmed.interval_for(attr)
                            inside &= lo <= i * width and (i + 1) * width <= hi
                    expected.append(inside)
                np.testing.assert_array_equal(cells_in_range(config, query, key), expected)


class TestRunProtocol:
    def _records(self, rng, n=30_000, d=3):
        return np.clip(np.rint(rng.normal(32, 8, (n, d))), 0, 63).astype(int)

    def test_full_domain_query_is_one(self):
        rng = np.random.default_rng(1)
        config = GridConfig(d=3)
        grids = run_grid_protocol(self._records(rng), config, rng=rng)
        query = RangeQuery((0, 1, 2), ((0, 64),) * 3)
        assert estimate_query(grids, query) == pytest.approx(1.0, abs=1e-9)

    def test_honest_accuracy(self):
        rng = np.random.default_rng(2)
        records = self._records(rng)
        config = GridConfig(d=3)
        grids = run_grid_protocol(records, config, rng=rng)
        query = RangeQuery((0, 1), ((16, 48), (16, 48)))
        truth = (
            (records[:, 0] >= 16) & (records[:, 0] < 48)
            & (records[:, 1] >= 16) & (records[:, 1] < 48)
        ).mean()
        assert abs(estimate_query(grids, query) - truth) < 0.15

    def test_grids_are_distributions(self):
        rng = np.random.default_rng(3)
        config = GridConfig(d=2)
        grids = run_grid_protocol(self._records(rng, n=5000, d=2), config, rng=rng)
        assert list(grids.freqs) == grid_keys(2)
        for vec in grids.freqs.values():
            assert vec.min() >= 0
            assert vec.sum() == pytest.approx(1.0, abs=1e-9)

    def test_observer_and_group_sizes(self):
        rng = np.random.default_rng(4)
        config = GridConfig(d=2)
        seen = {}
        run_grid_protocol(
            self._records(rng, n=3000, d=2),
            config,
            rng=rng,
            observer=lambda key, fn_ids: seen.__setitem__(key, fn_ids.size),
        )
        assert set(seen) == set(grid_keys(2))
        assert set(seen.values()) == {1000}  # 3,000 users over 3 grids
        assert sum(seen.values()) == 3000

    def test_observer_sees_the_round_plan(self):
        """Each round's observer array holds the plan's real users and then
        its fakes."""
        config = GridConfig(d=3)
        records = self._records(np.random.default_rng(7), n=3000, d=3)
        groups, fake_counts = config.round_plan(3000, 333, np.random.default_rng(8))
        seen = {}
        run_grid_protocol(
            records,
            config,
            hook=lambda key, m, rng: (np.full(m, 7), np.zeros(m, dtype=int)),
            n_fake=333,
            rng=np.random.default_rng(8),
            observer=lambda key, fn_ids: seen.__setitem__(key, fn_ids),
        )
        real_counts = np.bincount(groups, minlength=config.n_groups)
        for gidx, key in enumerate(grid_keys(3)):
            fn_ids = seen[key]
            assert fn_ids.size == real_counts[gidx] + fake_counts[gidx]
            assert (fn_ids[real_counts[gidx] :] == 7).all()
        assert fake_counts.sum() == 333

    def test_input_validation(self):
        config = GridConfig(d=2)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            run_grid_protocol(np.zeros((5, 3), dtype=int), config, rng=rng)
        with pytest.raises(ValueError):
            run_grid_protocol(np.full((5, 2), 64), config, rng=rng)
        for n_fake in (-1, 0.1, 2.0):
            with pytest.raises(ValueError, match="n_fake"):
                run_grid_protocol(np.zeros((5, 2), dtype=int), config, n_fake=n_fake, rng=rng)


class TestResponseMatrix:
    def _grids(self):
        rng = np.random.default_rng(5)
        config = GridConfig(d=2)
        return run_grid_protocol(
            np.clip(np.rint(rng.normal(32, 10, (8000, 2))), 0, 63).astype(int),
            config,
            rng=rng,
        )

    def test_mass_preserved(self):
        grids = self._grids()
        matrix = build_response_matrix(grids, 0, 1)
        assert matrix.shape == (16, 16)
        assert matrix.sum() == pytest.approx(grids.freqs[("2d", 0, 1)].sum(), abs=1e-9)

    def test_column_blocks_match_coarse_cells(self):
        grids = self._grids()
        matrix = build_response_matrix(grids, 0, 1)
        coarse = grids.freqs[("2d", 0, 1)].reshape(4, 4)
        span = 4
        for r in range(4):
            for c in range(4):
                block = matrix[r * span : (r + 1) * span, c * span : (c + 1) * span]
                assert block.sum() == pytest.approx(coarse[r, c], abs=1e-9)

    def test_uniform_fallback_when_marginal_empty(self):
        grids = self._grids()
        grids.freqs[("1d", 0)][:] = 0.0  # no 1-D mass anywhere on attribute 0
        matrix = build_response_matrix(grids, 0, 1)
        # Rows within each coarse cell share the mass equally.
        np.testing.assert_allclose(matrix[0], matrix[1], atol=1e-12)

    def test_estimate_validation(self):
        grids = self._grids()
        with pytest.raises(ValueError):
            estimate_query(grids, RangeQuery((0,), ((0, 64),)))
        with pytest.raises(ValueError):
            estimate_query(grids, RangeQuery((0, 5), ((0, 64), (0, 64))))


def test_json_round_trip():
    rng = np.random.default_rng(6)
    config = GridConfig(d=2)
    grids = run_grid_protocol(
        rng.integers(0, 64, (2000, 2)), config, rng=rng
    )
    payload = json.loads(grids_to_json(grids))
    assert payload["config"]["d"] == 2
    assert len(payload["one_d"]) == 2
    np.testing.assert_allclose(payload["one_d"][1], grids.freqs[("1d", 1)])
    np.testing.assert_allclose(
        payload["two_d"]["0,1"], grids.freqs[("2d", 0, 1)].reshape(4, 4)
    )
