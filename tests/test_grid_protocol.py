import json
import math

import numpy as np
import pytest

from ldplab import grid_protocol
from ldplab.freq_oracles import olh_aggregate, olh_perturb_batch
from ldplab.grid_protocol import (
    GridConfig,
    build_response_matrix,
    cells_in_range,
    collect_grid_reports,
    estimate_query,
    grid_keys,
    run_grid_protocol,
)
from ldplab.harness import gen_queries
from ldplab.query import RangeQuery

from .oracles import grids_to_json


def honest_run(records, config, rng, keep_reports=False):
    """Collect and run with no fakes, both from ``rng``."""
    reports = collect_grid_reports(records, config, rng=rng, keep_reports=keep_reports)
    return run_grid_protocol(reports, config, rng=rng, keep_reports=keep_reports)


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
        for shape, field in (({"g1": 0}, "g1"), ({"g1": -16, "g2": -4}, "g1"), ({"g2": 0}, "g2"),
                             ({"domain_size": 0}, "domain_size")):
            with pytest.raises(ValueError, match=f"{field} must be >= 1"):
                GridConfig(**shape)
        # One column per attribute would snap every query to the whole domain.
        with pytest.raises(ValueError, match="g2 must be >= 2, got 1"):
            GridConfig(g1=16, g2=1)

    def test_key_count_must_not_exceed_the_prime(self):
        # Hash values lie in [0, prime), so OLH keys at or above the prime
        # are never a hash value; g = prime is the largest accepted.
        assert GridConfig(epsilon=math.log(16)).olh_params().g == 17
        assert GridConfig(epsilon=5.0, prime=211).olh_params().g == 149
        for epsilon, prime, g in ((math.log(17), 17, 18), (6.0, 211, 404)):
            with pytest.raises(ValueError, match=f"g = {g} exceeds the hash prime {prime}: .*family_prime"):
                GridConfig(epsilon=epsilon, prime=prime)

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


@pytest.mark.parametrize("n_fake", [0, 1, 2, 3, 5, 14, 15, 16, 333, 11_111])
def test_fake_counts_split_evenly_with_no_draw(n_fake):
    """The fakes of a run are split near-equally over the grids: the counts
    sum to ``n_fake``, differ by at most one, and the extra fakes go to the
    leading grids in ``grid_keys`` order."""
    config = GridConfig(d=5)  # 15 groups
    counts = config.fake_counts(n_fake)
    assert list(counts) == grid_keys(5)
    values = list(counts.values())
    assert sum(values) == n_fake
    assert max(values) - min(values) <= 1
    assert values == sorted(values, reverse=True)
    assert values.count(n_fake // 15 + 1) == n_fake % 15


def test_fake_counts_reject_bad_counts():
    for n_fake in (-1, 0.1, 2.0):
        with pytest.raises(ValueError, match="n_fake"):
            GridConfig(d=2).fake_counts(n_fake)


def test_collection_is_one_balanced_draw():
    """The real users are split by one draw,
    ``rng.permutation(arange(n_real) % n_groups)``, and each grid's reports
    are its users' reports, in record order."""
    config = GridConfig(d=2)  # 3 groups
    records = np.random.default_rng(0).integers(0, 64, (8, 2))
    reports = collect_grid_reports(records, config, rng=np.random.default_rng(1), keep_reports=True)
    rng = np.random.default_rng(1)
    groups = rng.permutation(np.arange(8) % 3)
    assert list(reports) == grid_keys(2)
    for gidx, (key, real) in enumerate(reports.items()):
        members = np.flatnonzero(groups == gidx)
        if key[0] == "1d":
            cells = records[members, key[1]] // 4
        else:
            cells = np.ravel_multi_index((records[members, 0] // 16, records[members, 1] // 16), (4, 4))
        fn_ids, keys = olh_perturb_batch(cells, config.family(), config.olh_params(), rng)
        assert real.users == members.size
        np.testing.assert_array_equal(real.fn_ids, fn_ids)
        np.testing.assert_array_equal(real.support, olh_aggregate((fn_ids, keys), config.family(), np.arange(16)))
        assert real.support.dtype == np.int64
        assert not real.support.flags.writeable and not real.fn_ids.flags.writeable
    with pytest.raises(ValueError, match="fewer users than groups"):
        collect_grid_reports(records[:2], config, rng=rng)


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
        grids = honest_run(self._records(rng), config, rng)
        query = RangeQuery((0, 1, 2), ((0, 64),) * 3)
        assert estimate_query(grids, query) == pytest.approx(1.0, abs=1e-9)

    def test_honest_accuracy(self):
        rng = np.random.default_rng(2)
        records = self._records(rng)
        config = GridConfig(d=3)
        grids = honest_run(records, config, rng)
        query = RangeQuery((0, 1), ((16, 48), (16, 48)))
        truth = (
            (records[:, 0] >= 16) & (records[:, 0] < 48)
            & (records[:, 1] >= 16) & (records[:, 1] < 48)
        ).mean()
        assert abs(estimate_query(grids, query) - truth) < 0.15

    def test_grids_are_distributions(self):
        rng = np.random.default_rng(3)
        config = GridConfig(d=2)
        grids = honest_run(self._records(rng, n=5000, d=2), config, rng)
        assert list(grids.freqs) == grid_keys(2)
        for vec in grids.freqs.values():
            assert vec.min() >= 0
            assert vec.sum() == pytest.approx(1.0, abs=1e-9)

    def test_rounds_and_group_sizes(self):
        rng = np.random.default_rng(4)
        config = GridConfig(d=2)
        grids = honest_run(self._records(rng, n=3000, d=2), config, rng, keep_reports=True)
        assert [key for key, _ in grids.rounds] == grid_keys(2)
        sizes = [fn_ids.size for _, fn_ids in grids.rounds]
        assert set(sizes) == {1000}  # 3,000 users over 3 grids
        assert sum(sizes) == 3000

    def _poisoned(self, reports, config, keep_reports=True, **kwargs):
        fake_fn = config.prime + 7  # a = 1, b = 7
        return run_grid_protocol(
            reports,
            config,
            hook=lambda key, m, rng: (np.full(m, fake_fn), np.zeros(m, dtype=int)),
            n_fake=333,
            rng=np.random.default_rng(8),
            keep_reports=keep_reports,
            **kwargs,
        )

    def test_rounds_follow_the_fake_split(self):
        """Each round's reports hold the collection's real users and then
        the grid's share of the fakes."""
        config = GridConfig(d=3)
        records = self._records(np.random.default_rng(7), n=3000, d=3)
        reports = collect_grid_reports(records, config, rng=np.random.default_rng(8), keep_reports=True)
        grids = self._poisoned(reports, config)
        fake_counts = config.fake_counts(333)
        assert [key for key, _ in grids.rounds] == grid_keys(3)
        for key, fn_ids in grids.rounds:
            real = reports[key].fn_ids
            assert fn_ids.size == real.size + fake_counts[key]
            np.testing.assert_array_equal(fn_ids[: real.size], real)
            assert (fn_ids[real.size :] == config.prime + 7).all()

    def test_poisoned_real_counts_equal_the_honest_ones(self, monkeypatch):
        """A poisoned run adds the fakes' support counts to the collection's:
        its counts less the fakes' equal the honest run's, grid by grid, and
        the collection is left as it was."""
        config = GridConfig(d=3)
        records = self._records(np.random.default_rng(7), n=3000, d=3)
        reports = collect_grid_reports(records, config, rng=np.random.default_rng(8))
        kept = {key: real.support.copy() for key, real in reports.items()}
        seen = []
        debias = grid_protocol.debias_counts
        monkeypatch.setattr(
            grid_protocol, "debias_counts", lambda c, n, p: seen.append((c, n)) or debias(c, n, p)
        )
        run_grid_protocol(reports, config, rng=np.random.default_rng(9))
        self._poisoned(reports, config, keep_reports=False)
        honest, poisoned = seen[: len(reports)], seen[len(reports) :]
        fake_counts = config.fake_counts(333)
        family = config.family()
        for key, (c_honest, n_honest), (c_poisoned, n_poisoned) in zip(grid_keys(3), honest, poisoned):
            m = fake_counts[key]
            fakes = olh_aggregate((np.full(m, config.prime + 7), np.zeros(m)), family, np.arange(c_honest.size))
            np.testing.assert_array_equal(c_honest, reports[key].support)
            np.testing.assert_array_equal(c_poisoned - fakes, c_honest)
            assert n_honest == reports[key].users and n_poisoned == n_honest + m
            np.testing.assert_array_equal(reports[key].support, kept[key])

    def test_keep_reports_moves_no_draw(self):
        """Keeping the reports changes no draw: the frequencies are
        bit-equal, also with a hook that draws from the protocol's rng.
        Without ``keep_reports`` every round's reports are ``None``."""
        config = GridConfig(d=3)
        records = self._records(np.random.default_rng(7), n=3000, d=3)

        def run(keep_reports):
            reports = collect_grid_reports(records, config, rng=np.random.default_rng(8), keep_reports=keep_reports)
            return run_grid_protocol(
                reports,
                config,
                hook=lambda key, m, rng: (config.prime + rng.integers(0, 50, m), rng.integers(0, 4, m)),
                n_fake=333,
                rng=np.random.default_rng(9),
                keep_reports=keep_reports,
            )

        kept, dropped = run(True), run(False)
        assert dropped.rounds == [(key, None) for key in grid_keys(3)]
        assert list(kept.freqs) == list(dropped.freqs) == grid_keys(3)
        for key, freqs in kept.freqs.items():
            np.testing.assert_array_equal(freqs, dropped.freqs[key])

    def test_input_validation(self):
        config = GridConfig(d=2)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            collect_grid_reports(np.zeros((5, 3), dtype=int), config, rng=rng)
        with pytest.raises(ValueError):
            collect_grid_reports(np.full((5, 2), 64), config, rng=rng)
        reports = collect_grid_reports(np.zeros((5, 2), dtype=int), config, rng=rng)
        for n_fake in (-1, 0.1, 2.0):
            with pytest.raises(ValueError, match="n_fake"):
                run_grid_protocol(reports, config, n_fake=n_fake, rng=rng)
        with pytest.raises(ValueError, match="keep_reports"):
            run_grid_protocol(reports, config, rng=rng, keep_reports=True)
        with pytest.raises(ValueError, match="one round per grid"):
            run_grid_protocol(reports, GridConfig(d=3), rng=rng)


class TestResponseMatrix:
    def _grids(self):
        rng = np.random.default_rng(5)
        config = GridConfig(d=2)
        return honest_run(np.clip(np.rint(rng.normal(32, 10, (8000, 2))), 0, 63).astype(int), config, rng)

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
    grids = honest_run(rng.integers(0, 64, (2000, 2)), config, rng)
    payload = json.loads(grids_to_json(grids))
    assert payload["config"]["d"] == 2
    assert len(payload["one_d"]) == 2
    np.testing.assert_allclose(payload["one_d"][1], grids.freqs[("1d", 1)])
    np.testing.assert_allclose(
        payload["two_d"]["0,1"], grids.freqs[("2d", 0, 1)].reshape(4, 4)
    )
