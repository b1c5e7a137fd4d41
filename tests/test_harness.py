import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from ldplab import harness
from ldplab.attacks.grid import aog_size_constraints
from ldplab.defenses import DetectionResult
from ldplab.freq_oracles import _support_classes
from ldplab.grid_protocol import GridConfig, collect_grid_reports, estimate_query as grid_estimate, run_grid_protocol
from ldplab.harness import (
    ConfigError,
    ExperimentConfig,
    _fold_detection,
    efficiency,
    gen_queries,
    gen_synthetic,
    load_csv,
    run_experiment,
    true_frequency,
)
from ldplab.query import RangeQuery
from ldplab.tree_protocol import TreeConfig, collect_tree_groups, estimate_query as tree_estimate, run_tree_protocol

from .oracles import gen_synthetic_oneshot, prism_bruteforce_ratio, prism_violation_ratio


class TestDatasets:
    def test_zero_std_is_degenerate(self):
        rng = np.random.default_rng(0)
        data = gen_synthetic("gaussian", 100, 32.0, 0.0, 64, 2, rng)
        assert data.shape == (100, 2)
        assert np.all(data == 32)

    def test_bounds_and_kinds(self):
        rng = np.random.default_rng(1)
        for kind in ("gaussian", "laplace"):
            data = gen_synthetic(kind, 5000, 32.0, 30.0, 64, 1, rng)
            assert data.min() >= 0 and data.max() <= 63
        with pytest.raises(ValueError):
            gen_synthetic("uniformish", 10, 0, 1, 64, 1, rng)
        for count, dims in ((0, 1), (1, 0)):
            with pytest.raises(ValueError, match="count and dims"):
                gen_synthetic("gaussian", count, 0, 1, 64, dims, rng)

    @pytest.mark.parametrize("kind", ["gaussian", "laplace"])
    @pytest.mark.parametrize("dims", [1, 5])
    def test_chunked_draw_equals_one_draw(self, kind, dims):
        """Row chunks read the stream of one ``(count, dims)`` draw: the
        records equal the one-shot int64 ones and the next draw matches,
        around every chunk boundary and at std 0."""
        chunk = harness._CHUNK_VALUES // dims
        for std in (0.0, 12.0):
            for count in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7):
                rng, want_rng = np.random.default_rng(count), np.random.default_rng(count)
                got = gen_synthetic(kind, count, 32.0, std, 64, dims, rng)
                np.testing.assert_array_equal(got, gen_synthetic_oneshot(kind, count, 32.0, std, 64, dims, want_rng))
                assert rng.random() == want_rng.random(), (std, count)

    @pytest.mark.parametrize("domain, dtype", [(1, np.uint8), (64, np.uint8), (256, np.uint8), (257, np.uint16), (1024, np.uint16)])
    def test_records_are_narrow_and_column_major(self, tmp_path, domain, dtype):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c\n0,1,2\n5,4,3\n9,9,9\n")
        for data in (
            gen_synthetic("laplace", 100, domain / 2, domain / 4, domain, 3, np.random.default_rng(0)),
            load_csv(str(path), ["a", "b", "c"], domain),
        ):
            assert data.dtype == dtype and data.flags.f_contiguous and data.shape[1] == 3
            assert data.min() >= 0 and data.max() <= domain - 1


class TestLoadCsv:
    def test_minmax_rescale_endpoints(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a\n0\n100\n")
        data = load_csv(str(path), ["a"], 64)
        assert sorted(data[:, 0].tolist()) == [0, 63]

    def test_constant_column_maps_to_zero(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n5,1\n5,2\n5,3\n")
        data = load_csv(str(path), ["a"], 64)
        assert np.all(data == 0)

    def test_malformed_rows_dropped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\nx,3\n4,\n7,8\n")
        data = load_csv(str(path), ["a", "b"], 64)
        assert data.shape == (2, 2)

    def test_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(str(tmp_path / "missing.csv"), ["a"], 64)
        path = tmp_path / "data.csv"
        path.write_text("a\n1\n")
        with pytest.raises(ValueError):
            load_csv(str(path), ["zzz"], 64)
        bad = tmp_path / "bad.csv"
        bad.write_text("a\nx\ny\n")
        with pytest.raises(ValueError):
            load_csv(str(bad), ["a"], 64)


class TestQueriesAndMetrics:
    def test_true_frequency(self):
        records = np.array([[0, 0], [10, 10], [20, 20]])
        full = RangeQuery((0, 1), ((0, 64), (0, 64)))
        assert true_frequency(records, full) == 1.0
        none = RangeQuery((0, 1), ((50, 60), (50, 60)))
        assert true_frequency(records, none) == 0.0
        with pytest.raises(ValueError):
            true_frequency(np.zeros((0, 2)), full)

    def test_query_lengths(self):
        rng = np.random.default_rng(2)
        queries = gen_queries(50, 1024, 1, 1, rng)
        for query in queries:
            lo, hi = query.intervals[0]
            assert 0 <= lo < hi <= 1024
            # Nominal lengths are drawn in [128, 384]; domain clipping can
            # only shorten an interval.
            assert hi - lo <= 384

    def test_small_domains_give_nonempty_intervals(self):
        # [c/8, 3c/8] holds 0 below c = 8; lengths are drawn from at least 1.
        for domain in (2, 4):
            for seed in range(20):
                for query in gen_queries(20, domain, 2, 2, np.random.default_rng(seed)):
                    for lo, hi in query.intervals:
                        assert 0 <= lo < hi <= domain, (domain, seed)

    def test_query_snapping(self):
        rng = np.random.default_rng(3)
        for query in gen_queries(30, 64, 5, 3, rng, snap=16):
            assert len(query.attrs) == 3
            for lo, hi in query.intervals:
                assert lo % 16 == 0 and hi % 16 == 0
        # Snapping consumes no draws: it is the unsnapped stream, snapped.
        snapped = gen_queries(30, 60, 5, 3, np.random.default_rng(3), snap=16)
        plain = gen_queries(30, 60, 5, 3, np.random.default_rng(3))
        assert snapped == [query.snapped(16, 60) for query in plain]

    def test_efficiency(self):
        assert efficiency(0.1, 0.6, 0.1) == pytest.approx(5.0)
        assert efficiency(0.3, 0.3, 0.2) == 0.0
        with pytest.raises(ValueError):
            efficiency(0.1, 0.2, 0.0)


class TestPrism:
    def test_epsilon_one(self):
        assert prism_violation_ratio(1.0) == pytest.approx(math.e**2, rel=1e-12)

    def test_matches_bruteforce(self):
        for epsilon in (0.5, 1.0, 2.0):
            assert prism_violation_ratio(epsilon) == pytest.approx(
                prism_bruteforce_ratio(epsilon), rel=1e-12
            )


class TestExperimentConfig:
    def test_protocol_defaults(self):
        tree = ExperimentConfig(protocol="ahead")
        assert (tree.dims_total, tree.dims_query, tree.domain_size) == (1, 1, 1024)
        grid = ExperimentConfig(protocol="hdg")
        assert (grid.dims_total, grid.dims_query, grid.domain_size) == (5, 3, 64)

    def test_dataset_defaults_filled_once(self):
        spec = {"kind": "laplace"}
        config = ExperimentConfig(protocol="hdg", dataset=spec)
        filled = {"kind": "laplace", "count": 100_000, "mean": 32.0, "std": 64 / 25}
        assert config.dataset == filled
        assert spec == {"kind": "laplace"}  # the caller's spec is not mutated
        assert ExperimentConfig(protocol="hdg", dataset={}).dataset["kind"] == "gaussian"
        again = replace(config, attack="none")
        assert again.dataset == filled
        assert replace(again, rho=0.2).dataset == filled

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(protocol="nope")
        with pytest.raises(ConfigError):
            ExperimentConfig(protocol="ahead", attack="aog")
        with pytest.raises(ConfigError):
            ExperimentConfig(protocol="hdg", attack="aot")
        with pytest.raises(ConfigError):
            ExperimentConfig(rho=0.0, attack="mga")
        with pytest.raises(ConfigError):
            ExperimentConfig(epsilon=0.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(protocol="ahead", dims_query=2, dims_total=3)
        with pytest.raises(ConfigError, match="dims_total"):
            # The tree reads attribute 0 only, so a query on another
            # attribute would be answered from the wrong column.
            ExperimentConfig(protocol="ahead", dims_total=2)
        with pytest.raises(ConfigError):
            ExperimentConfig(seeds=())
        for bad in (
            dict(protocol="ahead", domain_size=1000),  # not a power of fanout
            dict(protocol="hdg", family_prime=10),  # below the cell count
            dict(protocol="hdg", family_prime=20),  # not a prime
            dict(protocol="hdg", dims_total=1, dims_query=1),
            dict(protocol="hdg", dims_query=1),  # grid queries span 2+ attributes
            # aog's size floors have a non-positive 1-D / 2-D denominator.
            dict(protocol="hdg", attack="aog", g1=4, g2=4),
            dict(protocol="hdg", attack="aog", g1=16, g2=2),
            dict(protocol="hdg", epsilon=800.0),  # e^epsilon overflows OLH's g
            dict(protocol="ahead", epsilon=800.0),  # e^epsilon overflows OUE's q
            dict(seeds=(0, -1)),
            dict(dataset={"kind": "csv"}),
            dict(dataset={"kind": "csv", "path": "x.csv"}),
            dict(dataset={"kind": "csv", "path": "x.csv", "columns": ["a", "b"]}),
            dict(dataset={"kind": "uniformish"}),
            dict(dataset={"kind": "gaussian", "count": 0}),
            dict(dataset={"kind": "gaussian", "std": "wide"}),
            dict(dataset="gaussian"),
            dict(alpha=0.0),
            dict(alpha=1.0),
            dict(beta=0.0),
            dict(beta=1.5),
            dict(strategy="bogus"),
            dict(attack="aot", strategy="bogus"),
            dict(protocol="hdg", dataset={"kind": "gaussian", "count": 14}),  # 15 groups
            dict(protocol="hdg", dims_total=2, dataset={"kind": "laplace", "count": 2}),
            # Integer fields take integers only: a float is not truncated.
            dict(seeds=[1.5, 1.9]),
            dict(seeds=[True]),
            dict(n_queries=2.5),
            dict(n_queries=True),
            dict(threads=1.5),
            dict(dataset={"kind": "gaussian", "count": 3000.7}),
            dict(dataset={"kind": "gaussian", "count": "3000"}),
            dict(protocol="ahead", fanout=2.0),
            dict(protocol="ahead", domain_size=64.0),
            dict(protocol="ahead", dims_query=1.0),
            dict(protocol="hdg", g1=16.0),
            dict(protocol="hdg", g2=4.0),
            dict(protocol="hdg", dims_total=5.0),
            dict(protocol="hdg", pp_rounds=1.5),
            dict(protocol="hdg", family_prime=211.0),
            # Real fields must be finite: json reads NaN and Infinity.
            dict(epsilon=-1.0),
            dict(epsilon=float("nan")),
            dict(epsilon=float("inf")),
            dict(protocol="hdg", epsilon=float("inf")),
            dict(dataset={"kind": "gaussian", "std": -1.0}),
            dict(dataset={"kind": "laplace", "std": -0.5}),
            dict(dataset={"kind": "gaussian", "std": float("nan")}),
            dict(dataset={"kind": "gaussian", "std": float("inf")}),
            dict(dataset={"kind": "gaussian", "mean": float("nan")}),
            dict(dataset={"kind": "gaussian", "mean": float("-inf")}),
        ):
            with pytest.raises(ConfigError):
                ExperimentConfig(**bad)

    @pytest.mark.parametrize("dims_total", range(2, 7))
    @pytest.mark.parametrize("g2", (2, 4, 8))
    def test_aog_layout_rejected_exactly_when_unplannable(self, dims_total, g2):
        for g1 in (g for g in range(g2, 65, g2) if 64 % g == 0):
            layout = dict(protocol="hdg", dims_total=dims_total, g1=g1, g2=g2)
            grid = ExperimentConfig(**layout).protocol_config
            try:
                aog_size_constraints(0.1, grid)
            except ValueError:
                with pytest.raises(ConfigError, match=f"d={dims_total}, g1={g1}, g2={g2}"):
                    ExperimentConfig(attack="aog", **layout)
            else:
                ExperimentConfig(attack="aog", **layout)
            ExperimentConfig(attack="haog", **layout)

    def test_integer_fields_take_numpy_integers(self):
        config = ExperimentConfig(
            protocol="hdg", seeds=[np.int64(3)], n_queries=np.int32(2), family_prime=np.int64(211),
            dataset={"kind": "gaussian", "count": np.int64(3000)},
        )
        values = (config.seeds[0], config.n_queries, config.family_prime, config.dataset["count"])
        assert values == (3, 2, 211, 3000)
        assert all(type(v) is int for v in values)

    def test_fake_count(self):
        assert ExperimentConfig(rho=0.1).fake_count(9000) == 1000
        assert ExperimentConfig(rho=0.1).fake_count(4) == 0  # 0.44 rounds to 0
        assert ExperimentConfig(rho=0.0).fake_count(9000) == 0

    def test_smallest_grid_dataset(self):
        config = ExperimentConfig(protocol="hdg", dims_total=2, dataset={"count": 3})
        assert config.protocol_config.n_groups == 3
        # A csv dataset's row count is known only once it is loaded.
        csv = {"kind": "csv", "path": "x.csv", "columns": ["a", "b"]}
        ExperimentConfig(protocol="hdg", dims_total=2, dataset=csv)


def small_tree_config(**overrides):
    base = dict(
        protocol="ahead",
        dataset={"kind": "gaussian", "count": 4000, "mean": 32.0, "std": 10.0},
        domain_size=64,
        epsilon=1.0,
        rho=0.0,
        attack="none",
        n_queries=3,
        seeds=(0,),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def small_grid_config(**overrides):
    base = dict(
        protocol="hdg",
        dataset={"kind": "gaussian", "count": 4000, "mean": 32.0, "std": 10.0},
        dims_total=2,
        dims_query=2,
        rho=0.0,
        attack="none",
        n_queries=3,
        seeds=(0,),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def small_config(protocol, **overrides):
    return (small_tree_config if protocol == "ahead" else small_grid_config)(**overrides)


class TestRecordLayout:
    """The narrow column-major records and the same values as int64 C-order
    records give identical collections, true frequencies and runs."""

    @staticmethod
    def records(domain, dims, count=6000, seed=0):
        narrow = gen_synthetic("gaussian", count, domain / 2, domain / 4, domain, dims, np.random.default_rng(seed))
        wide = np.ascontiguousarray(narrow, dtype=np.int64)
        assert narrow.dtype != wide.dtype and narrow.flags.f_contiguous and wide.flags.c_contiguous
        return narrow, wide

    @pytest.mark.parametrize("domain", [64, 256])
    def test_grid_collection(self, domain):
        config = GridConfig(d=3, domain_size=domain)
        narrow, wide = self.records(domain, 3)
        got = collect_grid_reports(narrow, config, rng=np.random.default_rng(1), keep_reports=True)
        want = collect_grid_reports(wide, config, rng=np.random.default_rng(1), keep_reports=True)
        assert list(got) == list(want)
        for key, real in got.items():
            assert real.users == want[key].users
            np.testing.assert_array_equal(real.support, want[key].support)
            np.testing.assert_array_equal(real.fn_ids, want[key].fn_ids)

    @pytest.mark.parametrize("domain", [64, 256])
    def test_tree_collection(self, domain):
        config = TreeConfig(domain_size=domain)
        narrow, wide = self.records(domain, 1)
        got = collect_tree_groups(narrow, config, rng=np.random.default_rng(1))
        want = collect_tree_groups(wide, config, rng=np.random.default_rng(1))
        assert len(got) == len(want) == config.depth
        for group, wanted in zip(got, want):
            assert group.dtype == wanted.dtype == np.intp
            np.testing.assert_array_equal(group, wanted)

    def test_true_frequency_up_to_the_domain_end(self):
        narrow, wide = self.records(256, 3)
        assert narrow.dtype == np.uint8 and narrow.max() == 255
        for attrs, intervals in (
            ((0,), ((0, 256),)),
            ((1, 2), ((128, 256), (0, 256))),
            ((0, 2), ((100, 256), (0, 140))),
        ):
            query = RangeQuery(attrs, intervals)
            inside = np.ones(len(wide), dtype=bool)
            for attr, (lo, hi) in zip(attrs, intervals):
                inside &= [lo <= v < hi for v in wide[:, attr].tolist()]
            assert true_frequency(narrow, query) == true_frequency(wide, query) == inside.mean() > 0

    @pytest.mark.parametrize("protocol", ["ahead", "hdg"])
    def test_experiment(self, monkeypatch, protocol):
        config = small_config(
            protocol,
            domain_size=256,
            dataset={"kind": "gaussian", "count": 6000, "mean": 200.0, "std": 60.0},
            attack="mga",
            rho=0.1,
            defense=True,
            n_queries=4,
            seeds=(0, 1),
        )
        narrow, _ = run_experiment(config)
        generate = harness.gen_synthetic
        monkeypatch.setattr(
            harness, "gen_synthetic", lambda *args: np.ascontiguousarray(generate(*args), dtype=np.int64)
        )
        wide, _ = run_experiment(config)
        assert any(hi == 256 for r in narrow for _, hi in r.intervals)
        assert [{**asdict(r), "elapsed_s": None} for r in narrow] == [{**asdict(r), "elapsed_s": None} for r in wide]

    @pytest.mark.parametrize("protocol", ["ahead", "hdg"])
    def test_csv_dataset_runs(self, tmp_path, protocol):
        """An end-to-end run on a csv dataset: the trials' true frequencies
        are those of the loaded records."""
        columns = ["x"] if protocol == "ahead" else ["x", "y"]
        rng = np.random.default_rng(4)
        path = tmp_path / "data.csv"
        rows = rng.normal(0.0, 1.0, (3000, 2))
        path.write_text("x,y\n" + "".join(f"{x:.4f},{y:.4f}\n" for x, y in rows))
        config = small_config(
            protocol,
            dataset={"kind": "csv", "path": str(path), "columns": columns},
            attack="mga",
            rho=0.1,
            n_queries=2,
        )
        results, summary = run_experiment(config)
        records = load_csv(str(path), columns, config.domain_size)
        assert len(results) == 2 and summary["mean_response"] is not None
        for r in results:
            assert r.f_true == true_frequency(records, RangeQuery(r.attrs, r.intervals))
            assert r.efficiency is not None


class TestRunExperiment:
    def test_no_attack_poisoned_equals_honest(self):
        results, summary = run_experiment(small_tree_config())
        assert len(results) == 3
        for r in results:
            assert r.poisoned_response == r.honest_response
            assert r.efficiency is None and r.detected is None
        assert summary["mean_efficiency"] is None

    def test_optimal_tree_attack_runs_when_fakes_round_to_zero(self):
        dataset = {"kind": "gaussian", "count": 40, "mean": 32.0, "std": 10.0}
        config = small_tree_config(attack="aot", rho=0.01, dataset=dataset, defense=True)
        assert config.fake_count(40) == 0
        results, summary = run_experiment(config)
        assert len(results) == 3 and all(r.detected is not None for r in results)
        # No fake user was injected, so there is no attack effect to report.
        assert all(r.efficiency is None for r in results)
        assert summary["mean_efficiency"] is None

    def test_defended_tree_run_survives_an_empty_layer(self):
        # At epsilon 10 one user splits a node, so five users run out before
        # the tree's last layer: the run stops there and every recorded
        # round has reports for the detector.
        config = ExperimentConfig(
            protocol="ahead",
            dataset={"kind": "gaussian", "count": 5, "mean": 512, "std": 40},
            epsilon=10.0,
            attack="mga",
            defense=True,
            n_queries=1,
        )
        results, summary = run_experiment(config)
        assert all(r.detected is not None for r in results)
        assert summary["detection_rate"] is not None

    @pytest.mark.parametrize("attack", ["aog", "aaog"])
    def test_grid_attack_runs_when_fakes_round_to_zero(self, attack):
        # With no fakes the protocol calls no hook and no begin, so the
        # adaptive attack does not plan a load cap it cannot meet.
        config = ExperimentConfig(
            protocol="hdg",
            dataset={"kind": "gaussian", "count": 40, "mean": 32.0, "std": 10.0},
            family_prime=211,
            attack=attack,
            rho=0.01,
            defense=True,
            n_queries=2,
            seeds=(0,),
        )
        assert config.fake_count(40) == 0
        results, summary = run_experiment(config)
        assert len(results) == 2 and all(r.detected is not None for r in results)
        assert all(r.efficiency is None for r in results)
        assert summary["mean_efficiency"] is None

    def test_no_attack_records_no_efficiency(self):
        # rho > 0 with no attack injects no fake report: the poisoned run
        # is honest noise, not an attack effect.
        results, summary = run_experiment(small_tree_config(rho=0.1))
        assert len(results) == 3
        assert all(r.efficiency is None for r in results)
        assert summary["mean_efficiency"] is None

    @pytest.mark.parametrize("protocol", ["ahead", "hdg"])
    @pytest.mark.parametrize("rho, runs_per_seed", [(0.1, 1 + 3), (0.0, 1)])
    def test_one_honest_run_per_seed(self, monkeypatch, protocol, rho, runs_per_seed):
        # The honest run (no fakes) happens once per seed and inside its
        # first trial; each query gets its own poisoned run.
        calls = []
        for name in ("run_tree_protocol", "run_grid_protocol"):
            def counted(*args, _run=getattr(harness, name), **kwargs):
                calls.append(kwargs["n_fake"])
                return _run(*args, **kwargs)

            monkeypatch.setattr(harness, name, counted)
        attack = "mga" if rho else "none"
        results, _ = run_experiment(small_config(protocol, rho=rho, attack=attack, seeds=(0, 1)))
        assert len(results) == 6
        assert [n > 0 for n in calls] == ([False] + [True] * (runs_per_seed - 1)) * 2

    @pytest.mark.parametrize("protocol", ["ahead", "hdg"])
    def test_honest_answers_share_one_run(self, protocol):
        config = small_config(protocol, rho=0.1, attack="mga", seeds=(0, 2))
        results, _ = run_experiment(config)
        spec = config.dataset
        for seed in config.seeds:
            data_rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
            records = gen_synthetic(
                spec["kind"], spec["count"], spec["mean"], spec["std"],
                config.domain_size, config.dims_total, data_rng,
            )
            rng = np.random.default_rng(np.random.SeedSequence([seed, 2, 0]))
            if protocol == "hdg":
                reports = collect_grid_reports(records, config.protocol_config, rng=rng)
                honest, estimate = run_grid_protocol(reports, config.protocol_config, rng=rng), grid_estimate
            else:
                groups = collect_tree_groups(records, config.protocol_config, rng=rng)
                honest, estimate = run_tree_protocol(groups, config.protocol_config, rng=rng), tree_estimate
            trials = [r for r in results if r.seed == seed]
            assert len(trials) == config.n_queries
            for r in trials:
                assert r.honest_response == estimate(honest, RangeQuery(r.attrs, r.intervals))
                assert r.poisoned_response != r.honest_response

    def test_grid_runs_share_the_seeds_reports(self, monkeypatch):
        # Every grid run of a seed, honest and poisoned, adds its fakes to
        # the seed's one collection of real reports; each seed has its own.
        seen = []
        run = harness.run_grid_protocol

        def recorded(reports, *args, **kwargs):
            seen.append(reports)
            return run(reports, *args, **kwargs)

        monkeypatch.setattr(harness, "run_grid_protocol", recorded)
        run_experiment(small_grid_config(rho=0.1, attack="mga", seeds=(0, 1)))
        assert len(seen) == 2 * (1 + 3)
        assert all(reports is seen[0] for reports in seen[:4])
        assert all(reports is seen[4] for reports in seen[4:])
        assert seen[0] is not seen[4]

    def test_tree_runs_share_the_seeds_layer_groups(self, monkeypatch):
        # Each seed collects its layer groups once, from the honest stream;
        # its honest run and every poisoned run read those same read-only
        # groups, sized by the layer plan of the real users alone.
        collected, seen = [], []
        collect, run = harness.collect_tree_groups, harness.run_tree_protocol

        def collecting(*args, **kwargs):
            collected.append(collect(*args, **kwargs))
            return collected[-1]

        def recorded(groups, *args, **kwargs):
            seen.append(groups)
            return run(groups, *args, **kwargs)

        monkeypatch.setattr(harness, "collect_tree_groups", collecting)
        monkeypatch.setattr(harness, "run_tree_protocol", recorded)
        config = small_tree_config(rho=0.1, attack="mga", seeds=(0, 1))
        run_experiment(config)
        assert len(collected) == 2 and collected[0] is not collected[1]
        assert len(seen) == 2 * (1 + 3)
        assert all(groups is collected[0] for groups in seen[:4])
        assert all(groups is collected[1] for groups in seen[4:])
        n = config.dataset["count"]
        for groups in collected:
            assert [g.size for g in groups] == config.protocol_config.layer_plan(n, 0)[0]
            assert not any(g.flags.writeable for g in groups)

    @pytest.mark.parametrize("protocol, attack", [("ahead", "aot"), ("hdg", "mga")])
    def test_shared_honest_run_keeps_no_reports(self, protocol, attack):
        """The honest run is the same with and without defense: it keeps no
        reports, so a defended tree's honest layers still draw their column
        counts.  A grid run draws the same either way, so its poisoned answers
        match too."""
        dataset = {"kind": "gaussian", "count": 20_000, "mean": 32.0, "std": 10.0}

        def trials(defense):
            config = small_config(
                protocol, attack=attack, rho=0.1, dataset=dataset, n_queries=2, seeds=(3,), defense=defense
            )
            return run_experiment(config)[0]

        defended, undefended = trials(True), trials(False)
        assert [r.honest_response for r in defended] == [r.honest_response for r in undefended]
        assert all(r.detected is not None for r in defended)
        assert all(r.detected is None for r in undefended)
        if protocol == "hdg":
            assert [r.poisoned_response for r in defended] == [r.poisoned_response for r in undefended]

    def test_fold_detection(self):
        # A trial is flagged when any round is, and reports the round whose
        # statistic is furthest past (or closest to) its threshold.
        flagged = [
            DetectionResult(False, 5.0, 10.0),
            DetectionResult(True, 40.0, 35.0),  # largest statistic, margin 5
            DetectionResult(True, 30.0, 12.0),  # largest margin, 18
            DetectionResult(False, 9.0, 9.5),
        ]
        assert _fold_detection(flagged) == DetectionResult(True, 30.0, 12.0)
        quiet = [
            DetectionResult(False, 5.0, 10.0),
            DetectionResult(False, 12.0, 20.0),
            DetectionResult(False, 9.0, 9.5),  # closest to its threshold
        ]
        assert _fold_detection(quiet) == DetectionResult(False, 9.0, 9.5)

    def test_fixed_seed_is_deterministic(self, tmp_path):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        run_experiment(small_tree_config(attack="mga", rho=0.1, out=str(out_a)))
        run_experiment(small_tree_config(attack="mga", rho=0.1, out=str(out_b)))

        def records(path):
            rows = [json.loads(line) for line in path.read_text().splitlines()]
            for row in rows:
                row.pop("elapsed_s", None)  # wall-clock timing varies
            return rows

        assert records(out_a) == records(out_b)
        assert out_a.with_suffix(".summary.csv").exists()

    def test_output_files_well_formed(self, tmp_path):
        out = tmp_path / "run.jsonl"
        results, summary = run_experiment(
            small_tree_config(attack="mga", rho=0.1, defense=True, out=str(out))
        )
        lines = out.read_text().splitlines()
        assert len(lines) == len(results)
        first = json.loads(lines[0])
        assert {"seed", "f_true", "poisoned_response", "detected"} <= set(first)
        assert summary["detection_rate"] is not None

    def test_grid_protocol_runs(self):
        results, summary = run_experiment(small_grid_config(n_queries=2, seeds=(1,)))
        assert len(results) == 2
        for r in results:
            assert 0.0 <= r.poisoned_response <= 1.0

    def test_threaded_matches_serial(self):
        # Each seed's honest run is shared by its queries only, never across
        # the seeds' threads.
        def rows(threads):
            config = small_tree_config(attack="mga", rho=0.1, defense=True, seeds=(0, 1), threads=threads)
            return [{**asdict(r), "elapsed_s": None} for r in run_experiment(config)[0]]

        assert rows(2) == rows(1)

    @pytest.mark.parametrize("attack", ["aog", "aaog"])
    def test_threaded_grid_attacks_match_serial(self, attack):
        def config(threads):
            return ExperimentConfig(
                protocol="hdg",
                dataset={"kind": "gaussian", "count": 12_000, "mean": 32.0, "std": 10.0},
                dims_total=3,
                family_prime=211,
                attack=attack,
                defense=True,
                n_queries=2,
                seeds=(0, 1),
                threads=threads,
            )

        def rows(results):
            return [{**asdict(r), "elapsed_s": None} for r in results]

        _support_classes.cache_clear()  # both seeds' threads fill the shared cache
        threaded, _ = run_experiment(config(2))
        serial, _ = run_experiment(config(1))
        assert rows(threaded) == rows(serial)
