import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from ldplab.attacks.grid import _hit_table
from ldplab.harness import (
    ConfigError,
    ExperimentConfig,
    efficiency,
    gen_queries,
    gen_synthetic,
    load_csv,
    prism_bruteforce_ratio,
    prism_violation_ratio,
    run_experiment,
    true_frequency,
)
from ldplab.query import RangeQuery


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
        with pytest.raises(ValueError):
            gen_synthetic("gaussian", 0, 0, 1, 64, 1, rng)


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
        with pytest.raises(ConfigError):
            ExperimentConfig(seeds=())
        for bad in (
            dict(protocol="ahead", domain_size=1000),  # not a power of fanout
            dict(protocol="hdg", family_prime=10),  # below the cell count
            dict(protocol="hdg", family_prime=20),  # not a prime
            dict(protocol="hdg", dims_total=1, dims_query=1),
            dict(protocol="hdg", dims_query=1),  # grid queries span 2+ attributes
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
        ):
            with pytest.raises(ConfigError):
                ExperimentConfig(**bad)

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
        results, _ = run_experiment(config)
        assert len(results) == 3 and all(r.detected is not None for r in results)

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
        config = ExperimentConfig(
            protocol="hdg",
            dataset={"kind": "gaussian", "count": 4000, "mean": 32.0, "std": 10.0},
            dims_total=2,
            dims_query=2,
            rho=0.0,
            n_queries=2,
            seeds=(1,),
        )
        results, summary = run_experiment(config)
        assert len(results) == 2
        for r in results:
            assert 0.0 <= r.poisoned_response <= 1.0

    def test_threaded_matches_serial(self):
        config = small_tree_config(seeds=(0, 1))
        serial, _ = run_experiment(config)
        threaded, _ = run_experiment(small_tree_config(seeds=(0, 1), threads=2))
        assert [r.poisoned_response for r in serial] == [
            r.poisoned_response for r in threaded
        ]

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

        _hit_table.cache_clear()  # both seeds' threads fill the shared cache
        threaded, _ = run_experiment(config(2))
        serial, _ = run_experiment(config(1))
        assert rows(threaded) == rows(serial)
