import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from ldplab.defenses import (
    DetectionResult,
    MaxLoadCdf,
    binomial_pmf,
    grid_detect,
    max_load_cdf,
    ones_count_cdf,
    tree_detect,
)
from ldplab.grid_protocol import GridConfig

from .oracles import max_load_threshold_scan


class TestTreeDefenseParams:
    """The ones-count test's constants, read from ``tree_detect``'s metadata."""

    def test_alpha_constants(self):
        params = tree_detect([0], 16, 1.0, alpha=0.005).metadata
        assert params["z_alpha"] == pytest.approx(2.5758, abs=1e-3)
        assert params["outside_mass"] == pytest.approx(0.3190, abs=5e-4)

    def test_z_alpha_matches_scipy(self):
        for alpha in [1e-6, 1e-4, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.4]:
            expected = stats.norm.ppf(1.0 - alpha)
            z_alpha = tree_detect([0], 16, 1.0, alpha=alpha).metadata["z_alpha"]
            assert z_alpha == pytest.approx(expected, rel=1e-12)


class TestBinomialPmf:
    QS = [0.0, 1e-5, 1.0 / 44_310, 0.05, 1.0 / (np.e + 1.0), 0.5, 0.8, 1.0]

    def test_matches_scipy(self):
        for n in [0, 1, 2, 7, 64, 800, 2000, 2222]:
            for q in self.QS:
                np.testing.assert_allclose(
                    binomial_pmf(n, q), stats.binom.pmf(np.arange(n + 1), n, q),
                    rtol=0, atol=1e-12, err_msg=f"n={n} q={q}",
                )

    def test_matches_scipy_at_large_rounds(self):
        # log(n!) is about 6e4 at n = 7407, so its rounding alone moves a
        # pmf value by about 1e-12 of itself: the tolerance is 1e-11 here.
        for n in [6667, 7407]:
            for q in self.QS:
                np.testing.assert_allclose(
                    binomial_pmf(n, q), stats.binom.pmf(np.arange(n + 1), n, q),
                    rtol=0, atol=1e-11, err_msg=f"n={n} q={q}",
                )

    def test_degenerate_laws_are_point_masses(self):
        np.testing.assert_array_equal(binomial_pmf(0, 0.3), [1.0])
        np.testing.assert_array_equal(binomial_pmf(3, 0.0), [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(binomial_pmf(3, 1.0), [0.0, 0.0, 0.0, 1.0])

    def test_rejects_bad_arguments(self):
        for n, q in [(-1, 0.5), (4, -0.1), (4, 1.1)]:
            with pytest.raises(ValueError):
                binomial_pmf(n, q)


def test_package_import_leaves_scipy_unloaded():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    code = "import sys, ldplab.harness; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


class TestOnesCountCdf:
    def test_n_equals_one(self):
        cdf = ones_count_cdf(1, 0.25)
        np.testing.assert_allclose(cdf, [0.5, 1.0], atol=1e-12)

    def test_is_valid_cdf(self):
        cdf = ones_count_cdf(32, 0.2)
        assert cdf.shape == (33,)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            ones_count_cdf(0, 0.25)

    def test_rejects_q_outside_open_unit_interval(self):
        for q in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                ones_count_cdf(8, q)

    def test_matches_scipy_binomial(self):
        for n in [1, 2, 3, 8, 31, 64, 187, 512, 1024, 2048]:
            for q in [1e-4, 0.05, 0.1, 1.0 / (np.e + 1.0), 0.3, 0.5, 0.8]:
                noise = stats.binom.pmf(np.arange(n), n - 1, q)
                expected = np.minimum(np.cumsum(np.convolve(noise, [0.5, 0.5])), 1.0)
                np.testing.assert_allclose(ones_count_cdf(n, q), expected, rtol=0, atol=1e-12)


class TestTreeDetect:
    def _honest_counts(self, rng, n=128, users=20_000, epsilon=1.0):
        q = 1.0 / (np.exp(epsilon) + 1.0)
        return rng.binomial(n - 1, q, users) + (rng.random(users) < 0.5)

    def test_honest_round_usually_clean(self):
        rng = np.random.default_rng(0)
        flags = [
            tree_detect(self._honest_counts(rng), 128, 1.0).detected
            for _ in range(20)
        ]
        assert sum(flags) <= 2

    def test_saturated_reports_detected(self):
        rng = np.random.default_rng(1)
        counts = np.concatenate(
            [self._honest_counts(rng, users=18_000), np.full(4000, 128)]
        )
        result = tree_detect(counts, 128, 1.0)
        assert result.detected
        assert result.statistic > result.threshold

    def test_metadata_interval(self):
        rng = np.random.default_rng(2)
        result = tree_detect(self._honest_counts(rng), 128, 1.0)
        i_minus, i_plus = result.metadata["interval"]
        assert i_minus < i_plus
        cdf = ones_count_cdf(128, 1.0 / (np.e + 1.0))
        half = result.metadata["outside_mass"] / 2.0
        assert cdf[i_plus] >= 1.0 - half
        if i_minus >= 0:
            assert cdf[i_minus] <= half

    def test_empty_round_raises(self):
        with pytest.raises(ValueError):
            tree_detect([], 16, 1.0)

    def test_interval_matches_scipy_reference(self):
        for epsilon in [0.25, 0.5, 1.0, 2.0, 4.0]:
            q = 1.0 / (np.exp(epsilon) + 1.0)
            for n in [1, 2, 4, 16, 55, 128, 512, 1024]:
                noise = stats.binom.pmf(np.arange(n), n - 1, q)
                cdf = np.minimum(np.cumsum(np.convolve(noise, [0.5, 0.5])), 1.0)
                for alpha in [1e-4, 0.005, 0.05, 0.1]:
                    z = stats.norm.ppf(1.0 - alpha)
                    half = (1.0 - np.sqrt(1.0 / (1.0 + z**2))) / 4.0
                    below = np.nonzero(cdf <= half)[0]
                    i_minus = int(below[-1]) if below.size else -1
                    expected = (i_minus, int(np.nonzero(cdf >= 1.0 - half)[0][0]))
                    result = tree_detect([0], n, epsilon, alpha=alpha)
                    assert result.metadata["interval"] == expected, (epsilon, n, alpha)


class TestMaxLoad:
    def test_single_bin_is_degenerate(self):
        cdf = max_load_cdf(50, 1, trials=100)
        assert np.all(cdf.samples == 50)
        # Smallest load whose CDF value exceeds 1 - alpha is the point mass.
        assert cdf.threshold(0.005) == 50

    def test_thousand_in_thousand_regime(self):
        cdf = max_load_cdf(1000, 1000, trials=400)
        median = float(np.median(cdf.samples))
        assert 4 <= median <= 9  # ln n / ln ln n regime

    def test_cache_and_determinism(self):
        a = max_load_cdf(200, 50, trials=150)
        b = max_load_cdf(200, 50, trials=150)
        assert a is b
        np.testing.assert_array_equal(a.samples, b.samples)
        # The key is int-normalised: numpy and float counts hit the same entry.
        assert max_load_cdf(np.int64(200), 50.0, trials=np.int32(150)) is a

    def test_too_few_trials(self):
        with pytest.raises(ValueError):
            max_load_cdf(10, 10, trials=50)

    def test_cdf_interface(self):
        cdf = MaxLoadCdf(4, 2, np.array([2, 3, 3, 4]))
        assert cdf.cdf(2) == pytest.approx(0.25)
        assert cdf.threshold(0.2) == 4

    def test_threshold_matches_scan_oracle(self):
        rng = np.random.default_rng(16)
        # Exact count boundaries (c / n == 1 - alpha) and degenerate alphas.
        edge_alphas = [0.0, 1e-18, 0.005, 0.01, 0.05, 0.25, 0.5, 0.995, 1.0]
        for _ in range(200):
            n = int(rng.choice([1, 2, 3, 7, 10, 100, 400, 1000]))
            samples = rng.integers(0, int(rng.integers(1, 40)), n) + int(rng.integers(0, 5))
            cdf = MaxLoadCdf(0, 0, samples)
            alphas = list(rng.random(5)) + list(rng.random(3) * 0.02) + edge_alphas
            alphas += [c / n for c in range(n + 1)][:: max(n // 20, 1)]
            for alpha in alphas:
                assert cdf.threshold(alpha) == max_load_threshold_scan(samples, alpha)


class TestGridDetect:
    def test_uniform_usage_is_clean(self):
        rng = np.random.default_rng(3)
        fn_ids = rng.integers(0, 5000, 2000)
        result = grid_detect(fn_ids, 5000, trials=300)
        assert not result.detected

    def test_single_function_spike_detected(self):
        rng = np.random.default_rng(4)
        fn_ids = np.concatenate([rng.integers(0, 5000, 1800), np.full(200, 77)])
        result = grid_detect(fn_ids, 5000, trials=300)
        assert result.detected
        assert result.statistic >= 200

    def test_detected_iff_statistic_above_threshold(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            fn_ids = rng.integers(0, 300, 500)
            result = grid_detect(fn_ids, 300, trials=300)
            assert result.detected == (result.statistic > result.threshold)

    def test_honest_rounds_flagged_at_most_alpha(self):
        # 2,000 honest rounds per round size of the bench grid family (prime
        # 211, 44,310 functions), sized as 30k- and 100k-user runs with 10 %
        # fakes.  If the true flag rate is at most alpha, the count exceeds
        # the binomial 0.999 quantile with probability <= 0.1 %.
        alpha, rounds = 0.005, 2000
        family_size = GridConfig(d=5, prime=211).family().n_random_functions
        cutoff = stats.binom.ppf(0.999, rounds, alpha)
        rng = np.random.default_rng(20)
        for round_size in (2222, 7407):
            flagged = sum(
                grid_detect(rng.integers(0, family_size, round_size), family_size, alpha).detected
                for _ in range(rounds)
            )
            assert flagged <= cutoff, (round_size, flagged, cutoff)

    def test_analytic_metadata(self):
        rng = np.random.default_rng(6)
        result = grid_detect(rng.integers(0, 5000, 2000), 5000, trials=300)
        analytic = result.metadata["analytic_threshold"]
        assert analytic is not None and np.isfinite(analytic)
        # Singular when |H| equals the round size.
        singular = grid_detect(rng.integers(0, 2000, 2000), 2000, trials=300)
        assert singular.metadata["analytic_threshold"] is None

    def test_empty_round_raises(self):
        with pytest.raises(ValueError):
            grid_detect([], 100)


def test_detection_result_frozen():
    result = DetectionResult(True, 1.0, 0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.detected = False
