import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from ldplab import defenses
from ldplab.defenses import (
    DetectionResult,
    binomial_pmf,
    grid_detect,
    max_load_cdf,
    ones_count_cdf,
    tree_detect,
)
from ldplab.grid_protocol import GridConfig

from .oracles import max_load_threshold_scan, simulated_max_load


def _tree_constants(alpha):
    """``(z_alpha, outside_mass)`` of the ones-count test, read off its
    threshold ``t(N) = N f + z sqrt(N f (1 - f))`` over N = 1 and 4 reports:
    ``t(4) - 2 t(1) = 2 f``."""
    t1, t4 = (tree_detect([0] * users, 16, 1.0, alpha=alpha).threshold for users in (1, 4))
    f_out = (t4 - 2.0 * t1) / 2.0
    return (t1 - f_out) / np.sqrt(f_out * (1.0 - f_out)), f_out


def _outside(counts, n, epsilon, alpha=0.005):
    """Whether ``tree_detect`` counts each 1-count alone as outside its interval."""
    return [tree_detect([c], n, epsilon, alpha=alpha).statistic for c in counts]


class TestTreeDefenseParams:
    """The ones-count test's constants, read from ``tree_detect``'s threshold."""

    def test_alpha_constants(self):
        z_alpha, outside_mass = _tree_constants(0.005)
        assert z_alpha == pytest.approx(2.5758, abs=1e-3)
        assert outside_mass == pytest.approx(0.3190, abs=5e-4)

    def test_z_alpha_matches_scipy(self):
        for alpha in [1e-6, 1e-4, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.4]:
            z = stats.norm.ppf(1.0 - alpha)
            z_alpha, outside_mass = _tree_constants(alpha)
            assert z_alpha == pytest.approx(z, rel=1e-12)
            assert outside_mass == pytest.approx((1.0 - np.sqrt(1.0 / (1.0 + z**2))) / 2.0, rel=1e-12)


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

    def test_interval_leaves_outside_mass_in_each_tail(self):
        # The 1-counts the statistic leaves out form one interval [i-, i+];
        # -1 is inside when no count lies below it.
        outside = _outside(range(-1, 130), 128, 1.0)
        inside = [c for c, out in zip(range(-1, 130), outside) if out == 0]
        i_minus, i_plus = inside[0], inside[-1]
        assert inside == list(range(i_minus, i_plus + 1))
        assert set(outside) == {0.0, 1.0}
        assert i_minus < i_plus
        cdf = ones_count_cdf(128, 1.0 / (np.e + 1.0))
        half = _tree_constants(0.005)[1] / 2.0
        assert cdf[i_plus] >= 1.0 - half
        if i_minus >= 0:
            assert cdf[i_minus] <= half

    def test_empty_round_raises(self):
        with pytest.raises(ValueError):
            tree_detect([], 16, 1.0)

    def test_cached_interval_equals_a_fresh_one(self):
        """Warm and cold calls give the same bits, and a bad ``n`` or
        ``epsilon`` still raises after its key's neighbours were cached."""
        counts = np.random.default_rng(9).integers(0, 40, 500)
        for n, epsilon, alpha in [(16, 1.0, 0.005), (55, 1.0, 0.005), (55, 2.0, 0.05)]:
            defenses._ones_count_interval.cache_clear()
            cold = tree_detect(counts, n, epsilon, alpha=alpha)
            warm = tree_detect(counts, n, epsilon, alpha=alpha)
            assert cold == warm
            assert defenses._ones_count_interval.cache_info().hits == 1
        with pytest.raises(ValueError):
            tree_detect(counts, 0, 1.0)
        with pytest.raises(ValueError):
            tree_detect(counts, 16, -1.0)

    # Honest mass of the 1-counts the statistic counts as outside [I-, I+]
    # (below I- or above I+) at epsilon 1 and alpha 0.005, per round size n.
    EXACT_OUTSIDE = {4: 0.0988, 16: 0.1709, 28: 0.1520, 55: 0.2272, 256: 0.2604}

    @staticmethod
    def _exact_outside(n):
        pmf = np.diff(ones_count_cdf(n, 1.0 / (np.e + 1.0)), prepend=0.0)
        return float(pmf[np.array(_outside(range(n + 1), n, 1.0)) == 1.0].sum())

    def test_exact_outside_mass_is_below_the_nominal_one(self):
        """The interval is discrete, so the honest mass outside it is less
        than the nominal ``outside_mass`` (0.319) the threshold is built on."""
        rng = np.random.default_rng(12)
        for n, mass in self.EXACT_OUTSIDE.items():
            assert self._exact_outside(n) == pytest.approx(mass, abs=1e-4)
            counts = self._honest_counts(rng, n=n, users=40_000)
            # 5 binomial sds of the simulated fraction: a false failure is
            # below 1e-6 per n.
            band = 5.0 * np.sqrt(mass * (1.0 - mass) / counts.size)
            assert abs(tree_detect(counts, n, 1.0).statistic / counts.size - mass) < band + 1e-4
            assert mass < _tree_constants(0.005)[1]

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 12: the threshold uses the nominal outside mass")
    def test_threshold_is_built_from_the_exact_outside_mass(self):
        """The threshold is the statistic's honest mean, ``N`` times the
        interval's exact outside mass, plus ``z_alpha`` standard deviations."""
        z = stats.norm.ppf(1.0 - 0.005)
        users = 11_111  # one of 10 layers of 100k users and 11,111 fakes
        for n in self.EXACT_OUTSIDE:
            f = self._exact_outside(n)
            expected = users * f + z * np.sqrt(users * f * (1.0 - f))
            assert tree_detect(np.zeros(users, dtype=int), n, 1.0).threshold == pytest.approx(expected, rel=1e-9)

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
                    i_plus = int(np.nonzero(cdf >= 1.0 - half)[0][0])
                    counts = [i_minus - 1, i_minus, i_plus, i_plus + 1]
                    outside = _outside(counts, n, epsilon, alpha)
                    assert outside == [1.0, 0.0, 0.0, 1.0], (epsilon, n, alpha)


# Round sizes of the bench's prime-211 family (44,310 functions) and of
# smaller families.
LAW_SIZES = [
    (1900, 44_310), (2222, 44_310), (7407, 44_310), (8000, 44_310),
    (2000, 272), (200, 50), (1000, 1000),
]


def _mallows_cdf(n_balls, n_bins, x):
    """``P[Bin(n_balls, 1/n_bins) <= x] ** n_bins``: by Mallows' inequality
    (Biometrika 1968) an upper bound on ``P[max load <= x]``."""
    return float(np.exp(n_bins * np.log1p(-stats.binom.sf(x, n_balls, 1.0 / n_bins))))


class TestMaxLoad:
    def test_single_bin_is_degenerate(self):
        cdf = max_load_cdf(50, 1)
        assert cdf.exceed[49] == 1.0 and cdf.exceed[50] == 0.0
        # Smallest load whose CDF value exceeds 1 - alpha is the point mass.
        assert cdf.threshold(0.005) == 50

    def test_thousand_in_thousand_regime(self):
        median = max_load_cdf(1000, 1000).threshold(0.5)
        assert 4 <= median <= 9  # ln n / ln ln n regime

    def test_cache_and_determinism(self):
        a = max_load_cdf(200, 50)
        assert max_load_cdf(200, 50) is a
        # Numpy and float counts equal to the int key hit the same entry.
        assert max_load_cdf(np.int64(200), 50.0) is a
        assert not a.exceed.flags.writeable

    def test_two_bin_exceed(self):
        # Two bins: a load above n/2 fits in one bin only, so the union
        # bound is exact there; P[max > 1] = 1 and 2 * 11/16 is capped at 1.
        cdf = max_load_cdf(4, 2)
        np.testing.assert_allclose(cdf.exceed, [1.0, 1.0, 0.625, 0.125, 0.0], rtol=0, atol=1e-15)
        assert cdf.threshold(0.2) == 3
        assert cdf.threshold(0.1) == 4

    def test_threshold_matches_scan_oracle(self):
        rng = np.random.default_rng(16)
        edge_alphas = [1e-20, 1e-9, 1e-4, 0.005, 0.01, 0.05, 0.25, 0.5, 0.995]
        for n_balls, n_bins in LAW_SIZES + [(1, 1), (50, 1), (4, 2), (37, 5)]:
            cdf = max_load_cdf(n_balls, n_bins)
            for alpha in list(rng.random(5)) + list(rng.random(3) * 0.02) + edge_alphas:
                expected = max_load_threshold_scan(n_balls, n_bins, alpha)
                assert cdf.threshold(alpha) == expected, (n_balls, n_bins, alpha)

    @pytest.mark.parametrize("n_balls, n_bins", LAW_SIZES)
    def test_law_bounds_simulated_cdf(self, n_balls, n_bins):
        # hits(x), the trials with max load <= x, is Bin(trials, P[max <= x]),
        # and F(x) <= P[max <= x] <= the Mallows product M(x).  Binomial laws
        # grow stochastically with p, so hits falls below Bin(trials, F(x))'s
        # 1e-6 quantile, or above Bin(trials, M(x))'s 1 - 1e-6 quantile, with
        # probability under 1e-6 each: a false-failure rate under 2e-6 per
        # load, under 1e-4 over the 48 loads of all sizes.
        trials = 2000
        samples = simulated_max_load(n_balls, n_bins, trials, np.random.default_rng(n_balls + n_bins))
        cdf = max_load_cdf(n_balls, n_bins)
        for x in range(int(samples.min()) - 1, int(samples.max()) + 1):
            hits = np.count_nonzero(samples <= x)
            assert hits >= stats.binom.ppf(1e-6, trials, 1.0 - cdf.exceed[x]), (x, hits)
            assert hits <= stats.binom.isf(1e-6, trials, _mallows_cdf(n_balls, n_bins, x)), (x, hits)

    @pytest.mark.parametrize("n_balls, n_bins", LAW_SIZES)
    def test_no_smaller_threshold_is_valid(self, n_balls, n_bins):
        # P[max <= threshold - 1] <= M(threshold - 1) <= 1 - alpha, so a
        # detector firing above threshold - 1 would flag honest rounds at
        # least alpha of the time.  At the threshold itself the union bound
        # is within 3e-5 of the Mallows product.
        cdf = max_load_cdf(n_balls, n_bins)
        for alpha in (0.001, 0.005):
            t = cdf.threshold(alpha)
            assert _mallows_cdf(n_balls, n_bins, t - 1) <= 1.0 - alpha, alpha
            assert 0.0 <= _mallows_cdf(n_balls, n_bins, t) - (1.0 - cdf.exceed[t]) < 3e-5, alpha

    def test_grid_thresholds_at_bench_round_sizes(self):
        # At 1,900 reports M(3) = 0.99401 < 0.995, so a threshold of 3 would
        # flag honest rounds more than alpha of the time.
        family_size = 211 * 210
        assert max_load_cdf(1900, family_size).threshold(0.005) == 4
        assert max_load_cdf(8000, family_size).threshold(0.005) == 5


class TestGridDetect:
    def test_uniform_usage_is_clean(self):
        rng = np.random.default_rng(3)
        fn_ids = rng.integers(0, 5000, 2000)
        result = grid_detect(fn_ids, 5000)
        assert not result.detected

    def test_single_function_spike_detected(self):
        rng = np.random.default_rng(4)
        fn_ids = np.concatenate([rng.integers(0, 5000, 1800), np.full(200, 77)])
        result = grid_detect(fn_ids, 5000)
        assert result.detected
        assert result.statistic >= 200

    def test_detected_iff_statistic_above_threshold(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            fn_ids = rng.integers(0, 300, 500)
            result = grid_detect(fn_ids, 300)
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

    def test_empty_round_raises(self):
        with pytest.raises(ValueError):
            grid_detect([], 100)

    def test_float_ids_rejected(self):
        # They used to be truncated: 1.5 and 1.2 read as one function used twice.
        for fn_ids in ([1.5, 1.2, 7.9], np.array([3.0, 4.0])):
            with pytest.raises(ValueError, match="must be integers"):
                grid_detect(fn_ids, 100)


def test_detection_result_frozen():
    result = DetectionResult(True, 1.0, 0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.detected = False


def test_detectors_reject_alpha_outside_open_unit_interval():
    cdf = max_load_cdf(200, 50)
    for alpha in (0.0, -0.1, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="alpha"):
            cdf.threshold(alpha)
        with pytest.raises(ValueError, match="alpha"):
            grid_detect(np.arange(200) % 50, 50, alpha=alpha)
        with pytest.raises(ValueError, match="alpha"):
            tree_detect([0, 3, 5], 16, 1.0, alpha=alpha)
        # The alpha check comes before the round and the cached interval.
        with pytest.raises(ValueError, match="alpha"):
            tree_detect([], 16, 1.0, alpha=alpha)
        with pytest.raises(ValueError, match="alpha"):
            tree_detect([0, 3, 5], 0, 1.0, alpha=alpha)
