"""Acceptance suite: eleven end-to-end criteria with pinned tolerances.

Each test prints a single PASS/FAIL line (visible because pytest runs with
``-s``) and then asserts, so a red run still reports every criterion it
reached.
"""

import math
import time

import numpy as np
import pytest

from ldplab.attacks import (
    AdaptiveGridAttack,
    GridRangeAttack,
    MgaTreeAttack,
    OptimalTreeAttack,
    aaot_transform,
    aog_size_constraints,
    aot_assignment_fast,
    match_functions_to_grids,
    mga_tree,
    scan_supports,
)
from ldplab.defenses import grid_detect, max_load_cdf, tree_detect
from ldplab.freq_oracles import (
    HashFamily,
    OlhParams,
    OueParams,
    debias_counts,
    olh_aggregate,
    olh_perturb_batch,
    oue_perturb_batch,
)
from ldplab.grid_protocol import (
    GridConfig,
    cells_in_range,
    collect_grid_reports,
    estimate_query as grid_estimate,
    grid_keys,
    run_grid_protocol,
)
from ldplab.harness import efficiency, gen_queries, true_frequency
from ldplab.postprocess import norm_sub
from ldplab.query import RangeQuery
from ldplab.tree_protocol import (
    collect_tree_groups,
    TreeConfig,
    estimate_query as tree_estimate,
    run_tree_protocol,
)

from .oracles import (
    aot_assignment_bruteforce,
    assignment_objective,
    exhaustive_best_objective,
    norm_sub_bisect,
    olh_collision_prob,
    preference,
    prism_bruteforce_ratio,
    prism_violation_ratio,
    stable_matching_audit,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. Normalization solver vs bisection oracle
# ---------------------------------------------------------------------------

def test_criterion_01_norm_sub_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst_delta = 0.0
    worst_vec = 0.0
    for _ in range(500):
        size = int(rng.integers(2, 513))
        vec = rng.normal(0.0, rng.uniform(0.2, 3.0), size)
        ours = norm_sub(vec)
        expected, delta = norm_sub_bisect(vec)
        worst_delta = max(worst_delta, abs(ours.delta - delta))
        worst_vec = max(worst_vec, float(np.abs(ours.normalized - expected).max()))
    elapsed = time.perf_counter() - started
    ok = worst_delta <= 1e-9 and worst_vec <= 1e-9 and elapsed < 5.0
    report(
        1,
        ok,
        f"500 vectors: max |delta diff| {worst_delta:.2e}, "
        f"max elementwise {worst_vec:.2e}, {elapsed:.1f}s (< 5s)",
    )


# ---------------------------------------------------------------------------
# 2. Front-loaded assignments contain a global integer optimum
# ---------------------------------------------------------------------------

def test_criterion_02_front_loaded_form_is_globally_optimal():
    rng = np.random.default_rng(102)
    started = time.perf_counter()
    mismatches = 0
    worst = 0.0
    for _ in range(200):
        size = int(rng.integers(2, 5))
        m_fake = int(rng.integers(1, 6))
        n_real = int(rng.integers(50, 500))
        coeffs = np.sort(rng.random(size))[::-1]
        freqs = rng.dirichlet(np.ones(size))
        params = OueParams(float(rng.uniform(0.5, 2.0)), size)
        ours = aot_assignment_bruteforce(coeffs, m_fake, n_real, freqs, params)
        best = exhaustive_best_objective(
            coeffs,
            freqs,
            m_fake,
            n_real,
            lambda a: assignment_objective(coeffs, freqs, a, n_real, m_fake, params),
        )
        gap = abs(ours.value - best)
        worst = max(worst, gap)
        if gap > 1e-12:
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 60.0
    report(
        2,
        ok,
        f"200 exhaustive instances: {mismatches} mismatches "
        f"(worst gap {worst:.2e}), {elapsed:.1f}s (< 60s)",
    )


# ---------------------------------------------------------------------------
# 3. Fast assignment search equals brute force and is >= 5x faster
# ---------------------------------------------------------------------------

def test_criterion_03_fast_search_equivalence_and_speedup():
    rng = np.random.default_rng(103)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(2, 65))
        m_fake = int(rng.integers(1, 201))
        n_real = int(rng.integers(500, 5000))
        coeffs = np.sort(rng.random(size))[::-1]
        coeffs[rng.random(size) < 0.2] = 0.0
        coeffs = np.sort(coeffs)[::-1]
        if not coeffs.any():
            coeffs[0] = 1.0
        freqs = rng.dirichlet(np.ones(size))
        params = OueParams(1.0, size)
        slow = aot_assignment_bruteforce(coeffs, m_fake, n_real, freqs, params)
        fast = aot_assignment_fast(coeffs, m_fake, n_real, freqs, params)
        fast_value = assignment_objective(coeffs, freqs, fast, n_real, m_fake, params)
        worst = max(worst, abs(slow.value - fast_value))

    # Timing comparison at the largest size.
    size, m_fake, n_real = 64, 200, 5000
    coeffs = np.sort(rng.random(size))[::-1]
    freqs = rng.dirichlet(np.ones(size))
    params = OueParams(1.0, size)
    t0 = time.perf_counter()
    for _ in range(3):
        aot_assignment_bruteforce(coeffs, m_fake, n_real, freqs, params)
    brute_time = (time.perf_counter() - t0) / 3
    t0 = time.perf_counter()
    for _ in range(3):
        aot_assignment_fast(coeffs, m_fake, n_real, freqs, params)
    fast_time = (time.perf_counter() - t0) / 3
    speedup = brute_time / fast_time
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and speedup >= 5.0 and elapsed < 120.0
    report(
        3,
        ok,
        f"100 instances: max objective gap {worst:.2e}; speedup at size 64: "
        f"{speedup:.1f}x (>= 5x); {elapsed:.1f}s (< 120s)",
    )


# ---------------------------------------------------------------------------
# 4. Grid attack concentrates the full response when planning succeeds
# ---------------------------------------------------------------------------

def test_criterion_04_grid_attack_full_concentration():
    started = time.perf_counter()
    config = GridConfig(d=3, g1=16, g2=4, domain_size=64, epsilon=1.0, prime=211)
    query = RangeQuery((0, 1, 2), ((16, 64), (0, 48), (16, 64)))
    rho = 0.2
    n_real = 24_000
    n_fake = int(round(n_real * rho / (1.0 - rho)))
    good = 0
    planned = 0
    for seed in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([104, seed]))
        records = rng.integers(0, 64, (n_real, 3))
        attack = GridRangeAttack(config, query, rho)
        reports = collect_grid_reports(records, config, rng=rng)
        grids = run_grid_protocol(reports, config, hook=attack, n_fake=n_fake, rng=rng)
        response = grid_estimate(grids, query)
        if not attack.fallback_keys:
            planned += 1
            if abs(response - 1.0) <= 1e-6:
                good += 1
    elapsed = time.perf_counter() - started
    ok = good >= 18 and elapsed < 600.0
    report(
        4,
        ok,
        f"{planned}/20 trials fully planned, {good}/20 with response within "
        f"1e-6 of 1.0 (need >= 18); {elapsed:.0f}s (< 600s)",
    )


# ---------------------------------------------------------------------------
# 5. Documented drop of the 2-D minimum support size
# ---------------------------------------------------------------------------

def test_criterion_05_size_constraint_spot_check():
    # Configuration: g = 4 hash keys, g1 = 16, g2 = 4, d = 5 attributes.
    config = GridConfig(d=5, g1=16, g2=4, epsilon=1.0)
    low = aog_size_constraints(0.10, config)
    high = aog_size_constraints(0.15, config)
    ok = config.olh_params().g == 4 and low.w2_int == 7 and high.w2_int == 5
    report(
        5,
        ok,
        f"(g=4, g1=16, g2=4, d=5): ceil(w2) {low.w2_int} at rho=0.10 -> "
        f"{high.w2_int} at rho=0.15 (expected 7 -> 5)",
    )


# ---------------------------------------------------------------------------
# 6. Max-gain efficiency on a single target stays under the analytic bound
# ---------------------------------------------------------------------------

def test_criterion_06_mga_oue_efficiency_bound():
    n_items = 128
    n_real = 100_000
    rho = 0.05
    m_fake = int(round(n_real * rho / (1.0 - rho)))
    params = OueParams(1.0, n_items)
    target = 64
    lo = np.arange(n_items)
    query = RangeQuery((0,), ((target, target + 1),))
    bound = 2.0 * math.e / (math.e - 1.0) + 0.5
    effs = []
    for seed in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([106, seed]))
        values = rng.integers(0, n_items, n_real)
        f_true = float((values == target).mean())
        real = oue_perturb_batch(values, params, rng)
        fake = mga_tree(lo, lo + 1, query, m_fake, params, rng)
        counts = real.support + fake.sum(axis=0, dtype=np.float64)
        est = (counts - (n_real + m_fake) * params.q) / (
            (n_real + m_fake) * (params.p - params.q)
        )
        effs.append(efficiency(f_true, float(est[target]), rho))
    mean_eff = float(np.mean(effs))
    ok = mean_eff <= bound
    report(
        6,
        ok,
        f"mean single-target efficiency {mean_eff:.3f} <= bound {bound:.3f} "
        f"over 20 trials",
    )


# ---------------------------------------------------------------------------
# 7. Optimal tree attack beats the max-gain baseline at desk scale
# ---------------------------------------------------------------------------

def test_criterion_07_tree_attack_effectiveness():
    started = time.perf_counter()
    config = TreeConfig(domain_size=1024, fanout=2, epsilon=1.0)
    n_real = 100_000
    rho = 0.1
    n_fake = int(round(n_real * rho / (1.0 - rho)))
    data_rng = np.random.default_rng(107)
    values = np.clip(np.rint(data_rng.normal(512.0, 40.0, n_real)), 0, 1023).astype(int)
    queries = gen_queries(20, 1024, 1, 1, np.random.default_rng(1007))

    def run(query, hook, seed):
        rng = np.random.default_rng(np.random.SeedSequence([1070, seed]))
        groups = collect_tree_groups(values, config, rng=rng)
        tree = run_tree_protocol(groups, config, hook=hook, n_fake=n_fake, rng=rng)
        return tree_estimate(tree, query)

    opt_effs, mga_effs = [], []
    for qid, query in enumerate(queries):
        f_true = true_frequency(values, query)
        opt = OptimalTreeAttack(config, query, n_real=n_real, n_fake=n_fake, strategy="one")
        opt_effs.append(efficiency(f_true, run(query, opt, 2 * qid), rho))
        mga = MgaTreeAttack(query, config.epsilon)
        mga_effs.append(efficiency(f_true, run(query, mga, 2 * qid + 1), rho))
    mean_opt = float(np.mean(opt_effs))
    mean_mga = float(np.mean(mga_effs))
    elapsed = time.perf_counter() - started
    ok = mean_opt >= 3.0 and mean_opt >= mean_mga - 0.5 and elapsed < 900.0
    report(
        7,
        ok,
        f"mean efficiency: optimal {mean_opt:.2f} (need >= 3 and >= baseline "
        f"- 0.5), baseline {mean_mga:.2f}; {elapsed:.0f}s (< 900s)",
    )


# ---------------------------------------------------------------------------
# 8. Detection rates of the two defenses
# ---------------------------------------------------------------------------

def _honest_ones_counts(rng, n_nodes, users, q):
    return rng.binomial(n_nodes - 1, q, users) + (rng.random(users) < 0.5)


def test_criterion_08_detection_rates():
    started = time.perf_counter()
    alpha = 0.005
    trials = 50

    # --- tree rounds: 256 leaf nodes, query covering 96 of them ------------
    n_nodes, n_real, m_fake = 256, 20_000, 2_222
    params = OueParams(1.0, n_nodes)
    lo = np.arange(n_nodes)
    query = RangeQuery((0,), ((0, 96),))

    def detect(counts):
        return tree_detect(counts, n_nodes, 1.0, alpha=alpha).detected

    honest_hits = mga_hits = adaptive_hits = 0
    for seed in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([108, seed]))
        honest = _honest_ones_counts(rng, n_nodes, n_real, params.q)
        honest_hits += detect(honest)
        fakes = mga_tree(lo, lo + 1, query, m_fake, params, rng)
        mga_hits += detect(np.concatenate([honest, fakes.sum(axis=1)]))
        resampled = aaot_transform(fakes, n_nodes, params.q, rng).sum(axis=1)
        adaptive_hits += detect(np.concatenate([honest, resampled]))

    # --- grid rounds: adaptive attack vs max-load detector ------------------
    config = GridConfig(d=5, g1=16, g2=4, domain_size=64, epsilon=1.0, prime=211)
    family_size = config.family().n_random_functions
    keys = grid_keys(5)
    fake_per_round, real_per_round = 222, 2000
    fake_counts = {key: fake_per_round for key in keys}
    n_total = (fake_per_round + real_per_round) * len(keys)
    query5 = RangeQuery((0, 1, 2), ((16, 64), (0, 48), (16, 64)))
    max_load_cdf(fake_per_round + real_per_round, family_size)  # warm cache
    aaog_hits = 0
    for seed in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([1080, seed]))
        attack = AdaptiveGridAttack(config, query5, alpha=alpha, beta=0.1)
        attack.begin(fake_counts, n_total, rng)
        flagged = False
        for key in keys:
            a = rng.integers(1, config.prime, real_per_round)
            b = rng.integers(0, config.prime, real_per_round)
            honest_fns = a * config.prime + b
            fake_fns, _ = attack(key, fake_per_round, rng)
            fn_ids = np.concatenate([honest_fns, fake_fns])
            if grid_detect(fn_ids, family_size, alpha=alpha).detected:
                flagged = True
        aaog_hits += flagged

    rates = (
        mga_hits / trials,
        honest_hits / trials,
        adaptive_hits / trials,
        aaog_hits / trials,
    )
    elapsed = time.perf_counter() - started
    ok = (
        rates[0] >= 0.95
        and rates[1] <= 0.10
        and rates[2] <= 0.15
        and rates[3] <= 0.20
        and elapsed < 1200.0
    )
    report(
        8,
        ok,
        f"detection over {trials} trials: max-gain tree {rates[0]:.0%} (>= 95%), "
        f"honest {rates[1]:.0%} (<= 10%), adaptive tree {rates[2]:.0%} (<= 15%), "
        f"adaptive grid {rates[3]:.0%} (<= 20%); {elapsed:.0f}s (< 1200s)",
    )


# ---------------------------------------------------------------------------
# 9. Oracle unbiasedness: estimates inside analytic 3-sigma bands
# ---------------------------------------------------------------------------

def test_criterion_09_oracle_unbiasedness():
    n_items = 64
    n_users = 100_000
    reps = 20
    coverages = []

    for epsilon in (0.5, 1.0, 2.0):
        data_rng = np.random.default_rng(np.random.SeedSequence([109, int(epsilon * 10)]))
        values = np.clip(
            np.rint(data_rng.normal(32.0, 8.0, n_users)), 0, n_items - 1
        ).astype(int)
        item_counts = np.bincount(values, minlength=n_items).astype(float)
        f = item_counts / n_users

        # OUE: unbiased, per-item variance from the two bit channels.
        params = OueParams(epsilon, n_items)
        var = item_counts * params.p * (1 - params.p) + (
            n_users - item_counts
        ) * params.q * (1 - params.q)
        sigma_oue = np.sqrt(var) / (n_users * (params.p - params.q))
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence([1090, rep, int(epsilon * 10)]))
            est = debias_counts(oue_perturb_batch(values, params, rng).support, n_users, params)
            coverages.append(float((np.abs(est - f) <= 3 * sigma_oue).mean()))

        # OLH: expectation includes the hash-collision floor of the family.
        # A report keeps its hashed key with probability p, else it is
        # uniform over the other g - 1 keys.
        olh = OlhParams(epsilon)
        p = olh.p
        family = HashFamily(1031, olh.g)
        c = olh_collision_prob(1031, olh.g)
        pi_wrong = p * c + (1 - c) * (1 - p) / (olh.g - 1)
        pi = f * p + (1 - f) * pi_wrong
        denom = n_users * (p - 1.0 / olh.g)
        mu = (n_users * pi - n_users / olh.g) / denom
        var = item_counts * (p * (1 - p)) + (n_users - item_counts) * pi_wrong * (1 - pi_wrong)
        sigma_olh = np.sqrt(var) / denom
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence([1091, rep, int(epsilon * 10)]))
            pairs = olh_perturb_batch(values, family, olh, rng)
            est = debias_counts(olh_aggregate(pairs, family, np.arange(n_items)), n_users, olh)
            coverages.append(float((np.abs(est - mu) <= 3 * sigma_olh).mean()))

    coverage = float(np.mean(coverages))
    ok = coverage >= 0.95
    report(
        9,
        ok,
        f"3-sigma band coverage {coverage:.1%} (need >= 95%) pooled over "
        f"both oracles, 20 reps, epsilon in {{0.5, 1, 2}}",
    )


# ---------------------------------------------------------------------------
# 10. Privacy-violation ratio of the bitwise range encoding
# ---------------------------------------------------------------------------

def test_criterion_10_prism_ratio():
    worst_closed = 0.0
    worst_brute = 0.0
    for epsilon in (0.5, 1.0, 2.0):
        ratio = prism_violation_ratio(epsilon)
        worst_closed = max(worst_closed, abs(ratio / math.exp(epsilon) - math.exp(epsilon)))
        worst_brute = max(worst_brute, abs(ratio - prism_bruteforce_ratio(epsilon)))
    ok = worst_closed <= 1e-9 and worst_brute <= 1e-9
    report(
        10,
        ok,
        f"ratio / e^eps deviates from e^eps by {worst_closed:.2e} and from the "
        f"brute-force enumeration by {worst_brute:.2e} (both <= 1e-9)",
    )


# ---------------------------------------------------------------------------
# 11. Adaptive grid attack: usage cap compliance and matching stability
# ---------------------------------------------------------------------------

def test_criterion_11_adaptive_grid_compliance_and_stability():
    started = time.perf_counter()
    config = GridConfig(d=5, g1=16, g2=4, domain_size=64, epsilon=1.0, prime=211)
    keys = grid_keys(5)
    family = config.family()
    fn_ids = family.random_fn_ids()
    fake_per_round, real_per_round = 222, 2000
    fake_counts = {key: fake_per_round for key in keys}
    n_total = (fake_per_round + real_per_round) * len(keys)
    queries = gen_queries(
        20, 64, 5, 3, np.random.default_rng(111), snap=16
    )
    max_load_cdf(fake_per_round + real_per_round, family.n_random_functions)

    cap_violations = 0
    unstable = 0
    for trial, query in enumerate(queries):
        rng = np.random.default_rng(np.random.SeedSequence([1110, trial]))
        attack = AdaptiveGridAttack(config, query)
        attack.begin(fake_counts, n_total, rng)
        limit = attack.load_limit
        all_fns = []
        for key in keys:
            fns, _ = attack(key, fake_per_round, rng)
            all_fns.append(fns)
        usage = np.bincount(np.concatenate(all_fns))
        if usage.max() > limit:
            cap_violations += 1

        # Reproduce the value matrix the attack matched on and audit it.
        values = np.zeros((len(keys), fn_ids.size))
        for g_idx, key in enumerate(keys):
            mask = cells_in_range(config, query, key)
            scale = mask.size / config.g2 ** len(config.shape(key))
            scan = scan_supports(family, mask, scale, (config.g1, config.g2))
            values[g_idx] = preference(scan).max(axis=1)
        quotas = [math.ceil(fake_per_round / limit)] * len(keys)
        matched = match_functions_to_grids(values, quotas)
        if not stable_matching_audit(values, quotas, matched):
            unstable += 1

    elapsed = time.perf_counter() - started
    ok = cap_violations == 0 and unstable == 0
    report(
        11,
        ok,
        f"20 trials: {cap_violations} per-function cap violations, "
        f"{unstable} unstable matchings; {elapsed:.0f}s",
    )
