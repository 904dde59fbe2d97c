"""Acceptance gate: every check in cli.CHECKS, plus two heavy MC checks.

Each test prints one [PASS]/[FAIL] line with the measured numbers (run with
`-s` to see them on success) and then asserts.  The registry checks are the
same objects `dlcz-swap validate` runs, so the gate and the command cannot
drift apart.  The two plain tests below stay out of the registry because
their trial counts would slow `validate`.  Statistical checks run at frozen
seeds so a verdict is reproducible bit for bit.
"""

import math

import numpy as np
import pytest
from scipy import stats

from dlcz_swap import analytic, cli, fock, protocol
from dlcz_swap.params import with_overrides


def _verdict(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.mark.parametrize("name, check", cli.CHECKS, ids=[n for n, _ in cli.CHECKS])
def test_check(name, check):
    ok, detail = check()
    _verdict(ok, name, detail)


def test_multiplexed_generation_gain_and_linearity(defaults):
    n_eg = 1_000_000
    counts = {}
    for m in (1, 3):
        batch = protocol.run_batch(with_overrides(defaults, m_modes=m),
                                   n_eg, theta_grid=(0.0,), seed=81)
        counts[m] = batch.n_eg_ab1
    ratio = counts[3] / counts[1]
    # delta-method standard error of the count ratio, binomial per count
    var = 0.0
    for m in (1, 3):
        p_hat = counts[m] / n_eg
        var += (1.0 - p_hat) / counts[m]
    se = ratio * math.sqrt(var)
    gain_ok = abs(ratio - 3.00) <= 3.0 * se

    # Linearity of the fourfold rate in the mode count.  The default pair
    # amplitude would leave ~8 expected events per point at this trial
    # count, so the check runs at chi = 0.10 where the linear regime still
    # holds (the exact routing probability 1-(1-p1^2)^m deviates from m*p1^2
    # by ~2e-3 relative) but each point collects hundreds of events.
    n_lin = 10_000_000
    boosted = with_overrides(defaults, chi=0.10)
    series = protocol.sweep(boosted, "m", (1.0, 2.0, 3.0), n_lin,
                            theta_grid=(0.0,), observable="fourfold",
                            seed=82, name="fourfold_mc")
    ms = np.array([r[0] for r in series.rows])
    y = np.array([r[1] for r in series.rows]) * n_lin  # rates back to counts
    slope = float(np.dot(ms, y) / np.dot(ms, ms))
    ss_res = float(np.sum((y - slope * ms) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    lin_ok = r2 > 0.99
    ok = gain_ok and lin_ok
    _verdict(ok, "multiplexed generation gain and linearity",
             f"herald-count ratio m=3:m=1 = {ratio:.3f} "
             f"({counts[3]}/{counts[1]}), |ratio-3.00|={abs(ratio - 3):.3f} "
             f"<= 3se={3 * se:.3f}; fourfold counts {y.astype(int).tolist()} "
             f"vs modes {ms.astype(int).tolist()} fit through origin with "
             f"R^2={r2:.5f} (want > 0.99)")


def test_swap_probability_three_times(defaults, boosted):
    # the abstract: multiplexing raises the swap success probability "by
    # three times" over the non-multiplexed scheme, m = 3 against m = 1
    exact = {m: analytic.swap_pair_probability(with_overrides(defaults, m_modes=m))
             for m in (1, 3)}
    closed_ok = abs(exact[3] / exact[1] - 3.0) <= 1e-4

    # the MC's routed trials at chi = 0.1, eta = 0.8, where each count is in
    # the thousands; distinct seeds keep the two counts independent
    n = 1_000_000
    counts, p_c = {}, {}
    for m, seed in ((1, 83), (3, 84)):
        params = with_overrides(boosted, m_modes=m)
        counts[m] = protocol.run_batch(params, n, theta_grid=(0.0,), seed=seed).n_routed
        p_c[m] = analytic.swap_pair_probability(params)
    want = p_c[3] / p_c[1]
    ratio = counts[3] / counts[1]
    se = want * math.sqrt(sum((1.0 - p_c[m]) / (n * p_c[m]) for m in (1, 3)))
    mc_ok = abs(ratio - want) <= 4.0 * se
    _verdict(closed_ok and mc_ok, "swap probability three times",
             f"defaults P_c(m=3)/P_c(m=1)={exact[3] / exact[1]:.6f} (want 3 to 1e-4); "
             f"chi=0.1 eta=0.8 routed m=3:m=1 = {ratio:.4f} ({counts[3]}/{counts[1]}) "
             f"vs closed form {want:.5f}, {abs(ratio - want) / se:.2f} sigma (limit 4)")


def _sigma_equivalent(count: int, n: int, p: float) -> float:
    """Two-sided exact binomial tail, expressed as a normal z-score.

    Several conditionals below expect single-digit counts at the default
    rates, where count/n +/- z*sqrt(pq/n) is meaningless; the exact tail
    agrees with the z-score whenever counts are large.
    """
    if n == 0:
        return 0.0
    lo = stats.binom.cdf(count, n, p)
    hi = stats.binom.sf(count - 1, n, p)
    p_two = min(1.0, 2.0 * min(lo, hi))
    return float(stats.norm.isf(p_two / 2.0))


def test_monte_carlo_matches_engine_conditionals(defaults):
    n = 1_000_000
    thetas = fock.default_theta_grid(16)
    batch = protocol.run_batch(defaults, n, theta_grid=thetas, seed=91)
    tables = protocol.conditional_tables(defaults, thetas)
    checks = []

    p_eg = analytic.multiplexed_eg_probability(defaults).exact
    checks.append(("herald ab1", batch.n_eg_ab1, n, p_eg))
    checks.append(("herald b2c", batch.n_eg_b2c, n, p_eg))
    p_routed = analytic.swap_pair_probability(defaults)
    checks.append(("routed", batch.n_routed, n, p_routed))
    checks.append(("swap click", batch.n_es, batch.n_routed, tables.p_swap1))
    pmf = np.diff(tables.counting_cdf, prepend=0.0)
    labels = ("both", "first only", "second only", "neither")
    for k, lab in enumerate(labels):
        checks.append((f"counting {lab}", int(batch.counting_counts[k]),
                       batch.n_es, float(pmf[k])))
    # fourfold per fringe setting: routed & swap click & detector-1 click
    for i in range(len(thetas)):
        p_ff = p_routed * tables.p_swap1 * float(tables.fringe_cdf[i, 1])
        checks.append((f"fringe point {i}", int(batch.fourfold_by_theta[i]),
                       int(batch.n_by_theta[i]), p_ff))

    zs = [(lab, _sigma_equivalent(c, nn, p)) for lab, c, nn, p in checks]
    worst_lab, worst = max(zs, key=lambda t: t[1])
    ok = worst <= 4.0
    _verdict(ok, "Monte Carlo vs engine conditionals",
             f"{len(checks)} conditional click probabilities at n=1e6, "
             f"worst deviation {worst:.2f} sigma ({worst_lab}), limit 4")
