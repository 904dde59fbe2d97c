"""Monte Carlo layer: counter streams, single trials, batches, sweeps.

Single trials are played by the scalar oracle (tests/oracles.py), which
draws doubles; run_batch must reproduce its counts.  Its one-word herald
category draw is also tested in distribution against the per-mode herald
stage kept there, and against exact rationals.  The stream tests
rebuild the documented Philox layout with numpy directly, so a regression
in the oracle's word arithmetic cannot hide behind itself.
"""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sstats

from dlcz_swap import protocol
from dlcz_swap.fock import default_theta_grid
from dlcz_swap.params import ParamError, with_overrides
from dlcz_swap.protocol import (
    JOINT_ORDER,
    SwapStatistics,
    conditional_tables,
    run_batch,
    sweep,
)
from oracles import (
    HERALD_CATEGORIES,
    TrialOutcome,
    TrialStream,
    herald_category,
    mode_categories,
    mode_category_counts,
    run_trial,
    trial_stream,
)


def _philox_words(seed, stream, n_words):
    gen = np.random.Generator(np.random.Philox(key=[seed, stream]))
    return gen.random(n_words)


def test_trial_stream_matches_flat_philox():
    seed = 91
    herald_flat = _philox_words(seed, 0, 40)
    interf_flat = _philox_words(seed, 1, 3 * 40)
    for i, j in ((0, 0), (1, 0), (7, 2), (39, 39)):
        ts = trial_stream(seed, i, routed_rank=j)
        assert ts.herald == herald_flat[i]  # one herald word per trial
        # three interference words per routed trial, keyed by routed rank
        assert np.array_equal(ts.interference, interf_flat[3 * j:3 * j + 3])


def test_trial_stream_offset_selects_streams():
    seed = 5
    herald_flat = _philox_words(seed, 6, 10)
    interf_flat = _philox_words(seed, 7, 3 * 10)
    ts = trial_stream(seed, 3, stream_offset=6, routed_rank=4)
    assert ts.herald == herald_flat[3]
    assert np.array_equal(ts.interference, interf_flat[12:15])


def test_trial_stream_validation():
    with pytest.raises(ParamError):
        trial_stream(-1, 0)
    with pytest.raises(ParamError):
        trial_stream(0, -1)
    with pytest.raises(ParamError):
        trial_stream(0, 0, routed_rank=-1)


def test_outcome_invariant():
    with pytest.raises(ValueError):
        TrialOutcome(eg_ab1=False, eg_b2c=False, routed=False,
                     es_click=True, ev1_click=False, ev2_click=False,
                     a_click=False, c_click=False, t1_us=0.0, t2_us=2.0,
                     theta=0.0)
    with pytest.raises(ValueError):
        TrialOutcome(eg_ab1=True, eg_b2c=False, routed=True,
                     es_click=False, ev1_click=False, ev2_click=False,
                     a_click=False, c_click=False, t1_us=0.0, t2_us=2.0,
                     theta=0.0)


def test_run_trial_chi_zero(defaults):
    p = with_overrides(defaults, chi=0.0)
    out = run_trial(p, trial_stream(0, 0), 0.0)
    assert not out.eg_ab1 and not out.eg_b2c and not out.routed
    assert not out.es_click and not out.ev1_click
    assert not out.a_click and not out.c_click
    # every herald uniform, even 0, falls in "none"
    assert HERALD_CATEGORIES[herald_category(p, 0.0)] == "none"


def test_run_trial_forced_paths(boosted):
    tables = conditional_tables(boosted, (0.0,))

    def play(herald, interference):
        ts = TrialStream(herald=herald, interference=np.array(interference))
        return run_trial(boosted, ts, 0.0, tables=tables)

    # u = 0 is below every bound: a common index, routed to the swap
    out = play(0.0, [0.0, 0.5, 0.5])
    assert out.eg_ab1 and out.eg_b2c and out.routed
    assert out.es_click  # u_swap = 0 < p_swap1
    out2 = play(0.0, [0.999999, 0.5, 0.5])
    assert not out2.es_click and not out2.ev1_click

    # one uniform inside each later category
    bounds = protocol._herald_bounds(boosted)
    want = {"both": (True, True), "a-only": (True, False), "b-only": (False, True),
            "none": (False, False)}
    for k, u in enumerate((bounds[0], bounds[1], bounds[2], bounds[3]), start=1):
        out3 = play(float(u), [0.0, 0.5, 0.5])
        assert (out3.eg_ab1, out3.eg_b2c) == want[HERALD_CATEGORIES[k]]
        assert not out3.routed and not out3.es_click


def test_mode_categories_of_forced_heralds(boosted):
    # the per-mode reference, m = 3 modes per link, link A-B1 first
    m = boosted.m_modes
    patterns = {
        "common": [0.0] * (2 * m),               # every mode heralds
        "both": [0.0, 1.0, 1.0, 1.0, 1.0, 0.0],  # A on mode 1, B on mode 3
        "a-only": [1.0, 0.0, 1.0, 1.0, 1.0, 1.0],
        "b-only": [1.0, 1.0, 1.0, 1.0, 0.0, 1.0],
        "none": [1.0] * (2 * m),
    }
    got = mode_categories(boosted, np.array(list(patterns.values())))
    assert [HERALD_CATEGORIES[k] for k in got] == list(patterns)
    # A on modes 2, 3 and B on modes 1, 2: the switch routes index 2
    assert mode_categories(boosted, np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0])) == 0


# (m, overrides): m from one mode per link to m = 200, whose per-mode herald
# stage would draw 400 words a trial; then the chi=0 path
SCALAR_CASES = {
    "m1": (1, {}),
    "m3": (3, {}),
    "m12": (12, {}),
    "m32": (32, {}),
    "m40": (40, {}),
    "m200": (200, {}),
    "chi0": (3, dict(chi=0.0)),
}


@pytest.mark.parametrize("m, overrides", SCALAR_CASES.values(), ids=SCALAR_CASES.keys())
def test_batch_equals_scalar_loop(boosted, monkeypatch, m, overrides):
    # the vectorized accumulator replays the exact per-trial semantics, with
    # chunk boundaries that fall between theta-grid cycles
    monkeypatch.setattr(protocol, "CHUNK_TRIALS", 137)
    params = with_overrides(boosted, m_modes=m, **overrides)
    n = 1200
    grid = default_theta_grid(4)
    batch = run_batch(params, n, theta_grid=grid, seed=17)

    tables = conditional_tables(params, tuple(grid))
    counters = dict(n_eg_ab1=0, n_eg_b2c=0, n_eg=0, n_routed=0, n_es=0,
                    fourfold=0)
    counting = np.zeros(4, dtype=int)
    ff_by_theta = np.zeros(len(grid), dtype=int)
    for i in range(n):
        theta = grid[i % len(grid)]
        stream = trial_stream(17, i, routed_rank=counters["n_routed"])
        out = run_trial(params, stream, theta, tables=tables)
        counters["n_eg_ab1"] += out.eg_ab1
        counters["n_eg_b2c"] += out.eg_b2c
        counters["n_eg"] += out.eg_ab1 and out.eg_b2c
        counters["n_routed"] += out.routed
        counters["n_es"] += out.es_click
        if out.es_click:
            counting[JOINT_ORDER.index((out.a_click, out.c_click))] += 1
            if out.ev1_click:
                counters["fourfold"] += 1
                ff_by_theta[i % len(grid)] += 1

    for key, want in counters.items():
        got = getattr(batch, key)
        assert got == want and type(got) is int, key
    assert np.array_equal(batch.counting_counts, counting)
    assert np.array_equal(batch.fourfold_by_theta, ff_by_theta)
    assert np.array_equal(batch.n_by_theta, np.bincount(np.arange(n) % len(grid)))
    if params.chi == 0:
        assert batch.n_eg_ab1 == batch.n_eg_b2c == 0
    else:
        assert batch.n_es > 0  # the swap-click path was exercised


def test_chi_zero_batch_builds_its_tables_once(defaults):
    # chi = 0 is an ordinary point: its batches read the noise-free link's
    # tables like any other, built once, and no trial heralds or routes
    params = with_overrides(defaults, chi=0.0)
    protocol._tables_cached.cache_clear()
    batches = [run_batch(params, 50_000, seed=seed) for seed in (4, 5)]
    info = protocol._tables_cached.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for stats in batches:
        assert stats.n_eg_ab1 == stats.n_eg_b2c == stats.n_routed == stats.n_es == 0


def test_chunking_invariance(boosted, monkeypatch):
    # the shipped CHUNK_TRIALS splits n too; 137 and 7_919 do not divide it
    blobs = []
    for chunk in (137, 1000, 7_919, protocol.CHUNK_TRIALS, 1_000_000):
        monkeypatch.setattr(protocol, "CHUNK_TRIALS", chunk)
        blobs.append(json.dumps(run_batch(boosted, 40_000, seed=3).as_dict(),
                                sort_keys=True))
    assert all(blob == blobs[0] for blob in blobs)


P_EDGES = (0.0, 5e-324, 0.5, math.nextafter(0.5, 0.0), 1.0 - 2.0 ** -53, 1.0, 1.5)


@pytest.mark.parametrize("p", P_EDGES)
def test_raw_word_threshold_matches_doubles(p):
    # u < p decided on the converted words must agree with the scalar
    # double of each word, (w >> 11) * 2**-53, at the boundaries, where
    # w < ceil(p * 2**53) << 11 changes sides
    ks = {1, 2, 2 ** 52, 2 ** 53 - 1, 2 ** 53}
    if 0.0 < p < 1.0:
        ks.add(math.ceil(p * 2.0 ** 53))
    words = set()
    for k in ks:
        words.update(((k << 11) - 1, k << 11, ((k - 1) << 11) | 0x7FF,
                      (k << 11) + 1))
    words = sorted(w for w in words if 0 <= w < 2 ** 64)
    got = protocol._uniforms(np.array(words, dtype=np.uint64)) < p
    want = [(w >> 11) * 2.0 ** -53 < p for w in words]
    assert got.tolist() == want


def test_raw_words_convert_like_generator():
    raw = np.random.Philox(key=[91, 4]).random_raw(4096)
    doubles = np.random.Generator(np.random.Philox(key=[91, 4])).random(4096)
    assert np.array_equal(protocol._uniforms(raw), doubles)


def test_run_batch_builds_one_generator_per_stream(defaults, monkeypatch):
    # a batch reads two Philox streams in order: the herald stream's key
    # (seed, offset) and the interference stream's key (seed, offset + 1)
    keys = []
    philox = np.random.Philox

    def recording(*args, **kwargs):
        keys.append(tuple(int(k) for k in kwargs["key"]))
        return philox(*args, **kwargs)

    monkeypatch.setattr(protocol.np.random, "Philox", recording)
    batch = run_batch(defaults, 100_000, seed=11, stream_offset=4)
    assert batch.n_routed > 0
    assert keys == [(11, 4), (11, 5)]


def test_herald_draws_stay_within_the_1mb_block(boosted, monkeypatch):
    # one herald word per trial: no chunk draws more than CHUNK_TRIALS herald
    # words, a 128 KB block, whatever the mode count; a block of routed
    # trials draws three interference words each, at most 3 * CHUNK_TRIALS
    requests = {}
    philox = np.random.Philox

    class Recording:
        def __init__(self, *args, **kwargs):
            self.generator = philox(*args, **kwargs)
            self.sizes = requests.setdefault(int(kwargs["key"][1]), [])

        def random_raw(self, size):
            self.sizes.append(size)
            return self.generator.random_raw(size)

    monkeypatch.setattr(protocol.np.random, "Philox", Recording)
    c = protocol.CHUNK_TRIALS
    for m in (1, 3, 32, 200):
        requests.clear()
        batch = run_batch(with_overrides(boosted, m_modes=m), 40_000, seed=3)
        assert requests[0] == [c, c, 40_000 - 2 * c], m
        interference = requests.get(1, [])
        assert all(size <= 3 * c for size in interference), m
        assert sum(interference) == 3 * batch.n_routed, m
    assert len(interference) == 2  # m = 200 routes more than CHUNK_TRIALS


# The category table over a seeded grid, with the edges chi = 0, the top
# p1 = chi * eta of the parameter box (chi = nextafter(1, 0), eta = 1),
# m = 1 and m = 1000 added
_rng = np.random.default_rng(29)
TABLE_GRID = [(float(chi), float(eta), int(m)) for chi, eta, m in zip(
    _rng.choice([1e-7, 1e-4, 0.01, 0.1, 0.3, 0.9], 12),
    _rng.uniform(0.05, 1.0, 12),
    _rng.choice([1, 2, 3, 12, 32, 200, 1000], 12))]
TABLE_GRID += [(0.0, 0.5, 3), (0.0, 1.0, 1000), (0.1, 0.8, 1), (0.3, 1.0, 1),
               (0.01, 0.5, 1000), (0.5, 0.8, 1000),
               (math.nextafter(1.0, 0.0), 1.0, 1), (math.nextafter(1.0, 0.0), 1.0, 3)]


def _exact_table(p1, m):
    # the five categories as exact rationals of the float p1
    p1 = Fraction(p1)
    eg, p_c = 1 - (1 - p1) ** m, 1 - (1 - p1 * p1) ** m
    return [p_c, eg * eg - p_c, eg - eg * eg, eg - eg * eg, (1 - eg) ** 2]


@pytest.mark.parametrize("chi, eta, m", TABLE_GRID)
def test_herald_category_table(defaults, monkeypatch, chi, eta, m):
    # p1 = chi * eta, patched in at every point so the params below need
    # not carry chi itself
    params = with_overrides(defaults, chi=min(chi, 0.5), eta=eta, m_modes=m)
    p1 = chi * eta
    monkeypatch.setattr(protocol.analytic, "single_mode_herald_probability",
                        lambda _: p1)
    bounds = protocol._herald_bounds(params)
    table = np.diff(np.concatenate([[0.0], bounds, [1.0]]))
    assert np.all(table >= 0.0) and abs(math.fsum(table) - 1.0) <= 2.0 ** -52
    exact = _exact_table(p1, m)
    assert all(abs(Fraction(t) - e) <= 1e-15 for t, e in zip(table, exact))
    # marginals: each link heralds with eg, both with eg**2, routing with P_c
    eg = protocol.analytic.multiplexed_eg_probability(params).exact
    p_c = protocol.analytic.swap_pair_probability(params)
    ulp = 2.0 ** -52
    assert abs(table[:3].sum() - eg) <= ulp
    assert abs(table[:2].sum() + table[3] - eg) <= 2 * ulp
    assert abs(table[:2].sum() - eg * eg) <= ulp
    assert table[0] == p_c


# (m, chi) at eta = 0.8: run_batch's five-category counts against those of
# the per-mode reference, at frozen seeds
DISTRIBUTION_CASES = [(m, chi) for m in (1, 3, 32, 200) for chi in (0.1, 0.5)]


@pytest.mark.parametrize("m, chi", DISTRIBUTION_CASES)
def test_herald_categories_match_per_mode_oracle(boosted, m, chi):
    params = with_overrides(boosted, chi=chi, m_modes=m)
    n = 20_000
    batch = run_batch(params, n, theta_grid=[0.0], seed=1000 + m)
    got = np.array([batch.n_routed, batch.n_eg - batch.n_routed,
                    batch.n_eg_ab1 - batch.n_eg, batch.n_eg_b2c - batch.n_eg,
                    n - batch.n_eg_ab1 - batch.n_eg_b2c + batch.n_eg])
    assert got.sum() == n and np.all(got >= 0)
    ref = mode_category_counts(params, n, seed=2000 + m)
    for name, a, b in zip(HERALD_CATEGORIES, got, ref):
        pooled = (a + b) / (2 * n)
        if pooled in (0.0, 1.0):
            assert a == b, name
            continue
        z = (a - b) / math.sqrt(2 * n * pooled * (1 - pooled))
        assert abs(z) < 4.5, (name, a, b, z)


# run_batch counters at chi=0.1, eta=0.8, 100 000 trials, seed 20260818:
# six full chunks and a partial one, at few and at many modes
FULL_CHUNK_PINS = {
    3: dict(n_eg_ab1=22187, n_eg_b2c=22051, n_eg=4898, n_routed=1935, n_es=633,
            fourfold=172, counting_counts=[59, 132, 140, 302],
            fourfold_by_theta=[10, 11, 14, 18, 9, 11, 5, 5, 12, 5, 10, 12, 16, 13, 10, 11]),
    32: dict(n_eg_ab1=93079, n_eg_b2c=92922, n_eg=86507, n_routed=18621, n_es=6169,
             fourfold=1740, counting_counts=[464, 1348, 1365, 2992],
             fourfold_by_theta=[139, 128, 146, 116, 99, 99, 94, 72, 110, 74, 89, 102,
                                97, 114, 123, 138]),
    40: dict(n_eg_ab1=96445, n_eg_b2c=96456, n_eg=93025, n_routed=22722, n_es=7565,
             fourfold=2109, counting_counts=[561, 1670, 1665, 3669],
             fourfold_by_theta=[171, 191, 153, 159, 128, 115, 108, 94, 86, 97, 102, 119,
                                126, 127, 156, 177]),
}


@pytest.mark.parametrize("m", FULL_CHUNK_PINS)
def test_full_chunk_counts_pinned(boosted, m):
    batch = run_batch(with_overrides(boosted, m_modes=m), 100_000, seed=20260818)
    for key, want in FULL_CHUNK_PINS[m].items():
        assert np.array_equal(getattr(batch, key), want), key


@pytest.mark.parametrize("name, value", [
    ("n_trials", 2.5), ("n_trials", 0), ("n_trials", True), ("n_trials", "10"),
    ("n_trials", np.float64(10.0)), ("seed", True), ("seed", False), ("seed", 1.0),
    ("stream_offset", True), ("stream_offset", np.bool_(True)),
])
def test_run_batch_rejects_non_integer_inputs(defaults, name, value):
    # bools are not integers here, and a float trial count is a ParamError,
    # not numpy's TypeError from the chunk loop
    kwargs = dict(n_trials=10, seed=1, stream_offset=0)
    kwargs[name] = value
    with pytest.raises(ParamError, match=name):
        run_batch(defaults, **kwargs)


@pytest.mark.parametrize("offset", (-1, 1.5, "0", 2 ** 64 - 1, 2 ** 64))
def test_stream_offset_validated(defaults, offset):
    # the interference key word is stream_offset + 1, so 2**64 - 1 has no room
    with pytest.raises(ParamError, match="stream_offset"):
        run_batch(defaults, 10, seed=1, stream_offset=offset)


def test_stream_offset_top_value_runs(defaults):
    batch = run_batch(defaults, 10, seed=1, stream_offset=np.uint64(2 ** 64 - 2))
    assert batch.stream_offset == 2 ** 64 - 2 and type(batch.stream_offset) is int


def test_results_compare_by_identity(boosted):
    # results holding arrays compare by identity: field-wise == would ask an
    # array for a single truth value and raise
    a, b = run_batch(boosted, 2000, seed=1), run_batch(boosted, 2000, seed=1)
    assert a == a and a != b
    report = conditional_tables(boosted, (0.0, 1.0)).report
    for x in (conditional_tables(boosted, (0.0, 1.0)), report, report.rho_ac):
        assert x == x and x != dataclasses.replace(x)


def test_multiplexing_exact_even_at_high_chi(defaults):
    # the m-mode union formula is exact, not a small-chi expansion
    n = 200_000
    for m in (1, 2, 3):
        p = with_overrides(defaults, chi=0.5, m_modes=m)
        p1 = 0.5 * p.eta
        batch = run_batch(p, n, theta_grid=[0.0], seed=12)
        for k, expect in ((batch.n_eg_ab1, 1 - (1 - p1) ** m),
                          (batch.n_routed, 1 - (1 - p1 * p1) ** m)):
            se = math.sqrt(expect * (1 - expect) / n)
            assert abs(k / n - expect) < 4.5 * se


def test_link_heralds_independent(defaults):
    batch = run_batch(defaults, 1_000_000, theta_grid=[0.0], seed=9)
    n11 = batch.n_eg
    n10 = batch.n_eg_ab1 - n11
    n01 = batch.n_eg_b2c - n11
    n00 = batch.n_trials - n11 - n10 - n01
    _, pvalue, _, _ = sstats.chi2_contingency([[n11, n10], [n01, n00]])
    assert pvalue > 0.01


def test_visibility_recovers_engine_fringe(boosted):
    batch = run_batch(boosted, 400_000, seed=41)
    tables = conditional_tables(boosted, tuple(default_theta_grid()))
    pev1 = tables.fringe_cdf[:, 1]  # cumulative over the two ev1 outcomes
    v_eng = (pev1.max() - pev1.min()) / (pev1.max() + pev1.min())
    assert not batch.insufficient
    assert abs(batch.v - v_eng) < 4 * batch.v_se
    # suppression from the counting arm
    probs = np.diff(np.concatenate([[0.0], tables.counting_cdf]))
    h_eng = probs[0] / (probs[1] * probs[2])
    assert abs(batch.h - h_eng) < 4 * batch.h_se


def test_destructive_null(boosted):
    # at theta = pi the heralded fringe interferes destructively
    batch = run_batch(boosted, 200_000, theta_grid=[math.pi], seed=23)
    tables = conditional_tables(boosted, (math.pi,))
    null = tables.fringe_cdf[0, 1]
    peak = conditional_tables(boosted, (0.0,)).fringe_cdf[0, 1]
    # the multi-pair terms of the heralded links (order chi, deliberately
    # hot here) fill much of the null in; the fringe survives and the
    # sampler must track the engine value exactly
    assert null < 0.6 * peak
    rate = batch.fourfold / max(batch.n_es, 1)
    se = math.sqrt(max(null * (1 - null), 1e-12) / max(batch.n_es, 1))
    assert abs(rate - null) < 4 * se


def test_variance_scaling(boosted):
    # each standard error is binomial in its own denominator, and doubling
    # the trials doubles the denominators, within binomial noise
    small = run_batch(boosted, 150_000, seed=77)
    big = run_batch(boosted, 300_000, seed=78)
    for stats in (small, big):
        for p, se, n in ((stats.p_es, stats.p_es_se, stats.n_routed),
                         (stats.p11, stats.p11_se, stats.n_es)):
            assert se ** 2 * n == pytest.approx(p * (1 - p), rel=1e-12)
    for attr in ("n_routed", "n_es"):
        k_small, k_big = getattr(small, attr), getattr(big, attr)
        rate = (k_small + k_big) / (small.n_trials + big.n_trials)
        # Var(k_big - 2 k_small) = (n_big + 4 n_small) rate (1 - rate)
        sd = math.sqrt((big.n_trials + 4 * small.n_trials) * rate * (1 - rate))
        assert abs(k_big - 2 * k_small) < 5 * sd, attr


def test_sweep_monotonicity_closed_form(defaults):
    # storage makes the fringe shallower and the accidentals relatively
    # larger; the closed forms encode that as V down, h up along t2
    from dlcz_swap.analytic import correlation_pair, suppression, visibility
    t2s = np.arange(2.0, 63.0, 4.0)
    v, h = [], []
    for t2 in t2s:
        p = with_overrides(defaults, t1_us=t2 - 2.0, t2_us=t2)
        corr = correlation_pair(p)
        v.append(visibility(corr, form="exact"))
        h.append(suppression(corr))
    assert np.all(np.diff(v) < 0)
    assert np.all(np.diff(h) > 0)


def test_sweep_series_contract(boosted):
    series = sweep(boosted, "t2", [2.0, 8.0, 14.0], 20_000,
                   theta_grid=[0.0], seed=5, observable="es_rate")
    assert series.name == "es_rate_vs_t2"
    assert [r[0] for r in series.rows] == [2.0, 8.0, 14.0]
    assert series.metadata["axis"] == "t2"
    assert series.metadata["observable"] == "es_rate"
    assert series.metadata["source"] == "monte-carlo"
    assert series.metadata["seed"] == 5
    for _, y, sig in series.rows:
        assert 0.0 <= y <= 1.0
        assert sig >= 0.0


def test_sweep_validation(boosted, monkeypatch):
    with pytest.raises(ParamError):
        sweep(boosted, "t2", [8.0, 2.0], 100)  # unsorted
    with pytest.raises(ParamError):
        sweep(boosted, "zeta", [1.0], 100)
    with pytest.raises(ParamError):
        sweep(boosted, "m", [1.5], 100)
    with pytest.raises(ParamError):
        sweep(boosted, "t2", [1.0], 100)  # below the fixed readout spacing
    # no observable is concurrence; the theta axis takes fourfold, its only one
    assert sweep(boosted, "t2", [8.0], 100).metadata["observable"] == "concurrence"
    assert sweep(boosted, "theta", [0.0], 100,
                 observable="fourfold").metadata["observable"] == "fourfold"

    # an observable the sweep cannot report fails before the first batch
    def no_batch(*args, **kwargs):
        raise AssertionError("run_batch ran before the observable was checked")

    monkeypatch.setattr(protocol, "run_batch", no_batch)
    with pytest.raises(ParamError, match="'entropy'"):
        sweep(boosted, "t2", [8.0], 100, observable="entropy")
    with pytest.raises(ParamError, match=r"on the theta axis; choose from \('fourfold',\)"):
        sweep(boosted, "theta", [0.0, 1.0], 100, observable="concurrence")


def test_sweep_theta_reports_fourfold(boosted):
    series = sweep(boosted, "theta", [0.0, math.pi], 100_000, seed=6)
    assert series.metadata["observable"] == "fourfold"
    (_, peak, sig0), (_, null, sig1) = series.rows
    # the hot-chi fringe is shallow but the contrast is still many sigma
    assert peak - null > 3.0 * (sig0 + sig1)


def test_engine_tables_periodic(boosted):
    two_pi = 2.0 * math.pi
    tables = conditional_tables(boosted, (0.0, two_pi))
    assert np.allclose(tables.fringe_cdf[0], tables.fringe_cdf[1], atol=1e-12)


def test_empty_theta_grid_rejected(boosted):
    # an empty grid has no fringe to tabulate: a ParamError naming the grid,
    # not numpy's zero-size reduction error, from the engine's one check
    with pytest.raises(ParamError, match="theta grid"):
        conditional_tables(boosted, ())
    with pytest.raises(ParamError, match="theta grid"):
        run_batch(boosted, 1000, theta_grid=())


def test_m_axis_uses_multiplexing(boosted):
    series = sweep(boosted, "m", [1, 2, 3], 50_000, theta_grid=[0.0],
                   seed=8, observable="eg_rate")
    p1 = boosted.chi * boosted.eta
    for m, y, sig in series.rows:
        expect = 1 - (1 - p1) ** int(m)
        assert abs(y - expect) < 4.5 * max(sig, 1e-9)


def test_insufficient_statistics_flagged(defaults):
    batch = run_batch(defaults, 2_000, seed=1)
    assert batch.insufficient
    json.dumps(batch.as_dict())  # nan-bearing dict must still serialize


def test_theta_assignment_round_robin(boosted):
    grid = default_theta_grid(16)
    batch = run_batch(boosted, 33, theta_grid=grid, seed=0)
    assert batch.n_by_theta.sum() == 33
    assert batch.n_by_theta[0] == 3
    assert np.all(batch.n_by_theta[1:] >= 1)


def test_seed_changes_outcomes(boosted):
    a = run_batch(boosted, 50_000, seed=0)
    b = run_batch(boosted, 50_000, seed=1)
    assert a.n_es != b.n_es  # overwhelmingly likely for distinct streams


def test_seeds_above_2_63_stay_distinct(boosted):
    # a plain-list Philox key passes such seeds through float64, so 2**63 + 1
    # and 2**63 + 1001 shared one key and 2**64 - 1 replayed seed 0
    def outcomes(seed):
        out = run_batch(boosted, 20_000, seed=seed).as_dict()
        del out["seed"]
        return out

    assert outcomes(2 ** 63 + 1) != outcomes(2 ** 63 + 1001)
    assert outcomes(2 ** 64 - 1) != outcomes(0)
    for stream in (trial_stream(2 ** 63 + 1, 0), trial_stream(2 ** 64 - 1, 0)):
        assert stream.herald != trial_stream(0, 0).herald


# Hand-made counts for the estimators of _assemble: a counting arm over
# JOINT_ORDER (p11, p10, p01, p00) and a four-point fringe with its peak at
# theta = 0 (B > 0) or at theta = pi (B < 0)
COUNTING = [8, 120, 127, 357]
N_ROUTED = 1935
FRINGE_THETAS = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
FRINGE_TRIALS = [2500, 2500, 2500, 2500]
FRINGES = {"peak-0": [61, 33, 9, 30], "peak-pi": [9, 30, 61, 33]}


def _assemble_hand_made(params, fourfold, counting=COUNTING, thetas=FRINGE_THETAS,
                        trials=FRINGE_TRIALS):
    counting = np.array(counting)
    counters = dict(n_eg_ab1=0, n_eg_b2c=0, n_eg=0, n_routed=N_ROUTED,
                    n_es=int(counting.sum()), fourfold=sum(fourfold))
    return protocol._assemble(params, 10_000, counters, np.array(thetas),
                              np.array(trials), np.array(fourfold), counting, 0, 0)


def _fringe_fit(fourfold):
    """(A, B, cov) of the weighted least-squares fit k/n = A + B cos(theta),
    weights n / (p (1 - p)) at the smoothed rate p = (k + 1/2) / (n + 1),
    solved by the 2x2 normal equations; cov is their inverse."""
    k, n = np.array(fourfold, float), np.array(FRINGE_TRIALS, float)
    cos, r = np.cos(FRINGE_THETAS), k / n
    p_s = (k + 0.5) / (n + 1.0)
    w = n / (p_s * (1.0 - p_s))
    s_w, s_c, s_cc = w.sum(), (w * cos).sum(), (w * cos * cos).sum()
    s_r, s_cr = (w * r).sum(), (w * cos * r).sum()
    det = s_w * s_cc - s_c ** 2
    a = (s_cc * s_r - s_c * s_cr) / det
    b = (s_w * s_cr - s_c * s_r) / det
    return a, b, np.array([[s_cc, -s_c], [-s_c, s_w]]) / det


def _fd_se(estimator, x, cov, step=1e-7):
    """Delta-method error of estimator at x from a central finite difference."""
    grad = np.array([(estimator(x + step * e) - estimator(x - step * e)) / (2 * step)
                     for e in np.eye(len(x))])
    return math.sqrt(grad @ cov @ grad)


@pytest.mark.parametrize("fourfold", FRINGES.values(), ids=FRINGES.keys())
def test_assemble_estimators_exact(defaults, fourfold):
    stats = _assemble_hand_made(defaults, fourfold)
    n_es = sum(COUNTING)
    p11, p10, p01, p00 = (k / n_es for k in COUNTING)
    p_c = p10 + p01
    h = p11 / (p10 * p01)
    a, b, _ = _fringe_fit(fourfold)
    v = abs(b) / a
    want = dict(p_es=n_es / N_ROUTED, p11=p11, p10=p10, p01=p01, p00=p00,
                p_c=p_c, h=h, fit_offset=a, fit_amplitude=b, v=v,
                concurrence_raw=p_c * (v - math.sqrt(h)))
    for key, value in want.items():
        assert getattr(stats, key) == pytest.approx(value, rel=1e-12, abs=1e-12), key
    assert stats.concurrence == max(0.0, stats.concurrence_raw) > 0.0
    assert stats.concurrence_raw == protocol.analytic.concurrence(stats.p_c, stats.v, stats.h)
    assert not stats.insufficient and stats.flags == ()


@pytest.mark.parametrize("fourfold", FRINGES.values(), ids=FRINGES.keys())
def test_assemble_standard_errors_match_finite_differences(defaults, fourfold):
    # delta-method errors against central finite differences of each
    # estimator: the counting arm under the multinomial covariance
    # (diag(p) - p p^T) / n of its four fractions, the visibility under the
    # covariance of the fit
    stats = _assemble_hand_made(defaults, fourfold)
    n_es = sum(COUNTING)
    p = np.array(COUNTING) / n_es
    cov = (np.diag(p) - np.outer(p, p)) / n_es
    assert np.allclose(protocol._multinomial_cov(p, n_es), cov, rtol=1e-14, atol=0.0)

    v = stats.v  # the fringe arm is independent of the counting fractions
    counting = {
        "p_c": (stats.p_c_se, lambda q: q[1] + q[2]),
        "h": (stats.h_se, lambda q: q[0] / (q[1] * q[2])),
        # the counting-arm part of the concurrence error
        "concurrence": (math.sqrt(stats.concurrence_se ** 2 - (stats.p_c * stats.v_se) ** 2),
                        lambda q: (q[1] + q[2]) * (v - math.sqrt(q[0] / (q[1] * q[2])))),
    }
    for key, (se, estimator) in counting.items():
        assert se == pytest.approx(_fd_se(estimator, p, cov), rel=1e-6), key
    a, b, cov_fit = _fringe_fit(fourfold)
    v_se = _fd_se(lambda ab: abs(ab[1]) / ab[0], np.array([a, b]), cov_fit)
    assert stats.v_se == pytest.approx(v_se, rel=1e-6)


# The boundary paths of _assemble, on the hand-made counts with one change
# each: (change, flag, the estimates that are NaN there).  A negative offset
# comes from two fringe points, where the fit is exact: A + B = 0.2 and
# A + B/2 = 0.05 give A = -0.1.
_NO_COUNTING = ("p11", "p11_se", "p10", "p10_se", "p01", "p01_se", "p00", "p00_se",
                "p_c", "p_c_se")
_NO_H = ("h", "h_se")
_NO_V = ("v", "v_se")
_NO_C = ("concurrence", "concurrence_raw", "concurrence_se")
_NO_FIT = ("fit_offset", "fit_amplitude")
ASSEMBLE_BOUNDARIES = {
    "n_es-zero": (dict(counting=[0, 0, 0, 0]), "no-swap-clicks",
                  _NO_COUNTING + _NO_H + _NO_C),
    "p10-zero": (dict(counting=[8, 0, 127, 357]), "h-zero-denominator", _NO_H + _NO_C),
    "p01-zero": (dict(counting=[8, 120, 0, 357]), "h-zero-denominator", _NO_H + _NO_C),
    "h-zero": (dict(counting=[0, 120, 127, 357]), "h-zero-gradient", ()),
    "offset-zero": (dict(fourfold=[0, 0, 0, 0]), "fringe-offset-nonpositive", _NO_V + _NO_C),
    "offset-negative": (dict(fourfold=[200, 50], thetas=[0.0, math.pi / 3],
                             trials=[1000, 1000]),
                        "fringe-offset-nonpositive", _NO_V + _NO_C),
    "one-theta-bin": (dict(fourfold=[61, 0, 0, 0], trials=[2500, 0, 0, 0]),
                      "fringe-underdetermined", _NO_FIT + _NO_V + _NO_C),
    # a repeated theta has one cosine, so A + B cos(theta) has one point
    "equal-cosines": (dict(fourfold=[200, 190], thetas=[1.0, 1.0], trials=[1000, 1000]),
                      "fringe-underdetermined", _NO_FIT + _NO_V + _NO_C),
}
ESTIMATES = _NO_COUNTING + _NO_H + _NO_V + _NO_C + _NO_FIT + ("p_es", "p_es_se")


@pytest.mark.parametrize("change, flag, nan_fields", ASSEMBLE_BOUNDARIES.values(),
                         ids=ASSEMBLE_BOUNDARIES.keys())
def test_assemble_boundary_paths(defaults, change, flag, nan_fields):
    change = dict(change)
    stats = _assemble_hand_made(defaults, change.pop("fourfold", FRINGES["peak-0"]),
                                **change)
    assert flag in stats.flags
    got_nan = {name for name in ESTIMATES if math.isnan(getattr(stats, name))}
    assert got_nan == set(nan_fields)
    assert stats.insufficient == bool({"h", "v"} & got_nan)
    assert ("insufficient-statistics" in stats.flags) == stats.insufficient
    if flag == "fringe-offset-nonpositive":
        assert stats.fit_offset <= 0.0
    if not math.isnan(stats.concurrence_raw):
        assert stats.concurrence_raw == protocol.analytic.concurrence(
            stats.p_c, stats.v, stats.h)
        assert stats.concurrence == max(0.0, stats.concurrence_raw)
