"""Monte Carlo layer: counter streams, single trials, batches, sweeps.

Single trials are played by the scalar oracle (tests/oracles.py), which
draws doubles; run_batch must reproduce its counts.  The stream tests
rebuild the documented Philox layout with numpy directly, so a regression
in the advance arithmetic cannot hide behind itself.
"""

import dataclasses
import json
import math

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
from oracles import TrialOutcome, TrialStream, run_trial, trial_stream


def _philox_words(seed, stream, n_words):
    gen = np.random.Generator(np.random.Philox(key=[seed, stream]))
    return gen.random(n_words)


def test_trial_stream_matches_flat_philox():
    seed, m = 91, 3
    ticks = -(-2 * m // 4)  # herald words per trial, rounded up to 4-word ticks
    herald_flat = _philox_words(seed, 0, ticks * 4 * 40)
    interf_flat = _philox_words(seed, 1, 4 * 40)
    for i in (0, 1, 7, 39):
        ts = trial_stream(seed, i, m)
        lo = ticks * 4 * i
        assert np.array_equal(ts.herald, herald_flat[lo:lo + 2 * m])
        assert np.array_equal(ts.interference, interf_flat[4 * i:4 * i + 4])


def test_trial_stream_offset_selects_streams():
    seed, m = 5, 2
    herald_flat = _philox_words(seed, 6, 4 * 10)  # 2m=4 words = 1 tick per trial
    interf_flat = _philox_words(seed, 7, 4 * 10)
    ts = trial_stream(seed, 3, m, stream_offset=6)
    assert np.array_equal(ts.herald, herald_flat[12:16])
    assert np.array_equal(ts.interference, interf_flat[12:16])


def test_trial_stream_validation():
    with pytest.raises(ParamError):
        trial_stream(-1, 0, 3)
    with pytest.raises(ParamError):
        trial_stream(0, -1, 3)


def test_outcome_invariant():
    with pytest.raises(ValueError):
        TrialOutcome(eg_mode_ab1=None, eg_mode_b2c=None, routed_mode=None,
                     es_click=True, ev1_click=False, ev2_click=False,
                     a_click=False, c_click=False, t1_us=0.0, t2_us=2.0,
                     theta=0.0)


def test_run_trial_chi_zero(defaults):
    p = with_overrides(defaults, chi=0.0)
    out = run_trial(p, trial_stream(0, 0, p.m_modes), 0.0)
    assert out.eg_mode_ab1 is None
    assert out.eg_mode_b2c is None
    assert out.routed_mode is None
    assert not out.es_click and not out.ev1_click
    assert not out.a_click and not out.c_click


def test_run_trial_forced_paths(boosted):
    m = boosted.m_modes
    tables = conditional_tables(boosted, (0.0,))

    def play(herald, interference):
        ts = TrialStream(herald=np.array(herald), interference=np.array(interference))
        return run_trial(boosted, ts, 0.0, tables=tables)

    # all mode draws below p1: both links herald on their first mode
    sure = [0.0] * (2 * m)
    out = play(sure, [0.0, 0.5, 0.5, 0.0])
    assert out.eg_mode_ab1 == 1 and out.eg_mode_b2c == 1
    assert out.routed_mode == 1
    assert out.es_click  # u_swap = 0 < p_swap1
    out2 = play(sure, [0.999999, 0.5, 0.5, 0.0])
    assert not out2.es_click and not out2.ev1_click

    # link 1 heralds mode 1 only, link 2 mode 3 only: no common index
    herald = [0.0, 1.0, 1.0, 1.0, 1.0, 0.0]
    out3 = play(herald, [0.0, 0.5, 0.5, 0.0])
    assert out3.eg_mode_ab1 == 1 and out3.eg_mode_b2c == 3
    assert out3.routed_mode is None
    assert not out3.es_click


def test_run_trial_lowest_common_mode(boosted):
    m = boosted.m_modes
    tables = conditional_tables(boosted, (0.0,))
    # link 1 heralds modes 2,3; link 2 heralds modes 1,2 -> routed mode 2
    herald = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    ts = TrialStream(herald=herald, interference=np.array([0.9, 0.5, 0.5, 0.0]))
    out = run_trial(boosted, ts, 0.0, tables=tables)
    assert out.eg_mode_ab1 == 2
    assert out.eg_mode_b2c == 1
    assert out.routed_mode == 2


# (m, overrides): m from one 4-byte lane per link (m=1) to a herald block
# spanning 20 ticks (m=40), and m=200, whose chunks are capped at the
# CHUNK_TRIALS * 8-word herald block (2 trials at CHUNK_TRIALS = 137); then
# the cutoff-abort and chi=0 paths
SCALAR_CASES = {
    "m1": (1, {}),
    "m3": (3, {}),
    "m12": (12, {}),
    "m32": (32, {}),
    "m40": (40, {}),
    "m200": (200, {}),
    "cutoff-abort": (3, dict(t1_us=0.0, t2_us=50.0, cutoff_us=30.0)),
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

    # chi=0 never routes a trial, and the heralded engine state is undefined there
    tables = conditional_tables(params, tuple(grid)) if params.chi > 0 else None
    counters = dict(n_aborted=0, n_eg_ab1=0, n_eg_b2c=0, n_eg=0, n_routed=0,
                    n_es=0, fourfold=0)
    counting = np.zeros(4, dtype=int)
    ff_by_theta = np.zeros(len(grid), dtype=int)
    for i in range(n):
        theta = grid[i % len(grid)]
        out = run_trial(params, trial_stream(17, i, m), theta, tables=tables)
        counters["n_aborted"] += out.cutoff_aborted
        counters["n_eg_ab1"] += out.eg_mode_ab1 is not None
        counters["n_eg_b2c"] += out.eg_mode_b2c is not None
        counters["n_eg"] += (out.eg_mode_ab1 is not None
                             and out.eg_mode_b2c is not None)
        counters["n_routed"] += out.routed_mode is not None
        counters["n_es"] += out.es_click
        if out.es_click:
            counting[JOINT_ORDER.index((out.a_click, out.c_click))] += 1
            if out.ev1_click:
                counters["fourfold"] += 1
                ff_by_theta[i % len(grid)] += 1

    for key, want in counters.items():
        assert getattr(batch, key) == want, key
    assert np.array_equal(batch.counting_counts, counting)
    assert np.array_equal(batch.fourfold_by_theta, ff_by_theta)
    assert np.array_equal(batch.n_by_theta, np.bincount(np.arange(n) % len(grid)))
    if "cutoff_us" in overrides:
        assert batch.n_aborted == n and batch.n_eg_ab1 > 0
    elif params.chi == 0:
        assert batch.n_eg_ab1 == batch.n_eg_b2c == 0
    else:
        assert batch.n_es > 0  # the swap-click path was exercised


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
    # u < p decided on the raw word must agree with the double
    # Generator.random() makes of it, (w >> 11) * 2**-53, at the boundaries
    ks = {1, 2, 2 ** 52, 2 ** 53 - 1, 2 ** 53}
    if 0.0 < p < 1.0:
        ks.add(math.ceil(p * 2.0 ** 53))
    words = set()
    for k in ks:
        words.update(((k << 11) - 1, k << 11, ((k - 1) << 11) | 0x7FF,
                      (k << 11) + 1))
    words = sorted(w for w in words if 0 <= w < 2 ** 64)
    got = protocol._below(np.array(words, dtype=np.uint64), p)
    want = [(w >> 11) * 2.0 ** -53 < p for w in words]
    assert got.tolist() == want


def test_raw_words_convert_like_generator():
    raw = np.random.Philox(key=[91, 4]).random_raw(4096)
    doubles = np.random.Generator(np.random.Philox(key=[91, 4])).random(4096)
    assert np.array_equal(protocol._uniforms(raw), doubles)
    for p in (0.08, 0.33788659793814435, 0.9):
        assert np.array_equal(protocol._below(raw, p), doubles < p)


PHILOX_KEYS = [(seed, stream) for seed in (0, 20260818, 2 ** 63 + 1, 2 ** 64 - 1)
               for stream in (0, 2 ** 64 - 1)]


@pytest.mark.parametrize("seed, stream", PHILOX_KEYS)
def test_philox_ticks_match_random_raw(seed, stream):
    # the counter kernel gives numpy's own words for any tick, across chunk
    # boundaries and for keys with the top bit set
    n_ticks = 1_000_000
    ticks = np.concatenate([[0, 1, 16383, 16384],
                            np.random.default_rng(seed % 997).integers(0, n_ticks, 300)])
    raw = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)).random_raw(
        4 * n_ticks).reshape(n_ticks, 4)
    assert np.array_equal(protocol._philox_ticks(seed, stream, ticks), raw[ticks])


def test_run_batch_builds_only_the_herald_generator(defaults, monkeypatch):
    # the interference words of routed trials come from their counters, so
    # the only Philox generator a batch builds is the herald stream's
    keys = []
    philox = np.random.Philox

    def recording(*args, **kwargs):
        keys.append(tuple(int(k) for k in kwargs["key"]))
        return philox(*args, **kwargs)

    monkeypatch.setattr(protocol.np.random, "Philox", recording)
    batch = run_batch(defaults, 100_000, seed=11, stream_offset=4)
    assert batch.n_routed > 0
    assert keys == [(11, 4)]


def test_herald_draws_stay_within_the_1mb_block(defaults, monkeypatch):
    # no chunk draws more than CHUNK_TRIALS * 8 herald words, a 1 MB block,
    # so the herald block does not grow with the mode count
    requests = []
    philox = np.random.Philox

    class Recording:
        def __init__(self, *args, **kwargs):
            self.generator = philox(*args, **kwargs)

        def random_raw(self, size):
            requests.append(size)
            return self.generator.random_raw(size)

    monkeypatch.setattr(protocol.np.random, "Philox", Recording)
    for m in (3, 32, 200):
        run_batch(with_overrides(defaults, m_modes=m), 40_000, seed=3)
    assert max(requests) == protocol.CHUNK_TRIALS * 8  # reached at m = 3 and 32


def _column_flags(hits, m):
    # the per-mode reference: link A in columns [0, m), link B in [m, 2m)
    a, b = hits[:, :m], hits[:, m:2 * m]
    return a.any(axis=1), b.any(axis=1), (a & b).any(axis=1)


HERALD_MODES = list(range(1, 41)) + [200]


@pytest.mark.parametrize("density", (0.0, 0.01, 0.08, 0.5, 1.0))
def test_herald_flags_match_column_loop(density):
    # the machine-word reduction gives the per-mode flags, for 4-byte lanes
    # (m = 1, 2, 5, 6, ...) and 8-byte ones, with the padding words of a
    # row's last tick set as often as the heralds
    rng = np.random.default_rng(round(density * 100))
    widths = set()
    for m in HERALD_MODES:
        words = 4 * -(-2 * m // 4)
        widths.add(words % 8)
        hits = rng.random((300, words)) < density
        got = protocol._herald_flags(hits, m)
        for flag, want in zip(got, _column_flags(hits, m)):
            assert np.array_equal(flag, want), (m, density)
    assert widths == {0, 4}


# run_batch counters at chi=0.1, eta=0.8, 100 000 trials, seed 20260818, as
# the per-mode column loop gave them: m = 3 runs full chunks, and m = 32
# and 40 the shortest chunks of the largest herald rows
FULL_CHUNK_PINS = {
    3: dict(n_eg_ab1=22097, n_eg_b2c=22064, n_eg=4941, n_routed=1925, n_es=640,
            fourfold=177, counting_counts=[54, 139, 141, 306],
            fourfold_by_theta=[6, 11, 10, 14, 8, 9, 9, 13, 8, 7, 6, 10, 16, 16, 16, 18]),
    32: dict(n_eg_ab1=92909, n_eg_b2c=92971, n_eg=86363, n_routed=18621, n_es=6199,
             fourfold=1722, counting_counts=[498, 1397, 1304, 3000],
             fourfold_by_theta=[138, 123, 137, 113, 107, 95, 99, 83, 70, 65, 84, 87,
                                114, 128, 127, 152]),
    40: dict(n_eg_ab1=96413, n_eg_b2c=96353, n_eg=92911, n_routed=22557, n_es=7389,
             fourfold=2108, counting_counts=[585, 1536, 1581, 3687],
             fourfold_by_theta=[175, 200, 167, 130, 117, 106, 113, 96, 90, 91, 109, 118,
                                137, 124, 164, 171]),
}


@pytest.mark.parametrize("m", FULL_CHUNK_PINS)
def test_full_chunk_counts_pinned(boosted, m):
    batch = run_batch(with_overrides(boosted, m_modes=m), 100_000, seed=20260818)
    assert batch.n_aborted == 0
    for key, want in FULL_CHUNK_PINS[m].items():
        assert np.array_equal(getattr(batch, key), want), key


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


def test_cutoff_none_equals_disabled(boosted):
    a = run_batch(with_overrides(boosted, cutoff_us=None), 20_000, seed=2)
    b = run_batch(with_overrides(boosted, cutoff_us=1e9), 20_000, seed=2)
    da, db = a.as_dict(), b.as_dict()
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_cutoff_aborts_everything(boosted):
    p = with_overrides(boosted, t1_us=0.0, t2_us=50.0, cutoff_us=30.0)
    batch = run_batch(p, 5_000, seed=2)
    assert batch.n_aborted == batch.n_trials
    assert batch.n_routed == 0 and batch.n_es == 0
    assert batch.insufficient
    # heralds still happen (generation precedes storage), the swap does not
    out = run_trial(p, trial_stream(2, 0, p.m_modes), 0.0)
    assert out.cutoff_aborted
    assert out.routed_mode is None
    assert not out.es_click
    # accepted_rate counts the surviving fraction
    assert batch.accepted_rate == 0.0


def test_variance_scaling(boosted):
    # doubling the sample roughly halves the squared standard errors
    small = run_batch(boosted, 150_000, seed=77)
    big = run_batch(boosted, 300_000, seed=78)
    for a, b in ((small.p_es_se, big.p_es_se), (small.p11_se, big.p11_se)):
        ratio = (b / a) ** 2
        assert 0.4 < ratio < 0.6


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


def test_sweep_validation(boosted):
    with pytest.raises(ParamError):
        sweep(boosted, "t2", [8.0, 2.0], 100)  # unsorted
    with pytest.raises(ParamError):
        sweep(boosted, "zeta", [1.0], 100)
    with pytest.raises(ParamError):
        sweep(boosted, "m", [1.5], 100)
    with pytest.raises(ParamError):
        sweep(boosted, "t2", [1.0], 100)  # below the fixed readout spacing


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
    # not numpy's zero-size reduction error
    with pytest.raises(ParamError, match="theta grid"):
        conditional_tables(boosted, ())


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
    for stream in (trial_stream(2 ** 63 + 1, 0, 3), trial_stream(2 ** 64 - 1, 0, 3)):
        assert not np.array_equal(stream.herald, trial_stream(0, 0, 3).herald)
