"""Event-level Monte-Carlo simulation of the multiplexed swap protocol.

Each trial plays one repetition of the experiment: write pulses drive all
m mode pairs of both links, heralding detectors fire per mode, the switch
network routes the lowest common heralded index to the swap station, and the
swap/verification clicks are sampled from the conditional distributions the
Fock engine computes for the surviving quadruple.  Interference-bearing
stages are never sampled classically; only multiplexing and routing are.

Each mode pair of a link heralds independently with the single-mode
probability p1, and a trial's herald stage reaches the outputs only through
three flags: link A heralded, link B heralded, and some index heralded in
both (the switch then routes the lowest such index).  With
eg = 1 - (1 - p1)^m and P_c = 1 - (1 - p1^2)^m those flags fall into five
categories (Sangouard et al., RMP 83, 33 (2011), section IV):

  common index                      P_c
  both links, no common index       eg^2 - P_c
  link A only                       eg - eg^2
  link B only                       eg - eg^2
  none                              (1 - eg)^2

so one uniform per trial picks its category against the cumulative bounds
[P_c, eg^2, eg, 1 - (1 - eg)^2] (_herald_bounds), whatever m is.

Randomness comes from two Philox4x64-10 streams per batch, each read in
order with np.random.Philox(key=...).random_raw:

  herald stream        key (seed, stream_offset):   word i picks trial i's
                       herald category.
  interference stream  key (seed, stream_offset+1): words 3j, 3j+1, 3j+2
                       are [u_swap, u_fringe, u_counting] of the j-th trial
                       routed to the swap.

Routed trials are found in trial order whatever the chunking, so a batch
gives bit-identical outcomes for any CHUNK_TRIALS, and the same seed gives
the same outcomes under one numpy version.

Each uniform is the double Generator.random() makes of one 64-bit Philox
word w, u = (w >> 11) * 2**-53, which is exact; run_batch decides u < p on
it directly.  Only the fringe and counting words of swap-click trials are
converted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import analytic, fock
from .fock import JOINT_ORDER  # fixed order of joint two-detector outcomes
from .params import ExperimentParams, ParamError, at_t2, with_overrides
from .series import CurveSeries

__all__ = [
    "ConditionalTables",
    "SwapStatistics",
    "JOINT_ORDER",
    "CHUNK_TRIALS",
    "conditional_tables",
    "run_batch",
    "sweep",
    "SWEEP_AXES",
    "SWEEP_OBSERVABLES",
]

# Trials vectorized per chunk.  A chunk draws one herald word per trial, a
# 128 KB block for any m; routed trials draw three interference words each,
# in blocks of at most CHUNK_TRIALS.  Neither stream's layout depends on the
# chunking (module docstring).
CHUNK_TRIALS = 16_384

def _uniforms(words: np.ndarray) -> np.ndarray:
    """The doubles Generator.random() makes of raw Philox words: the top 53
    bits of each word times 2**-53, exact."""
    return (words >> np.uint64(11)) * 2.0 ** -53


def _check_int(value, name: str, lo: int = 0, stop: float = 2 ** 64) -> int:
    """value as an int in [lo, stop); bools and non-integers are a
    ParamError, not 1/0 or numpy's TypeError."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not lo <= int(value) < stop):
        raise ParamError(f"{name} must be an integer in [{lo}, {stop}), got {value!r}")
    return int(value)


def _herald_bounds(params: ExperimentParams) -> np.ndarray:
    """Cumulative probabilities of the herald categories [common index, both
    links without one, link A only, link B only]; the rest is none.  Clamped
    monotone, since at m = 1 P_c and eg**2 agree only to an ulp."""
    eg = analytic.multiplexed_eg_probability(params).exact
    p_c = analytic.swap_pair_probability(params)
    return np.maximum.accumulate([p_c, eg * eg, eg, 1.0 - (1.0 - eg) ** 2])


@dataclass(frozen=True, eq=False)
class ConditionalTables:
    """Engine-computed click distributions for the heralded quadruple.

    p_swap1 is the designated swap-detector click probability given routing;
    fringe_cdf[j] and counting_cdf are cumulative joint distributions over
    JOINT_ORDER, conditioned on that click.  report is the engine's
    SwapReport they were read from.  == is identity.
    """

    p_swap1: float
    thetas: tuple
    fringe_cdf: np.ndarray   # (n_theta, 4)
    counting_cdf: np.ndarray  # (4,)
    report: fock.SwapReport = field(repr=False)


def _joint_cdf(joint: np.ndarray) -> np.ndarray:
    """Cumulative distributions along the last axis (JOINT_ORDER) of joint,
    negative rounding clipped to 0 and each row renormalized."""
    probs = np.maximum(joint, 0.0)
    total = probs.sum(axis=-1, keepdims=True)
    if not np.all(np.abs(total - 1.0) <= 1e-6):
        raise RuntimeError(f"conditional joint not normalized: sums={total.ravel()!r}")
    cdf = np.cumsum(probs / total, axis=-1)
    cdf[..., -1] = 1.0
    return cdf


@lru_cache(maxsize=16)
def _tables_cached(params: ExperimentParams, thetas: tuple) -> ConditionalTables:
    # one swap_pipeline, so only fock knows how the t2 readout is set up
    report = fock.swap_pipeline(params, thetas)
    return ConditionalTables(
        p_swap1=report.p_es1,
        thetas=thetas,
        fringe_cdf=_joint_cdf(report.fringe_joint),
        counting_cdf=_joint_cdf(report.counting_joint),
        report=report,
    )


def conditional_tables(params: ExperimentParams,
                       thetas: Sequence[float]) -> ConditionalTables:
    """Build (or fetch cached) conditional click tables for a theta grid."""
    return _tables_cached(params, tuple(float(t) for t in thetas))


@dataclass(frozen=True, eq=False)
class SwapStatistics:
    """Accumulated counts and derived estimates of one batch.

    Counters: n_eg_ab1 / n_eg_b2c count trials where the link heralded in
    any mode; n_eg needs both links (any indices); n_routed needs a common
    index; fourfold = swap click and verification detector 1 click, the
    coincidence the multiplexing figure counts.

    The counting arm gives p11/p10/p01/p00 conditioned on the swap click,
    h = p11/(p10*p01), p_c = p10+p01.  The fringe arm gives the visibility
    from a weighted least-squares fit of rate = A + B*cos(theta), reported
    as (max-min)/(max+min) of the fit, i.e. |B|/A.  Standard errors are
    binomial for counts, delta-method for derived quantities; the fringe
    and counting arms use independent uniforms, so their errors combine
    without covariance.  Concurrence uses the approximate estimator
    p_c*(V - sqrt(h)); concurrence_raw keeps the unclamped value so zero
    crossings stay visible.  == is identity: field-wise == on arrays raises.
    """

    n_trials: int
    n_eg_ab1: int
    n_eg_b2c: int
    n_eg: int
    n_routed: int
    n_es: int
    fourfold: int
    thetas: tuple
    n_by_theta: np.ndarray          # trials assigned each theta
    fourfold_by_theta: np.ndarray   # swap & verification-1 clicks
    counting_counts: np.ndarray     # (4,) over JOINT_ORDER, swap-click trials
    p_es: float
    p_es_se: float
    p11: float
    p11_se: float
    p10: float
    p10_se: float
    p01: float
    p01_se: float
    p00: float
    p00_se: float
    p_c: float
    p_c_se: float
    h: float
    h_se: float
    v: float
    v_se: float
    fit_offset: float
    fit_amplitude: float
    concurrence: float
    concurrence_raw: float
    concurrence_se: float
    insufficient: bool
    flags: tuple
    seed: int
    stream_offset: int

    def as_dict(self) -> dict:
        out = {}
        for name in self.__dataclass_fields__:
            val = getattr(self, name)
            if isinstance(val, np.ndarray):
                val = val.tolist()
            elif isinstance(val, tuple):
                val = list(val)
            out[name] = val
        return out


def _binom_se(k: int, n: int) -> float:
    if n <= 0:
        return float("nan")
    p = k / n
    return math.sqrt(p * (1.0 - p) / n)


def _multinomial_cov(p: np.ndarray, n: int) -> np.ndarray:
    cov = -np.outer(p, p)
    np.fill_diagonal(cov, p * (1.0 - p))
    return cov / n


def _fringe_fit(thetas: np.ndarray, k: np.ndarray, n: np.ndarray):
    """WLS fit of k/n = A + B cos(theta); returns (A, B, cov, flags)."""
    flags = []
    good = n > 0
    th, kk, nn = thetas[good], k[good], n[good]
    cos = np.cos(th)
    if th.size < 2 or not cos.min() < cos.max():
        return float("nan"), float("nan"), None, ["fringe-underdetermined"]
    r = kk / nn
    # variance smoothing keeps zero-count bins from getting infinite weight
    p_s = (kk + 0.5) / (nn + 1.0)
    w = nn / (p_s * (1.0 - p_s))
    x = np.column_stack([np.ones_like(th), cos])
    xtw = x.T * w
    try:
        cov = np.linalg.inv(xtw @ x)
    except np.linalg.LinAlgError:
        return float("nan"), float("nan"), None, ["fringe-singular"]
    a, b = cov @ (xtw @ r)
    return float(a), float(b), cov, flags


def run_batch(params: ExperimentParams, n_trials: int,
              theta_grid: Optional[Sequence[float]] = None, seed: int = 0,
              stream_offset: int = 0) -> SwapStatistics:
    """Run n_trials repetitions and accumulate SwapStatistics.

    Trial i is assigned theta_grid[i mod len(theta_grid)] and reads word i
    of the herald stream; the j-th routed trial reads words 3j..3j+2 of the
    interference stream (module docstring).  Neither depends on
    CHUNK_TRIALS, so the outcomes are bit-identical for any chunking.

    Per chunk of CHUNK_TRIALS trials, each trial's herald uniform is compared
    against the cumulative bounds of the herald categories (_herald_bounds):
    counting the uniforms below each bound gives the herald counters, and
    flatnonzero the routed trials.  The routed trials then draw their
    interference words in blocks of at most CHUNK_TRIALS; only swap-click
    trials turn their fringe and counting words into uniforms for the table
    lookup.
    """
    n_trials = _check_int(n_trials, "n_trials", 1, math.inf)
    seed = _check_int(seed, "seed")
    # the interference key word is stream_offset + 1, so it too must fit 64 bits
    stream_offset = _check_int(stream_offset, "stream_offset", 0, 2 ** 64 - 1)
    # the engine rejects an empty or non-finite grid
    tables = conditional_tables(
        params, fock.default_theta_grid() if theta_grid is None else theta_grid)
    thetas = tables.thetas
    n_th = len(thetas)
    counters = dict(n_eg_ab1=0, n_eg_b2c=0, n_eg=0, n_routed=0, n_es=0,
                    fourfold=0)
    q, r = divmod(n_trials, n_th)
    n_by_theta = np.full(n_th, q, dtype=np.int64)
    n_by_theta[:r] += 1
    ff_by_theta = np.zeros(n_th, dtype=np.int64)
    counting_counts = np.zeros(4, dtype=np.int64)
    fringe_cut = tables.fringe_cdf[:, :3]  # outcome = #boundaries <= u
    counting_cut = tables.counting_cdf[:3]

    # Both streams are read in order: one herald word per trial, then three
    # interference words per routed trial.
    p_common, p_both, p_a, p_any = _herald_bounds(params)
    herald_gen = np.random.Philox(key=np.array([seed, stream_offset], dtype=np.uint64))
    routed_chunks = []
    for lo in range(0, n_trials, CHUNK_TRIALS):
        u = _uniforms(herald_gen.random_raw(min(CHUNK_TRIALS, n_trials - lo)))
        routed_chunks.append(lo + np.flatnonzero(u < p_common))
        n_both = int(np.count_nonzero(u < p_both))
        n_a = int(np.count_nonzero(u < p_a))
        counters["n_eg"] += n_both
        counters["n_eg_ab1"] += n_a
        counters["n_eg_b2c"] += n_both + int(np.count_nonzero(u < p_any)) - n_a
    routed_all = np.concatenate(routed_chunks)
    counters["n_routed"] = routed_all.size

    interference_gen = np.random.Philox(
        key=np.array([seed, stream_offset + 1], dtype=np.uint64))
    for start in range(0, routed_all.size, CHUNK_TRIALS):
        routed = routed_all[start:start + CHUNK_TRIALS]
        ui = interference_gen.random_raw(3 * routed.size).reshape(-1, 3)
        swap = _uniforms(ui[:, 0]) < tables.p_swap1
        sel, ui = routed[swap], ui[swap]
        counters["n_es"] += sel.size

        th_idx = sel % n_th
        k_ev = (_uniforms(ui[:, 1])[:, None] >= fringe_cut[th_idx]).sum(axis=1)
        ev1 = k_ev < 2  # JOINT_ORDER: first two outcomes click detector 1
        counters["fourfold"] += int(np.count_nonzero(ev1))
        ff_by_theta += np.bincount(th_idx[ev1], minlength=n_th)
        k_c = (_uniforms(ui[:, 2])[:, None] >= counting_cut).sum(axis=1)
        counting_counts += np.bincount(k_c, minlength=4)

    return _assemble(params, n_trials, counters, thetas, n_by_theta,
                     ff_by_theta, counting_counts, seed, stream_offset)


def _assemble(params, n_trials, counters, thetas, n_by_theta, ff_by_theta,
              counting_counts, seed, stream_offset) -> SwapStatistics:
    flags = []
    n_es = counters["n_es"]
    n_routed = counters["n_routed"]

    p_es = n_es / n_routed if n_routed else float("nan")
    p_es_se = _binom_se(n_es, n_routed)

    # no swap click: a NaN joint and covariance, which every formula below
    # carries through to NaN
    if n_es > 0:
        pj = counting_counts / n_es
        cov_c = _multinomial_cov(pj, n_es)
    else:
        pj = np.full(4, float("nan"))
        cov_c = np.full((4, 4), float("nan"))
        flags.append("no-swap-clicks")
    se_j = np.sqrt(np.clip(np.diag(cov_c), 0.0, None))
    p11, p10, p01, p00 = pj

    p_c = p10 + p01
    g_pc = np.array([0.0, 1.0, 1.0, 0.0])
    p_c_se = math.sqrt(max(g_pc @ cov_c @ g_pc, 0.0))

    if p10 > 0 and p01 > 0:
        h = p11 / (p10 * p01)
        g_h = np.array([1.0 / (p10 * p01), -h / p10, -h / p01, 0.0])
        h_se = math.sqrt(max(g_h @ cov_c @ g_h, 0.0))
    else:
        h = float("nan")
        h_se = float("nan")
        if n_es > 0:
            flags.append("h-zero-denominator")

    a, b, cov_fit, fit_flags = _fringe_fit(np.array(thetas), ff_by_theta.astype(float),
                                           n_by_theta.astype(float))
    flags.extend(fit_flags)
    if cov_fit is not None and a > 0:
        v = abs(b) / a
        sgn = 1.0 if b >= 0 else -1.0
        g_v = np.array([-abs(b) / a ** 2, sgn / a])
        v_se = math.sqrt(max(g_v @ cov_fit @ g_v, 0.0))
    else:
        v = float("nan")
        v_se = float("nan")
        if cov_fit is not None:
            flags.append("fringe-offset-nonpositive")

    # C = p_c*(V - sqrt(h)); fringe and counting arms are independent
    if not (math.isnan(v) or math.isnan(h)):
        c_raw = analytic.concurrence(p_c, v, h)
        root_h = math.sqrt(h)
        if h > 0:
            g = np.array([
                -p_c / (2.0 * root_h) / (p10 * p01),
                (v - root_h) + p_c * root_h / (2.0 * p10),
                (v - root_h) + p_c * root_h / (2.0 * p01),
                0.0,
            ])
        else:
            g = np.array([0.0, v, v, 0.0])
            flags.append("h-zero-gradient")
        c_se = math.sqrt((p_c * v_se) ** 2 + max(g @ cov_c @ g, 0.0))
    else:
        c_raw = float("nan")
        c_se = float("nan")

    insufficient = (n_es < 100 or math.isnan(h) or math.isnan(v))
    if insufficient and "insufficient-statistics" not in flags:
        flags.append("insufficient-statistics")

    return SwapStatistics(
        n_trials=n_trials,
        n_eg_ab1=counters["n_eg_ab1"],
        n_eg_b2c=counters["n_eg_b2c"],
        n_eg=counters["n_eg"],
        n_routed=n_routed,
        n_es=n_es,
        fourfold=counters["fourfold"],
        thetas=thetas,
        n_by_theta=n_by_theta,
        fourfold_by_theta=ff_by_theta,
        counting_counts=counting_counts,
        p_es=p_es, p_es_se=p_es_se,
        p11=float(p11), p11_se=float(se_j[0]),
        p10=float(p10), p10_se=float(se_j[1]),
        p01=float(p01), p01_se=float(se_j[2]),
        p00=float(p00), p00_se=float(se_j[3]),
        p_c=float(p_c), p_c_se=p_c_se,
        h=h, h_se=h_se,
        v=v, v_se=v_se,
        fit_offset=a, fit_amplitude=b,
        concurrence=max(0.0, c_raw) if not math.isnan(c_raw) else float("nan"),
        concurrence_raw=c_raw,
        concurrence_se=c_se,
        insufficient=insufficient,
        flags=tuple(flags),
        seed=seed,
        stream_offset=stream_offset,
    )


SWEEP_AXES = ("t2", "m", "chi", "theta")

# (value, sigma) of each sweep observable, read from a batch's statistics
_OBSERVABLES = {
    "concurrence": lambda s: (s.concurrence_raw, s.concurrence_se),
    "concurrence_clamped": lambda s: (s.concurrence, s.concurrence_se),
    "visibility": lambda s: (s.v, s.v_se),
    "suppression": lambda s: (s.h, s.h_se),
    "p11": lambda s: (s.p11, s.p11_se),
    "p_c": lambda s: (s.p_c, s.p_c_se),
    "fourfold": lambda s: (s.fourfold / s.n_trials, _binom_se(s.fourfold, s.n_trials)),
    "es_rate": lambda s: (s.n_es / s.n_trials, _binom_se(s.n_es, s.n_trials)),
    "eg_rate": lambda s: (s.n_eg_ab1 / s.n_trials, _binom_se(s.n_eg_ab1, s.n_trials)),
}

SWEEP_OBSERVABLES = tuple(_OBSERVABLES)


def _point_params(params: ExperimentParams, axis: str, value: float) -> ExperimentParams:
    if axis == "t2":
        dt = params.delta_t_us
        if value < dt:
            raise ParamError(f"t2={value} leaves t1 negative at fixed spacing {dt}")
        return at_t2(params, value)
    if axis == "m":
        iv = int(value)
        if iv != value or iv < 1:
            raise ParamError(f"mode count must be a positive integer, got {value}")
        return with_overrides(params, m_modes=iv)
    if axis == "chi":
        return with_overrides(params, chi=value)
    if axis == "theta":
        return params
    raise ParamError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")


def sweep(params: ExperimentParams, axis: str, values: Sequence[float],
          n_trials: int, theta_grid: Optional[Sequence[float]] = None,
          seed: int = 0, observable: Optional[str] = None,
          name: Optional[str] = None) -> CurveSeries:
    """One run_batch per value, emitted as CurveSeries rows (x, y, sigma).

    t2 sweeps keep the readout spacing fixed (t1 = t2 - delta_t).  Each
    point uses its own pair of streams, offset 2*i, so single points can be
    reproduced in isolation.  theta sweeps run each value as a one-point
    fringe and report the fourfold coincidence rate, their only observable;
    on the other axes observable=None is the concurrence.
    """
    vals = [float(v) for v in values]
    if list(vals) != sorted(vals):
        raise ParamError("sweep values must be sorted ascending")
    if observable is None:
        observable = "fourfold" if axis == "theta" else "concurrence"
    choices = ("fourfold",) if axis == "theta" else SWEEP_OBSERVABLES
    if observable not in choices:
        raise ParamError(f"observable {observable!r} on the {axis} axis; choose from {choices}")

    rows = []
    for i, value in enumerate(vals):
        p_i = _point_params(params, axis, value)
        grid_i = [value] if axis == "theta" else theta_grid
        stats = run_batch(p_i, n_trials, theta_grid=grid_i, seed=seed,
                          stream_offset=2 * i)
        rows.append((value, *_OBSERVABLES[observable](stats)))

    return CurveSeries(
        name=name or f"{observable}_vs_{axis}",
        columns=(axis, observable, "sigma"),
        rows=tuple(rows),
        metadata={
            "params": params.as_dict(),
            "provenance": params.provenance_dict(),
            "axis": axis,
            "observable": observable,
            "n_trials": n_trials,
            "seed": seed,
            "theta_grid": [float(t) for t in theta_grid] if theta_grid is not None else None,
            "source": "monte-carlo",
        },
    )
