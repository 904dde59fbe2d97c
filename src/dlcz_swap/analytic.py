"""Closed-form model of the memory-assisted swap experiment.

Retrieval decay, the anti-Stokes detection probability, the
signal-to-noise cross-correlation g, fringe visibility, the two-photon
suppression parameter h, the detected concurrence bound and the margin
V - sqrt(h) built from them, the g-threshold and the storage time where that
margin reaches zero, and the multiplexed generation rate.  The two roots are
solved by a small bisection, so importing the package does not pull in
scipy.optimize.

Everything here is scalar math on ExperimentParams; the density-matrix engine
(fock.py) validates these forms, and the Monte Carlo layer (protocol.py)
samples from engine distributions and is compared back against both.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .params import ExperimentParams, ParamError, at_t2

__all__ = [
    "CorrelationPair",
    "MultiplexedRate",
    "retrieval_efficiency",
    "prob_antistokes",
    "cross_correlation",
    "correlation_pair",
    "visibility",
    "suppression",
    "concurrence",
    "coincidence_probability",
    "margin",
    "threshold_g",
    "zero_crossing_t2",
    "single_mode_herald_probability",
    "multiplexed_eg_probability",
    "swap_pair_probability",
]


@dataclass(frozen=True)
class CorrelationPair:
    """Cross-correlations of the two readout stages of one swap attempt.

    g_b: swap-stage channels (read at t1, background z_b)
    g_ac: verification channels (read at t2, background z_ac)

    g = 1 is the uncorrelated limit: it is reached once the retrieved
    signal gamma(t) falls below 2**-53 of the noise floor, and every closed
    form takes it (the exact visibility is 0 there).
    """

    g_b: float
    g_ac: float

    def __post_init__(self):
        for name in ("g_b", "g_ac"):
            value = getattr(self, name)
            if not value >= 1.0:
                raise ParamError(f"{name}={value!r} violates: cross-correlation "
                                 f">= 1 (uncorrelated limit)")


@dataclass(frozen=True)
class MultiplexedRate:
    """Per-pair generation probability per trial with m modes."""

    exact: float      # 1 - (1 - p1)^m, to full precision


def retrieval_efficiency(t_us: float, params: ExperimentParams) -> float:
    """gamma(t) = gamma0 * exp(-t / tau0)."""
    if t_us < 0:
        raise ValueError("t_us must be >= 0")
    return params.gamma0 * math.exp(-t_us / params.tau0_us)


def _leakage(gamma_t: float, params: ExperimentParams) -> float:
    """leak(t) = chi*(1-gamma(t))*xi_se*f_cav: spontaneous emission of the
    unretrieved excitations that reaches a readout channel per read pulse,
    before detection."""
    return params.chi * (1.0 - gamma_t) * params.xi_se * params.f_cav


def prob_antistokes(t_us: float, z: float, params: ExperimentParams) -> float:
    """Detected anti-Stokes probability per read pulse.

    Retrieved signal + leaked spontaneous emission + background, all times
    detection efficiency: chi*gamma(t)*eta + leak(t)*eta + z*eta
    """
    gamma_t = retrieval_efficiency(t_us, params)
    return (
        params.chi * gamma_t * params.eta
        + _leakage(gamma_t, params) * params.eta
        + z * params.eta
    )


def noise_floor(t_us: float, z: float, params: ExperimentParams) -> float:
    """Uncorrelated photon probability per readout channel (before detection).

    This is prob_antistokes without the eta factor; the engine injects it as
    incoherent channel noise.
    """
    gamma_t = retrieval_efficiency(t_us, params)
    return params.chi * gamma_t + _leakage(gamma_t, params) + z


def cross_correlation(t_us: float, z: float, params: ExperimentParams) -> float:
    """Signal/noise cross-correlation of one memory readout.

    g = 1 + gamma(t) / (chi*gamma(t) + z + leak(t))

    Detection efficiency cancels.  Returns math.inf in the noiseless limit
    (chi = 0 and z = 0 would zero the denominator); callers must use
    infinity-aware paths there.
    """
    gamma_t = retrieval_efficiency(t_us, params)
    denom = noise_floor(t_us, z, params)
    if denom == 0.0:
        return math.inf
    return 1.0 + gamma_t / denom


def correlation_pair(params: ExperimentParams) -> CorrelationPair:
    """g at the two readout stages: (t1, z_b) and (t2, z_ac)."""
    return CorrelationPair(
        g_b=cross_correlation(params.t1_us, params.z_b, params),
        g_ac=cross_correlation(params.t2_us, params.z_ac, params),
    )


def visibility(corr: CorrelationPair, form: str = "approx", clamp: bool = True) -> float:
    """Fringe visibility of the verification interference.

    form="approx": V = 1 - 4/g_b - 4/g_ac   (can go negative at low g;
    clamped to 0 unless clamp=False)
    form="exact":  V = 1 / (1 + 4/(g_ac - 1) + 4/(g_b - 1)), which is 0
    when either g is 1 (the uncorrelated limit) and 1 when both are infinite
    """
    if form == "approx":
        v = 1.0 - 4.0 / corr.g_b - 4.0 / corr.g_ac
        return 0.0 if v < 0.0 and clamp else v
    if form == "exact":
        if corr.g_b == 1.0 or corr.g_ac == 1.0:
            return 0.0
        return 1.0 / (1.0 + 4.0 / (corr.g_ac - 1.0) + 4.0 / (corr.g_b - 1.0))
    raise ValueError(f"unknown visibility form {form!r}")


def suppression(corr: CorrelationPair) -> float:
    """Two-photon suppression parameter h = 8 * (1/g_b + 1/g_ac).

    The product form: h = 1 exactly at g_b = g_ac = 16, h -> 0 as both
    correlations diverge.
    """
    return 8.0 * (1.0 / corr.g_b + 1.0 / corr.g_ac)


def concurrence(p_c: float, v: float, h: float) -> float:
    """Detected concurrence bound C >= p_c * (V - sqrt(h)) (Chou et al.,
    Nature 438, 828 (2005)), from the conditional pair rate p_c = p10 + p01,
    the fringe visibility V and the suppression h.  Unclamped, so a zero
    crossing stays visible; a negative h is a ValueError."""
    return p_c * (v - math.sqrt(h))


def coincidence_probability(theta: float, params: ExperimentParams) -> float:
    """Closed-form coincidence fringe of the swap-then-verify sequence.

    P(theta) = eta*gamma(t1) * eta*gamma(t2) * (1 + cos theta)/2
               + 2*eta*gamma(t2) * P_aS(t1, z_b)
               + 2*eta*gamma(t1) * P_aS(t2, z_ac)

    Convention: the closed form sums its four initial-state branches
    unweighted, which is 4x the physical joint probability per heralded
    attempt.  The fringe shape and visibility are unaffected; the engine
    reports the same convention for direct comparison.
    """
    eta = params.eta
    g1 = retrieval_efficiency(params.t1_us, params)
    g2 = retrieval_efficiency(params.t2_us, params)
    signal = eta * g1 * eta * g2 * 0.5 * (1.0 + math.cos(theta))
    noise = (
        2.0 * eta * g2 * prob_antistokes(params.t1_us, params.z_b, params)
        + 2.0 * eta * g1 * prob_antistokes(params.t2_us, params.z_ac, params)
    )
    return signal + noise


def margin(corr: CorrelationPair, form: str = "approx") -> float:
    """V - sqrt(h), the sign-carrying part of the pairwise entanglement estimate.

    The concurrence bound is this margin scaled by the positive
    conditional pair rate p_c, so its zero crossing is the concurrence zero
    crossing.  The visibility is taken unclamped so the sign stays visible.
    """
    v = visibility(corr, form=form, clamp=False)
    return v - math.sqrt(suppression(corr))


def _bisect(fun, lo: float, hi: float, xtol: float) -> float:
    """Root of fun on [lo, hi] by bisection.

    The loop of scipy.optimize.bisect with its default rtol (4 eps) and
    maxiter (100), so roots come out bit for bit as scipy's would.
    """
    rtol = 4.0 * sys.float_info.epsilon
    flo, fhi = fun(lo), fun(hi)
    if flo * fhi > 0:
        raise ValueError(
            f"no sign change on bracket ({lo:g}, {hi:g}): f(lo)={flo:g}, f(hi)={fhi:g}"
        )
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    dm = hi - lo
    for _ in range(100):
        dm *= 0.5
        xm = lo + dm
        fm = fun(xm)
        if fm * flo >= 0:
            lo = xm
        if fm == 0 or abs(dm) < xtol + rtol * abs(xm):
            return xm
    raise RuntimeError(f"bisection did not converge to xtol={xtol:g} in 100 steps")


def threshold_g(form: str = "approx", fixed_g_b: float | None = None) -> float:
    """Cross-correlation at which the concurrence estimator reaches zero.

    Solves V - sqrt(h) = 0 by bisection on g in (8, 1e4) to 1e-10.  With
    fixed_g_b=None both correlations are set equal (symmetric threshold);
    otherwise g_b is held and the verification-stage g is solved for.

    The symmetric approx form has the closed solution g* = 16 + 8*sqrt(3).
    """
    if form not in ("approx", "exact"):
        raise ValueError(f"unknown threshold form {form!r}")
    if fixed_g_b is None:
        fun = lambda g: margin(CorrelationPair(g_b=g, g_ac=g), form)
    else:
        fun = lambda g: margin(CorrelationPair(g_b=fixed_g_b, g_ac=g), form)
    return _bisect(fun, 8.0 + 1e-9, 1e4, xtol=1e-10)


def zero_crossing_t2(params: ExperimentParams) -> float:
    """Storage time t2 (us) where the approximate margin changes sign.

    Both readouts move together at the fixed spacing (t1 = t2 - delta_t);
    the root is bracketed on [delta_t, 120] us and solved to 1e-10 us.
    """
    def fun(t2):
        return margin(correlation_pair(at_t2(params, t2)))

    return _bisect(fun, params.delta_t_us, 120.0, xtol=1e-10)


def single_mode_herald_probability(params: ExperimentParams) -> float:
    """Per-mode, per-trial probability of heralding one memory pair.

    One Stokes photon emitted by either ensemble of the link (chi each, into
    orthogonal polarizations of one fiber), routed to the heralding detector
    with probability 1/2, detected with eta: p1 = chi * eta.
    """
    return params.chi * params.eta


def _any_of(p: float, m: int) -> float:
    """1 - (1 - p)^m, the chance that some of m independent p-events happens,
    as -expm1(m log1p(-p)): the plain form loses digits to cancellation as p
    falls (P_c is off by 8.9e-5 relative at p1 = 5e-7).  p < 1, as chi < 1."""
    return -math.expm1(m * math.log1p(-p))


def multiplexed_eg_probability(params: ExperimentParams) -> MultiplexedRate:
    """Per-pair generation probability per trial across m modes."""
    return MultiplexedRate(
        exact=_any_of(single_mode_herald_probability(params), params.m_modes))


def swap_pair_probability(params: ExperimentParams) -> float:
    """Probability that some mode index heralds BOTH pairs in one trial.

    The swap needs the two link heralds at the same mode index (the switch
    network routes one combined field per index): 1 - (1 - p1^2)^m, linear in
    m at small p1.
    """
    p1 = single_mode_herald_probability(params)
    return _any_of(p1 * p1, params.m_modes)
