"""Closed-form layer: retrieval decay, correlations, visibility, thresholds.

Expected values were frozen from hand evaluation of the closed forms (see
the worked numbers in the comments) before the implementation existed; they
double as regression anchors.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import optimize

from dlcz_swap import analytic
from dlcz_swap.analytic import (
    CorrelationPair,
    coincidence_probability,
    concurrence,
    correlation_pair,
    cross_correlation,
    margin,
    multiplexed_eg_probability,
    prob_antistokes,
    retrieval_efficiency,
    single_mode_herald_probability,
    suppression,
    swap_pair_probability,
    threshold_g,
    visibility,
    zero_crossing_t2,
)
from dlcz_swap.params import ParamError, with_overrides

# 0.68 * exp(-320/320) = 0.68 / e
GAMMA_320 = 0.2501580199965808
# 1 + 0.68 / (0.01*0.68 + 1e-3 + 0.01*0.32*0.3*10)
G_B_0 = 40.08045977011495
# same with the 3e-3 background
G_AC_0 = 36.05154639175259
# 1 / (1 + 4/(G_B_0-1) + 4/(G_AC_0-1))
V_EXACT_EQUAL_TIMES = 0.8220502901353967
# defaults put the second readout 2us later, so g_ac is evaluated there
V_EXACT_DEFAULTS = 0.8212286807185902
H_DEFAULTS = 0.42380322704441425
# eta^2*g1*g2 + 2*eta*g2*P_as(t1,Z) + 2*eta*g1*P_as(t2,Z'), theta = 0
COINC_THETA0_DEFAULTS = 0.12738370329794987
# root of (1-4/g)^2 = 8*2/g: g = 16 + 8*sqrt(3)
THRESHOLD_APPROX = 16.0 + 8.0 * math.sqrt(3.0)
THRESHOLD_EXACT_FORM = 27.242227143382436


def test_retrieval_endpoints(defaults):
    assert retrieval_efficiency(0.0, defaults) == pytest.approx(0.68, abs=0)
    assert retrieval_efficiency(320.0, defaults) == pytest.approx(GAMMA_320, rel=1e-14)


def test_retrieval_decay_shape(defaults):
    t = np.linspace(0.0, 400.0, 100)
    vals = np.array([retrieval_efficiency(ti, defaults) for ti in t])
    assert np.all(np.diff(vals) < 0)
    # pure exponential: equal steps give a constant ratio
    ratios = vals[1:] / vals[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)


def test_cross_correlation_initials(defaults):
    assert cross_correlation(0.0, defaults.z_b, defaults) == pytest.approx(G_B_0, rel=1e-12)
    assert cross_correlation(0.0, defaults.z_ac, defaults) == pytest.approx(G_AC_0, rel=1e-12)


def test_cross_correlation_monotone(defaults):
    t = np.linspace(0.0, 400.0, 100)
    for z in (defaults.z_b, defaults.z_ac):
        g = np.array([cross_correlation(ti, z, defaults) for ti in t])
        assert np.all(np.diff(g) <= 0)
        assert np.all(g >= 1.0)  # floor of the form 1 + gamma/(...)


def test_cross_correlation_background_ordering(defaults):
    # more background -> lower correlation, everywhere
    for t in (0.0, 50.0, 200.0):
        assert cross_correlation(t, 3e-3, defaults) < cross_correlation(t, 1e-3, defaults)


def test_correlation_pair_defaults(defaults):
    corr = correlation_pair(defaults)
    assert corr.g_b == pytest.approx(G_B_0, rel=1e-12)
    # g_ac evaluated at t2 = 2us, slightly below its t = 0 value
    assert corr.g_ac < G_AC_0
    assert corr.g_ac == pytest.approx(cross_correlation(2.0, defaults.z_ac, defaults), rel=1e-14)


def test_visibility_exact_defaults(defaults):
    corr = correlation_pair(defaults)
    assert visibility(corr, form="exact") == pytest.approx(V_EXACT_DEFAULTS, rel=1e-12)
    equal = CorrelationPair(g_b=G_B_0, g_ac=G_AC_0)
    assert visibility(equal, form="exact") == pytest.approx(V_EXACT_EQUAL_TIMES, rel=1e-12)


def test_visibility_approx_vs_exact():
    # approx = 1 - 4/g_b - 4/g_ac underestimates the exact form, and the two
    # agree as the correlations grow
    for g in (40.0, 100.0, 1000.0, 1e6):
        corr = CorrelationPair(g_b=g, g_ac=g)
        va = visibility(corr, form="approx")
        ve = visibility(corr, form="exact")
        assert va <= ve <= 1.0
    big = CorrelationPair(g_b=1e8, g_ac=1e8)
    assert visibility(big, form="approx") == pytest.approx(visibility(big, form="exact"), abs=1e-7)


def test_visibility_bounds_grid():
    for gb in np.geomspace(1.5, 1e4, 12):
        for gac in np.geomspace(1.5, 1e4, 12):
            corr = CorrelationPair(g_b=gb, g_ac=gac)
            va = visibility(corr, form="approx")
            ve = visibility(corr, form="exact")
            assert 0.0 <= va <= 1.0
            assert 0.0 <= ve < 1.0


def test_uncorrelated_limit(defaults):
    # tau0 = 1 us leaves gamma(60 us) ~ 6e-27, below 2**-53 of the noise
    # floor, so g rounds to exactly 1: V is 0 there, not a division by zero
    corr = correlation_pair(with_overrides(defaults, tau0_us=1.0, t1_us=60.0, t2_us=62.0))
    assert corr.g_b == corr.g_ac == 1.0
    assert visibility(corr, form="exact") == 0.0
    assert visibility(CorrelationPair(g_b=1.0, g_ac=40.0), form="exact") == 0.0
    assert visibility(corr, form="approx", clamp=False) == -7.0
    assert suppression(corr) == 16.0
    assert margin(corr, "exact") == -4.0
    for bad in (dict(g_b=0.5, g_ac=2.0), dict(g_b=2.0, g_ac=math.nan)):
        name = next(k for k, v in bad.items() if not v >= 1.0)
        with pytest.raises(ParamError, match=name):
            CorrelationPair(**bad)


def test_visibility_clamp():
    low = CorrelationPair(g_b=5.0, g_ac=5.0)  # 1 - 4/5 - 4/5 < 0
    assert visibility(low, form="approx") == 0.0
    assert visibility(low, form="approx", clamp=False) == pytest.approx(-0.6)


def test_suppression_defaults(defaults):
    corr = correlation_pair(defaults)
    assert suppression(corr) == pytest.approx(H_DEFAULTS, rel=1e-12)


def test_suppression_limits():
    assert suppression(CorrelationPair(g_b=math.inf, g_ac=math.inf)) == 0.0
    # h = 8*(1/g_b + 1/g_ac)
    assert suppression(CorrelationPair(g_b=8.0, g_ac=8.0)) == pytest.approx(2.0)


def test_concurrence_forms():
    # the detected bound C = p_c (V - sqrt(h)): 0.6 (0.9 - 0.316227766...)
    assert concurrence(0.6, 0.9, 0.1) == pytest.approx(0.35026334038989726, rel=1e-12)
    assert concurrence(0.3, 0.9, 0.1) == pytest.approx(0.6 * (0.9 - math.sqrt(0.1)) / 2,
                                                       rel=1e-12)
    assert concurrence(0.6, 0.9, 0.0) == pytest.approx(0.54, rel=1e-12)
    with pytest.raises(ValueError):
        concurrence(0.6, 0.9, -0.1)


def test_concurrence_clamps_to_zero():
    # below the threshold the bound is negative and stays so, which keeps
    # zero crossings visible; clamping to 0 is left to the caller
    c = concurrence(0.2, 0.1, 0.9)
    assert c == pytest.approx(0.2 * (0.1 - math.sqrt(0.9)), rel=1e-12)
    assert c < 0.0


def _margin(g_b, g_ac, form):
    corr = CorrelationPair(g_b=g_b, g_ac=g_ac)
    return visibility(corr, form=form, clamp=False) - math.sqrt(suppression(corr))


def test_threshold_approx():
    g = threshold_g(form="approx")
    assert abs(g - THRESHOLD_APPROX) < 1e-6
    assert abs(_margin(g, g, "approx")) < 1e-9


def test_threshold_exact_form():
    g = threshold_g(form="exact")
    assert g == pytest.approx(THRESHOLD_EXACT_FORM, abs=1e-6)
    assert abs(_margin(g, g, "exact")) < 1e-9


def test_threshold_exact_below_approx():
    assert threshold_g(form="exact") < threshold_g(form="approx")


def test_threshold_fixed_partner():
    # pinning one correlation at its t = 0 value and solving for the other
    gb = G_B_0
    g = threshold_g(form="approx", fixed_g_b=gb)
    # V(gb, g) = sqrt(h(gb, g)) at the root
    v = 1.0 - 4.0 / gb - 4.0 / g
    h = 8.0 * (1.0 / gb + 1.0 / g)
    assert v == pytest.approx(math.sqrt(h), abs=1e-9)
    # the weak partner must compensate the strong one: root below symmetric
    assert g < THRESHOLD_APPROX


def test_margin_matches_definition():
    for g_b, g_ac in ((G_B_0, G_AC_0), (10.0, 10.0), (THRESHOLD_APPROX, 50.0)):
        for form in ("approx", "exact"):
            assert margin(CorrelationPair(g_b, g_ac), form) == _margin(g_b, g_ac, form)


def test_thresholds_bit_identical():
    # frozen from scipy.optimize.bisect; the private bisection replays its loop
    assert threshold_g(form="approx") == 29.856406460504033
    assert threshold_g(form="exact") == 27.242227143382436
    assert threshold_g(form="approx", fixed_g_b=50.0) == 21.28234736348144


def test_bisect_replays_scipy():
    funs = [lambda x: math.tanh(3.0 * (x - 0.3)),
            lambda x: x ** 3 - 2.0,
            lambda x: math.exp(-x) - 0.25]
    for fun in funs:
        for lo, hi, xtol in ((-4.0, 5.0, 2e-12), (0.0, 7.0, 1e-10), (-1.0, 3.0, 1e-3)):
            assert analytic._bisect(fun, lo, hi, xtol) == optimize.bisect(fun, lo, hi, xtol=xtol)
    with pytest.raises(ValueError, match="no sign change"):
        analytic._bisect(lambda x: x * x + 1.0, -1.0, 1.0, 1e-10)


def test_zero_crossing_t2(defaults):
    t2 = zero_crossing_t2(defaults)

    def at(t):
        point = with_overrides(defaults, t1_us=t - defaults.delta_t_us, t2_us=t)
        return margin(correlation_pair(point))

    assert at(t2 - 1e-6) > 0.0 > at(t2 + 1e-6)
    assert t2 == pytest.approx(48.8688952298, abs=1e-8)


def test_coincidence_theta0(defaults):
    assert coincidence_probability(0.0, defaults) == pytest.approx(
        COINC_THETA0_DEFAULTS, rel=1e-12)


def test_coincidence_fringe_shape(defaults):
    thetas = np.linspace(0.0, 2.0 * np.pi, 33)
    p = np.array([coincidence_probability(t, defaults) for t in thetas])
    assert np.all(p >= 0.0)
    assert p.argmax() in (0, 32)  # peak at 0 mod 2pi
    assert p.argmin() == 16  # null at pi
    # cosine fringe: quadrature point is the mean of peak and null
    mid = coincidence_probability(np.pi / 2.0, defaults)
    assert mid == pytest.approx(0.5 * (p[0] + p[16]), rel=1e-12)
    # 2pi periodic
    assert p[0] == pytest.approx(p[32], rel=1e-12)


def test_coincidence_visibility_matches_exact_form(defaults):
    # fringe contrast of the closed-form coincidence equals the exact V
    pmax = coincidence_probability(0.0, defaults)
    pmin = coincidence_probability(np.pi, defaults)
    v_fringe = (pmax - pmin) / (pmax + pmin)
    assert v_fringe == pytest.approx(V_EXACT_DEFAULTS, rel=1e-12)


def test_visibility_eta_independent(defaults):
    # eta scales both fringe terms, so contrast cannot depend on it
    for eta in (0.1, 0.5, 0.9):
        p = with_overrides(defaults, eta=eta)
        corr = correlation_pair(p)
        assert visibility(corr, form="exact") == pytest.approx(V_EXACT_DEFAULTS, rel=1e-12)
        pmax = coincidence_probability(0.0, p)
        pmin = coincidence_probability(np.pi, p)
        assert (pmax - pmin) / (pmax + pmin) == pytest.approx(V_EXACT_DEFAULTS, rel=1e-12)


def test_antistokes_noise_floor(defaults):
    # at long storage the retrieval dies but background and leakage survive
    p_late = prob_antistokes(1e6, defaults.z_ac, defaults)
    floor = defaults.eta * (defaults.z_ac + defaults.chi * defaults.xi_se * defaults.f_cav)
    assert p_late == pytest.approx(floor, rel=1e-4)


def test_herald_probability(defaults):
    assert single_mode_herald_probability(defaults) == pytest.approx(
        defaults.chi * defaults.eta, rel=1e-12)


def test_multiplexed_rate(defaults):
    r = multiplexed_eg_probability(defaults)
    p1 = defaults.chi * defaults.eta
    assert r.exact == pytest.approx(1.0 - (1.0 - p1) ** 3, rel=1e-12)
    assert r.exact < 3 * p1  # union bound is strict for p1 > 0


def test_multiplexed_rate_m1(defaults):
    r = multiplexed_eg_probability(with_overrides(defaults, m_modes=1))
    assert r.exact == pytest.approx(single_mode_herald_probability(defaults), rel=1e-12)


def test_swap_pair_probability(defaults):
    p1 = defaults.chi * defaults.eta
    assert swap_pair_probability(defaults) == pytest.approx(
        1.0 - (1.0 - p1 ** 2) ** 3, rel=1e-12)


# (chi, eta, m): the defaults, the hot point, a tiny chi*eta = 5e-7 where
# 1 - (1 - x)**m loses 8.9e-5 of P_c, and the edges m = 1 and m = 1000
EXACT_POINTS = [(0.01, 0.5, 3), (0.1, 0.8, 3), (0.1, 0.8, 32), (1e-6, 0.5, 3),
                (1e-6, 0.5, 1000), (1e-3, 1.0, 1), (0.3, 0.9, 1000), (0.0, 0.5, 3)]


@pytest.mark.parametrize("chi, eta, m", EXACT_POINTS)
def test_multiplexed_closed_forms_full_precision(defaults, chi, eta, m):
    # against exact rationals of the float p1: no cancellation at small p1
    params = with_overrides(defaults, chi=chi, eta=eta, m_modes=m)
    p1 = Fraction(single_mode_herald_probability(params))
    for got, want in ((multiplexed_eg_probability(params).exact, 1 - (1 - p1) ** m),
                      (swap_pair_probability(params), 1 - (1 - p1 * p1) ** m)):
        assert abs(Fraction(got) - want) <= 1e-15 * want


def test_bad_form_rejected(defaults):
    corr = correlation_pair(defaults)
    with pytest.raises(ValueError):
        visibility(corr, form="wrong")
    with pytest.raises(ValueError):
        threshold_g(form="wrong")
