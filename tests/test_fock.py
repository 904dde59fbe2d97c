"""Density-matrix engine: operator contracts, detection model, swap pipeline.

The elementary operators are those of the Schrödinger-picture oracle
(tests/oracles.py).  Their tests compare against hand-derived amplitudes
(beam splitter on one photon, binomial retrieval statistics, geometric
pair-source weights), not against the implementation's own matrices.
"""

import dataclasses
import inspect
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import stats

import dlcz_swap
import oracles
from dlcz_swap import analytic, cli, fock, protocol, series
from dlcz_swap.fock import (
    DimensionError,
    FockState,
    ModeRegister,
    heralded_spin_state,
    swap_pipeline,
    swap_stage,
)
from dlcz_swap.params import ParamError, at_t2, with_overrides
from oracles import (
    apply_beam_splitter,
    apply_pair_source,
    apply_retrieval,
    inject_noise,
    joint_clicks,
    measure_click,
    partial_trace,
    vacuum,
    wootters_concurrence,
)

# Frozen engine outputs at the default parameter point (n_max = 2, 16-point
# fringe grid).  Regression anchors: a change here is a change of the model.
P_ES1_DEFAULTS = 0.16352378491092773
V_FRINGE_DEFAULTS = 0.8347916558052182
C_WOOTTERS_DEFAULTS = 0.3420210911716093
C_ESTIMATOR_DEFAULTS = 0.32150832047966676


def _readout(rho_ac, gamma, eta, p_extra, thetas):
    """fock._readout of a FockState: (fringe (n_theta, 4), counting (4,)),
    both over JOINT_ORDER."""
    d = rho_ac.register.dim_per_mode
    cosines = fock._fringe_cosines(tuple(map(float, thetas)), d - 1)
    return fock._readout(fock._swap_layout(rho_ac.rho, d), d, gamma, eta, p_extra, cosines)


def _pure(register, occupations):
    """FockState for a photon-number basis ket."""
    d = register.dim_per_mode
    idx = 0
    for n in occupations:
        idx = idx * d + n
    psi = np.zeros(register.dim, dtype=np.complex128)
    psi[idx] = 1.0
    return FockState(register, np.outer(psi, psi.conj()))


@pytest.fixture(scope="module")
def report_defaults(defaults):
    return swap_pipeline(defaults)


# -- elementary operators ---------------------------------------------------

def test_vacuum():
    reg = ModeRegister(("a", "b"), n_max=2)
    v = vacuum(reg)
    assert v.trace() == pytest.approx(1.0)
    assert np.trace(v.rho @ v.rho).real == pytest.approx(1.0)
    assert v.occupation("a")[0] == pytest.approx(1.0)


def test_beam_splitter_single_photon_amplitudes():
    # |10> -> cos(angle)|10> + e^{i phase} sin(angle)|01>
    reg = ModeRegister(("u", "v"), n_max=2)
    d = reg.dim_per_mode
    for phase, angle in ((0.0, math.pi / 4), (math.pi / 3, math.pi / 7)):
        out = apply_beam_splitter(_pure(reg, (1, 0)), "u", "v",
                                  phase=phase, angle=angle)
        psi = np.zeros(reg.dim, dtype=np.complex128)
        psi[1 * d + 0] = math.cos(angle)
        psi[0 * d + 1] = np.exp(1j * phase) * math.sin(angle)
        expected = np.outer(psi, psi.conj())
        assert np.allclose(out.rho, expected, atol=1e-12)


def test_beam_splitter_unitary():
    rng = np.random.default_rng(11)
    reg = ModeRegister(("u", "v"), n_max=2)
    a = rng.normal(size=(reg.dim, reg.dim)) + 1j * rng.normal(size=(reg.dim, reg.dim))
    rho = a @ a.conj().T
    state = FockState(reg, rho / np.trace(rho))
    out = apply_beam_splitter(state, "u", "v", phase=0.7, angle=0.4)
    assert out.trace() == pytest.approx(1.0, abs=1e-12)
    assert np.trace(out.rho @ out.rho).real == pytest.approx(
        np.trace(state.rho @ state.rho).real, abs=1e-12)
    # inverse angle undoes the mixing
    back = apply_beam_splitter(out, "u", "v", phase=0.7, angle=-0.4)
    assert np.allclose(back.rho, state.rho, atol=1e-12)


def test_hom_cancellation():
    # |1,1> into a 50/50 splitter: coincidence across the outputs vanishes
    reg = ModeRegister(("u", "v"), n_max=2)
    out = apply_beam_splitter(_pure(reg, (1, 1)), "u", "v")
    d = reg.dim_per_mode
    assert abs(out.rho[1 * d + 1, 1 * d + 1]) < 1e-12
    joint = joint_clicks(out, "u", "v", eta=1.0)
    assert joint[(True, True)] < 1e-12
    assert sum(joint.values()) == pytest.approx(1.0, abs=1e-12)
    # photon bunching: both land in the same output
    occ_u = out.occupation("u")
    assert occ_u[2] == pytest.approx(0.5, abs=1e-12)


def test_pair_source_geometric_weights():
    reg = ModeRegister(("s", "o"), n_max=2)
    chi = 0.04
    out = apply_pair_source(vacuum(reg), "s", "o", chi)
    weights = np.array([1.0, chi, chi ** 2])
    weights /= weights.sum()
    assert np.allclose(out.occupation("s"), weights, atol=1e-12)
    assert np.allclose(out.occupation("o"), weights, atol=1e-12)
    # photon numbers of the two modes are perfectly correlated
    d = reg.dim_per_mode
    diag = np.real(np.diag(out.rho))
    for i in range(d):
        for j in range(d):
            if i != j:
                assert diag[i * d + j] < 1e-14


def test_pair_source_requires_vacuum():
    reg = ModeRegister(("s", "o"), n_max=2)
    state = apply_pair_source(vacuum(reg), "s", "o", 0.01)
    with pytest.raises(ValueError):
        apply_pair_source(state, "s", "o", 0.01)


def test_pair_source_chi_zero_noop():
    reg = ModeRegister(("s", "o"), n_max=2)
    out = apply_pair_source(vacuum(reg), "s", "o", 0.0)
    assert out.occupation("o")[0] == pytest.approx(1.0)


def test_pair_sources_commute_on_disjoint_pairs():
    reg = ModeRegister(("a", "b", "c", "d"), n_max=1)
    v = vacuum(reg)
    one = apply_pair_source(apply_pair_source(v, "a", "b", 0.05), "c", "d", 0.02)
    two = apply_pair_source(apply_pair_source(v, "c", "d", 0.02), "a", "b", 0.05)
    assert np.allclose(one.rho, two.rho, atol=1e-14)


def test_retrieval_binomial_statistics():
    # two stored excitations, each transferred independently with prob gamma
    reg = ModeRegister(("spin", "read"), n_max=2)
    gamma = 0.37
    out = apply_retrieval(_pure(reg, (2, 0)), "spin", "read", gamma)
    expected = stats.binom.pmf(np.arange(3), 2, gamma)
    assert np.allclose(out.occupation("read"), expected, atol=1e-12)
    # what was not retrieved is still in the spin mode
    assert np.allclose(out.occupation("spin"), expected[::-1], atol=1e-12)
    out.validate(atol=1e-10)


def test_retrieval_extremes():
    reg = ModeRegister(("spin", "read"), n_max=2)
    one = _pure(reg, (1, 0))
    full = apply_retrieval(one, "spin", "read", 1.0)
    assert full.occupation("read")[1] == pytest.approx(1.0, abs=1e-12)
    none = apply_retrieval(one, "spin", "read", 0.0)
    assert none.occupation("read")[0] == pytest.approx(1.0, abs=1e-12)


def test_inject_noise_population():
    reg = ModeRegister(("r",), n_max=2)
    out = inject_noise(vacuum(reg), "r", 0.25)
    assert np.allclose(out.occupation("r"), [0.75, 0.25, 0.0], atol=1e-12)
    out.validate(atol=1e-10)


def test_inject_noise_no_headroom():
    reg = ModeRegister(("r",), n_max=1)
    capped = _pure(reg, (1,))
    with pytest.raises(ValueError):
        inject_noise(capped, "r", 0.1)


# -- detection --------------------------------------------------------------

def test_click_completeness():
    rng = np.random.default_rng(5)
    reg = ModeRegister(("r", "x"), n_max=2)
    a = rng.normal(size=(reg.dim, reg.dim)) + 1j * rng.normal(size=(reg.dim, reg.dim))
    rho = a @ a.conj().T
    state = FockState(reg, rho / np.trace(rho))
    for eta, p_extra in ((0.5, 0.0), (0.3, 0.02), (1.0, 0.0)):
        click, noclick = measure_click(state, "r", eta, p_extra=p_extra)
        assert click.probability + noclick.probability == pytest.approx(1.0, abs=1e-12)
        for branch in (click, noclick):
            if branch.state is not None:
                assert branch.state.trace() == pytest.approx(1.0, abs=1e-10)


def test_click_single_photon_efficiency():
    reg = ModeRegister(("r",), n_max=2)
    one = _pure(reg, (1,))
    click, _ = measure_click(one, "r", 0.37)
    assert click.probability == pytest.approx(0.37, abs=1e-12)
    two = _pure(reg, (2,))
    click2, _ = measure_click(two, "r", 0.37)
    assert click2.probability == pytest.approx(1.0 - 0.63 ** 2, abs=1e-12)


def test_click_extra_probability_mixes_in():
    # background/leakage fires even on vacuum
    reg = ModeRegister(("r",), n_max=2)
    click, noclick = measure_click(vacuum(reg), "r", 0.5, p_extra=0.01)
    assert click.probability == pytest.approx(0.01, abs=1e-12)
    assert noclick.probability == pytest.approx(0.99, abs=1e-12)


def test_click_zero_probability_branch():
    reg = ModeRegister(("r",), n_max=2)
    click, noclick = measure_click(vacuum(reg), "r", 0.5)
    assert click.probability == pytest.approx(0.0, abs=1e-15)
    assert click.state is None
    assert noclick.probability == pytest.approx(1.0)


def test_partial_trace_marginals():
    reg = ModeRegister(("a", "b"), n_max=2)
    chi = 0.03
    state = apply_pair_source(vacuum(reg), "a", "b", chi)
    kept = partial_trace(state, ("b",))
    assert kept.register.labels == ("b",)
    assert np.allclose(np.real(np.diag(kept.rho)), state.occupation("b"), atol=1e-12)
    assert kept.trace() == pytest.approx(1.0, abs=1e-12)


def test_random_sequences_stay_physical():
    # random little circuits must keep rho a density matrix throughout
    rng = np.random.default_rng(2026)
    for _ in range(15):
        reg = ModeRegister(("s", "r", "x"), n_max=2)
        state = apply_pair_source(vacuum(reg), "s", "r", rng.uniform(0.01, 0.3))
        for _ in range(5):
            op = rng.integers(4)
            if op == 0:
                state = apply_beam_splitter(state, "r", "x",
                                            phase=rng.uniform(0, 2 * np.pi),
                                            angle=rng.uniform(-1.5, 1.5))
            elif op == 1:
                state = apply_retrieval(state, "s", "x", rng.uniform(0, 1))
            elif op == 2:
                state = inject_noise(state, "x", rng.uniform(0, 0.2))
            else:
                click, noclick = measure_click(state, "r", rng.uniform(0.2, 1.0),
                                               p_extra=rng.uniform(0, 0.05))
                state = click.state if (click.probability > 0.1 and click.state
                                        is not None) else noclick.state
            state.validate(atol=1e-9)


# -- concurrence ------------------------------------------------------------

def test_wootters_bell_state():
    psi = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    assert wootters_concurrence(np.outer(psi, psi)) == pytest.approx(1.0, abs=1e-12)


def test_wootters_separable():
    rho = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    assert wootters_concurrence(rho) == 0.0


def test_wootters_werner():
    # Werner state: C = max(0, (3p - 1) / 2)
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    bell = np.outer(psi, psi)
    for p, expect in ((0.8, 0.7), (1.0 / 3.0, 0.0), (0.2, 0.0)):
        rho = p * bell + (1.0 - p) * np.eye(4) / 4.0
        assert wootters_concurrence(rho) == pytest.approx(expect, abs=1e-10)


def test_wootters_validates():
    with pytest.raises(ValueError):
        wootters_concurrence(np.eye(3))
    with pytest.raises(ValueError):
        wootters_concurrence(np.eye(4))  # trace 4


# -- noise bookkeeping ------------------------------------------------------

def test_detector_extra(defaults):
    t = 5.0
    gamma = defaults.gamma0 * math.exp(-t / defaults.tau0_us)
    leak = defaults.chi * (1.0 - gamma) * defaults.xi_se * defaults.f_cav
    expect = defaults.eta * (defaults.z_ac + leak)
    assert fock._storage(defaults, t, defaults.z_ac)[1] == pytest.approx(expect, rel=1e-12)


# -- swap pipeline ----------------------------------------------------------

def test_swap_regression_values(report_defaults):
    r = report_defaults
    assert r.p_es1 == pytest.approx(P_ES1_DEFAULTS, rel=1e-9)
    assert r.visibility_fringe == pytest.approx(V_FRINGE_DEFAULTS, rel=1e-9)
    assert r.concurrence_wootters == pytest.approx(C_WOOTTERS_DEFAULTS, rel=1e-9)
    assert r.concurrence_estimator == pytest.approx(C_ESTIMATOR_DEFAULTS, rel=1e-9)


def test_swap_probabilities_consistent(report_defaults):
    r = report_defaults
    assert 0.0 < r.p_es1 < 1.0
    assert r.fringe_joint.shape == (len(r.thetas), 4) and r.counting_joint.shape == (4,)
    for joint in r.fringe_joint:
        assert joint.sum() == pytest.approx(1.0, abs=1e-9)
    # the closed-form convention: 4 p_es1 P(detector 1 clicks | swap click)
    p_ev1 = r.fringe_joint[:, 0] + r.fringe_joint[:, 1]
    assert r.p_coinc == pytest.approx(4.0 * r.p_es1 * p_ev1, rel=1e-12)
    assert r.counting_joint.sum() == pytest.approx(1.0, abs=1e-9)


def test_swap_state_physical(defaults):
    _, rho_ac = swap_stage(defaults)
    rho_ac.validate(atol=1e-9)
    assert rho_ac.register.labels == ("mem_a", "mem_c")


def test_concurrence_gap_bound(report_defaults):
    # the estimator differs from the true concurrence by at most the double
    # excitation weight plus the weight outside the qubit block
    r = report_defaults
    gap = abs(r.concurrence_wootters - r.concurrence_estimator)
    assert gap <= r.p_ij_spin["p11"] + abs(1.0 - r.block_total)


def test_closed_form_concurrence_matches_wootters(defaults):
    # every stage conserves n_a + n_c, so the spin block is an X state whose
    # one coherence is <01|rho|10>, and the closed form is the general
    # spin-flip concurrence; 120 random points plus the zero-click branch
    rng = np.random.default_rng(41)
    points = [(with_overrides(at_t2(defaults, float(rng.uniform(2.0, 300.0))),
                              chi=chi, eta=float(1.0 - rng.uniform(0.0, 0.95))),
               int(rng.integers(1, 5)))
              for chi in (0.0, 1e-4, 0.01, 0.1, 0.3) for _ in range(24)]
    points.append((with_overrides(defaults, t1_us=1e6, t2_us=1e6 + 10, z_b=0.0, xi_se=0.0), 2))
    coherence = np.zeros((4, 4), dtype=bool)
    coherence[[1, 2], [2, 1]] = True
    concurrences = []
    for params, n_max in points:
        report = swap_pipeline(params, n_max=n_max)
        d = n_max + 1  # the {0,1} block, |n_a n_c> = 00, 01, 10, 11
        block = report.rho_ac.rho.reshape(d, d, d, d)[:2, :2, :2, :2].reshape(4, 4)
        assert np.abs(block[~np.eye(4, dtype=bool) & ~coherence]).max() <= 1e-15
        want = wootters_concurrence(block / report.block_total)
        assert abs(report.concurrence_wootters - want) <= 1e-12
        concurrences.append(report.concurrence_wootters)
    assert report.p_es1 == 0.0 and concurrences[-1] == 0.0
    assert min(concurrences[:-1]) == 0.0 < max(concurrences)


def test_fringe_min_at_pi(report_defaults):
    r = report_defaults
    assert r.p_coinc.min() == pytest.approx(r.p_coinc[r.thetas.index(math.pi)], rel=1e-12)
    assert r.p_coinc.max() == pytest.approx(r.p_coinc[r.thetas.index(0.0)], rel=1e-12)


def test_ideal_limit_exact(defaults):
    # chi = 0: each link holds exactly one excitation, and no multi-pair
    # photons or leakage exist anywhere downstream
    ideal = with_overrides(
        defaults, chi=0.0, z_b=0.0, z_ac=0.0, xi_se=0.0,
        gamma0=1.0, eta=1.0, t1_us=0.0, t2_us=1e-9, tau0_us=1e9,
    )
    r = swap_pipeline(ideal, thetas=(0.0, math.pi / 2, math.pi))
    # one of four herald branches is photonless, the rest click half the time
    assert r.p_es1 == pytest.approx(0.375, abs=1e-9)
    # the bunching branch leaves both outer memories empty
    assert r.p_ij_spin["p00"] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert r.p_ij_spin["p11"] == pytest.approx(0.0, abs=1e-9)
    assert r.v_spin == pytest.approx(1.0, abs=1e-9)
    assert r.h_detected == pytest.approx(0.0, abs=1e-9)
    assert r.visibility_fringe == pytest.approx(1.0, abs=1e-9)
    # estimator becomes exact: C = p_c.  The |11> diagonal is exactly empty,
    # so sqrt(p00 * p11) adds nothing and both routes land on p_c to rounding.
    assert r.concurrence_estimator == pytest.approx(r.p_c_spin, abs=1e-14)
    assert r.concurrence_wootters == pytest.approx(r.concurrence_estimator, abs=1e-14)


def test_ideal_limit_weak_detection_vacuum(defaults):
    # vanishing detection efficiency weights the two-photon bunching branch
    # up by its double click chance: vacuum fraction goes 1/3 -> 1/2
    ideal = with_overrides(
        defaults, chi=0.0, z_b=0.0, z_ac=0.0, xi_se=0.0,
        gamma0=1.0, eta=1e-6, t1_us=0.0, t2_us=1e-9, tau0_us=1e9,
    )
    _, rho_ac = swap_stage(ideal)
    p00 = float(np.real(rho_ac.rho[0, 0]))
    assert p00 == pytest.approx(0.5, abs=1e-3)


def test_truncation_stability(defaults):
    # raising the photon cap moves probabilities by O(chi), not more
    thetas = (0.0, math.pi)
    lo = swap_pipeline(defaults, thetas=thetas, n_max=2)
    hi = swap_pipeline(defaults, thetas=thetas, n_max=3,
                       max_entries=40_000_000)
    bound = 0.2 * defaults.chi
    assert abs(lo.p_es1 - hi.p_es1) <= bound
    assert np.abs(lo.p_coinc - hi.p_coinc).max() <= bound


def test_heralded_state_symmetry(defaults):
    # the two heralded links are identical constructions, so corresponding
    # roles match exactly; within one link the click conditioning leaves an
    # O(chi^2) asymmetry between the two ensembles
    state = heralded_spin_state(defaults)
    occ_a = state.occupation("mem_a")
    occ_b1 = state.occupation("mem_b1")
    occ_b2 = state.occupation("mem_b2")
    occ_c = state.occupation("mem_c")
    assert np.allclose(occ_a, occ_b2, atol=1e-14)
    assert np.allclose(occ_b1, occ_c, atol=1e-14)
    assert np.allclose(occ_a, occ_b1, atol=defaults.chi ** 2)


def test_no_click_rate_mixer_invariant(defaults):
    # the all-dark outcome depends only on total photon number, which the
    # verification mixer conserves: P(no, no) is exactly theta-independent
    # and identical between the fringe arm and the counting arm
    _, rho_ac = swap_stage(defaults)
    gamma2 = defaults.gamma0 * math.exp(-defaults.t2_us / defaults.tau0_us)
    extra2 = fock._storage(defaults, defaults.t2_us, defaults.z_ac)[1]
    fringe, count = _readout(rho_ac, gamma2, defaults.eta, extra2,
                             (0.0, 1.0, math.pi, 4.5))
    none = fock.JOINT_ORDER.index((False, False))
    for joint in fringe:
        assert joint[none] == pytest.approx(count[none], rel=1e-10)


def test_truncation_as_number(defaults):
    # the swap click probability converges in the photon cap
    p = {n: swap_stage(defaults, n_max=n)[0] for n in (2, 3, 4)}
    assert p[2] == pytest.approx(0.16352378, abs=1e-8)
    assert p[3] == pytest.approx(0.16318181, abs=1e-8)
    assert p[4] == pytest.approx(0.16317630, abs=1e-8)
    assert abs(p[4] - p[3]) < 1e-5


@pytest.mark.parametrize("chi", [None, 0.0], ids=["heralded", "ideal"])
def test_entry_cap_applies_to_herald_register(defaults, chi):
    # four modes at n_max = 5 need 6**8 > 1e6 entries, at chi = 0 as well
    params = defaults if chi is None else with_overrides(defaults, chi=chi)
    with pytest.raises(DimensionError):
        swap_stage(params, n_max=5)
    swap_stage(params, n_max=5, max_entries=6 ** 8)


def test_operator_caches_bounded(defaults):
    engine = (fock._tables, fock._heralded_link, fock._fringe_cosines)
    caches = ((oracles._beam_splitter_unitary, oracles._pair_source_unitary) + engine
              + (fock.default_theta_grid,))
    for cache in caches:
        cache.cache_clear()
    state = vacuum(ModeRegister(("spin", "light")))
    for gamma in np.linspace(0.0, 1.0, 200):
        apply_retrieval(state, "spin", "light", float(gamma))
    for n_max in (1, 2, 3):
        swap_pipeline(defaults, n_max=n_max)
    # one beam-splitter angle per gamma, more than the cache keeps
    assert oracles._beam_splitter_unitary.cache_info().misses > fock.OPERATOR_CACHE_SIZE
    for cache in caches:
        assert cache.cache_info().maxsize == fock.OPERATOR_CACHE_SIZE
        assert cache.cache_info().currsize <= fock.OPERATOR_CACHE_SIZE
    # one table set per cutoff, one entry per n_max; so are the link (one
    # chi and eta) and the cosines (one grid)
    for cache in engine:
        assert cache.cache_info().currsize == 3
    assert fock.default_theta_grid.cache_info().currsize == 1
    # one cache to report: no other cache is keyed on the cutoff alone
    per_cutoff = [f for f in vars(fock).values() if hasattr(f, "cache_info")
                  and list(inspect.signature(f).parameters) == ["d"]]
    assert per_cutoff == [fock._tables]


def test_link_built_once_per_chi_and_eta(defaults):
    # the link depends on (chi, eta, n_max) alone: fresh storage times reuse
    # it, a new chi or eta builds a new one, and the cache stays bounded
    fock._heralded_link.cache_clear()
    for t2 in np.linspace(3.0, 47.0, 20):
        swap_pipeline(at_t2(defaults, float(t2)))
    info = fock._heralded_link.cache_info()
    assert (info.misses, info.hits) == (1, 19)
    swap_pipeline(with_overrides(defaults, eta=0.6))
    swap_pipeline(with_overrides(defaults, chi=0.02))
    assert fock._heralded_link.cache_info().misses == 3
    for chi in np.linspace(0.001, 0.2, fock.OPERATOR_CACHE_SIZE + 6):
        swap_stage(with_overrides(defaults, chi=float(chi)))
    info = fock._heralded_link.cache_info()
    assert info.misses == fock.OPERATOR_CACHE_SIZE + 9
    assert info.currsize == fock.OPERATOR_CACHE_SIZE


def test_cached_link_is_read_only(defaults):
    # every caller shares the cached arrays, so none may write to them
    link, pair = fock._link_state(defaults, 2, fock.DEFAULT_MAX_ENTRIES)
    assert np.array_equal(pair, fock._swap_layout(link, 3))
    for array in (link, pair):
        with pytest.raises(ValueError):
            array[0, 0] = 0.0


def test_per_cutoff_caches_stay_small(defaults):
    # after one n_max = 7 pipeline the engine's caches hold less than 8 MB:
    # the phase-order split is applied to the readout state, so the largest
    # table is the d^6 float64 mixer projector table (2.1 MB at d = 8)
    d = 8
    fock._tables.cache_clear()
    swap_pipeline(defaults, n_max=d - 1, max_entries=10 ** 9)
    held = list(fock._tables(d)) + list(fock._heralded_link(defaults.chi, defaults.eta, d - 1))
    held.append(fock._fringe_cosines(fock.default_theta_grid(), d - 1))
    assert not any(np.iscomplexobj(a) for a in held)
    assert sum(a.nbytes for a in held) < 8e6


@pytest.mark.parametrize("d", range(2, 8))
def test_retrieval_adjoint_matches_expm(d):
    # the binomial map against the truncated beam-splitter exponential it
    # replaced: exact on the n <= n_max block a vacuum readout starts in
    for gamma in np.linspace(0.0, 1.0, 41):
        u = oracles._beam_splitter_unitary(d, 0.0, math.asin(math.sqrt(gamma)))
        w = u[:, ::d].reshape(d, d, d)
        want = np.einsum("aon,aqk->nkoq", w.conj(), w).reshape(d * d, d * d)
        assert np.abs(fock._retrieval_adjoint(d, float(gamma)) - want).max() <= 1e-14


@pytest.mark.parametrize("d", range(2, 9))
def test_mixer_matches_expm(d):
    # the eigh-built 50/50 mixer against the oracle's complex matrix
    # exponential of the same generator: real, and orthogonal, to rounding
    u = fock._mixer(d)
    assert u.dtype == np.float64
    assert np.abs(u - oracles._beam_splitter_unitary(d, 0.0, math.pi / 4)).max() <= 1e-14
    assert np.abs(u @ u.T - np.eye(d * d)).max() <= 1e-14


def test_new_storage_times_need_no_exponential(defaults, monkeypatch):
    # a new t2 builds no mixer (the table-set cache gets no miss) and one
    # retrieval map per storage time: t1 for the swap click and t2 for the
    # detected readout; the spin-level fringe is a cached map, and a table
    # build is one pipeline
    maps, mixers = [], []
    retrieval_adjoint, mixer = fock._retrieval_adjoint, fock._mixer
    monkeypatch.setattr(fock, "_retrieval_adjoint",
                        lambda *args: maps.append(args[1]) or retrieval_adjoint(*args))
    monkeypatch.setattr(fock, "_mixer", lambda d: mixers.append(d) or mixer(d))
    protocol._tables_cached.cache_clear()
    swap_pipeline(defaults)
    tables = fock._tables.cache_info()
    mixers.clear()
    for t2 in np.linspace(3.0, 47.0, 20):
        params = at_t2(defaults, float(t2))
        gammas = [params.gamma0 * math.exp(-t / params.tau0_us)
                  for t in (params.t1_us, params.t2_us)]
        maps.clear()
        swap_pipeline(params)
        assert maps == pytest.approx(gammas, rel=1e-12)
        maps.clear()
        protocol.conditional_tables(params, fock.default_theta_grid())
        assert maps == pytest.approx(gammas, rel=1e-12)
    # the table-set cache gains no entry over the fresh t2 points
    assert mixers == []
    assert fock._tables.cache_info().currsize == tables.currsize
    assert fock._tables.cache_info().misses == tables.misses


def test_empty_theta_grid_rejected(defaults):
    # an empty grid has no fringe: a ParamError naming the grid, not numpy's
    # zero-size reduction error
    _, rho_ac = swap_stage(defaults)
    with pytest.raises(ParamError, match="theta grid"):
        swap_pipeline(defaults, thetas=())
    with pytest.raises(ParamError, match="theta grid"):
        _readout(rho_ac, 0.5, defaults.eta, 0.0, ())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_theta_rejected(defaults, bad):
    # a non-finite theta has no fringe: a ParamError naming the grid, not
    # NaN joints, a RuntimeWarning or an unnormalized conditional joint
    grid = [0.0, bad]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParamError, match="theta grid"):
            swap_pipeline(defaults, thetas=grid)
        with pytest.raises(ParamError, match="theta grid"):
            protocol.run_batch(defaults, 1000, theta_grid=grid)


# Names of the Schrödinger-picture toolkit, the scalar trial loop and the
# general Wootters concurrence, which live in tests/oracles.py as references
# and nowhere in the package.
ORACLE_NAMES = (
    "ClickOutcome", "vacuum", "_apply_matrix", "_apply_unitary", "_apply_kraus",
    "apply_beam_splitter", "_beam_splitter_unitary", "_pair_source_unitary",
    "apply_pair_source", "apply_retrieval", "inject_noise", "_click_kraus",
    "measure_click", "partial_trace", "joint_clicks", "_uniform_words",
    "TrialOutcome", "TrialStream", "trial_stream", "_sample_joint", "run_trial",
    "herald_category", "mode_categories", "mode_category_counts",
    "wootters_concurrence",
)


def test_replaced_paths_live_only_in_the_oracle():
    # one code path per layer: the pipeline pulls effects back and run_batch
    # samples whole chunks; the paths they replaced are test references only
    for name in ORACLE_NAMES:
        assert hasattr(oracles, name), name
        for module in (dlcz_swap, fock, protocol):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(protocol.ConditionalTables, "theta_row")
    # one herald word per trial: the per-mode herald stage is gone; the
    # interference words come from numpy's Philox, not a kernel of its own
    for name in ("_herald_ticks", "_herald_flags", "_WORDS_PER_TICK",
                 "_philox_ticks", "_mulhilo", "_PHILOX_M", "_PHILOX_BUMP"):
        assert not hasattr(protocol, name), name
    for name in ("verification_fringe", "verification_joint", "counting_joint",
                 "_readout_joints", "_JOINT_KEYS", "in_mode_noise", "_readout_lowering"):
        assert not hasattr(fock, name), name
    assert protocol.JOINT_ORDER is fock.JOINT_ORDER
    # one link model: chi = 0 selects its noise-free limit, so no signature
    # chooses a conditioning or a Bell sign, and the tables use one cutoff
    public = [getattr(m, name) for m in (dlcz_swap, fock, protocol) for name in m.__all__]
    for func in filter(inspect.isfunction, public):
        names = inspect.signature(func).parameters.keys()
        assert not {"conditioning", "bell_sign"} & names, func.__name__
    for func in (protocol.conditional_tables, protocol._tables_cached,
                 protocol.run_batch, protocol.sweep):
        assert "n_max" not in inspect.signature(func).parameters


# SwapReport fields the array readout replaced, or that nothing read
DELETED_REPORT_FIELDS = ("p_coinc_joint", "p_ev1_given_es1", "ev_joint_given_es1",
                         "count_joint_given_es1", "p_ij_detected", "p_c_detected")


def test_public_surface_is_what_the_callers_read(report_defaults, src_env):
    # the package re-exports nothing, and no public name serves tests alone
    assert dlcz_swap.__all__ == ["__version__"]
    assert not hasattr(fock, "readout_joints")
    assert not hasattr(dlcz_swap.params, "serialize_config")
    assert "parse_config" not in dlcz_swap.params.__all__
    fields = {f.name for f in dataclasses.fields(fock.SwapReport)}
    assert not fields & set(DELETED_REPORT_FIELDS)
    # one readout format: read-only arrays aligned with thetas and JOINT_ORDER
    for name in ("p_coinc", "fringe_joint", "counting_joint"):
        assert not getattr(report_defaults, name).flags.writeable, name
    # the benchmark's tracer looks up every name of each module's __all__
    for module in (dlcz_swap, analytic, dlcz_swap.params, fock, protocol, series, cli):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    # the closed forms and the parameters load without numpy
    code = ("import sys, dlcz_swap.analytic, dlcz_swap.params\n"
            "assert 'numpy' not in sys.modules, 'numpy loaded'\n")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# -- staged Schroedinger oracle ----------------------------------------------
#
# The swap and verification stages evolved as density matrices with the
# readout modes attached (six modes for the swap), built from the oracle's
# primitives only.  swap_stage and the readout pull the click effects back
# onto the spins instead and must agree to rounding.

ORACLE_TOL = 1e-12


def _attach_vacuum(state, labels):
    reg = ModeRegister(state.register.labels + tuple(labels), n_max=state.register.n_max)
    vac = vacuum(ModeRegister(tuple(labels), n_max=state.register.n_max))
    return FockState(reg, np.kron(state.rho, vac.rho))


def _oracle_link(params, spin1, spin2, n_max):
    reg = ModeRegister((spin1, spin2, "write_1", "write_2"), n_max=n_max)
    state = apply_pair_source(vacuum(reg), spin1, "write_1", params.chi)
    state = apply_pair_source(state, spin2, "write_2", params.chi)
    state = apply_beam_splitter(state, "write_1", "write_2")
    click, _ = measure_click(state, "write_1", params.eta)
    return partial_trace(click.state, (spin1, spin2))


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_link_matches_staged_oracle(defaults, boosted, n_max):
    for params in (defaults, boosted, with_overrides(defaults, chi=0.3, eta=0.9)):
        got, _ = fock._link_state(params, n_max, fock.DEFAULT_MAX_ENTRIES)
        want = _oracle_link(params, "mem_a", "mem_b1", n_max).rho
        assert np.abs(got - want).max() <= ORACLE_TOL


def test_link_matches_staged_oracle_at_small_chi(defaults):
    # the herald click has probability O(chi): measure_click must take it as
    # the trace of the click branch, since the complement of the no-click
    # probability keeps only the digits that survive 1 - (1 - O(chi))
    for chi in (1e-6, 1e-9):
        params = with_overrides(defaults, chi=chi)
        for n_max in (1, 2, 3, 4):
            got, _ = fock._link_state(params, n_max, fock.DEFAULT_MAX_ENTRIES)
            want = _oracle_link(params, "mem_a", "mem_b1", n_max).rho
            assert np.abs(got - want).max() <= ORACLE_TOL


def _oracle_spins(params, n_max):
    labels = ("mem_a", "mem_b1", "mem_b2", "mem_c")
    reg = ModeRegister(labels, n_max=n_max)
    if params.chi > 0.0:
        left = _oracle_link(params, "mem_a", "mem_b1", n_max)
        right = _oracle_link(params, "mem_b2", "mem_c", n_max)
        return FockState(reg, np.kron(left.rho, right.rho))
    # chi = 0 heralds nothing in the oracle: the noise-free pairs
    # (|10> - |01>)/sqrt(2) on (mem_a, mem_b1) and (mem_b2, mem_c), explicitly
    d = reg.dim_per_mode
    psi = np.zeros(reg.dim, dtype=np.complex128)
    for occupations, amp in (((1, 0, 1, 0), 0.5), ((1, 0, 0, 1), -0.5),
                             ((0, 1, 1, 0), -0.5), ((0, 1, 0, 1), 0.5)):
        psi[np.ravel_multi_index(occupations, (d,) * 4)] = amp
    return FockState(reg, np.outer(psi, psi.conj()))


def test_chi_zero_is_the_noise_free_limit(defaults):
    # the herald removes the vacuum term of c (x) c, so chi = 0 is the limit
    # of the heralded link, reached at order chi
    small = 1e-9
    for eta in (1.0, 0.5, 1e-6):
        for n_max in (1, 2, 3, 4):
            at_zero, _ = fock._link_state(with_overrides(defaults, chi=0.0, eta=eta),
                                          n_max, fock.DEFAULT_MAX_ENTRIES)
            near, _ = fock._link_state(with_overrides(defaults, chi=small, eta=eta),
                                       n_max, fock.DEFAULT_MAX_ENTRIES)
            assert np.abs(at_zero - near).max() <= 2 * small
    for n_max in (1, 2, 3):
        params = with_overrides(defaults, chi=0.0)
        got = heralded_spin_state(params, n_max=n_max).rho
        assert np.abs(got - _oracle_spins(params, n_max).rho).max() <= 1e-15


@pytest.mark.parametrize("chi", [1e-300, 1e-200, 1e-20])
def test_chi_to_zero_is_continuous(defaults, chi):
    # chi = 0 is an ordinary point of the link: every report field is
    # reached continuously, down to chi = 1e-300, where the herald
    # probability (order chi) is itself below 1e-300
    want = swap_pipeline(with_overrides(defaults, chi=0.0))
    got = swap_pipeline(with_overrides(defaults, chi=chi))
    for field in dataclasses.fields(fock.SwapReport):
        have, ref = getattr(got, field.name), getattr(want, field.name)
        if field.name == "rho_ac":
            have, ref = have.rho, ref.rho
        elif field.name == "p_ij_spin":
            assert have.keys() == ref.keys()
            have, ref = list(have.values()), list(ref.values())
        assert np.abs(np.asarray(have) - np.asarray(ref)).max() <= 1e-12, field.name


def _flip_link_signs(spins):
    """Phase (-1)^(n_b1 + n_c): turns each chi = 0 pair |10> - |01> into |10> + |01>."""
    d = spins.register.dim_per_mode
    occ = np.indices((d,) * 4).reshape(4, -1)
    phase = (-1.0) ** (occ[1] + occ[3])
    return FockState(spins.register, np.outer(phase, phase) * spins.rho)


def _oracle_swap_stage(params, bell_sign=-1, n_max=2):
    spins = _oracle_spins(params, n_max)
    if bell_sign == 1:
        spins = _flip_link_signs(spins)
    state = _attach_vacuum(spins, ("read_b1", "read_b2"))
    gamma1 = params.gamma0 * math.exp(-params.t1_us / params.tau0_us)
    state = apply_retrieval(state, "mem_b1", "read_b1", gamma1)
    state = apply_retrieval(state, "mem_b2", "read_b2", gamma1)
    state = apply_beam_splitter(state, "read_b1", "read_b2")
    extra1 = fock._storage(params, params.t1_us, params.z_b)[1]
    click, _ = measure_click(state, "read_b1", params.eta, p_extra=extra1)
    return click.probability, partial_trace(click.state, ("mem_a", "mem_c"))


def _oracle_readout(rho_ac, gamma, eta, p_extra, theta=None):
    state = _attach_vacuum(rho_ac, ("read_a", "read_c"))
    state = apply_retrieval(state, "mem_a", "read_a", gamma)
    state = apply_retrieval(state, "mem_c", "read_c", gamma)
    if theta is not None:
        state = apply_beam_splitter(state, "read_a", "read_c", phase=theta)
    return joint_clicks(state, "read_a", "read_c", eta, p_extra=p_extra)


# "ideal" is chi = 0, the noise-free pair.  bell_sign = 1 flips the sign of
# both links in the oracle, a local phase on mem_b1 and mem_c that the swapped
# pair must not see, so swap_stage matches the oracle for either sign.
@pytest.mark.parametrize("chi", [None, 0.0], ids=["heralded", "ideal"])
@pytest.mark.parametrize("bell_sign", [1, -1])
def test_swap_stage_matches_staged_oracle(defaults, boosted, chi, bell_sign):
    for params in (defaults, boosted):
        if chi is not None:
            params = with_overrides(params, chi=chi)
        p, rho_ac = swap_stage(params)
        p_ref, rho_ref = _oracle_swap_stage(params, bell_sign)
        # the oracle evolves complex states: its rho_ac is real to rounding,
        # an independent check that the engine's float64 states lose nothing
        assert rho_ac.rho.dtype == np.float64
        assert np.abs(rho_ref.rho.imag).max() <= 1e-15
        assert abs(p - p_ref) <= ORACLE_TOL
        assert rho_ac.register.labels == rho_ref.register.labels
        assert np.abs(rho_ac.rho - rho_ref.rho).max() <= ORACLE_TOL


def _signed_thetas(seed, n):
    """n random mixer phases on [0, 2 pi) and their negatives."""
    thetas = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, n)
    return np.concatenate([thetas, -thetas])


@pytest.mark.parametrize("chi", [None, 0.0], ids=["heralded", "ideal"])
def test_readout_joints_match_staged_oracle(boosted, chi):
    # rho_ac is real, so its fringe is even in theta; the oracle applies the
    # complex mixer phase exp(i theta n), so random +-theta check that the
    # engine's cosine series is that fringe at both signs
    params = boosted if chi is None else with_overrides(boosted, chi=chi)
    _, rho_ac = swap_stage(params)
    gamma2 = params.gamma0 * math.exp(-params.t2_us / params.tau0_us)
    extra2 = fock._storage(params, params.t2_us, params.z_ac)[1]
    thetas = _signed_thetas(17, 4)
    fringe, counting = _readout(rho_ac, gamma2, params.eta, extra2, thetas)
    for theta, got in zip(thetas, fringe):
        want = _oracle_readout(rho_ac, gamma2, params.eta, extra2, theta)
        for j, key in enumerate(fock.JOINT_ORDER):
            assert abs(got[j] - want[key]) <= ORACLE_TOL
    want = _oracle_readout(rho_ac, gamma2, params.eta, extra2)
    for j, key in enumerate(fock.JOINT_ORDER):
        assert abs(counting[j] - want[key]) <= ORACLE_TOL


@pytest.mark.parametrize("chi", [None, 0.0], ids=["heralded", "ideal"])
def test_swap_stage_zero_click_keeps_outer_marginals(defaults, chi):
    # gamma underflows to 0 and no light reaches the swap detector, so the
    # click never happens and rho_ac is the unmeasured state: the partial
    # trace of the spins, the product of the two outer marginals
    params = with_overrides(defaults, t1_us=1e6, t2_us=1e6 + 10, z_b=0.0, xi_se=0.0)
    if chi is not None:
        params = with_overrides(params, chi=chi)
    assert params.gamma0 * math.exp(-params.t1_us / params.tau0_us) == 0.0
    for n_max in (1, 2, 3):
        p, rho_ac = swap_stage(params, n_max=n_max)
        want = partial_trace(_oracle_spins(params, n_max), ("mem_a", "mem_c"))
        assert p == 0.0
        assert rho_ac.trace() == pytest.approx(1.0, abs=ORACLE_TOL)
        assert rho_ac.register.labels == want.register.labels
        assert np.abs(rho_ac.rho - want.rho).max() <= ORACLE_TOL


def _ideal_fringe(state, thetas):
    """Spin-level P(detector 1 clicks) from the general readout."""
    fringe, _ = _readout(state, 1.0, 1.0, 0.0, thetas)
    return fringe[:, 0] + fringe[:, 1]  # JOINT_ORDER: (T, T) and (T, F)


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_ideal_fringe_map_matches_readout(defaults, boosted, n_max):
    # the cached spin-level fringe map is the general readout at
    # gamma = eta = 1 and p_extra = 0, and the oracle's, at random +-theta
    d = n_max + 1
    grid = fock.default_theta_grid()
    thetas = _signed_thetas(23, 2)
    fringe_map = fock._tables(d).ideal_fringe
    for params in (defaults, boosted, with_overrides(defaults, chi=0.0)):
        report = swap_pipeline(params, thetas=grid, n_max=n_max)
        want = _ideal_fringe(report.rho_ac, grid)
        assert abs(report.v_spin - (want.max() - want.min()) / (want.max() + want.min())) \
            <= ORACLE_TOL
        entries = fock._swap_layout(report.rho_ac.rho, d).ravel()
        got = fock._fringe_cosines(tuple(thetas), n_max) @ (entries @ fringe_map)
        assert np.abs(got - _ideal_fringe(report.rho_ac, thetas)).max() <= ORACLE_TOL
        for theta, p in zip(thetas[::2], got[::2]):  # one +-theta pair
            joint = _oracle_readout(report.rho_ac, 1.0, 1.0, 0.0, theta)
            assert abs(p - joint[(True, True)] - joint[(True, False)]) <= ORACLE_TOL


EPS = np.finfo(float).eps
BOX_CHIS = (0.0, 1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.6)


@pytest.fixture(scope="module")
def box_points(defaults):
    """200 frozen-seed points of the parameter box, chi from a ladder and the
    rest uniform; z_b > z_ac is part of the box, so its warning is muted."""
    rng = np.random.default_rng(2026)
    points = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for _ in range(200):
            t2 = rng.uniform(0.5, 400.0)
            points.append(with_overrides(
                defaults, chi=float(rng.choice(BOX_CHIS)), eta=rng.uniform(0.05, 1.0),
                t2_us=t2, t1_us=rng.uniform(0.0, t2),
                z_b=float(rng.choice((0.0, 1e-3, 1e-2))),
                z_ac=float(rng.choice((0.0, 3e-3, 3e-2))),
                xi_se=rng.uniform(0.0, 1.0), gamma0=rng.uniform(0.05, 1.0)))
    return points


@pytest.mark.parametrize("n_max", [2, 3])
def test_invariants_over_the_parameter_box(box_points, n_max):
    # Exact invariants of every report, on the 16-point grid and its
    # negation.  Each bound sits a few ulps above the worst of this scan
    # (n_max 2 and 3): trace 2 eps, -lambda_min 1.9e-30 (another seed
    # reaches 0.8 eps, eigvalsh's rounding at |rho| <= 1), row sums 3.5 eps,
    # theta mirror 0 (the fringe is a cosine series, and numpy's cos is even
    # here; eps allows a vectorized cos that is not), and p_coinc peaks
    # exactly at theta = 0.  The
    # hermiticity (4.5e-33) and negative-entry (3.8e-35) residues are
    # products of two roundings, below eps**2.  The engine runs in float64.
    # p10 = p01 is left out: the mixer's truncation breaks it by up to a few
    # percent.  The Wootters concurrence never rises with the swap readout
    # delay t1 (13 points on [0, 300] us at each point's spacing): storage
    # before the swap only loses excitations.
    grid = np.array(fock.default_theta_grid())
    t1_scan = np.linspace(0.0, 300.0, 13)
    worst_locc = worst_t1_rise = -math.inf
    for params in box_points:
        report = swap_pipeline(params, grid, n_max=n_max)
        mirror = swap_pipeline(params, -grid, n_max=n_max)
        rho = report.rho_ac.rho
        for array in (rho, report.fringe_joint, report.counting_joint):
            assert array.dtype == np.float64, params
        assert abs(np.trace(rho) - 1.0) <= 4 * EPS, params
        assert np.abs(rho - rho.conj().T).max() <= EPS ** 2, params
        assert np.linalg.eigvalsh(rho).min() >= -4 * EPS, params
        for joint in (report.fringe_joint, mirror.fringe_joint, report.counting_joint):
            assert np.abs(joint.sum(axis=-1) - 1.0).max() <= 6 * EPS, params
            assert joint.min() >= -EPS ** 2, params
        assert np.abs(report.fringe_joint - mirror.fringe_joint).max() <= EPS, params
        for rep in (report, mirror):
            assert 0.0 <= rep.visibility_fringe <= 1.0, params
        assert report.p_coinc.max() - report.p_coinc[0] <= EPS * report.p_coinc.max(), params
        # local retrieval, loss and background cannot raise the concurrence
        # (Horodecki et al., RMP 81, 865 (2009)): the detected estimate
        # p_c (V - sqrt h) stays below the Wootters concurrence of rho_ac
        if math.isfinite(report.h_detected):
            p_c = report.counting_joint[1] + report.counting_joint[2]
            detected = p_c * (report.visibility_fringe - math.sqrt(report.h_detected))
            worst_locc = max(worst_locc, detected - report.concurrence_wootters)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # z_b > z_ac, as in box_points
            scan = [with_overrides(params, t1_us=t1, t2_us=t1 + params.delta_t_us)
                    for t1 in t1_scan]
        c_w = [swap_pipeline(p, (0.0,), n_max=n_max).concurrence_wootters for p in scan]
        worst_t1_rise = max(worst_t1_rise, np.diff(c_w).max())
    assert worst_locc <= 0.0
    assert worst_t1_rise <= 0.0
