"""Truncated-Fock engine for one heralded mode quadruple.

Four spin modes (two memory pairs) and their readout modes are modelled
exactly on a photon-number-truncated Hilbert space: pair sources, beam
splitters, retrieval as a partial spin-to-light transfer, incoherent channel
noise, and non-number-resolving click detection.  The swap pipeline
attaches no optical mode to a spin state and evaluates a parameter point in
one pass.  The heralded link is a closed form (one Hadamard product) that
depends on (chi, eta, n_max) alone, so it is cached on that key and a new
storage time reuses it.  The swap click effect is pulled back onto
(mem_b1, mem_b2) (Heisenberg picture) and contracted directly with the two
link states.  rho_ac is then forwarded once through both retrievals to the
readout state R.  From the swap click to the readout, rho_ac and R stay in
the readout layout [(n n'), (m m')] (_swap_layout), on which retrieval acts
on one mode at a time, and every table the readout reads is stored per
cutoff in that layout.  Each click probability contracts R's entries, split
into the 2 n_max + 1 orders of the mixer phase theta, with the fixed mixer
projectors, so a parameter point builds nothing larger than a few d^2 x d^2
matrices (d = n_max + 1) and no cached table holds more than d^6 entries.
Every stage conserves n_a + n_c (the herald and the swap click are
number-diagonal behind number-conserving mixers, and retrieval is phase
covariant), so the {0,1} block of rho_ac is an X state whose one coherence
is <01|rho|10>, and its Wootters concurrence is the closed form
2 max(0, |rho_01,10| - sqrt(rho_00 rho_11)).  Retrieval enters through its
exact binomial amplitudes, so a new storage time needs no matrix
exponential, and every operator that depends on d alone is built once per
cutoff.  Distinct multiplexed mode indices never interfere, so one quadruple
is the whole quantum problem and multiplexing is combinatorial
(protocol.py).  The Schrödinger-picture reference and the general Wootters
concurrence the engine is tested against live in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import expm

from . import analytic
from .params import ExperimentParams, ParamError

__all__ = [
    "DEFAULT_N_MAX",
    "DEFAULT_MAX_ENTRIES",
    "DimensionError",
    "ModeRegister",
    "FockState",
    "SwapReport",
    "JOINT_ORDER",
    "heralded_spin_state",
    "swap_stage",
    "detector_extra",
    "readout_joints",
    "swap_pipeline",
    "default_theta_grid",
]

DEFAULT_N_MAX = 2
DEFAULT_MAX_ENTRIES = 1_000_000

# Entries kept by each operator cache: the operator caches are keyed on the
# per-mode dimension d, the link on (chi, eta, n_max) and the fringe phases
# on (thetas, n_max).
OPERATOR_CACHE_SIZE = 64

# Fixed order of the joint (detector 1, detector 2) click outcomes.
JOINT_ORDER = ((True, True), (True, False), (False, True), (False, False))

class DimensionError(ValueError):
    """Register would exceed the configured density-matrix entry cap."""


@dataclass(frozen=True)
class ModeRegister:
    """Ordered set of bosonic modes, each truncated at n_max photons."""

    labels: tuple[str, ...]
    n_max: int = DEFAULT_N_MAX
    max_entries: int = DEFAULT_MAX_ENTRIES

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate mode labels in {self.labels}")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.entries > self.max_entries:
            raise DimensionError(
                f"register {self.labels} at n_max={self.n_max} needs "
                f"{self.entries} density-matrix entries > cap {self.max_entries}"
            )

    @property
    def dim_per_mode(self) -> int:
        return self.n_max + 1

    @property
    def n_modes(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.dim_per_mode ** self.n_modes

    @property
    def entries(self) -> int:
        return self.dim ** 2

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no mode {label!r} in register {self.labels}") from None


@dataclass(frozen=True)
class FockState:
    """Density matrix on a ModeRegister (flat index, C-order over modes)."""

    register: ModeRegister
    rho: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.rho.shape != (self.register.dim, self.register.dim):
            raise ValueError(
                f"rho shape {self.rho.shape} does not match register dim {self.register.dim}"
            )

    def trace(self) -> float:
        return float(np.real(np.trace(self.rho)))

    def validate(self, atol: float = 1e-10) -> None:
        """Assert unit trace, hermiticity and positivity within atol."""
        tr = np.trace(self.rho)
        if abs(tr - 1.0) > atol:
            raise ValueError(f"trace {tr} deviates from 1 by more than {atol}")
        if not np.allclose(self.rho, self.rho.conj().T, atol=atol):
            raise ValueError("density matrix is not hermitian")
        eigs = np.linalg.eigvalsh(0.5 * (self.rho + self.rho.conj().T))
        if eigs.min() < -atol:
            raise ValueError(f"negative eigenvalue {eigs.min()}")

    def occupation(self, label: str) -> np.ndarray:
        """Photon-number distribution of one mode (marginal of the diagonal)."""
        reg = self.register
        axis = reg.axis(label)
        diag = np.real(np.diag(self.rho)).reshape((reg.dim_per_mode,) * reg.n_modes)
        return diag.sum(axis=tuple(i for i in range(reg.n_modes) if i != axis))


def _lowering(d: int) -> np.ndarray:
    a = np.zeros((d, d), dtype=np.complex128)
    for n in range(1, d):
        a[n - 1, n] = math.sqrt(n)
    return a


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _mixer(d: int) -> np.ndarray:
    """50/50 mixer on two modes: |10> -> (|10> + |01>) / sqrt(2).

    exp(pi/4 (a (x) a^dag - a^dag (x) a)): the generator is anti-hermitian,
    so the matrix is exactly unitary on the truncated space; blocks with
    total photon number above n_max are redistributed within the truncated
    basis (documented truncation artifact).
    """
    a = _lowering(d)
    return expm(math.pi / 4 * (np.kron(a, a.T) - np.kron(a.T, a)))


def _read_only(array: np.ndarray) -> np.ndarray:
    """array, marked read-only: a cache hands the same array to every caller."""
    array.flags.writeable = False
    return array


def _swap_layout(m: np.ndarray, d: int) -> np.ndarray:
    """[(n m), (k l)] -> [(n k), (m l)] for an operator on two d-level modes
    (its own inverse): the readout layout, on which the retrieval map s acts
    on one mode at a time.  The trace of an operator is the sum of its
    readout-layout entries [(n n), (m m)] (_diagonal_index), not the trace of
    the reshuffled matrix."""
    return m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _diagonal_index(d: int) -> np.ndarray:
    """Flat positions, in the readout layout, of the diagonal entries
    [(n m), (n m)] of a two-mode operator, in the order of its diagonal."""
    n, m = np.divmod(np.arange(d * d), d)
    return _read_only((n * d + n) * d * d + m * d + m)


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _mixer_projectors(d: int) -> np.ndarray:
    """T[i] = the entries of (U^dag |i><i| U)^T in the readout layout, for the
    50/50 mixer U.  A diagonal effect E = diag(x) behind the mixer is then
    (x @ T).reshape(d^2, d^2) = _swap_layout(E^T), and Tr[E R] is
    (x @ T) . R'.ravel() for R' the readout layout of R."""
    u = _mixer(d)
    m = (u.conj()[:, :, None] * u[:, None, :]).transpose(0, 2, 1)  # (U^dag |i><i| U)^T
    return m.reshape(d * d, d, d, d, d).transpose(0, 1, 3, 2, 4).reshape(d * d, -1)


def _click_effects(d: int, eta: float, p_extra: float) -> dict:
    """Diagonals of the click (True) and no-click (False) POVM elements on
    one mode: no click is (1 - p_extra)(1 - eta)^n, p_extra being the
    detection probability from light outside the interfering mode."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must be in [0, 1]")
    if not 0.0 <= p_extra < 1.0:
        raise ValueError("p_extra must be in [0, 1)")
    dark = (1.0 - p_extra) * (1.0 - eta) ** np.arange(d)
    return {True: 1.0 - dark, False: dark}


# ---------------------------------------------------------------------------
# Swap pipeline: heralded spins -> swap click -> verification
# ---------------------------------------------------------------------------

SPIN_LABELS = ("mem_a", "mem_b1", "mem_b2", "mem_c")


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def default_theta_grid(n: int = 16) -> tuple[float, ...]:
    """n equally spaced mixer phases on [0, 2 pi), as a cached tuple."""
    return tuple(2.0 * math.pi * k / n for k in range(n))


def heralded_spin_state(params: ExperimentParams, n_max: int = DEFAULT_N_MAX,
                        max_entries: int = DEFAULT_MAX_ENTRIES) -> FockState:
    """Post-herald state of the four spin modes: two identical heralded links.

    Each memory pair is built from truncated two-mode squeezers, the write
    photons mixed on a beam splitter and a heralding click conditioned with
    the detector model; multi-pair corrections (order chi and up) are
    retained in the state.  At chi = 0 each link is the noise-free
    single-excitation pair (|10> - |01>)/sqrt(2), the chi -> 0 limit.
    max_entries is the size check of _link_state (a register never built).
    """
    link, _ = _link_state(params, n_max, max_entries)
    reg = ModeRegister(SPIN_LABELS, n_max=n_max, max_entries=max_entries)
    return FockState(reg, np.kron(link, link))


def _link_state(params: ExperimentParams, n_max: int,
                max_entries: int) -> tuple[np.ndarray, np.ndarray]:
    """Density matrix of one link, in the standard layout and in the readout
    layout, (outer memory, inner memory) = (mem_a, mem_b1) for the left link
    and (mem_b2, mem_c) for the right one; the links are identical
    constructions, so one matrix serves both.  The link depends on
    (chi, eta, n_max) alone, so it comes from a cache keyed on those and a
    new storage time reuses it.  max_entries is a size check on the
    four-mode herald register, which is never built; it stays because the
    benchmark passes max_entries, and goes with its N3_MAX_ENTRIES.
    """
    ModeRegister(("mem_a", "mem_b1", "write_1", "write_2"),
                 n_max=n_max, max_entries=max_entries)
    return _heralded_link(params.chi, params.eta, n_max)


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _heralded_link(chi: float, eta: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The link of _link_state, (standard layout, readout layout), read-only.

    The write photons mirror the spins in the pair state psi = c (x) c,
    c_n = sqrt(chi^n / sum_{k <= n_max} chi^k), so the click of write_1
    behind the 50/50 mixer U gives rho ~ (psi psi^dag) o M^T,
    M = U^dag (E_click (x) 1) U.  At chi = 0 psi is |10> + |01>, the
    order-sqrt(chi) term of c (x) c: the herald removes the vacuum term, so
    this is the exact chi -> 0 limit.
    """
    d = n_max + 1
    if chi > 0.0:
        weights = np.array([chi ** n for n in range(d)])
        c = np.sqrt(weights / weights.sum())
        psi = np.outer(c, c).ravel()
    else:
        psi = np.zeros(d * d)
        psi[[1, d]] = 1.0
    click = np.repeat(_click_effects(d, eta, 0.0)[True], d)
    m_t = _swap_layout((click @ _mixer_projectors(d)).reshape(d * d, d * d), d)
    rho = np.outer(psi, psi) * m_t
    p_herald = float(np.real(np.trace(rho)))
    if p_herald <= 1e-300:
        raise ValueError("herald click has zero probability")
    rho = rho / p_herald
    return _read_only(rho), _read_only(_swap_layout(rho, d))


def detector_extra(params: ExperimentParams, t_us: float, z: float) -> float:
    """Detection probability from non-interfering light at one detector.

    Background counts (z) plus spontaneous-emission leakage of unretrieved
    excitations, chi*(1-gamma(t))*xi_se*f_cav: both are spectrally
    distinguishable from the retrieved collective mode, so they click the
    detector without entering the interference.
    """
    gamma_t = analytic.retrieval_efficiency(t_us, params)
    leak = params.chi * (1.0 - gamma_t) * params.xi_se * params.f_cav
    return min(params.eta * (z + leak), 1.0 - 1e-12)


# -- readout stages ----------------------------------------------------------
#
# A readout stage acts on two spin modes: retrieval of each into its own
# vacuum readout mode, an optional mixer on the two readouts, and clicks.
# The retrieval map s relates a click effect E to its pull-back M onto the
# spins, Tr[M rho_spins] = Tr[E R], R the readout state rho_spins forwards
# to.  The swap stage pulls back its one effect (met by two links); the
# verification forwards its one state (met by eight effects).

@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _retrieval_tables(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Binomial weights and the exponents of (1 - gamma) (photons left in the
    spin) and gamma (photons moved out) of the entries s[(n, k), (o, q)] of
    _retrieval_adjoint."""
    n, k, o, q = np.indices((d,) * 4).reshape(4, -1)
    left = n - o
    valid = (left == k - q) & (left >= 0)
    comb = np.array([[math.comb(x, y) for y in range(d)] for x in range(d)], dtype=float)
    tables = (np.sqrt(comb[n, o] * comb[k, q]) * valid, left * valid, (o + q) / 2)
    return tuple(table.reshape(d * d, d * d) for table in tables)


def _retrieval_adjoint(d: int, gamma: float) -> np.ndarray:
    """Adjoint of retrieving one spin (then traced) into its vacuum readout:
    s[(n, k), (o, q)] = sum_a w[a, o, n] w[a, q, k] with the binomial
    amplitudes w[a, o, n] = <a, o| U |n, 0> = delta(a + o, n) sqrt(C(n, o))
    (1 - gamma)^(a/2) gamma^(o/2) of the retrieval's partial swap U, a beam
    splitter of angle asin(sqrt(gamma)) (Campos, Saleh & Teich, PRA 40, 1371
    (1989)).  So s = sqrt(C(n, o) C(k, q)) (1 - gamma)^a gamma^((o + q)/2)
    where a = n - o = k - q >= 0, and 0 elsewhere.  U conserves the photon
    number and a vacuum readout keeps it at n <= n_max, where the truncated
    U is exact.  s is real; the forward map is s^T."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma_t must be in [0, 1]")
    weight, left, moved = _retrieval_tables(d)
    return weight * (1.0 - gamma) ** left * gamma ** moved


def swap_stage(params: ExperimentParams, n_max: int = DEFAULT_N_MAX,
               max_entries: int = DEFAULT_MAX_ENTRIES) -> tuple[float, FockState]:
    """Retrieval + interference + click of the swap measurement.

    Returns (p_click, rho_ac): the click probability of the designated swap
    detector given the heralded quadruple, and the conditional state of the
    two outer spin modes after the click.

    Only the click effect on read_b1 is pulled back, through the swap mixer
    and both retrievals, to an operator M on (mem_b1, mem_b2); then
    p_click * rho_ac = Tr_{b1 b2}[M rho_L (x) rho_R], two matmuls on the
    links' readout layout (both from the link cache, keyed on
    (chi, eta, n_max)) without forming the four-spin state.  The product is
    rho_ac in the readout layout [(a a'), (c c')], so p_click is the sum of
    its [(n n), (m m)] entries; rho_ac is returned in the standard layout.
    A click of zero probability leaves the state unmeasured: the identity
    pulls back to the identity, so rho_ac is the product of the two outer
    marginals.  max_entries is the size check of _link_state (a register
    never built).
    """
    link, pair = _link_state(params, n_max, max_entries)
    reg = ModeRegister(("mem_a", "mem_c"), n_max=n_max, max_entries=max_entries)
    d = reg.dim_per_mode
    gamma1 = analytic.retrieval_efficiency(params.t1_us, params)
    extra1 = detector_extra(params, params.t1_us, params.z_b)
    click = np.repeat(_click_effects(d, params.eta, extra1)[True], d)
    # Constant interferometer offsets are calibrated so the heralded
    # verification fringe peaks at theta = 0, matching the closed-form
    # (1 + cos theta)/2: the swap mixer carries no phase.
    # In the readout layout, [(a a'), (b1 b1')] for the left link, the
    # partial trace is pair @ M^T @ pair, and M^T = s E^T s^T there.
    s = _retrieval_adjoint(d, gamma1)
    m = s @ (click @ _mixer_projectors(d)).reshape(d * d, d * d) @ s.T
    rho = pair @ m @ pair
    p_click = float(np.real(rho.ravel()[_diagonal_index(d)].sum()))
    if p_click <= 1e-300:
        t = link.reshape(d, d, d, d)
        marginals = np.trace(t, axis1=1, axis2=3), np.trace(t, axis1=0, axis2=2)
        return 0.0, FockState(reg, np.kron(*marginals))
    return p_click, FockState(reg, _swap_layout(rho / p_click, d))


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _phase_orders(d: int) -> np.ndarray:
    """0/1 map from the d^4 readout-layout entries [(n n'), (m m')] of a
    (mode 1, mode 2) operator to the order m' - m + n_max of their mixer
    phase, one of 2 n_max + 1."""
    e = np.arange(d ** 4)
    shift = e % d - e // d % d + d - 1
    return (shift[:, None] == np.arange(2 * d - 1)).astype(float)


def _joint_diags(d: int, eta: float, p_extra: float) -> np.ndarray:
    """diags[j]: the (port 1, port 2) click effect of JOINT_ORDER[j], a diagonal."""
    port = _click_effects(d, eta, p_extra)
    ports = np.array([port[True], port[False]])
    return (ports[:, None, :, None] * ports[None, :, None, :]).reshape(4, d * d)


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _ideal_fringe_map(d: int) -> np.ndarray:
    """F with rho'.ravel() @ F the phase-order coefficients of the spin-level
    fringe P(detector 1 clicks), rho' the readout layout of rho_ac: at
    gamma = eta = 1 and p_extra = 0 the retrieval is the identity and the
    readout state is rho_ac itself."""
    detector_1 = _joint_diags(d, 1.0, 0.0)[:2].sum(axis=0)
    return (detector_1 @ _mixer_projectors(d))[:, None] * _phase_orders(d)


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _fringe_phases(thetas: tuple[float, ...], n_max: int) -> np.ndarray:
    """exp(i theta (k - n_max)) for each theta and phase order k (read-only)."""
    if len(thetas) == 0:
        raise ParamError("theta grid must be non-empty")
    return _read_only(np.exp(1j * np.outer(thetas, np.arange(-n_max, n_max + 1))))


def _readout(rho: np.ndarray, d: int, gamma: float, eta: float, p_extra: float,
             phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """readout_joints as arrays over JOINT_ORDER, (fringe, counting), for
    rho_ac given in the readout layout."""
    diags = _joint_diags(d, eta, p_extra)
    s = _retrieval_adjoint(d, gamma)
    readout = (s.T @ rho @ s).ravel()
    # the phase-order split goes onto R's entries, so no per-cutoff table
    # holds more than the d^6 projector entries
    coeffs = diags @ (_mixer_projectors(d) @ (readout[:, None] * _phase_orders(d)))
    return np.real(phases @ coeffs.T), np.real(diags @ readout[_diagonal_index(d)])


def readout_joints(rho_ac: FockState, gamma: float, eta: float, p_extra: float,
                   thetas: Sequence[float]) -> tuple[list[dict], dict]:
    """Joint (detector 1, detector 2) click distributions, keyed by
    JOINT_ORDER, of the two readouts of rho_ac: behind the verification
    mixer at each theta (fringe), and with direct per-channel detection
    (counting).  Both outer memories are retrieved (gamma), and each
    detector has efficiency eta and extra-click probability p_extra.

    rho_ac is forwarded once through both retrievals to the readout state R
    on (read_a, read_c), which both arms share; R stays in the readout
    layout [(a a'), (c c')], where retrieval acts on one mode at a time.
    The counting arm is the click diagonals against R's diagonal entries.
    The fringe needs no R per theta: the mixer phase is exp(i theta n) on
    read_c, so an entry of R whose read_c occupations differ by k picks up
    exp(i theta k), and each probability is a trig polynomial of degree
    n_max in theta whose coefficients come from R's entries, split by phase
    order, contracted with the fixed mixer projectors.  An empty theta grid
    raises ParamError.
    """
    d = rho_ac.register.dim_per_mode
    phases = _fringe_phases(tuple(map(float, thetas)), d - 1)
    fringe, counting = _readout(_swap_layout(rho_ac.rho, d), d, gamma, eta, p_extra, phases)
    return ([dict(zip(JOINT_ORDER, row)) for row in fringe.tolist()],
            dict(zip(JOINT_ORDER, counting.tolist())))


@dataclass(frozen=True)
class SwapReport:
    """Everything the engine extracts from one parameter point.

    p_coinc uses the closed-form convention (the four initial-state branches
    summed unweighted, i.e. 4x the physical joint probability per heralded
    attempt); p_coinc_joint is the physical joint probability.  Spin-level
    quantities (p_ij_spin, v_spin, both concurrences) describe rho_ac itself;
    p_ij_detected comes from the photon-counting verification arm and feeds
    the suppression parameter h.
    """

    p_es1: float
    rho_ac: FockState
    thetas: tuple[float, ...]
    p_coinc: Mapping[float, float]
    p_coinc_joint: Mapping[float, float]
    p_ev1_given_es1: Mapping[float, float]
    ev_joint_given_es1: Mapping[float, Mapping[tuple, float]]
    count_joint_given_es1: Mapping[tuple, float]
    p_ij_spin: Mapping[str, float]
    p_ij_detected: Mapping[str, float]
    block_total: float
    visibility_fringe: float
    v_spin: float
    h_detected: float
    p_c_spin: float
    p_c_detected: float
    concurrence_wootters: float
    concurrence_estimator: float


def _visibility(fringe: np.ndarray) -> float:
    """(max - min) / (max + min) of a fringe, 0 for a fringe that is all 0."""
    hi, lo = fringe.max(), fringe.min()
    return float((hi - lo) / (hi + lo)) if hi + lo > 0 else 0.0


def swap_pipeline(params: ExperimentParams, thetas: Sequence[float] | None = None,
                  n_max: int = DEFAULT_N_MAX,
                  max_entries: int = DEFAULT_MAX_ENTRIES) -> SwapReport:
    """Full quantum simulation of one heralded swap-and-verify attempt.

    One swap_stage gives p_es1 and rho_ac (the heralded link comes from its
    cache keyed on (chi, eta, n_max)); rho_ac is then taken to the readout
    layout once and stays there: it is forwarded once to its readout state
    for the detected arms (fringe and counting), the ideal (spin-level)
    fringe is a fixed linear map of it per cutoff, both evaluated at every
    theta, and the spin-level quantities are read from its entries: the
    {0,1} block of rho_ac is an X state (n_a + n_c is conserved), so its
    Wootters concurrence is 2 max(0, |rho_01,10| - sqrt(rho_00 rho_11))
    (Wootters, PRL 80, 2245 (1998); Yu & Eberly, QIC 7, 459 (2007)).  An
    empty theta grid raises ParamError.
    """
    if thetas is None:
        thetas = default_theta_grid()
    thetas = tuple(map(float, thetas))
    phases = _fringe_phases(thetas, n_max)
    p_es1, rho_ac = swap_stage(params, n_max, max_entries)
    d = n_max + 1
    rho = _swap_layout(rho_ac.rho, d)

    gamma2 = analytic.retrieval_efficiency(params.t2_us, params)
    extra2 = detector_extra(params, params.t2_us, params.z_ac)
    fringe, counting = _readout(rho, d, gamma2, params.eta, extra2, phases)
    p_ev1 = fringe[:, 0] + fringe[:, 1]
    values = 4.0 * p_es1 * p_ev1
    p11, p10, p01, p00 = counting.tolist()
    h_det = p11 / (p10 * p01) if p10 > 0 and p01 > 0 else math.inf

    # spin-level quantities of rho_ac itself, from its {0,1} occupation block
    # |n_a n_c> = 00, 01, 10, 11: the diagonals and the one coherence
    # <01|rho|10> of the X state
    entries = rho.ravel()
    s00, s01, s10, s11 = np.real(entries[_diagonal_index(d)[[0, 1, d, d + 1]]]).tolist()
    block_total = (s00 + s01) + (s10 + s11)
    v_spin = _visibility(np.real(phases @ (entries @ _ideal_fringe_map(d))))

    sqrt_s00_s11 = math.sqrt(max(s00 * s11, 0.0))
    c_wootters = (2.0 * max(0.0, abs(rho[1, d]) - sqrt_s00_s11) / block_total
                  if block_total > 0 else 0.0)
    p_c_spin = s10 + s01
    c_estimator = max(0.0, (p_c_spin * v_spin - 2.0 * sqrt_s00_s11)
                / block_total) if block_total > 0 else 0.0

    return SwapReport(
        p_es1=p_es1,
        rho_ac=rho_ac,
        thetas=thetas,
        p_coinc=dict(zip(thetas, values.tolist())),
        p_coinc_joint=dict(zip(thetas, (p_es1 * p_ev1).tolist())),
        p_ev1_given_es1=dict(zip(thetas, p_ev1.tolist())),
        ev_joint_given_es1={theta: dict(zip(JOINT_ORDER, row))
                            for theta, row in zip(thetas, fringe.tolist())},
        count_joint_given_es1=dict(zip(JOINT_ORDER, (p11, p10, p01, p00))),
        p_ij_spin={"p00": s00, "p01": s01, "p10": s10, "p11": s11},
        p_ij_detected={"p11": p11, "p10": p10, "p01": p01, "p00": p00},
        block_total=block_total,
        visibility_fringe=_visibility(values),
        v_spin=v_spin,
        h_detected=h_det,
        p_c_spin=p_c_spin,
        p_c_detected=p10 + p01,
        concurrence_wootters=c_wootters,
        concurrence_estimator=c_estimator,
    )
