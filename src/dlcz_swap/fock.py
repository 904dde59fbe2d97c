"""Truncated-Fock engine for one heralded mode quadruple.

Four spin modes (two memory pairs) and their readout modes are modelled
exactly on a photon-number-truncated Hilbert space: pair sources, beam
splitters, retrieval as a partial spin-to-light transfer, incoherent channel
noise, and non-number-resolving click detection.  A parameter point is one
pass that attaches no optical mode to a spin state.  The heralded link is a
closed form (one Hadamard product) cached on (chi, eta, n_max), so a new
storage time reuses it.  The swap click effect is pulled back onto
(mem_b1, mem_b2) (Heisenberg picture) and contracted with the two links;
rho_ac is then forwarded once through both retrievals to the readout state
R.  rho_ac and R stay in the readout layout [(n n'), (m m')]
(_swap_layout), on which retrieval acts on one mode at a time, and each
click probability contracts R's entries, split into the 2 n_max + 1 orders
of the mixer phase theta, with fixed mixer projectors.  So a point builds
nothing larger than a few d^2 x d^2 matrices (d = n_max + 1), and the
tables that depend on the cutoff alone are built once, as one set per
cutoff (_tables) of at most d^6 entries each.  Everything is real, so the
engine runs in float64: the 50/50 mixer exp(pi/4 (a b^dag - a^dag b)) is a
rotation, real orthogonal (Campos, Saleh & Teich, PRA 40, 1371 (1989)),
retrieval is a real binomial map (so a new storage time needs no matrix
exponential), and each fringe is a cosine series in theta.  Every stage
conserves n_a + n_c, so the {0,1} block of rho_ac is an X state whose one
coherence is <01|rho|10>, and its Wootters concurrence is the closed form
2 max(0, |rho_01,10| - sqrt(rho_00 rho_11)).  Distinct multiplexed mode
indices never interfere, so one quadruple is the whole quantum problem and
multiplexing is combinatorial (protocol.py).  The Schrödinger-picture
reference and the general Wootters concurrence live in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

import numpy as np

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
    "swap_pipeline",
    "default_theta_grid",
]

DEFAULT_N_MAX = 2
DEFAULT_MAX_ENTRIES = 1_000_000

# Entries kept by each cache: the table sets are keyed on the per-mode
# dimension d, the link on (chi, eta, n_max), the fringe cosines on
# (thetas, n_max) and the default theta grids on their size.
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


@dataclass(frozen=True, eq=False)
class FockState:
    """Density matrix on a ModeRegister (flat index, C-order over modes), real
    in the engine.  == is identity: an array has no single truth value."""

    register: ModeRegister
    rho: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.rho.shape != (self.register.dim, self.register.dim):
            raise ValueError(
                f"rho shape {self.rho.shape} does not match register dim {self.register.dim}"
            )

    def trace(self) -> float:
        return float(np.trace(self.rho).real)

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
        diag = np.diag(self.rho).real.reshape((reg.dim_per_mode,) * reg.n_modes)
        return diag.sum(axis=tuple(i for i in range(reg.n_modes) if i != axis))


def _lowering(d: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, d)), 1)


def _mixer(d: int) -> np.ndarray:
    """50/50 mixer on two modes: |10> -> (|10> + |01>) / sqrt(2).

    exp(g) for g = pi/4 (a (x) a^dag - a^dag (x) a) is real orthogonal, a
    rotation, since g is real antisymmetric; on blocks with total photon
    number up to n_max it is the real Wigner d-matrix of the beam splitter
    (Campos, Saleh & Teich, PRA 40, 1371 (1989)).  Computed as
    v diag(exp(-i w)) v^dag from the eigenpairs (w, v) of the hermitian i g
    (Moler & Van Loan, SIAM Rev. 45, 3 (2003)), keeping the real part (the
    imaginary part is rounding, at most 2.7e-15 for d = 2..9).  Blocks above
    n_max are redistributed within the truncated basis (documented
    truncation artifact).  Built once per cutoff, by _tables.
    """
    a = _lowering(d)
    w, v = np.linalg.eigh(1j * math.pi / 4 * (np.kron(a, a.T) - np.kron(a.T, a)))
    return ((v * np.exp(-1j * w)) @ v.conj().T).real


def _read_only(array: np.ndarray) -> np.ndarray:
    """array, marked read-only: a cache hands the same array to every caller."""
    array.flags.writeable = False
    return array


def _swap_layout(m: np.ndarray, d: int) -> np.ndarray:
    """[(n m), (k l)] -> [(n k), (m l)] for an operator on two d-level modes
    (its own inverse): the readout layout, on which the retrieval map s acts
    on one mode at a time.  The trace of an operator is the sum of its
    readout-layout entries [(n n), (m m)] (_Tables.diagonal), not the trace
    of the reshuffled matrix."""
    return m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


class _Tables(NamedTuple):
    """The engine's read-only tables that depend on the cutoff d alone."""

    # T (d^2, d^4): T[i] is U^T |i><i| U (U the real 50/50 mixer) in the
    # readout layout, so Tr[diag(x) R] behind the mixer is (x @ T) . R'.ravel()
    # for R' the readout layout of R
    projectors: np.ndarray
    port1: np.ndarray         # (d, d^4): T summed over port 2, x @ T1 = np.repeat(x, d) @ T
    # (3, d^2, d^2): binomial weights and exponents of (1 - gamma) and gamma
    # of the entries s[(n, k), (o, q)] of _retrieval_adjoint
    retrieval: np.ndarray
    # (d^4, 2d - 1): 0/1 map from the readout-layout entries [(n n'), (m m')]
    # of a (mode 1, mode 2) operator to the order m' - m + n_max of their phase
    phase_orders: np.ndarray
    # (d^4, 2d - 1): rho'.ravel() @ F are the phase-order coefficients of the
    # spin-level fringe P(detector 1 clicks) of rho_ac (readout layout rho'),
    # which is its own readout state at gamma = eta = 1 and p_extra = 0
    ideal_fringe: np.ndarray
    diagonal: np.ndarray      # (d^2,): readout-layout positions of [(n m), (n m)]


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _tables(d: int) -> _Tables:
    """The table set of cutoff d (see _Tables), built once per cutoff."""
    u = _mixer(d)
    projectors = ((u[:, :, None] * u[:, None, :]).reshape(d * d, d, d, d, d)
                  .transpose(0, 1, 3, 2, 4).reshape(d * d, -1))
    port1 = projectors.reshape(d, d, -1).sum(axis=1)
    n, k, o, q = np.indices((d,) * 4).reshape(4, -1)
    left = n - o
    valid = (left == k - q) & (left >= 0)
    comb = np.array([[math.comb(x, y) for y in range(d)] for x in range(d)], dtype=float)
    retrieval = np.array([np.sqrt(comb[n, o] * comb[k, q]) * valid, left * valid, (o + q) / 2])
    # in readout-layout terms (n, k, o, q) are the entry [(n n'), (m m')]
    phase_orders = (q - o + d - 1)[:, None] == np.arange(2 * d - 1)
    ideal_click = (1.0 - _no_click(d, 1.0, 0.0)) @ port1
    tables = (projectors, port1, retrieval.reshape(3, d * d, d * d), phase_orders.astype(float),
              ideal_click[:, None] * phase_orders, np.flatnonzero((n == k) & (o == q)))
    return _Tables(*map(_read_only, tables))


def _no_click(d: int, eta: float, p_extra: float) -> np.ndarray:
    """Diagonal of the no-click POVM element on one mode, (1 - p_extra)
    (1 - eta)^n, p_extra being the detection probability from light outside
    the interfering mode; the click element is 1 minus it."""
    return (1.0 - p_extra) * (1.0 - eta) ** np.arange(d)


# -- swap pipeline: heralded spins -> swap click -> verification -------------

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
    retained in the state.  At chi = 0 the pair before the herald is
    |01> + |10>, and the herald leaves each link in the noise-free
    single-excitation pair (|10> - |01>)/sqrt(2), the chi -> 0 limit.
    max_entries is the size check of _link_state (a register never built).
    """
    reg = ModeRegister(("mem_a", "mem_b1", "mem_b2", "mem_c"), n_max, max_entries)
    link, _ = _link_state(params, n_max, max_entries)
    return FockState(reg, np.kron(link, link))


def _link_state(params: ExperimentParams, n_max: int,
                max_entries: int) -> tuple[np.ndarray, np.ndarray]:
    """One link (outer memory, inner memory), (standard layout, readout
    layout), from the cache keyed on (chi, eta, n_max); the links
    (mem_a, mem_b1) and (mem_b2, mem_c) are identical constructions.
    max_entries is an arithmetic size check on the four-mode herald register
    (mem_a, mem_b1, write_1, write_2), which is never built; it stays because
    the benchmark passes max_entries, and goes with its N3_MAX_ENTRIES."""
    if (n_max + 1) ** 8 > max_entries:
        raise DimensionError(f"herald register at n_max={n_max} needs {(n_max + 1) ** 8} "
                             f"density-matrix entries > cap {max_entries}")
    return _heralded_link(params.chi, params.eta, n_max)


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _heralded_link(chi: float, eta: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The link of _link_state, (standard layout, readout layout), read-only.

    The write photons mirror the spins in the pair state c (x) c, c_n =
    chi^(n/2), and the click of write_1 behind the 50/50 mixer U gives
    rho ~ (psi psi^T) o M^T, M = U^T (E_click (x) 1) U.  The click never
    fires on the vacuum, so psi = (c (x) c - |00>)/sqrt(chi), psi_ij =
    chi^((i + j - 1)/2) off |00>, gives the same rho at any chi > 0, and at
    chi = 0 (0.0**0 = 1) it is |01> + |10>, the exact limit.  The trace
    before normalization is P_herald S^2 / chi, S = sum_{k <= n_max} chi^k;
    an eta below 2**-54 rounds it to 0, a ParamError.
    """
    d = n_max + 1
    i_plus_j = np.add.outer(np.arange(d), np.arange(d)).ravel()
    psi = chi ** (np.maximum(i_plus_j - 1, 0) / 2.0) * (i_plus_j > 0)
    click = 1.0 - _no_click(d, eta, 0.0)
    m_t = _swap_layout((click @ _tables(d).port1).reshape(d * d, d * d), d)
    rho = np.outer(psi, psi) * m_t
    p_herald = float(np.trace(rho))
    if p_herald <= 1e-300:
        raise ParamError(f"herald click has zero probability at chi={chi!r}, eta={eta!r}")
    rho = rho / p_herald
    return _read_only(rho), _read_only(_swap_layout(rho, d))


def _storage(params: ExperimentParams, t_us: float, z: float) -> tuple[float, float]:
    """(gamma(t), p_extra) of a readout at storage time t, gamma evaluated
    once.  p_extra: background counts (z) plus spontaneous-emission leakage
    of unretrieved excitations (analytic._leakage); both are spectrally
    distinguishable from the retrieved collective mode, so they click the
    detector without entering the interference."""
    gamma_t = analytic.retrieval_efficiency(t_us, params)
    return gamma_t, min(params.eta * (z + analytic._leakage(gamma_t, params)), 1.0 - 1e-12)


# -- readout stages ----------------------------------------------------------
#
# A readout stage acts on two spin modes: retrieval of each into its own
# vacuum readout mode, an optional mixer on the two readouts, and clicks.
# The retrieval map s relates a click effect E to its pull-back M onto the
# spins, Tr[M rho_spins] = Tr[E R], R the readout state rho_spins forwards
# to.  The swap stage pulls back its one effect (met by two links); the
# verification forwards its one state (met by eight effects).

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
    weight, left, moved = _tables(d).retrieval
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
    links' readout layout (from the link cache) without forming the
    four-spin state.  The product is rho_ac in the readout layout
    [(a a'), (c c')], so p_click is the sum of its [(n n), (m m)] entries;
    rho_ac is returned in the standard layout.  A click of zero probability
    leaves the state unmeasured: the identity pulls back to the identity, so
    rho_ac is the product of the two outer marginals.  max_entries is the
    size check of _link_state (a register never built).
    """
    link, pair = _link_state(params, n_max, max_entries)
    reg = ModeRegister(("mem_a", "mem_c"), n_max=n_max, max_entries=max_entries)
    d = reg.dim_per_mode
    tables = _tables(d)
    gamma1, extra1 = _storage(params, params.t1_us, params.z_b)
    click = 1.0 - _no_click(d, params.eta, extra1)
    # Constant interferometer offsets are calibrated so the heralded
    # verification fringe peaks at theta = 0, matching the closed-form
    # (1 + cos theta)/2: the swap mixer carries no phase.
    # In the readout layout, [(a a'), (b1 b1')] for the left link, the
    # partial trace is pair @ M^T @ pair, and M^T = s E^T s^T there.
    s = _retrieval_adjoint(d, gamma1)
    m = s @ (click @ tables.port1).reshape(d * d, d * d) @ s.T
    rho = pair @ m @ pair
    p_click = float(rho.ravel()[tables.diagonal].sum())
    if p_click <= 1e-300:
        t = link.reshape(d, d, d, d)
        marginals = np.trace(t, axis1=1, axis2=3), np.trace(t, axis1=0, axis2=2)
        return 0.0, FockState(reg, np.kron(*marginals))
    return p_click, FockState(reg, _swap_layout(rho / p_click, d))


def _joint_diags(d: int, eta: float, p_extra: float) -> np.ndarray:
    """diags[j]: the (port 1, port 2) click effect of JOINT_ORDER[j], a diagonal."""
    dark = _no_click(d, eta, p_extra)
    ports = np.array([1.0 - dark, dark])
    return (ports[:, None, :, None] * ports[None, :, None, :]).reshape(4, d * d)


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _fringe_cosines(thetas: tuple[float, ...], n_max: int) -> np.ndarray:
    """cos(theta (k - n_max)) for each theta and phase order k (read-only)."""
    if len(thetas) == 0 or not all(map(math.isfinite, thetas)):
        raise ParamError("theta grid must be non-empty and finite")
    return _read_only(np.cos(np.outer(thetas, np.arange(-n_max, n_max + 1))))


def _readout(rho: np.ndarray, d: int, gamma: float, eta: float, p_extra: float,
             cosines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint (detector 1, detector 2) click distributions over JOINT_ORDER
    of the two readouts of rho_ac, given in the readout layout: behind the
    verification mixer at each theta of cosines (fringe, (n_theta, 4)), and
    with direct per-channel detection (counting, (4,)).  Both outer memories
    are retrieved (gamma), and each detector has efficiency eta and
    extra-click probability p_extra.

    rho_ac is forwarded once through both retrievals to the readout state R
    on (read_a, read_c), which both arms share, in the readout layout
    [(a a'), (c c')].  The counting arm is the click diagonals against R's
    diagonal entries.  The fringe needs no R per theta: the mixer phase is
    exp(i theta n) on read_c, so an entry of R whose read_c occupations
    differ by k picks up exp(i theta k), and each probability is a trig
    polynomial of degree n_max in theta whose coefficients are R's entries,
    split by phase order, contracted with the mixer projectors.  These are
    real, so the polynomial, a real probability, is their cosine series.
    """
    tables = _tables(d)
    diags = _joint_diags(d, eta, p_extra)
    s = _retrieval_adjoint(d, gamma)
    readout = (s.T @ rho @ s).ravel()
    # the phase-order split goes onto R's entries, so no per-cutoff table
    # holds more than the d^6 projector entries
    coeffs = diags @ (tables.projectors @ (readout[:, None] * tables.phase_orders))
    return cosines @ coeffs.T, diags @ readout[tables.diagonal]


@dataclass(frozen=True, eq=False)
class SwapReport:
    """Everything the engine extracts from one parameter point.

    The detected arms are read-only arrays aligned with thetas and
    JOINT_ORDER: fringe_joint (n_theta, 4) and counting_joint (4,) are the
    verification joints given the swap click, and p_coinc (n_theta,) is the
    fringe 4 p_es1 P(detector 1 clicks) in the closed-form convention (the
    four initial-state branches summed unweighted).  counting_joint feeds
    the suppression h_detected.  Spin-level quantities (p_ij_spin, v_spin,
    p_c_spin, both concurrences) describe rho_ac itself.  == is identity.
    """

    p_es1: float
    rho_ac: FockState
    thetas: tuple[float, ...]
    p_coinc: np.ndarray
    fringe_joint: np.ndarray
    counting_joint: np.ndarray
    p_ij_spin: Mapping[str, float]
    block_total: float
    visibility_fringe: float
    v_spin: float
    h_detected: float
    p_c_spin: float
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

    One swap_stage gives p_es1 and rho_ac, which is taken to the readout
    layout once and stays there: it is forwarded once for the detected arms
    (_readout), kept as fringe_joint and counting_joint over (thetas,
    JOINT_ORDER); the spin-level fringe is a fixed linear map of it per
    cutoff; and the spin-level quantities are read from its entries: the
    {0,1} block is an X state (n_a + n_c is conserved), so its Wootters
    concurrence is 2 max(0, |rho_01,10| - sqrt(rho_00 rho_11)) (Wootters,
    PRL 80, 2245 (1998); Yu & Eberly, QIC 7, 459 (2007)).  An empty theta
    grid, or one with a non-finite theta, raises ParamError.
    """
    if thetas is None:
        thetas = default_theta_grid()
    thetas = tuple(map(float, thetas))
    cosines = _fringe_cosines(thetas, n_max)
    p_es1, rho_ac = swap_stage(params, n_max, max_entries)
    d = n_max + 1
    tables = _tables(d)
    rho = _swap_layout(rho_ac.rho, d)

    gamma2, extra2 = _storage(params, params.t2_us, params.z_ac)
    fringe, counting = _readout(rho, d, gamma2, params.eta, extra2, cosines)
    p_coinc = 4.0 * p_es1 * (fringe[:, 0] + fringe[:, 1])
    p11, p10, p01, _ = counting.tolist()
    h_det = p11 / (p10 * p01) if p10 > 0 and p01 > 0 else math.inf

    # spin-level quantities of rho_ac itself, from its {0,1} occupation block
    # |n_a n_c> = 00, 01, 10, 11: the diagonals and the one coherence
    # <01|rho|10> of the X state
    entries = rho.ravel()
    s00, s01, s10, s11 = entries[tables.diagonal[[0, 1, d, d + 1]]].tolist()
    block_total = (s00 + s01) + (s10 + s11)
    v_spin = _visibility(cosines @ (entries @ tables.ideal_fringe))

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
        p_coinc=_read_only(p_coinc),
        fringe_joint=_read_only(fringe),
        counting_joint=_read_only(counting),
        p_ij_spin={"p00": s00, "p01": s01, "p10": s10, "p11": s11},
        block_total=block_total,
        visibility_fringe=_visibility(p_coinc),
        v_spin=v_spin,
        h_detected=h_det,
        p_c_spin=p_c_spin,
        concurrence_wootters=c_wootters,
        concurrence_estimator=c_estimator,
    )
