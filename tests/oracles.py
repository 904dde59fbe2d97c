"""Reference implementations the package's fast paths are tested against.

* The Schrödinger-picture toolkit: density matrices evolved mode by mode
  (pair sources, beam splitters at any angle, retrieval, noise, clicks).
  The staged six-mode oracle in test_fock.py builds the swap and the
  readouts from it; the engine pulls click effects back onto the spins
  instead and must agree to rounding.
* The general Wootters concurrence (spin-flip recipe with a 4x4
  eigenvalue problem); the engine reads the concurrence of its X-state
  block in closed form and must agree to rounding.
* The scalar trial loop: one protocol repetition from its per-trial doubles.
  run_batch makes the same doubles from raw Philox words, chunk by chunk,
  and must give the same counts.
* The per-mode herald stage: 2m Bernoulli modes per trial, reduced to the
  herald category.  run_batch draws the category from one word per trial,
  and must match it in distribution.

Operations are functional: each returns a new FockState.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import expm

from dlcz_swap import analytic, protocol
from dlcz_swap.fock import OPERATOR_CACHE_SIZE, FockState, ModeRegister, _lowering
from dlcz_swap.params import ExperimentParams, ParamError
from dlcz_swap.protocol import JOINT_ORDER, ConditionalTables, conditional_tables

# -- Schrödinger-picture toolkit ---------------------------------------------


@dataclass(frozen=True)
class ClickOutcome:
    """One branch of a click/no-click measurement."""

    clicked: bool
    probability: float
    state: FockState | None  # None when the branch has zero probability


def vacuum(register: ModeRegister) -> FockState:
    rho = np.zeros((register.dim, register.dim), dtype=np.complex128)
    rho[0, 0] = 1.0
    return FockState(register, rho)


def _tensor(state: FockState) -> np.ndarray:
    d, L = state.register.dim_per_mode, state.register.n_modes
    return state.rho.reshape((d,) * (2 * L))


def _apply_matrix(tensor: np.ndarray, m: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Contract matrix m onto the given tensor axes (joint, C-order)."""
    axes = list(axes)
    dim = math.prod(tensor.shape[a] for a in axes)
    perm = axes + [a for a in range(tensor.ndim) if a not in axes]
    t = m @ np.transpose(tensor, perm).reshape(dim, -1)
    t = t.reshape([tensor.shape[a] for a in perm])
    return np.transpose(t, np.argsort(perm))


def _apply_unitary(state: FockState, u: np.ndarray, labels: Sequence[str]) -> FockState:
    reg = state.register
    ket = [reg.axis(l) for l in labels]
    t = _apply_matrix(_tensor(state), u, ket)
    t = _apply_matrix(t, u.conj(), [reg.n_modes + a for a in ket])
    return FockState(reg, t.reshape(reg.dim, reg.dim))


def _apply_kraus(state: FockState, kraus: Sequence[np.ndarray], labels: Sequence[str]) -> FockState:
    reg = state.register
    ket = [reg.axis(l) for l in labels]
    bra = [reg.n_modes + a for a in ket]
    t = _tensor(state)
    out = np.zeros_like(t)
    for k in kraus:
        out += _apply_matrix(_apply_matrix(t, k, ket), k.conj(), bra)
    return FockState(reg, out.reshape(reg.dim, reg.dim))


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _beam_splitter_unitary(d: int, phase: float, angle: float) -> np.ndarray:
    """Two-mode mixer: |10> -> cos(angle)|10> + e^{i phase} sin(angle)|01>.

    The generator is anti-hermitian, so the matrix is exactly unitary on the
    truncated space; blocks with total photon number above n_max are
    redistributed within the truncated basis (documented truncation artifact).
    """
    a = _lowering(d)
    ad = a.conj().T
    g = (np.exp(1j * phase) * np.kron(a, ad)
         - np.exp(-1j * phase) * np.kron(ad, a))
    return expm(angle * g)


def apply_beam_splitter(state: FockState, mode1: str, mode2: str,
                        phase: float = 0.0, angle: float = math.pi / 4) -> FockState:
    """50/50 (by default) beam splitter between two modes.

    Convention: a photon entering mode1 exits as
    (|mode1> + e^{i phase} |mode2>) / sqrt(2); mode1 plays the role of the
    first output port.
    """
    u = _beam_splitter_unitary(state.register.dim_per_mode, float(phase), float(angle))
    return _apply_unitary(state, u, (mode1, mode2))


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _pair_source_unitary(d: int, chi: float) -> np.ndarray:
    """Unitary whose action on |00> is the truncated two-mode squeezer.

    First column: amplitudes proportional to chi^{n/2} on |n,n>, renormalized
    over n <= n_max; completed to a full unitary by a Householder reflection
    (only the vacuum column is ever used, see apply_pair_source precondition).
    """
    eye = np.eye(d * d, dtype=np.complex128)
    weights = np.array([chi ** n for n in range(d)])
    target = np.zeros(d * d, dtype=np.complex128)
    target[np.arange(d) * (d + 1)] = np.sqrt(weights / weights.sum())
    w = eye[0] - target
    norm2 = np.real(np.vdot(w, w))
    if norm2 < 1e-30:
        return eye
    return eye - 2.0 * np.outer(w, w.conj()) / norm2


def apply_pair_source(state: FockState, spin: str, optical: str, chi: float) -> FockState:
    """Emit correlated spin-photon pairs into a vacuum mode pair.

    Joint amplitudes c_n on |n,n> proportional to chi^{n/2} up to n_max,
    renormalized.  Precondition: the (spin, optical) pair is in vacuum;
    sources on disjoint pairs therefore commute.
    """
    if not 0.0 <= chi < 1.0:
        raise ValueError("chi must be in [0, 1)")
    if chi == 0.0:
        return state
    for label in (spin, optical):
        if abs(state.occupation(label)[0] - 1.0) > 1e-9:
            raise ValueError(f"pair source target mode {label!r} is not in vacuum")
    u = _pair_source_unitary(state.register.dim_per_mode, float(chi))
    return _apply_unitary(state, u, (spin, optical))


def apply_retrieval(state: FockState, spin: str, optical: str, gamma_t: float) -> FockState:
    """Transfer each spin excitation to the readout mode with probability gamma_t.

    Unitary partial swap (beam-splitter form, angle asin(sqrt(gamma))): a
    multi-excitation spin mode releases a Binomial(n, gamma) photon number;
    the unretrieved fraction stays in the spin mode and is traced out later.
    """
    if not 0.0 <= gamma_t <= 1.0:
        raise ValueError("gamma_t must be in [0, 1]")
    u = _beam_splitter_unitary(state.register.dim_per_mode, 0.0,
                               math.asin(math.sqrt(gamma_t)))
    return _apply_unitary(state, u, (spin, optical))


def inject_noise(state: FockState, optical: str, p_noise: float) -> FockState:
    """Mix in one uncorrelated photon with probability p_noise.

    rho <- (1 - p) rho + p * (photon-added rho, renormalized).  The addition
    is truncated at n_max: weight already at the cap cannot be promoted and
    is dropped from the added branch before renormalizing.
    """
    if not 0.0 <= p_noise <= 1.0:
        raise ValueError("p_noise must be in [0, 1]")
    if p_noise == 0.0:
        return state
    reg = state.register
    added = _apply_unitary(state, _lowering(reg.dim_per_mode).conj().T, (optical,)).rho
    norm = np.real(np.trace(added))
    if norm <= 0.0:
        raise ValueError(f"cannot add a photon to mode {optical!r}: no headroom below n_max")
    return FockState(reg, (1.0 - p_noise) * state.rho + (p_noise / norm) * added)


def _click_kraus(d: int, eta: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """No-click Kraus and the list of k-photons-detected Kraus operators."""
    no_click = np.diag((1.0 - eta) ** (np.arange(d) / 2.0)).astype(np.complex128)
    detected = []
    for k in range(1, d):
        m = np.zeros((d, d), dtype=np.complex128)
        for n in range(k, d):
            m[n - k, n] = math.sqrt(math.comb(n, k) * (eta ** k) * ((1.0 - eta) ** (n - k)))
        detected.append(m)
    return no_click, detected


def measure_click(state: FockState, optical: str, eta: float,
                  p_extra: float = 0.0) -> tuple[ClickOutcome, ClickOutcome]:
    """Non-number-resolving detection on one mode.

    POVM: no-click element diag((1-eta)^n); click is the complement.
    p_extra is the probability of a detection event from light that does not
    occupy the interfering mode: the no-click element is scaled by
    (1 - p_extra) and the click branch mixes in the unmeasured state with
    weight p_extra.  Returns (click_branch, no_click_branch) with normalized
    conditional states; a zero-probability branch carries state=None.
    """
    if not (0.0 <= eta <= 1.0 and 0.0 <= p_extra < 1.0):
        raise ValueError("need eta in [0, 1] and p_extra in [0, 1)")
    reg = state.register
    no_click, detected = _click_kraus(reg.dim_per_mode, eta)
    nc_state = _apply_kraus(state, [no_click], (optical,))
    p_nc0 = float(np.real(np.trace(nc_state.rho)))
    c_rho = _apply_kraus(state, detected, (optical,)).rho  # n_max >= 1: never empty
    c_rho = (1.0 - p_extra) * c_rho + p_extra * state.rho
    # the trace of the click branch itself, not the complement of the
    # no-click one: a rare click would cancel to a few digits there
    p_c = float(np.real(np.trace(c_rho)))
    p_nc = (1.0 - p_extra) * p_nc0
    click = ClickOutcome(True, p_c, FockState(reg, c_rho / p_c) if p_c > 1e-300 else None)
    noclick = ClickOutcome(False, p_nc,
                           FockState(reg, nc_state.rho / p_nc0) if p_nc > 1e-300 else None)
    return click, noclick


def partial_trace(state: FockState, keep: Sequence[str]) -> FockState:
    """Trace out all modes not in ``keep`` (order of ``keep`` is preserved)."""
    reg = state.register
    keep = tuple(keep)
    for label in keep:
        reg.axis(label)
    t = _tensor(state)
    # trace one dropped mode at a time, tracking the shrinking axis layout
    labels = list(reg.labels)
    for label in [l for l in reg.labels if l not in keep]:
        i = labels.index(label)
        t = np.trace(t, axis1=i, axis2=len(labels) + i)
        labels.pop(i)
    perm = [labels.index(l) for l in keep]
    t = np.transpose(t, perm + [len(labels) + p for p in perm])
    new_reg = ModeRegister(keep, n_max=reg.n_max, max_entries=reg.max_entries)
    return FockState(new_reg, t.reshape(new_reg.dim, new_reg.dim))


def joint_clicks(state: FockState, mode1: str, mode2: str, eta: float,
                 p_extra: float = 0.0) -> dict:
    """Joint click distribution over two modes: keys (bool, bool)."""
    out = {}
    for first in measure_click(state, mode1, eta, p_extra=p_extra):
        if first.state is None:
            out[(first.clicked, True)] = out[(first.clicked, False)] = 0.0
            continue
        for second in measure_click(first.state, mode2, eta, p_extra=p_extra):
            out[(first.clicked, second.clicked)] = first.probability * second.probability
    return out


# -- concurrence ---------------------------------------------------------------

# sigma_y (x) sigma_y, the spin flip of the Wootters concurrence
_SIGMA_YY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))


def wootters_concurrence(rho4: np.ndarray) -> float:
    """Concurrence of a two-qubit density matrix (standard spin-flip recipe)."""
    if rho4.shape != (4, 4):
        raise ValueError("expected a 4x4 two-qubit density matrix")
    tr = np.real(np.trace(rho4))
    if abs(tr - 1.0) > 1e-8:
        raise ValueError("two-qubit density matrix must be normalized")
    r = rho4 @ _SIGMA_YY @ rho4.conj() @ _SIGMA_YY
    eigs = np.linalg.eigvals(r)
    lam = np.sqrt(np.sort(np.abs(np.real(eigs)))[::-1])
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


# -- scalar trial loop --------------------------------------------------------

_WORDS_PER_ROUTED = 3  # interference words per routed trial: swap, fringe, counting

# herald categories in the order of protocol._herald_bounds
HERALD_CATEGORIES = ("common", "both", "a-only", "b-only", "none")


def _uniform_words(seed: int, stream: int, first: int, n: int) -> np.ndarray:
    """Doubles of words [first, first + n) of one stream, drawn from its start."""
    bg = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    return np.random.Generator(bg).random(first + n)[first:]


@dataclass(frozen=True)
class TrialOutcome:
    """Everything observable about a single protocol repetition.

    eg_ab1 / eg_b2c: the link heralded in some mode; routed: some index
    heralded in both links, so the switch fed it to the swap station.  A
    swap click implies routing, and routing implies both link heralds.
    """

    eg_ab1: bool
    eg_b2c: bool
    routed: bool
    es_click: bool
    ev1_click: bool
    ev2_click: bool
    a_click: bool
    c_click: bool
    t1_us: float
    t2_us: float
    theta: float

    def __post_init__(self):
        if self.es_click and not self.routed:
            raise ValueError("swap click without routing")
        if self.routed and not (self.eg_ab1 and self.eg_b2c):
            raise ValueError("routing without both link heralds")


@dataclass(frozen=True)
class TrialStream:
    """Uniform draws for one trial, sliced from the global counter streams."""

    herald: float             # one double: the herald category
    interference: np.ndarray  # 3 doubles: swap, fringe joint, counting joint

    def __post_init__(self):
        if len(self.interference) != _WORDS_PER_ROUTED:
            raise ValueError("interference slice must hold 3 doubles")


def trial_stream(seed: int, index: int, stream_offset: int = 0,
                 routed_rank: int = 0) -> TrialStream:
    """The exact uniforms trial `index` consumes inside run_batch when
    `routed_rank` trials before it were routed: word `index` of the herald
    stream, and words 3 * routed_rank .. 3 * routed_rank + 2 of the
    interference one (read only if this trial is routed too)."""
    seed = protocol._check_int(seed, "seed")
    if index < 0 or routed_rank < 0:
        raise ParamError("trial index and routed rank must be >= 0")
    herald = float(_uniform_words(seed, stream_offset, index, 1)[0])
    interference = _uniform_words(seed, stream_offset + 1,
                                  _WORDS_PER_ROUTED * routed_rank, _WORDS_PER_ROUTED)
    return TrialStream(herald=herald, interference=interference)


def herald_category(params: ExperimentParams, u: float) -> int:
    """Index into HERALD_CATEGORIES of the herald uniform u: the number of
    the package's cumulative category bounds at or below u."""
    return int(np.searchsorted(protocol._herald_bounds(params), u, side="right"))


def mode_categories(params: ExperimentParams, herald: np.ndarray) -> np.ndarray:
    """Herald category of each row of per-mode uniforms, shape (..., 2m),
    link A-B1's modes first.

    The physics reference: each mode heralds when its uniform is below the
    single-mode herald probability, and the switch needs some index that
    heralds in both links.
    """
    m = params.m_modes
    hits = np.asarray(herald) < analytic.single_mode_herald_probability(params)
    a, b = hits[..., :m], hits[..., m:2 * m]
    any_a, any_b = a.any(axis=-1), b.any(axis=-1)
    return np.select([(a & b).any(axis=-1), any_a & any_b, any_a, any_b],
                     [0, 1, 2, 3], default=4)


def mode_category_counts(params: ExperimentParams, n_trials: int, seed: int) -> np.ndarray:
    """Counts over HERALD_CATEGORIES of n_trials per-mode herald stages, from
    a generator of its own, in blocks of at most 1000 trials."""
    rng = np.random.default_rng(seed)
    counts = np.zeros(len(HERALD_CATEGORIES), dtype=np.int64)
    for lo in range(0, n_trials, 1000):
        block = rng.random((min(1000, n_trials - lo), 2 * params.m_modes))
        counts += np.bincount(mode_categories(params, block),
                              minlength=len(HERALD_CATEGORIES))
    return counts


def _sample_joint(cdf: np.ndarray, u: float) -> tuple:
    k = int(np.searchsorted(cdf, u, side="right"))
    return JOINT_ORDER[min(k, 3)]


def run_trial(params: ExperimentParams, stream: TrialStream, theta: float,
              tables: Optional[ConditionalTables] = None) -> TrialOutcome:
    """Play one repetition using the supplied per-trial uniforms.

    The herald uniform picks the herald category; the swap is attempted
    only when some index heralded in both links.  Swap and verification
    outcomes come from the engine tables.  Failures are data, not errors.
    """
    theta = float(theta)
    category = HERALD_CATEGORIES[herald_category(params, stream.herald)]
    routed = category == "common"

    es = ev1 = ev2 = a_click = c_click = False
    if routed:
        # engine tables are only defined (and only needed) when a swap runs
        if tables is None or theta not in tables.thetas:
            tables = conditional_tables(params, (theta,))
        es = bool(stream.interference[0] < tables.p_swap1)
        if es:
            row = tables.fringe_cdf[tables.thetas.index(theta)]
            ev1, ev2 = _sample_joint(row, stream.interference[1])
            a_click, c_click = _sample_joint(tables.counting_cdf, stream.interference[2])

    return TrialOutcome(
        eg_ab1=category in ("common", "both", "a-only"),
        eg_b2c=category in ("common", "both", "b-only"),
        routed=routed,
        es_click=bool(es), ev1_click=bool(ev1), ev2_click=bool(ev2),
        a_click=bool(a_click), c_click=bool(c_click),
        t1_us=params.t1_us, t2_us=params.t2_us, theta=theta,
    )
