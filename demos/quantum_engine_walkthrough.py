"""The truncated-Fock engine, bottom up.

Builds the quantum layer in three moves: the heralded four-memory state,
two-photon interference at the swap station, and finally the full
swap-and-verify pipeline whose fringe is compared against the closed-form
model.
"""

import math

import numpy as np

from dlcz_swap import analytic, fock
from dlcz_swap.params import experiment_defaults, with_overrides

# --- 1. heralded four-memory state -----------------------------------------
# Each link shares one spin excitation between its two memories; the
# double-excitation weight grows with chi.

params = experiment_defaults()
for chi in (params.chi, 0.05):
    spins = fock.heralded_spin_state(with_overrides(params, chi=chi))
    print(f"post-herald spin occupations at chi = {chi}:")
    for label in spins.register.labels:
        print(f"  {label:6} -> {np.round(spins.occupation(label), 5)}")
    print()

# --- 2. two photons meeting at the swap station ----------------------------
# Noise-free limit: at chi = 0 each heralded link holds exactly one
# excitation, shared by its two memories.  When both inner memories
# are excited, their photons bunch on the 50/50 mixer and the swap click
# leaves both outer memories empty: 1/3 of the swapped state, against 3/7
# if the photons could be told apart.

ideal = with_overrides(params, chi=0.0, z_b=0.0, z_ac=0.0, xi_se=0.0,
                       gamma0=1.0, eta=1.0, t1_us=0.0, t2_us=1e-9, tau0_us=1e9)
clean = fock.swap_pipeline(ideal, thetas=(0.0, math.pi))
print("two-photon interference at the swap station (noise-free):")
print(f"  swap click probability        = {clean.p_es1:.4f}  (3/8)")
print(f"  P(outer memories both empty)  = {clean.p_ij_spin['p00']:.4f}  (1/3)")
print(f"  P(outer memories both full)   = {clean.p_ij_spin['p11']:.1e}")
print(f"  fringe visibility             = {clean.visibility_fringe:.4f}")
print()

# --- 3. the full swap-and-verify pipeline ----------------------------------
# One swap click projects the two outer memories; the verification fringe
# of their retrieved fields is read against the closed-form curve.

report = fock.swap_pipeline(params)
print(f"swap click probability      : {report.p_es1:.5f}")
print(f"fringe visibility (engine)  : {report.visibility_fringe:.5f}")
v_closed = analytic.visibility(analytic.correlation_pair(params), form="exact")
print(f"fringe visibility (closed)  : {v_closed:.5f}")
print(f"suppression h (engine)      : {report.h_detected:.5f}")
print(f"Wootters concurrence        : {report.concurrence_wootters:.5f}")
print(f"click-statistics estimator  : {report.concurrence_estimator:.5f}")
print()

print("engine vs closed-form coincidence fringe:")
print(f"  {'theta':>6} {'engine':>10} {'closed':>10}")
fringe = fock.swap_pipeline(
    params, thetas=(0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi))
for theta, engine in zip(fringe.thetas, fringe.p_coinc):
    closed = analytic.coincidence_probability(theta, params)
    print(f"  {theta:6.2f} {engine:10.5f} {closed:10.5f}")
