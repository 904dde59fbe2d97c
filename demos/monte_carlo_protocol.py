"""Shot-by-shot protocol simulation.

Runs the seeded Monte Carlo layer and checks it against the other two:
per-link herald rates against the closed form, conditional click rates
against the engine tables, and the multiplexing gain of running three
memory modes per interface instead of one.  Everything here is driven by
seeded Philox random streams, so the numbers below reproduce exactly.
"""

import numpy as np

from dlcz_swap import analytic, fock, protocol
from dlcz_swap.params import experiment_defaults, with_overrides

# A deliberately hot operating point so a short run has real statistics;
# the experiment's own rates need ~1e6 trials per digit.
params = with_overrides(experiment_defaults(), chi=0.1, eta=0.8)
n = 200_000
thetas = fock.default_theta_grid(8)

batch = protocol.run_batch(params, n, theta_grid=thetas, seed=11)
print(f"{n} trials at chi={params.chi}, eta={params.eta}, seed 11")
print(f"  heralded links        : {batch.n_eg_ab1} / {batch.n_eg_b2c} (ab1/b2c)")
print(f"  routed (common mode)  : {batch.n_routed}")
print(f"  swap clicks           : {batch.n_es}")
print(f"  fourfold coincidences : {batch.fourfold}")
print()

# --- MC estimates against the two other layers -----------------------------

tables = protocol.conditional_tables(params, thetas)
p_eg = analytic.multiplexed_eg_probability(params).exact
print("cross-layer agreement")
print(f"  herald rate    MC {batch.n_eg_ab1 / n:.5f}  closed form {p_eg:.5f}")
print(f"  P(swap click)  MC {batch.p_es:.4f} +/- {batch.p_es_se:.4f}"
      f"  engine {tables.p_swap1:.4f}")
print(f"  visibility     MC {batch.v:.3f} +/- {batch.v_se:.3f}")
print(f"  suppression h  MC {batch.h:.3f} +/- {batch.h_se:.3f}")
print(f"  concurrence    MC {batch.concurrence_raw:+.3f} +/- {batch.concurrence_se:.3f}")
print()

# --- multiplexing gain ------------------------------------------------------
# Three modes per interface nearly triple the herald rate: the exact gain
# is (1 - (1-p1)^3) / p1, just under 3 for any finite p1.

print("herald success vs mode count (same trial budget each)")
for m in (1, 2, 3):
    pm = with_overrides(params, m_modes=m)
    b = protocol.run_batch(pm, n, theta_grid=(0.0,), seed=23)
    exact = analytic.multiplexed_eg_probability(pm).exact
    print(f"  m={m}: {b.n_eg_ab1:6d} heralds  "
          f"(rate {b.n_eg_ab1 / n:.5f}, closed form {exact:.5f})")
print()

# --- determinism ------------------------------------------------------------
# Both random streams are keyed by the seed and read in order, so a rerun at
# the same seed replays every outcome.

again = protocol.run_batch(params, n, theta_grid=thetas, seed=11)
same = (again.n_es == batch.n_es
        and np.array_equal(again.fourfold_by_theta, batch.fourfold_by_theta)
        and np.array_equal(again.counting_counts, batch.counting_counts))
print(f"same-seed rerun: identical counters = {same}")
