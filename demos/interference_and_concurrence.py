"""From correlations to visibility, suppression, and concurrence.

The swapped two-memory state is verified by interfering the two retrieved
fields.  Three numbers summarize the verification: the fringe visibility V,
the two-photon suppression h, and the concurrence estimate built from both.
This script evaluates all three from the closed-form model and then sweeps
the storage time until the concurrence changes sign.
"""

import math

import numpy as np

from dlcz_swap import analytic
from dlcz_swap.params import at_t2, experiment_defaults

params = experiment_defaults()
corr = analytic.correlation_pair(params)

print(f"correlations at the default readout times "
      f"(t1={params.t1_us:.0f}us, t2={params.t2_us:.0f}us)")
print(f"  g_b  = {corr.g_b:.3f}")
print(f"  g_ac = {corr.g_ac:.3f}")
print()

v_exact = analytic.visibility(corr, form="exact")
v_approx = analytic.visibility(corr, form="approx")
h = analytic.suppression(corr)
print("verification quality")
print(f"  visibility (exact form)  V = {v_exact:.4f}")
print(f"  visibility (approx form) V = {v_approx:.4f}")
print(f"  suppression parameter    h = {h:.4f}   (sqrt(h) = {math.sqrt(h):.4f})")
print(f"  entangled iff V > sqrt(h): margin = {analytic.margin(corr):+.4f}")
print()

# the interference fringe itself: coincidence probability vs detection phase
print("coincidence fringe (closed form)")
for theta in np.linspace(0.0, math.pi, 5):
    p = analytic.coincidence_probability(theta, params)
    bar = "#" * int(round(40 * p / analytic.coincidence_probability(0.0, params)))
    print(f"  theta = {theta:5.2f}  P = {p:.5f}  {bar}")
print()

# --- sweep the storage time until the concurrence changes sign ------------
# Both readouts march forward together, 2us apart.  The concurrence
# estimator is p_c * (V - sqrt(h)); its sign flips where V = sqrt(h),
# independent of the p_c normalization.


print("concurrence sign vs verification readout time (2us readout spacing)")
print(f"  {'t2 [us]':>8} {'V - sqrt(h)':>12} {'mean g':>8}")
for t2 in range(2, 72, 10):
    c = analytic.correlation_pair(at_t2(params, t2))
    print(f"  {t2:8d} {analytic.margin(c):12.4f} {(c.g_b + c.g_ac) / 2:8.2f}")

t2_star = analytic.zero_crossing_t2(params)
c_star = analytic.correlation_pair(at_t2(params, t2_star))
print(f"\nzero crossing at t2 = {t2_star:.2f} us, "
      f"where the mean correlation is {(c_star.g_b + c_star.g_ac) / 2:.2f}")
