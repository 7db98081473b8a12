"""Simulating semi-competing risks data.

Builds the diverging-dimension scenario, calibrates the censoring law to a
target rate, draws a dataset, and summarizes the four observation
scenarios.
"""

import numpy as np

from scrbar import (
    calibrate_censoring,
    classify_scenario,
    derived_dims,
    scenario_diverging_p,
    simulate_dataset,
    validate_dataset,
)

n = 300
print(f"covariates per transition at n={n}: d = {derived_dims(n)} "
      f"(p = {3 * derived_dims(n)})")

# target ~50% of subjects censored before the terminal event
scen = scenario_diverging_p(n, censor_upper=1.0, seed=42)
rng = np.random.default_rng(0)
c_max = calibrate_censoring(scen, target=0.5, rng=rng)
print(f"calibrated censoring bound: C ~ Uniform(0, {c_max:.2f})")

from dataclasses import replace
scen = replace(scen, censor_upper=c_max)
data = simulate_dataset(scen)

print(f"simulated {len(data)} subjects, dims {data.dims}")
print("structural violations:", validate_dataset(data) or "none")

counts = {}
for rec in data.records:
    s = classify_scenario(rec).value
    counts[s] = counts.get(s, 0) + 1
print("\nobservation mix:")
for name, k in sorted(counts.items()):
    print(f"  {name:<28s} {k:4d}  ({k / len(data):.1%})")

# column statistics come straight from the stored arrays
arr = data.arrays()
censored = np.mean(1 - arr["delta2"])
print(f"\nempirical terminal-event censoring: {censored:.1%}")
sojourns = (arr["y2"] - arr["y1"])[arr["delta1"] == 1]
print(f"median sojourn after the non-terminal event: {np.median(sojourns):.2f}")
