"""Unpenalized fitting under both baseline specifications.

Fits the Weibull and Bernstein-sieve models to the same simulated data,
compares the recovered parameters with the generating truth, and selects
Bernstein degrees by BIC.
"""

import numpy as np

from scrbar import (
    FitConfig,
    bic_degree_select,
    cumulative_hazard,
    fit_unpenalized,
    scenario_diverging_p,
    simulate_dataset,
)

scen = scenario_diverging_p(400, censor_upper=32.0, seed=5)
data = simulate_dataset(scen)
print(f"n={len(data)}, p={data.p}, censoring "
      f"{np.mean(1 - data.arrays()['delta2']):.0%}")

fw = fit_unpenalized(data, FitConfig(baseline="weibull"))
print(f"\nWeibull fit: loglik {fw.loglik:.2f}, converged {fw.converged} "
      f"in {fw.n_iter} iterations")
print(f"  log alpha: {fw.params.nuisance.baseline.log_alpha.round(2)}"
      f"   truth {np.round(scen.log_alpha, 2)}")
print(f"  log tau:   {fw.params.nuisance.baseline.log_tau.round(2)}"
      f"   truth {np.round(scen.log_tau, 2)}")
print(f"  frailty variance: {fw.params.nuisance.gamma:.3f}   truth {scen.gamma}")
print(f"  beta1 head: {fw.params.beta.beta1[:5].round(2)} "
      f"  truth {scen.beta.beta1[:5]}")

fb = fit_unpenalized(data, FitConfig(baseline="bernstein", degrees=(2, 2, 3)))
print(f"\nBernstein fit m=(2,2,3): loglik {fb.loglik:.2f}, converged {fb.converged}")
print(f"  beta1 head: {fb.params.beta.beta1[:5].round(2)}")

spec = fb.params.nuisance.baseline
grid = np.linspace(0.5, spec.supports[0][1] * 0.9, 5)
true_ch = np.exp(scen.log_tau[0]) * grid ** np.exp(scen.log_alpha[0])
est_ch = cumulative_hazard(grid, spec, 1)
print("\ntransition-1 cumulative hazard, true vs sieve estimate:")
for t, a, b in zip(grid, true_ch, est_ch):
    print(f"  t={t:7.2f}   true {a:8.4f}   estimated {b:8.4f}")

cands = [(2, 2, 3), (3, 3, 3), (5, 5, 6)]
best, table = bic_degree_select(data, cands)
print(f"\nBIC degree selection over {cands}:")
for row in table:
    mark = "  <- argmin" if row["degrees"] == best else ""
    print(f"  m={row['degrees']}: loglik {row['loglik']:.2f}, "
          f"BIC {row['bic']:.1f}{mark}")
