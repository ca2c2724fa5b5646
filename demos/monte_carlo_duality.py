"""Monte Carlo check of Brownian self-duality.

Standard Brownian motion is self-dual for the order indicator
f(x, y) = 1{x >= y}: both sides of the pairing equal Phi((x - y)/sqrt(t)).
The demo estimates both sides from independent path ensembles and compares
them to the closed form.
"""

import numpy as np
from scipy.stats import norm

from dualgen import (Cone, PathConfig, ProcessSpec, closed_form_dual,
                     estimate_duality)


def main():
    spec = ProcessSpec.one_dim(a=lambda x: 0.5 * np.ones_like(np.asarray(x, float)),
                               da=lambda x: np.zeros_like(np.asarray(x, float)))
    rep = closed_form_dual(spec)
    cfg = PathConfig(n_paths=50000, dt=1e-3, t_end=1.0, seed=2024)

    print(f"{'x':>5} {'y':>5} {'lhs':>8} {'rhs':>8} {'exact':>8} {'z':>6}")
    for x, y in [(0.0, 0.0), (1.0, 0.0), (0.5, -0.5), (2.0, 1.0)]:
        est = estimate_duality(spec, rep.dual_spec, ("cone", Cone.pareto(1)),
                               x, y, 1.0, cfg, dual_report=rep)
        exact = norm.cdf(x - y)
        print(f"{x:5.1f} {y:5.1f} {est.lhs_mean:8.4f} {est.rhs_mean:8.4f} "
              f"{exact:8.4f} {est.z_score:6.2f}")


if __name__ == "__main__":
    main()
