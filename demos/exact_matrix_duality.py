"""Exact duality check on a finite birth-death chain.

Builds the generator of a discretized diffusion with drift, conjugates it
through the order indicator to get the dual generator, and confirms that
the two semigroups satisfy the duality identity at machine precision.
"""

import numpy as np

from dualgen import (
    Cone,
    ProcessSpec,
    SurvivalTransform,
    build_grid,
    discretize,
    dual_semigroup_via_F,
    duality_residual,
    semigroup,
)


def main():
    spec = ProcessSpec.one_dim(
        a=lambda x: 0.5 + 0.1 * x * x,
        da=lambda x: 0.2 * x,
        b=lambda x: -0.4 * np.tanh(x),
    )
    grid = build_grid([-4.0], [4.0], [0.25], boundary_policy="reflect")
    q = discretize(spec, grid)
    cone = Cone.pareto(1)
    op = SurvivalTransform(grid, cone)

    print("state count:", grid.n_points)
    print(f"{'t':>6}  {'residual':>12}")
    for T in semigroup(q, (0.1, 0.5, 1.0, 5.0)):
        TD = dual_semigroup_via_F(T, op)
        r = duality_residual(T, TD, op)
        print(f"{T.t:6.1f}  {r:12.3e}")


if __name__ == "__main__":
    main()
