"""The dressing operator F for translation-invariant duality functions.

Here F is a convolution with the Riesz, Newtonian or 2-D logarithmic
kernel (`potential_F`).  Every grid point is an evaluation point, so a
point mass always sits on one: the kernel's singular value at 0 is
replaced by its average over one grid cell, the one rule for that
term.  For cone orders F is the survival transform, implemented once
as `matrix_lab.SurvivalTransform`.  scipy.special is imported on use,
by the kernel constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, Overflow
from .state_space import (
    _INDICATOR_BLOCK,
    MAX_STATES,
    Grid,
    GridFunction,
    GridMeasure,
)

__all__ = [
    "TranslationKernel",
    "potential_F",
    "riesz_normalizer",
    "sphere_area",
]

# subcells per axis of TranslationKernel.cell_average; an even number keeps
# every quadrature node off the singularity at the cell's centre
CELL_SUBDIV = 16


def sphere_area(d: int) -> float:
    """Area of the unit sphere in R^d."""
    from scipy.special import gamma
    return 2.0 * np.pi ** (d / 2.0) / gamma(d / 2.0)


def riesz_normalizer(d: int, alpha: float) -> float:
    """H_d(alpha) = 2^alpha pi^{d/2} Gamma(alpha/2) / Gamma((d-alpha)/2)."""
    from scipy.special import gamma
    return 2.0 ** alpha * np.pi ** (d / 2.0) * gamma(alpha / 2.0) / gamma((d - alpha) / 2.0)


@dataclass(frozen=True)
class TranslationKernel:
    """Fundamental-solution kernel for |Delta|^{a/2}, Delta (d>=3) or Delta (d=2)."""

    kind: str                  # 'riesz' | 'newtonian' | 'log2d'
    d: int
    alpha: float = 0.0         # only used for riesz

    def __post_init__(self):
        if self.kind == "riesz":
            if self.d < 2:
                raise ValueError("riesz kernel requires d >= 2")
            if not (0.0 < self.alpha <= 2.0):
                raise ValueError("riesz kernel requires alpha in (0, 2]")
            if self.d == 2 and self.alpha == 2.0:
                raise ValueError("(d, alpha) = (2, 2) is the log2d kernel")
        elif self.kind == "newtonian":
            if self.d < 3:
                raise ValueError("newtonian kernel requires d >= 3")
        elif self.kind == "log2d":
            if self.d != 2:
                raise ValueError("log2d kernel requires d = 2")
        else:
            raise ValueError(f"unknown kernel kind {self.kind!r}")

    @property
    def normalizer(self) -> float:
        if self.kind == "riesz":
            return riesz_normalizer(self.d, self.alpha)
        if self.kind == "newtonian":
            return -1.0 / ((self.d - 2) * sphere_area(self.d))
        return 1.0 / (2.0 * np.pi)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Kernel value as a function of |x| (singular at 0)."""
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            if self.kind == "riesz":
                return 1.0 / (self.normalizer * r ** (self.d - self.alpha))
            if self.kind == "newtonian":
                return self.normalizer / r ** (self.d - 2)
            return np.log(r) * self.normalizer

    def cell_average(self, grid: Grid) -> float:
        """Midpoint-quadrature average of the kernel over one grid cell at
        0, on CELL_SUBDIV subcells per axis."""
        h = grid.spacing
        axes = [(-0.5 + (np.arange(CELL_SUBDIV) + 0.5) / CELL_SUBDIV) * h[i]
                for i in range(grid.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        r = np.sqrt(sum(m ** 2 for m in mesh))
        return float(np.mean(self(r)))


def _check_compat(obj_len: int, grid: Grid):
    if obj_len != grid.n_points:
        raise DimensionMismatch(
            f"array of length {obj_len} on a grid of {grid.n_points} points")


def potential_F(q: GridMeasure, grid: Grid, k: TranslationKernel) -> GridFunction:
    """Convolution of the measure with a translation-invariant kernel.

    Every grid point is an evaluation point, so the singular term f(0)
    at each is replaced by the kernel's average over one grid cell
    (`TranslationKernel.cell_average`).  Built over blocks of rows, so
    no temporary holds more than _INDICATOR_BLOCK differences; each row
    is summed on its own, so the blocks do not change the result.
    """
    _check_compat(len(q.weights), grid)
    if k.d != grid.dim:
        raise DimensionMismatch("kernel and grid dimensions differ")
    n = grid.n_points
    if n > MAX_STATES:
        raise Overflow(f"{n} states exceeds the dense cap of {MAX_STATES}")
    pts = grid.points()
    diag = k.cell_average(grid)
    out = np.empty(n)
    rows = max(1, _INDICATOR_BLOCK // (n * grid.dim))
    for r in range(0, n, rows):
        diffs = pts[r:r + rows, None, :] - pts[None, :, :]      # [iy, ix]
        dist = np.linalg.norm(diffs, axis=-1)
        at_node = dist == 0.0
        vals = k(np.where(at_node, 1.0, dist))
        vals[at_node] = diag
        out[r:r + rows] = (vals * q.weights).sum(axis=1)
    return GridFunction(values=out)
