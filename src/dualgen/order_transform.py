"""Translation-invariant duality kernels of the Monte Carlo pairing.

f(x, y) = k(x - y), k the fundamental solution of |Delta|^{a/2} (Riesz),
of Delta in d >= 3 (Newtonian) or in d = 2 (logarithmic), evaluated on
arrays of |x - y| that `monte_carlo.estimate_duality` pairs over the
simulated paths.  A cone order's F is `matrix_lab.SurvivalTransform`.
The kernel constants take the gamma function from `math`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TranslationKernel",
    "riesz_normalizer",
    "sphere_area",
]


def sphere_area(d: int) -> float:
    """Area of the unit sphere in R^d."""
    return 2.0 * np.pi ** (d / 2.0) / math.gamma(d / 2.0)


def riesz_normalizer(d: int, alpha: float) -> float:
    """H_d(alpha) = 2^alpha pi^{d/2} Gamma(alpha/2) / Gamma((d-alpha)/2)."""
    return (2.0 ** alpha * np.pi ** (d / 2.0) * math.gamma(alpha / 2.0)
            / math.gamma((d - alpha) / 2.0))


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
