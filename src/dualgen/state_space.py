"""State-space grids, ordering cones and the duality indicator.

Grids are finite rectangular truncations of R^d with a fixed row-major
point ordering (axis 0 slowest), so every matrix built on top of them is
reproducible bit-for-bit; a measure or a function on a grid is an
array in that order.  Cones are generated by d linearly independent
vectors; the identity basis gives the Pareto cone R^d_+.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyGrid,
    NonCommensurate,
    Overflow,
    SingularBasis,
)

BOUNDARY_POLICIES = ("truncate_mass", "reflect", "absorb")

# relative tolerance for closed-cone membership at the boundary
_CONE_TOL = 1e-12

# distance, in coordinates, at which a point still counts as inside the
# box (contains_point)
_LATTICE_TOL = 1e-9

# largest grid on which dense n x n matrices are built
MAX_STATES = 4096

# entries of the (rows, n, d) difference block of duality_indicator_matrix
_INDICATOR_BLOCK = 1 << 18


@dataclass(frozen=True)
class Grid:
    """Rectangular lattice on [lower, upper] with per-axis spacing.

    The shape and the point count are computed on first use and kept:
    `discretize` reads them dozens of times per call."""

    lower: np.ndarray
    upper: np.ndarray
    spacing: np.ndarray
    boundary_policy: tuple[tuple[str, str], ...]

    @property
    def dim(self) -> int:
        return len(self.lower)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        n = np.rint((self.upper - self.lower) / self.spacing).astype(int) + 1
        return tuple(int(k) for k in n)

    @cached_property
    def n_points(self) -> int:
        return int(np.prod(self.shape))

    def axis(self, k: int) -> "Grid":
        """The 1-D grid of axis k: its range, spacing and face policies."""
        return Grid(self.lower[k:k + 1], self.upper[k:k + 1],
                    self.spacing[k:k + 1], self.boundary_policy[k:k + 1])

    def points(self) -> np.ndarray:
        """All grid points, shape (n_points, dim), row-major (axis 0 slowest)."""
        axes = [self.lower[i] + self.spacing[i] * np.arange(self.shape[i])
                for i in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel(order="C") for m in mesh], axis=-1)

    def contains_point(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - _LATTICE_TOL)
                    and np.all(x <= self.upper + _LATTICE_TOL))


def _normalize_policy(boundary_policy, dim: int):
    """Accept a single name, a per-axis list, or per-axis-end pairs."""
    if isinstance(boundary_policy, str):
        if boundary_policy not in BOUNDARY_POLICIES:
            raise ValueError(f"unknown boundary policy {boundary_policy!r}")
        return tuple(((boundary_policy, boundary_policy),) * dim)
    policy = []
    for axis_spec in boundary_policy:
        if isinstance(axis_spec, str):
            axis_spec = (axis_spec, axis_spec)
        lo, hi = axis_spec
        for name in (lo, hi):
            if name not in BOUNDARY_POLICIES:
                raise ValueError(f"unknown boundary policy {name!r}")
        policy.append((lo, hi))
    if len(policy) != dim:
        raise DimensionMismatch("boundary policy length != grid dimension")
    return tuple(policy)


def build_grid(lower, upper, spacing, boundary_policy="truncate_mass") -> Grid:
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    spacing = np.atleast_1d(np.asarray(spacing, dtype=float))
    if not (len(lower) == len(upper) == len(spacing)):
        raise DimensionMismatch("lower/upper/spacing must have equal length")
    if np.any(spacing <= 0):
        raise NonCommensurate("spacing must be positive")
    if np.any(upper <= lower):
        raise EmptyGrid("upper must exceed lower on every axis")
    ratio = (upper - lower) / spacing
    if np.any(np.abs(ratio - np.rint(ratio)) > 1e-9 * np.maximum(1.0, ratio)):
        raise NonCommensurate(f"spacing does not divide the range evenly: {ratio}")
    n = np.rint(ratio).astype(int) + 1
    if np.any(n < 2):
        raise EmptyGrid("every axis needs at least two points")
    policy = _normalize_policy(boundary_policy, len(lower))
    return Grid(lower=lower, upper=upper, spacing=spacing, boundary_policy=policy)


@dataclass(frozen=True)
class Cone:
    """Ordering cone generated by d linearly independent basis vectors."""

    basis: np.ndarray          # columns are the generating vectors e_1..e_d

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise SingularBasis("basis must be a square matrix of column vectors")
        det = np.linalg.det(basis)
        if abs(det) < 1e-12:
            raise SingularBasis("cone basis vectors are linearly dependent")
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def is_orthant(self) -> bool:
        """Whether the cone is R^d_+ as a set, whatever basis generates it."""
        return bool(cone_contains_many(self, np.eye(self.dim)).all()
                    and cone_contains_many(Cone.pareto(self.dim),
                                           self.basis.T).all())

    @classmethod
    def pareto(cls, dim: int) -> "Cone":
        return cls(basis=np.eye(dim))

    @classmethod
    def from_vectors(cls, *vectors) -> "Cone":
        return cls(basis=np.stack([np.asarray(v, float) for v in vectors], axis=-1))


def lightcone_2d() -> Cone:
    """The cone {(x, y): y >= |x|}, generated by (1,1) and (-1,1)."""
    return Cone.from_vectors([1.0, 1.0], [-1.0, 1.0])


def cone_contains_many(c: Cone, vs: np.ndarray) -> np.ndarray:
    """Vectorized membership test for an (n, d) array of vectors."""
    vs = np.asarray(vs, dtype=float)
    alpha = np.linalg.solve(c.basis, vs.T).T
    tol = _CONE_TOL * np.linalg.norm(vs, axis=-1, keepdims=True)
    return np.all(alpha >= -tol, axis=-1)


def duality_indicator_matrix(g: Grid, c: Cone) -> np.ndarray:
    """f-matrix with entry [ix, iy] = 1 iff x - y lies in the cone.

    Built over blocks of rows, so the difference tensor it tests holds at
    most _INDICATOR_BLOCK entries besides the n x n result."""
    if g.dim != c.dim:
        raise DimensionMismatch("grid and cone dimensions differ")
    n = g.n_points
    if n > MAX_STATES:
        raise Overflow(f"{n} states exceeds the dense cap of {MAX_STATES}")
    pts = g.points()
    out = np.empty((n, n))
    rows = max(1, _INDICATOR_BLOCK // (n * g.dim))
    for r in range(0, n, rows):
        diffs = pts[r:r + rows, None, :] - pts[None, :, :]
        out[r:r + rows] = cone_contains_many(
            c, diffs.reshape(-1, g.dim)).reshape(len(diffs), n)
    return out
