"""Generator specifications and their discretization to finite Q-matrices.

A ProcessSpec declares drift, diffusion and jump parts of a Levy-type
generator  L g = sum a_ij d2g/dxi dxj + b . grad g + integral terms,
each part once: `ProcessSpec.__post_init__` (with
`AtomicJumpKernel.__post_init__` for its channels) is the one place that
decides what a spec declares, a coefficient generic or per axis and a
jump channel a displacement of the state's dimension, so no consumer
probes a spec for the form of a part.
Discretization uses upwind first differences for the drift, central
second differences with the positive 7-point stencil for cross terms,
and midpoint quadrature per grid cell for jump kernels, so conditional
positivity holds by construction.  Every kernel that lives on a grid
supplies one thing, `generator_matrix(grid)`: its n x n jump-generator
rows, diagonal included, which `discretize` adds to the stencil rows; a
separable kernel's are the Kronecker sum of its components' 1-D rows.
One target map, `map_targets`, places every move on a grid: each stencil
move (two neighbours per axis, two cross moves per pair of axes, the
upwind drift move) as a displacement of the live states, and every jump
target.  It rounds a point to its nearest grid point and folds each axis
on its own at the faces (`_fold`, on integer coordinates, which nothing
else calls); a move that leaves a truncate_mass face on any axis has no
target.  What such a move does is the one difference between the two
row builders: a stencil move's mass is killed, a jump is left out of its
row (`_place` says why).
`ProcessSpec.drift_at` and `diffusion_at` are the only coefficient
evaluators, and `AtomicJumpKernel.rates_at` and `rate_derivs_at` (one
evaluator, `_evaluate`) the only evaluators of channel rates and their
derivatives; `discretize`, the simulator and the dual builder all call
them, so both verification tracks see the same drift.  The drift is
declared once: a compensated jump part is declared as the uncompensated
part with drift b - sum_{|w| <= c} r(x) w.
`discretize` evaluates the coefficients at every live state in one call
each and then assembles each stencil move for all states at once with
array writes, accumulating every entry in the same order as a
state-by-state loop would, so Q is the same to the bit.  NaN or inf
coefficients raise NonFiniteCoefficient instead of vanishing from the
stencil.  Separability is decided here, from the spec: when it declares
per-axis coefficients, separable jumps and no absorbing face, Q is the
Kronecker sum of per-axis generators, and `discretize` hands over only
those, in `QMatrix.generators`, each the 1-D discretization of its axis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Protocol

import numpy as np

from .errors import (
    CFLWarning,
    ClippingWarning,
    DimensionMismatch,
    NonFiniteCoefficient,
    NotSeparable,
    Overflow,
    StructureViolation,
    UnsupportedScheme,
)
from .state_space import MAX_STATES, Grid

__all__ = [
    "ProcessSpec",
    "GridJumpKernel",
    "AtomicJumpKernel",
    "DensityJumpKernel",
    "SeparableJumpKernel",
    "QMatrix",
    "ValidationReport",
    "discretize",
    "map_targets",
    "validate_qmatrix",
]

# least eigenvalue a diffusion matrix may have and still count as PSD
PSD_TOL = 1e-10
# validate_qmatrix: most negative off-diagonal entry, largest row-sum defect
OFFDIAG_TOL = 1e-12
ROWSUM_TOL = 1e-10


# ---------------------------------------------------------------------------
# the boundary rule and jump kernels

def _fold(grid: Grid, axis: int, k: np.ndarray) -> np.ndarray:
    """Integer coordinates k along `axis` mapped into 0..n-1 by the policy
    of each axis end: reflect folds about the end cell's outer edge (-k-1
    below, 2n-1-k above, as often as a far target needs), absorb clamps
    to the end cell and truncate_mass gives -1.  Called by `map_targets`
    alone."""
    n = grid.shape[axis]
    pol_lo, pol_hi = grid.boundary_policy[axis]
    if pol_lo == pol_hi == "reflect":
        k = k % (2 * n)
        return np.where(k >= n, 2 * n - 1 - k, k)
    if pol_lo == "reflect":
        k = np.where(k < 0, -k - 1, k)
    elif pol_hi == "reflect":
        k = np.where(k >= n, 2 * n - 1 - k, k)
    k = np.where(k < 0, 0 if pol_lo == "absorb" else -1, k)
    return np.where(k >= n, n - 1 if pol_hi == "absorb" else -1, k)


def map_targets(grid: Grid, W) -> np.ndarray:
    """Flat index of the grid point receiving a move to each row of W,
    (m, d): the nearest grid point, boundary-mapped by `_fold` on each
    axis on its own; -1 where a truncate_mass face drops the move on any
    axis.  The one map from a move to the state it lands on: every jump
    target and every stencil move of `discretize` go through it."""
    W = np.asarray(W, dtype=float).reshape(-1, grid.dim)
    K = np.rint((W - grid.lower) / grid.spacing).astype(int)
    flat = np.zeros(len(K), dtype=int)
    dropped = np.zeros(len(K), dtype=bool)
    for axis, n in enumerate(grid.shape):
        k = _fold(grid, axis, K[:, axis])
        dropped |= k < 0
        flat = flat * n + k
    flat[dropped] = -1
    return flat


def _place(R: np.ndarray, grid: Grid, W: np.ndarray, r: np.ndarray):
    """Add the rate r[i] from state i to the point receiving a jump to
    W[i]; zero rates and dropped jumps add nothing.

    A jump off a truncate_mass face is left out of its row, where a
    stencil move off the face kills its mass (`discretize`).  The stencil
    kills at the end state alone, where a test function that vanishes at
    the face is 0.  Killing a jump of length c would kill at every state
    within c of the face, a band that does not narrow as h does, and
    under the Pareto F, a suffix sum, mass killed at x enters every dual
    row y <= x, each such x weighted by (F^-1 v)(x) = O(h).  On acceptance
    criterion 2's half line (a +0.5 jump, a truncate_mass top face) that
    rule moves Q^D applied to the windowed sin x by the same -0.163 at
    h = 0.125 and -0.216 at h = 0.0625 at every evaluation point, and the
    action mismatch grows as h halves (0.168 -> 0.221) where it now
    contracts (0.019 -> 0.0093); `tests/test_defects.py` keeps it caught.
    """
    target = map_targets(grid, W)
    keep = (r != 0.0) & (target >= 0)
    R[np.flatnonzero(keep), target[keep]] += r[keep]


def _generator_rows(R: np.ndarray) -> np.ndarray:
    """Jump-generator rows from a rate matrix R, in place: off the
    diagonal the rates, on it minus the rate of leaving the state (a
    jump into the state's own cell is a self-loop and leaves nothing)."""
    np.fill_diagonal(R, -(R.sum(axis=1) - np.diagonal(R)))
    return R


def _evaluate(fns, X: np.ndarray) -> np.ndarray:
    """(m, len(fns)): each of fns at the states X, (m, d).  The one
    evaluator of channel rates and their derivatives: a number is used as
    given (None as 0), a callable with a `vectorized` form is called once
    on all states, any other callable state by state."""
    R = np.empty((len(X), len(fns)))
    for c, fn in enumerate(fns):
        if not callable(fn):
            R[:, c] = 0.0 if fn is None else float(fn)
        elif hasattr(fn, "vectorized"):
            R[:, c] = fn.vectorized(X)
        else:
            R[:, c] = [float(fn(x)) for x in X]
    return R


class GridJumpKernel(Protocol):
    """A jump kernel `discretize` can assemble."""

    def generator_matrix(self, grid: Grid) -> np.ndarray:
        """Its n x n jump-generator rows on the grid, diagonal included."""
        ...


@dataclass(frozen=True)
class AtomicJumpKernel:
    """Finite list of jump channels.

    Each channel is (displacement, rate): a jump from x to x + w, w a
    vector of the state's dimension (of one entry for a component of a
    SeparableJumpKernel; `ProcessSpec` checks the length).  Rates may be
    constants or callables of the state.  A callable rate that carries
    a `vectorized` attribute, as a scenario expression does, is evaluated
    on all states in one call of it.  rate_derivs, when supplied,
    are the z-derivatives of the rate functions used by the dual
    construction (never differentiated numerically there); once built,
    the kernel holds one per channel, None where none was declared.
    `rates_at` and `rate_derivs_at` are the only callers of either.
    Checked when built: a callable in place of a displacement (a target
    map) and more rate derivatives than channels raise
    StructureViolation.
    """

    jumps: tuple            # ((displacement, rate), ...)
    rate_derivs: tuple = ()  # optional, aligned with jumps

    def __post_init__(self):
        n = len(self.jumps)
        if len(self.rate_derivs) > n:
            raise StructureViolation(
                f"{len(self.rate_derivs)} rate derivatives for {n} jump "
                f"channels")
        for c, (where, _) in enumerate(self.jumps):
            if callable(where):
                raise StructureViolation(
                    f"jump channel {c} is a target map; a channel is a "
                    f"displacement vector")
        object.__setattr__(self, "rate_derivs", tuple(self.rate_derivs)
                           + (None,) * (n - len(self.rate_derivs)))

    def check_length(self, n: int):
        """Raise DimensionMismatch unless every displacement is a vector
        of n entries."""
        for c, (where, _) in enumerate(self.jumps):
            if np.shape(where) != (n,):
                raise DimensionMismatch(
                    f"jump channel {c} has displacement {where!r}, not a "
                    f"vector of length {n}")

    def rates_at(self, X: np.ndarray) -> np.ndarray:
        """(m, channels): the rate of each channel at the states X, (m, d)."""
        return _evaluate([rate for _, rate in self.jumps], X)

    def rate_derivs_at(self, X: np.ndarray) -> np.ndarray:
        """(m, channels): the declared z-derivative of each channel's rate
        at the states X, (m, d); 0 for a channel that declares none."""
        return _evaluate(self.rate_derivs, X)

    def _channels(self, X: np.ndarray):
        """(displacement, rates) of each channel at the states X, (m, d)."""
        return zip((np.asarray(w, dtype=float) for w, _ in self.jumps),
                   self.rates_at(X).T)

    def generator_matrix(self, grid: Grid) -> np.ndarray:
        pts = grid.points()
        R = np.zeros((len(pts), len(pts)))
        for w, r in self._channels(pts):
            _place(R, grid, pts + w, r)
        return _generator_rows(R)

    def total_rate(self, X: np.ndarray) -> np.ndarray:
        """Summed channel rates at the states X, (m, d): one per state."""
        return self.rates_at(X).sum(axis=1)


@dataclass(frozen=True)
class DensityJumpKernel:
    """Jump kernel with a Lebesgue density nu(x, w).

    density(x, W) is vectorized over an (m, d) array of targets W.
    deriv(x, W), supplied analytically, is the 1-D dnu/dz that the
    closed-form dual reads; a d >= 2 density kernel has no closed-form
    dual, only generator rows.
    """

    density: Callable
    deriv: Optional[Callable] = None

    def generator_matrix(self, grid: Grid) -> np.ndarray:
        """Midpoint quadrature: the density at each grid point times the
        cell volume, negative values clipped."""
        pts = grid.points()
        vol = float(np.prod(grid.spacing))
        R = np.stack([np.asarray(self.density(x, pts), dtype=float) * vol
                      for x in pts])
        return _generator_rows(np.clip(R, 0.0, None, out=R))


@dataclass(frozen=True)
class SeparableJumpKernel:
    """Sum of per-axis kernels nu_j(z_j, dw_j), each moving one coordinate.

    A component is any 1-D grid kernel but a density kernel: a forward
    process's are atomic, and its closed-form dual's are the per-axis
    Siegmund duals.  Its generator is the Kronecker sum of the
    components' own 1-D rows on their grid axes."""

    components: tuple       # ((axis, 1-D grid kernel), ...)

    def __post_init__(self):
        for axis, kern in self.components:
            if isinstance(kern, DensityJumpKernel) \
                    or not hasattr(kern, "generator_matrix"):
                raise NotSeparable(
                    f"the component on axis {axis} is a "
                    f"{type(kern).__name__}; separable kernels take 1-D "
                    f"grid kernels without a density")

    def check_axes(self, dim: int):
        """Raise DimensionMismatch unless every component moves one of the
        axes 0..dim-1 of a dim-dimensional state."""
        for axis, _ in self.components:
            if not 0 <= axis < dim:
                raise DimensionMismatch(
                    f"a jump component on axis {axis} of a {dim}-D state")

    def generator_matrix(self, grid: Grid) -> np.ndarray:
        """The Kronecker sum of the components' 1-D rows on their axes."""
        return _kronecker_sum(grid.shape, (
            (axis, kern.generator_matrix(grid.axis(axis)))
            for axis, kern in self.components))


def _kronecker_sum(shape: tuple, terms) -> np.ndarray:
    """The n x n Kronecker sum on a grid of `shape`, the one builder of
    one: each (axis, G) of `terms` adds G on every grid line along the
    axis, by index arithmetic (no n x n Kronecker factors)."""
    n = int(np.prod(shape))
    Q = np.zeros((n, n))
    flat = np.arange(n).reshape(shape)
    for axis, G in terms:
        line = np.moveaxis(flat, axis, -1)[..., None]
        Q[line, np.swapaxes(line, -1, -2)] += G
    return Q


def separable_jumps(jump):
    """The jump part of a process in separable form: an AtomicJumpKernel
    whose every channel moves one axis at a numeric rate becomes a
    SeparableJumpKernel of one-channel components; any other kernel (or
    None) is returned as it is.  A channel of zero displacement is no
    move, as in `discretize` and the 1-D dual, and is left out, whatever
    its rate: a part of only such channels has no components.  Raises
    NotSeparable naming the first channel that is not such a move."""
    if not isinstance(jump, AtomicJumpKernel):
        return jump
    parts = []
    for c, (w, r) in enumerate(jump.jumps):
        if not np.any(w):
            continue
        if callable(r) or np.count_nonzero(w) != 1:
            raise NotSeparable(f"jump channel {c} is not a move of one "
                               f"axis at a numeric rate")
        k = int(np.flatnonzero(w)[0])
        parts.append((k, AtomicJumpKernel(jumps=(((w[k],), r),))))
    return SeparableJumpKernel(tuple(parts))


# ---------------------------------------------------------------------------
# process specifications

@dataclass(frozen=True)
class ProcessSpec:
    """Declarative description of a Levy-type generator.

    Each coefficient is declared once, in one of two forms.  Per axis
    (drift_components; diffusion_diag with, optionally, diffusion_offdiag
    and the derivatives diffusion_diag_deriv) it carries the separability
    information that the dual construction needs and is evaluated on
    whole coordinate columns; generically (drift, diffusion) it suffices
    to discretize and is evaluated state by state.  The simulator takes
    a generic drift but only a diffusion_diag without diffusion_offdiag:
    a generic or cross diffusion is discretized, not simulated.

    Checked when built, the one place that decides what a spec declares:
    a coefficient given both generically and per axis, and an
    off-diagonal or a derivative without its diagonal, raise
    StructureViolation; each per-axis declaration has dim entries, each
    diffusion_offdiag key is a pair i < j of axes below dim, each
    separable component moves an axis below dim, and each displacement
    of an atomic jump part has dim entries, one for a component of a
    separable part (DimensionMismatch); the boundary is None, reflect or
    absorb, the half line comes with a reflect or absorb boundary and
    those boundaries with the half line (StructureViolation).
    """

    dim: int
    drift: Optional[Callable] = None
    drift_components: Optional[tuple] = None        # b_j(x_j), unary callables
    diffusion: Optional[Callable] = None
    diffusion_diag: Optional[tuple] = None          # a_jj(x_j), unary callables
    diffusion_diag_deriv: Optional[tuple] = None    # a'_jj(x_j)
    diffusion_offdiag: Optional[dict] = None        # {(i, j): a_ij(x_i, x_j)}, i < j
    jump: Optional[GridJumpKernel] = None           # or simulation-only
    domain: str = "full_space"                      # 'full_space' | 'half_line'
    boundary: Optional[str] = None                  # 'reflect' | 'absorb' | None

    def __post_init__(self):
        if self.drift is None and self.drift_components is None \
                and self.diffusion is None and self.diffusion_diag is None \
                and self.jump is None:
            raise ValueError("at least one of drift/diffusion/jump is required")
        if self.domain not in ("full_space", "half_line"):
            raise ValueError(f"unknown domain {self.domain!r}")
        if (self.domain == "half_line") != (self.boundary in ("reflect",
                                                              "absorb")):
            raise StructureViolation(
                f"domain {self.domain!r} with boundary {self.boundary!r}: "
                f"the half line needs a reflect or absorb boundary, and "
                f"those boundaries need the half line")
        if self.boundary not in (None, "reflect", "absorb"):
            raise StructureViolation(
                f"boundary {self.boundary!r}: a boundary is None, 'reflect' "
                f"or 'absorb'")
        for generic, per_axis in (("drift", "drift_components"),
                                  ("diffusion", "diffusion_diag")):
            if getattr(self, generic) is not None \
                    and getattr(self, per_axis) is not None:
                raise StructureViolation(
                    f"{generic} is declared both generically and per axis "
                    f"({per_axis}); declare it once")
        for name in ("diffusion_offdiag", "diffusion_diag_deriv"):
            if getattr(self, name) is not None and self.diffusion_diag is None:
                raise StructureViolation(f"{name} needs diffusion_diag")
        for name in ("drift_components", "diffusion_diag",
                     "diffusion_diag_deriv"):
            parts = getattr(self, name)
            if parts is not None and len(parts) != self.dim:
                raise DimensionMismatch(
                    f"{name} has {len(parts)} entries for a {self.dim}-D "
                    f"state")
        for i, j in self.diffusion_offdiag or {}:
            if not 0 <= i < j < self.dim:
                raise DimensionMismatch(
                    f"diffusion_offdiag key ({i}, {j}) is not a pair i < j "
                    f"of axes of a {self.dim}-D state")
        if isinstance(self.jump, SeparableJumpKernel):
            self.jump.check_axes(self.dim)
        for axis, kern in getattr(self.jump, "components",
                                  ((None, self.jump),)):
            if isinstance(kern, AtomicJumpKernel):
                kern.check_length(self.dim if axis is None else 1)

    @classmethod
    def one_dim(cls, a=None, b=None, da=None, nu=None, domain="full_space",
                boundary=None):
        """Convenience constructor for 1-D specs with separable declarations."""
        def as_unary(c):
            if c is None:
                return None
            return c if callable(c) else (lambda s, _c=float(c): _c * np.ones_like(np.asarray(s, float)))
        a_u, b_u, da_u = as_unary(a), as_unary(b), as_unary(da)
        return cls(
            dim=1,
            drift_components=(b_u,) if b_u is not None else None,
            diffusion_diag=(a_u,) if a_u is not None else None,
            diffusion_diag_deriv=(da_u,) if da_u is not None else None,
            jump=nu,
            domain=domain,
            boundary=boundary,
        )

    def drift_at(self, X) -> np.ndarray:
        """b at each row of X, (m, d), or at one state given as a vector:
        declared b_j(x_j) on the column of axis j, a generic drift state
        by state."""
        X, one = self._states(X)
        if self.drift_components is not None:
            B = np.empty(X.shape)
            for j, bj in enumerate(self.drift_components):
                B[:, j] = bj(X[:, j])
        elif self.drift is not None:
            B = np.array([np.asarray(self.drift(x), dtype=float)
                          for x in X]).reshape(X.shape)
        else:
            B = np.zeros(X.shape)
        return B[0] if one else B

    def diffusion_at(self, X) -> np.ndarray:
        """a at each row of X, (m, d, d), or at one state given as a
        vector: declared a_jj(x_j) and a_ij(x_i, x_j) on whole columns, a
        generic diffusion state by state."""
        X, one = self._states(X)
        m, d = X.shape
        A = np.zeros((m, d, d))
        if self.diffusion_diag is not None:
            for j, ajj in enumerate(self.diffusion_diag):
                A[:, j, j] = ajj(X[:, j])
            for (i, j), aij in (self.diffusion_offdiag or {}).items():
                A[:, i, j] = A[:, j, i] = aij(X[:, i], X[:, j])
        elif self.diffusion is not None:
            A = np.array([np.asarray(self.diffusion(x), dtype=float)
                          for x in X]).reshape(m, d, d)
        return A[0] if one else A

    def _states(self, X):
        """X as (m, dim) float states, and whether it was one state."""
        X = np.asarray(X, dtype=float)
        if X.ndim < 2:
            return X.reshape(1, self.dim), True
        return X, False

    def has_drift(self) -> bool:
        return self.drift_components is not None or self.drift is not None

    def has_diffusion(self) -> bool:
        return self.diffusion is not None or self.diffusion_diag is not None

    def check_psd(self, probes: np.ndarray):
        """First probe point where the diffusion matrix fails PSD (its
        least eigenvalue below -PSD_TOL), or None."""
        low = np.linalg.eigvalsh(self.diffusion_at(probes)).min(axis=1)
        bad = np.flatnonzero(low < -PSD_TOL)
        if len(bad):
            return probes[bad[0]], float(low[bad[0]])
        return None


# ---------------------------------------------------------------------------
# Q-matrices

class _Entries:
    """`QMatrix.entries`: Q as given, else the generators' sum."""

    def __get__(self, q, owner):
        if q is None:
            return None                 # the field's default
        if vars(q)["entries"] is None:
            vars(q)["entries"] = _kronecker_sum(q.state_grid.shape,
                                                enumerate(q.generators))
        return vars(q)["entries"]

    def __set__(self, q, Q):
        vars(q)["entries"] = Q


@dataclass(frozen=True, kw_only=True)
class QMatrix:
    """Finite-state generator on the points of a grid, given as one of
    `entries`, Q itself (n x n, n the grid's number of points), and
    `generators`, its terms Q_k of a Kronecker sum on the grid axes.
    Given Q, `generators` is (Q,); given the Q_k, `entries` is their sum,
    formed only when read, so the two never disagree.  Both raise
    TypeError, and entries or terms of a wrong shape DimensionMismatch."""

    entries: np.ndarray = _Entries()
    state_grid: Grid
    generators: tuple = ()

    def __post_init__(self):
        n = self.state_grid.n_points
        given = vars(self)["entries"]
        if given is not None:
            if self.generators:
                raise TypeError("a QMatrix takes its entries or its "
                                "generators, one of the two")
            if np.shape(given) != (n, n):
                raise DimensionMismatch(
                    f"entries of shape {np.shape(given)} on a grid of "
                    f"{n} points")
            object.__setattr__(self, "generators", (given,))
        shapes = [np.shape(G) for G in self.generators]
        if given is None and shapes != [(m, m) for m in self.state_grid.shape]:
            raise DimensionMismatch(
                f"generators of shapes {shapes} on a grid of shape "
                f"{self.state_grid.shape}")

    @property
    def n(self) -> int:
        return self.state_grid.n_points


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    offdiag_violations: tuple    # ((i, j, value), ...)
    rowsum_defects: tuple        # ((i, value), ...)
    max_offdiag_negativity: float
    max_rowsum_defect: float


def _absorbing_mask(grid: Grid) -> np.ndarray:
    """Flat mask of states on faces with absorb policy (zero rows)."""
    k = np.indices(grid.shape).reshape(grid.dim, -1)
    mask = np.zeros(grid.n_points, dtype=bool)
    for axis, (lo, hi) in enumerate(grid.boundary_policy):
        mask |= (k[axis] == 0) & (lo == "absorb")
        mask |= (k[axis] == grid.shape[axis] - 1) & (hi == "absorb")
    return mask


def _require_finite(values: np.ndarray, what: str, states, pts: np.ndarray):
    """Raise NonFiniteCoefficient at the first state whose row of `values`
    holds NaN or inf, naming the first such value."""
    rows = values.reshape(len(values), -1)
    finite = np.isfinite(rows)
    bad = np.flatnonzero(~finite.all(axis=1))
    if len(bad):
        p = bad[0]
        i = int(states[p])
        raise NonFiniteCoefficient(
            f"{what} is {rows[p][~finite[p]][0]} at grid point {pts[i]} "
            f"(state {i})")


def _axis_generators(spec: ProcessSpec, grid: Grid) -> tuple:
    """The generator of each grid axis when the spec declares a generator
    that is their Kronecker sum, else (): the 1-D `discretize` of the
    axis's own coefficients and jump channels on its 1-D grid.

    That takes d >= 2, per-axis drift (drift_components) and diagonal
    diffusion (diffusion_diag, no diffusion_offdiag) or none, no generic
    drift or diffusion callable, no absorbing face, and a jump part that
    is absent or separable (`separable_jumps`).  An axis with no
    coefficient and no channel gets the zero generator.  A NaN or inf
    jump rate gives (), for the d-D assembly to name its state."""
    d = grid.dim
    try:
        jump = separable_jumps(spec.jump)
    except NotSeparable:
        return ()
    if d < 2 or spec.drift is not None or spec.diffusion is not None \
            or spec.diffusion_offdiag \
            or not isinstance(jump, (SeparableJumpKernel, type(None))) \
            or any("absorb" in pols for pols in grid.boundary_policy):
        return ()
    b = spec.drift_components or (None,) * d
    a = spec.diffusion_diag or (None,) * d
    parts = getattr(jump, "components", ())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # raised in d-D by `discretize`
        try:
            return tuple(discretize(ProcessSpec.one_dim(
                a=a[k], b=b[k], nu=SeparableJumpKernel(tuple(
                    (0, kern) for axis, kern in parts if axis == k))),
                grid.axis(k)).entries for k in range(d))
        except NonFiniteCoefficient:
            return ()


def _check_half_line_face(spec: ProcessSpec, grid: Grid) -> None:
    """A half-line spec's grid lies in x_0 >= 0 with the spec's face there."""
    lower, face = grid.lower[0], grid.boundary_policy[0][0]
    if spec.domain == "half_line" and (lower < 0 or face != spec.boundary):
        raise StructureViolation(
            f"a half-line process {spec.boundary}ed at 0 needs a grid with "
            f"lower[0] >= 0 and the axis-0 lower face {spec.boundary!r}, "
            f"not lower[0] = {lower:g} with {face!r}")


def discretize(spec: ProcessSpec, grid: Grid) -> QMatrix:
    """Finite-difference / quadrature discretization of the generator.

    Upwind drift and central diffusion with the positive cross stencil,
    plus the jump kernel's own generator rows (`generator_matrix`);
    boundary rows follow the grid's per-axis boundary policy.  Drift and
    diffusion come from one `drift_at` and one `diffusion_at` call over
    the live states; a half-line spec fixes the axis-0 lower face
    (`_check_half_line_face`).  Q has one assembly: the per-axis
    generators of a declared Kronecker sum (`_axis_generators`), with no
    n x n array, else Q, each stencil move written for all states at
    once in the order of a state-by-state loop.  Raises Overflow on a grid of more than MAX_STATES points
    before anything is allocated, NonFiniteCoefficient on a NaN or inf
    drift, diffusion or jump rate, and UnsupportedScheme on a jump part
    with no generator rows (a simulation-only kernel); each error and
    warning once, at the d-D state a state-by-state loop meets first.
    """
    if spec.dim != grid.dim:
        raise DimensionMismatch("spec and grid dimensions differ")
    _check_half_line_face(spec, grid)
    if grid.n_points > MAX_STATES:
        raise Overflow(f"{grid.n_points} states exceeds the dense cap of "
                       f"{MAX_STATES}")
    jump = spec.jump
    if jump is not None and not hasattr(jump, "generator_matrix"):
        raise UnsupportedScheme(
            f"a {type(jump).__name__} jump part has no generator rows on a "
            f"grid; it can only be simulated")
    n_states = grid.n_points
    live = np.flatnonzero(~_absorbing_mask(grid))
    h = grid.spacing
    pts = grid.points()
    d = spec.dim

    X = pts[live]
    B = spec.drift_at(X)
    _require_finite(B, "drift b", live, pts)
    A = None
    if spec.has_diffusion():
        A = spec.diffusion_at(X)
        _require_finite(A, "diffusion a", live, pts)

    generators = _axis_generators(spec, grid)
    G = None
    if jump is not None and not generators:
        G = jump.generator_matrix(grid)
        _require_finite(G[live], "jump rate", live, pts)

    if A is not None:
        a_diag = np.diagonal(A, axis1=1, axis2=2)
        off_budget = np.sum(np.abs(A), axis=2) - np.abs(a_diag)
        diag_rates = a_diag - off_budget
        clipped = np.flatnonzero(np.any(diag_rates < -1e-12, axis=1))
        cfl = np.argwhere((a_diag > 0) & (np.abs(B) * h > 2.0 * a_diag))
        # each warning once, in the order a state-by-state loop meets them
        first_clip = clipped[0] if len(clipped) else len(live)
        first_cfl = cfl[0, 0] if len(cfl) else len(live)
        cfl_message = (f"drift dominates diffusion at spacing "
                       f"{h[cfl[0, 1]]} (axis {cfl[0, 1]})" if len(cfl) else "")
        if first_cfl < first_clip:
            warnings.warn(cfl_message, CFLWarning)
        if len(clipped):
            warnings.warn(
                "cross-diffusion terms clipped to preserve positivity",
                ClippingWarning)
            diag_rates[clipped] = np.clip(diag_rates[clipped], 0.0, None)
            if len(cfl) and first_cfl >= first_clip:
                warnings.warn(cfl_message, CFLWarning)

    if generators:
        return QMatrix(state_grid=grid, generators=generators)

    Q = np.zeros((n_states, n_states))
    Qf = Q.reshape(-1)
    diag = np.zeros(len(live))

    E = np.eye(d, dtype=int)

    def to(step):
        """Where each live state lands after a move of `step` cells (one
        step for all, or one per state): its displaced point, placed by
        `map_targets`."""
        return map_targets(grid, X + step * h)

    def add(sel, target, rate):
        """Move `rate` from each live state where `sel` holds to `target`:
        -1 kills the mass (truncate_mass), the state itself is no move."""
        moved = sel & (target != live)
        to_grid = moved & (target >= 0)
        Qf[live[to_grid] * n_states + target[to_grid]] += rate[to_grid]
        diag[moved] -= rate[moved]

    if A is not None:
        for ax in range(d):
            r = diag_rates[:, ax] / h[ax] ** 2
            for step in (+1, -1):
                add(r != 0.0, to(step * E[ax]), r)
        for ai in range(d):
            for aj in range(ai + 1, d):
                c = A[:, ai, aj]
                sgn = np.where(c > 0, 1, -1)[:, None]
                for direction in (+1, -1):
                    add(c != 0.0, to(direction * (E[ai] + sgn * E[aj])),
                        np.abs(c) / (h[ai] * h[aj]))

    for ax in range(d):
        b = B[:, ax]
        add(b != 0.0, to(np.where(b > 0, 1, -1)[:, None] * E[ax]),
            np.abs(b) / h[ax])

    Q[live, live] = diag
    if G is not None:
        Q[live] += G[live]

    return QMatrix(entries=Q, state_grid=grid)


def validate_qmatrix(q: QMatrix, conservative: bool = True) -> ValidationReport:
    """Report conditional-positivity and row-sum defects: off-diagonal
    entries below -OFFDIAG_TOL and row sums off by more than ROWSUM_TOL."""
    Q = q.entries
    off = Q - np.diag(np.diag(Q))
    viol_idx = np.argwhere(off < -OFFDIAG_TOL)
    violations = tuple((int(i), int(j), float(Q[i, j])) for i, j in viol_idx)
    rs = Q.sum(axis=1)
    # killing allowed when not conservative: only sums above 0 are defects
    excess = np.abs(rs) if conservative else np.maximum(rs, 0.0)
    defects = tuple((int(i), float(rs[i]))
                    for i in np.flatnonzero(excess > ROWSUM_TOL))
    max_neg = float(-off.min()) if off.size and off.min() < 0 else 0.0
    return ValidationReport(
        passed=not violations and not defects,
        offdiag_violations=violations,
        rowsum_defects=defects,
        max_offdiag_negativity=max_neg,
        max_rowsum_defect=float(excess.max()),
    )
