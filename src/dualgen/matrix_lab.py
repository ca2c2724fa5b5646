"""Exact finite-dimensional verification of the dressing identities.

On a finite grid the survival transform F of a cone order is an
invertible 0/1 matrix, so the dual semigroup T^D = F T' F^-1 and the dual
generator Q^D = F Q' F^-1 are exact algebra, and the duality identity can
be checked to rounding.  `SurvivalTransform` is the one implementation of
F and F^-1, with two paths: cumulative sums and differences along the grid
axes for the Pareto cone, and a dense F with its exact Moebius inverse for
any other lattice cone (the light cone is not a product of 1-D orders).
`semigroup` computes exp(tQ) once by scaling and squaring and checks it
on a few fixed probe vectors against `expm_multiply`, a separate algorithm
(the action of the exponential by truncated Taylor series).  Per-axis
coefficients on a box whose faces reflect or truncate make Q a Kronecker
sum Q_0 (+) ... (+) Q_{d-1}, read off Q itself; then exp(tQ) is the
Kronecker product of the d small exponentials exp(tQ_k) (Van Loan, J.
Comput. Appl. Math. 123, 2000), and the same probe check guards it.
`duality_residual` pairs both semigroups with the order indicator through
the same operator: the indicator is f = F', so T f = (F T')' and
f T^D' = F' T^D' cost O(n^2 d) on the Pareto path (`apply_transpose` is a
prefix sum), and no n x n indicator matrix is built for it.  scipy is
imported on use, so `import dualgen` loads none of it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, Overflow
from .generator_core import QMatrix
from .state_space import MAX_STATES, Cone, Grid, duality_indicator_matrix

__all__ = [
    "SemigroupSnapshot",
    "SurvivalTransform",
    "forward_F_matrix",
    "inverse_F_matrix",
    "semigroup",
    "dual_semigroup_via_F",
    "dual_generator_via_F",
    "duality_residual",
    "dual_stochasticity_check",
    "StochasticityReport",
    "interior_mask",
    "entrywise_mismatch",
    "action_mismatch",
]

_EXPM_NORM_LIMIT = 1e6
_CHECK_PROBES = 2
# largest row sum of |tQ - K| at which tQ counts as the Kronecker sum K
_KRON_TOL = 1e-12


def expm(A):
    """scipy.linalg.expm, imported on use.  A module attribute, so the
    calls can be counted or replaced."""
    from scipy.linalg import expm
    return expm(A)


@dataclass(frozen=True)
class SemigroupSnapshot:
    """T = exp(tQ) at time t.  `semigroup` also records ||tQ||_inf as `norm`
    and the probe-vector check's error as `check_error`; they stay None on
    a snapshot built another way (for example the dual's)."""

    t: float
    T: np.ndarray
    norm: Optional[float] = None
    check_error: Optional[float] = None


class SurvivalTransform:
    """The survival transform F of a cone order on a grid, and F^-1.

    (F w)[y] = sum of w[x] over {x : x - y in C}.  Every method acts on
    axis 0 of an (n,) or (n, k) array, n the number of grid points.

    Pareto cone: F is a suffix cumulative sum along every grid axis, F^-1
    the forward difference g(y) - g(y + h e_axis) and F^-T the backward
    difference, each with zero extension beyond the grid; F F^-1 = I
    holds exactly.  Other cones: F = f' with f the duality indicator
    matrix, and F^-1 by unit-triangular solve after sorting the states
    along the cone (the Moebius matrix of the finite order).
    """

    def __init__(self, grid: Grid, cone: Cone):
        if grid.dim != cone.dim:
            raise DimensionMismatch("grid and cone dimensions differ")
        self.grid = grid
        self._dense = None
        if not np.allclose(cone.basis, np.eye(cone.dim)):
            F = duality_indicator_matrix(grid, cone).T
            # phi(p) strictly increases along the cone: phi(x) > phi(y)
            # when x > y, so with states sorted by phi F is unit upper
            # triangular
            phi = np.linalg.solve(cone.basis, grid.points().T).sum(axis=0)
            order = np.argsort(phi, kind="stable")
            Fp = F[np.ix_(order, order)]
            from scipy.linalg import solve_triangular
            inv_p = solve_triangular(Fp, np.eye(len(F)), lower=False,
                                     unit_diagonal=True)
            Finv = np.empty_like(inv_p)
            Finv[np.ix_(order, order)] = inv_p
            self._dense = (F, Finv)

    def _on_grid(self, a, step):
        """Apply `step(array, axis)` along every grid axis of a's axis 0."""
        a = np.asarray(a, dtype=float)
        if a.shape[0] != self.grid.n_points:
            raise DimensionMismatch(
                f"array of length {a.shape[0]} on a grid of "
                f"{self.grid.n_points} points")
        v = a.reshape(self.grid.shape + a.shape[1:])
        for axis in range(self.grid.dim):
            v = step(v, axis)
        return v.reshape(a.shape)

    def apply(self, w) -> np.ndarray:
        """F w: the survival function of w."""
        if self._dense is not None:
            return self._dense[0] @ w
        return self._on_grid(w, lambda v, ax: np.flip(
            np.cumsum(np.flip(v, axis=ax), axis=ax), axis=ax))

    def apply_transpose(self, v) -> np.ndarray:
        """F' v = f v, the pairing of v with the order indicator f (prefix
        sums along the grid axes for the Pareto cone)."""
        if self._dense is not None:
            return self._dense[0].T @ v
        return self._on_grid(v, lambda a, ax: np.cumsum(a, axis=ax))

    def apply_inverse(self, g) -> np.ndarray:
        """F^-1 g: the measure whose survival function is g."""
        if self._dense is not None:
            return self._dense[1] @ g
        return self._on_grid(g, lambda v, ax: -np.diff(v, axis=ax, append=0.0))

    def _apply_inverse_transpose(self, a) -> np.ndarray:
        if self._dense is not None:
            return self._dense[1].T @ a
        return self._on_grid(a, lambda v, ax: np.diff(v, axis=ax, prepend=0.0))

    def conjugate(self, A) -> np.ndarray:
        """F A' F^-1 for an (n, n) matrix A, as F (F^-T A)'."""
        return self.apply(self._apply_inverse_transpose(A).T)


def forward_F_matrix(grid: Grid, cone: Cone) -> np.ndarray:
    """Dense matrix of the survival transform, F[y, x] = 1{x - y in C}."""
    return SurvivalTransform(grid, cone).apply(np.eye(grid.n_points))


def inverse_F_matrix(grid: Grid, cone: Cone) -> np.ndarray:
    """Dense exact inverse of forward_F_matrix, never by numeric inversion."""
    return SurvivalTransform(grid, cone).apply_inverse(np.eye(grid.n_points))


def _kronecker_factors(A, As, shape) -> Optional[list]:
    """Per-axis factors A_k with A = A_0 (+) ... (+) A_{d-1}, or None.

    On a C-ordered grid of `shape` (d >= 2 axes) the Kronecker sum puts
    A_k on the grid lines of axis k.  A_k is read off the line through
    the first grid point; the diagonal is split so that the factor
    diagonals add up to A's (A_0 keeps A[0, 0], the others have 0 there).
    The sum K is rebuilt sparsely and accepted only if the largest row
    sum of |A - K| is at most `_KRON_TOL`: this holds for per-axis
    coefficients on reflect and truncate_mass faces, and fails for an
    absorbing face, a jump that moves two coordinates, or a rate of one
    axis that depends on another.  As is A in CSR form.
    """
    if len(shape) < 2 or int(np.prod(shape)) != A.shape[0]:
        return None
    from scipy.sparse import csr_matrix, identity, kron

    factors, K = [], None
    for k, m in enumerate(shape):
        before, after = int(np.prod(shape[:k])), int(np.prod(shape[k + 1:]))
        line = np.arange(m) * after
        f = A[np.ix_(line, line)]
        if k:
            f[np.diag_indices(m)] -= A[0, 0]
        factors.append(f)
        term = kron(kron(identity(before), csr_matrix(f)), identity(after),
                    format="csr")
        K = term if K is None else K + term
    defect = float(abs(As - K).sum(axis=1).max())
    return factors if defect <= _KRON_TOL else None


def semigroup(q: QMatrix, t: float) -> SemigroupSnapshot:
    """Transition matrix exp(tQ), checked on probe vectors.

    On a grid of d >= 2 axes where tQ is a Kronecker sum of per-axis
    generators (`_kronecker_factors`: per-axis coefficients on reflect or
    truncate_mass faces), T = expm(tQ_0) (x) ... (x) expm(tQ_{d-1}), which
    costs sum n_k^3 + n^2 instead of n^3; otherwise, and on every 1-D
    grid, T = expm(tQ).  Either way T is compared with expm_multiply(tQ, V)
    (Al-Mohy & Higham's truncated Taylor action, on the full sparse tQ) on
    `_CHECK_PROBES` fixed random columns V with entries in [-1, 1].  The
    check shares no step with Pade scaling and squaring or with the
    factorization, so an error in either shows, a wrong, transposed or
    misordered factor included; expm(tQ / 2) squared would repeat expm's
    own arithmetic and could not.  The check's cost grows linearly with
    ||tQ||, expm's only with its logarithm.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if q.n > MAX_STATES:
        raise Overflow(f"{q.n} states exceeds the dense cap of {MAX_STATES}")
    A = t * q.entries
    norm = float(np.abs(A).sum(axis=1).max()) if q.n else 0.0
    # written as `not <=` so that a NaN fails the comparison too
    if not norm <= _EXPM_NORM_LIMIT:
        raise Overflow(
            f"||tQ|| = {norm:.3g} too large; use smaller t or a coarser grid")
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import expm_multiply

    As = csr_matrix(A)
    factors = _kronecker_factors(A, As, q.state_grid.shape)
    if factors is None:
        T = expm(A)
    else:
        T = functools.reduce(np.kron, [expm(f) for f in factors])
    V = np.random.default_rng(0).uniform(-1.0, 1.0, size=(q.n, _CHECK_PROBES))
    err = float(np.abs(T @ V - expm_multiply(As, V)).max())
    if not err <= 1e-10 * max(1.0, np.abs(T).sum(axis=1).max()):
        raise Overflow(f"matrix exponential self-check failed: {err:.3g}")
    return SemigroupSnapshot(t=float(t), T=T, norm=norm, check_error=err)


def dual_semigroup_via_F(T: SemigroupSnapshot,
                         op: SurvivalTransform) -> SemigroupSnapshot:
    """T^D(t) = F . transpose(T(t)) . F^-1 on the grid point basis; `op`
    is built once per grid and cone and shared across probe times."""
    return SemigroupSnapshot(t=T.t, T=op.conjugate(T.T))


def dual_generator_via_F(q: QMatrix, grid: Grid, cone: Cone) -> QMatrix:
    """Q^D = F . Q' . F^-1, the matrix oracle for every closed-form dual."""
    return QMatrix(entries=SurvivalTransform(grid, cone).conjugate(q.entries),
                   state_grid=grid)


def duality_residual(T: SemigroupSnapshot, TD: SemigroupSnapshot,
                     op: SurvivalTransform) -> float:
    """max_{x,y} | (T f(., y))(x) - (T^D f(x, .))(y) | for f = F'.

    The indicator f[x, y] = 1{x - y in C} is F' by construction, so
    T f = (F T')' and f T^D' = F' T^D' cost O(n^2 d) through the
    operator, and no n x n indicator is built.
    """
    P, PD = T.T, TD.T
    if P.shape != PD.shape:
        raise ValueError("incompatible snapshot dimensions")
    lhs = op.apply(P.T).T               # [x, y]
    rhs = op.apply_transpose(PD.T)      # [x, y]
    return float(np.abs(lhs - rhs).max())


# smooth test functions of action_mismatch, on (n, d) points
_TEST_FUNCTIONS = (
    lambda x: np.exp(-0.5 * np.sum(x * x, axis=-1)),
    lambda x: np.sin(np.sum(x, axis=-1)),
    lambda x: np.sum(x, axis=-1) ** 2 / (1.0 + np.sum(x * x, axis=-1)),
)
# share of each box side over which action_mismatch's window rises to 1
_WINDOW_FRACTION = 0.25


def interior_mask(grid: Grid, margin: int = 2) -> np.ndarray:
    """Boolean mask of grid points at least `margin` cells from every face."""
    mask = np.ones(grid.shape, dtype=bool)
    for axis in range(grid.dim):
        sl = [slice(None)] * grid.dim
        sl[axis] = slice(0, margin)
        mask[tuple(sl)] = False
        sl[axis] = slice(grid.shape[axis] - margin, None)
        mask[tuple(sl)] = False
    return mask.ravel(order="C")


def entrywise_mismatch(qa: QMatrix, qb: QMatrix) -> float:
    """Max absolute entry difference over interior rows and columns
    (interior_mask at its default margin)."""
    keep = interior_mask(qa.state_grid)
    diff = qa.entries - qb.entries
    return float(np.abs(diff[np.ix_(keep, keep)]).max())


def _boundary_window(grid: Grid) -> np.ndarray:
    """Smooth cutoff, 1 deep inside the box and 0 at the faces.

    Defined in physical coordinates so halving the spacing leaves the
    windowed test functions unchanged.
    """
    pts = grid.points()
    w = np.ones(len(pts))
    for axis in range(grid.dim):
        lo, hi = grid.lower[axis], grid.upper[axis]
        m = _WINDOW_FRACTION * (hi - lo)
        d = np.minimum(pts[:, axis] - lo, hi - pts[:, axis])
        u = np.clip(d / m, 0.0, 1.0)
        w *= 0.5 - 0.5 * np.cos(np.pi * u)
    return w


def action_mismatch(qa: QMatrix, qb: QMatrix) -> float:
    """Max difference of the two generators applied to a panel of smooth
    test functions supported away from the boundary, evaluated deep inside.

    Two consistent discretizations of one operator can differ entrywise
    at O(1/h) while their action on smooth functions agrees to O(h); this
    windowed metric is the one that contracts under spacing halving.
    """
    grid = qa.state_grid
    pts = grid.points()
    w = _boundary_window(grid)
    eval_at = interior_mask(grid) & (w > 0.9)
    worst = 0.0
    for g in _TEST_FUNCTIONS:
        v = np.asarray(g(pts), dtype=float) * w
        diff = (qa.entries - qb.entries) @ v
        worst = max(worst, float(np.abs(diff[eval_at]).max()))
    return worst


@dataclass(frozen=True)
class StochasticityReport:
    passed: bool
    min_entry: float
    max_rowsum_defect: float
    # (i, j) of the most negative entry on a failing check; None on a
    # passing one, where the argmin only names rounding noise
    worst_entry_index: Optional[tuple]


ENTRY_TOL = 1e-10
ROWSUM_TOL = 1e-9


def dual_stochasticity_check(TD: SemigroupSnapshot) -> StochasticityReport:
    """Entrywise nonnegativity and row sums at most 1 of a dual snapshot:
    the dual of a conservative chain may still lose mass at the top of
    the order, so only rows exceeding 1 count as defects."""
    T = TD.T
    min_entry = float(T.min())
    max_defect = float(np.maximum(T.sum(axis=1) - 1.0, 0.0).max())
    passed = min_entry >= -ENTRY_TOL and max_defect <= ROWSUM_TOL
    worst = None
    if not passed:
        i, j = np.unravel_index(int(np.argmin(T)), T.shape)
        worst = (int(i), int(j))
    return StochasticityReport(
        passed=bool(passed),
        min_entry=min_entry,
        max_rowsum_defect=max_defect,
        worst_entry_index=worst,
    )
