"""Generator specifications and their discretization to finite Q-matrices.

A ProcessSpec declares drift, diffusion and jump parts of a Levy-type
generator  L g = sum a_ij d2g/dxi dxj + b . grad g + integral terms.
Discretization uses upwind first differences for the drift, central
second differences with the positive 7-point stencil for cross terms,
and midpoint quadrature per grid cell for jump kernels, so conditional
positivity holds by construction.  `discretize` evaluates declared
per-axis drift and diffusion on whole coordinate columns (generic
callables and the jump compensator once per state) and then assembles
each stencil move for all states at once with array writes
(`_axis_neighbor` maps a whole array of flat indices across a boundary),
accumulating every entry in the same order as a state-by-state loop
would, so Q is the same to the bit.  NaN or inf coefficients raise
NonFiniteCoefficient instead of vanishing from the stencil.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    CFLWarning,
    ClippingWarning,
    DimensionMismatch,
    NonFiniteCoefficient,
    PositivityViolation,
)
from .state_space import Grid

__all__ = [
    "ProcessSpec",
    "JumpKernel",
    "AtomicJumpKernel",
    "DensityJumpKernel",
    "SeparableJumpKernel",
    "QMatrix",
    "ValidationReport",
    "discretize",
    "adjoint",
    "validate_qmatrix",
]


# ---------------------------------------------------------------------------
# jump kernels

def map_target(grid: Grid, w, tol: float = 1e-6):
    """Grid index receiving a jump to the point w, honoring boundary policy.

    Returns None when the mass leaves the grid (truncate_mass policy).
    """
    w = np.asarray(w, dtype=float).copy()
    for axis in range(grid.dim):
        lo, hi = grid.lower[axis], grid.upper[axis]
        pol_lo, pol_hi = grid.boundary_policy[axis]
        h_ax = grid.spacing[axis]
        for _ in range(64):
            if w[axis] < lo - tol * h_ax:
                if pol_lo == "reflect":
                    # edge mirror, matching the stencil's reflect convention
                    w[axis] = 2 * lo - w[axis] - h_ax
                elif pol_lo == "absorb":
                    w[axis] = lo
                else:
                    return None
            elif w[axis] > hi + tol * h_ax:
                if pol_hi == "reflect":
                    w[axis] = 2 * hi - w[axis] + h_ax
                elif pol_hi == "absorb":
                    w[axis] = hi
                else:
                    return None
            else:
                break
    idx = np.rint((w - grid.lower) / grid.spacing).astype(int)
    idx = np.clip(idx, 0, np.array(grid.shape) - 1)
    return int(np.ravel_multi_index(tuple(idx), grid.shape, order="C"))


class JumpKernel:
    """Interface shared by concrete jump kernels."""

    def cell_rates(self, x: np.ndarray, grid: Grid) -> np.ndarray:
        """Rates from state x into each grid cell (length grid.n_points)."""
        raise NotImplementedError

    def total_rate(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def compensator_drift(self, x: np.ndarray, cutoff: float) -> np.ndarray:
        """integral of (w - x) over |w - x| <= cutoff against nu(x, dw)."""
        raise NotImplementedError


@dataclass(frozen=True)
class AtomicJumpKernel(JumpKernel):
    """Finite list of jump channels.

    Each channel is (displacement, rate) or (target_map, rate); rates may
    be constants or callables of the state.  rate_derivs, when supplied,
    are the z-derivatives of the rate functions used by the dual
    construction (never differentiated numerically there).
    """

    jumps: tuple            # ((displacement | target_map, rate), ...)
    rate_derivs: tuple = ()  # optional, aligned with jumps

    def _channels(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        for where, rate in self.jumps:
            r = float(rate(x) if callable(rate) else rate)
            if callable(where):
                w = np.atleast_1d(np.asarray(where(x), dtype=float))
            else:
                w = x + np.atleast_1d(np.asarray(where, dtype=float))
            yield w, r

    def cell_rates(self, x, grid: Grid) -> np.ndarray:
        out = np.zeros(grid.n_points)
        for w, r in self._channels(x):
            if r == 0.0:
                continue
            idx = map_target(grid, w)
            if idx is not None:
                out[idx] += r
        return out

    def total_rate(self, x) -> float:
        return sum(r for _, r in self._channels(x))

    def compensator_drift(self, x, cutoff: float) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        drift = np.zeros_like(x)
        for w, r in self._channels(x):
            dz = w - x
            if np.linalg.norm(dz) <= cutoff:
                drift += dz * r
        return drift


@dataclass(frozen=True)
class DensityJumpKernel(JumpKernel):
    """Jump kernel with a Lebesgue density nu(x, w).

    density(x, W) is vectorized over an (m, d) array of targets W.
    derivs maps sorted axis tuples I to the mixed derivative densities
    d^{|I|} nu / dz_I, supplied analytically.
    """

    density: Callable
    derivs: dict = field(default_factory=dict)
    smoothness: int = 0
    support_note: str = ""

    def cell_rates(self, x, grid: Grid) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        pts = grid.points()
        vol = float(np.prod(grid.spacing))
        rates = np.asarray(self.density(x, pts), dtype=float) * vol
        rates = np.clip(rates, 0.0, None)
        return rates

    def total_rate(self, x) -> float:
        raise NotImplementedError("total rate of a density kernel is grid-bound; "
                                  "use cell_rates(x, grid).sum()")

    def compensator_drift(self, x, cutoff: float) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class SeparableJumpKernel(JumpKernel):
    """Sum of per-axis kernels nu_j(z_j, dw_j), each moving one coordinate."""

    components: tuple       # ((axis, JumpKernel acting in 1-D), ...)

    def cell_rates(self, x, grid: Grid) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(grid.n_points)
        for axis, kern in self.components:
            # embed the 1-D channel along the given axis
            for w1, r in kern._channels(np.array([x[axis]])):
                if r == 0.0:
                    continue
                w = x.copy()
                w[axis] = w1[0]
                idx = map_target(grid, w)
                if idx is not None:
                    out[idx] += r
        return out

    def total_rate(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return sum(kern.total_rate(np.array([x[axis]]))
                   for axis, kern in self.components)

    def compensator_drift(self, x, cutoff: float) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        drift = np.zeros_like(x)
        for axis, kern in self.components:
            drift[axis] += kern.compensator_drift(np.array([x[axis]]), cutoff)[0]
        return drift


# ---------------------------------------------------------------------------
# process specifications

@dataclass(frozen=True)
class ProcessSpec:
    """Declarative description of a Levy-type generator.

    Structured coefficient declarations (drift_components, diffusion_diag,
    diffusion_offdiag) carry the separability information that the dual
    construction needs; generic callables (drift, diffusion) suffice for
    discretization and simulation.
    """

    dim: int
    drift: Optional[Callable] = None
    drift_components: Optional[tuple] = None        # b_j(x_j), unary callables
    diffusion: Optional[Callable] = None
    diffusion_diag: Optional[tuple] = None          # a_jj(x_j), unary callables
    diffusion_diag_deriv: Optional[tuple] = None    # a'_jj(x_j)
    diffusion_offdiag: Optional[dict] = None        # {(i, j): a_ij(x_i, x_j)}, i < j
    jump: Optional[JumpKernel] = None
    jump_compensated: bool = False
    compensator_cutoff: float = 1.0
    domain: str = "full_space"                      # 'full_space' | 'half_line'
    boundary: Optional[str] = None                  # 'reflect' | 'absorb' | 'none'

    def __post_init__(self):
        if self.drift is None and self.drift_components is None \
                and self.diffusion is None and self.diffusion_diag is None \
                and self.jump is None:
            raise ValueError("at least one of drift/diffusion/jump is required")
        if self.domain not in ("full_space", "half_line"):
            raise ValueError(f"unknown domain {self.domain!r}")

    @classmethod
    def one_dim(cls, a=None, b=None, da=None, nu=None, domain="full_space",
                boundary=None, jump_compensated=False, compensator_cutoff=1.0):
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
            jump_compensated=jump_compensated,
            compensator_cutoff=compensator_cutoff,
            domain=domain,
            boundary=boundary,
        )

    def eval_drift(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.drift_components is not None:
            return np.array([float(bj(x[j])) for j, bj in
                             enumerate(self.drift_components)])
        if self.drift is not None:
            return np.atleast_1d(np.asarray(self.drift(x), dtype=float))
        return np.zeros(self.dim)

    def eval_diffusion(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.diffusion_diag is not None:
            a = np.zeros((self.dim, self.dim))
            for j, ajj in enumerate(self.diffusion_diag):
                a[j, j] = float(ajj(x[j]))
            for (i, j), aij in (self.diffusion_offdiag or {}).items():
                a[i, j] = a[j, i] = float(aij(x[i], x[j]))
            return a
        if self.diffusion is not None:
            a = np.asarray(self.diffusion(x), dtype=float)
            if a.ndim == 0:
                a = a.reshape(1, 1)
            return a
        return np.zeros((self.dim, self.dim))

    def has_diffusion(self) -> bool:
        return self.diffusion is not None or self.diffusion_diag is not None

    def check_psd(self, probes: np.ndarray, tol: float = 1e-10):
        """First probe point where the diffusion matrix fails PSD, or None."""
        for x in probes:
            eigs = np.linalg.eigvalsh(self.eval_diffusion(x))
            if eigs.min() < -tol:
                return x, float(eigs.min())
        return None


# ---------------------------------------------------------------------------
# Q-matrices

@dataclass(frozen=True)
class QMatrix:
    """Finite-state generator on the points of a grid."""

    entries: np.ndarray
    state_grid: Grid

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    offdiag_violations: tuple    # ((i, j, value), ...)
    rowsum_defects: tuple        # ((i, value), ...)
    max_offdiag_negativity: float
    max_rowsum_defect: float


def _axis_neighbor(grid: Grid, flat: np.ndarray, axis: int, step) -> np.ndarray:
    """Flat indices `step` cells from `flat` along `axis`, boundary-mapped;
    -1 where truncate_mass drops the move."""
    n = grid.shape[axis]
    stride = int(np.prod(grid.shape[axis + 1:], dtype=int))
    k = flat // stride % n
    j = k + step
    pol_lo, pol_hi = grid.boundary_policy[axis]
    below, above = j < 0, j >= n
    # reflect mirrors about the face through the boundary point's cell
    # edge, so the boundary state keeps the suppressed move (Neumann)
    j = np.where(below, -j - 1 if pol_lo == "reflect" else 0, j)
    j = np.where(above, 2 * n - 1 - j if pol_hi == "reflect" else n - 1, j)
    out = flat + (j - k) * stride
    if pol_lo == "truncate_mass":
        out[below] = -1
    if pol_hi == "truncate_mass":
        out[above] = -1
    return out


def _absorbing_mask(grid: Grid) -> np.ndarray:
    """Flat mask of states on faces with absorb policy (zero rows)."""
    mask = np.zeros(grid.shape, dtype=bool)
    for axis, policies in enumerate(grid.boundary_policy):
        for end, pol in zip((0, -1), policies):
            if pol == "absorb":
                face = [slice(None)] * grid.dim
                face[axis] = end
                mask[tuple(face)] = True
    return mask.ravel(order="C")


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


def _on_column(fn, *columns) -> np.ndarray:
    """A declared coefficient evaluated on whole coordinate columns; a
    constant result is broadcast to one value per state."""
    return np.broadcast_to(np.asarray(fn(*columns), dtype=float),
                           columns[0].shape)


def _drift_rows(spec: ProcessSpec, X: np.ndarray) -> np.ndarray:
    """b at each row of X, (m, d): declared b_j(x_j) on the column of
    axis j, a generic drift state by state."""
    if spec.drift_components is not None:
        B = np.empty(X.shape)
        for j, bj in enumerate(spec.drift_components):
            B[:, j] = _on_column(bj, X[:, j])
        return B
    return np.array([spec.eval_drift(x) for x in X]).reshape(X.shape)


def _diffusion_rows(spec: ProcessSpec, X: np.ndarray) -> np.ndarray:
    """a at each row of X, (m, d, d): declared a_jj(x_j) and a_ij(x_i, x_j)
    on whole columns, a generic diffusion state by state."""
    m, d = X.shape
    if spec.diffusion_diag is not None:
        A = np.zeros((m, d, d))
        for j, ajj in enumerate(spec.diffusion_diag):
            A[:, j, j] = _on_column(ajj, X[:, j])
        for (i, j), aij in (spec.diffusion_offdiag or {}).items():
            A[:, i, j] = A[:, j, i] = _on_column(aij, X[:, i], X[:, j])
        return A
    return np.array([spec.eval_diffusion(x) for x in X]).reshape(m, d, d)


def discretize(spec: ProcessSpec, grid: Grid, clip_cross: bool = True) -> QMatrix:
    """Finite-difference / quadrature discretization of the generator.

    Upwind drift, central diffusion with the positive cross stencil,
    midpoint jump quadrature; boundary rows follow the grid's per-axis
    boundary policy.  Drift and diffusion are evaluated once per state,
    declared per-axis coefficients on whole columns of the grid points;
    each stencil move is then written for all states at once, in the
    same order per entry as a state-by-state loop, so Q does not depend
    on how the assembly is batched.  Raises NonFiniteCoefficient on a
    NaN or inf drift, diffusion or jump rate.
    """
    if spec.dim != grid.dim:
        raise DimensionMismatch("spec and grid dimensions differ")
    n_states = grid.n_points
    Q = np.zeros((n_states, n_states))
    live = np.flatnonzero(~_absorbing_mask(grid))
    h = grid.spacing
    pts = grid.points()
    d = spec.dim

    X = pts[live]
    B = _drift_rows(spec, X)
    if spec.jump is not None and spec.jump_compensated:
        B = B - np.array([spec.jump.compensator_drift(
            x, spec.compensator_cutoff) for x in X]).reshape(len(live), d)
    _require_finite(B, "drift b", live, pts)
    A = None
    if spec.has_diffusion():
        A = _diffusion_rows(spec, X)
        _require_finite(A, "diffusion a", live, pts)

    # kernels with a non-conservative diagonal (a genuine death term)
    # provide their generator rows whole instead of off-diagonal rates
    jump_matrix = None
    if spec.jump is not None and hasattr(spec.jump, "generator_matrix"):
        jump_matrix = spec.jump.generator_matrix(grid)
        _require_finite(jump_matrix[live], "jump generator row", live, pts)

    Qf = Q.reshape(-1)
    diag = np.zeros(len(live))

    def add(sel, target, rate):
        """Move `rate` from each live state where `sel` holds to `target`:
        -1 kills the mass (truncate_mass), the state itself is no move."""
        moved = sel & (target != live)
        to_grid = moved & (target >= 0)
        Qf[live[to_grid] * n_states + target[to_grid]] += rate[to_grid]
        diag[moved] -= rate[moved]

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
            if not clip_cross:
                raise PositivityViolation(
                    f"cross terms exceed diagonal at state {live[first_clip]}: "
                    f"a = {A[first_clip]}")
            warnings.warn(
                "cross-diffusion terms clipped to preserve positivity",
                ClippingWarning)
            diag_rates[clipped] = np.clip(diag_rates[clipped], 0.0, None)
            if len(cfl) and first_cfl >= first_clip:
                warnings.warn(cfl_message, CFLWarning)

        for ax in range(d):
            r = diag_rates[:, ax] / h[ax] ** 2
            for step in (+1, -1):
                add(r != 0.0, _axis_neighbor(grid, live, ax, step), r)
        for ai in range(d):
            for aj in range(ai + 1, d):
                c = A[:, ai, aj]
                sgn = np.where(c > 0, 1, -1)
                for direction in (+1, -1):
                    t = _axis_neighbor(grid, live, ai, direction)
                    ok = t >= 0
                    t[ok] = _axis_neighbor(grid, t[ok], aj,
                                           direction * sgn[ok])
                    add(c != 0.0, t, np.abs(c) / (h[ai] * h[aj]))

    for ax in range(d):
        b = B[:, ax]
        add(b != 0.0, _axis_neighbor(grid, live, ax, np.where(b > 0, 1, -1)),
            np.abs(b) / h[ax])

    Q[live, live] = diag
    if jump_matrix is not None:
        Q[live] += jump_matrix[live]
    elif spec.jump is not None:
        for i in live:
            rates = spec.jump.cell_rates(pts[i], grid)
            _require_finite(rates[None], "jump rate", [i], pts)
            rates_sum = float(rates.sum()) - float(rates[i])
            Q[i] += rates
            Q[i, i] -= float(rates[i])      # same-cell jumps are self-loops
            Q[i, i] -= rates_sum

    return QMatrix(entries=Q, state_grid=grid)


def adjoint(q: QMatrix) -> QMatrix:
    """Discrete standard dual L': transpose under the counting pairing."""
    return QMatrix(entries=q.entries.T.copy(), state_grid=q.state_grid)


def validate_qmatrix(q: QMatrix, conservative: bool = True,
                     offdiag_tol: float = 1e-12,
                     rowsum_tol: float = 1e-10) -> ValidationReport:
    """Report conditional-positivity and row-sum defects."""
    Q = q.entries
    off = Q - np.diag(np.diag(Q))
    viol_idx = np.argwhere(off < -offdiag_tol)
    violations = tuple((int(i), int(j), float(Q[i, j])) for i, j in viol_idx)
    rs = Q.sum(axis=1)
    if conservative:
        bad_rows = np.nonzero(np.abs(rs) > rowsum_tol)[0]
    else:
        bad_rows = np.nonzero(rs > rowsum_tol)[0]   # killing allowed, sums <= 0
    defects = tuple((int(i), float(rs[i])) for i in bad_rows)
    max_neg = float(-off.min()) if off.size and off.min() < 0 else 0.0
    max_defect = float(np.abs(rs).max()) if conservative else \
        float(max(rs.max(), 0.0))
    return ValidationReport(
        passed=not violations and not defects,
        offdiag_violations=violations,
        rowsum_defects=defects,
        max_offdiag_negativity=max_neg,
        max_rowsum_defect=max_defect,
    )
