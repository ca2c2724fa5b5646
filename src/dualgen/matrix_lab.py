"""Exact finite-dimensional verification of the dressing identities.

On a finite grid the survival transform F of a cone order is an
invertible 0/1 matrix, so the dual semigroup T^D = F T' F^-1 and the dual
generator Q^D = F Q' F^-1 are exact algebra, and the duality identity can
be checked to rounding.  `SurvivalTransform` is the one implementation of
F and F^-1, with two paths: cumulative sums and differences along the grid
axes for the Pareto cone, whatever basis generates R^d_+
(`Cone.is_orthant`), and a dense F with its exact Moebius inverse for any
other lattice cone (the light cone is not a product of 1-D orders).
Every semigroup here is a Kronecker product T = T_0 (x) ... (x) T_{m-1}
of m = 1 or m = d factors, and every function takes it in that one form.
Q comes with its terms as a Kronecker sum Q_0 (+) ... (+) Q_{m-1},
`QMatrix.generators`: the d per-axis generators that `discretize`
assembles on the grid axes when the spec declares per-axis coefficients
on faces that reflect or truncate, and the one generator Q otherwise.
Then exp(tQ) = (x) exp(tQ_k) (Van Loan, J. Comput. Appl. Math. 123,
2000); `semigroup` reads the terms alone.
`semigroup` takes all of a run's probe times in one call; a time whose
step from the previous one is itself an earlier time is the product
T(s) T(u) = T(s + u).  Every snapshot is checked against a separate
algorithm, the action of the exponential by uniformization
(`_uniformized_chain`, Jensen 1953, Grassmann 1977): with lambda_k the
largest |diagonal entry| of a generator Q_k, exp(tQ_k) is a Poisson
mixture of powers of the nonnegative P_k = I + Q_k / lambda_k, summed
with no cancellation.  Its domain is a sub-Markov generator, which every
`discretize` output is up to rounding; a matrix whose |P_k| has a row
sum past 1 by more than 1 / (lambda_k t) is refused.  The chain is carried
from one time to the next on a few fixed probe vectors: each factor
exp(tQ_k) on probes of its own length n_k against a chain on Q_k, at
O(nnz(Q_k) (lambda_k t + sqrt(lambda_k t))) work.  So with d factors no
chain runs on an n-row array.  The Pareto F is the Kronecker product
F_0 (x) ... (x) F_{d-1} of 1-D suffix sums, so with one factor per axis
the dual is factored too, T^D = (x) F_k T_k' F_k^-1;
`SurvivalTransform.split` pairs each factor with its transform, or
multiplies the factors out against the whole F.
`duality_residual` pairs both semigroups with the order indicator through
the same operator: the indicator is f = F', so T f = (F T')' and
f T^D' = F' T^D' cost O(n^2 d) on the Pareto path (`apply_transpose` is a
prefix sum), and no n x n indicator matrix is built for it.
The exponential is this module's `expm`, Pade scaling and squaring
(Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005) with every product a
numpy `@` on numpy's BLAS and the Pade system solved by
`np.linalg.solve`; a Pareto run loads scipy.sparse for the check and no
scipy.linalg.  scipy is imported on use, so `import dualgen` loads none
of it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, Overflow
from .generator_core import QMatrix
from .state_space import (_INDICATOR_BLOCK, MAX_STATES, Cone, Grid,
                          duality_indicator_matrix)

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
# largest Poisson mean lambda h of one uniformization substep: e^-500 is
# a normal float
_POISSON_MEAN_CAP = 500.0
_UNIT_ROUNDOFF = 2.0 ** -53


# Higham (2005), Table 2.3: the largest ||A||_1 at which the [m/m] Pade
# approximant r_m(A) = (V - U)^-1 (V + U) of e^A has backward error at most
# 2^-53, and its coefficients b_0, ..., b_m
_PADE_LOW = (
    (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0,
                            25200.0, 1512.0, 56.0, 1.0)),
    (2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0,
                           302702400.0, 30270240.0, 2162160.0, 110880.0,
                           3960.0, 90.0, 1.0)),
)
_THETA_13 = 5.371920351148152e0
_PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0,
            670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
            960960.0, 16380.0, 182.0, 1.0)


def expm(A) -> np.ndarray:
    """e^A by Pade scaling and squaring (Higham, SIAM J. Matrix Anal.
    Appl. 26(4), 2005), every product a numpy `@`.

    With ||A||_1 at most theta_m for m = 3, 5, 7 or 9 (`_PADE_LOW`), e^A
    is the [m/m] approximant, U and V built from the even powers of A.
    Otherwise it is r_13(A / 2^s) squared s times, with s the exponent of
    ||A||_1 / theta_13 (`math.frexp`), at least 0: doubling A adds
    exactly one squaring of the same scaled matrix, so expm(2A) is
    expm(A) @ expm(A) bit for bit once A takes the degree-13 path.  A
    NaN or infinite entry raises Overflow before any product.  A module
    attribute, so the calls can be counted or replaced.
    """
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise Overflow("expm of a matrix with a NaN or infinite entry")
    norm = float(np.abs(A).sum(axis=0).max(initial=0.0))
    ident = np.eye(len(A))
    for theta, b in _PADE_LOW:
        if norm <= theta:
            A2 = A @ A
            powers = [ident, A2]
            while len(powers) < len(b) // 2:
                powers.append(powers[-1] @ A2)
            U = A @ sum(c * P for c, P in zip(b[1::2], powers))
            V = sum(c * P for c, P in zip(b[0::2], powers))
            return np.linalg.solve(V - U, V + U)
    s = max(0, math.frexp(norm / _THETA_13)[1])
    A = A * 2.0 ** -s
    b = _PADE_13
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R


@dataclass(frozen=True)
class SemigroupSnapshot:
    """T = exp(tQ) at time t, held as Kronecker factors.

    `factors` is (T_0, ..., T_{m-1}) with T = T_0 (x) ... (x) T_{m-1}: one
    factor per grid axis when Q is a Kronecker sum of per-axis
    generators, one n x n factor otherwise.  `.T` multiplies the factors
    out on access, an n x n array that verify-matrix never reads on a
    factored snapshot.  `semigroup` also records t sum_k ||Q_k||_inf,
    which bounds ||tQ||_inf, as `norm` and
    the probe-vector check's largest error over the factors as
    `check_error`; they stay None on a snapshot built another way (for
    example the dual's).
    """

    t: float
    factors: tuple
    norm: Optional[float] = None
    check_error: Optional[float] = None

    @property
    def n(self) -> int:
        return math.prod(len(A) for A in self.factors)

    @property
    def T(self) -> np.ndarray:
        """T itself: the Kronecker product of the factors."""
        return functools.reduce(np.kron, self.factors)


# The Pareto F one grid axis at a time, with zero extension beyond the
# grid: F is the suffix sum, F' the prefix sum, F^-1 the forward
# difference g(y) - g(y + h e_axis) and F^-T the backward difference.
def _suffix_sum(v, axis):
    return np.flip(np.cumsum(np.flip(v, axis=axis), axis=axis), axis=axis)


def _prefix_sum(v, axis):
    return np.cumsum(v, axis=axis)


def _forward_difference(v, axis):
    return -np.diff(v, axis=axis, append=0.0)


def _backward_difference(v, axis):
    return np.diff(v, axis=axis, prepend=0.0)


class SurvivalTransform:
    """The survival transform F of a cone order on a grid, and F^-1.

    (F w)[y] = sum of w[x] over {x : x - y in C}.  Every method acts on
    axis 0 of an (n,) or (n, k) array, n the number of grid points.

    Pareto cone (any basis of R^d_+, `Cone.is_orthant`): F is a suffix
    cumulative sum along every grid axis, F^-1 the forward difference
    g(y) - g(y + h e_axis) and F^-T the backward difference, each with
    zero extension beyond the grid; F F^-1 = I holds exactly.  So
    F = F_0 (x) ... (x) F_{d-1}, and `split` pairs per-axis factors with
    the 1-D transforms F_k of the grid axes.  Other cones: F = f' with f
    the duality indicator matrix, and F^-1 by unit-triangular solve after
    sorting the states along the cone (the Moebius matrix of the finite
    order).
    """

    def __init__(self, grid: Grid, cone: Cone):
        if grid.dim != cone.dim:
            raise DimensionMismatch("grid and cone dimensions differ")
        self.grid = grid
        self._dense = None
        self._axes = None
        if cone.is_orthant:
            self._axes = (self,) if grid.dim == 1 else tuple(
                SurvivalTransform(grid.axis(k), Cone.pareto(1))
                for k in range(grid.dim))
        else:
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
            self._dense = (F, Finv, F.T, Finv.T)

    def _on_grid(self, a, step, dense: int):
        """Apply `step(array, axis)` along every grid axis of a's axis 0,
        or on a dense transform its matrix `_dense[dense]` (F, F^-1, F'
        or F^-T)."""
        a = np.asarray(a, dtype=float)
        if a.shape[0] != self.grid.n_points:
            raise DimensionMismatch(
                f"array of length {a.shape[0]} on a grid of "
                f"{self.grid.n_points} points")
        if self._dense is not None:
            return self._dense[dense] @ a
        v = a.reshape(self.grid.shape + a.shape[1:])
        for axis in range(self.grid.dim):
            v = step(v, axis)
        return v.reshape(a.shape)

    def apply(self, w) -> np.ndarray:
        """F w: the survival function of w."""
        return self._on_grid(w, _suffix_sum, 0)

    def apply_transpose(self, v) -> np.ndarray:
        """F' v = f v, the pairing of v with the order indicator f (prefix
        sums along the grid axes for the Pareto cone)."""
        return self._on_grid(v, _prefix_sum, 2)

    def apply_inverse(self, g) -> np.ndarray:
        """F^-1 g: the measure whose survival function is g."""
        return self._on_grid(g, _forward_difference, 1)

    def _apply_inverse_transpose(self, a) -> np.ndarray:
        return self._on_grid(a, _backward_difference, 3)

    def conjugate(self, A) -> np.ndarray:
        """F A' F^-1 for an (n, n) matrix A, as F (F^-T A)'."""
        return self.apply(self._apply_inverse_transpose(A).T)

    def split(self, *factor_sets) -> tuple:
        """(transforms, *factor_sets), each set aligned with the transforms.

        When F = F_0 (x) ... (x) F_{d-1} (the Pareto cone) and every set
        holds one square factor per grid axis, of that axis's length, the
        transforms are the 1-D F_k and the sets are returned as given;
        otherwise the transform is (self,) and each set is multiplied out
        to its one n x n factor.  On a 1-D grid F_0 is this transform
        itself."""
        shapes = [(m, m) for m in self.grid.shape]
        if self._axes is not None and all(
                [A.shape for A in fs] == shapes for fs in factor_sets):
            return (self._axes, *factor_sets)
        return ((self,), *((functools.reduce(np.kron, fs),)
                           for fs in factor_sets))


def forward_F_matrix(grid: Grid, cone: Cone) -> np.ndarray:
    """Dense matrix of the survival transform, F[y, x] = 1{x - y in C}."""
    return SurvivalTransform(grid, cone).apply(np.eye(grid.n_points))


def inverse_F_matrix(grid: Grid, cone: Cone) -> np.ndarray:
    """Dense exact inverse of forward_F_matrix, never by numeric inversion."""
    return SurvivalTransform(grid, cone).apply_inverse(np.eye(grid.n_points))


def _csr(Q):
    """Q in CSR form from one pass over its flat nonzero mask, about a
    third of the time csr_matrix(Q) takes on a dense 2025 x 2025 Q."""
    from scipy.sparse import csr_matrix
    mask = Q != 0
    flat = np.flatnonzero(mask)
    indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=1))))
    return csr_matrix((Q.ravel()[flat], flat % Q.shape[1], indptr),
                      shape=Q.shape)


def _uniformized_chain(A, V, steps) -> list:
    """[W_1, ..., W_m] with W_0 = V and W_k = exp(d_k A) W_{k-1} for the
    steps d_k >= 0: the action of the exponential by uniformization
    (Jensen, Skand. Aktuarietidskr. 36, 1953; Grassmann, Comput. Oper.
    Res. 4, 1977).

    A is a square array or CSR matrix, and V has A's length in rows.
    With lambda = max |a_ii| and P = I + A / lambda (in CSR form
    whichever A is), exp(hA) F is the Poisson mixture sum_k w_k P^k F,
    w_k = e^-x x^k / k!, x = lambda h.
    A step d is taken in ceil(lambda d / `_POISSON_MEAN_CAP`) substeps h,
    so e^-x stays a normal float; w_k = w_{k-1} x / k, and a substep stops
    at the first K whose Poisson tail bound w_K r / (1 - r),
    r = x / (K + 1) < 1, is at most 2^-53: w_K x <= 2^-53 (K + 1 - x),
    which cannot hold while K + 1 <= x.  That bounds the error by
    2^-53 ||F||_inf when rho = ||P||_inf <= 1, as for a sub-Markov
    generator, where P >= 0 and the sum has no cancellation; rounding
    can lift rho just above 1, so the chain raises Overflow, naming rho,
    only once lambda (d_1 + ... + d_m) (rho - 1) > 1, up to which the
    bound grows by at most a factor e.  The zero generator returns V.
    The work is O(nnz(A) (lambda d + sqrt(lambda d))) per step d.
    """
    lam = float(abs(A.diagonal()).max())
    if not lam:
        if abs(A).max():
            raise Overflow("uniformization needs a sub-Markov generator, "
                           "not a zero diagonal with off-diagonal entries")
        return [V] * len(steps)
    from scipy.sparse import csr_matrix, identity
    P = identity(len(V), format="csr") + csr_matrix(A) / lam
    rho = float(abs(P).sum(axis=1).max())
    # written as `not <=` so that a NaN fails the comparison too
    if not lam * sum(steps) * (rho - 1.0) <= 1.0:
        raise Overflow(f"uniformization needs a sub-Markov generator: "
                       f"||I + A/lambda||_inf = {rho:.17g} > 1")
    out, F = [], V
    for step in steps:
        substeps = math.ceil(lam * step / _POISSON_MEAN_CAP)
        for _ in range(substeps):
            x = lam * step / substeps
            w, B = math.exp(-x), F
            F, k = w * B, 0
            while w * x > _UNIT_ROUNDOFF * (k + 1 - x):
                k += 1
                B = P @ B
                w *= x / k
                F += w * B
        out.append(F)
    return out


def _compose(earlier, step) -> tuple:
    """The factors of T(s + u) = T(s) T(u), factor by factor: the
    Kronecker product of products is the product of Kronecker products."""
    return tuple(A @ B for A, B in zip(earlier, step))


def semigroup(q: QMatrix, t):
    """Transition matrices exp(tQ) at one time or several, checked on
    probe vectors.

    A scalar t gives one `SemigroupSnapshot`; a sequence of times gives a
    tuple with one snapshot per time, in the order given.  Once per call,
    each term Q_k of `q.generators` is made sparse, and t sum_k ||Q_k||_inf
    (a bound on ||tQ||_inf) is capped at `_EXPM_NORM_LIMIT`.  A snapshot
    holds the factors expm(tQ_k) of T = (x) expm(tQ_k): d of them,
    sum n_k^3 work instead of n^3, where `discretize` found the spec
    separable, and the one factor expm(tQ) on every other grid;
    `q.entries` is never read.  Each fresh factor is this module's
    `expm`: Pade scaling and squaring (Higham 2005) on numpy's BLAS.

    The times are taken in increasing order t_1 < ... < t_m, with steps
    d_k = t_k - t_{k-1} (t_0 = 0).  When d_k is exactly an earlier time,
    T(t_k) = T(t_{k-1}) T(d_k), one product per factor (T(s + u) =
    T(s) T(u)), and no `expm` runs; otherwise T(t_k) is a fresh `expm`.
    On dyadic times such as 0.25, 0.5, 1 the product is the squaring
    that scaling and squaring of expm(t_k Q) would do itself, bit for bit
    once ||d_k Q||_1 takes `expm`'s degree-13 path.

    Every snapshot is checked against an independent algorithm, factor
    by factor: T_j(t_k) V_j is compared with `_uniformized_chain` on the
    sparse Q_j along the steps d_1, ..., d_k, on `_CHECK_PROBES` fixed
    random columns V_j of length n_j with entries in [-1, 1], to 1e-10
    of max(1, ||T_j||_inf).  It shares no step with Pade scaling and
    squaring or the products, so a wrong, transposed or stale factor
    fails it; expm(tQ / 2) squared would not.  The chain's domain (a
    sub-Markov Q_j, else Overflow) and its work are `_uniformized_chain`'s,
    on arrays of the factors' lengths; expm's grows only with the
    logarithm of the norm.  `check_error` records the largest error over
    the factors.
    """
    one = np.ndim(t) == 0
    times = [float(s) for s in np.atleast_1d(t)]
    if any(s < 0 for s in times):
        raise ValueError("t must be nonnegative")
    if q.n > MAX_STATES:
        raise Overflow(f"{q.n} states exceeds the dense cap of {MAX_STATES}")

    gens = q.generators
    sparse = [_csr(G) for G in gens]
    q_norm = sum(float(abs(S).sum(axis=1).max()) for S in sparse)
    chain = sorted(set(times))
    for s in chain:
        # written as `not <=` so that a NaN fails the comparison too
        if not s * q_norm <= _EXPM_NORM_LIMIT:
            raise Overflow(f"||tQ|| = {s * q_norm:.3g} too large; use "
                           "smaller t or a coarser grid")
    rng = np.random.default_rng(0)
    probes = [rng.uniform(-1.0, 1.0, size=(len(G), _CHECK_PROBES))
              for G in gens]
    starts = [0.0] + chain[:-1]
    steps = [s - prev for prev, s in zip(starts, chain)]
    checks = [_uniformized_chain(S, V, steps)
              for S, V in zip(sparse, probes)]
    snaps = {}
    for i, (prev, s, step) in enumerate(zip(starts, chain, steps)):
        if step in snaps:
            factors = _compose(snaps[prev].factors, snaps[step].factors)
        else:
            factors = tuple(expm(s * G) for G in gens)
        err = 0.0
        for T, V, W in zip(factors, probes, checks):
            e = float(np.abs(T @ V - W[i]).max())
            if not e <= 1e-10 * max(1.0, np.abs(T).sum(axis=1).max()):
                raise Overflow(f"matrix exponential self-check failed at "
                               f"t = {s:g}: {e:.3g}")
            err = max(err, e)
        snaps[s] = SemigroupSnapshot(t=s, factors=factors, norm=s * q_norm,
                                     check_error=err)
    out = tuple(snaps[s] for s in times)
    return out[0] if one else out


def dual_semigroup_via_F(T: SemigroupSnapshot,
                         op: SurvivalTransform) -> SemigroupSnapshot:
    """T^D(t) = F . transpose(T(t)) . F^-1 on the grid point basis; `op`
    is built once per grid and cone and shared across probe times.

    Each factor is conjugated by the transform `op.split` pairs it with:
    with one factor per grid axis and the Pareto F = (x) F_k the dual is
    factored too, T^D = (x) F_k T_k' F_k^-1; otherwise it is the one
    factor F T' F^-1.
    """
    axes, factors = op.split(T.factors)
    return SemigroupSnapshot(t=T.t, factors=tuple(
        ax.conjugate(A) for ax, A in zip(axes, factors)))


def dual_generator_via_F(q: QMatrix, grid: Grid, cone: Cone) -> QMatrix:
    """Q^D = F . Q' . F^-1, the matrix oracle for every closed-form dual."""
    return QMatrix(entries=SurvivalTransform(grid, cone).conjugate(q.entries),
                   state_grid=grid)


def duality_residual(T: SemigroupSnapshot, TD: SemigroupSnapshot,
                     op: SurvivalTransform) -> float:
    """max_{x,y} | (T f(., y))(x) - (T^D f(x, .))(y) | for f = F'.

    The indicator f[x, y] = 1{x - y in C} is F' by construction, so
    T f = (F T')' and f T^D' = F' T^D' cost O(n^2 d) through the
    operator, and no n x n indicator is built.  With the factors
    `op.split` aligns with its transforms, both sides are Kronecker
    products, T f = (x) M_k and f T^D' = (x) N_k with M_k = (F_k T_k')'
    and N_k = F_k' T^D_k'.  The max runs over all n^2 pairs, taken over
    blocks of rows of M_0 of at most `_INDICATOR_BLOCK` entries each.
    """
    if T.n != TD.n:
        raise ValueError("incompatible snapshot dimensions")
    axes, Ps, PDs = op.split(T.factors, TD.factors)
    M = [ax.apply(P.T).T for ax, P in zip(axes, Ps)]             # [x, y]
    N = [ax.apply_transpose(PD.T) for ax, PD in zip(axes, PDs)]  # [x, y]
    rest_M, rest_N = (functools.reduce(np.kron, X[1:], np.ones((1, 1)))
                      for X in (M, N))
    rows = max(1, _INDICATOR_BLOCK // (T.n * len(rest_M)))
    worst = 0.0
    for r in range(0, len(M[0]), rows):
        block = np.multiply.outer(M[0][r:r + rows], rest_M)
        block -= np.multiply.outer(N[0][r:r + rows], rest_N)
        worst = max(worst, float(np.abs(block, out=block).max()))
    return worst


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
    k = np.indices(grid.shape).reshape(grid.dim, -1)
    far = np.reshape(grid.shape, (-1, 1)) - margin
    return np.all((k >= margin) & (k < far), axis=0)


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
    the order, so only rows exceeding 1 count as defects.

    Every entry of (x) A_k is a product of one entry per factor, and
    multiplying by a fixed number is monotone, so the smallest entry is
    the smallest product of per-factor smallest and largest entries,
    carried factor by factor in the order np.kron multiplies (the same
    number as the product's own minimum).  The row sums are the Kronecker
    product of the per-factor row sums.  This costs O(sum n_k^2 + n) and
    builds no n x n array; on one factor it is T.min() and T.sum(axis=1).
    """
    # (value, end of each factor so far: 0 its min, 1 its max) of the
    # smallest and the largest entry of the product of the factors so far
    lo = hi = (1.0, ())
    for A in TD.factors:
        ends = (A.min(), A.max())
        cands = [(v * ends[e], p + (e,)) for v, p in (lo, hi) for e in (0, 1)]
        lo = min(cands, key=lambda c: c[0])
        hi = max(cands, key=lambda c: c[0])
    min_entry = float(lo[0])
    rowsums = functools.reduce(np.kron, [A.sum(axis=1) for A in TD.factors])
    max_defect = float(np.maximum(rowsums - 1.0, 0.0).max())
    passed = min_entry >= -ENTRY_TOL and max_defect <= ROWSUM_TOL
    worst = None
    if not passed:
        # each factor's first entry at its end, as np.argmin picks
        ij = [np.unravel_index(int(np.argmax(A) if e else np.argmin(A)),
                               A.shape) for A, e in zip(TD.factors, lo[1])]
        shape = tuple(len(A) for A in TD.factors)
        worst = tuple(int(np.ravel_multi_index(idx, shape))
                      for idx in zip(*ij))
    return StochasticityReport(
        passed=bool(passed),
        min_entry=min_entry,
        max_rowsum_defect=max_defect,
        worst_entry_index=worst,
    )
