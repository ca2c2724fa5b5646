"""Closed-form dual generators and the admissibility / self-duality checks.

The Siegmund-type dual of a generator under the Pareto (componentwise)
order:  deterministic motion reverses sign, a diffusion keeps its matrix
and picks up the derivative drift a'_jj, and jump kernels dualize through
the monotone tail rates  z -> integral over {w >= y} of nu(z, dw), which
are formed on whole arrays from the kernel's own rate evaluators.  The
dual is linear in the generator, so `closed_form_dual`, the one builder
of a process's dual in every dimension, adds the part duals: drift
a'_jj - b_j, the same diffusion, and the jump part's dual; on the half
line it swaps the face (reflected <-> absorbed at 0).  It reads the
parts as the spec declares them, checked when the spec was built: the
drift and diffusion per axis, the jump channels as displacements.  A
separable jump part is dualized axis by axis, each axis by the 1-D
Siegmund dual on all its channels (in 1-D too): the Pareto F is
(x) F_k and the generator (+) Q_k, so F Q' F^-1 is
(+) F_k Q_k' F_k^-1.  A jump part neither atomic nor separable (a
stable-like kernel, a d >= 2 density) has no closed form (NotSeparable).
`check_self_dual` compares a process with that dual: its drift and face
come from the one helper both call (`_dual_drift_and_face`), with the
same refusals, and a constant-rate atomic jump part is compared channel
by channel with its Siegmund dual.  Admissibility
is decided by sign and monotonicity conditions verified at quasi-random
probe points; derivatives are always supplied, never inferred
numerically.  Probe counts and quadrature sizes are module
constants: each verdict depends on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    MissingDerivative,
    NotSeparable,
    StructureViolation,
)
from .generator_core import (
    AtomicJumpKernel,
    DensityJumpKernel,
    GridJumpKernel,
    ProcessSpec,
    SeparableJumpKernel,
    _generator_rows,
    _place,
    separable_jumps,
)
from .matrix_lab import SurvivalTransform
from .state_space import Cone, Grid

__all__ = [
    "DualReport",
    "closed_form_dual",
    "dual_lightcone_diffusion",
    "lightcone_diffusion_spec",
    "dual_jump_1d",
    "dual_jump_multidim",
    "check_self_dual",
    "SiegmundDualJumpKernel1D",
    "ParetoDualJumpKernelND",
    "jump_tails_1d",
]

# probe counts of the admissibility checks: each verdict depends on them
_DIFFUSION_PROBES = 100     # closed_form_dual, dual_lightcone_diffusion
_JUMP_1D_PROBES = 40        # dual_jump_1d
_HALF_LINE_PROBES = 60      # closed_form_dual, assumption A on the half line
_SELF_DUAL_PROBES = 100     # check_self_dual
_SELF_DUAL_TOL = 1e-10      # check_self_dual: largest drift or jump gap
_DECREASE_PAIRS = 50        # z-pairs per probe y of a monotonicity check
# quadrature nodes of a density kernel's 1-D tail rates, over a fixed box
_TAIL_QUAD_BOX = (-30.0, 30.0)
_TAIL_QUAD_N = 2000


@dataclass(frozen=True)
class DualReport:
    """Outcome of a dual construction: the dual spec plus the evidence."""

    dual_spec: Optional[ProcessSpec]
    violated_conditions: tuple = ()     # ((condition_id, probe, value), ...)
    notes: str = ""

    @property
    def admissible(self) -> bool:
        """The verdict, read off the evidence: no condition is violated."""
        return not self.violated_conditions


def probe_points(box, n: int) -> np.ndarray:
    """Deterministic quasi-random probes inside a box [(lo, hi), ...]: the
    unscrambled Halton points, column j the radical inverse of 0..n-1 in
    the j-th prime, its digits summed lowest first as
    scipy.stats.qmc.Halton(d, scramble=False).random(n) sums them, so they
    are the same to the bit without importing scipy.stats."""
    box = np.atleast_2d(np.asarray(box, dtype=float))
    primes, k = [], 2
    while len(primes) < len(box):
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    u = np.zeros((n, len(primes)))
    for j, b in enumerate(primes):
        q, f = np.arange(n), 1.0 / b
        while q.any():
            u[:, j] += (q % b) * f
            f /= b
            q //= b
    return box[:, 0] + u * (box[:, 1] - box[:, 0])


def _middle_half(box) -> list:
    """The middle half of each side of a box [(lo, hi), ...]: probes drawn
    there keep the box's outer quarters for a kernel's mass around them."""
    return [(lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo)) for lo, hi in box]


def _first_decrease(func, z_lo, z_hi, y: np.ndarray):
    """The first probe y, in order, at which z -> func(z, y) decreases on
    one of _DECREASE_PAIRS probe pairs z1 < z2 in [z_lo, z_hi] (numbers,
    or arrays aligned with y), and its first such pair, as
    (z1, z2, y, f2 - f1); None when there is none."""
    u = probe_points([(0.0, 1.0)] * 2, _DECREASE_PAIRS)
    z_lo = np.reshape(np.asarray(z_lo, dtype=float), (-1, 1, 1))
    Z = z_lo + u * (np.reshape(z_hi, (-1, 1, 1)) - z_lo)
    z1, z2 = Z.min(axis=2), Z.max(axis=2)
    f1, f2 = func(z1, y[:, None]), func(z2, y[:, None])
    bad = np.argwhere(f2 < f1 - 1e-10 * np.maximum(1.0, np.abs(f1)))
    if not len(bad):
        return None
    i, k = bad[0]
    return tuple(map(float, (z1[i, k], z2[i, k], y[i], f2[i, k] - f1[i, k])))


# ---------------------------------------------------------------------------
# the dual drift and the light-cone diffusion dual

def _dual_drift(da, b):
    """The dual drift a' - b from the declared a' and b, either of which
    may be None (read as 0); None when both are.  When every declared
    part was parsed from an expression, the result's `variables` are the
    union of theirs, so a' - b of two constants counts as constant too."""
    if b is None:
        return da
    drift = (lambda s: da(s) - b(s)) if da else (lambda s: -b(s))
    names = [getattr(f, "variables", None) for f in (da, b) if f is not None]
    if None not in names:
        drift.variables = frozenset().union(*names)
    return drift


def lightcone_diffusion_spec(alpha, beta, omega=None,
                             drift=None) -> ProcessSpec:
    """2-D diffusion  a gxx + 2 b gxy + c gyy  with the light-cone structure
    a = al(x+y) + be(x-y) + om,  c = al(x+y) + be(x-y) - om,
    b = al(x+y) - be(x-y)."""
    om = omega or (lambda x, y: 0.0)

    def matrix(x):
        s, dvar = x[0] + x[1], x[0] - x[1]
        al, be = alpha(s), beta(dvar)
        w = om(x[0], x[1])
        return np.array([[al + be + w, al - be],
                         [al - be, al + be - w]])

    return ProcessSpec(dim=2, diffusion=matrix, drift=drift)


def dual_lightcone_diffusion(alpha, beta, omega=None, alpha_d=None,
                             beta_d=None, box=None) -> DualReport:
    """Dual of the light-cone structured 2-D diffusion: same second-order
    part plus drift 2(al'(x+y) +- be'(x-y)).  In u = A^-1 x, with A's
    columns (1, 1) and (-1, 1), the diffusion (omega = 0) is
    diag(al(2 u1), be(-2 u2)); its Pareto dual drift
    (2 al'(2 u1), -2 be'(-2 u2)), mapped back by A, is that drift."""
    if alpha_d is None or beta_d is None:
        raise MissingDerivative("alpha' and beta' callables are required")
    if box is None:
        box = [(-2.0, 2.0), (-2.0, 2.0)]

    def drift(x):
        s, dvar = x[0] + x[1], x[0] - x[1]
        return np.array([2.0 * (alpha_d(s) + beta_d(dvar)),
                         2.0 * (alpha_d(s) - beta_d(dvar))])

    forward = lightcone_diffusion_spec(alpha, beta, omega)
    dual = lightcone_diffusion_spec(alpha, beta, omega, drift=drift)
    violated = []
    bad = forward.check_psd(probe_points(box, _DIFFUSION_PROBES))
    if bad is not None:
        violated.append(("lightcone_psd", tuple(bad[0]), bad[1]))
    return DualReport(dual_spec=None if violated else dual,
                      violated_conditions=tuple(violated),
                      notes="light-cone diffusion dual")


# ---------------------------------------------------------------------------
# jump tails

@dataclass(frozen=True)
class JumpTails1D:
    """Tail rates of a 1-D jump kernel and the rates of its dual, on
    whole arrays.

    up(z, y)    = nu(z, [y, inf)),   lt(z, y) = nu(z, (-inf, y)),
    for broadcast arrays z and y.  The z-derivative of either tail splits
    into Stieltjes atoms (from rate indicators switching) and an
    absolutely continuous density.
    """

    up: Callable                   # (z, y) -> array
    lt: Callable
    dual_atoms: Callable           # y (m,) -> (targets, rates), (m, channels)
    dual_density: Callable         # (y (m,), z (n,)) -> (m, n) intensities


def _atomic_tails(kernel: AtomicJumpKernel) -> JumpTails1D:
    """Tails of displacement channels; every rate and rate derivative
    comes from the kernel's `rates_at` and `rate_derivs_at`."""
    c = np.array([w[0] for w, _ in kernel.jumps], dtype=float)

    def tail(z, y, upper: bool):
        # channels added left to right, those that land at or above y
        # to the upper tail and the others to the lower
        z = np.asarray(z, dtype=float)
        rates = kernel.rates_at(z.reshape(-1, 1)).reshape(z.shape + c.shape)
        out = np.zeros(np.broadcast_shapes(z.shape, np.shape(y)))
        for k, ck in enumerate(c):
            out = out + np.where((z + ck >= y - 1e-12) == upper,
                                 rates[..., k], 0.0)
        return out

    def dual_atoms(y):
        # indicator switches of the tails: jump from y to y - c at rate
        # r(y - c); up-channels land below y, down-channels above.  Every
        # channel is evaluated at every channel's targets and each keeps
        # its own (the diagonal).
        targets = np.subtract.outer(y, c)
        rates = kernel.rates_at(targets.reshape(-1, 1)).reshape(
            targets.shape + c.shape)
        return targets, np.where(c != 0.0, np.diagonal(rates, axis1=1,
                                                       axis2=2), 0.0)

    def dual_density(y, z):
        # each rate derivative once per point z: it enters row y from
        # z < y when the channel's jump reaches y, with minus sign from
        # z > y when it does not
        Y, Z = y[:, None], z[None, :]
        out = np.zeros((len(y), len(z)))
        for ck, dr in zip(c, kernel.rate_derivs_at(z[:, None]).T):
            up = Z + ck >= Y - 1e-12
            out = np.where((Z < Y) & up, out + dr, out)
            out = np.where((Z > Y) & ~up, out - dr, out)
        return out

    return JumpTails1D(up=lambda z, y: tail(z, y, True),
                       lt=lambda z, y: tail(z, y, False),
                       dual_atoms=dual_atoms, dual_density=dual_density)


def _density_tails(kernel: DensityJumpKernel) -> JumpTails1D:
    """Tails of a density kernel by quadrature on _TAIL_QUAD_N nodes."""
    dnu = kernel.deriv
    if dnu is None:
        raise MissingDerivative("density kernel needs deriv = dnu/dz")
    w = np.linspace(*_TAIL_QUAD_BOX, _TAIL_QUAD_N)
    dw = w[1] - w[0]

    def tail(z, y, upper: bool):
        z, y = np.broadcast_arrays(np.asarray(z, dtype=float), y)
        return np.array([
            np.sum(kernel.density(np.array([zi]),
                                  w[(w >= yi) == upper, None]) * dw)
            for zi, yi in zip(z.ravel(), y.ravel())]).reshape(z.shape)

    def dual_atoms(y):
        return np.empty((len(y), 0)), np.empty((len(y), 0))

    def dual_density(y, z):
        # dnu/dz once per point z; from z < y its mass at or above y, from
        # z > y minus its mass below y
        V = np.stack([np.asarray(dnu(np.array([zi]), w[:, None]),
                                 dtype=float).ravel() for zi in z])
        out = np.zeros((len(y), len(z)))
        for i, k in enumerate(np.searchsorted(w, y)):
            below, above = z < y[i], z > y[i]
            out[i, below] = V[below, k:].sum(axis=1) * dw
            out[i, above] = -(V[above, :k].sum(axis=1) * dw)
        return out

    return JumpTails1D(up=lambda z, y: tail(z, y, True),
                       lt=lambda z, y: tail(z, y, False),
                       dual_atoms=dual_atoms, dual_density=dual_density)


def jump_tails_1d(kernel: AtomicJumpKernel | DensityJumpKernel) -> JumpTails1D:
    """Tail-rate functions for atomic and density 1-D kernels."""
    if isinstance(kernel, AtomicJumpKernel):
        kernel.check_length(1)
        return _atomic_tails(kernel)
    if isinstance(kernel, DensityJumpKernel):
        return _density_tails(kernel)
    raise NotSeparable(f"unsupported 1-D kernel type {type(kernel).__name__}")


@dataclass(frozen=True)
class SiegmundDualJumpKernel1D:
    """Dual jump kernel in conservative form: intensities are the Stieltjes
    derivatives of the forward tail rates, plus the absorption channel
    nu(0, [y, inf)) when the forward process lives on the half line."""

    tails: JumpTails1D
    boundary_at_zero: bool = False

    def generator_matrix(self, grid: Grid) -> np.ndarray:
        z = grid.points()[:, 0]
        R = np.zeros((len(z), len(z)))
        targets, rates = self.tails.dual_atoms(z)
        for t, r in zip(targets.T, rates.T):
            if self.boundary_at_zero:
                # atoms at or below the origin fold into the absorption
                # channel
                r = np.where(t <= grid.lower[0] + 1e-12, 0.0, r)
            _place(R, grid, t[:, None], r)
        dens = self.tails.dual_density(z, z)
        R += np.clip(dens, 0.0, None) * grid.spacing[0]
        if self.boundary_at_zero:
            R[:, 0] += self.tails.up(0.0, z)
        return _generator_rows(R)


def dual_jump_1d(nu: AtomicJumpKernel | DensityJumpKernel,
                 boundary: str = "none", box=(-8.0, 8.0)) -> DualReport:
    """Siegmund dual of a 1-D pure jump kernel.

    Admissible iff the tail rates are monotone the right way: up(z, y)
    nondecreasing in z below y, lt(z, y) nonincreasing in z above y; the
    tails must also vanish at the probe-box extremes.
    """
    if boundary not in ("none", "at_zero"):
        raise ValueError("boundary must be 'none' or 'at_zero'")
    tails = jump_tails_1d(nu)
    lo, hi = box
    y = probe_points(_middle_half([box]), _JUMP_1D_PROBES).ravel()
    violated = []
    # tail conditions at the box extremes
    for cond, z, tail in (("tail_at_minus_inf", lo, tails.up),
                          ("tail_at_plus_inf", hi, tails.lt)):
        v = tail(z, y[:8])
        bad = np.flatnonzero(np.abs(v) > 1e-9)
        if len(bad):
            violated.append((cond, (z, float(y[bad[0]])), float(v[bad[0]])))
    # monotonicity of the two tail rates (probe pairs)
    for cond, func, z_lo, z_hi in (
            ("up_tail_monotone", tails.up, lo, y - 1e-9),
            ("lt_tail_monotone", lambda z, y: -tails.lt(z, y), y + 1e-9, hi)):
        bad = _first_decrease(func, z_lo, z_hi, y)
        if bad is not None:
            violated.append((cond, bad[:3], bad[3]))
    at_zero = boundary == "at_zero"
    dual = None if violated else ProcessSpec(
        dim=1,
        jump=SiegmundDualJumpKernel1D(tails=tails, boundary_at_zero=at_zero),
        domain="half_line" if at_zero else "full_space",
        boundary="absorb" if at_zero else None,
    )
    return DualReport(dual_spec=dual, violated_conditions=tuple(violated),
                      notes="jump dual from Stieltjes tail derivatives")


# ---------------------------------------------------------------------------
# multidimensional jump dual (Pareto order)

@dataclass(frozen=True)
class ParetoDualJumpKernelND:
    """Dual of a d-dimensional jump kernel, realized at grid resolution.

    Its generator rows are the conjugation F Q' F^-1 of the base kernel's
    generator rows Q by the Pareto survival transform: the matrix oracle
    itself, not a closed form.  Only `dual_jump_multidim` builds one;
    `closed_form_dual` dualizes a separable kernel per axis.  The rows
    are used in full: the dual has a genuine death term, so its diagonal
    is not minus the off-diagonal sum on a truncated grid.
    """

    base: GridJumpKernel

    def generator_matrix(self, grid: Grid) -> np.ndarray:
        return SurvivalTransform(grid, Cone.pareto(grid.dim)).conjugate(
            self.base.generator_matrix(grid))


def dual_jump_multidim(nu: SeparableJumpKernel, dim: int,
                       box=None) -> DualReport:
    """Pareto dual of the separable jump kernel of a dim-dimensional
    process; admissible iff every per-axis total rate is nonincreasing on
    101 points of its side of the box.  The dual has the process's
    dimension, and its rows are the conjugation F Q' F^-1
    (`ParetoDualJumpKernelND`).

    That rule is not Siegmund's: it is the reverse of `dual_jump_1d`'s
    and of the conjugation's sign, admitting +1 at rate 2 - tanh z and
    refusing 2 + tanh z.  `closed_form_dual` dualizes a separable part
    per axis instead; this builder stays for acceptance criterion 2's
    frozen N-D family, which calls it."""
    nu.check_axes(dim)
    if box is None:
        box = [(-4.0, 4.0)] * dim
    violated = []
    for axis, comp in nu.components:
        lo, hi = box[axis]
        grid_z = np.linspace(lo, hi, 101)
        rates = comp.total_rate(grid_z[:, None])
        diffs = np.diff(rates)
        if np.any(diffs > 1e-10):
            k = int(np.argmax(diffs))
            violated.append((f"rate_decreasing_axis_{axis}",
                             (float(grid_z[k]), float(grid_z[k + 1])),
                             float(diffs[k])))
    dual = None if violated else ProcessSpec(
        dim=dim, jump=ParetoDualJumpKernelND(base=nu))
    return DualReport(dual_spec=dual, violated_conditions=tuple(violated),
                      notes="multidimensional Pareto jump dual")


# ---------------------------------------------------------------------------
# the closed-form dual of a process, and self-duality

def _check_assumption_A(spec: ProcessSpec, nu, probes: np.ndarray):
    """Even a, odd b, and the support of the jump part nu (as
    `closed_form_dual` reads it) in the half line; first violation or
    None.

    The extension of the kernel to negative states is defined by
    reflection covariance, so the only kernel condition with content on
    the half line is that no jump from x >= 0 lands below the origin.
    """
    a = spec.diffusion_diag[0] if spec.diffusion_diag else None
    b = spec.drift_components[0] if spec.drift_components else None
    for (x,) in probes:
        if a is not None and abs(a(x) - a(-x)) > 1e-9 * max(1.0, abs(a(x))):
            return ("a_even", (float(x),), float(a(x) - a(-x)))
        if b is not None and abs(b(x) + b(-x)) > 1e-9 * max(1.0, abs(b(x))):
            return ("b_odd", (float(x),), float(b(x) + b(-x)))
    if nu is not None:
        z = np.abs(probes[:25, 0])
        mass_below = jump_tails_1d(nu).lt(z, 0.0)
        bad = np.flatnonzero(np.abs(mass_below) > 1e-9)
        if len(bad):
            return ("jump_support", (float(z[bad[0]]),),
                    float(mass_below[bad[0]]))
    return None


def _axis_kernel(nu: SeparableJumpKernel, k: int) -> AtomicJumpKernel:
    """The components of nu on axis k as one 1-D AtomicJumpKernel of all
    their channels, each with its declared rate derivative."""
    jumps, derivs = (), ()
    for axis, kern in nu.components:
        if axis != k:
            continue
        if not isinstance(kern, AtomicJumpKernel):
            raise NotSeparable(f"no closed-form dual of a "
                               f"{type(kern).__name__} component")
        jumps += kern.jumps
        derivs += kern.rate_derivs
    return AtomicJumpKernel(jumps=jumps, rate_derivs=derivs)


def _separable_dual(nu: SeparableJumpKernel, dim: int, box) -> DualReport:
    """Siegmund dual of a separable jump part, axis by axis.  The Pareto
    F is (x) F_k and the generator (+) Q_k, so F Q' F^-1 is
    (+) F_k Q_k' F_k^-1 (Van Loan, J. Comput. Appl. Math. 123, 2000):
    all the channels of one axis (`_axis_kernel`) go through
    `dual_jump_1d` together, and the verdict is per axis, its violated
    conditions named axis_<k>:<condition>."""
    reps = [(k, dual_jump_1d(_axis_kernel(nu, k), "none", box))
            for k in sorted({axis for axis, _ in nu.components})]
    violated = tuple((f"axis_{k}:{c[0]}",) + c[1:]
                     for k, rep in reps for c in rep.violated_conditions)
    dual = None if violated else ProcessSpec(dim=dim, jump=SeparableJumpKernel(
        tuple((k, rep.dual_spec.jump) for k, rep in reps)))
    return DualReport(dual_spec=dual, violated_conditions=violated,
                      notes="per-axis Siegmund jump dual")


def _dual_drift_and_face(spec: ProcessSpec):
    """The closed-form dual's drift a'_jj - b_j on each axis, with b as
    declared (None where neither part is declared), and its boundary: on
    the half line the face swaps (reflected <-> absorbed at 0), elsewhere
    it stays.  Raises what keeps a spec from having a closed-form dual: a
    generic drift (NotSeparable) or diffusion (StructureViolation), a
    diffusion_diag without its derivatives (MissingDerivative), a half
    line in d >= 2, a jump part absorbed at 0, or, in any dimension, a
    jump part that is neither atomic nor separable, such as a
    stable-like kernel, other than a 1-D density kernel (NotSeparable)."""
    d = spec.dim
    if spec.drift is not None:
        raise NotSeparable("drift must be declared separable (b_j = b_j(x_j))")
    if spec.diffusion is not None:
        raise StructureViolation(
            "diffusion structure must be declared via diffusion_diag/offdiag")
    if spec.diffusion_diag is not None and spec.diffusion_diag_deriv is None:
        raise MissingDerivative("a'_jj callables are required")
    half = spec.domain == "half_line"
    if half and d > 1:
        raise NotSeparable(f"no closed-form dual of a {d}-D process on the "
                           f"half line")
    absorbed = spec.boundary == "absorb"
    if absorbed and spec.jump is not None:
        raise NotSeparable("no closed-form dual of a jump part absorbed at 0")
    if spec.jump is not None and not isinstance(
            spec.jump, (AtomicJumpKernel, SeparableJumpKernel)) \
            and not (d == 1 and isinstance(spec.jump, DensityJumpKernel)):
        raise NotSeparable(f"no closed-form dual of a {d}-D "
                           f"{type(spec.jump).__name__} jump part")
    drift = tuple(map(_dual_drift, spec.diffusion_diag_deriv or (None,) * d,
                      spec.drift_components or (None,) * d))
    boundary = ("reflect" if absorbed else "absorb") if half \
        else spec.boundary
    return drift, boundary


def closed_form_dual(spec: ProcessSpec, box=None) -> DualReport:
    """The closed-form dual of a process, in any dimension.

    Conjugation by the survival transform is linear, so the dual of the
    generator is the sum of the duals of its parts: the same diffusion
    matrix, drift a'_jj - b_j with b as declared, and the dual of the
    jump part: `dual_jump_1d` in 1-D, on all the channels of a separable
    part's components (`_axis_kernel`) when the part is separable; in
    d >= 2, on an atomic or separable part (`separable_jumps`),
    `dual_jump_1d` per axis on all of that axis's channels, a
    SeparableJumpKernel of SiegmundDualJumpKernel1D with violated
    conditions named axis_<k>:<condition>; any other part but a 1-D
    density has no closed form (NotSeparable, `_dual_drift_and_face`).
    The drift must be declared per axis and the diffusion by
    diffusion_diag with its derivatives, PSD at the probes.
    On the half line the face swaps: a forward process reflected at 0
    (it must meet assumption A, and its jump dual gains the channel at
    zero) has a dual absorbed there, and one absorbed at 0, which may
    have no jump part, a dual reflected there; a half-line process of
    d >= 2 has no closed form (NotSeparable).  `box` is the range of
    the per-axis jump and half-line probes, (-6, 6) when None.
    """
    d = spec.dim
    lo, hi = (-6.0, 6.0) if box is None else box
    drift, boundary = _dual_drift_and_face(spec)
    half = spec.domain == "half_line"
    absorbed = spec.boundary == "absorb"
    nu = spec.jump
    if d == 1 and isinstance(nu, SeparableJumpKernel):
        nu = _axis_kernel(nu, 0)
    elif d > 1:
        nu = separable_jumps(nu)
    violated = []
    if half and not absorbed:
        bad = _check_assumption_A(
            spec, nu, probe_points([(0.05, hi)], _HALF_LINE_PROBES))
        if bad is not None:
            violated.append(("assumption_A:" + bad[0],) + bad[1:])
    if spec.has_diffusion():
        probes = probe_points([(0.0 if half else -2.0, 2.0)] * d,
                              _DIFFUSION_PROBES)
        bad = spec.check_psd(probes)
        if bad is not None:
            violated.append(("diffusion_psd", tuple(bad[0]), bad[1]))
    jump = None
    if nu is not None:
        if d == 1:
            jrep = dual_jump_1d(nu, "at_zero" if half else "none",
                                (0.0, hi) if half else (lo, hi))
        else:
            jrep = _separable_dual(nu, d, (lo, hi))
        violated.extend(jrep.violated_conditions)
        jump = jrep.dual_spec.jump if jrep.admissible else None
    notes = "closed-form dual" + (f", {boundary}ed at 0" if half else "")
    dual = None if violated else ProcessSpec(
        dim=d,
        drift_components=None if drift[0] is None else drift,
        diffusion_diag=spec.diffusion_diag,
        diffusion_diag_deriv=spec.diffusion_diag_deriv,
        diffusion_offdiag=spec.diffusion_offdiag,
        jump=jump,
        domain=spec.domain,
        boundary=boundary,
    )
    return DualReport(dual_spec=dual, violated_conditions=tuple(violated),
                      notes=notes)


def _constant_rates(nu) -> dict:
    """{(axis, c): summed rate} of an atomic or separable jump part whose
    every channel moves one axis by c at a constant rate.  The Siegmund
    dual of such a channel (c, r) is (-c, r): `_atomic_tails` puts its
    dual atom at y - c with rate r(y - c) = r.  Any other jump part
    raises: a kernel that is not atomic StructureViolation, and a
    channel with a state-dependent rate, whose dual rate r(y - c) and
    density terms differ from its own, or a move of several axes
    NotSeparable, naming the channel (`separable_jumps`)."""
    parts = nu.components if isinstance(nu, SeparableJumpKernel) \
        else ((None, nu),)
    rates = {}
    for axis, kern in parts:
        if not isinstance(kern, AtomicJumpKernel):
            raise StructureViolation(f"no self-duality check for a "
                                     f"{type(kern).__name__} jump part")
        for k, one in separable_jumps(kern).components:
            ((c,), r), = one.jumps
            key = (k if axis is None else axis, c)
            rates[key] = rates.get(key, 0.0) + r
    return rates


def check_self_dual(spec: ProcessSpec, box=(-3.0, 3.0)):
    """Self-duality: the closed-form dual is the process itself.  Its
    face must not swap, so no half-line process is self-dual
    ("boundary_condition", the face, the dual's face); its drift
    a'_jj - b_j (`_dual_drift_and_face`, with the refusals of
    `closed_form_dual`) must be b_j, so b_j - a'_jj/2 = 0 on every axis
    at d-D probes of the box ("drift_condition", the probe, a float in
    1-D, and the value); a density jump part, 1-D as every d >= 2 one is
    refused there, must satisfy dnu/dy(y, z) + dnu/dz(z, y) = 0
    ("jump_condition", the pair); and an atomic one, whose channels are (c, r) and dualize to (-c, r)
    (`_constant_rates`, which refuses state-dependent rates), must have
    the same rate at c as at -c on every axis ("jump_condition", c, a
    float in 1-D and (axis, c) in d-D, and the rate at c less the rate
    at -c).  Each gap is allowed up to _SELF_DUAL_TOL.
    Returns (flag, witness), the witness None when the flag is True."""
    drift, boundary = _dual_drift_and_face(spec)
    if boundary != spec.boundary:
        return False, ("boundary_condition", spec.boundary, boundary)
    probes = probe_points([box] * spec.dim, _SELF_DUAL_PROBES)
    B = spec.drift_at(probes)
    dual = np.zeros(B.shape)
    for j, f in enumerate(drift):
        dual[:, j] = 0.0 if f is None else f(probes[:, j])
    gap = 0.5 * (B - dual)          # b - a'/2, as the dual drift is a' - b
    bad = np.argwhere(np.abs(gap) > _SELF_DUAL_TOL)
    if len(bad):
        i, j = bad[0]
        p = tuple(map(float, probes[i]))
        return False, ("drift_condition", p[0] if spec.dim == 1 else p,
                       float(gap[i, j]))
    if isinstance(spec.jump, DensityJumpKernel):
        dnu = spec.jump.deriv
        if dnu is None:
            raise MissingDerivative("density kernel needs deriv = dnu/dz")
        for y, z in probe_points([box, box], _SELF_DUAL_PROBES):
            if abs(y - z) < 1e-6:
                continue
            r = float(np.asarray(dnu(np.array([y]), np.array([[z]]))).ravel()[0]) \
                + float(np.asarray(dnu(np.array([z]), np.array([[y]]))).ravel()[0])
            if abs(r) > _SELF_DUAL_TOL:
                return False, ("jump_condition", (float(y), float(z)), r)
    elif spec.jump is not None:
        rates = _constant_rates(spec.jump)
        for (k, c), r in rates.items():
            gap = r - rates.get((k, -c), 0.0)
            if abs(gap) > _SELF_DUAL_TOL:
                return False, ("jump_condition",
                               c if spec.dim == 1 else (k, c), gap)
    return True, None
