"""Closed-form dual generators and the admissibility / self-duality checks.

The Siegmund-type dual of a generator under the Pareto (componentwise)
order:  deterministic motion reverses sign, a diffusion keeps its matrix
and picks up the derivative drift a'_jj, and jump kernels dualize through
the monotone tail rates  z -> integral over {w >= y} of nu(z, dw).  The
dual is linear in the generator, so `closed_form_dual`, the one builder
of a process's dual in every dimension, adds the part duals: drift
a'_jj - b_j, the same diffusion, and the jump part's dual; on the half
line it swaps the face (reflected <-> absorbed at 0).  Admissibility
is decided by sign and monotonicity conditions verified at quasi-random
probe points; derivatives are always supplied, never inferred
numerically.  Probe counts and quadrature sizes are module
constants: each verdict depends on them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    InconsistentReport,
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
    map_targets,
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
_JUMP_ND_PROBES = 60        # dual_jump_multidim
_HALF_LINE_PROBES = 60      # closed_form_dual, assumption A on the half line
_SELF_DUAL_PROBES = 100     # check_self_dual
# quadrature nodes of density kernels: the 1-D tail rates over a fixed
# box, the d-D mixed rates per axis of the probe box
_TAIL_QUAD_BOX = (-30.0, 30.0)
_TAIL_QUAD_N = 2000
_ND_QUAD_N = 41


@dataclass(frozen=True)
class DualReport:
    """Outcome of a dual construction: the dual spec plus the evidence."""

    dual_spec: Optional[ProcessSpec]
    admissible: bool
    violated_conditions: tuple = ()     # ((condition_id, probe, value), ...)
    notes: str = ""

    def __post_init__(self):
        if self.admissible != (len(self.violated_conditions) == 0):
            raise InconsistentReport(
                f"admissible={self.admissible} with "
                f"{len(self.violated_conditions)} violated conditions")


def probe_points(box, n: int) -> np.ndarray:
    """Deterministic quasi-random probes inside a box [(lo, hi), ...]."""
    from scipy.stats import qmc      # costs about a second; import on use

    box = np.atleast_2d(np.asarray(box, dtype=float))
    d = box.shape[0]
    sampler = qmc.Halton(d=d, scramble=False)
    u = sampler.random(n)
    return box[:, 0] + u * (box[:, 1] - box[:, 0])


def _middle_half(box) -> list:
    """The middle half of each side of a box [(lo, hi), ...]: probes drawn
    there keep the box's outer quarters for a kernel's mass around them."""
    return [(lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo)) for lo, hi in box]


def _first_decrease(func, z_lo, z_hi, y, n_pairs: int):
    """First probe pair z1 < z2 in [z_lo, z_hi] where z -> func(z, y)
    decreases, as (z1, z2, f1, f2), or None."""
    for z1, z2 in probe_points([(z_lo, z_hi), (z_lo, z_hi)], n_pairs):
        lo, hi = (z1, z2) if z1 <= z2 else (z2, z1)
        f1, f2 = func(lo, y), func(hi, y)
        if f2 < f1 - 1e-10 * max(1.0, abs(f1)):
            return lo, hi, f1, f2
    return None


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
    part plus drift 4(al'(x+y) +- be'(x-y))."""
    if alpha_d is None or beta_d is None:
        raise MissingDerivative("alpha' and beta' callables are required")
    if box is None:
        box = [(-2.0, 2.0), (-2.0, 2.0)]

    def drift(x):
        s, dvar = x[0] + x[1], x[0] - x[1]
        return np.array([4.0 * (alpha_d(s) + beta_d(dvar)),
                         4.0 * (alpha_d(s) - beta_d(dvar))])

    forward = lightcone_diffusion_spec(alpha, beta, omega)
    dual = lightcone_diffusion_spec(alpha, beta, omega, drift=drift)
    violated = []
    bad = forward.check_psd(probe_points(box, _DIFFUSION_PROBES))
    if bad is not None:
        violated.append(("lightcone_psd", tuple(bad[0]), bad[1]))
    ok = not violated
    return DualReport(dual_spec=dual if ok else None, admissible=ok,
                      violated_conditions=tuple(violated),
                      notes="light-cone diffusion dual")


# ---------------------------------------------------------------------------
# jump tails

@dataclass(frozen=True)
class JumpTails1D:
    """Tail rates of a 1-D jump kernel and their z-derivative pieces.

    up(z, y)    = nu(z, [y, inf)),   lt(z, y) = nu(z, (-inf, y)).
    The z-derivative of either tail splits into an absolutely continuous
    density and Stieltjes atoms (from rate indicators switching).
    """

    up: Callable                   # (z, y) -> float
    lt: Callable
    dual_atoms: Callable           # y -> ((target z, rate), ...), full-line part
    dual_density: Callable         # (y, z array) -> intensity density


def jump_tails_1d(kernel: AtomicJumpKernel | DensityJumpKernel) -> JumpTails1D:
    """Tail-rate functions for atomic and density 1-D kernels."""
    if isinstance(kernel, AtomicJumpKernel):
        # rate callables follow the kernel convention (1-element state
        # array in, scalar out); tails work with plain floats
        def scalarize(fn):
            if not callable(fn):
                return lambda z, _v=float(fn): _v
            return lambda z, _f=fn: float(np.atleast_1d(_f(np.atleast_1d(z)))[0])

        channels = []
        for k, (where, rate) in enumerate(kernel.jumps):
            if callable(where):
                raise NotSeparable(
                    "dual construction needs displacement channels, not target maps")
            c = float(np.atleast_1d(where)[0])
            r = scalarize(rate)
            dr = scalarize(kernel.rate_derivs[k]) \
                if kernel.rate_derivs and k < len(kernel.rate_derivs) and \
                kernel.rate_derivs[k] is not None else None
            channels.append((c, r, dr))

        def up(z, y):
            return sum(r(z) for c, r, _ in channels if z + c >= y - 1e-12)

        def lt(z, y):
            return sum(r(z) for c, r, _ in channels if z + c < y - 1e-12)

        def dual_atoms(y):
            # indicator switches of the tails: jump from y to y - c at rate
            # r(y - c); up-channels land below y, down-channels above
            out = []
            for c, r, _ in channels:
                if c != 0.0:
                    out.append((y - c, r(y - c)))
            return tuple(out)

        def dual_density(y, z):
            z = np.asarray(z, dtype=float)
            out = np.zeros_like(z)
            for c, r, dr in channels:
                if dr is None:
                    continue
                vals = np.array([dr(zi) for zi in z])
                below = (z < y) & (z + c >= y - 1e-12)
                above = (z > y) & (z + c < y - 1e-12)
                out = np.where(below, out + vals, out)
                out = np.where(above, out - vals, out)
            return out

        return JumpTails1D(up=up, lt=lt, dual_atoms=dual_atoms,
                           dual_density=dual_density)

    if isinstance(kernel, DensityJumpKernel):
        dnu = kernel.derivs.get((0,))
        if dnu is None:
            raise MissingDerivative("density kernel needs derivs[(0,)] = dnu/dz")
        w_nodes = np.linspace(*_TAIL_QUAD_BOX, _TAIL_QUAD_N)
        dw = w_nodes[1] - w_nodes[0]

        def mass(z, mask):
            return float(np.sum(kernel.density(np.array([z]),
                                               w_nodes[mask, None]) * dw))

        def up(z, y):
            return mass(z, w_nodes >= y)

        def lt(z, y):
            return mass(z, w_nodes < y)

        def dual_atoms(y):
            return ()

        def dual_density(y, z):
            z = np.atleast_1d(np.asarray(z, dtype=float))
            out = np.zeros_like(z)
            for i, zi in enumerate(z):
                vals = np.asarray(dnu(np.array([zi]), w_nodes[:, None]),
                                  dtype=float).ravel()
                if zi < y:
                    out[i] = float(np.sum(vals[w_nodes >= y]) * dw)
                elif zi > y:
                    out[i] = -float(np.sum(vals[w_nodes < y]) * dw)
            return out

        return JumpTails1D(up=up, lt=lt, dual_atoms=dual_atoms,
                           dual_density=dual_density)

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
        for y, row in zip(z, R):
            # atoms at or below the origin fold into the absorption channel
            atoms = [(t, r) for t, r in self.tails.dual_atoms(y)
                     if r != 0.0 and not (self.boundary_at_zero
                                          and t <= grid.lower[0] + 1e-12)]
            if atoms:
                targets, rates = np.array(atoms).T
                idx = map_targets(grid, targets)
                np.add.at(row, idx[idx >= 0], rates[idx >= 0])
            dens = self.tails.dual_density(y, z)
            dens = np.where(np.abs(z - y) < 1e-12, 0.0, dens)
            row += np.clip(dens, 0.0, None) * grid.spacing[0]
        if self.boundary_at_zero:
            R[:, 0] += [self.tails.up(0.0, y) for y in z]
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
    y_probes = probe_points(_middle_half([box]), _JUMP_1D_PROBES).ravel()
    violated = []
    # tail conditions at the box extremes
    for y in y_probes[:8]:
        v = tails.up(lo, y)
        if abs(v) > 1e-9:
            violated.append(("tail_at_minus_inf", (lo, float(y)), float(v)))
            break
    for y in y_probes[:8]:
        v = tails.lt(hi, y)
        if abs(v) > 1e-9:
            violated.append(("tail_at_plus_inf", (hi, float(y)), float(v)))
            break
    # monotonicity of the two tail rates (probe pairs)
    for y in y_probes:
        bad = _first_decrease(tails.up, lo, y - 1e-9, y, 50)
        if bad is not None:
            violated.append(("up_tail_monotone", (bad[0], bad[1], float(y)),
                             bad[3] - bad[2]))
            break
    for y in y_probes:
        bad = _first_decrease(lambda z, y: -tails.lt(z, y), y + 1e-9, hi, y,
                              50)
        if bad is not None:
            violated.append(("lt_tail_monotone", (bad[0], bad[1], float(y)),
                             bad[3] - bad[2]))
            break
    ok = not violated
    dual = None
    if ok:
        dual = ProcessSpec(
            dim=1,
            jump=SiegmundDualJumpKernel1D(
                tails=tails, boundary_at_zero=(boundary == "at_zero")),
            domain="half_line" if boundary == "at_zero" else "full_space",
            boundary="absorb" if boundary == "at_zero" else None,
        )
    return DualReport(dual_spec=dual, admissible=ok,
                      violated_conditions=tuple(violated),
                      notes="jump dual from Stieltjes tail derivatives")


# ---------------------------------------------------------------------------
# multidimensional jump dual (Pareto order)

@dataclass(frozen=True)
class ParetoDualJumpKernelND:
    """Dual of a d-dimensional jump kernel, realized at grid resolution.

    Its generator rows are the conjugation F Q' F^-1 of the base kernel's
    generator rows Q by the Pareto survival transform, which realizes the
    death / face / interior decomposition of the closed-form dual exactly
    at grid resolution.  They are used in full: the dual has a genuine
    death term, so its diagonal is not minus the off-diagonal sum on a
    truncated grid.
    """

    base: GridJumpKernel

    def generator_matrix(self, grid: Grid) -> np.ndarray:
        return SurvivalTransform(grid, Cone.pareto(grid.dim)).conjugate(
            self.base.generator_matrix(grid))


def _proper_subsets(d: int):
    from itertools import combinations
    for k in range(1, d):
        yield from combinations(range(d), k)


def dual_jump_multidim(nu: SeparableJumpKernel | DensityJumpKernel,
                       dim: int, box=None) -> DualReport:
    """Pareto dual of the jump kernel of a dim-dimensional process, with
    supplied mixed z-derivatives; admissible iff the sign conditions hold
    at probes.  The dual has the process's dimension, also when a
    separable kernel moves only some axes.  A separable kernel has atomic
    components (its constructor raises NotSeparable otherwise); a density
    kernel declares smoothness = dim."""
    violated = []
    if isinstance(nu, SeparableJumpKernel):
        nu.check_axes(dim)
        if box is None:
            box = [(-4.0, 4.0)] * dim
        # separable kernels: the order-d condition is void; admissibility
        # reduces to every per-axis total rate being nonincreasing
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
    elif isinstance(nu, DensityJumpKernel):
        if nu.smoothness != dim:
            raise MissingDerivative("density kernel must declare smoothness = d")
        if box is None:
            box = [(-4.0, 4.0)] * dim
        full = tuple(range(dim))
        if full not in nu.derivs:
            raise MissingDerivative(f"derivs[{full}] (order-d mixed) required")
        w_axes = [np.linspace(lo, hi, _ND_QUAD_N) for lo, hi in box]
        mesh = np.meshgrid(*w_axes, indexing="ij")
        W = np.stack([m.ravel() for m in mesh], axis=-1)
        dw = float(np.prod([ax[1] - ax[0] for ax in w_axes]))
        # the quadrature covers the box, so the probes keep to its middle
        inner = _middle_half(box)
        probes = probe_points(inner, _JUMP_ND_PROBES)
        for I in _proper_subsets(dim):
            if I not in nu.derivs:
                raise MissingDerivative(f"derivs[{I}] required")
            dI = nu.derivs[I]
            for z in probes:
                val = float(np.sum(dI(z, W)) * dw)
                if val > 1e-8:
                    violated.append((f"mixed_rate_nonpositive_{I}",
                                     tuple(z), val))
                    break
        dfull = nu.derivs[full]
        pair_probes = probe_points(inner + inner, _JUMP_ND_PROBES)
        for p in pair_probes:
            z, y = p[:dim], p[dim:]
            z_ge_y = bool(np.all(z >= y))
            vals = np.asarray(dfull(z, W), dtype=float).ravel()
            w_ge_y = np.all(W >= y - 1e-12, axis=-1)
            if not z_ge_y:
                v = float(np.sum(vals[w_ge_y]) * dw)
                if v < -1e-8:
                    violated.append(("interior_sign_upper", tuple(z) + tuple(y), v))
                    break
            else:
                v = float(np.sum(vals[~w_ge_y]) * dw)
                if v > 1e-8:
                    violated.append(("interior_sign_lower", tuple(z) + tuple(y), v))
                    break
    else:
        raise NotSeparable(
            f"unsupported multidim kernel type {type(nu).__name__}")
    ok = not violated
    dual = None
    if ok:
        dual = ProcessSpec(dim=dim, jump=ParetoDualJumpKernelND(base=nu))
    return DualReport(dual_spec=dual, admissible=ok,
                      violated_conditions=tuple(violated),
                      notes="multidimensional Pareto jump dual")


# ---------------------------------------------------------------------------
# the closed-form dual of a process, and self-duality

def _check_assumption_A(spec: ProcessSpec, probes: np.ndarray):
    """Even a, odd b, and jump support in the half line; first violation
    or None.

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
    if spec.jump is not None:
        tails = jump_tails_1d(spec.jump)
        for (z,) in probes[:25]:
            mass_below = tails.lt(abs(z), 0.0)
            if abs(mass_below) > 1e-9:
                return ("jump_support", (float(abs(z)),), float(mass_below))
    return None


def _drift_column(spec: ProcessSpec, j: int):
    """b_j as `drift_at` returns it, a compensated jump part's compensator
    included, as a callable of the axis-j coordinate alone: the drift and
    the jump part of a spec with a closed-form dual are separable."""
    def b(s):
        s = np.asarray(s, dtype=float)
        X = np.zeros((s.size, spec.dim))
        X[:, j] = s.ravel()
        return spec.drift_at(X)[:, j].reshape(s.shape)
    return b


def closed_form_dual(spec: ProcessSpec, box=None) -> DualReport:
    """The closed-form dual of a process, in any dimension.

    Conjugation by the survival transform is linear, so the dual of the
    generator is the sum of the duals of its parts: the same diffusion
    matrix, drift a'_jj - b_j with b as `drift_at` returns it (so with a
    compensated jump part's compensator), and the dual of the jump part
    (`dual_jump_1d`; in d >= 2 `dual_jump_multidim` on
    `separable_jumps`).  The drift must be declared per axis and the
    diffusion by diffusion_diag with its derivatives, agreeing with a
    generic diffusion callable given beside it and PSD at the probes.
    On the half line the face swaps: a forward process reflected at 0
    (it must meet assumption A, and its jump dual gains the channel at
    zero) has a dual absorbed there, and one absorbed at 0, which may
    have no jump part, a dual reflected there.  `box` is the range of
    the 1-D jump and half-line probes, (-6, 6) when None.
    """
    d = spec.dim
    lo, hi = (-6.0, 6.0) if box is None else box
    if spec.drift is not None and spec.drift_components is None:
        raise NotSeparable("drift must be declared separable (b_j = b_j(x_j))")
    if spec.diffusion is not None and spec.diffusion_diag is None:
        raise StructureViolation(
            "diffusion structure must be declared via diffusion_diag/offdiag")
    if spec.diffusion_diag is not None and spec.diffusion_diag_deriv is None:
        raise MissingDerivative("a'_jj callables are required")
    half = d == 1 and spec.domain == "half_line"
    absorbed = half and spec.boundary == "absorb"
    if absorbed and spec.jump is not None:
        raise NotSeparable("no closed-form dual of a jump part absorbed at 0")
    violated = []
    if half and not absorbed:
        bad = _check_assumption_A(
            spec, probe_points([(0.05, hi)], _HALF_LINE_PROBES))
        if bad is not None:
            violated.append(("assumption_A:" + bad[0],) + bad[1:])
    if spec.has_diffusion():
        probes = probe_points([(0.0 if half else -2.0, 2.0)] * d,
                              _DIFFUSION_PROBES)
        if spec.diffusion is not None:
            # a generic callable beside the declaration must agree with it
            generic = replace(spec, diffusion_diag=None,
                              diffusion_offdiag=None)
            gap = np.abs(spec.diffusion_at(probes[:20])
                         - generic.diffusion_at(probes[:20])).max(axis=(1, 2))
            if np.any(gap > 1e-8):
                raise StructureViolation(
                    f"declared structure differs from diffusion callable at "
                    f"{probes[np.argmax(gap > 1e-8)]}")
        bad = spec.check_psd(probes)
        if bad is not None:
            violated.append(("diffusion_psd", tuple(bad[0]), bad[1]))
    jump = None
    if spec.jump is not None:
        jrep = dual_jump_1d(spec.jump, "at_zero" if half else "none",
                            (0.0, hi) if half else (lo, hi)) if d == 1 \
            else dual_jump_multidim(separable_jumps(spec.jump, d), d)
        violated.extend(jrep.violated_conditions)
        jump = jrep.dual_spec.jump if jrep.admissible else None
    b = spec.drift_components or (None,) * d
    if spec.jump_compensated and spec.jump is not None:
        b = tuple(_drift_column(spec, j) for j in range(d))
    drift = tuple(map(_dual_drift, spec.diffusion_diag_deriv or (None,) * d,
                      b))
    boundary = ("reflect" if absorbed else "absorb") if half \
        else spec.boundary
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
    return DualReport(dual_spec=dual, admissible=not violated,
                      violated_conditions=tuple(violated), notes=notes)


def check_self_dual(spec: ProcessSpec, box=(-3.0, 3.0), tol: float = 1e-10):
    """Self-duality: b = a'/2 and the jump density antisymmetry
    dnu/dy(y, z) + dnu/dz(z, y) = 0.  Returns (flag, witness)."""
    probes = probe_points([box], _SELF_DUAL_PROBES).ravel()
    a_d = spec.diffusion_diag_deriv[0] if spec.diffusion_diag_deriv else None
    b = spec.drift_components[0] if spec.drift_components else None
    for x in probes:
        av = 0.5 * a_d(x) if a_d is not None else 0.0
        bv = b(x) if b is not None else 0.0
        if abs(bv - av) > tol:
            return False, ("drift_condition", float(x), float(bv - av))
    if spec.jump is not None:
        if not isinstance(spec.jump, DensityJumpKernel):
            return False, ("jump_condition", None,
                           "self-duality check needs a density kernel")
        dnu = spec.jump.derivs.get((0,))
        if dnu is None:
            raise MissingDerivative("density kernel needs derivs[(0,)]")
        pair = probe_points([box, box], _SELF_DUAL_PROBES)
        for y, z in pair:
            if abs(y - z) < 1e-6:
                continue
            r = float(np.asarray(dnu(np.array([y]), np.array([[z]]))).ravel()[0]) \
                + float(np.asarray(dnu(np.array([z]), np.array([[y]]))).ravel()[0])
            if abs(r) > tol:
                return False, ("jump_condition", (float(y), float(z)), r)
    return True, None
