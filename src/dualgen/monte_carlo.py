"""Path simulation and paired Monte Carlo verification of duality.

Both sides of  E f(X_t^x, y) = E f(x, Y_t^y)  are estimated on
independent ensembles and compared through a z score.  Randomness is
organized in fixed-size blocks with counter-based substreams keyed by
(seed, salt, block index), so results are bit-identical however many
worker threads run the blocks.  The blocks run on every usable core by
default; DUALGEN_THREADS lowers the count.  Each block advances its
paths in place, in buffers allocated once per block.  The drift of a
step is `ProcessSpec.drift_at` over all paths, the same evaluator
`discretize` uses, so both tracks see the drift as declared.  The
noise of axis j is sqrt(2 a_jj) times a normal: a diffusion is
simulated only as declared per axis (diffusion_diag), the one form a
scenario can declare.  A generic or off-diagonal diffusion, which
`discretize` still puts on a grid, is refused before any draw.
A coefficient parsed from an expression without variables is evaluated
once per block instead of once per step.  Where every coefficient is
such a constant and the law at t does not depend on the step size (free
space, reflection without a drift across the boundary, absorption with
the Brownian-bridge crossing test), the paths take one step of t
instead of t / dt steps.
The module loads no scipy; the thread pool is imported on use, as only a
run of more than one worker builds it.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    InadmissibleDual,
    InvalidEstimate,
    NonConvergent,
    NonFiniteState,
    RateBoundExceeded,
    StepTooCoarseWarning,
    UnsupportedScheme,
)
from .generator_core import AtomicJumpKernel, ProcessSpec
from .order_transform import TranslationKernel
from .state_space import Cone, cone_contains_many

__all__ = [
    "PathConfig",
    "DualityEstimate",
    "StableLikeKernel",
    "simulate_paths",
    "estimate_duality",
    "regularized_boundary_distribution",
    "RegularizedDistribution",
    "positive_stable_sample",
]

BLOCK_SIZE = 16384

SCHEMES = ("euler_maruyama", "euler_jump_thinning", "stable_euler")


def worker_count() -> int:
    """Worker threads for simulate_paths: the usable cores, or fewer when
    DUALGEN_THREADS asks for fewer; never affects numerical results."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    raw = os.environ.get("DUALGEN_THREADS", "")
    if not raw:
        return cores
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, min(n, cores))


@dataclass(frozen=True)
class PathConfig:
    n_paths: int
    dt: float
    t_end: float
    seed: int
    scheme: str = "euler_maruyama"
    tail_truncation_quantile: float = 0.999
    rate_bound: Optional[float] = None          # thinning bound Lambda
    bridge_correction: bool = False             # absorbed-boundary crossing test

    def __post_init__(self):
        if self.n_paths < 100:
            raise ValueError("n_paths must be at least 100")
        if not (0.0 < self.dt <= self.t_end):
            raise ValueError("need 0 < dt <= t_end")
        # the paths take round(t_end / dt) steps: any other t_end would
        # be reported but not simulated
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"t_end {self.t_end} is not a whole number of "
                             f"dt = {self.dt} steps")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not (0.5 < self.tail_truncation_quantile <= 1.0):
            raise ValueError("tail_truncation_quantile must be in (0.5, 1]")
        if self.rate_bound is not None and not 0.0 < self.rate_bound < np.inf:
            raise ValueError(f"rate_bound {self.rate_bound} is not a finite "
                             f"positive number")


@dataclass(frozen=True)
class DualityEstimate:
    lhs_mean: float
    lhs_se: float
    rhs_mean: float
    rhs_se: float
    gap: float
    z_score: float
    n_paths: int
    truncation_level: Optional[float] = None

    def __post_init__(self):
        if not (self.lhs_se >= 0 and self.rhs_se >= 0):
            raise InvalidEstimate(
                f"negative standard error: lhs {self.lhs_se}, "
                f"rhs {self.rhs_se}")
        if not np.isfinite(self.z_score):
            raise InvalidEstimate(f"z score {self.z_score} is not finite")


@dataclass(frozen=True)
class StableLikeKernel:
    """Isotropic stable-like driving family: symbol -amplitude(x) |k|^alpha.

    Simulation-only kernel; it has no generator rows on a grid (discretize
    rejects it) and is consumed exclusively by the stable_euler scheme.
    """

    alpha: float
    amplitude: Callable        # a(x) > 0, vectorized over (n, d) states

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError("alpha must lie in (0, 2]")


def _block_rng(seed: int, salt: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=(int(seed) & (2 ** 64 - 1), salt, block))
    return np.random.Generator(np.random.Philox(ss))


def positive_stable_sample(rng: np.random.Generator, alpha_half: float,
                           size) -> np.ndarray:
    """Positive stable variates with Laplace transform exp(-lambda^a),
    a = alpha_half in (0, 1), by the Zolotarev integral representation."""
    if not (0.0 < alpha_half < 1.0):
        raise ValueError("index must be in (0, 1)")
    theta = rng.uniform(0.0, np.pi, size=size)
    e = rng.standard_exponential(size=size)
    a = alpha_half
    zolo = (np.sin(a * theta) * np.sin((1.0 - a) * theta) ** ((1.0 - a) / a)
            / np.sin(theta) ** (1.0 / a))
    return zolo / e ** ((1.0 - a) / a)


def _constant(coef) -> bool:
    """Whether coef was parsed from an expression without variables, so
    its value is the same at every state."""
    return getattr(coef, "variables", None) == frozenset()


def _sigma_into(spec: ProcessSpec, x: np.ndarray, sig: np.ndarray, axes):
    """sqrt(2 a_jj(x_j)) of a diagonal diffusion on each of the axes,
    written into those columns of sig; returns a_00(x_0) over the paths
    when axis 0 is among them, else None."""
    a0 = None
    for j in axes:
        a_j = np.asarray(spec.diffusion_diag[j](x[:, j]), dtype=float)
        np.multiply(2.0, a_j, out=sig[:, j])
        np.sqrt(sig[:, j], out=sig[:, j])
        if j == 0:
            a0 = a_j
    return a0


def _require_within_bound(total: np.ndarray, bound: float):
    """Raise RateBoundExceeded at the first summed rate in total that is
    above the thinning bound, or NaN: thinning drops the jumps of such a
    rate without a trace.  Written as `not total <= bound` so that NaN
    fails too."""
    over = np.flatnonzero(~(total <= bound * (1 + 1e-12)))
    if len(over):
        raise RateBoundExceeded(
            f"rate {total[over[0]]:.4g} exceeds bound {bound:.4g}")


def _thin(jump: AtomicJumpKernel, cfg: PathConfig, x, dx, u, alive, disp):
    """Add the accepted atomic jumps of one step to dx; disp holds the
    channels' displacements, one row each.

    u holds the (event, acceptance, channel) uniforms of every path.  A
    live candidate's channel rates are summed left to right and the
    channel is the first whose running sum reaches u_chan * total, as a
    sequential scan would choose it."""
    u_evt, u_acc, u_chan = u
    cand = np.flatnonzero(u_evt < -np.expm1(-cfg.rate_bound * cfg.dt))
    if alive is not None:
        cand = cand[alive[cand]]
    if not len(cand):
        return
    running = np.cumsum(jump.rates_at(x[cand]), axis=1)
    total = running[:, -1]
    _require_within_bound(total, cfg.rate_bound)
    acc = u_acc[cand] * cfg.rate_bound < total
    cand, running, total = cand[acc], running[acc], total[acc]
    chan = np.argmax((u_chan[cand] * total)[:, None] <= running, axis=1)
    dx[cand] += disp[chan]


def _bridge_hits(dt: float, x_prev, x, a_prev, u, hit, alive, prod):
    """Mark the live paths that crossed 0 during the step of length dt:
    u < exp(arg), arg = -x_prev x / (a dt) with a = a_00(x_prev), per path
    or one value for all, the Brownian-bridge crossing probability.  prod
    is a buffer of one value per path.

    A live path was positive before the step (one that starts at or
    below 0 is absorbed at t = 0), and one at or below 0 after it is hit
    already, so `alive` stands for the test that both ends are positive;
    at NaN the test fails either way."""
    c = np.maximum(a_prev * dt, 1e-300)
    # a path already hit may overflow exp(arg) to inf; it stays hit
    with np.errstate(over="ignore"):
        np.multiply(x_prev[:, 0], x[:, 0], out=prod)
        # u is a multiple of 2**-53, so a positive u is never below
        # exp(arg) < 2**-53 (arg <= -37, prod >= 37 c); there only u == 0
        # needs exp(arg) > 0.  arg is computed for the rest alone, which
        # also skips exp's slow subnormal and underflow range.
        near = (prod < 37.0 * c) | (u == 0.0)
        near &= alive
        idx = near.nonzero()[0]
        # -(prod / c) and prod / (-c) round alike: negation is exact
        arg = prod[idx] / -(c[idx] if np.ndim(c) else c)
        hit[idx[u[idx] < np.exp(arg)]] = True


def _reflect(x: np.ndarray):
    """Fold the paths x, (m, d), in place into the half line's region,
    the half space x_0 >= 0 in every dimension: axis 0 folds, the axis
    that absorption tests."""
    np.abs(x[:, 0], out=x[:, 0])


def _one_step_exact(spec: ProcessSpec, cfg: PathConfig, b) -> bool:
    """Whether the Euler chain's law at t_end is the same for every step
    size, so that one step of t_end simulates it exactly.  b is the drift,
    (1, d), when every drift component is constant, else None.

    In free space that holds under euler_maruyama when every coefficient
    is declared per axis and parsed from an expression without variables:
    the increments N(b dt, 2 a dt) of n steps sum to N(b t, 2 a t).  A Python callable
    keeps the step loop, as nothing shows that it is constant.  On the
    half line `reflect` needs the axis-0 drift to be 0: for a symmetric
    increment xi, ||u| + xi| has the law of |u + xi|, so the folded chain
    has the law of |x + sigma W_t|.  `absorb` needs the bridge test:
    exp(-x_k x_{k+1} / (a h)) is the exact probability that the Brownian
    bridge over a step h crosses 0, with or without drift, so the killed
    chain has the law of the killed process at every h (Glasserman,
    Monte Carlo Methods in Financial Engineering, 2004)."""
    if cfg.scheme != "euler_maruyama" or spec.jump is not None \
            or spec.drift is not None:
        return False
    if not all(map(_constant, (*(spec.drift_components or ()),
                               *(spec.diffusion_diag or ())))):
        return False
    if spec.boundary == "reflect":
        return b is None or b[0, 0] == 0.0
    if spec.boundary == "absorb":
        return cfg.bridge_correction
    return True


def _simulate_block(spec: ProcessSpec, cfg: PathConfig, out: np.ndarray,
                    salt: int, block: int):
    """Advance the paths in out (filled with the start state) to t_end,
    with the substream of (cfg.seed, salt, block).

    The paths take one step of t_end where the law at t_end does not
    depend on the step size (_one_step_exact: constant coefficients,
    reflected without an axis-0 drift or absorbed with the bridge test),
    and round(t_end / dt) steps of cfg.dt otherwise.  The loop is the same
    either way, with one step's draws per step.

    Draws per step, in this order: the normals (and the positive-stable
    mixing variables of stable_euler), the three thinning uniforms, and
    one uniform per path on an absorbing boundary (drawn also without the
    bridge test).  A path that starts at or below 0 on an absorbing half
    line is absorbed at t = 0; it still draws, so the streams do not
    change.  Every buffer is allocated once per block.

    The noise of axis j is sigma_j = sqrt(2 a_jj) times a normal; the
    diffusion is diagonal, as _check_scheme admits no other.  A drift or
    diffusion component parsed from an expression without variables is
    evaluated once per block: sigma_j and b_j dt are then per-path
    arrays, and a drift of 0 adds nothing.
    The increments of absorbed paths are overwritten with 0 on each step.
    The new state goes into the increment buffer and the two buffers
    swap, so the bridge test reads the state before the step without a
    copy."""
    rng = _block_rng(cfg.seed, salt, block)
    x = out
    m = len(x)
    # the drift, evaluated once per block where it is constant
    b = None
    if spec.drift_components is not None \
            and all(map(_constant, spec.drift_components)):
        b = spec.drift_at(x[:1])
    drift_step = spec.has_drift() and b is None
    # the step actually taken
    dt = cfg.t_end if _one_step_exact(spec, cfg, b) else cfg.dt
    n_steps = int(round(cfg.t_end / dt))
    stable = spec.jump if cfg.scheme == "stable_euler" else None
    noisy = stable is not None or spec.has_diffusion()
    thinning = spec.jump if cfg.scheme == "euler_jump_thinning" else None
    # a spec has these boundaries on the half line only
    reflecting = spec.boundary == "reflect"
    absorbing = spec.boundary == "absorb"
    bridge = absorbing and cfg.bridge_correction

    dx = np.empty_like(x)
    z = np.empty_like(x) if noisy else None
    # b dt, evaluated once per block where the drift is constant
    bdt = None
    if b is not None:
        b_dt = np.multiply(b, dt)
        if b_dt.any():
            bdt = np.repeat(b_dt, m, axis=0)
    # with a drift, the noise goes to its own buffer and is added to b dt
    noise_buf = np.empty_like(x) if noisy and (drift_step or bdt is not None) \
        else None
    sig = varying = None
    # the bridge test's a_00: 0 without a diffusion
    a_prev = 0.0
    if spec.diffusion_diag is not None:
        sig = np.empty_like(x)
        fixed = [j for j, ajj in enumerate(spec.diffusion_diag)
                 if _constant(ajj)]
        varying = [j for j in range(spec.dim) if j not in fixed]
        a0 = _sigma_into(spec, x[:1], sig[:1], fixed)
        sig[1:, fixed] = sig[0, fixed]
        if a0 is not None:
            a_prev = float(a0[0])
    if thinning is not None:
        u_thin = np.empty((3, m))
        disp = np.array([w for w, _ in thinning.jumps], dtype=float)
    alive = None
    if absorbing:
        dead = np.empty(0, dtype=np.intp)     # the absorbed paths
        alive = np.ones(m, dtype=bool)
        u = np.empty(m)
        hit = np.empty(m, dtype=bool)
        prod = np.empty(m) if bridge else None

        def absorb(x, new):
            nonlocal dead
            x[new] = 0.0
            alive[new] = False
            dead = np.concatenate([dead, new])

        absorb(x, np.flatnonzero(x[:, 0] <= 0.0))

    for _ in range(n_steps):
        noise = dx if noise_buf is None else noise_buf
        if drift_step:
            np.multiply(spec.drift_at(x), dt, out=dx)
        elif not noisy:
            if bdt is None:
                dx.fill(0.0)
            else:
                np.copyto(dx, bdt)

        if stable is not None:
            rng.standard_normal(out=z)
            if stable.alpha == 2.0:
                np.multiply(np.sqrt(2.0), z, out=noise)
            else:
                # sub-Gaussian isotropic stable: sqrt(2A) Z has
                # characteristic function exp(-|k|^alpha)
                A = positive_stable_sample(rng, stable.alpha / 2.0, m)
                np.multiply(np.sqrt(2.0 * A)[:, None], z, out=noise)
            amp = np.asarray(stable.amplitude(x), dtype=float).reshape(m)
            noise *= ((amp * dt) ** (1.0 / stable.alpha))[:, None]
        elif noisy:
            rng.standard_normal(out=z)
            if varying:
                a0 = _sigma_into(spec, x, sig, varying)
                if a0 is not None:
                    a_prev = a0
            np.multiply(sig, z, out=noise)
            noise *= np.sqrt(dt)
        if noise is not dx:
            if bdt is None:
                dx += noise
            else:
                np.add(bdt, noise, out=dx)

        if thinning is not None:
            for row in u_thin:
                rng.random(out=row)
            _thin(thinning, cfg, x, dx, u_thin, alive, disp)

        if absorbing:
            # an absorbed path stays at 0.0; its increment is overwritten,
            # not multiplied by 0, because a coefficient singular at the
            # boundary makes it inf and inf * 0 is NaN
            dx[dead] = 0.0
        # the state before the step stays in the other buffer, so the
        # bridge test reads it, and a_prev, evaluated on it, stays valid
        np.add(x, dx, out=dx)
        x, dx = dx, x
        if reflecting:
            _reflect(x)
        elif absorbing:
            rng.random(out=u)
            np.less_equal(x[:, 0], 0.0, out=hit)
            hit &= alive
            if bridge:
                _bridge_hits(dt, dx, x, a_prev, u, hit, alive, prod)
            new = np.flatnonzero(hit)
            if len(new):
                absorb(x, new)

    if x is not out:
        np.copyto(out, x)
    bad = ~np.isfinite(out).all(axis=1)
    if bad.any():
        raise NonFiniteState(
            f"{int(bad.sum())} of {m} paths in block {block} ended at NaN "
            f"or inf; a coefficient is not finite where they went")


def _check_scheme(spec: ProcessSpec, cfg: PathConfig, x0: np.ndarray):
    """Raise UnsupportedScheme unless cfg.scheme simulates every part of
    spec, and RateBoundExceeded where the thinning bound is below the
    summed rate at the start state x0; a part the scheme skipped, or
    jumps the bound thinned away, would bias the estimate silently.
    Called before any random number is drawn."""
    if spec.diffusion is not None or spec.diffusion_offdiag:
        raise UnsupportedScheme(
            "only a diffusion declared per axis (diffusion_diag) is "
            "simulated; a generic or off-diagonal diffusion is not")
    jump = spec.jump
    if cfg.scheme == "euler_maruyama" and jump is not None:
        raise UnsupportedScheme(
            f"euler_maruyama cannot simulate the jump part "
            f"({type(jump).__name__}); use euler_jump_thinning or "
            f"stable_euler")
    if cfg.scheme == "euler_jump_thinning":
        if cfg.rate_bound is None:
            raise UnsupportedScheme("euler_jump_thinning needs rate_bound")
        if jump is not None and not isinstance(jump, AtomicJumpKernel):
            raise UnsupportedScheme(
                f"euler_jump_thinning cannot simulate a "
                f"{type(jump).__name__} jump part, only atomic jumps")
        if jump is not None:
            _require_within_bound(jump.rates_at(x0[None, :]).sum(axis=1),
                                  cfg.rate_bound)
    if cfg.scheme == "stable_euler":
        if spec.has_diffusion():
            raise UnsupportedScheme("stable_euler excludes a diffusion part")
        if not isinstance(jump, StableLikeKernel):
            raise UnsupportedScheme(
                "stable_euler needs a StableLikeKernel jump part")


def simulate_paths(spec: ProcessSpec, cfg: PathConfig, x0,
                   stream_salt: int = 0) -> np.ndarray:
    """Terminal states at t_end, shape (n_paths, dim).

    Deterministic in (seed, cfg, spec, stream_salt): paths are produced
    in fixed blocks with independent substreams, so the worker count
    (worker_count) cannot change the output.  Raises NonFiniteState if a
    terminal state is NaN or inf.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    _check_scheme(spec, cfg, x0)
    b0 = spec.drift_at(x0)
    if spec.has_diffusion():
        a0 = np.diag(spec.diffusion_at(x0))
        scale = np.sqrt(np.maximum(2.0 * a0 * cfg.dt, 0.0))
        if np.any(np.abs(b0) * cfg.dt > 4.0 * scale + 1e-30):
            warnings.warn("drift step exceeds the diffusion scale; "
                          "decrease dt", StepTooCoarseWarning)

    out = np.empty((cfg.n_paths, len(x0)))
    out[:] = x0
    n_blocks = (cfg.n_paths + BLOCK_SIZE - 1) // BLOCK_SIZE
    n_workers = min(worker_count(), n_blocks)

    def run_share(k):
        for b in range(k, n_blocks, n_workers):
            _simulate_block(spec, cfg, out[b * BLOCK_SIZE:(b + 1) * BLOCK_SIZE],
                            stream_salt, b)

    if n_workers == 1:
        run_share(0)
    else:
        # the calling thread runs share 0 itself
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=n_workers - 1) as pool:
            shares = [pool.submit(run_share, k) for k in range(1, n_workers)]
            run_share(0)
            for share in shares:
                share.result()
    return out


# ---------------------------------------------------------------------------
# paired duality estimation

_LHS_SALT = 0x581
_RHS_SALT = 0x9D2


def _kernel_values(kern: TranslationKernel, diffs: np.ndarray) -> np.ndarray:
    r = np.linalg.norm(np.atleast_2d(diffs), axis=-1)
    with np.errstate(divide="ignore"):
        return np.asarray(kern(r), dtype=float)


def _mean_se(v: np.ndarray):
    return float(v.mean()), float(v.std(ddof=1) / np.sqrt(len(v)))


def estimate_duality(specX: ProcessSpec, specY: ProcessSpec, f_descriptor,
                     x, y, t: float, cfg: PathConfig,
                     dual_report=None) -> DualityEstimate:
    """Estimate both sides of E f(X_t^x, y) = E f(x, Y_t^y).

    f_descriptor is ("cone", Cone) or a TranslationKernel.  For the cone
    pairing a passing DualReport whose dual_spec is specY is required, and
    a report for another dual raises InadmissibleDual with either pairing,
    before any path is simulated; singular kernels are winsorized at the
    pooled tail quantile, identically on both sides.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    run = replace(cfg, t_end=t)
    cone_pairing = isinstance(f_descriptor, tuple) and f_descriptor[0] == "cone"
    if cone_pairing and (dual_report is None
                         or not getattr(dual_report, "admissible", False)):
        raise InadmissibleDual(
            "cone duality estimation needs an admissible DualReport")
    if dual_report is not None and dual_report.dual_spec is not specY:
        raise InadmissibleDual(
            "the DualReport is for another dual than specY")
    _check_scheme(specX, run, x)
    _check_scheme(specY, run, y)
    xs = simulate_paths(specX, run, x, stream_salt=_LHS_SALT)
    ys = simulate_paths(specY, run, y, stream_salt=_RHS_SALT)

    trunc = None
    if cone_pairing:
        cone: Cone = f_descriptor[1]
        lhs_vals = cone_contains_many(cone, xs - y).astype(float)
        rhs_vals = cone_contains_many(cone, x - ys).astype(float)
    elif isinstance(f_descriptor, TranslationKernel):
        lhs_vals = _kernel_values(f_descriptor, xs - y)
        rhs_vals = _kernel_values(f_descriptor, x - ys)
        pooled = np.abs(np.concatenate([lhs_vals, rhs_vals]))
        pooled = pooled[np.isfinite(pooled)]
        trunc = float(np.quantile(pooled, cfg.tail_truncation_quantile))
        lhs_vals = np.clip(np.nan_to_num(lhs_vals, posinf=trunc, neginf=-trunc),
                           -trunc, trunc)
        rhs_vals = np.clip(np.nan_to_num(rhs_vals, posinf=trunc, neginf=-trunc),
                           -trunc, trunc)
    else:
        raise ValueError("f_descriptor must be ('cone', Cone) or a "
                         "TranslationKernel")

    lhs_mean, lhs_se = _mean_se(lhs_vals)
    rhs_mean, rhs_se = _mean_se(rhs_vals)
    gap = lhs_mean - rhs_mean
    denom = float(np.hypot(lhs_se, rhs_se))
    z = gap / denom if denom > 0 else 0.0
    return DualityEstimate(
        lhs_mean=lhs_mean, lhs_se=lhs_se, rhs_mean=rhs_mean, rhs_se=rhs_se,
        gap=gap, z_score=float(z), n_paths=cfg.n_paths,
        truncation_level=trunc)


# ---------------------------------------------------------------------------
# boundary regularization

@dataclass(frozen=True)
class RegularizedDistribution:
    cdf: np.ndarray                 # extrapolated values at the boundary
    ladder_cdfs: np.ndarray         # (n_levels, n_x) raw ladder values
    rate: str                       # 'exact' | observed contraction factor


def regularized_boundary_distribution(
        ladder, x_grid) -> RegularizedDistribution:
    """Boundary law as the extrapolated limit of an interior ladder.

    ladder is a sequence of (epsilon, samples) with decreasing epsilon.
    When the ladder is constant within Monte Carlo noise (3 / sqrt(n)
    for the smallest level's n samples) the last level
    is returned and the rate is flagged exact; otherwise a geometric
    (Richardson style) extrapolation is applied and ladders whose
    successive differences fail to shrink by factor >= 1.3 raise
    NonConvergent.
    """
    if len(ladder) < 3:
        raise ValueError("ladder needs at least 3 levels")
    eps = np.array([float(e) for e, _ in ladder])
    if np.any(np.diff(eps) >= 0):
        raise ValueError("epsilons must be strictly decreasing")
    x_grid = np.asarray(x_grid, dtype=float)
    cdfs = np.stack([
        np.mean(np.asarray(s, dtype=float).reshape(len(s), -1)[:, 0][:, None]
                <= x_grid[None, :], axis=0)
        for _, s in ladder])
    n_min = min(len(s) for _, s in ladder)
    noise = 3.0 / np.sqrt(n_min)

    diffs = np.abs(np.diff(cdfs, axis=0)).max(axis=1)
    if np.all(diffs <= noise):
        return RegularizedDistribution(cdf=cdfs[-1], ladder_cdfs=cdfs,
                                       rate="exact")
    ratios = diffs[1:] / np.maximum(diffs[:-1], 1e-300)
    meaningful = diffs[:-1] > noise
    if np.any(meaningful & (ratios > 1.0 / 1.3)):
        k = int(np.argmax(meaningful & (ratios > 1.0 / 1.3)))
        raise NonConvergent(
            f"ladder differences contract by only {1/ratios[k]:.3g} "
            f"at level {k + 1}")
    r = float(np.median(ratios[meaningful])) if np.any(meaningful) else 0.0
    # geometric tail sum: F* = F_last + d_last * r / (1 - r)
    last_step = cdfs[-1] - cdfs[-2]
    extr = cdfs[-1] + last_step * r / (1.0 - r)
    return RegularizedDistribution(
        cdf=np.clip(extr, 0.0, 1.0), ladder_cdfs=cdfs,
        rate=f"{1.0 / max(r, 1e-300):.3g}")
