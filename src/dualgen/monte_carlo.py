"""Path simulation and paired Monte Carlo verification of duality.

Both sides of  E f(X_t^x, y) = E f(x, Y_t^y)  are estimated on
independent ensembles and compared through a z score.  Randomness is
organized in fixed-size blocks with counter-based substreams keyed by
(seed, salt, block index), so results are bit-identical however many
worker threads run the blocks.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import cholesky

from .errors import (
    InadmissibleDual,
    NonConvergent,
    RateBoundExceeded,
    StepTooCoarseWarning,
    UnsupportedScheme,
)
from .generator_core import AtomicJumpKernel, JumpKernel, ProcessSpec
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
    """Thread cap from DUALGEN_THREADS; never affects numerical results."""
    raw = os.environ.get("DUALGEN_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


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
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not (0.5 < self.tail_truncation_quantile <= 1.0):
            raise ValueError("tail_truncation_quantile must be in (0.5, 1]")


@dataclass(frozen=True)
class DualityEstimate:
    lhs_mean: float
    lhs_se: float
    rhs_mean: float
    rhs_se: float
    gap: float
    z_score: float
    n_paths: int
    functional_descriptor: str
    truncation_level: Optional[float] = None

    def __post_init__(self):
        assert self.lhs_se >= 0 and self.rhs_se >= 0
        assert np.isfinite(self.z_score)


@dataclass(frozen=True)
class StableLikeKernel(JumpKernel):
    """Isotropic stable-like driving family: symbol -amplitude(x) |k|^alpha.

    Simulation-only kernel; it has no Lebesgue cell rates on a grid and
    is consumed exclusively by the stable_euler scheme.
    """

    alpha: float
    amplitude: Callable        # a(x) > 0, vectorized over (n, d) states
    dim: int = 1

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError("alpha must lie in (0, 2]")

    def cell_rates(self, x, grid):
        raise NotImplementedError("stable-like kernels are simulation-only")

    def total_rate(self, x):
        raise NotImplementedError

    def compensator_drift(self, x, cutoff):
        raise NotImplementedError


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


def _eval_drift_vec(spec: ProcessSpec, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    if spec.drift_components is not None:
        for j, bj in enumerate(spec.drift_components):
            if bj is not None:
                out[:, j] = bj(x[:, j])
    elif spec.drift is not None:
        out = np.apply_along_axis(spec.drift, 1, x).reshape(x.shape)
    return out


def _diffusion_sigma(spec: ProcessSpec, x: np.ndarray):
    """sqrt(2a) factors: (n, d) componentwise array for diagonal specs,
    or a constant (d, d) Cholesky factor."""
    n, d = x.shape
    if spec.diffusion_diag is not None and not spec.diffusion_offdiag:
        sig = np.empty_like(x)
        for j, ajj in enumerate(spec.diffusion_diag):
            sig[:, j] = np.sqrt(2.0 * np.asarray(ajj(x[:, j]), dtype=float))
        return sig, True
    a0 = spec.eval_diffusion(x[0])
    for probe in x[:: max(1, n // 7)]:
        if np.abs(spec.eval_diffusion(probe) - a0).max() > 1e-12:
            raise NotImplementedError(
                "state-dependent full diffusion matrices are not simulated; "
                "declare diagonal structure or use a constant matrix")
    return cholesky(2.0 * a0, lower=True), False


def _apply_boundary(spec: ProcessSpec, x, frozen, x_prev, cfg, rng):
    """Half-line policies after one increment; mutates x and frozen."""
    if spec.domain != "half_line":
        return
    if spec.boundary == "reflect":
        np.abs(x, out=x)
        return
    if spec.boundary == "absorb":
        hit = (x[:, 0] <= 0.0) & ~frozen
        if cfg.bridge_correction:
            # paths positive at both ends may still have crossed in between
            both_pos = (x[:, 0] > 0.0) & (x_prev[:, 0] > 0.0) & ~frozen
            a_loc = spec.eval_diffusion(x_prev[0])[0, 0] \
                if not spec.diffusion_diag else None
            if spec.diffusion_diag:
                a_vals = np.asarray(spec.diffusion_diag[0](x_prev[:, 0]),
                                    dtype=float)
            else:
                a_vals = np.full(len(x), a_loc)
            u = rng.random(len(x))
            with np.errstate(over="ignore"):
                p_cross = np.exp(-x_prev[:, 0] * x[:, 0]
                                 / np.maximum(a_vals * cfg.dt, 1e-300))
            hit = hit | (both_pos & (u < p_cross))
        else:
            rng.random(len(x))      # keep the draw pattern scheme-stable
        x[hit] = 0.0
        frozen |= hit
        x[frozen] = 0.0


def _simulate_block(spec: ProcessSpec, cfg: PathConfig, x0: np.ndarray,
                    salt: int, block: int, m: int) -> np.ndarray:
    rng = _block_rng(cfg.seed, salt, block)
    d = spec.dim
    n_steps = int(round(cfg.t_end / cfg.dt))
    x = np.tile(np.asarray(x0, dtype=float), (m, 1))
    frozen = np.zeros(m, dtype=bool)
    absorbing = spec.domain == "half_line" and spec.boundary == "absorb"

    stable = spec.jump if cfg.scheme == "stable_euler" else None
    thinning = cfg.scheme == "euler_jump_thinning"

    for _ in range(n_steps):
        x_prev = x.copy()
        b = _eval_drift_vec(spec, x)
        dx = b * cfg.dt

        if stable is not None:
            z = rng.standard_normal((m, d))
            if stable.alpha == 2.0:
                s = np.sqrt(2.0) * z
            else:
                # sub-Gaussian isotropic stable: sqrt(2A) Z has
                # characteristic function exp(-|k|^alpha)
                A = positive_stable_sample(rng, stable.alpha / 2.0, m)
                s = np.sqrt(2.0 * A)[:, None] * z
            amp = np.asarray(stable.amplitude(x), dtype=float).reshape(m)
            dx = dx + ((amp * cfg.dt) ** (1.0 / stable.alpha))[:, None] * s
        elif spec.has_diffusion():
            z = rng.standard_normal((m, d))
            sig, diagonal = _diffusion_sigma(spec, x)
            if diagonal:
                dx = dx + sig * z * np.sqrt(cfg.dt)
            else:
                dx = dx + np.sqrt(cfg.dt) * z @ sig.T

        if thinning and spec.jump is not None:
            u_evt = rng.random(m)
            u_acc = rng.random(m)
            u_chan = rng.random(m)
            p_evt = -np.expm1(-cfg.rate_bound * cfg.dt)
            candidates = np.nonzero(u_evt < p_evt)[0]
            for i in candidates:
                if frozen[i]:
                    continue
                rates = [(np.atleast_1d(np.asarray(w, dtype=float)),
                          float(r(x[i]) if callable(r) else r))
                         for w, r in spec.jump.jumps]
                total = sum(r for _, r in rates)
                if total > cfg.rate_bound * (1 + 1e-12):
                    raise RateBoundExceeded(
                        f"rate {total:.4g} exceeds bound {cfg.rate_bound:.4g}")
                if u_acc[i] * cfg.rate_bound < total:
                    pick = u_chan[i] * total
                    acc = 0.0
                    for w, r in rates:
                        acc += r
                        if pick <= acc:
                            dx[i] += w
                            break

        x = np.where(frozen[:, None], x, x + dx)
        _apply_boundary(spec, x, frozen, x_prev, cfg, rng)
    return x


def _check_scheme(spec: ProcessSpec, cfg: PathConfig):
    """Raise UnsupportedScheme unless cfg.scheme simulates every part of
    spec; a part the scheme skipped would bias the estimate silently."""
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
    in fixed blocks with independent substreams, so the thread cap from
    DUALGEN_THREADS cannot change the output.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    _check_scheme(spec, cfg)
    b0 = spec.eval_drift(x0)
    if spec.has_diffusion():
        a0 = np.diag(spec.eval_diffusion(x0))
        scale = np.sqrt(np.maximum(2.0 * a0 * cfg.dt, 0.0))
        if np.any(np.abs(b0) * cfg.dt > 4.0 * scale + 1e-30):
            warnings.warn("drift step exceeds the diffusion scale; "
                          "decrease dt", StepTooCoarseWarning)

    blocks = [(i, min(BLOCK_SIZE, cfg.n_paths - i * BLOCK_SIZE))
              for i in range((cfg.n_paths + BLOCK_SIZE - 1) // BLOCK_SIZE)]
    n_workers = min(worker_count(), len(blocks))
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(
                lambda bm: _simulate_block(spec, cfg, x0, stream_salt, *bm),
                blocks))
    else:
        parts = [_simulate_block(spec, cfg, x0, stream_salt, b, m)
                 for b, m in blocks]
    return np.concatenate(parts, axis=0)


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
    pairing a passing DualReport for specY is required; singular kernels
    are winsorized at the pooled tail quantile, identically on both sides.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    run = PathConfig(n_paths=cfg.n_paths, dt=cfg.dt, t_end=t, seed=cfg.seed,
                     scheme=cfg.scheme,
                     tail_truncation_quantile=cfg.tail_truncation_quantile,
                     rate_bound=cfg.rate_bound,
                     bridge_correction=cfg.bridge_correction)
    xs = simulate_paths(specX, run, x, stream_salt=_LHS_SALT)
    ys = simulate_paths(specY, run, y, stream_salt=_RHS_SALT)

    trunc = None
    if isinstance(f_descriptor, tuple) and f_descriptor[0] == "cone":
        cone: Cone = f_descriptor[1]
        if dual_report is None or not getattr(dual_report, "admissible", False):
            raise InadmissibleDual(
                "cone duality estimation needs an admissible DualReport")
        lhs_vals = cone_contains_many(cone, xs - y).astype(float)
        rhs_vals = cone_contains_many(cone, x - ys).astype(float)
        label = "cone"
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
        label = f_descriptor.kind
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
        functional_descriptor=label, truncation_level=trunc)


# ---------------------------------------------------------------------------
# boundary regularization

@dataclass(frozen=True)
class RegularizedDistribution:
    x_grid: np.ndarray
    cdf: np.ndarray                 # extrapolated values at the boundary
    ladder_cdfs: np.ndarray         # (n_levels, n_x) raw ladder values
    epsilons: np.ndarray
    rate: str                       # 'exact' | observed contraction factor


def regularized_boundary_distribution(ladder, x_grid,
                                      mc_tol: float = None
                                      ) -> RegularizedDistribution:
    """Boundary law as the extrapolated limit of an interior ladder.

    ladder is a sequence of (epsilon, samples) with decreasing epsilon.
    When the ladder is constant within Monte Carlo noise the last level
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
    noise = mc_tol if mc_tol is not None else 3.0 / np.sqrt(n_min)

    diffs = np.abs(np.diff(cdfs, axis=0)).max(axis=1)
    if np.all(diffs <= noise):
        return RegularizedDistribution(
            x_grid=x_grid, cdf=cdfs[-1], ladder_cdfs=cdfs, epsilons=eps,
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
        x_grid=x_grid, cdf=np.clip(extr, 0.0, 1.0), ladder_cdfs=cdfs,
        epsilons=eps, rate=f"{1.0 / max(r, 1e-300):.3g}")
