import math
import os
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest, norm

from dualgen import monte_carlo
from dualgen.errors import (
    InadmissibleDual,
    InvalidEstimate,
    NonConvergent,
    NonFiniteState,
    RateBoundExceeded,
    StepTooCoarseWarning,
    StructureViolation,
    UnsupportedScheme,
)
from dualgen.generator_core import AtomicJumpKernel, ProcessSpec, discretize
from dualgen.matrix_lab import semigroup
from dualgen.monte_carlo import (
    DualityEstimate,
    PathConfig,
    StableLikeKernel,
    estimate_duality,
    positive_stable_sample,
    regularized_boundary_distribution,
    simulate_paths,
    worker_count,
)
from dualgen.order_transform import TranslationKernel
from dualgen.scenario import closed_form_dual, load_scenario
from dualgen.state_space import Cone, build_grid


def _const(v):
    return lambda s, _v=float(v): _v * np.ones_like(np.asarray(s, dtype=float))


def _bm(domain="full_space", boundary=None):
    return ProcessSpec.one_dim(a=_const(0.5), da=_const(0.0),
                               domain=domain, boundary=boundary)


def test_path_config_validation():
    with pytest.raises(ValueError):
        PathConfig(n_paths=10, dt=0.01, t_end=1.0, seed=1)
    with pytest.raises(ValueError):
        PathConfig(n_paths=1000, dt=2.0, t_end=1.0, seed=1)
    with pytest.raises(ValueError):
        PathConfig(n_paths=1000, dt=0.01, t_end=1.0, seed=1, scheme="milstein")
    with pytest.raises(ValueError):
        PathConfig(n_paths=1000, dt=0.01, t_end=1.0, seed=1,
                   tail_truncation_quantile=0.3)
    # three steps of 0.3 simulated t = 0.9 for a reported t = 1
    with pytest.raises(ValueError, match="whole number of dt = 0.3 steps"):
        PathConfig(n_paths=1000, dt=0.3, t_end=1.0, seed=1)
    # each of these thinning bounds left every path where it started
    for bound in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="not a finite positive number"):
            PathConfig(n_paths=1000, dt=0.01, t_end=1.0, seed=1,
                       scheme="euler_jump_thinning", rate_bound=bound)
    # 0.7 / 1e-3 is 699.9999999999999: a whole number to rounding
    PathConfig(n_paths=1000, dt=1e-3, t_end=0.7, seed=1)


def test_brownian_terminal_moments():
    cfg = PathConfig(n_paths=20000, dt=1e-3, t_end=1.0, seed=11)
    xs = simulate_paths(_bm(), cfg, [0.0])[:, 0]
    assert abs(xs.mean()) < 4.0 / np.sqrt(len(xs))
    assert abs(xs.var() - 1.0) < 0.05


def test_step_too_coarse_for_the_diffusion_warns():
    # |b| dt against 4 sqrt(2 a dt) at the start: 5 > 1.26 at dt = 0.1,
    # 0.05 < 0.13 at dt = 0.001
    spec = ProcessSpec.one_dim(a=_const(0.5), b=_const(50.0))
    coarse = PathConfig(n_paths=1000, dt=0.1, t_end=0.2, seed=3)
    with pytest.warns(StepTooCoarseWarning, match="decrease dt"):
        simulate_paths(spec, coarse, [0.0])
    fine = PathConfig(n_paths=1000, dt=0.001, t_end=0.002, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", StepTooCoarseWarning)
        simulate_paths(spec, fine, [0.0])


def test_deterministic_flow_hits_exponential():
    spec = ProcessSpec.one_dim(b=lambda x: -np.asarray(x, float))
    cfg = PathConfig(n_paths=100, dt=1e-4, t_end=1.0, seed=2)
    xs = simulate_paths(spec, cfg, [1.0])[:, 0]
    assert np.abs(xs - np.exp(-1.0)).max() < 1e-3


def test_reflected_brownian_law():
    cfg = PathConfig(n_paths=20000, dt=1e-3, t_end=1.0, seed=12)
    xs = simulate_paths(_bm("half_line", "reflect"), cfg, [0.0])[:, 0]
    stat = kstest(xs, lambda v: 2.0 * norm.cdf(v) - 1.0).statistic
    assert stat < 0.02


def test_parsed_reflected_brownian_law():
    # parsed constants with no drift: one step of t, |x + sigma W_t|
    cfg = PathConfig(n_paths=20000, dt=1e-3, t_end=1.0, seed=12)
    xs = simulate_paths(_declared(_HALF_LINE_BM), cfg, [0.0])[:, 0]
    stat = kstest(xs, lambda v: 2.0 * norm.cdf(v) - 1.0).statistic
    assert stat < 0.02


def test_determinism_and_thread_independence():
    cfg = PathConfig(n_paths=50000, dt=0.01, t_end=0.5, seed=99)
    old = os.environ.get("DUALGEN_THREADS")
    try:
        os.environ["DUALGEN_THREADS"] = "1"
        a = simulate_paths(_bm(), cfg, [0.3])
        os.environ["DUALGEN_THREADS"] = "4"
        b = simulate_paths(_bm(), cfg, [0.3])
    finally:
        if old is None:
            os.environ.pop("DUALGEN_THREADS", None)
        else:
            os.environ["DUALGEN_THREADS"] = old
    assert np.array_equal(a, b)


def test_positive_stable_laplace_transform():
    rng = np.random.default_rng(3)
    for a in (0.3, 0.5, 0.75):
        s = positive_stable_sample(rng, a, 400000)
        for lam in (0.5, 1.0, 2.0):
            got = np.exp(-lam * s).mean()
            assert abs(got - np.exp(-lam ** a)) < 5e-3


def test_standard_error_scaling():
    cone = ("cone", Cone.pareto(1))
    spec = _bm()
    rep = closed_form_dual(spec)
    ses = []
    for n in (10000, 40000):
        cfg = PathConfig(n_paths=n, dt=0.01, t_end=1.0, seed=5)
        est = estimate_duality(spec, rep.dual_spec, cone, 1.0, 0.0, 1.0, cfg,
                               dual_report=rep)
        ses.append(est.lhs_se)
    assert abs(ses[0] / ses[1] - 2.0) < 0.4


def test_brownian_self_duality_z_score():
    spec = _bm()
    rep = closed_form_dual(spec)
    cfg = PathConfig(n_paths=20000, dt=1e-3, t_end=1.0, seed=21)
    est = estimate_duality(spec, rep.dual_spec, ("cone", Cone.pareto(1)),
                           1.0, 0.0, 1.0, cfg, dual_report=rep)
    assert abs(est.z_score) <= 3.5
    assert abs(est.lhs_mean - norm.cdf(1.0)) < 0.02


def test_cone_estimation_requires_admissible_report():
    spec = _bm()
    cfg = PathConfig(n_paths=1000, dt=0.01, t_end=1.0, seed=1)
    with pytest.raises(InadmissibleDual):
        estimate_duality(spec, spec, ("cone", Cone.pareto(1)),
                         1.0, 0.0, 1.0, cfg, dual_report=None)


def test_jump_thinning_poisson_mean_and_rate_bound():
    nu = AtomicJumpKernel(jumps=(((1.0,), 2.0),))
    spec = ProcessSpec.one_dim(nu=nu)
    cfg = PathConfig(n_paths=20000, dt=1e-3, t_end=1.0, seed=6,
                     scheme="euler_jump_thinning", rate_bound=2.5)
    xs = simulate_paths(spec, cfg, [0.0])[:, 0]
    assert abs(xs.mean() - 2.0) < 0.05            # Poisson(2) increments
    bad = PathConfig(n_paths=200, dt=1e-2, t_end=0.2, seed=6,
                     scheme="euler_jump_thinning", rate_bound=1.0)
    with pytest.raises(RateBoundExceeded):
        simulate_paths(spec, bad, [0.0])


def test_stable_euler_alpha2_is_gaussian():
    kern = StableLikeKernel(alpha=2.0, amplitude=lambda x: np.full(len(x), 0.5))
    spec = ProcessSpec.one_dim(nu=kern)
    cfg = PathConfig(n_paths=20000, dt=5e-3, t_end=1.0, seed=7,
                     scheme="stable_euler")
    xs = simulate_paths(spec, cfg, [0.0])[:, 0]
    assert abs(xs.var() - 1.0) < 0.05             # Var = 2 a t = 1


def test_stable_like_symmetry_control():
    kern = TranslationKernel(kind="riesz", d=2, alpha=1.0)
    spec = ProcessSpec(dim=2, jump=StableLikeKernel(
        alpha=1.0, amplitude=lambda x: np.ones(np.shape(x)[:-1])))
    cfg = PathConfig(n_paths=20000, dt=5e-3, t_end=0.5, seed=8,
                     scheme="stable_euler")
    est = estimate_duality(spec, spec, kern, (1.0, 0.0), (0.0, 0.0), 0.5, cfg)
    assert abs(est.z_score) <= 3.5
    assert est.truncation_level is not None and est.truncation_level > 0


@pytest.mark.parametrize("d, alpha, amp", [(2, 1.0, 1.0), (2, 1.5, 0.7),
                                           (3, 1.2, 1.0)])
def test_stable_euler_moment_matches_the_closed_form(d, alpha, amp):
    # E e^{ik.X_t} = exp(-a t |k|^alpha): for 0 < p < alpha
    # E|X_t|^p = (at)^{p/alpha} 2^p G((d+p)/2) G(1-p/alpha)
    #            / (G(d/2) G(1-p/2))  (Samorodnitsky & Taqqu 1994);
    # p = alpha/4 keeps the variance of |X_t|^p finite
    p, t = alpha / 4.0, 1.0
    exact = ((amp * t) ** (p / alpha) * 2.0 ** p * math.gamma((d + p) / 2.0)
             * math.gamma(1.0 - p / alpha)
             / (math.gamma(d / 2.0) * math.gamma(1.0 - p / 2.0)))
    spec = ProcessSpec(dim=d, jump=StableLikeKernel(
        alpha=alpha, amplitude=lambda x: np.full(len(x), amp)))
    cfg = PathConfig(n_paths=100000, dt=0.5, t_end=t, seed=4,
                     scheme="stable_euler")
    v = np.linalg.norm(simulate_paths(spec, cfg, np.zeros(d)), axis=1) ** p
    z = (v.mean() - exact) / (v.std(ddof=1) / math.sqrt(len(v)))
    assert abs(z) <= 4.0


def test_absorption_probability_monotone_in_start():
    absorbed = _bm("half_line", "absorb")
    dead = []
    for y in (0.25, 0.75, 1.5):
        cfg = PathConfig(n_paths=20000, dt=1e-3, t_end=1.0, seed=13,
                         bridge_correction=True)
        xs = simulate_paths(absorbed, cfg, [y])[:, 0]
        dead.append(np.mean(xs == 0.0))
    se = 2.0 / np.sqrt(20000)
    assert dead[0] >= dead[1] - 2 * se >= dead[2] - 4 * se


# Brownian motion with drift b = -0.4, a = 0.3, killed at 0, from x = 0.6
_KILLED_CFG = PathConfig(n_paths=100000, dt=0.01, t_end=1.0, seed=5,
                         bridge_correction=True)


@pytest.mark.parametrize("y", [0.0, 0.5])
def test_killed_brownian_motion_with_drift_law(y):
    # P(X_t > y, tau > t) = Phi((x - y + bt) / (s sqrt t))
    #   - exp(-2 b x / s^2) Phi((-x - y + bt) / (s sqrt t)),  s^2 = 2a;
    # the bridge test makes one step of t exact
    x, b, a, t = 0.6, -0.4, 0.3, _KILLED_CFG.t_end
    s = math.sqrt(2.0 * a * t)
    p = (norm.cdf((x - y + b * t) / s)
         - math.exp(-2.0 * b * x / (2.0 * a)) * norm.cdf((-x - y + b * t) / s))
    xs = simulate_paths(_declared(_ABSORBED_DRIFT), _KILLED_CFG, [x])[:, 0]
    z = (np.mean(xs > y) - p) / math.sqrt(p * (1.0 - p) / len(xs))
    assert abs(z) <= 4.0


def test_regularized_ladder_constant_is_exact():
    rng = np.random.default_rng(9)
    samples = [rng.normal(1.0, 0.5, 5000) for _ in range(3)]
    reg = regularized_boundary_distribution(
        [(0.4, samples[0]), (0.2, samples[1]), (0.1, samples[2])],
        np.array([0.5, 1.0, 1.5]))
    assert reg.rate == "exact"


def test_regularized_ladder_geometric_extrapolation():
    x = np.array([0.0])
    rng = np.random.default_rng(10)
    # CDF at 0 approaches 0.5 geometrically: 0.5 - eps
    ladder = []
    for eps in (0.32, 0.16, 0.08, 0.04, 0.02):
        p = 0.5 - eps
        ladder.append((eps, (rng.random(200000) > p).astype(float)))
    reg = regularized_boundary_distribution(ladder, x)
    assert abs(reg.cdf[0] - 0.5) < 0.01
    assert reg.rate != "exact"


def test_regularized_ladder_flags_non_convergence():
    x = np.array([0.0])
    rng = np.random.default_rng(11)
    ladder = []
    for k, eps in enumerate((0.4, 0.2, 0.1, 0.05)):
        p = 0.5 + 0.2 * (-1) ** k             # oscillating, non-contracting
        ladder.append((eps, (rng.random(100000) > p).astype(float)))
    with pytest.raises(NonConvergent):
        regularized_boundary_distribution(ladder, x)


def test_reflection_covariance_of_magnitude():
    """Simulating on the full line and taking |x| agrees in law with
    scheme-level reflection (drift odd, diffusion even)."""
    full = ProcessSpec.one_dim(a=_const(0.5), da=_const(0.0),
                               b=lambda x: -0.3 * np.asarray(x, float))
    refl = ProcessSpec.one_dim(a=_const(0.5), da=_const(0.0),
                               b=lambda x: -0.3 * np.asarray(x, float),
                               domain="half_line", boundary="reflect")
    cfg = PathConfig(n_paths=20000, dt=1e-3, t_end=1.0, seed=14)
    a = np.abs(simulate_paths(full, cfg, [0.5])[:, 0])
    b = simulate_paths(refl, PathConfig(n_paths=20000, dt=1e-3, t_end=1.0,
                                        seed=15), [0.5])[:, 0]
    stat = kstest(a, b).statistic
    assert stat < 0.02


def _reference_paths(spec, cfg, x0, salt):
    """Terminal states by the plain step loop: a fresh array per
    operation, np.where for absorbed paths, exp over every path for the
    bridge test and a per-candidate thinning loop.  One block only."""
    rng = monte_carlo._block_rng(cfg.seed, salt, 0)
    m, d = cfg.n_paths, spec.dim
    x = np.tile(np.asarray(x0, dtype=float), (m, 1))
    frozen = np.zeros(m, dtype=bool)
    for _ in range(int(round(cfg.t_end / cfg.dt))):
        x_prev = x.copy()
        b = np.zeros_like(x)
        for j, bj in enumerate(spec.drift_components or ()):
            if bj is not None:
                b[:, j] = bj(x[:, j])
        dx = b * cfg.dt
        if cfg.scheme == "stable_euler":
            z = rng.standard_normal((m, d))
            if spec.jump.alpha == 2.0:
                s = np.sqrt(2.0) * z
            else:
                A = positive_stable_sample(rng, spec.jump.alpha / 2.0, m)
                s = np.sqrt(2.0 * A)[:, None] * z
            amp = np.asarray(spec.jump.amplitude(x), dtype=float).reshape(m)
            dx = dx + ((amp * cfg.dt) ** (1.0 / spec.jump.alpha))[:, None] * s
        elif spec.has_diffusion():
            z = rng.standard_normal((m, d))
            sig = np.empty_like(x)
            for j, ajj in enumerate(spec.diffusion_diag):
                sig[:, j] = np.sqrt(2.0 * np.asarray(ajj(x[:, j]), float))
            dx = dx + sig * z * np.sqrt(cfg.dt)
        if cfg.scheme == "euler_jump_thinning":
            u_evt, u_acc, u_chan = (rng.random(m) for _ in range(3))
            p_evt = -np.expm1(-cfg.rate_bound * cfg.dt)
            for i in np.nonzero(u_evt < p_evt)[0]:
                if frozen[i]:
                    continue
                rates = [(np.atleast_1d(np.asarray(w, dtype=float)),
                          float(r(x[i]) if callable(r) else r))
                         for w, r in spec.jump.jumps]
                total = sum(r for _, r in rates)
                if u_acc[i] * cfg.rate_bound < total:
                    acc = 0.0
                    for w, r in rates:
                        acc += r
                        if u_chan[i] * total <= acc:
                            dx[i] += w
                            break
        x = np.where(frozen[:, None], x, x + dx)
        if spec.domain != "half_line":
            continue
        if spec.boundary == "reflect":
            x[:, 0] = np.abs(x[:, 0])
            continue
        hit = (x[:, 0] <= 0.0) & ~frozen
        u = rng.random(m)
        if cfg.bridge_correction:
            both_pos = (x[:, 0] > 0.0) & (x_prev[:, 0] > 0.0) & ~frozen
            a_vals = np.asarray(spec.diffusion_diag[0](x_prev[:, 0]), float)
            with np.errstate(over="ignore", under="ignore"):
                p_cross = np.exp(-x_prev[:, 0] * x[:, 0]
                                 / np.maximum(a_vals * cfg.dt, 1e-300))
            hit |= both_pos & (u < p_cross)
        x[hit] = 0.0
        frozen |= hit
    return x


def _statedep(**kw):
    return ProcessSpec.one_dim(a=lambda x: 0.5 + 0.25 * np.cos(x),
                               b=lambda x: 0.3 * np.sin(x) - 0.2 * x, **kw)


_KERNEL_CASES = {
    "reflect": (_bm("half_line", "reflect"), {}, [0.5]),
    # the half space x_0 >= 0: only axis 0 folds, as only axis 0 absorbs
    "reflect_2d": (ProcessSpec(
        dim=2, drift_components=(_const(0.0), _const(-0.2)),
        diffusion_diag=(_const(0.5), _const(0.3)),
        domain="half_line", boundary="reflect"), {}, [0.3, 0.2]),
    "absorb": (_bm("half_line", "absorb"), {}, [0.5]),
    "absorb_bridge": (_bm("half_line", "absorb"),
                      {"bridge_correction": True}, [0.5]),
    # a(x) = x: the coefficient returns a view of the state it is given
    "absorb_bridge_identity_coefficient": (ProcessSpec.one_dim(
        a=lambda x: x, domain="half_line", boundary="absorb"),
        {"bridge_correction": True}, [0.5]),
    "statedep": (_statedep(), {}, [0.3]),
    "statedep_absorb_bridge": (_statedep(domain="half_line",
                                         boundary="absorb"),
                               {"bridge_correction": True}, [0.4]),
    "stable": (ProcessSpec(dim=2, jump=StableLikeKernel(
        alpha=1.0, amplitude=lambda x: 1.0 + 0.5 * np.sin(x[..., 0]))),
        {"scheme": "stable_euler"}, [1.0, 0.0]),
    "stable_gaussian": (ProcessSpec.one_dim(nu=StableLikeKernel(
        alpha=2.0, amplitude=lambda x: np.full(len(x), 0.5))),
        {"scheme": "stable_euler"}, [0.0]),
    "thinning_constant": (ProcessSpec.one_dim(nu=AtomicJumpKernel(
        jumps=(((1.0,), 1.2), ((-1.0,), 0.8)))),
        {"scheme": "euler_jump_thinning", "rate_bound": 2.0}, [0.0]),
    "thinning_callable": (ProcessSpec.one_dim(
        a=_const(0.1), b=lambda x: -0.1 * np.asarray(x, float),
        nu=AtomicJumpKernel(jumps=(
            ((1.0,), lambda x: 1.0 + 0.5 * np.tanh(x[0])),
            ((-1.0,), 0.5),
            ((0.5,), lambda x: 0.2)))),
        {"scheme": "euler_jump_thinning", "rate_bound": 2.5}, [0.0]),
    "thinning_absorb": (ProcessSpec.one_dim(
        nu=AtomicJumpKernel(jumps=(((1.0,), 0.8), ((-1.0,), 1.2))),
        domain="half_line", boundary="absorb"),
        {"scheme": "euler_jump_thinning", "rate_bound": 2.0}, [1.0]),
}


@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_kernel_matches_plain_step_loop(case):
    spec, extra, x0 = _KERNEL_CASES[case]
    cfg = PathConfig(n_paths=500, dt=0.01, t_end=1.0, seed=41, **extra)
    got = simulate_paths(spec, cfg, x0, stream_salt=3)
    want = _reference_paths(spec, cfg, x0, salt=3)
    assert got.tobytes() == want.tobytes()


def _declared(process):
    """The spec of a scenario process: coefficients parsed from its
    expressions, as `dualgen` runs them."""
    return load_scenario({"name": "kernel-case", "mode": "dual",
                          "process": process}).process


# the mc-half-line benchmark's process: X reflected, its dual absorbed
_HALF_LINE_BM = {"dim": 1, "diffusion": ["0.5"], "diffusion_deriv": ["0"],
                 "domain": "half_line", "boundary": "reflect"}
_ABSORBED_DRIFT = {"dim": 1, "drift": ["-0.4"], "diffusion": ["0.3"],
                   "domain": "half_line", "boundary": "absorb"}

# coefficients parsed from constant expressions: evaluated once per block;
# the last entry is the number of steps the paths take at dt = 0.01,
# t_end = 1: one where the law at t_end is the same for every step size
_PARSED_KERNEL_CASES = {
    # diffusion "0.5", drift a' - b = "0"
    "bench_absorbed_dual": (closed_form_dual(_declared(_HALF_LINE_BM))
                            .dual_spec, {"bridge_correction": True}, [0.5],
                            1),
    # without the bridge test the killed chain's law depends on dt
    "constant_drift_absorb": (_declared(_ABSORBED_DRIFT), {}, [0.6], 100),
    "constant_drift_absorb_bridge": (_declared(_ABSORBED_DRIFT),
                                     {"bridge_correction": True}, [0.6], 1),
    "reflect": (_declared(_HALF_LINE_BM), {}, [0.5], 1),
    # a drift across the reflecting boundary: the folded chain's law
    # depends on dt
    "reflect_drift": (_declared({**_ABSORBED_DRIFT, "boundary": "reflect"}),
                      {}, [0.6], 100),
    # only axis 0 folds, and its drift is 0
    "reflect_2d": (_declared({"dim": 2, "drift": ["0", "-0.2"],
                              "diffusion": ["0.5", "0.3"],
                              "domain": "half_line", "boundary": "reflect"}),
                   {}, [0.3, 0.2], 1),
    "diagonal_2d": (_declared({"dim": 2, "drift": ["0.2", "-0.1"],
                               "diffusion": ["0.5", "0.3"]}), {},
                    [0.1, -0.2], 1),
    # one constant and one state-dependent diffusion component
    "mixed_2d_absorb_bridge": (_declared({
        "dim": 2, "drift": ["0", "-0.3*x2"],
        "diffusion": ["0.4", "0.5 + 0.25*cos(x2)"],
        "domain": "half_line", "boundary": "absorb"}),
        {"bridge_correction": True}, [0.4, 0.2], 100),
}


@pytest.mark.parametrize("case", sorted(_PARSED_KERNEL_CASES))
def test_constant_coefficient_kernel_matches_plain_step_loop(case):
    spec, extra, x0, steps = _PARSED_KERNEL_CASES[case]
    cfg = PathConfig(n_paths=500, dt=0.01, t_end=1.0, seed=41, **extra)
    got = simulate_paths(spec, cfg, x0, stream_salt=3)
    want = _reference_paths(spec, replace(cfg, dt=cfg.t_end / steps), x0,
                            salt=3)
    assert got.tobytes() == want.tobytes()


def test_constant_coefficients_evaluated_once_per_block():
    calls = []

    def spy(name, coef):
        def counted(s):
            calls.append(name)
            return coef(s)
        counted.variables = coef.variables
        return counted

    # without the bridge test the absorbed paths take every step
    spec = _PARSED_KERNEL_CASES["constant_drift_absorb"][0]
    spied = replace(spec,
                    drift_components=(spy("b", spec.drift_components[0]),),
                    diffusion_diag=(spy("a", spec.diffusion_diag[0]),))
    cfg = PathConfig(n_paths=monte_carlo.BLOCK_SIZE + 4000, dt=0.1,
                     t_end=1.0, seed=9)
    got = simulate_paths(spied, cfg, [0.6])
    # one call each for simulate_paths' step-size check, then one per
    # block of ten steps
    assert sorted(calls) == ["a"] * 3 + ["b"] * 3
    assert got.tobytes() == simulate_paths(spec, cfg, [0.6]).tobytes()


# the closed-form duals of drift -0.4 and of drift -0.4 x1, each with
# diffusion 0.3 on the full line: a' - b is constant in the first only
_CONSTANT_DUAL, _STATE_DUAL = (closed_form_dual(_declared({
    "dim": 1, "drift": [b], "diffusion": ["0.3"],
    "diffusion_deriv": ["0"]})).dual_spec for b in ("-0.4", "-0.4*x1"))


def test_closed_form_dual_drift_of_constants_runs_once_per_block():
    drift = _CONSTANT_DUAL.drift_components[0]
    assert drift.variables == frozenset()
    assert _STATE_DUAL.drift_components[0].variables == {"x1"}
    calls = []

    def counted(s):
        calls.append(1)
        return drift(s)
    counted.variables = drift.variables

    spied = replace(_CONSTANT_DUAL, drift_components=(counted,))
    cfg = PathConfig(n_paths=monte_carlo.BLOCK_SIZE + 4000, dt=0.1,
                     t_end=1.0, seed=9)
    got = simulate_paths(spied, cfg, [0.6])
    # the step-size check, then one call per block; a drift read as
    # varying would also keep the ten steps
    assert len(calls) == 3
    assert got.tobytes() == simulate_paths(_CONSTANT_DUAL, cfg,
                                           [0.6]).tobytes()


# a constant dual on the full line takes one step of t_end
@pytest.mark.parametrize("spec, steps", [(_CONSTANT_DUAL, 1),
                                         (_STATE_DUAL, 100)],
                         ids=["constant", "state-dependent"])
def test_closed_form_dual_drift_matches_plain_step_loop(spec, steps):
    cfg = PathConfig(n_paths=500, dt=0.01, t_end=1.0, seed=41)
    got = simulate_paths(spec, cfg, [0.6], stream_salt=3)
    want = _reference_paths(spec, replace(cfg, dt=cfg.t_end / steps), [0.6],
                            salt=3)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", [_bm("half_line", "absorb"),
                                  _PARSED_KERNEL_CASES["bench_absorbed_dual"][0]],
                         ids=["callable", "parsed"])
def test_paths_started_on_the_absorbing_boundary_stay_there(spec):
    cfg = PathConfig(n_paths=1000, dt=0.01, t_end=1.0, seed=4,
                     bridge_correction=True)
    for y in (0.0, -0.25):
        xs = simulate_paths(spec, cfg, [y])
        assert xs.tobytes() == np.zeros_like(xs).tobytes()
    # absorbed at t = 0, a path still draws, so the other paths of its
    # block keep their streams
    mixed = np.full((1000, 1), 0.5)
    mixed[::3] = 0.0
    monte_carlo._simulate_block(spec, cfg, mixed, 0, 0)
    alone = np.full((1000, 1), 0.5)
    monte_carlo._simulate_block(spec, cfg, alone, 0, 0)
    live = np.arange(1000) % 3 != 0
    assert np.all(mixed[~live] == 0.0)
    assert mixed[live].tobytes() == alone[live].tobytes()


def test_worker_count_capped_at_usable_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    threads = threading.active_count()
    monkeypatch.delenv("DUALGEN_THREADS", raising=False)
    assert worker_count() == 3
    for raw, want in (("1000000", 3), ("2", 2), ("0", 1), ("many", 1)):
        monkeypatch.setenv("DUALGEN_THREADS", raw)
        assert worker_count() == want
    assert threading.active_count() == threads


def test_worker_splits_give_identical_paths(monkeypatch):
    # 5 blocks split over 1, 3 and 4 workers: uneven shares every time
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    block = monte_carlo._simulate_block
    threads = []

    def recording_block(*args):
        threads.append(threading.get_ident())
        return block(*args)

    monkeypatch.setattr(monte_carlo, "_simulate_block", recording_block)
    cfg = PathConfig(n_paths=5 * monte_carlo.BLOCK_SIZE - 100, dt=0.05,
                     t_end=0.5, seed=41)
    out = {}
    for n in (1, 3, 4):
        monkeypatch.setenv("DUALGEN_THREADS", str(n))
        threads.clear()
        out[n] = simulate_paths(_bm("half_line", "reflect"), cfg, [0.2])
        # the calling thread runs one share, pool threads pull the others
        assert len(threads) == 5
        assert 1 + (n > 1) <= len(set(threads)) <= n
    assert out[1].tobytes() == out[3].tobytes() == out[4].tobytes()


def test_unsimulatable_dual_rejected_before_any_simulation(monkeypatch):
    calls = []
    monkeypatch.setattr(monte_carlo, "simulate_paths",
                        lambda *a, **k: calls.append(a))
    # thinning simulates the walk, not its Siegmund dual jump kernel
    walk = ProcessSpec.one_dim(nu=AtomicJumpKernel(
        jumps=(((1.0,), 1.2), ((-1.0,), 0.8))))
    rep = closed_form_dual(walk)
    cfg = PathConfig(n_paths=1000, dt=0.01, t_end=1.0, seed=1,
                     scheme="euler_jump_thinning", rate_bound=2.0)
    with pytest.raises(UnsupportedScheme):
        estimate_duality(walk, rep.dual_spec, ("cone", Cone.pareto(1)),
                         0.0, 0.0, 1.0, cfg, dual_report=rep)
    assert calls == []


def test_report_for_another_dual_rejected_before_any_simulation(monkeypatch):
    calls = []
    monkeypatch.setattr(monte_carlo, "simulate_paths",
                        lambda *a, **k: calls.append(a))
    spec = _bm()
    rep = closed_form_dual(spec)
    # the same construction run again: equal coefficients, another object
    other = closed_form_dual(spec).dual_spec
    cfg = PathConfig(n_paths=1000, dt=0.01, t_end=1.0, seed=1)
    for specY in (spec, other):
        with pytest.raises(InadmissibleDual, match="another dual"):
            estimate_duality(spec, specY, ("cone", Cone.pareto(1)),
                             1.0, 0.0, 1.0, cfg, dual_report=rep)
    with pytest.raises(InadmissibleDual, match="admissible DualReport"):
        estimate_duality(spec, spec, ("cone", Cone.pareto(1)),
                         1.0, 0.0, 1.0, cfg, dual_report=None)
    assert calls == []


def test_non_finite_terminal_states_raise():
    spec = ProcessSpec.one_dim(a=_const(0.5), b=np.log)
    cfg = PathConfig(n_paths=1000, dt=0.01, t_end=1.0, seed=3)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteState):
        simulate_paths(spec, cfg, [0.05])


def test_thinning_rejects_target_map_channels():
    # a target-map channel is refused when the kernel is built, so the
    # thinning scheme never receives one
    cfg = PathConfig(n_paths=1000, dt=0.01, t_end=1.0, seed=1,
                     scheme="euler_jump_thinning", rate_bound=2.0)
    with pytest.raises(StructureViolation, match="channel 0 is a target map"):
        nu = AtomicJumpKernel(jumps=((lambda x: x + 1.0, 1.0),))
        simulate_paths(ProcessSpec.one_dim(nu=nu), cfg, [0.0])


def test_estimate_invariants_hold_without_asserts():
    with pytest.raises(InvalidEstimate):
        DualityEstimate(lhs_mean=0.5, lhs_se=-0.1, rhs_mean=0.5, rhs_se=0.1,
                        gap=0.0, z_score=0.0, n_paths=1000)


_FULL_A = np.array([[0.5, 0.2], [0.2, 0.3]])


def _no_draws(*args):
    raise AssertionError("a random stream was opened")


def test_state_dependent_full_diffusion_raises_unsupported_scheme():
    # a constant full matrix, a varying one and a declared cross term:
    # each is refused before any random number is drawn, on either side.
    # No fixtures: tests/test_defects.py calls it with a defect patched in.
    diagonal = ProcessSpec(dim=2, diffusion_diag=(_const(0.5), _const(0.3)))
    kern = TranslationKernel(kind="log2d", d=2)
    cfg = PathConfig(n_paths=1000, dt=0.01, t_end=0.5, seed=2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monte_carlo, "_block_rng", _no_draws)
        for spec in (
                ProcessSpec(dim=2, diffusion=lambda x: _FULL_A),
                ProcessSpec(dim=2, diffusion=lambda x: _FULL_A + np.diag(
                    [0.2 * np.sin(x[0]), 0.0])),
                replace(diagonal,
                        diffusion_offdiag={(0, 1): lambda u, v: 0.2})):
            with pytest.raises(UnsupportedScheme, match="declared per axis"):
                simulate_paths(spec, cfg, [0.5, 0.0])
            for specX, specY in ((spec, diagonal), (diagonal, spec)):
                with pytest.raises(UnsupportedScheme,
                                   match="declared per axis"):
                    estimate_duality(specX, specY, kern, [0.5, 0.0],
                                     [0.0, 0.0], 0.5, cfg)


# walks of summed rate 2 and 3
_WALK_1D = ProcessSpec.one_dim(nu=AtomicJumpKernel(
    jumps=(((1.0,), 1.2), ((-1.0,), 0.8))))
_WALK_2D = ProcessSpec(dim=2, jump=AtomicJumpKernel(
    jumps=(((1.0, 0.0), 1.2), ((-1.0, 0.0), 0.8), ((0.0, 1.0), 1.0))))


def test_thinning_refuses_a_bound_below_the_start_rate(monkeypatch):
    # a bound of 1e-6 once left every path at 0 with no error: no
    # candidate event came in 100 steps, so it was never compared
    monkeypatch.setattr(monte_carlo, "_block_rng", _no_draws)
    cfg = PathConfig(n_paths=1000, dt=0.01, t_end=1.0, seed=3,
                     scheme="euler_jump_thinning", rate_bound=1e-6)
    with pytest.raises(RateBoundExceeded, match="rate 2 exceeds bound"):
        simulate_paths(_WALK_1D, cfg, [0.0])
    with pytest.raises(RateBoundExceeded, match="rate 3 exceeds bound"):
        estimate_duality(_WALK_2D, _WALK_2D, TranslationKernel("log2d", d=2),
                         [0.0, 0.0], [1.0, 0.0], 1.0, cfg)


def test_thinning_simulates_the_compensated_process():
    # a +1 jump at rate 2, compensated: declared with its drift -2, mean 0
    spec = ProcessSpec.one_dim(a=_const(0.5), b=_const(-2.0),
                               nu=AtomicJumpKernel(jumps=(((1.0,), 2.0),)))
    grid = build_grid([-12.0], [12.0], [0.5], "reflect")
    x0 = int(np.flatnonzero(grid.points()[:, 0] == 0.0)[0])
    T = semigroup(discretize(spec, grid), 1.0).T
    exact = float(T[x0] @ grid.points()[:, 0])
    cfg = PathConfig(n_paths=4000, dt=0.01, t_end=1.0, seed=5,
                     scheme="euler_jump_thinning", rate_bound=2.0)
    xs = simulate_paths(spec, cfg, [0.0])[:, 0]
    se = xs.std(ddof=1) / np.sqrt(len(xs))
    assert abs(xs.mean() - exact) < 5.0 * se
