"""Acceptance gate: eight end-to-end checks with pinned tolerances.

Each test prints a single pass/fail line.  Tolerances here are frozen;
numbers come from independent closed-form oracles (Gaussian CDFs,
reflection principle, symmetry) or from the exact finite-state
conjugation, never from the code under test.
"""

import json
import os
import time

import numpy as np
import pytest
from scipy.stats import norm

from dualgen.dual_builder import (
    check_self_dual,
    closed_form_dual,
    dual_jump_1d,
    dual_jump_multidim,
    dual_lightcone_diffusion,
    lightcone_diffusion_spec,
)
from dualgen.generator_core import (
    AtomicJumpKernel,
    ProcessSpec,
    QMatrix,
    SeparableJumpKernel,
    discretize,
)
from dualgen.matrix_lab import (
    SurvivalTransform,
    action_mismatch,
    dual_generator_via_F,
    dual_semigroup_via_F,
    entrywise_mismatch,
    interior_mask,
    semigroup,
    duality_residual,
)
from dualgen.monte_carlo import (
    PathConfig,
    estimate_duality,
    regularized_boundary_distribution,
    simulate_paths,
)
from dualgen.order_transform import TranslationKernel
from dualgen.scenario import load_scenario, run_scenario
from dualgen.state_space import (
    Cone,
    build_grid,
    lightcone_2d,
)


def _report(num, label, ok):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def _const(v):
    return lambda s, _v=float(v): _v * np.ones_like(np.asarray(s, dtype=float))


# ---------------------------------------------------------------------------

def test_criterion_1_conjugation_identity():
    """50 random conservative generators: exact duality at matrix level."""
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for trial in range(50):
        if trial % 2 == 0:
            n = int(rng.integers(4, 17))
            grid = build_grid([0.0], [float(n - 1)], [1.0])
        else:
            nx = int(rng.integers(2, 9))
            ny = int(rng.integers(2, 9))
            grid = build_grid([0.0, 0.0], [float(nx - 1), float(ny - 1)],
                              [1.0, 1.0])
        m = grid.n_points
        assert m <= 64
        Q = rng.uniform(0.0, 1.0, size=(m, m)) * rng.random((m, m)) < 0.3
        Q = Q.astype(float) * rng.uniform(0.1, 2.0, size=(m, m))
        np.fill_diagonal(Q, 0.0)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        q = QMatrix(entries=Q, state_grid=grid)
        cone = Cone.pareto(grid.dim)
        op = SurvivalTransform(grid, cone)
        for t in (0.1, 1.0, 5.0):
            T = semigroup(q, t)
            TD = dual_semigroup_via_F(T, op)
            worst = max(worst, duality_residual(T, TD, op))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    print(f"  worst residual {worst:.3g}, elapsed {elapsed:.2f}s")
    _report(1, "semigroup conjugation identity", ok)


# ---------------------------------------------------------------------------

def _family_drift():
    spec = ProcessSpec.one_dim(b=lambda x: np.tanh(x))
    rep = closed_form_dual(spec)
    cone = Cone.pareto(1)

    def at(h):
        g = build_grid([-4.0], [4.0], [h])
        q = discretize(spec, g)
        qd = dual_generator_via_F(q, g, cone)
        qb = discretize(rep.dual_spec, g)
        return q, qd, qb
    return at, (0.25, 0.125)


def _family_diffusion():
    spec = ProcessSpec.one_dim(a=lambda x: 1.0 + 0.25 * x * x,
                               da=lambda x: 0.5 * x)
    rep = closed_form_dual(spec)
    cone = Cone.pareto(1)

    def at(h):
        g = build_grid([-4.0], [4.0], [h])
        q = discretize(spec, g)
        qd = dual_generator_via_F(q, g, cone)
        qb = discretize(rep.dual_spec, g)
        return q, qd, qb
    return at, (0.125, 0.0625)


def _family_lightcone():
    al, be = (lambda s: 0.3), (lambda s: 0.2)
    om = lambda x, y: 0.1
    spec = lightcone_diffusion_spec(al, be, om)
    rep = dual_lightcone_diffusion(al, be, om,
                                   alpha_d=lambda s: 0.0,
                                   beta_d=lambda s: 0.0)
    cone = lightcone_2d()

    def at(h):
        g = build_grid([-4.0, -4.0], [4.0, 4.0], [h, h])
        q = discretize(spec, g)
        qd = dual_generator_via_F(q, g, cone)
        qb = discretize(rep.dual_spec, g)
        return q, qd, qb
    return at, (1.0, None)


def _family_jump_1d():
    nu = AtomicJumpKernel(jumps=(((1.0,), 2.0), ((-1.0,), 1.3)))
    spec = ProcessSpec.one_dim(nu=nu)
    rep = dual_jump_1d(nu)
    cone = Cone.pareto(1)

    def at(h):
        g = build_grid([-8.0], [8.0], [h])
        q = discretize(spec, g)
        qd = dual_generator_via_F(q, g, cone)
        qb = discretize(rep.dual_spec, g)
        return q, qd, qb
    return at, (1.0, None)


def _family_jump_nd():
    up = AtomicJumpKernel(
        jumps=(((1.0,), lambda x: 2.0 - np.tanh(x[0])),),
        rate_derivs=(lambda x: -1.0 / np.cosh(x[0]) ** 2,))
    dn = AtomicJumpKernel(
        jumps=(((-1.0,), lambda x: 0.8 - 0.3 * np.tanh(x[0])),),
        rate_derivs=(lambda x: -0.3 / np.cosh(x[0]) ** 2,))
    nu = SeparableJumpKernel(components=((0, up), (1, dn)))
    spec = ProcessSpec(dim=2, jump=nu)
    rep = dual_jump_multidim(nu, 2)
    cone = Cone.pareto(2)

    def at(h):
        g = build_grid([-4.0, -4.0], [4.0, 4.0], [h, h])
        q = discretize(spec, g)
        qd = dual_generator_via_F(q, g, cone)
        qb = discretize(rep.dual_spec, g)
        return q, qd, qb
    return at, (1.0, None)


def _family_half_line_full():
    nu = AtomicJumpKernel(
        jumps=(((0.5,), lambda x: 1.0 + x[0] * x[0] / (1.0 + x[0] * x[0])),),
        rate_derivs=(lambda x: 2.0 * x[0] / (1.0 + x[0] * x[0]) ** 2,))
    spec = ProcessSpec.one_dim(
        a=_const(0.5), da=_const(0.0), b=lambda x: -0.2 * np.asarray(x, float),
        nu=nu, domain="half_line", boundary="reflect")
    rep = closed_form_dual(spec, box=(0.0, 8.0))
    cone = Cone.pareto(1)

    def at(h):
        gf = build_grid([0.0], [8.0], [h],
                        boundary_policy=[("reflect", "truncate_mass")])
        gd = build_grid([0.0], [8.0], [h],
                        boundary_policy=[("absorb", "truncate_mass")])
        q = discretize(spec, gf)
        qd = dual_generator_via_F(q, gf, cone)
        qb = discretize(rep.dual_spec, gd)
        return q, qd, QMatrix(entries=qb.entries, state_grid=gf)
    return at, (0.125, 0.0625)


FAMILIES = [
    ("drift reversal", _family_drift),
    ("diffusion derivative drift", _family_diffusion),
    ("light-cone diffusion", _family_lightcone),
    ("jump tails 1-D", _family_jump_1d),
    ("separable jump N-D", _family_jump_nd),
    ("half-line full generator", _family_half_line_full),
]


def test_criterion_2_closed_form_vs_oracle():
    """Each dual formula family vs the conjugation oracle; entrywise
    agreement at rounding, or halving contraction where the comparison is
    discretization-limited."""
    all_ok = True
    for label, make in FAMILIES:
        at, (h0, h1) = make()
        q, qd, qb = at(h0)
        tol = 1e-6 * np.abs(q.entries).sum(axis=1).max()
        entry = entrywise_mismatch(qd, qb)
        if entry <= tol:
            print(f"  {label}: entrywise {entry:.3g} <= {tol:.3g}")
            continue
        a0 = action_mismatch(qd, qb)
        _, qd1, qb1 = at(h1)
        a1 = action_mismatch(qd1, qb1)
        ratio = a0 / a1
        ok = ratio >= 1.7
        print(f"  {label}: action {a0:.3g} -> {a1:.3g}, ratio {ratio:.2f}")
        all_ok = all_ok and ok
    _report(2, "closed-form duals vs matrix oracle", all_ok)


# ---------------------------------------------------------------------------

def test_criterion_3_involution_and_self_duality():
    probes = np.linspace(-2.0, 2.0, 17)
    all_ok = True
    for k in range(10):
        c = 1.0 + 0.1 * k
        s = 0.05 * (k + 1)
        a = lambda x, c=c, s=s: c + s * x * x
        da = lambda x, s=s: 2.0 * s * x
        self_dual_member = (k % 2 == 0)
        b = (lambda x, s=s: s * x) if self_dual_member else (lambda x: x)
        spec = ProcessSpec.one_dim(a=a, b=b, da=da)
        once = closed_form_dual(spec)
        twice = closed_form_dual(once.dual_spec)
        err = max(
            max(abs(float(twice.dual_spec.drift_components[0](x)) - float(b(x)))
                for x in probes),
            max(abs(float(twice.dual_spec.diffusion_diag[0](x)) - float(a(x)))
                for x in probes))
        flag, _ = check_self_dual(spec)
        ok = err <= 1e-10 and flag == self_dual_member
        all_ok = all_ok and ok
    _report(3, "dual involution and b = a'/2 self-duality", all_ok)


# ---------------------------------------------------------------------------

def test_criterion_4_admissibility_classifier():
    """Monotone-tail classification vs entrywise positivity of the exact
    matrix dual, 200 random 1-D chains."""
    rng = np.random.default_rng(20260824)
    grid = build_grid([-8.0], [8.0], [0.5])
    cone = Cone.pareto(1)
    keep = interior_mask(grid, 2)
    disagreements = 0
    for _ in range(200):
        c0 = rng.uniform(0.5, 2.0)
        d0 = rng.uniform(0.5, 2.0)
        c1 = rng.uniform(0.2, 0.45) * rng.choice([-1.0, 1.0])
        d1 = rng.uniform(0.2, 0.45) * rng.choice([-1.0, 1.0])
        nu = AtomicJumpKernel(
            jumps=(((1.0,), lambda x, c0=c0, c1=c1: c0 + c1 * np.tanh(x[0])),
                   ((-1.0,), lambda x, d0=d0, d1=d1: d0 + d1 * np.tanh(x[0]))),
            rate_derivs=(lambda x, c1=c1: c1 / np.cosh(x[0]) ** 2,
                         lambda x, d1=d1: d1 / np.cosh(x[0]) ** 2))
        classified = dual_jump_1d(nu).admissible
        expected = (c1 >= 0.0) and (d1 <= 0.0)
        q = discretize(ProcessSpec.one_dim(nu=nu), grid)
        qd = dual_generator_via_F(q, grid, cone).entries
        off = qd - np.diag(np.diag(qd))
        oracle = off[np.ix_(keep, keep)].min() >= -1e-9
        if classified != oracle or classified != expected:
            disagreements += 1
    print(f"  disagreements {disagreements}/200")
    _report(4, "admissibility classifier vs oracle positivity",
            disagreements == 0)


# ---------------------------------------------------------------------------

BM = dict(a=0.5)     # Var(X_t) = 2 a t = t


def _bm_spec(domain="full_space", boundary=None):
    return ProcessSpec.one_dim(a=_const(BM["a"]), da=_const(0.0),
                               domain=domain, boundary=boundary)


def test_criterion_5_monte_carlo_duality():
    cfg = PathConfig(n_paths=100_000, dt=1e-3, t_end=1.0, seed=31415)
    cone = ("cone", Cone.pareto(1))

    # scenario A: Brownian self-duality, 5 probes, closed form Phi((x-y)/sqrt(t))
    t0 = time.time()
    spec = _bm_spec()
    rep = closed_form_dual(spec)
    ok = rep.admissible
    for x, y, t in [(1.0, 0.0, 1.0), (0.5, 0.0, 1.0), (1.0, 0.5, 1.0),
                    (1.5, 0.0, 1.0), (0.0, -1.0, 0.5)]:
        est = estimate_duality(spec, rep.dual_spec, cone, x, y, t, cfg,
                               dual_report=rep)
        exact = norm.cdf((x - y) / np.sqrt(t))
        ok = ok and abs(est.z_score) <= 3.5 \
            and abs(est.lhs_mean - exact) <= 0.01 \
            and abs(est.rhs_mean - exact) <= 0.01
    el_a = time.time() - t0
    ok = ok and el_a < 60.0
    print(f"  self-duality scenario {el_a:.1f}s")

    # scenario B: reflected vs absorbed, closed form by the reflection principle
    t0 = time.time()
    refl = _bm_spec(domain="half_line", boundary="reflect")
    repb = closed_form_dual(refl, box=(0.0, 6.0))
    ok = ok and repb.admissible
    cfgb = PathConfig(n_paths=100_000, dt=1e-3, t_end=1.0, seed=27182,
                      bridge_correction=True)
    for x, y, t in [(1.0, 0.5, 1.0), (0.5, 0.5, 1.0), (1.5, 1.0, 1.0),
                    (1.0, 0.25, 0.5), (2.0, 1.0, 1.0)]:
        est = estimate_duality(refl, repb.dual_spec, cone, x, y, t, cfgb,
                               dual_report=repb)
        s = np.sqrt(t)
        exact = norm.cdf((x - y) / s) + 1.0 - norm.cdf((x + y) / s)
        ok = ok and abs(est.z_score) <= 3.5 \
            and abs(est.lhs_mean - exact) <= 0.01 \
            and abs(est.rhs_mean - exact) <= 0.01
    el_b = time.time() - t0
    ok = ok and el_b < 60.0
    print(f"  reflected/absorbed scenario {el_b:.1f}s")
    _report(5, "Monte Carlo duality vs Gaussian closed forms", ok)


# ---------------------------------------------------------------------------

def test_criterion_6_stable_like_riesz():
    from dualgen.monte_carlo import StableLikeKernel
    kern = TranslationKernel(kind="riesz", d=2, alpha=1.0)
    cfg = PathConfig(n_paths=100_000, dt=5e-3, t_end=0.5, seed=777,
                     scheme="stable_euler")
    var_a = ProcessSpec(dim=2, jump=StableLikeKernel(
        alpha=1.0, amplitude=lambda x: 1.0 + 0.5 * np.sin(x[..., 0])))
    ok = True
    for x, y in [((1.0, 0.0), (0.0, 0.0)),
                 ((0.5, 0.5), (-0.5, 0.0)),
                 ((0.0, 1.0), (1.0, -1.0))]:
        est = estimate_duality(var_a, var_a, kern, x, y, 0.5, cfg)
        ok = ok and abs(est.z_score) <= 3.5 and est.truncation_level is not None
    const_a = ProcessSpec(dim=2, jump=StableLikeKernel(
        alpha=1.0, amplitude=lambda x: np.ones(np.shape(x)[:-1])))
    est = estimate_duality(const_a, const_a, kern,
                           (1.0, 0.0), (0.0, 0.0), 0.5, cfg)
    ok = ok and abs(est.z_score) <= 3.5
    _report(6, "stable-like Riesz duality, winsorized", ok)


# ---------------------------------------------------------------------------

def test_criterion_7_regularized_boundary():
    """ladder of interior starting points -> boundary law of the absorbed
    process; the limit law puts all mass at the origin, CDF = 1."""
    absorbed = _bm_spec(domain="half_line", boundary="absorb")
    ladder = []
    for i, eps in enumerate((0.4, 0.2, 0.1, 0.05)):
        cfg = PathConfig(n_paths=100_000, dt=1e-3, t_end=1.0, seed=900 + i,
                         bridge_correction=True)
        ladder.append((eps, simulate_paths(absorbed, cfg, [eps])))
    x_probes = np.array([0.5, 1.0, 2.0])
    reg = regularized_boundary_distribution(ladder, x_probes)
    err = np.abs(reg.cdf - 1.0).max()
    ok = err <= 0.02
    print(f"  extrapolated CDF error {err:.4f}, rate {reg.rate}")
    _report(7, "regularized dual reproduces the absorbed boundary law", ok)


# ---------------------------------------------------------------------------

def test_criterion_8_thread_count_determinism(tmp_path):
    doc = {
        "name": "determinism-check", "mode": "mc",
        "process": {"dim": 1, "diffusion": ["0.5"], "diffusion_deriv": ["0"]},
        "probes": [{"x": [1.0], "y": [0.0], "t": 1.0},
                   {"x": [0.5], "y": [0.0], "t": 1.0}],
        "path_config": {"n_paths": 40000, "dt": 0.005, "seed": 4242},
    }
    outputs = {}
    old = os.environ.get("DUALGEN_THREADS")
    try:
        for threads in ("1", "4"):
            os.environ["DUALGEN_THREADS"] = threads
            out = tmp_path / f"threads_{threads}"
            run_scenario(load_scenario(doc), out_dir=str(out))
            outputs[threads] = ((out / "report.json").read_bytes(),
                                (out / "report.csv").read_bytes())
    finally:
        if old is None:
            os.environ.pop("DUALGEN_THREADS", None)
        else:
            os.environ["DUALGEN_THREADS"] = old
    ok = outputs["1"] == outputs["4"]
    rep = json.loads(outputs["1"][0])
    ok = ok and rep["pass"]
    _report(8, "byte-identical reports across thread counts", ok)
