"""Scenario documents, operations and output checks of the benchmark workloads.

Every operation is what a user of `dualgen` runs: a scenario file passed
to `dualgen.cli.main` with `--out` pointing at a scratch directory.  The
one exception is the thinned birth-death walk, which `mc` mode cannot run
(its closed-form dual has a jump kernel the thinning scheme rejects), so
that operation loads its scenario and calls `simulate_paths` itself.

The checks compare each output with a computation made apart from the
program (closed-form Gaussian laws, the Skellam law, an independent
matrix exponential) or with a property the method must have (|z| within
z_max, a positive winsorization level, stochastic dual rows).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.linalg import expm
from scipy.stats import norm, skellam

WORKLOADS = ("mc-half-line", "mc-free-space", "matrix-verify")

# Per-scale sizes.  "full" is what the benchmark measures; "tiny" runs the
# same operations and checks in a few seconds for the self-test.
SCALES = {
    "full": {"n_paths": 32768, "dt": 0.005, "thin_dt": 0.01,
             "chain": (-10.0, 10.0, 0.05), "small_side": 32,
             "large_side": 45, "setup_repeats": 3},
    "tiny": {"n_paths": 400, "dt": 0.05, "thin_dt": 0.05,
             "chain": (-2.0, 2.0, 0.1), "small_side": 5,
             "large_side": 6, "setup_repeats": 1},
}

# The program's default z_max (3.5) would reject an honest run with
# probability ~5e-4 per probe; over hundreds of seeded probes that is a
# flaky check.  z_max = 5 keeps a false alarm below 1e-6 per probe.
Z_MAX = 5.0
# |estimate - closed form| may reach this many standard errors plus a
# fixed allowance before the check fails.
N_SE = 5.0
CLOSED_FORM_SLACK = 1e-3
# rounding level for the independently recomputed matrix residual
ROUNDING_RESIDUAL = 1e-11

HALF_LINE_PROBES = ((1.0, 0.5, 1.0), (0.5, 0.5, 1.0), (1.5, 1.0, 1.0),
                    (1.0, 0.25, 0.5), (2.0, 1.0, 1.0))
STATEDEP_PROBES = ((1.0, 0.5, 1.0),)
BROWNIAN_PROBE = (1.0, 0.0, 1.0)
STABLE_PROBES = (((1.0, 0.0), (0.0, 0.0)),)
STABLE_T = 0.5
BIRTH, DEATH, RATE_BOUND = 1.2, 0.8, 2.0
THIN_T = 1.0
THIN_SE_LEVEL = 1          # P(X_t >= 1) is the thinning probe's estimate
CHAIN_TIMES = (0.25, 0.5, 1.0)
GRID_T = 0.5
GRID_SPACING = 0.2


@dataclass
class Operation:
    """One timed call into the program, with the check of its outputs."""

    name: str
    track: str                      # "mc" or "matrix"
    doc: dict
    path: Path = None
    out_dir: Path = None
    grid_label: Optional[str] = None
    em_kind: str = "em_free"        # label for full-space Euler-Maruyama sides
    exact: Optional[float] = None   # closed-form value of both sides
    path_steps: int = 0             # exact count, both sides
    states: int = 0
    dim: int = 1
    recompute: bool = False         # recompute the residual independently

    @property
    def mode(self) -> str:
        return self.doc["mode"]


def _steps(t: float, dt: float) -> int:
    return int(round(t / dt))


def _mc_doc(name, process, probe, dt, n_paths, seed, cone, **pc):
    x, y, t = probe
    return {
        "name": name, "mode": "mc", "process": process, "cone": cone,
        "probes": [{"x": list(x), "y": list(y), "t": t}],
        "path_config": {"n_paths": n_paths, "dt": dt, "seed": seed, **pc},
        "tolerances": {"z_max": Z_MAX},
    }


def _paired(doc, **kw) -> Operation:
    pc = doc["path_config"]
    t = doc["probes"][0]["t"]
    return Operation(name=doc["name"], track="mc", doc=doc,
                     dim=doc["process"]["dim"],
                     path_steps=2 * pc["n_paths"] * _steps(t, pc["dt"]), **kw)


def _half_line(seed: int, sc: dict) -> list:
    process = {"dim": 1, "diffusion": ["0.5"], "diffusion_deriv": ["0"],
               "domain": "half_line", "boundary": "reflect"}
    ops = []
    for i, (x, y, t) in enumerate(HALF_LINE_PROBES):
        doc = _mc_doc(f"half-line-{i}", process, ((x,), (y,), t), sc["dt"],
                      sc["n_paths"], seed * 100 + i, {"type": "pareto"},
                      bridge_correction=True)
        s = math.sqrt(t)
        # reflection principle: P(|B_t + x| >= y) for reflected BM
        exact = norm.cdf((x - y) / s) + 1.0 - norm.cdf((x + y) / s)
        ops.append(_paired(doc, exact=exact))
    return ops


def _free_space(seed: int, sc: dict) -> list:
    ops = []
    statedep = {"dim": 1, "drift": ["0.3*sin(x1) - 0.2*x1"],
                "diffusion": ["0.5 + 0.25*cos(x1)"],
                "diffusion_deriv": ["-0.25*sin(x1)"]}
    for i, (x, y, t) in enumerate(STATEDEP_PROBES):
        doc = _mc_doc(f"statedep-{i}", statedep, ((x,), (y,), t), sc["dt"],
                      sc["n_paths"], seed * 100 + i, {"type": "pareto"})
        ops.append(_paired(doc, em_kind="em_statedep"))

    bm = {"dim": 1, "diffusion": ["0.5"], "diffusion_deriv": ["0"]}
    x, y, t = BROWNIAN_PROBE
    doc = _mc_doc("brownian", bm, ((x,), (y,), t), sc["dt"],
                  sc["n_paths"], seed * 100 + 10, {"type": "pareto"})
    ops.append(_paired(doc, exact=norm.cdf((x - y) / math.sqrt(t))))

    stable = {"dim": 2, "stable": {"alpha": 1.0,
                                   "amplitude": "1 + 0.5*sin(x1)"}}
    for i, (x, y) in enumerate(STABLE_PROBES):
        doc = _mc_doc(f"stable-{i}", stable, (x, y, STABLE_T), sc["dt"],
                      sc["n_paths"], seed * 100 + 20 + i,
                      {"type": "riesz", "alpha": 1.0}, scheme="stable_euler")
        ops.append(_paired(doc))

    walk = {"dim": 1, "jumps": [{"displacement": [1.0], "rate": BIRTH},
                                {"displacement": [-1.0], "rate": DEATH}]}
    doc = _mc_doc("thinning", walk, ((0.0,), (float(THIN_SE_LEVEL),), THIN_T),
                  sc["thin_dt"], sc["n_paths"], seed * 100 + 30,
                  {"type": "pareto"}, scheme="euler_jump_thinning",
                  rate_bound=RATE_BOUND)
    ops.append(Operation(name="thinning", track="mc", doc=doc,
                         path_steps=sc["n_paths"] * _steps(THIN_T,
                                                           sc["thin_dt"])))
    return ops


def _grid_doc(name, process, lower, upper, spacing, times):
    return {"name": name, "mode": "verify-matrix", "process": process,
            "grid": {"lower": lower, "upper": upper, "spacing": spacing,
                     "boundary_policy": "reflect"},
            "cone": {"type": "pareto"},
            "probes": [{"x": [0.0] * len(lower), "y": [0.0] * len(lower),
                        "t": t} for t in times]}


def _matrix(seed: int, sc: dict) -> list:
    # the seed moves coefficients by at most 5%, which keeps ||tQ|| inside
    # one scaling-and-squaring bracket of expm, so the work is the same
    u = np.random.default_rng(seed).uniform(-0.05, 0.05, size=6)
    f = [float(1.0 + v) for v in u]
    ops = []
    lo, hi, h = sc["chain"]
    chain = {"dim": 1, "drift": [f"-{0.2 * f[0]!r}*x1"],
             "diffusion": [f"{0.5 * f[1]!r} + 0.1*cos(x1)"],
             "jumps": [{"displacement": [0.5], "rate": 0.6 * f[2]},
                       {"displacement": [-0.5], "rate": 0.4 * f[3]}]}
    doc = _grid_doc("chain1d", chain, [lo], [hi], [h], CHAIN_TIMES)
    ops.append(Operation(name="chain1d", track="matrix", doc=doc,
                         grid_label="chain1d", dim=1,
                         states=int(round((hi - lo) / h)) + 1))

    diff2d = {"dim": 2, "drift": [f"-{0.3 * f[4]!r}*x1", "0.2 - 0.3*x2"],
              "diffusion": [f"{0.5 * f[5]!r} + 0.1*cos(x1)",
                            "0.4 + 0.1*sin(x2)"]}
    for label, side in (("diff2d_small", sc["small_side"]),
                        ("diff2d_large", sc["large_side"])):
        half = GRID_SPACING * (side - 1) / 2.0
        doc = _grid_doc(label, diff2d, [-half] * 2, [half] * 2,
                        [GRID_SPACING] * 2, (GRID_T,))
        ops.append(Operation(name=label, track="matrix", doc=doc,
                             grid_label=label, dim=2, states=side * side,
                             recompute=label == "diff2d_small"))
    return ops


_BUILDERS = {"mc-half-line": _half_line, "mc-free-space": _free_space,
             "matrix-verify": _matrix}


def build(workload: str, seed: int, scale: str, work_dir: Path) -> list:
    """Write the workload's scenario files under work_dir; return its ops."""
    ops = _BUILDERS[workload](seed, SCALES[scale])
    (work_dir / "scenarios").mkdir(parents=True, exist_ok=True)
    for op in ops:
        op.path = work_dir / "scenarios" / f"{op.name}.json"
        op.out_dir = work_dir / "reports" / op.name
        op.path.write_text(json.dumps(op.doc, indent=1))
    return ops


# ---------------------------------------------------------------------------
# running one operation

def run(op: Operation, dualgen):
    """Run one operation the way a user would; returns the CLI exit code
    or, for the thinning walk, the terminal states."""
    if op.name == "thinning":
        sc = dualgen.scenario.load_scenario(op.path)
        return dualgen.monte_carlo.simulate_paths(
            sc.process, sc.path_config, sc.probes[0][0])
    with contextlib.redirect_stdout(io.StringIO()):
        return dualgen.cli.main([op.mode, str(op.path), "--out",
                                 str(op.out_dir)])


def failed(op: Operation, result) -> bool:
    """Exit code 2 means the scenario could not be run."""
    return op.name != "thinning" and result == 2


# ---------------------------------------------------------------------------
# checks, outside the timed region

class CheckFailure(Exception):
    pass


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailure(message)


def _report(op: Operation, rc) -> dict:
    _require(rc == 0, f"{op.name}: exit code {rc}, expected 0")
    rep = json.loads((op.out_dir / "report.json").read_text())
    _require(rep["pass"] is True, f"{op.name}: report does not pass")
    return rep


def check(op: Operation, result, dualgen=None) -> float:
    """Raise CheckFailure unless the outputs are right.

    With the dualgen package passed, a matrix operation flagged
    "recompute" also has its residual recomputed independently.  Returns
    the standard error of a Monte Carlo operation's estimate (0 for the
    matrix track).
    """
    if op.name == "thinning":
        return _check_thinning(op, result)
    rep = _report(op, result)
    if op.track == "matrix":
        _check_matrix(op, rep, dualgen if op.recompute else None)
        return 0.0
    (row,) = rep["results"]["probes"]
    gap_se = math.hypot(row["lhs_se"], row["rhs_se"])
    _require(gap_se > 0, f"{op.name}: zero standard error")
    z = (row["lhs_mean"] - row["rhs_mean"]) / gap_se
    _require(abs(z - row["z_score"]) <= 1e-9 * max(1.0, abs(z)),
             f"{op.name}: z {row['z_score']} != gap / se {z}")
    _require(abs(z) <= Z_MAX, f"{op.name}: |z| = {abs(z):.3g} > {Z_MAX}")
    if op.exact is not None:
        for side in ("lhs", "rhs"):
            err = abs(row[f"{side}_mean"] - op.exact)
            tol = N_SE * row[f"{side}_se"] + CLOSED_FORM_SLACK
            _require(err <= tol, f"{op.name}: {side} {row[side + '_mean']} "
                                 f"vs closed form {op.exact} (tol {tol:.3g})")
    if op.doc["cone"]["type"] == "riesz":
        level = row["truncation_level"]
        _require(level is not None and math.isfinite(level) and level > 0,
                 f"{op.name}: bad winsorization level {level}")
    return gap_se


def _check_thinning(op: Operation, xs: np.ndarray) -> float:
    pc = op.doc["path_config"]
    n, dt = pc["n_paths"], pc["dt"]
    _require(xs.shape == (n, 1), f"thinning: shape {xs.shape}")
    _require(np.array_equal(xs, np.rint(xs)), "thinning: off-lattice states")
    # one event per step at most: the law is off by O(rate_bound * dt)
    slack = RATE_BOUND * dt
    se_probe = None
    for k in range(-3, 5):
        p = float(np.mean(xs[:, 0] >= k))
        exact = float(skellam.sf(k - 1, BIRTH * THIN_T, DEATH * THIN_T))
        se = math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
        _require(abs(p - exact) <= N_SE * se + slack,
                 f"thinning: P(X >= {k}) = {p} vs Skellam {exact}")
        if k == THIN_SE_LEVEL:
            se_probe = math.sqrt(p * (1.0 - p) / n)
    return se_probe


def _pareto_F_and_inverse(shape):
    F, Finv = np.ones((1, 1)), np.ones((1, 1))
    for m in shape:
        F = np.kron(F, np.triu(np.ones((m, m))))     # suffix sums
        Finv = np.kron(Finv, np.eye(m) - np.eye(m, k=1))  # differences
    return F, Finv


def _check_matrix(op: Operation, rep: dict, dualgen):
    res = rep["results"]
    tol = rep["tolerances"]["residual_max"]
    times = sorted(p["t"] for p in op.doc["probes"])
    _require([r["t"] for r in res["per_time"]] == times,
             f"{op.name}: per-time rows {res['per_time']}")
    for r in res["per_time"]:
        _require(r["residual"] <= tol and r["stochastic"],
                 f"{op.name}: row {r} fails")
    _require(res["stochasticity"]["pass"], f"{op.name}: dual not stochastic")
    if dualgen is not None:
        _recompute_residual(op, dualgen)


def _recompute_residual(op: Operation, dualgen):
    """exp(tQ) and F exp(tQ)' F^-1 from the program's Q, with this file's
    own survival transform and differences, must satisfy the duality
    identity to rounding."""
    s = dualgen.scenario.load_scenario(op.path)
    q = dualgen.generator_core.discretize(s.process, s.grid)
    pts = s.grid.points()
    fmat = np.all(pts[:, None, :] >= pts[None, :, :] - 1e-12, axis=-1)
    fmat = fmat.astype(float)                     # f[x, y] = 1{x >= y}
    F, Finv = _pareto_F_and_inverse(s.grid.shape)
    _require(np.array_equal(F.T, fmat), f"{op.name}: F is not f'")
    for t in sorted(p["t"] for p in op.doc["probes"]):
        T = expm(t * q.entries)
        TD = F @ T.T @ Finv
        resid = float(np.abs(T @ fmat - fmat @ TD.T).max())
        _require(resid <= ROUNDING_RESIDUAL,
                 f"{op.name}: recomputed residual {resid:.3g} at t={t}")
        _require(TD.min() >= -1e-10 and (TD.sum(axis=1) <= 1 + 1e-9).all(),
                 f"{op.name}: recomputed dual is not substochastic")
