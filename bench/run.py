"""Benchmark of dualgen's exact-matrix and Monte Carlo duality checks.

    python3 bench/run.py --workload mc-half-line --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's operations for about --seconds
seconds, checks every output, prints a readable summary and, as the last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 spans around the program's functions give the per-layer
ones.  dualgen is imported from the checkout's src directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# simulated kind -> state dimension (the RNG floor is per normal draw)
KINDS = {"em_free": 1, "em_statedep": 1, "em_reflect": 1,
         "em_absorb_bridge": 1, "thinning": 1, "stable": 2}
GRIDS = ("chain1d", "diff2d_small", "diff2d_large")
# per-grid time metric -> (span name, self time instead of duration)
GRID_TIMES = {
    "generator_core.discretize_s": ("generator_core.discretize", False),
    "state_space.indicator_matrix_s":
        ("state_space.duality_indicator_matrix", False),
    "matrix_lab.semigroup_s": ("matrix_lab.semigroup", False),
    "matrix_lab.conjugation_self_s":
        ("matrix_lab.dual_semigroup_via_F", True),
    "matrix_lab.forward_F_s": ("matrix_lab.forward_F_matrix", True),
    "matrix_lab.inverse_F_s": ("matrix_lab.inverse_F_matrix", True),
    "matrix_lab.residual_s": ("matrix_lab.duality_residual", False),
    "matrix_lab.stochasticity_s":
        ("matrix_lab.dual_stochasticity_check", False),
}
GRID_COUNTS = {"matrix_lab.semigroup_calls": "matrix_lab.semigroup",
               "matrix_lab.expm_calls": "matrix_lab.expm"}
# whole-round self times: metric -> span name
ROUND_SELF = {
    "monte_carlo.estimate_self_s": "monte_carlo.estimate_duality",
    "dual_builder.closed_form_s": "dual_builder.closed_form",
    "order_transform.kernel_eval_s": "order_transform.kernel_eval",
    "scenario.load_s": "scenario.load_scenario",
    "scenario.run_self_s": "scenario.run_scenario",
    "cli.self_s": "cli.main",
}


def per_layer_units() -> dict:
    """Every per-layer metric of the traced run, with its unit."""
    units = {}
    for kind in KINDS:
        units[f"monte_carlo.ns_per_path_step.{kind}"] = "ns"
    units["monte_carlo.rng_floor_ns_per_draw"] = "ns"
    for kind in KINDS:
        units[f"monte_carlo.floor_ratio.{kind}"] = "ratio"
    units["monte_carlo.thread_speedup"] = "ratio"
    units["monte_carlo.path_steps"] = "count"
    units["monte_carlo.absorbed_fraction"] = "fraction"
    units["path_steps_per_s"] = "1/s"
    units["mc_s_to_se_1e-3"] = "s"
    units["expressions.coef_ns_per_point"] = "ns"
    units["expressions.scalar_call_us"] = "us"
    for g in GRIDS:
        units[f"generator_core.discretize_s.{g}"] = "s"
        units[f"generator_core.discretize_us_per_state.{g}"] = "us"
        units[f"state_space.indicator_temp_bytes.{g}"] = "B"
        for name in GRID_TIMES:
            if name != "generator_core.discretize_s":
                units[f"{name}.{g}"] = "s"
        for name in GRID_COUNTS:
            units[f"{name}.{g}"] = "count"
    for name in ROUND_SELF:
        units[name] = "s"
    units["trace.wall_s"] = "s"
    units["trace.unaccounted_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# set-up time, in fresh interpreters

SETUP_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
from dualgen import cli, scenario
for path in sys.argv[2:]:
    scenario.load_scenario(path)
"""


def measure_setup(ops, repeats: int) -> float:
    """Median wall time of a fresh interpreter that imports dualgen (with
    numpy, scipy and jsonschema) and loads and validates the scenarios."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC),
                        *(str(op.path) for op in ops)],
                       check=True, timeout=150, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# rounds

@dataclass
class Round:
    wall: float = 0.0
    mc_wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    ses: list = field(default_factory=list)
    spans: list = field(default_factory=list)


def run_round(ops, dualgen, tracer=None, recompute=False) -> Round:
    rnd = Round()
    results = []
    for op in ops:
        if tracer is not None:
            tracer.context = {"grid": op.grid_label, "em_kind": op.em_kind}
        t0 = time.perf_counter()
        try:
            result = workloads.run(op, dualgen)
            ok = not workloads.failed(op, result)
        except Exception:                # an operation that fails is counted
            traceback.print_exc()
            result, ok = None, False
        elapsed = time.perf_counter() - t0
        rnd.wall += elapsed
        if op.track == "mc":
            rnd.mc_wall += elapsed
        rnd.attempted += 1
        rnd.failed += not ok
        results.append((op, result, ok))
    if tracer is not None:
        rnd.spans = tracer.take()
    for op, result, ok in results:
        if not ok:
            continue
        try:
            se = workloads.check(op, result, dualgen if recompute else None)
        except workloads.CheckFailure as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            rnd.incorrect += 1
            continue
        if op.track == "mc":
            rnd.ses.append(se)
    if tracer is not None:
        tracer.take()                    # spans of the checks are not kept
    return rnd


def run_rounds(ops, dualgen, seconds: float, tracer=None) -> list:
    """Whole rounds until the next one would end after `seconds`."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(ops, dualgen, tracer,
                                recompute=not rounds))
        if time.perf_counter() - start + rounds[-1].wall > seconds:
            return rounds


# ---------------------------------------------------------------------------
# metrics

def mc_figures(ops, rnd: Round, mc_wall: float) -> dict:
    path_steps = sum(op.path_steps for op in ops if op.track == "mc")
    if not path_steps or not rnd.ses:
        return {"path_steps_per_s": 0.0, "mc_s_to_se_1e-3": 0.0}
    rms_se = math.sqrt(sum(se * se for se in rnd.ses) / len(rnd.ses))
    return {"path_steps_per_s": path_steps / mc_wall,
            "mc_s_to_se_1e-3": mc_wall * (rms_se / 1e-3) ** 2}


def end_to_end(ops, rounds, setup_s: float) -> dict:
    out = {"setup_s": setup_s,
           "wall_s": statistics.median(r.wall for r in rounds),
           "peak_rss_mb":
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    out.update(mc_figures(ops, rounds[0],
                          statistics.median(r.mc_wall for r in rounds)))
    return out


def layer_metrics(ops, rnd: Round) -> dict:
    """Per-layer figures of one traced round."""
    by_name = defaultdict(list)
    for s in rnd.spans:
        by_name[s.name].append(s)
    m = {}
    sims = by_name["monte_carlo.simulate_paths"]
    for kind in KINDS:
        spans = [s for s in sims if s.attrs["kind"] == kind]
        steps = sum(s.attrs["path_steps"] for s in spans)
        m[f"monte_carlo.ns_per_path_step.{kind}"] = \
            1e9 * sum(s.duration for s in spans) / steps if steps else 0.0
    m["monte_carlo.path_steps"] = sum(s.attrs["path_steps"] for s in sims)
    expected = sum(op.path_steps for op in ops if op.track == "mc")
    if m["monte_carlo.path_steps"] != expected:
        raise RuntimeError(f"traced {m['monte_carlo.path_steps']} path-steps,"
                           f" the scenarios ask for {expected}")
    absorbed = [s for s in sims if "absorbed" in s.attrs]
    paths = sum(s.attrs["paths"] for s in absorbed)
    m["monte_carlo.absorbed_fraction"] = \
        sum(s.attrs["absorbed"] for s in absorbed) / paths if paths else 0.0
    m.update(mc_figures(ops, rnd, rnd.mc_wall))

    for name, span_name in ROUND_SELF.items():
        m[name] = sum(s.self_time for s in by_name[span_name])
    states = {op.grid_label: (op.states, op.dim) for op in ops
              if op.grid_label}
    for g in GRIDS:
        n, d = states.get(g, (0, 0))
        for name, (span_name, own) in GRID_TIMES.items():
            spans = [s for s in by_name[span_name] if s.context["grid"] == g]
            m[f"{name}.{g}"] = sum(s.self_time if own else s.duration
                                   for s in spans)
        for name, span_name in GRID_COUNTS.items():
            m[f"{name}.{g}"] = sum(1 for s in by_name[span_name]
                                   if s.context["grid"] == g)
        m[f"generator_core.discretize_us_per_state.{g}"] = \
            1e6 * m[f"generator_core.discretize_s.{g}"] / n if n else 0.0
        m[f"state_space.indicator_temp_bytes.{g}"] = n * n * d * 8
    m["trace.wall_s"] = rnd.wall
    m["trace.unaccounted_s"] = rnd.wall - sum(
        s.duration for s in rnd.spans if s.parent is None)
    return m


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def rng_floor_ns(dualgen, op) -> float:
    """Philox standard normals drawn as the simulator draws them for op's
    first side: per block, one (m, dim) array per step."""
    pc = op.doc["path_config"]
    n, bs = pc["n_paths"], dualgen.monte_carlo.BLOCK_SIZE
    steps = int(round(op.doc["probes"][0]["t"] / pc["dt"]))

    def draw():
        for b in range((n + bs - 1) // bs):
            m = min(bs, n - b * bs)
            ss = np.random.SeedSequence(entropy=(pc["seed"], 0, b))
            rng = np.random.Generator(np.random.Philox(ss))
            for _ in range(steps):
                rng.standard_normal((m, op.dim))
    return 1e9 * _median_time(draw, 3) / (n * steps * op.dim)


def thread_speedup(dualgen, op) -> float:
    """Time with DUALGEN_THREADS=1 over time at the default thread count."""
    single, default = [], []
    for _ in range(2):
        os.environ["DUALGEN_THREADS"] = "1"
        try:
            single.append(_median_time(lambda: workloads.run(op, dualgen), 1))
        finally:
            os.environ.pop("DUALGEN_THREADS")
        default.append(_median_time(lambda: workloads.run(op, dualgen), 1))
    return statistics.median(single) / statistics.median(default)


def expression_costs(dualgen, ops) -> dict:
    """A compiled scenario coefficient on a BLOCK_SIZE array and on one
    state, as the simulator and discretize call it."""
    op = next(op for op in ops if "diffusion" in op.doc["process"])
    coef = dualgen.scenario.load_scenario(op.path).process.diffusion_diag[0]
    bs = dualgen.monte_carlo.BLOCK_SIZE
    xs = np.linspace(-1.0, 1.0, bs)
    vector = _median_time(lambda: coef(xs), 51)

    def scalars():
        for _ in range(1000):
            coef(0.3)
    return {"expressions.coef_ns_per_point": 1e9 * vector / bs,
            "expressions.scalar_call_us": 1e6 * _median_time(scalars, 5)
            / 1000}


def traced_metrics(dualgen, ops, seconds):
    tracer = Tracer()
    tracer.install(dualgen)
    try:
        rounds = run_rounds(ops, dualgen, seconds, tracer)
    finally:
        tracer.uninstall()
    per_round = [layer_metrics(ops, r) for r in rounds]
    m = {k: statistics.median(pr[k] for pr in per_round)
         for k in per_round[0]}
    mc_ops = [op for op in ops if op.track == "mc" and op.name != "thinning"]
    floor = rng_floor_ns(dualgen, mc_ops[0]) if mc_ops else 0.0
    m["monte_carlo.rng_floor_ns_per_draw"] = floor
    for kind, dim in KINDS.items():
        ns = m[f"monte_carlo.ns_per_path_step.{kind}"]
        m[f"monte_carlo.floor_ratio.{kind}"] = \
            ns / (dim * floor) if floor and ns else 0.0
    m["monte_carlo.thread_speedup"] = \
        thread_speedup(dualgen, mc_ops[0]) if mc_ops else 0.0
    m.update(expression_costs(dualgen, ops))
    return rounds, m


# ---------------------------------------------------------------------------

def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  scale: str = "full") -> dict:
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        ops = workloads.build(workload, seed, scale, work)
        setup_s = measure_setup(ops, workloads.SCALES[scale]["setup_repeats"])
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import dualgen.cli           # noqa: F401  (imports the subpackages)
        dualgen = sys.modules["dualgen"]
        if trace:
            rounds, metrics = traced_metrics(dualgen, ops, seconds)
            units = per_layer_units()
        else:
            rounds = run_rounds(ops, dualgen, seconds)
            metrics = end_to_end(ops, rounds, setup_s)
            units = dict(END_TO_END)
            if any(op.track == "mc" for op in ops):
                # printed in the summary only: they do not exist on
                # matrix-verify, so they are not end-to-end metrics of
                # BENCHMARK.json (the traced run reports them per layer)
                units.update({"path_steps_per_s": "1/s",
                              "mc_s_to_se_1e-3": "s"})
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()                 # only if no other run is using it
    return {
        "correct": all(r.incorrect == 0 for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "rounds": len(rounds),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dualgen" / "__init__.py").is_file():
        print(f"error: no dualgen package under {SRC}", file=sys.stderr)
        return 2
    # the program's default thread count is what gets measured
    os.environ.pop("DUALGEN_THREADS", None)

    res = run_benchmark(args.workload, args.seed % 2 ** 32, args.seconds,
                        bool(args.trace))
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={res['rounds']} attempted={res['attempted']} "
          f"failed={res['failed']} correct={res['correct']}")
    for name, m in res["metrics"].items():
        print(f"  {name:<52} {m['value']:>16.6g} {m['unit']}")
    shown = END_TO_END if not args.trace else per_layer_units()
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: res["metrics"][k] for k in shown}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
