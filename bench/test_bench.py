"""Self-test of the benchmark at tiny sizes: python3 -m pytest bench

Runs every workload's operations and checks once, untraced and traced,
and asserts that the metric names agree with BENCHMARK.json.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_harness():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == run.per_layer_units()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_and_checks(workload, trace):
    res = run.run_benchmark(workload, seed=3, seconds=0, trace=trace,
                            scale="tiny")
    n_ops = len(workloads._BUILDERS[workload](3, workloads.SCALES["tiny"]))
    assert (res["correct"], res["attempted"], res["failed"]) \
        == (True, n_ops, 0)
    metrics = res["metrics"]
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert set(names) <= set(metrics)
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    if not trace:
        assert all(metrics[k]["value"] > 0 for k in names)
    else:
        assert metrics["trace.unaccounted_s"]["value"] \
            < 0.05 * metrics["trace.wall_s"]["value"]
    import dualgen.cli
    assert not hasattr(dualgen.cli.main, "__wrapped__")


def test_checks_reject_wrong_outputs(tmp_path):
    ops = workloads.build("mc-free-space", 3, "tiny", tmp_path)
    thin = next(op for op in ops if op.name == "thinning")
    n = thin.doc["path_config"]["n_paths"]
    with pytest.raises(workloads.CheckFailure):
        workloads.check(thin, np.full((n, 1), 2.0))

    (mat,) = [op for op in workloads.build("matrix-verify", 3, "tiny",
                                           tmp_path) if op.name == "chain1d"]
    mat.out_dir.mkdir(parents=True)
    rows = [{"t": p["t"], "residual": 1e-3, "stochastic": True}
            for p in mat.doc["probes"]]
    (mat.out_dir / "report.json").write_text(json.dumps({
        "pass": True, "tolerances": {"residual_max": 1e-9},
        "results": {"per_time": rows, "stochasticity": {"pass": True}}}))
    with pytest.raises(workloads.CheckFailure):
        workloads.check(mat, 0)


def test_without_the_program_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "mc-half-line", "--seed", "1",
                     "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
