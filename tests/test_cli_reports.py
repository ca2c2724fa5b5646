import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from dualgen import matrix_lab, scenario
from dualgen.cli import main
from dualgen.dual_builder import SiegmundDualJumpKernel1D, closed_form_dual
from dualgen.errors import (
    CFLWarning,
    ExpressionParseError,
    NotSeparable,
    SchemaError,
)
from dualgen.generator_core import discretize
from dualgen.matrix_lab import action_mismatch, dual_generator_via_F
from dualgen.scenario import emit_plot_data, load_scenario, run_scenario
from dualgen.state_space import Cone, build_grid

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _env():
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC, os.environ.get("PYTHONPATH", "")])}


def _bm_mc(**over):
    doc = {
        "name": "bm-self-dual", "mode": "mc",
        "process": {"dim": 1, "diffusion": ["0.5"], "diffusion_deriv": ["0"]},
        "probes": [{"x": [1.0], "y": [0.0], "t": 1.0}],
        "path_config": {"n_paths": 20000, "dt": 0.01, "seed": 7},
    }
    doc.update(over)
    return doc


def _walk_verify():
    return {
        "name": "walk-verify", "mode": "verify-matrix",
        "process": {"dim": 1,
                    "jumps": [{"displacement": [1.0], "rate": 1.5},
                              {"displacement": [-1.0], "rate": 1.0}]},
        "grid": {"lower": [0.0], "upper": [8.0], "spacing": [1.0]},
        "cone": {"type": "pareto"},
        "probes": [{"x": [2.0], "y": [3.0], "t": 0.7}],
    }


def test_round_trip_load_of_the_data():
    s = load_scenario(_bm_mc())
    assert load_scenario(s.data) == s


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 10 ** 6), st.integers(1, 100), st.integers(10, 200))
def test_round_trip_random_parameters(seed, npaths_k, steps):
    doc = _bm_mc()
    doc["path_config"] = {"n_paths": 1000 * npaths_k, "dt": 0.01, "seed": seed}
    # an mc probe time is a whole number of dt steps, t in [0.1, 2]
    doc["probes"][0]["t"] = steps * 0.01
    s = load_scenario(doc)
    assert load_scenario(s.data) == s


def test_unknown_field_rejected_with_pointer():
    doc = _bm_mc()
    doc["process"]["driift"] = ["0"]
    with pytest.raises(SchemaError) as ei:
        load_scenario(doc)
    assert "/process" in str(ei.value)


def test_probe_outside_box_names_probe():
    doc = _walk_verify()
    doc["probes"].append({"x": [99.0], "y": [0.0], "t": 1.0})
    with pytest.raises(SchemaError) as ei:
        load_scenario(doc)
    assert "probe 1" in str(ei.value)


def test_dangling_expression_raises_parse_error():
    doc = _bm_mc()
    doc["process"]["drift"] = ["x1 -"]
    with pytest.raises(ExpressionParseError):
        load_scenario(doc)


def test_missing_mode_requirements():
    doc = _walk_verify()
    del doc["grid"]
    with pytest.raises(SchemaError):
        load_scenario(doc)
    doc = _bm_mc()
    del doc["path_config"]
    with pytest.raises(SchemaError):
        load_scenario(doc)


def test_verify_matrix_report_contents(tmp_path):
    rep = run_scenario(load_scenario(_walk_verify()), out_dir=str(tmp_path))
    assert rep["pass"]
    assert rep["results"]["residual"] <= rep["tolerances"]["residual_max"]
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk == json.loads(json.dumps(rep))
    csv = (tmp_path / "report.csv").read_text().splitlines()
    assert csv[0] == "t,residual,stochastic"
    assert len(csv) == 2


def test_verify_matrix_builds_one_survival_transform(tmp_path, monkeypatch):
    # light cone: the operator holds a dense F and its Moebius inverse
    doc = {
        "name": "lightcone-verify", "mode": "verify-matrix",
        "process": {"dim": 2, "drift": ["-0.3*x1", "0.2 - 0.3*x2"],
                    "diffusion": ["0.5", "0.4"]},
        "grid": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0],
                 "spacing": [0.25, 0.25], "boundary_policy": "reflect"},
        "cone": {"type": "lightcone"},
        "probes": [{"x": [0.0, 0.0], "y": [0.0, 0.0], "t": t}
                   for t in (0.2, 0.5, 1.0)],
    }
    built = []
    init = matrix_lab.SurvivalTransform.__init__

    def counting_init(self, grid, cone):
        built.append(cone)
        init(self, grid, cone)

    monkeypatch.setattr(matrix_lab.SurvivalTransform, "__init__",
                        counting_init)
    run_scenario(load_scenario(doc), out_dir=str(tmp_path / "shared"))
    assert len(built) == 1

    # the earlier call pattern: a fresh operator for every probe time
    def fresh_operator(T, op):
        return matrix_lab.dual_semigroup_via_F(
            T, matrix_lab.SurvivalTransform(op.grid, built[0]))

    monkeypatch.setattr(scenario, "dual_semigroup_via_F", fresh_operator)
    run_scenario(load_scenario(doc), out_dir=str(tmp_path / "fresh"))
    assert len(built) == 1 + 1 + 3
    for name in ("report.json", "report.csv"):
        assert (tmp_path / "shared" / name).read_bytes() == \
            (tmp_path / "fresh" / name).read_bytes()


def test_verify_matrix_makes_one_semigroup_call(tmp_path, monkeypatch):
    # the benchmark's chain1d at its tiny scale: drift, diffusion and two
    # jumps on a reflecting 41-state chain, probed at 0.25, 0.5 and 1
    doc = {
        "name": "chain1d-verify", "mode": "verify-matrix",
        "process": {"dim": 1, "drift": ["-0.2*x1"],
                    "diffusion": ["0.5 + 0.1*cos(x1)"],
                    "jumps": [{"displacement": [0.5], "rate": 0.6},
                              {"displacement": [-0.5], "rate": 0.4}]},
        "grid": {"lower": [-2.0], "upper": [2.0], "spacing": [0.1],
                 "boundary_policy": "reflect"},
        "cone": {"type": "pareto"},
        "probes": [{"x": [0.0], "y": [0.0], "t": t}
                   for t in (0.25, 0.5, 1.0)],
    }
    semigroup, expm = matrix_lab.semigroup, matrix_lab.expm
    calls = {"semigroup": 0, "expm": 0}

    def counting_semigroup(q, t):
        calls["semigroup"] += 1
        return semigroup(q, t)

    def counting_expm(A):
        calls["expm"] += 1
        return expm(A)

    monkeypatch.setattr(scenario, "semigroup", counting_semigroup)
    monkeypatch.setattr(matrix_lab, "expm", counting_expm)
    rep = run_scenario(load_scenario(doc), out_dir=str(tmp_path / "chained"))
    assert calls == {"semigroup": 1, "expm": 1}
    assert [r["t"] for r in rep["results"]["per_time"]] == [0.25, 0.5, 1.0]

    # the earlier call pattern: one semigroup call, and one expm, per time
    monkeypatch.setattr(scenario, "semigroup",
                        lambda q, ts: tuple(semigroup(q, t) for t in ts))
    run_scenario(load_scenario(doc), out_dir=str(tmp_path / "per_time"))
    assert calls["expm"] == 1 + 3
    for name in ("report.json", "report.csv"):
        assert (tmp_path / "chained" / name).read_bytes() == \
            (tmp_path / "per_time" / name).read_bytes()


def test_mc_report_and_plot_data(tmp_path):
    rep = run_scenario(load_scenario(_bm_mc()), out_dir=str(tmp_path))
    assert rep["pass"]
    probe = rep["results"]["probes"][0]
    assert abs(probe["z_score"]) <= 3.5
    out = tmp_path / "plot.csv"
    emit_plot_data(rep, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "scenario,probe_id,side,value,se"
    assert len(lines) == 3                      # lhs + rhs per probe
    assert lines[1].startswith("bm-self-dual,0,lhs,")


def test_plot_data_header_only_without_probes(tmp_path):
    out = tmp_path / "plot.csv"
    emit_plot_data({"scenario": "x", "results": {}}, out)
    assert out.read_text() == "scenario,probe_id,side,value,se\n"


def _write(tmp_path, doc):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_cli_exit_zero_on_pass(tmp_path, capsys):
    path = _write(tmp_path, _bm_mc())
    code = main(["mc", path, "--out", str(tmp_path / "out")])
    assert code == 0
    assert "bm-self-dual [mc]: pass" in capsys.readouterr().out
    assert (tmp_path / "out" / "report.json").exists()


def test_cli_exit_two_on_a_half_line_without_a_boundary(tmp_path, capsys):
    # before, the dual was absorbed at 0 while the forward paths ran on
    # the whole line (42% of them below 0 at t = 1 from 0.2)
    doc = {
        "name": "half-line-no-boundary", "mode": "mc",
        "process": {"dim": 1, "diffusion": ["0.5"], "diffusion_deriv": ["0"],
                    "domain": "half_line"},
        "probes": [{"x": [1.0], "y": [0.5], "t": 1.0}],
        "path_config": {"n_paths": 400, "dt": 0.01, "seed": 3},
    }
    code = main(["mc", _write(tmp_path, doc), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "reflect or absorb" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_cli_absorbed_side_started_on_the_boundary_stays_there(tmp_path):
    # reflected BM and its dual, BM absorbed at 0: Y started at 0 is
    # absorbed at t = 0, so x - Y_t >= 0 on every path, as X_t - y >= 0
    doc = {
        "name": "half-line-boundary", "mode": "mc",
        "process": {"dim": 1, "diffusion": ["0.5"], "diffusion_deriv": ["0"],
                    "domain": "half_line", "boundary": "reflect"},
        "probes": [{"x": [1.0], "y": [0.0], "t": 1.0},
                   {"x": [0.0], "y": [0.0], "t": 1.0}],
        "path_config": {"n_paths": 20000, "dt": 0.01, "seed": 7,
                        "bridge_correction": True},
    }
    code = main(["mc", _write(tmp_path, doc), "--out", str(tmp_path / "out")])
    assert code == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    for probe in rep["results"]["probes"]:
        assert probe["lhs_mean"] == probe["rhs_mean"] == 1.0
        assert probe["rhs_se"] == 0.0


def test_cli_exit_one_on_failed_tolerance(tmp_path, capsys):
    # wrong declared derivative of the diffusion coefficient: the
    # constructed dual picks up a spurious drift, so the two sides of the
    # duality pairing disagree far beyond the z tolerance
    doc = _bm_mc(name="bm-wrong-deriv")
    doc["process"]["diffusion_deriv"] = ["1"]
    code = main(["mc", _write(tmp_path, doc), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert not rep["pass"]
    assert abs(rep["results"]["probes"][0]["z_score"]) > 3.5


def test_cli_exit_two_on_bad_scenario(tmp_path, capsys):
    doc = _bm_mc()
    doc["process"]["diffusion"] = ["0.5 +"]
    code = main(["mc", _write(tmp_path, doc)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert main(["mc", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("field, value, pointer", [
    # a probe at t = 0, which the schema allows, raised a ValueError
    ("probe_t", 0.0, "/probes/0"),
    # a t_end, which the format no longer has: each probe's t sets it
    ("t_end", 0.005, "/path_config"),
    # three steps of 0.3 simulated t = 0.9 for the reported t = 1, exit 0
    ("dt", 0.3, "/probes/0"),
])
def test_cli_exit_two_on_a_probe_time_off_the_step_grid(tmp_path, capsys,
                                                        field, value,
                                                        pointer):
    doc = _bm_mc()
    if field == "probe_t":
        doc["probes"][0]["t"] = value
    else:
        doc["path_config"][field] = value
    assert main(["mc", _write(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"(at {pointer})" in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_cli_exit_two_on_a_displacement_of_the_wrong_length(tmp_path, capsys):
    # a 1-entry displacement in 2-D: one construction check refuses it
    doc = _diffusion_2d("dual")
    doc["process"]["jumps"] = [{"displacement": [1.0], "rate": 1.0}]
    assert main(["dual", _write(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 2
    assert "not a vector of length 2" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_cli_overrides(tmp_path):
    path = _write(tmp_path, _bm_mc())
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    main(["mc", path, "--out", out1, "--seed", "123", "--paths", "4000"])
    main(["mc", path, "--out", out2, "--seed", "123", "--paths", "4000"])
    rep1 = json.loads((tmp_path / "a" / "report.json").read_text())
    rep2 = json.loads((tmp_path / "b" / "report.json").read_text())
    assert rep1 == rep2
    assert rep1["results"]["probes"][0]["n_paths"] == 4000
    # a different seed changes the estimate
    main(["mc", path, "--out", out1, "--seed", "124", "--paths", "4000"])
    rep3 = json.loads((tmp_path / "a" / "report.json").read_text())
    assert rep3["results"]["probes"][0]["lhs_mean"] != \
        rep1["results"]["probes"][0]["lhs_mean"]


def test_cli_tol_override_forces_failure(tmp_path):
    path = _write(tmp_path, _walk_verify())
    assert main(["verify-matrix", path, "--out", str(tmp_path / "o1")]) == 0
    assert main(["verify-matrix", path, "--out", str(tmp_path / "o2"),
                 "--tol", "1e-18"]) == 1


def test_self_dual_mode(tmp_path):
    doc = {
        "name": "self-dual-bm", "mode": "self-dual-check",
        "process": {"dim": 1, "diffusion": ["0.5"], "diffusion_deriv": ["0"]},
    }
    rep = run_scenario(load_scenario(doc), out_dir=str(tmp_path))
    assert rep["pass"] and rep["results"]["self_dual"]
    csv = (tmp_path / "report.csv").read_text().splitlines()
    assert csv == ["key,value", "self_dual,true"]


@pytest.mark.parametrize("process, code, witness", [
    # axis 1 was never read, and the check passed
    ({"dim": 2, "drift": ["0", "1"], "diffusion": ["0.5", "0.5"],
      "diffusion_deriv": ["0", "0"]},
     1, ["drift_condition", [-3.0, -3.0], 1.0]),
    # the missing a' was read as 0 and the check failed; dual exits 2
    ({"dim": 1, "drift": ["x1"], "diffusion": ["1 + x1*x1"]}, 2, None),
    # its dual is absorbed at 0, and the check passed
    ({"dim": 1, "diffusion": ["0.5"], "diffusion_deriv": ["0"],
      "domain": "half_line", "boundary": "reflect"},
     1, ["boundary_condition", "reflect", "absorb"]),
], ids=["2d-drift-on-axis-1", "no-derivative", "reflected-half-line"])
def test_self_dual_check_reads_the_dual_that_dual_builds(tmp_path, capsys,
                                                         process, code,
                                                         witness):
    path = _write(tmp_path, {"name": "sd", "mode": "self-dual-check",
                             "process": process})
    out = tmp_path / "out"
    assert main(["self-dual-check", path, "--out", str(out)]) == code
    if witness is None:
        assert "a'_jj callables are required" in capsys.readouterr().err
        assert main(["dual", path, "--out", str(out)]) == 2
        assert not (out / "report.json").exists()
    else:
        rep = json.loads((out / "report.json").read_text())
        assert rep["results"] == {"self_dual": False, "witness": witness}


@pytest.mark.parametrize("up, down, code, witness", [
    # the symmetric walk is self-dual; the check exited 1 on it
    (1.0, 1.0, 0, None),
    (1.2, 0.8, 1, ["jump_condition", 1.0, 0.3999999999999999]),
    # a rate given as an expression is not compared: exit 2, no report
    ("1", 1.0, 2, None),
], ids=["symmetric", "drifting", "expression-rate"])
def test_self_dual_check_on_a_jump_walk(tmp_path, capsys, up, down, code,
                                        witness):
    path = _write(tmp_path, {"name": "walk", "mode": "self-dual-check",
                             "process": {"dim": 1, "jumps": [
                                 {"displacement": [1.0], "rate": up},
                                 {"displacement": [-1.0], "rate": down}]}})
    out = tmp_path / "out"
    assert main(["self-dual-check", path, "--out", str(out)]) == code
    if code == 2:
        assert "not a move of one axis at a numeric rate" in \
            capsys.readouterr().err
        assert not (out / "report.json").exists()
    else:
        rep = json.loads((out / "report.json").read_text())
        assert rep["results"] == {"self_dual": code == 0, "witness": witness}


def test_self_dual_check_on_a_walk_with_a_zero_channel(tmp_path):
    # a channel of zero displacement is no move; the check exited 2 on it
    # where dual reported admissible
    path = _write(tmp_path, {"name": "lazy-walk", "mode": "self-dual-check",
                             "process": {"dim": 1, "jumps": [
                                 {"displacement": [d], "rate": 1.0}
                                 for d in (1.0, -1.0, 0.0)]}})
    out = tmp_path / "out"
    assert main(["self-dual-check", path, "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"] == {"self_dual": True, "witness": None}


def test_dual_mode_reports_probe_values(tmp_path):
    doc = {
        "name": "ou-dual", "mode": "dual",
        "process": {"dim": 1, "diffusion": ["1"], "diffusion_deriv": ["0"],
                    "drift": ["0 - x1"]},
        "probes": [{"x": [1.0], "y": [0.0], "t": 1.0}],
    }
    rep = run_scenario(load_scenario(doc), out_dir=str(tmp_path))
    assert rep["pass"]
    row = rep["results"]["dual_at_probes"][0]
    # dual drift = a' - b = 0 - (-x) = x
    assert row["dual_drift"][0] == pytest.approx(1.0)
    assert row["dual_diffusion_diag"][0] == pytest.approx(1.0)


def _diffusion_2d(mode):
    return {
        "name": "diffusion-2d", "mode": mode,
        "process": {"dim": 2, "drift": ["-0.3*x1", "0.2 - 0.3*x2"],
                    "diffusion": ["0.5", "0.4 + 0.1*tanh(x2)"],
                    "diffusion_deriv": ["0", "0.1 - 0.1*tanh(x2)*tanh(x2)"]},
        "probes": [{"x": [0.5, 0.0], "y": [0.0, 0.5], "t": 0.5}],
        "path_config": {"n_paths": 4000, "dt": 0.01, "seed": 11},
    }


def _lightcone_diffusion(mode, cone):
    # under the Pareto order the dual drift is (0.4, 0) at the origin; the
    # light cone's dual is another process
    return {
        "name": "cone-diffusion", "mode": mode,
        "process": {"dim": 2, "diffusion": ["0.5 + 0.4*sin(x1)", "0.5"],
                    "diffusion_deriv": ["0.4*cos(x1)", "0"]},
        "cone": cone,
        "probes": [{"x": [0.0, 0.0], "y": [0.5, 0.5], "t": 0.2}],
        "path_config": {"n_paths": 400, "dt": 0.01, "seed": 5},
    }


@pytest.mark.parametrize("mode", ["dual", "mc", "self-dual-check"])
def test_cli_exit_two_on_a_cone_that_is_not_the_orthant(tmp_path, capsys,
                                                         monkeypatch, mode):
    # these modes build the Pareto dual: before, a light-cone scenario
    # passed with the Pareto drift.  Refused before a dual is built or a
    # path drawn
    def never(*args, **kwargs):
        raise AssertionError(f"{mode} built a dual or drew a path")

    for name in ("closed_form_dual", "check_self_dual", "estimate_duality"):
        monkeypatch.setattr(scenario, name, never)
    doc = _lightcone_diffusion(mode, {"type": "lightcone"})
    code = main([mode, _write(tmp_path, doc), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "cone is not R^d_+ (at /cone)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _main_in_a_temporary_directory(mode, doc):
    """(exit code, stderr) of the CLI on doc, written and run in a
    directory of its own: for a test that takes no fixtures, which
    tests/test_defects.py calls with a defect patched in.  A run that
    exits 2 must have written no report."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(err):
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        code = main([mode, str(path), "--out", str(Path(tmp) / "out")])
        assert code != 2 or not (Path(tmp) / "out" / "report.json").exists()
    return code, err.getvalue()


def test_cli_exit_two_on_mc_with_the_light_cone():
    # refused when the cone is loaded: the Pareto dual against the
    # light-cone indicator read z = -4.23 here and exited 1, a failed
    # duality where the fault is the dual built
    doc = _lightcone_diffusion("mc", {"type": "lightcone"})
    doc["probes"] = [{"x": [0.5, 0.5], "y": [0.0, 0.0], "t": 1.0}]
    doc["path_config"] = {"n_paths": 40000, "dt": 0.01, "seed": 5}
    code, err = _main_in_a_temporary_directory("mc", doc)
    assert code == 2
    assert "cone is not R^d_+ (at /cone)" in err


@pytest.mark.parametrize("lower, boundary, policy", [
    # once run as a whole-line chain, failing only through min_entry
    (-2.0, "reflect", "truncate_mass"),
    # once a pass for the reflected chain it ran
    (0.0, "absorb", "reflect"),
], ids=["reflected-from-minus-2", "absorbed-on-reflect-faces"])
def test_cli_exit_two_on_a_grid_that_contradicts_the_half_line(
        lower, boundary, policy):
    doc = {"name": "half-line-bm", "mode": "verify-matrix",
           "process": {"dim": 1, "diffusion": ["0.5"],
                       "diffusion_deriv": ["0"], "domain": "half_line",
                       "boundary": boundary},
           "grid": {"lower": [lower], "upper": [2.0], "spacing": [0.1],
                    "boundary_policy": policy},
           "probes": [{"x": [1.0], "y": [0.5], "t": 0.5}]}
    code, err = _main_in_a_temporary_directory("verify-matrix", doc)
    assert code == 2
    assert f"a half-line process {boundary}ed at 0 needs a grid" in err


@pytest.mark.parametrize("mode", ["dual", "self-dual-check"])
def test_cli_exit_two_on_a_kernel_in_a_mode_that_builds_the_pareto_dual(
        tmp_path, capsys, mode):
    # before, dual passed with the Pareto drift (0.4, 0) and
    # self-dual-check ran the Pareto check, whatever the kernel
    doc = _lightcone_diffusion(mode, {"type": "riesz", "alpha": 1.0})
    code = main([mode, _write(tmp_path, doc), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"{mode} mode needs a cone functional (at /cone)" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_validates_the_document_it_runs(tmp_path, capsys):
    # the file is loaded once, with the mode and the flags written in:
    # before, a file of mode mc with no path_config was refused when run
    # as dual ("mc mode needs path_config"), and the document checked was
    # not the one run
    doc = _lightcone_diffusion("mc", {"type": "pareto"})
    del doc["path_config"]
    assert main(["dual", _write(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 0
    assert "cone-diffusion [dual]: pass" in capsys.readouterr().out
    # a flag meets no object to write into: the schema names the place
    doc["path_config"] = [100]
    assert main(["mc", _write(tmp_path, doc), "--seed", "3"]) == 2
    assert "is not of type 'object' (at /path_config)" in \
        capsys.readouterr().err


def test_a_basis_that_generates_the_orthant_runs_as_pareto(tmp_path):
    # the cone is decided as a set: the orthant by its generators in
    # swapped order, or rescaled, is the Pareto order, and every report
    # is the Pareto scenario's to the byte; verify-matrix too, which
    # once took the dense Moebius path for them
    for mode in ("dual", "mc", "self-dual-check", "verify-matrix"):
        runs = []
        for i, cone in enumerate([
                {"type": "pareto"},
                {"type": "vectors", "vectors": [[0.0, 1.0], [1.0, 0.0]]},
                {"type": "vectors", "vectors": [[0.0, 0.5], [2.0, 0.0]]}]):
            out = tmp_path / mode / str(i)
            doc = _lightcone_diffusion(mode, cone)
            doc["grid"] = {"lower": [-1.0, -1.0], "upper": [1.0, 1.0],
                           "spacing": [0.25, 0.25],
                           "boundary_policy": "reflect"}
            code = main([mode, _write(tmp_path, doc), "--out", str(out)])
            runs.append((code, (out / "report.json").read_bytes(),
                         (out / "report.csv").read_bytes()))
        assert runs[0][0] in (0, 1)
        assert runs[1] == runs[0] and runs[2] == runs[0]


def test_cli_2d_dual_holds_the_jumps(tmp_path, capsys):
    # a 2-D dual used to refuse a jump part beside a drift and a
    # diffusion (exit 2); it now holds all three parts and matches
    # F Q' F^-1 by criterion 2's rule (action contraction under halving)
    doc = _diffusion_2d("dual")
    doc["process"]["jumps"] = [{"displacement": [1.0, 0.0], "rate": 1.0},
                               {"displacement": [0.0, -0.5], "rate": 0.5}]
    assert main(["dual", _write(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 0
    assert "diffusion-2d [dual]: pass" in capsys.readouterr().out
    spec = load_scenario(doc).process
    dual = closed_form_dual(spec).dual_spec
    assert [(axis, type(kern)) for axis, kern in dual.jump.components] == [
        (0, SiegmundDualJumpKernel1D), (1, SiegmundDualJumpKernel1D)]
    assert dual.drift_components is not None
    assert dual.diffusion_diag is spec.diffusion_diag

    def action(h):
        g = build_grid([-3.0, -3.0], [3.0, 3.0], [h, h])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CFLWarning)
            q = discretize(spec, g)
        qd = dual_generator_via_F(q, g, Cone.pareto(2))
        return action_mismatch(qd, discretize(dual, g))
    assert action(0.5) >= 1.7 * action(0.25)


def test_dual_mode_flags_a_negative_1d_diffusion(tmp_path):
    # the 1-D dual used to skip the PSD check and report a pass
    doc = {"name": "negative", "mode": "dual",
           "process": {"dim": 1, "diffusion": ["-1"],
                       "diffusion_deriv": ["0"]}}
    rep = run_scenario(load_scenario(doc), out_dir=str(tmp_path))
    assert rep["pass"] is False
    assert [v["condition"] for v in rep["results"]["violated_conditions"]] \
        == ["diffusion_psd"]
    assert "violated,diffusion_psd" in \
        (tmp_path / "report.csv").read_text().splitlines()


def test_cli_absorbed_forward_pairs_with_a_reflected_dual(tmp_path):
    # BM absorbed at 0 against its dual, BM reflected at 0: both sides
    # estimate P_x(X_t >= y, X not absorbed) = Phi(x - y) - Phi(-x - y)
    # at t = 1 (an absorbed dual read z = -41 here)
    doc = {
        "name": "absorbed-bm", "mode": "mc",
        "process": {"dim": 1, "diffusion": ["0.5"], "diffusion_deriv": ["0"],
                    "domain": "half_line", "boundary": "absorb"},
        "probes": [{"x": [1.0], "y": [0.5], "t": 1.0}],
        "path_config": {"n_paths": 40000, "dt": 0.01, "seed": 3,
                        "bridge_correction": True},
    }
    assert main(["mc", _write(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 0
    probe = json.loads((tmp_path / "out" / "report.json").read_text())[
        "results"]["probes"][0]
    exact = norm.cdf(0.5) - norm.cdf(-1.5)
    assert abs(probe["z_score"]) <= 3.5
    assert abs(probe["lhs_mean"] - exact) <= 0.01
    assert abs(probe["rhs_mean"] - exact) <= 0.01


def _tanh_walk(mode):
    # birth rate increasing, death rate decreasing: an admissible walk
    return {
        "name": "tanh-walk", "mode": mode,
        "process": {"dim": 1, "jumps": [
            {"displacement": [1.0], "rate": "1 + 0.5*tanh(x1)",
             "rate_deriv": "0.5 - 0.5*tanh(x1)*tanh(x1)"},
            {"displacement": [-1.0], "rate": "1 - 0.5*tanh(x1)",
             "rate_deriv": "0.5*tanh(x1)*tanh(x1) - 0.5"}]},
        "grid": {"lower": [-3.0], "upper": [3.0], "spacing": [1.0]},
        "cone": {"type": "pareto"},
        "probes": [{"x": [0.0], "y": [1.0], "t": 0.5}],
    }


def _gauss_jumps(mode):
    # x1 = source, x2 = target; too wide for the dual's probe box
    return {
        "name": "gauss-jumps", "mode": mode,
        "process": {"dim": 1, "jump_density": {
            "density": "0.5*exp(-(x2 - x1)*(x2 - x1))",
            "deriv": "(x2 - x1)*exp(-(x2 - x1)*(x2 - x1))"}},
        "grid": {"lower": [-2.0], "upper": [2.0], "spacing": [0.5]},
        "cone": {"type": "pareto"},
        "probes": [{"x": [0.0], "y": [0.5], "t": 0.5}],
    }


@pytest.mark.parametrize("doc", [
    _diffusion_2d("dual"), _diffusion_2d("mc"), _tanh_walk("dual"),
    _tanh_walk("verify-matrix"), _gauss_jumps("verify-matrix")],
    ids=lambda d: f"{d['name']}-{d['mode']}")
def test_scenario_kinds_pass(tmp_path, doc):
    # a 2-D closed-form dual, expression rates with their derivatives,
    # and a jump density given as an expression
    rep = run_scenario(load_scenario(doc), out_dir=str(tmp_path))
    assert rep["pass"]


def test_dual_report_lists_violated_conditions(tmp_path):
    rep = run_scenario(load_scenario(_gauss_jumps("dual")),
                       out_dir=str(tmp_path))
    assert not rep["pass"]
    violated = rep["results"]["violated_conditions"]
    assert [v["condition"] for v in violated] == [
        "tail_at_minus_inf", "tail_at_plus_inf"]
    # the jump density's mass beyond the probe box (-6, 6)
    assert violated[0]["where"] == [-6.0, -3.0]
    assert violated[0]["value"] == pytest.approx(9.9e-6, rel=0.01)
    assert violated[1]["where"] == [6.0, 2.25]
    assert violated[1]["value"] == pytest.approx(5.1e-8, rel=0.01)
    assert json.loads((tmp_path / "report.json").read_text()) == rep
    csv = (tmp_path / "report.csv").read_text().splitlines()
    assert csv == ["key,value", "admissible,false",
                   "violated,tail_at_minus_inf", "violated,tail_at_plus_inf"]


def _birth_death_mc(y, **pc):
    return {
        "name": "birth-death", "mode": "mc",
        "process": {"dim": 1,
                    "jumps": [{"displacement": [1.0], "rate": 1.2},
                              {"displacement": [-1.0], "rate": 0.8}]},
        "probes": [{"x": [0.0], "y": [y], "t": 1.0}],
        "path_config": {"n_paths": 1000, "dt": 0.01, "seed": 3, **pc},
    }


@pytest.mark.parametrize("y,pc", [
    # thinning simulates X, but Y's jump part is the Siegmund dual kernel
    (0.0, {"scheme": "euler_jump_thinning", "rate_bound": 2.0}),
    # Euler-Maruyama would drop the jumps and report lhs = rhs = 0
    (0.5, {}),
])
def test_cli_exit_two_on_jumps_the_scheme_cannot_simulate(tmp_path, capsys,
                                                          y, pc):
    path = _write(tmp_path, _birth_death_mc(y, **pc))
    assert main(["mc", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "out" / "report.json").exists()


def _walk_2d_mc(rate_bound):
    return {
        "name": "walk-2d", "mode": "mc",
        "process": {"dim": 2,
                    "jumps": [{"displacement": [1.0, 0.0], "rate": 1.2},
                              {"displacement": [-1.0, 0.0], "rate": 0.8},
                              {"displacement": [0.0, 1.0], "rate": 1.0}]},
        "cone": {"type": "log2d"},
        "probes": [{"x": [0.0, 0.0], "y": [1.0, 0.0], "t": 1.0}],
        "path_config": {"n_paths": 1000, "dt": 0.01, "seed": 3,
                        "scheme": "euler_jump_thinning",
                        "rate_bound": rate_bound},
    }


def test_cli_exit_two_on_a_rate_bound_below_the_start_rate():
    # the walk's summed rate is 3; a bound of 1e-6 drew no candidate
    # event, so the run reported a pass with lhs = rhs = 0 and z = 0
    code, err = _main_in_a_temporary_directory("mc", _walk_2d_mc(1e-6))
    assert code == 2
    assert err.startswith("error:") and "rate 3 exceeds bound 1e-06" in err


@pytest.mark.parametrize("edit, args", [
    # an OverflowError traceback with exit 1, the code of a failed check
    (lambda doc: doc["probes"][0].update(t=float("inf")), []),
    (lambda doc: doc["probes"][0].update(x=[float("nan"), 0.0]), []),
    # passed with no jump simulated
    (lambda doc: doc["path_config"].update(rate_bound=float("inf")), []),
    # each written into the report unchecked
    (None, ["--tol", "inf"]),
    (None, ["--tol", "nan"]),
], ids=["probe-t-infinity", "probe-x-nan", "rate-bound-infinity", "tol-inf",
        "tol-nan"])
def test_cli_exit_two_on_nan_or_infinity(tmp_path, capsys, edit, args):
    # a scenario is RFC 8259 JSON, which has no NaN or Infinity token
    doc = _walk_2d_mc(3.0)
    if edit is not None:
        edit(doc)
    code = main(["mc", _write(tmp_path, doc), "--out", str(tmp_path / "out"),
                 *args])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: not valid JSON")
    assert not (tmp_path / "out" / "report.json").exists()
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_scenario(doc if edit is not None
                      else {**doc, "tolerances": {"z_max": float(args[1])}})


def test_cli_exit_two_on_non_finite_paths(tmp_path, capsys):
    # log(x1) is NaN once a path goes negative
    doc = _bm_mc(process={"dim": 1, "drift": ["log(x1)"],
                          "diffusion": ["0.5"], "diffusion_deriv": ["0"]},
                 probes=[{"x": [0.05], "y": [0.0], "t": 1.0}],
                 path_config={"n_paths": 1000, "dt": 0.01, "seed": 7})
    path = _write(tmp_path, doc)
    with np.errstate(invalid="ignore"):
        assert main(["mc", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "NaN or inf" in err[0]


def test_cli_exit_two_on_verify_matrix_of_a_simulation_only_kernel(
        tmp_path, capsys):
    # a stable-like kernel has no generator rows on a grid; this used to
    # end in a NotImplementedError traceback and exit code 1
    doc = {
        "name": "stable-on-a-grid", "mode": "verify-matrix",
        "process": {"dim": 1, "stable": {"alpha": 1.5, "amplitude": "1"}},
        "grid": {"lower": [-1.0], "upper": [1.0], "spacing": [0.25],
                 "boundary_policy": "reflect"},
        "cone": {"type": "pareto"},
        "probes": [{"x": [0.0], "y": [0.0], "t": 0.5}],
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["verify-matrix", _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "StableLikeKernel jump part has no generator rows" in err[0]
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("mode,dim", [
    ("dual", 2), ("self-dual-check", 2), ("dual", 1), ("self-dual-check", 1)],
    ids=["dual", "self-dual-check", "dual-1d", "self-dual-check-1d"])
def test_cli_exit_two_on_the_closed_form_dual_of_a_2d_stable_kernel(
        tmp_path, capsys, mode, dim):
    # a stable-like jump part has no closed-form dual in any dimension;
    # in 1-D the two modes once failed with two other errors
    doc = {
        "name": f"stable-{dim}d", "mode": mode,
        "process": {"dim": dim, "stable": {"alpha": 1.5, "amplitude": "1"}},
        "output_dir": str(tmp_path / "out"),
    }
    assert main([mode, _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "StableLikeKernel" in err[0]
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "out" / "report.json").exists()
    with pytest.raises(NotSeparable, match=f"no closed-form dual of a "
                       f"{dim}-D StableLikeKernel"):
        run_scenario(load_scenario(doc))


def _verify_2d(cone):
    return {
        "name": "verify-2d", "mode": "verify-matrix",
        "process": {"dim": 2, "drift": ["-0.3*x1", "0.2 - 0.3*x2"],
                    "diffusion": ["0.5", "0.4"]},
        "grid": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0],
                 "spacing": [0.5, 0.5], "boundary_policy": "reflect"},
        "cone": cone,
        "probes": [{"x": [0.0, 0.0], "y": [0.0, 0.0], "t": 0.5}],
    }


def _stable_riesz_mc():
    return {
        "name": "stable-riesz", "mode": "mc",
        "process": {"dim": 2, "stable": {"alpha": 1.0,
                                         "amplitude": "1 + 0.5*sin(x1)"}},
        "cone": {"type": "riesz", "alpha": 1.0},
        "probes": [{"x": [1.0, 0.0], "y": [0.0, 0.0], "t": 0.5}],
        "path_config": {"n_paths": 2000, "dt": 0.01, "seed": 3,
                        "scheme": "stable_euler"},
    }


def test_import_does_not_load_scipy_stats():
    # scipy.stats takes about a second to import, and no run needs it
    code = "import sys, dualgen; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env=_env())
    assert out.stdout.strip() == "False"


def test_a_dual_run_does_not_load_scipy_stats(tmp_path):
    # probe_points draws its Halton points without scipy.stats, so the
    # admissibility checks of a dual run load none of it
    path = _write(tmp_path, {**_diffusion_2d("dual"),
                             "output_dir": str(tmp_path / "out")})
    code = ("import sys\n"
            "from dualgen import cli\n"
            "code = cli.main(['dual', sys.argv[1]])\n"
            "print(code, 'scipy.stats' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code, path],
                         capture_output=True, text=True, check=True,
                         timeout=120, env=_env())
    assert out.stdout.split("\n")[-2] == "0 False"


def test_mc_runs_do_not_load_scipy(tmp_path):
    # a half-line run and a stable run with its Riesz kernel, whose
    # constants take math.gamma
    half_line = {
        "name": "half-line", "mode": "mc",
        "process": {"dim": 1, "diffusion": ["0.5"], "diffusion_deriv": ["0"],
                    "domain": "half_line", "boundary": "reflect"},
        "probes": [{"x": [1.0], "y": [0.5], "t": 1.0}],
        "path_config": {"n_paths": 2000, "dt": 0.01, "seed": 3,
                        "bridge_correction": True},
    }
    paths = []
    for doc in (half_line, _stable_riesz_mc()):
        path = tmp_path / f"{doc['name']}.json"
        path.write_text(json.dumps({**doc, "output_dir":
                                    str(tmp_path / doc["name"])}))
        paths.append(str(path))
    code = ("import sys\n"
            "from dualgen import cli\n"
            "codes = [cli.main(['mc', p]) for p in sys.argv[1:]]\n"
            "print(codes, sorted(m for m in sys.modules\n"
            "                    if m == 'scipy' or m.startswith('scipy.')))\n")
    out = subprocess.run([sys.executable, "-c", code, *paths],
                         capture_output=True, text=True, check=True,
                         timeout=120, env=_env())
    assert out.stdout.splitlines()[-1] == "[0, 0] []"


def test_import_does_not_load_scipy_sparse_linalg():
    # only matrix_lab.semigroup's check needs it, and imports it on use
    code = "import sys, dualgen; print('scipy.sparse.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env=_env())
    assert out.stdout.strip() == "False"


def test_import_and_load_do_not_load_scipy():
    # scipy is imported on use: importing the package and loading a
    # scenario of each track loads none of it
    code = (
        "import json, sys, dualgen, dualgen.cli\n"
        "from dualgen.scenario import load_scenario\n"
        "for doc in json.loads(sys.argv[1]):\n"
        "    load_scenario(doc)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))\n")
    docs = json.dumps([_verify_2d({"type": "lightcone"}), _stable_riesz_mc()])
    out = subprocess.run([sys.executable, "-c", code, docs],
                         capture_output=True, text=True, check=True,
                         timeout=120, env=_env())
    assert out.stdout.strip() == "[]"


def _cold_verify_matrix_loads_scipy_linalg(tmp_path, cone) -> str:
    """'<exit code> <scipy.linalg loaded>' of a verify-matrix run in a
    fresh interpreter."""
    path = _write(tmp_path, {**_verify_2d(cone),
                             "output_dir": str(tmp_path / "out")})
    code = ("import sys\n"
            "from dualgen import cli\n"
            "code = cli.main(['verify-matrix', sys.argv[1]])\n"
            "print(code, 'scipy.linalg' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code, path],
                         capture_output=True, text=True, check=True,
                         timeout=120, env=_env())
    return out.stdout.splitlines()[-1]


def test_pareto_verify_matrix_does_not_load_scipy_linalg(tmp_path):
    # the exponential is matrix_lab's own Pade on numpy, and the Pareto F
    # is sums and differences: a verify-matrix run needs scipy.sparse only
    assert _cold_verify_matrix_loads_scipy_linalg(
        tmp_path, {"type": "pareto"}) == "0 False"


def test_a_permuted_orthant_verify_matrix_does_not_load_scipy_linalg(
        tmp_path):
    # any basis of R^d_+ takes the Pareto F: before, the swapped
    # generators took the dense Moebius path and its triangular solve
    assert _cold_verify_matrix_loads_scipy_linalg(
        tmp_path, {"type": "vectors",
                   "vectors": [[0.0, 1.0], [1.0, 0.0]]}) == "0 False"


def test_import_does_not_load_concurrent_futures():
    # monte_carlo imports its thread pool where a run of more than one
    # worker builds it
    code = ("import sys\n"
            "from dualgen import cli, scenario\n"
            "print('concurrent.futures' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120, env=_env())
    assert out.stdout.strip() == "False"


def test_import_and_load_do_not_load_jsonschema():
    # scenarios are validated by scenario._schema_errors: importing the
    # package and the CLI and loading a scenario of each track (the dual
    # construction, the matrix check, Monte Carlo) loads no jsonschema
    code = (
        "import json, sys, dualgen, dualgen.cli\n"
        "from dualgen.scenario import load_scenario\n"
        "for doc in json.loads(sys.argv[1]):\n"
        "    load_scenario(doc)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'jsonschema'))\n")
    docs = json.dumps([_diffusion_2d("dual"), _verify_2d({"type": "pareto"}),
                       _stable_riesz_mc()])
    out = subprocess.run([sys.executable, "-c", code, docs],
                         capture_output=True, text=True, check=True,
                         timeout=120, env=_env())
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("mode,doc", [
    # the negative orthant, the reverse of the Pareto order: not R^d_+, so
    # F is dense and reaches the triangular solve, and unlike the light
    # cone on a box its dual is a Markov semigroup, so it passes
    ("verify-matrix", _verify_2d({"type": "vectors",
                                  "vectors": [[-1.0, 0.0], [0.0, -1.0]]})),
    # reaches the Riesz constant's gamma
    ("mc", _stable_riesz_mc()),
], ids=["verify-matrix", "mc-riesz"])
def test_cli_runs_from_a_cold_interpreter(tmp_path, mode, doc):
    # in-process tests run with scipy already imported; only a fresh
    # interpreter runs the import-on-use lines from cold
    path = _write(tmp_path, {**doc, "output_dir": str(tmp_path / "out")})
    out = subprocess.run([sys.executable, "-m", "dualgen.cli", mode, path],
                         capture_output=True, text=True, timeout=120,
                         env=_env())
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip().endswith(": pass")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["pass"]


def test_passing_verify_matrix_reports_no_worst_entry(tmp_path):
    # on a passing run the argmin of T^D only names rounding noise
    rep = run_scenario(load_scenario(_walk_verify()), out_dir=str(tmp_path))
    stoch = rep["results"]["stochasticity"]
    assert stoch["pass"] and stoch["worst_entry_index"] is None
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["results"]["stochasticity"]["worst_entry_index"] is None


@pytest.mark.parametrize("lower,upper,where", [
    # log(x1) is NaN left of 0: once read as a pass
    ([-1.05], [0.95], "drift b is nan at grid point [-1.05] (state 0)"),
    # -inf at 0: once read as "||tQ|| = inf too large"
    ([0.0], [1.0], "drift b is -inf at grid point [0.] (state 0)"),
])
def test_cli_exit_two_on_non_finite_drift_in_verify_matrix(tmp_path, capsys,
                                                            lower, upper,
                                                            where):
    doc = {
        "name": "log-drift", "mode": "verify-matrix",
        "process": {"dim": 1, "drift": ["log(x1)"], "diffusion": ["0.5"]},
        "grid": {"lower": lower, "upper": upper, "spacing": [0.1],
                 "boundary_policy": "reflect"},
        "cone": {"type": "pareto"},
        "probes": [{"x": [0.45], "y": [0.45], "t": 0.5}],
    }
    path = _write(tmp_path, doc)
    with np.errstate(invalid="ignore", divide="ignore"):
        assert main(["verify-matrix", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].endswith(where)


_EYE_3 = {"type": "vectors",
          "vectors": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}


@pytest.mark.parametrize("mode, doc, pointer", [
    ("mc", _bm_mc(process={"dim": 1}), "/process"),
    ("mc", _bm_mc(cone={"type": "riesz", "alpha": 1.0}), "/cone"),
    ("mc", _lightcone_diffusion("mc", {"type": "newtonian"}), "/cone"),
    ("mc", _bm_mc(process={"dim": 3, "diffusion": ["0.5"] * 3,
                           "diffusion_deriv": ["0"] * 3},
                  cone={"type": "log2d"},
                  probes=[{"x": [1.0] * 3, "y": [0.0] * 3, "t": 1.0}]),
     "/cone"),
    ("verify-matrix", _verify_2d({"type": "vectors",
                                  "vectors": [[1.0, 0.0], [1.0]]}), "/cone"),
    ("mc", _lightcone_diffusion("mc", _EYE_3), "/cone"),
    # once a pass: the 3-D identity is an orthant
    ("dual", _lightcone_diffusion("dual", _EYE_3), "/cone"),
], ids=["no-part", "riesz-1d", "newtonian-2d", "log2d-3d", "ragged-vectors",
        "3d-cone-in-mc", "3d-cone-in-dual"])
def test_cli_exit_two_on_a_malformed_process_or_cone(tmp_path, capsys, mode,
                                                     doc, pointer):
    # each exited 1 with a ValueError traceback from a constructor
    code = main([mode, _write(tmp_path, doc), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"(at {pointer})" in err
    assert not (tmp_path / "out").exists()


# tests whose invariants are raised errors, not asserts
_INVARIANT_TESTS = [
    "tests/test_monte_carlo.py::test_estimate_invariants_hold_without_asserts",
    "tests/test_monte_carlo.py::test_non_finite_terminal_states_raise",
    "tests/test_dual_builder.py::"
    "test_dual_report_admissible_is_read_off_its_violations",
    "tests/test_generator_core.py::test_nan_drift_raises_naming_the_grid_point",
    "tests/test_generator_core.py::"
    "test_non_finite_diffusion_and_jump_rates_raise",
]


def test_invariants_hold_under_python_O():
    root = Path(__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *_INVARIANT_TESTS],
        capture_output=True, text=True, timeout=300, cwd=root, env=_env())
    assert out.returncode == 0, out.stdout + out.stderr
    assert f"{len(_INVARIANT_TESTS)} passed" in out.stdout
