"""Scenario files: validated JSON experiment definitions and report emission.

A scenario declares a process with expression-string coefficients, a
grid or a functional descriptor, probe points, and tolerances.
`load_scenario` refuses what cannot run, what each mode pairs included
(`_PAIRS`): verify-matrix any cone, mc an orthant cone or a kernel, and
dual and self-dual-check an orthant cone only, since they build the
Pareto dual.  Running one dispatches to the dual construction, the exact
matrix check, the Monte Carlo estimator, or the self-duality check, and
writes a deterministic report.json / report.csv pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

# closed_form_dual is called through this module's global, which
# bench/spans.py wraps by this name to time it.
from .dual_builder import DualReport, check_self_dual, closed_form_dual
from .errors import DualgenError, SchemaError, SingularBasis
from .expressions import parse_expression
from .generator_core import (
    AtomicJumpKernel,
    DensityJumpKernel,
    ProcessSpec,
    discretize,
)
from .matrix_lab import (
    SurvivalTransform,
    dual_semigroup_via_F,
    dual_stochasticity_check,
    duality_residual,
    semigroup,
)
from .monte_carlo import PathConfig, StableLikeKernel, estimate_duality
from .order_transform import TranslationKernel
from .state_space import Cone, Grid, build_grid, lightcone_2d
# Not called here: verify-matrix pairs through SurvivalTransform.  Kept as
# a module attribute, because bench/spans.py wraps it by this name to time
# the indicator wherever it is still built.
from .state_space import duality_indicator_matrix  # noqa: F401

__all__ = [
    "Scenario",
    "load_scenario",
    "run_scenario",
    "emit_plot_data",
    "SCENARIO_SCHEMA",
]

MODES = ("dual", "verify-matrix", "mc", "self-dual-check")

_EXPR = {"type": "string", "minLength": 1}
_NUM = {"type": "number"}
_VEC = {"type": "array", "items": _NUM, "minItems": 1}
_POLICY_NAME = {"enum": ["reflect", "absorb", "truncate_mass"]}

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["name", "mode", "process"],
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "mode": {"enum": list(MODES)},
        "process": {
            "type": "object",
            "additionalProperties": False,
            "required": ["dim"],
            "properties": {
                "dim": {"type": "integer", "minimum": 1},
                "drift": {"type": "array", "items": _EXPR},
                "diffusion": {"type": "array", "items": _EXPR},
                "diffusion_deriv": {"type": "array", "items": _EXPR},
                "jumps": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["displacement", "rate"],
                        "properties": {
                            "displacement": _VEC,
                            "rate": {"anyOf": [_NUM, _EXPR]},
                            "rate_deriv": {"anyOf": [_NUM, _EXPR]},
                        },
                    },
                },
                "jump_density": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["density"],
                    "properties": {"density": _EXPR, "deriv": _EXPR},
                },
                "stable": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["alpha", "amplitude"],
                    "properties": {
                        "alpha": {"type": "number",
                                  "exclusiveMinimum": 0, "maximum": 2},
                        "amplitude": _EXPR,
                    },
                },
                "domain": {"enum": ["full_space", "half_line"]},
                "boundary": {"enum": ["reflect", "absorb", "none"]},
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["lower", "upper", "spacing"],
            "properties": {
                "lower": _VEC,
                "upper": _VEC,
                "spacing": _VEC,
                "boundary_policy": {
                    "anyOf": [
                        _POLICY_NAME,
                        {"type": "array",
                         "items": {"anyOf": [
                             _POLICY_NAME,
                             {"type": "array", "items": _POLICY_NAME,
                              "minItems": 2, "maxItems": 2}]}},
                    ],
                },
            },
        },
        "cone": {
            "type": "object",
            "additionalProperties": False,
            "required": ["type"],
            "properties": {
                "type": {"enum": ["pareto", "lightcone", "vectors",
                                  "riesz", "newtonian", "log2d"]},
                "vectors": {"type": "array", "items": _VEC, "minItems": 1},
                "alpha": {"type": "number",
                          "exclusiveMinimum": 0, "maximum": 2},
            },
        },
        "probes": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["x", "y", "t"],
                "properties": {
                    "x": _VEC,
                    "y": _VEC,
                    "t": {"type": "number", "minimum": 0},
                },
            },
        },
        "path_config": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n_paths", "dt", "seed"],
            "properties": {
                "n_paths": {"type": "integer", "minimum": 100},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "seed": {"type": "integer", "minimum": 0},
                "scheme": {"enum": ["euler_maruyama", "euler_jump_thinning",
                                    "stable_euler"]},
                "tail_truncation_quantile": {
                    "type": "number", "exclusiveMinimum": 0.5, "maximum": 1},
                "rate_bound": {"type": "number", "exclusiveMinimum": 0},
                "bridge_correction": {"type": "boolean"},
            },
        },
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "z_max": {"type": "number", "exclusiveMinimum": 0},
                "residual_max": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "output_dir": {"type": "string", "minLength": 1},
    },
}

DEFAULT_TOLERANCES = {"z_max": 3.5, "residual_max": 1e-9}


@dataclass(frozen=True)
class Scenario:
    """A validated scenario; `data` is the normalized JSON document and
    carries equality, the remaining fields are the compiled objects."""

    data: dict
    process: ProcessSpec = field(compare=False)
    grid: Optional[Grid] = field(compare=False)
    functional: object = field(compare=False)    # ('cone', Cone) | TranslationKernel
    probes: tuple = field(compare=False)         # ((x, y, t), ...)
    path_config: Optional[PathConfig] = field(compare=False)
    tolerances: dict = field(compare=False)

    @property
    def name(self) -> str:
        return self.data["name"]

    @property
    def mode(self) -> str:
        return self.data["mode"]

    @property
    def output_dir(self) -> str:
        return self.data.get("output_dir", ".")


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}


def _schema_errors(value, schema: dict, path: tuple):
    """Yield (path, message) for each way value breaks schema, with
    JSON Schema 2020-12 semantics for the keywords SCENARIO_SCHEMA uses:
    type, enum, anyOf, required, properties, additionalProperties (false
    only), items, minItems, maxItems, minLength, minimum, maximum and
    exclusiveMinimum.  A bool is neither a number nor an integer, an
    integral float is an integer, and each keyword but type, enum and
    anyOf applies only to its own JSON type.  Like a validator's
    absolute path, path is the tuple of keys and indices down to the
    value; `required` and `additionalProperties` report the object."""
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        yield path, f"{value!r} is not of type {kind!r}"
    if "enum" in schema and value not in schema["enum"]:
        yield path, f"{value!r} is not one of {schema['enum']!r}"
    if "anyOf" in schema and all(
            next(_schema_errors(value, sub, path), None) is not None
            for sub in schema["anyOf"]):
        yield path, f"{value!r} is not valid under any of the given schemas"
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                yield path, f"{key!r} is a required property"
        if schema.get("additionalProperties", True) is False:
            extra = sorted(key for key in value if key not in props)
            if extra:
                yield path, (f"Additional properties are not allowed "
                             f"({', '.join(map(repr, extra))} unexpected)")
        for key, sub in props.items():
            if key in value:
                yield from _schema_errors(value[key], sub, path + (key,))
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            yield path, f"{value!r} is too short"
        if len(value) > schema.get("maxItems", len(value)):
            yield path, f"{value!r} is too long"
        if "items" in schema:
            for i, item in enumerate(value):
                yield from _schema_errors(item, schema["items"], path + (i,))
    elif isinstance(value, str):
        if len(value) < schema.get("minLength", 0):
            yield path, f"{value!r} is too short"
    elif _TYPES["number"](value):
        if "minimum" in schema and value < schema["minimum"]:
            yield path, (f"{value!r} is less than the minimum of "
                         f"{schema['minimum']!r}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            yield path, (f"{value!r} is less than or equal to the minimum "
                         f"of {schema['exclusiveMinimum']!r}")
        if "maximum" in schema and value > schema["maximum"]:
            yield path, (f"{value!r} is greater than the maximum of "
                         f"{schema['maximum']!r}")


def _schema_fail(message: str, pointer: str):
    raise SchemaError(f"{message} (at {pointer or '/'})")


def _state_rate(src, dim: int):
    """A rate given as a number, or a state expression wrapped into
    rate(x) -> float over one state; rate.vectorized is the expression
    itself, over an (m, dim) array of states."""
    if isinstance(src, (int, float)):
        return float(src)
    fn = parse_expression(src, dim)

    def g(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return float(fn(x.reshape(1, dim))[0])
    g.vectorized = fn
    return g


def _per_axis(exprs, dim: int, what: str):
    if len(exprs) != dim:
        raise SchemaError(
            f"{what} needs {dim} expressions, got {len(exprs)} "
            f"(at /process/{what})")
    return tuple(parse_expression(src, dim, only_variable=j)
                 for j, src in enumerate(exprs))


def _source_target(src: str):
    """A 1-D kernel expression in x1 = source point, x2 = jump target, as
    kernel(x, W) over an (m, 1) array of targets W."""
    fn = parse_expression(src, 2)

    def kernel(x, W):
        W = np.atleast_2d(np.asarray(W, dtype=float))
        pts = np.column_stack([np.full(len(W), float(np.atleast_1d(x)[0])),
                               W[:, 0]])
        return fn(pts)
    return kernel


def _build_jump_density(cfg: dict, dim: int):
    if dim != 1:
        raise SchemaError("jump_density supports dim = 1 only "
                          "(at /process/jump_density)")
    density = _source_target(cfg["density"])
    deriv = _source_target(cfg["deriv"]) if "deriv" in cfg else None
    return DensityJumpKernel(density=density, deriv=deriv)


def _build_process(proc: dict) -> ProcessSpec:
    """The ProcessSpec a document declares; SchemaError at /process where
    ProcessSpec refuses it."""
    dim = int(proc["dim"])      # the schema's integers include 1.0
    drift = _per_axis(proc["drift"], dim, "drift") if "drift" in proc else None
    diff = _per_axis(proc["diffusion"], dim, "diffusion") \
        if "diffusion" in proc else None
    ddiff = _per_axis(proc["diffusion_deriv"], dim, "diffusion_deriv") \
        if "diffusion_deriv" in proc else None

    jump = None
    if "jumps" in proc:
        channels, derivs = [], []
        for ch in proc["jumps"]:
            w = np.asarray(ch["displacement"], dtype=float)
            channels.append((tuple(w), _state_rate(ch["rate"], dim)))
            dr = ch.get("rate_deriv")
            derivs.append(None if dr is None else _state_rate(dr, dim))
        jump = AtomicJumpKernel(jumps=tuple(channels),
                                rate_derivs=tuple(derivs))
    elif "jump_density" in proc:
        jump = _build_jump_density(proc["jump_density"], dim)
    elif "stable" in proc:
        st = proc["stable"]
        jump = StableLikeKernel(alpha=float(st["alpha"]),
                                amplitude=parse_expression(st["amplitude"], dim))

    boundary = proc.get("boundary")
    if boundary == "none":
        boundary = None
    try:
        return ProcessSpec(
            dim=dim,
            drift_components=drift,
            diffusion_diag=diff,
            diffusion_diag_deriv=ddiff,
            jump=jump,
            domain=proc.get("domain", "full_space"),
            boundary=boundary,
        )
    except ValueError as exc:
        _schema_fail(f"process: {exc}", "/process")


def _build_functional(cfg: Optional[dict], dim: int):
    """('cone', Cone) or the TranslationKernel a document declares;
    SchemaError at /cone where the constructor refuses it or the cone is
    not of the process's dimension."""
    kind = (cfg or {}).get("type", "pareto")
    try:
        if kind == "pareto":
            cone = Cone.pareto(dim)
        elif kind == "lightcone":
            cone = lightcone_2d()
        elif kind == "vectors":
            if "vectors" not in cfg:
                _schema_fail("cone type 'vectors' needs 'vectors'", "/cone")
            cone = Cone.from_vectors(*cfg["vectors"])
        else:
            return TranslationKernel(kind=kind, d=dim,
                                     alpha=float(cfg.get("alpha", 0.0)))
    except (ValueError, SingularBasis) as exc:
        _schema_fail(f"cone: {exc}", "/cone")
    if cone.dim != dim:
        _schema_fail(f"a {cone.dim}-D cone for a {dim}-D process", "/cone")
    return ("cone", cone)


# mode -> (its cone must be R^d_+, it pairs a kernel too)
_PAIRS = {"dual": (True, False), "verify-matrix": (False, False),
          "mc": (True, True), "self-dual-check": (True, False)}


def _refuse_constant(token: str):
    raise SchemaError(f"not valid JSON: {token} is not a JSON number "
                      f"(RFC 8259)")


def read_scenario(path: Union[str, Path]):
    """The JSON document of a scenario file, not yet validated.  It is
    RFC 8259 JSON: the NaN and Infinity tokens that `json.load` takes by
    default raise SchemaError."""
    with open(path) as fh:
        try:
            return json.load(fh, parse_constant=_refuse_constant)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc


def load_scenario(source: Union[str, Path, dict]) -> Scenario:
    """Parse and fully validate a scenario file (or pre-parsed document,
    which must be RFC 8259 JSON too: a NaN or inf number raises
    SchemaError)."""
    if isinstance(source, (str, Path)):
        data = read_scenario(source)
    else:
        try:
            data = json.loads(json.dumps(source, allow_nan=False))
        except ValueError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc

    errs = sorted(_schema_errors(data, SCENARIO_SCHEMA, ()),
                  key=lambda e: e[0])
    if errs:
        path, message = errs[0]
        _schema_fail(message, "/" + "/".join(map(str, path)))

    process = _build_process(data["process"])
    dim = process.dim

    grid = None
    if "grid" in data:
        g = data["grid"]
        for key in ("lower", "upper", "spacing"):
            if len(g[key]) != dim:
                _schema_fail(f"grid {key} must have {dim} entries",
                             f"/grid/{key}")
        grid = build_grid(g["lower"], g["upper"], g["spacing"],
                          g.get("boundary_policy", "truncate_mass"))

    functional = _build_functional(data.get("cone"), dim)

    probes = []
    for i, p in enumerate(data.get("probes", [])):
        x = np.asarray(p["x"], dtype=float)
        y = np.asarray(p["y"], dtype=float)
        if len(x) != dim or len(y) != dim:
            _schema_fail(f"probe {i} points must have {dim} entries",
                         f"/probes/{i}")
        if grid is not None and not (grid.contains_point(x)
                                     and grid.contains_point(y)):
            _schema_fail(f"probe {i} lies outside the grid box", f"/probes/{i}")
        probes.append((x, y, float(p["t"])))

    mode = data["mode"]
    path_config = None
    if "path_config" in data:
        pc = data["path_config"]

        def config(t_end, what: str, pointer: str) -> PathConfig:
            # SchemaError at pointer where PathConfig refuses the run
            try:
                return PathConfig(
                    n_paths=int(pc["n_paths"]), dt=pc["dt"],
                    t_end=float(t_end), seed=int(pc["seed"]),
                    scheme=pc.get("scheme", "euler_maruyama"),
                    tail_truncation_quantile=pc.get(
                        "tail_truncation_quantile", 0.999),
                    rate_bound=pc.get("rate_bound"),
                    bridge_correction=pc.get("bridge_correction", False))
            except ValueError as exc:
                _schema_fail(f"{what}: {exc}", pointer)

        if mode == "mc":
            # each probe is simulated to its own time t
            for i, (_, _, t) in enumerate(probes):
                config(t, f"probe {i} at t = {t}", f"/probes/{i}")
        # the file sets no t_end: it is the largest probe time, or dt
        t_end = max([pc["dt"], *(t for _, _, t in probes)])
        path_config = config(t_end, "path_config", "/path_config")

    if mode == "verify-matrix" and grid is None:
        _schema_fail("verify-matrix mode needs a grid", "/grid")
    orthant_only, kernels = _PAIRS[mode]
    if not isinstance(functional, tuple):
        if not kernels:
            _schema_fail(f"{mode} mode needs a cone functional", "/cone")
    elif orthant_only and not functional[1].is_orthant:
        _schema_fail(f"{mode} mode builds the Pareto dual and the cone is "
                     f"not R^d_+", "/cone")
    if mode == "mc" and path_config is None:
        _schema_fail("mc mode needs path_config", "/path_config")
    if mode == "mc" and not probes:
        _schema_fail("mc mode needs at least one probe", "/probes")

    tol = dict(DEFAULT_TOLERANCES)
    tol.update(data.get("tolerances", {}))

    return Scenario(data=data, process=process, grid=grid,
                    functional=functional, probes=tuple(probes),
                    path_config=path_config, tolerances=tol)


# ---------------------------------------------------------------------------
# running

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _violated_rows(rep: DualReport) -> list:
    """The report rows of a dual construction's violated conditions."""
    return [{"condition": c[0], "where": _jsonify(c[1]),
             "value": _jsonify(c[2])} for c in rep.violated_conditions]


def _run_dual(s: Scenario) -> dict:
    rep = closed_form_dual(s.process)
    rows = []
    if rep.admissible and s.probes:
        X = np.array([x for x, _, _ in s.probes], dtype=float)
        B = rep.dual_spec.drift_at(X)
        A = rep.dual_spec.diffusion_at(X)
        for i, x in enumerate(X):
            rows.append({
                "probe_id": i,
                "x": list(map(float, x)),
                "dual_drift": list(map(float, B[i])),
                "dual_diffusion_diag": list(map(float, np.diag(A[i]))),
            })
    return {
        "pass": bool(rep.admissible),
        "results": {
            "admissible": bool(rep.admissible),
            "violated_conditions": _violated_rows(rep),
            "notes": rep.notes,
            "dual_at_probes": rows,
        },
    }


def _run_verify_matrix(s: Scenario) -> dict:
    q = discretize(s.process, s.grid)
    op = SurvivalTransform(s.grid, s.functional[1])
    times = sorted({t for _, _, t in s.probes}) or [1.0]
    residual_max = s.tolerances["residual_max"]
    rows = []
    worst = 0.0
    stoch = None
    for T in semigroup(q, times):
        TD = dual_semigroup_via_F(T, op)
        r = duality_residual(T, TD, op)
        worst = max(worst, r)
        rep = dual_stochasticity_check(TD)
        if stoch is None or not rep.passed:
            stoch = rep
        rows.append({"t": T.t, "residual": float(r),
                     "stochastic": bool(rep.passed)})
    ok = worst <= residual_max and stoch.passed
    return {
        "pass": bool(ok),
        "results": {
            "residual": float(worst),
            "stochasticity": {
                "pass": bool(stoch.passed),
                "min_entry": float(stoch.min_entry),
                "max_rowsum_defect": float(stoch.max_rowsum_defect),
                "worst_entry_index": (None if stoch.passed
                                      else list(stoch.worst_entry_index)),
            },
            "per_time": rows,
        },
    }


def _run_mc(s: Scenario) -> dict:
    specX = s.process
    if isinstance(s.functional, tuple):
        rep = closed_form_dual(specX)
        specY, dual_report = rep.dual_spec, rep
        if not rep.admissible:
            return {
                "pass": False,
                "results": {
                    "admissible": False,
                    "violated_conditions": _violated_rows(rep),
                    "probes": [],
                },
            }
    else:
        specY, dual_report = specX, None
    z_max = s.tolerances["z_max"]
    rows = []
    ok = True
    for i, (x, y, t) in enumerate(s.probes):
        est = estimate_duality(specX, specY, s.functional, x, y, t,
                               s.path_config, dual_report=dual_report)
        ok = ok and abs(est.z_score) <= z_max
        rows.append({
            "probe_id": i,
            "x": list(map(float, x)), "y": list(map(float, y)), "t": float(t),
            "lhs_mean": est.lhs_mean, "lhs_se": est.lhs_se,
            "rhs_mean": est.rhs_mean, "rhs_se": est.rhs_se,
            "gap": est.gap, "z_score": est.z_score,
            "n_paths": est.n_paths,
            "truncation_level": est.truncation_level,
        })
    return {"pass": bool(ok), "results": {"admissible": True, "probes": rows}}


def _run_self_dual(s: Scenario) -> dict:
    flag, witness = check_self_dual(s.process)
    return {
        "pass": bool(flag),
        "results": {"self_dual": bool(flag), "witness": _jsonify(witness)},
    }


def _jsonify(v):
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (tuple, list, np.ndarray)):
        return [_jsonify(u) for u in v]
    return str(v)


_RUNNERS = {
    "dual": _run_dual,
    "verify-matrix": _run_verify_matrix,
    "mc": _run_mc,
    "self-dual-check": _run_self_dual,
}


# mode -> (the results key of its table rows, the columns)
_TABLES = {
    "mc": ("probes", ("probe_id", "x", "y", "t", "lhs_mean", "lhs_se",
                      "rhs_mean", "rhs_se", "gap", "z_score", "n_paths",
                      "truncation_level")),
    "verify-matrix": ("per_time", ("t", "residual", "stochastic")),
}


def _cell(v) -> str:
    return ";".join(map(_fmt, v)) if isinstance(v, list) else _fmt(v)


def _csv_lines(s: Scenario, report: dict):
    mode = s.mode
    res = report["results"]
    if mode in _TABLES:
        key, columns = _TABLES[mode]
        return [",".join(columns)] + [",".join(_cell(r[c]) for c in columns)
                                      for r in res[key]]
    if mode == "dual":
        lines = ["key,value", f"admissible,{_fmt(res['admissible'])}"]
        for v in res["violated_conditions"]:
            lines.append(f"violated,{v['condition']}")
        return lines
    return ["key,value", f"self_dual,{_fmt(res['self_dual'])}"]


def run_scenario(s: Scenario, out_dir: Optional[str] = None) -> dict:
    """Execute a scenario and write report.json / report.csv.

    The returned report carries 'pass'; the CLI maps it to the exit code.
    All output bytes are deterministic functions of (scenario, seed).
    """
    try:
        report = _RUNNERS[s.mode](s)
    except DualgenError as exc:
        raise type(exc)(f"scenario {s.name!r}: {exc}") from exc
    report = {
        "scenario": s.name,
        "mode": s.mode,
        "tolerances": {k: s.tolerances[k] for k in sorted(s.tolerances)},
        **report,
    }
    out = Path(out_dir if out_dir is not None else s.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(out / "report.csv", "w") as fh:
        fh.write("\n".join(_csv_lines(s, report)) + "\n")
    return report


def emit_plot_data(report: dict, path: Union[str, Path]) -> None:
    """Long-format CSV (scenario, probe_id, side, value, se) for plotting."""
    lines = ["scenario,probe_id,side,value,se"]
    name = report.get("scenario", "")
    for r in report.get("results", {}).get("probes", []):
        lines.append(f"{name},{r['probe_id']},lhs,"
                     f"{_fmt(r['lhs_mean'])},{_fmt(r['lhs_se'])}")
        lines.append(f"{name},{r['probe_id']},rhs,"
                     f"{_fmt(r['rhs_mean'])},{_fmt(r['rhs_se'])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
