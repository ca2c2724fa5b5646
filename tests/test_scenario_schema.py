"""The scenario validator against jsonschema's Draft 2020-12 validator.

`scenario._schema_errors` walks SCENARIO_SCHEMA itself; here it must give
the same verdict and the same first error pointer as jsonschema on a
seeded corpus of mutated scenarios, and implement every keyword the
schema uses.
"""

import copy
import json
import random
import re

import pytest

from dualgen.errors import SchemaError
from dualgen.scenario import SCENARIO_SCHEMA, _schema_errors, load_scenario

jsonschema = pytest.importorskip("jsonschema")

# the keywords _schema_errors implements; $schema only names the draft
WALKED = {"type", "enum", "anyOf", "required", "properties",
          "additionalProperties", "items", "minItems", "maxItems",
          "minLength", "minimum", "maximum", "exclusiveMinimum"}

BASES = [
    # one scenario of each mode, on the matrix and the Monte Carlo track
    {"name": "ou-dual", "mode": "dual",
     "process": {"dim": 1, "drift": ["0 - x1"], "diffusion": ["1"],
                 "diffusion_deriv": ["0"]},
     "probes": [{"x": [1.0], "y": [0.0], "t": 1.0}],
     "tolerances": {"z_max": 3.5, "residual_max": 1e-9},
     "output_dir": "out"},
    {"name": "chain1d", "mode": "verify-matrix",
     "process": {"dim": 1, "drift": ["-0.2*x1"],
                 "diffusion": ["0.5 + 0.1*cos(x1)"],
                 "jumps": [{"displacement": [0.5], "rate": 0.6},
                           {"displacement": [-0.5], "rate": "0.4",
                            "rate_deriv": 0}]},
     "grid": {"lower": [-4.0], "upper": [4.0], "spacing": [0.5],
              "boundary_policy": "reflect"},
     "cone": {"type": "pareto"},
     "probes": [{"x": [0.0], "y": [0.0], "t": t} for t in (0.25, 0.5)]},
    {"name": "half-line", "mode": "mc",
     "process": {"dim": 1, "diffusion": ["0.5"], "diffusion_deriv": ["0"],
                 "domain": "half_line", "boundary": "reflect"},
     "cone": {"type": "pareto"},
     "probes": [{"x": [0.5], "y": [0.3], "t": 0.5}],
     "path_config": {"n_paths": 2000, "dt": 0.01, "seed": 5,
                     "bridge_correction": True},
     "tolerances": {"z_max": 4.0}},
    {"name": "walk", "mode": "self-dual-check",
     "process": {"dim": 1, "jumps": [{"displacement": [1.0], "rate": 1.0},
                                     {"displacement": [-1.0], "rate": 1.0}],
                 "boundary": "none"}},
    # per-axis boundary policies, as names and as (lower, upper) pairs
    {"name": "axes", "mode": "verify-matrix",
     "process": {"dim": 2, "drift": ["-0.3*x1", "0.2 - 0.3*x2"],
                 "diffusion": ["0.5", "0.4"]},
     "grid": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0],
              "spacing": [0.25, 0.25],
              "boundary_policy": ["reflect", ["absorb", "truncate_mass"]]},
     "cone": {"type": "vectors", "vectors": [[0.0, 1.0], [1.0, 0.0]]},
     "probes": [{"x": [0.0, 0.0], "y": [0.0, 0.0], "t": 0.5}]},
    # the three jump parts beside the diffusion: density, stable, thinning
    {"name": "density", "mode": "dual",
     "process": {"dim": 1, "jump_density": {"density": "exp(-abs(x2 - x1))",
                                            "deriv": "0"}}},
    {"name": "stable", "mode": "mc",
     "process": {"dim": 2, "stable": {"alpha": 1.0,
                                      "amplitude": "1 + 0.5*sin(x1)"}},
     "cone": {"type": "riesz", "alpha": 1.0},
     "probes": [{"x": [0.0, 0.0], "y": [1.0, 0.5], "t": 0.2}],
     "path_config": {"n_paths": 1000, "dt": 0.01, "seed": 3,
                     "scheme": "stable_euler",
                     "tail_truncation_quantile": 0.999}},
    {"name": "thinning", "mode": "mc",
     "process": {"dim": 1, "jumps": [{"displacement": [1.0], "rate": 1.2},
                                     {"displacement": [-1.0], "rate": 0.8}]},
     "probes": [{"x": [0.0], "y": [1.0], "t": 1.0}],
     "path_config": {"n_paths": 1000, "dt": 0.05, "seed": 9,
                     "scheme": "euler_jump_thinning", "rate_bound": 3.0}},
]

REPLACEMENTS = [
    True, False, 0, 1, 2, 3, -1, 99, 100, 0.0, 0.5, 1.0, 2.0, 2.5, -0.5,
    "", "x1", "reflect", "absorb", "pareto", "mc",
    [], [0.0], [1.0, 2.0], [[]], [[0.0, 1.0]], ["reflect"],
    ["absorb", "reflect", "absorb"], [["reflect", "absorb"]],
    [["reflect", "absorb", "reflect"]], {}, {"type": "pareto"},
]


def _containers(value, path=()):
    """(path, container) of every dict and list in a document."""
    if isinstance(value, (dict, list)):
        yield path, value
        keys = value if isinstance(value, dict) else range(len(value))
        for k in keys:
            yield from _containers(value[k], path + (k,))


def _mutate(doc, rng):
    """Delete a key, add an unknown one, or replace a value, in place."""
    _, box = rng.choice(list(_containers(doc)))
    what = rng.randrange(3)
    if what == 0 and isinstance(box, dict) and box:
        del box[rng.choice(sorted(box))]
    elif what == 1 and isinstance(box, dict):
        box[rng.choice(["extra", "driift", "Name", "seed", "t"])] = 1
    elif box:
        key = rng.choice(sorted(box) if isinstance(box, dict)
                         else range(len(box)))
        box[key] = copy.deepcopy(rng.choice(REPLACEMENTS))


def _corpus(n, seed):
    rng = random.Random(seed)
    for i in range(n):
        doc = copy.deepcopy(BASES[i % len(BASES)])
        for _ in range(rng.choice((1, 1, 2, 3))):
            _mutate(doc, rng)
        yield doc


def _first(errors):
    """(verdict, first error path) with the errors sorted by path."""
    paths = sorted(tuple(p) for p in errors)
    return (not paths, paths[0] if paths else None)


_REFERENCE = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)


def _reference(doc):
    return _first(e.absolute_path for e in _REFERENCE.iter_errors(doc))


def _walked(doc):
    return _first(p for p, _ in _schema_errors(doc, SCENARIO_SCHEMA, ()))


def test_the_bases_are_valid_scenarios():
    for doc in BASES:
        assert _walked(doc) == (True, None)
        load_scenario(doc)


def test_verdict_and_first_pointer_match_jsonschema():
    corpus = list(_corpus(5000, seed=20251))
    rejected = 0
    for doc in corpus:
        want = _reference(doc)
        assert _walked(doc) == want, json.dumps(doc)
        if not want[0]:
            # load_scenario raises at the first pointer, before it builds
            with pytest.raises(SchemaError, match=_at(want[1])):
                load_scenario(doc)
            rejected += 1
    # the corpus reaches both verdicts in earnest
    assert 0.3 * len(corpus) < rejected < 0.95 * len(corpus)


def _at(path):
    """The end of a SchemaError message at path."""
    return re.escape(f"(at /{'/'.join(map(str, path))})") + "$"


def _fails_at(doc, pointer):
    verdict, path = _reference(doc)
    assert not verdict and "/" + "/".join(map(str, path)) == pointer
    with pytest.raises(SchemaError, match=_at(path)):
        load_scenario(doc)


def test_an_integral_float_is_an_integer():
    doc = copy.deepcopy(BASES[0])
    doc["process"]["dim"] = 1.0
    assert _reference(doc) == (True, None)
    assert load_scenario(doc).process.dim == 1


def test_a_bool_is_not_an_integer():
    doc = copy.deepcopy(BASES[0])
    doc["process"]["dim"] = True
    _fails_at(doc, "/process/dim")


def test_n_paths_below_the_minimum_is_rejected():
    doc = copy.deepcopy(BASES[2])
    doc["path_config"]["n_paths"] = 99
    _fails_at(doc, "/path_config/n_paths")


def test_a_zero_alpha_breaks_the_exclusive_minimum():
    doc = copy.deepcopy(BASES[6])
    doc["process"]["stable"]["alpha"] = 0
    _fails_at(doc, "/process/stable/alpha")


def test_a_boundary_policy_pair_of_three_breaks_max_items():
    doc = copy.deepcopy(BASES[1])
    doc["grid"]["boundary_policy"] = [["reflect", "absorb", "reflect"]]
    _fails_at(doc, "/grid/boundary_policy")


def _subschemas(schema):
    """A schema and every subschema in it."""
    yield schema
    for key, sub in schema.items():
        if key == "properties":
            for prop in sub.values():
                yield from _subschemas(prop)
        elif key == "items":
            yield from _subschemas(sub)
        elif key == "anyOf":
            for alt in sub:
                yield from _subschemas(alt)


def _keywords(schema):
    return {key for sub in _subschemas(schema) for key in sub}


def test_the_schema_uses_only_walked_keywords():
    # a keyword the walker does not know would go unchecked without a word
    assert _keywords(SCENARIO_SCHEMA) - WALKED == {"$schema"}
    # the walker's enum compares with ==, which holds JSON's meaning on
    # strings but takes True for 1
    assert all(isinstance(member, str)
               for sub in _subschemas(SCENARIO_SCHEMA)
               for member in sub.get("enum", ()))
    # additionalProperties is walked as false only, type as one name
    assert all(sub.get("additionalProperties", False) is False
               and isinstance(sub.get("type", ""), str)
               for sub in _subschemas(SCENARIO_SCHEMA))


def test_the_keyword_guard_sees_a_new_keyword():
    schema = copy.deepcopy(SCENARIO_SCHEMA)
    schema["properties"]["grid"]["properties"]["boundary_policy"]["anyOf"][
        1]["items"]["anyOf"][1]["pattern"] = "^r"
    assert "pattern" in _keywords(schema)
