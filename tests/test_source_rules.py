"""Source rules for the package itself.

Invariants are raised errors, never `assert` statements, so they survive
`python -O`; no interface method is a stub that only raises; no
module imports scipy at its top level, so `import dualgen` loads none of
it, nor any of scipy's underscore-prefixed modules or names, which are
not its public API, nor scipy.linalg's `expm`; no dual is built by the
conjugation F Q' F^-1 outside matrix_lab and `ParetoDualJumpKernelND`;
no move on a grid is folded at a face outside `map_targets`; no
scenario runner refuses a document, which `load_scenario` does; no
function parameter or dataclass field has a default that only the unit
tests override; no public function or class is named only by its own
definition and the unit tests; no private top-level function, class or
constant is read only by its own definition and the unit tests; no
dataclass field is read only by the unit tests; and no module imports a
name it never reads.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dualgen"
MODULES = sorted(SRC.glob("*.py"))


def _only_raises(fn) -> bool:
    body = fn.body
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    return len(body) == 1 and isinstance(body[0], ast.Raise)


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"generator_core.py", "monte_carlo.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_asserts_stubs_or_not_implemented(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append(f"line {node.lineno}: assert statement")
        elif isinstance(node, ast.Name) and node.id == "NotImplementedError":
            found.append(f"line {node.lineno}: names NotImplementedError")
        elif isinstance(node, ast.ClassDef):
            found.extend(
                f"line {fn.lineno}: method {node.name}.{fn.name} only raises"
                for fn in node.body
                if isinstance(fn, ast.FunctionDef) and _only_raises(fn))
    assert found == []


def _run_on_import(nodes):
    """Every node that runs when the module is imported: all but the
    bodies of functions."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        yield from _run_on_import(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_top_level_scipy_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in _run_on_import(tree.body):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        found.extend(f"line {node.lineno}: imports {n}" for n in names
                     if n == "scipy" or n.startswith("scipy."))
    assert found == []


def _private_scipy_imports(tree) -> list:
    """Every import, at any depth, of a scipy module or name with a part
    that starts with an underscore."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found.extend(
            f"line {node.lineno}: imports {n}" for n in names
            if n.split(".")[0] == "scipy"
            and any(part.startswith("_") for part in n.split(".")))
    return found


def test_private_scipy_import_rule_flags_underscore_parts():
    flagged = ("from scipy.sparse.linalg._expm_multiply import _theta",
               "import scipy.sparse._sputils",
               "def f():\n    from scipy.linalg import _fblas")
    allowed = ("from scipy.sparse.linalg import expm_multiply",
               "import scipy.linalg", "from ._private import x",
               "from _thread import lock")
    assert all(len(_private_scipy_imports(ast.parse(src))) == 1
               for src in flagged)
    assert all(_private_scipy_imports(ast.parse(src)) == []
               for src in allowed)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_scipy_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _private_scipy_imports(tree) == []


# the matrix exponential is matrix_lab's own Pade on numpy's `@`: scipy's
# expm runs its products on the slower BLAS that scipy ships
def _scipy_expm_imports(tree) -> list:
    """Every import, at any depth, of `expm` from scipy.linalg or one of
    its submodules."""
    return [f"line {node.lineno}: imports expm from {node.module}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[:2] == ["scipy", "linalg"]
            and any(a.name == "expm" for a in node.names)]


def test_scipy_expm_rule_flags_imports_of_expm():
    flagged = ("from scipy.linalg import expm",
               "def f():\n    from scipy.linalg import solve, expm as e",
               "from scipy.linalg._matfuncs import expm")
    allowed = ("from scipy.linalg import solve_triangular",
               "from scipy.sparse.linalg import expm_multiply",
               "from .matrix_lab import expm")
    assert all(len(_scipy_expm_imports(ast.parse(src))) == 1
               for src in flagged)
    assert all(_scipy_expm_imports(ast.parse(src)) == [] for src in allowed)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy_expm_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _scipy_expm_imports(tree) == []


# F Q' F^-1 is the oracle every closed-form dual is checked against: only
# matrix_lab, and `dual_jump_multidim`'s kernel, which acceptance
# criterion 2 compares with that conjugation, may call it
CONJUGATION_ALLOWED = {"ParetoDualJumpKernelND.generator_matrix"}


def _calls(tree, matches) -> list:
    """(where, line) of every call, at any depth, whose callee `matches`:
    where names the enclosing function (Class.method, nested functions
    included in the name), '' at module level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = f"{where}.{child.name}" if where else child.name
            if isinstance(child, ast.Call) and matches(child.func):
                found.append((where, child.lineno))
            visit(child, inner)

    visit(tree, "")
    return found


def _conjugate_calls(tree, module: str) -> list:
    """Every call of a `.conjugate` attribute, at any depth, outside
    matrix_lab and the functions of CONJUGATION_ALLOWED."""
    if module == "matrix_lab":
        return []
    return [f"line {line}: {where or 'module'} calls .conjugate"
            for where, line in _calls(
                tree, lambda f: isinstance(f, ast.Attribute)
                and f.attr == "conjugate")
            if where not in CONJUGATION_ALLOWED]


def test_conjugation_rule_flags_calls_outside_the_oracle():
    flagged = ("def dual(op, q):\n    return op.conjugate(q)",
               "rows = SurvivalTransform(g, c).conjugate(Q)",
               "class ParetoDualJumpKernelND:\n"
               "    def rows(self, op, q):\n        return op.conjugate(q)",
               "class ParetoDualJumpKernelND:\n"
               "    def generator_matrix(self, grid):\n"
               "        def inner(op):\n            return op.conjugate(1)\n"
               "        return inner")
    allowed = ("class ParetoDualJumpKernelND:\n"
               "    def generator_matrix(self, grid):\n"
               "        return op.conjugate(self.base)",
               "def dual(op, q):\n    return op.apply(q.T)",
               "conjugate(q)")
    assert all(len(_conjugate_calls(ast.parse(src), "dual_builder")) == 1
               for src in flagged)
    assert all(_conjugate_calls(ast.parse(src), "dual_builder") == []
               for src in allowed)
    assert _conjugate_calls(ast.parse(flagged[0]), "matrix_lab") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_oracle_conjugates(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _conjugate_calls(tree, path.stem) == []


# `map_targets` is the one map from a move on a grid to the state it lands
# on, for the stencil's moves and every jump alike: the per-axis fold it
# applies at the faces is called from nowhere else
def _fold_calls(tree) -> list:
    """Every call of `_fold`, by name or as an attribute, at any depth,
    outside `map_targets` itself."""
    return [f"line {line}: {where or 'module'} calls _fold"
            for where, line in _calls(
                tree, lambda f: getattr(f, "id", None) == "_fold"
                or getattr(f, "attr", None) == "_fold")
            if where != "map_targets"]


def test_fold_rule_flags_calls_outside_map_targets():
    flagged = ("def _axis_neighbor(grid, k):\n    return _fold(grid, 0, k)",
               "k = generator_core._fold(grid, 0, k)",
               "def discretize(spec, grid):\n"
               "    def add(k):\n        return _fold(grid, 0, k)",
               "def map_targets(grid, W):\n"
               "    def inner(k):\n        return _fold(grid, 0, k)\n"
               "    return inner")
    allowed = ("def map_targets(grid, W):\n    return _fold(grid, 0, W)",
               "def _fold(grid, axis, k):\n    return k",
               "def place(grid, W):\n    return map_targets(grid, W)",
               "fold(grid, 0, k)")
    assert all(len(_fold_calls(ast.parse(src))) == 1 for src in flagged)
    assert all(_fold_calls(ast.parse(src)) == [] for src in allowed)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_map_targets_folds(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _fold_calls(tree) == []


# a scenario is refused when it is loaded, its schema and what its mode
# pairs alike, so no runner meets a document it cannot run: no top-level
# `_run_*` function raises SchemaError or calls `_schema_fail`
def _runner_refusals(tree) -> list:
    """Every `raise SchemaError` and call of `_schema_fail`, by name or as
    an attribute and at any depth, inside a top-level `_run_*` function."""
    found = []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef)
                and fn.name.startswith("_run_")):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Raise):
                what, banned = "raises", "SchemaError"
                named = getattr(node.exc, "func", node.exc)
            elif isinstance(node, ast.Call):
                what, banned, named = "calls", "_schema_fail", node.func
            else:
                continue
            if banned in (getattr(named, "id", None),
                          getattr(named, "attr", None)):
                found.append(f"line {node.lineno}: {fn.name} {what} {banned}")
    return found


def test_runner_refusal_rule_flags_a_runner_that_refuses():
    flagged = ("def _run_dual(s):\n    raise SchemaError('no (at /cone)')",
               "def _run_mc(s):\n    _schema_fail('no', '/cone')",
               "def _run_mc(s):\n    def inner():\n"
               "        raise errors.SchemaError\n    return inner",
               "def _run_self_dual(s):\n"
               "    if s.mode:\n        scenario._schema_fail('no', '/')")
    allowed = ("def load_scenario(src):\n    _schema_fail('no', '/cone')",
               "def _build_functional(cfg, dim):\n    raise SchemaError('no')",
               "def _run_dual(s):\n    raise StructureViolation('no')",
               "def _run_mc(s):\n    return closed_form_dual(s.process)")
    assert all(len(_runner_refusals(ast.parse(src))) == 1 for src in flagged)
    assert all(_runner_refusals(ast.parse(src)) == [] for src in allowed)


def test_no_scenario_runner_refuses_a_document():
    path = SRC / "scenario.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _runner_refusals(tree) == []


ROOT = SRC.parent.parent


def _use_files(root: Path) -> list:
    """The files under root that make the runs: its demos, its benchmark
    and the acceptance criteria.  The unit tests do not count: a name or
    a setting that only they reach is code no run needs."""
    return sorted(list((root / "demos").rglob("*.py"))
                  + list((root / "bench").rglob("*.py"))
                  + list((root / "tests").glob("test_acceptance.py")))


# `box` is a modelling input, the region the probes cover, not a numerical
# knob: which box a model needs depends on where its coefficients live.
EXEMPT_PARAMETERS = {"box"}
# default -> why it stays with no run that sets it
DEFAULTS_ALLOWED = {
    "generator_core.py: validate_qmatrix(conservative=...)": "ROADMAP item 1"}


def _defaulted_parameters(tree):
    """(function name, parameter name, position or None) of every
    parameter with a default; the position counts from the first argument
    a caller writes (after self or cls), None for keyword-only ones.  A
    dataclass's fields are the parameters of a call to the class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from _params(node, skip=0)
        elif isinstance(node, ast.ClassDef):
            if any(_names_dataclass(d) for d in node.decorator_list):
                yield from _fields(node)
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in fn.decorator_list)
                    yield from _params(fn, skip=0 if static else 1)


def _names_dataclass(decorator) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return getattr(decorator, "id", None) == "dataclass"


def _fields(cls):
    """(class name, field name, position) of every field of a dataclass
    that has a default, given directly or through field(default=...) or
    field(default_factory=...)."""
    fields = [n for n in cls.body if isinstance(n, ast.AnnAssign)
              and isinstance(n.target, ast.Name)]
    for i, node in enumerate(fields):
        value = node.value
        if value is None:
            continue
        if isinstance(value, ast.Call) \
                and getattr(value.func, "id", None) == "field" \
                and not {k.arg for k in value.keywords} \
                & {"default", "default_factory"}:
            continue
        yield cls.name, node.target.id, i


def _params(fn, skip):
    args = fn.args.posonlyargs + fn.args.args
    first_default = len(args) - len(fn.args.defaults)
    for i, a in enumerate(args):
        if i >= first_default:
            yield fn.name, a.arg, i - skip
    for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if d is not None:
            yield fn.name, a.arg, None


def _passed(trees):
    """{(called name, parameter name)} passed by keyword, and
    {called name: most positional arguments} over every call."""
    keywords, positional = set(), {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            keywords.update((name, k.arg) for k in node.keywords)
            n = 1 << 30 if any(isinstance(a, ast.Starred)
                               for a in node.args) else len(node.args)
            positional[name] = max(positional.get(name, 0), n)
    return keywords, positional


def _never_set(root: Path) -> list:
    """'module: function(parameter=...)' of every default in the package
    under root/src, of a function parameter or a dataclass field, that no
    call in the package or in a `_use_files` file overrides."""
    modules = sorted((root / "src").rglob("*.py"))
    keywords, positional = _passed(
        [ast.parse(p.read_text(), filename=str(p))
         for p in modules + _use_files(root)])
    never = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn, param, pos in _defaulted_parameters(tree):
            if param in EXEMPT_PARAMETERS or (fn, param) in keywords:
                continue
            if pos is not None and positional.get(fn, 0) > pos:
                continue
            never.append(f"{path.name}: {fn}({param}=...)")
    return never


def test_default_rule_flags_a_default_only_a_unit_test_sets(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        "def scale(x, k=1.0):\n    return k * x\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("scale(1.0, k=2.0)\n")
    assert _never_set(tmp_path) == ["mod.py: scale(k=...)"]
    for user in ("bench/run.py", "tests/test_acceptance.py"):
        path = tmp_path / user
        path.parent.mkdir(exist_ok=True)
        path.write_text("scale(1.0, 2.0)\n")
        assert _never_set(tmp_path) == []
        path.unlink()


def test_every_defaulted_parameter_is_passed_somewhere():
    """A parameter no run sets is a constant with extra steps: each
    default in the package must be overridden by at least one call in the
    package, a demo, the benchmark or the acceptance criteria."""
    never = _never_set(ROOT)
    assert sorted(set(never) - set(DEFAULTS_ALLOWED)) == []
    # an allowed default that a run sets again leaves the list
    assert sorted(never) == sorted(DEFAULTS_ALLOWED)


# every public top-level function or class is named somewhere besides its
# own definition: in its module or another module of the package, a demo,
# the benchmark (whose tracer names what it wraps in strings) or the
# acceptance criteria (`_use_files`).  A re-export in __init__ is not a use.
# name -> why it stays with no use yet
UNUSED_ALLOWED = {"validate_qmatrix": "ROADMAP item 1"}


def _named(nodes, strings: bool) -> set:
    """Every identifier the nodes name, at any depth: names, attributes
    and imported names, and, when `strings`, every string constant."""
    found = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update((node.name.split(".")[-1], node.asname))
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            found.add(node.value)
    return found


def _orphans(modules: dict, users: dict) -> list:
    """'module.name' of every public top-level function or class of
    `modules` (name -> source) that is named nowhere besides its own
    definition: not in the rest of its module, another of `modules`, or
    one of `users` (name -> (source, whether its strings count))."""
    trees = {name: ast.parse(src).body for name, src in modules.items()}
    named = {name: _named(body, False) for name, body in trees.items()}
    named.update({name: _named([ast.parse(src)], strings)
                  for name, (src, strings) in users.items()})
    found = []
    for module, body in trees.items():
        for defn in body:
            if not isinstance(defn, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) \
                    or defn.name.startswith("_"):
                continue
            rest = _named([n for n in body if n is not defn], False)
            if defn.name not in rest and not any(
                    defn.name in names for user, names in named.items()
                    if user != module):
                found.append(f"{module}.{defn.name}")
    return found


def test_orphan_rule_flags_a_name_only_its_definition_names():
    modules = {"a": "def used():\n    pass\n\ndef orphan():\n    used()\n\n"
                    "def recurse(n):\n    return recurse(n - 1)\n\n"
                    "__all__ = ['orphan']\n\nclass _Private:\n    pass\n",
               "b": "from .a import used\n\nclass Wrapped:\n    pass\n"}
    users = {"bench": ("targets = [(b, 'Wrapped')]\n", True),
             "demo": ("'orphan'\n", False)}
    assert _orphans(modules, users) == ["a.orphan", "a.recurse"]
    del users["bench"]
    assert _orphans(modules, users) == ["a.orphan", "a.recurse", "b.Wrapped"]


def test_every_public_definition_is_used():
    modules = {p.stem: p.read_text() for p in MODULES
               if p.name != "__init__.py"}
    users = {str(p.relative_to(ROOT)): (p.read_text(), p.parts[-2] == "bench")
             for p in _use_files(ROOT)}
    orphans = [o.split(".")[1] for o in _orphans(modules, users)]
    assert sorted(set(orphans) - set(UNUSED_ALLOWED)) == []
    # an allowed name that is used again leaves the list
    assert sorted(orphans) == sorted(UNUSED_ALLOWED)


# every private top-level function, class or constant of the package is
# read by package code outside its own definition: the unit tests do not
# count, so a helper, a tolerance or a fast path that only tests reach is
# code no run needs
def _unread_private(root: Path) -> list:
    """'module: name' of every top-level function, class or assigned
    constant of a module under root/src whose name starts with one
    underscore and that no code under root/src reads outside its own
    definition, as a name or an attribute."""
    trees = {p: ast.parse(p.read_text(), filename=str(p))
             for p in sorted((root / "src").rglob("*.py"))}
    defined = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", [getattr(node, "target",
                                                            None)])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined.extend((path, node, name) for name in names
                           if name.startswith("_")
                           and not name.startswith("__"))
    found = []
    for path, defn, name in defined:
        read = any(
            name in (getattr(n, "id", None), getattr(n, "attr", None))
            and not isinstance(getattr(n, "ctx", None), ast.Store)
            for tree in trees.values()
            for top in tree.body if top is not defn
            for n in ast.walk(top))
        if not read:
            found.append(f"{path.name}: {name}")
    return found


def test_unread_private_rule_flags_a_name_only_tests_read(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text(
        "_TOL = 1e-12\n_USED = 2\n__all__ = []\n\n"
        "def _recurse(n):\n    return _recurse(n - 1)\n\n"
        "class _Spare:\n    pass\n\n"
        "def _helper():\n    return _USED\n")
    (tmp_path / "src" / "pkg" / "b.py").write_text(
        "from . import a\n\ndef run():\n    return a._helper()\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text(
        "from pkg import a\na._TOL, a._Spare, a._recurse\n")
    assert _unread_private(tmp_path) == [
        "a.py: _TOL", "a.py: _recurse", "a.py: _Spare"]
    (tmp_path / "src" / "pkg" / "b.py").write_text(
        "from .a import _TOL, _Spare, _helper, _recurse\n\n"
        "def run():\n    return _helper(), _Spare, _recurse(_TOL)\n")
    assert _unread_private(tmp_path) == []


def test_every_private_definition_is_read():
    assert _unread_private(ROOT) == []


# every field of a package dataclass is read, as an attribute, by package
# code or a `_use_files` file: the unit tests do not count, so a field
# only they read is state no run needs.  'Class.field' -> why it stays
# with no read
FIELDS_ALLOWED = {
    **{f"ValidationReport.{name}": "ROADMAP item 1: validate_qmatrix's "
       "report, which no run calls yet"
       for name in ("offdiag_violations", "rowsum_defects",
                    "max_offdiag_negativity")},
    "SemigroupSnapshot.check_error": "ROADMAP item 5: the expm "
    "self-check error a run is to report",
    "RegularizedDistribution.ladder_cdfs": "the evidence behind the "
    "extrapolated limit: the raw law at each rung",
}


def _unread_fields(root: Path) -> list:
    """'Class.field' of every field of a dataclass under root/src that no
    code under root/src or in a `_use_files` file reads as an attribute.
    The match is by name, whatever object the attribute is read from."""
    def parse(paths):
        return [ast.parse(p.read_text(), filename=str(p)) for p in paths]

    package = parse(sorted((root / "src").rglob("*.py")))
    read = {n.attr for tree in package + parse(_use_files(root))
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [f"{cls.name}.{node.target.id}"
            for tree in package
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            and any(_names_dataclass(d) for d in cls.decorator_list)
            for node in cls.body if isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id not in read]


def test_unread_field_rule_flags_a_field_only_tests_read(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text(
        "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\nclass Report:\n"
        "    value: float\n    label: str\n    spare: int = 0\n\n"
        "class Plain:\n    note: str\n\n"
        "def run():\n    return Report(1.0, 'x').value\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text(
        "from pkg.a import Report\nReport(1.0, 'x').label\n")
    assert _unread_fields(tmp_path) == ["Report.label", "Report.spare"]
    (tmp_path / "tests" / "test_acceptance.py").write_text(
        "from pkg.a import Report\nr = Report(1.0, 'x')\nr.label, r.spare\n")
    assert _unread_fields(tmp_path) == []


def test_every_dataclass_field_is_read():
    unread = _unread_fields(ROOT)
    assert sorted(set(unread) - set(FIELDS_ALLOWED)) == []
    # an allowed field that a run reads again leaves the list
    assert sorted(unread) == sorted(FIELDS_ALLOWED)


# every name a package module imports is read in that module: an import
# nothing reads is a dependency nobody needs.  `__future__` imports and
# __init__'s re-exports are not reads.
# 'module: name' -> why it stays with no read
IMPORTS_ALLOWED = {
    "scenario.py: duality_indicator_matrix":
        "bench/spans.py wraps it by this module's name (ROADMAP item 5)"}


def _unused_imports(tree) -> list:
    """Every name the module imports, other than from `__future__`, that
    no `ast.Name` in the module reads."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            unused.extend(name for name in (
                a.asname or a.name.split(".")[0] for a in node.names)
                if name not in read)
    return unused


def test_unused_import_rule_flags_a_name_no_code_reads(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\n"
                    "import os.path\nimport numpy as np\n"
                    "from dataclasses import dataclass, field\n"
                    "from typing import Optional\n\n"
                    "@dataclass\nclass A:\n    x: Optional[int] = None\n\n"
                    "def f():\n    return np.zeros(os.sep)\n")
    assert _unused_imports(ast.parse(path.read_text())) == ["field"]
    path.write_text("def f():\n    import numpy\n    return 'numpy'\n")
    assert _unused_imports(ast.parse(path.read_text())) == ["numpy"]


def test_every_import_is_read():
    unused = [f"{path.name}: {name}" for path in MODULES
              if path.name != "__init__.py"
              for name in _unused_imports(ast.parse(path.read_text()))]
    assert sorted(set(unused) - set(IMPORTS_ALLOWED)) == []
    # an allowed import that is read again leaves the list
    assert sorted(unused) == sorted(IMPORTS_ALLOWED)
