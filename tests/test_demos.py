"""Every demo imports only names `dualgen` has, and the exact-matrix demo
runs against the current API and stays exact."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert {p.name for p in DEMOS} >= {"exact_matrix_duality.py",
                                       "monte_carlo_duality.py"}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    # read from the source, so a demo that is not run is checked too
    missing = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "dualgen":
            module = importlib.import_module(node.module)
            missing.extend(f"line {node.lineno}: {node.module}.{a.name}"
                           for a in node.names
                           if not hasattr(module, a.name))
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "dualgen":
                    importlib.import_module(a.name)
    assert missing == []


def test_exact_matrix_demo_residuals_at_rounding_level():
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "exact_matrix_duality.py")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])})
    assert out.returncode == 0, out.stderr
    rows = re.findall(r"^\s*([\d.]+)\s+(\S+)\s*$", out.stdout, re.MULTILINE)
    assert len(rows) == 4, out.stdout
    assert all(float(r) <= 1e-12 for _, r in rows)
