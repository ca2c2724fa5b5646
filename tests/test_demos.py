"""The exact-matrix demo runs against the current API and stays exact."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
