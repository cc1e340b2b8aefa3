"""The benchmark child (perfbench/child.py) wraps module attributes of the
program by name and counts the work of a traced run.  This runs it once on
the small plane config, so that renaming a wrapped attribute or changing the
quadrature calls per diagnostic row fails here rather than in the
benchmark."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_child_counts_plane_simulation(tmp_path):
    result = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "trace",
         str(result), "simulate", "--config",
         str(ROOT / "configs" / "plane1d.json"), "--out", str(tmp_path / "o")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(result.read_text())
    assert doc["exit"] == 0
    assert doc["trace"]["counts"] == {
        "solver.steps": 160,
        "diagnostics.rows": 17,
        "grids.integrate_calls": 187,   # 11 per row
        "potentials.clamp_count": 0,
    }
