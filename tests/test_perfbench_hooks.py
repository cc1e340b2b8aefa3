"""The benchmark child (perfbench/child.py) wraps module attributes of the
program by name and counts the work of a traced run.  This runs it on the
small plane config, on a small full-grid circle with identity rows and on a
short radial run whose step band is narrower than its line, so that
renaming a wrapped attribute, changing the quadrature calls per diagnostic
row or calling the step other than once per time step fails here rather
than in the benchmark."""

import json
import subprocess
import sys
from pathlib import Path

from phaselab import config

ROOT = Path(__file__).resolve().parent.parent


def traced_counts(tmp_path, config) -> dict:
    """The work counts of one traced `simulate` run of the child."""
    result = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "trace",
         str(result), "simulate", "--config", str(config),
         "--out", str(tmp_path / "o")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(result.read_text())
    assert doc["exit"] == 0
    return doc["trace"]["counts"]


def test_traced_child_counts_plane_simulation(tmp_path):
    assert traced_counts(tmp_path, ROOT / "configs" / "plane1d.json") == {
        "solver.steps": 160,
        "diagnostics.rows": 17,
        "grids.integrate_calls": 187,   # 11 per row
        "potentials.clamp_count": 0,
    }


def test_traced_child_counts_full_grid_identity_rows(tmp_path):
    config = tmp_path / "circle_full2d.json"
    config.write_text(json.dumps({
        "epsilon": 0.16,
        "trajectory": {"type": "sphere", "dim": 2, "radius0": 1.0,
                       "t_max": 0.1},
        "grid": {"mode": "full", "half_width": 2.0},
        "stepper": {"t_end": 0.02},
        "diagnostics": {"cadence": 4, "compute_identity": True}}))
    assert traced_counts(tmp_path, config) == {
        "solver.steps": 16,
        "diagnostics.rows": 5,
        "grids.integrate_calls": 90,   # 18 per row: 11 plus 7 identity groups
        "potentials.clamp_count": 0,
    }


def test_traced_child_counts_banded_radial_simulation(tmp_path):
    # the circle sweep's eps = 0.04 member cut to t = 0.01: one traced step
    # per time step, however the run carries the band between rows
    plan = json.loads((ROOT / "configs" / "sweep_circle.json").read_text())
    doc = plan["base"]
    doc["epsilon"] = 0.04
    doc["grid"]["h_over_eps"] = plan["h_over_eps"]
    doc["stepper"]["dt_over_eps2"] = plan["dt_over_eps2"]
    doc["stepper"]["t_end"] = 0.01
    path = tmp_path / "sweep_member_short.json"
    path.write_text(json.dumps(doc))
    cfg, _ = config.build_simulation(json.loads(path.read_text()))
    n_rows = len(cfg.row_times())
    assert cfg.steps() == 2000 and n_rows == 14
    assert traced_counts(tmp_path, path) == {
        "solver.steps": cfg.steps(),
        "diagnostics.rows": n_rows,
        "grids.integrate_calls": 11 * n_rows,
        "potentials.clamp_count": 0,
    }
