"""Import hygiene: what a command loads before its first time step, and
which modules know the trajectory classes and the grid kinds.

Each loading case runs in a fresh interpreter, so the module sets are those
of a command started from the shell, not of this test session.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "phaselab"
TRAJECTORY_CLASSES = {"PlaneInterface", "SphereInterface"}
GRID_KIND_NAMES = {"FULL", "RADIAL", "mode", "npts_for_spacing", "scipy"}
KERNELS = {"scipy.linalg": "scipy.linalg._flapack",
           "scipy.fft": "scipy.fft._pocketfft.pypocketfft"}

PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import phaselab.cli
loaded = {"cli": scipy_modules()}
from phaselab import config, solver
cfg, _ = config.build_simulation(config.load_json(sys.argv[1]))
cfg.grid.band_solver(cfg.dt_actual())
solver.make_stepper(cfg)
loaded["stepper"] = scipy_modules()
print(json.dumps(loaded))
"""


def loaded_modules(config_path):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(config_path)],
                          capture_output=True, text=True, env=env,
                          check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("config_path, package, other", [
    (ROOT / "configs" / "circle_radial.json", "scipy.linalg", "scipy.fft"),
    (ROOT / "perfbench" / "workloads" / "circle_full2d_identity.json",
     "scipy.fft", "scipy.linalg"),
])
def test_scipy_loaded_per_grid_kind(config_path, package, other):
    # each grid kind loads the one compiled module it solves with and no
    # package initializer on its way (not scipy.linalg, scipy.fft or
    # scipy.fft._pocketfft), and nothing of the other kind's package
    loaded = loaded_modules(config_path)
    assert loaded["cli"] == []   # the potentials and the profile are numpy
    assert [m for m in loaded["stepper"]
            if m.startswith((package, other))] == [KERNELS[package]]


def names_in(node):
    """Every identifier a node refers to: names, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_trajectory_classes_own_their_rules(path):
    # each trajectory class carries its own formulas and rules, so no module
    # branches on which one it holds, and only the defining module, the
    # config builder and the package namespace name them
    tree = ast.parse(path.read_text(encoding="utf-8"))
    dispatch = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and TRAJECTORY_CLASSES & set(names_in(node.args[1]))]
    assert dispatch == [], f"isinstance on a trajectory class at {dispatch}"
    if path.stem not in ("geometry", "config", "__init__"):
        assert TRAJECTORY_CLASSES.isdisjoint(names_in(tree))


@pytest.mark.parametrize("stem", ["solver", "experiments"])
def test_grids_own_the_grid_kind_rules(stem):
    # the implicit solve, the boundary faces and the respacing rule are Grid
    # methods, so the stepper and the studies neither branch on the grid
    # kind nor import the scipy module that solves on it
    tree = ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
    modules = [node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module]
    parts = {part for name in [*names_in(tree), *modules]
             for part in name.split(".")}
    assert GRID_KIND_NAMES.isdisjoint(parts)
