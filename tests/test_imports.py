"""Import hygiene: what a command loads before its first time step, and
which modules know the trajectory classes, the grid kinds and the sweep
modes.

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

from phaselab.experiments import SWEEP_MODES

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "phaselab"
TRAJECTORY_CLASSES = {"PlaneInterface", "SphereInterface"}
GRID_KIND_NAMES = {"FULL", "RADIAL", "npts_for_spacing", "scipy"}
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
band = cfg.grid.band_solver(cfg.dt_actual())
u = solver.initial_data(cfg)
v = u[band.place(u)]
solver.make_stepper(cfg)(v, v.copy(), band)
loaded["stepper"] = scipy_modules()

kernel = sys.modules[sys.argv[2]]
import scipy.fft, scipy.linalg
from scipy.fft._pocketfft import basic
from scipy.linalg import lapack
loaded["reused"] = (sys.modules[sys.argv[2]] is kernel
                    and kernel in (lapack._flapack, basic.pfft))
print(json.dumps(loaded))
"""

MISSING_KERNEL = """
import json, sys
import phaselab.cli as cli
import phaselab.grids as grids

try:
    grids._kernel("scipy.linalg", "_no_such_kernel")
except ImportError as exc:
    message = str(exc)
grids.EXTENSION_SUFFIXES = [".missing"]   # no LAPACK file for the solve
rc = cli.main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]])
import scipy
print(json.dumps({"message": message, "rc": rc,
                  "version": scipy.__version__}))
"""

FIT_WITHOUT_LSTSQ = """
import json, sys
import numpy as np

def lstsq(*args, **kwargs):
    raise AssertionError("numpy.linalg.lstsq called")

np.linalg.lstsq = lstsq
import phaselab.cli as cli
rc = cli.main(["sweep", "--plan", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"rc": rc, "polynomial": "numpy.polynomial" in sys.modules}))
"""


def run_probe(probe, *args):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-c", probe, *map(str, args)],
                          capture_output=True, text=True, env=env,
                          check=True)


@pytest.mark.parametrize("config_path, package, other", [
    (ROOT / "configs" / "circle_radial.json", "scipy.linalg", "scipy.fft"),
    (ROOT / "perfbench" / "workloads" / "circle_full2d_identity.json",
     "scipy.fft", "scipy.linalg"),
])
def test_scipy_loaded_per_grid_kind(config_path, package, other):
    # after the first step, each grid kind has loaded the one compiled
    # module it solves with and no package initializer (not scipy itself,
    # scipy.linalg, scipy.fft or scipy.fft._pocketfft), and nothing of the
    # other kind's package; scipy.linalg and scipy.fft imported later reuse
    # that module object
    loaded = json.loads(run_probe(PROBE, config_path, KERNELS[package]).stdout)
    assert loaded["cli"] == []   # the potentials and the profile are numpy
    assert loaded["stepper"] == [KERNELS[package]]
    assert loaded["reused"]


def test_missing_kernel_in_a_fresh_process(tmp_path):
    # with no scipy imported before it, a missing kernel still names the
    # scipy version, and a command still exits 1 as a runtime failure
    proc = run_probe(MISSING_KERNEL, ROOT / "configs" / "circle_radial.json",
                     tmp_path / "out")
    out = json.loads(proc.stdout)
    assert out["message"] == (f"scipy {out['version']} has no compiled "
                              "module scipy.linalg._no_such_kernel")
    assert out["rc"] == 1
    assert (f"runtime failure: scipy {out['version']} has no compiled module "
            "scipy.linalg._flapack") in proc.stderr
    assert not (tmp_path / "out").exists()


def test_sweep_fits_rates_without_least_squares_solver(tmp_path):
    # the rate fits are closed-form lines: a sweep neither calls LAPACK's
    # least squares nor loads numpy.polynomial
    plan = json.loads((ROOT / "configs" / "sweep_circle.json").read_text())
    plan["base"]["stepper"]["t_end"] = 0.002
    path = tmp_path / "sweep_circle_short.json"
    path.write_text(json.dumps(plan))
    proc = run_probe(FIT_WITHOUT_LSTSQ, path, tmp_path / "out")
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out == {"rc": 0, "polynomial": False}


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
    # kind nor import the scipy module that solves on it; a grid's kind is
    # its mode, a word a sweep plan's mode shares
    tree = ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
    modules = [node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module]
    parts = {part for name in [*names_in(tree), *modules]
             for part in name.split(".")}
    assert GRID_KIND_NAMES.isdisjoint(parts)
    grid_kinds = [node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "mode"
                  and "grid" in names_in(node.value)]
    assert grid_kinds == [], f"a grid's mode read at {grid_kinds}"


@pytest.mark.parametrize("path", [path for path in sorted(PACKAGE.glob("*.py"))
                                  if path.stem != "experiments"],
                         ids=lambda p: p.stem)
def test_sweep_modes_are_named_in_experiments_only(path):
    # a sweep mode is one row of experiments.SWEEP_MODES, so no other module
    # spells a mode's name; the grid kind FULL = "full" in grids is a
    # grid's mode, not a sweep's
    tree = ast.parse(path.read_text(encoding="utf-8"))
    grid_kind = [node.value for node in ast.walk(tree)
                 if path.stem == "grids" and isinstance(node, ast.Assign)
                 and ast.unparse(node.targets[0]) == "FULL"]
    named = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value in SWEEP_MODES and node not in grid_kind]
    assert named == [], f"a sweep mode's name at {named}"


@pytest.mark.parametrize("path", [path for path in sorted(PACKAGE.glob("*.py"))
                                  if path.stem != "__init__"],
                         ids=lambda p: p.stem)
def test_no_unused_imports(path):
    # every name a module imports is read in it; the package namespace
    # imports to re-export
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items()
              if name not in read}
    assert unused == {}, f"imported and never read: {unused}"
