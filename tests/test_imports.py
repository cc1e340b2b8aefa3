"""Import hygiene: what a command loads before its first time step.

Each case runs in a fresh interpreter, so the module sets are those of a
command started from the shell, not of this test session.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import phaselab.cli
loaded = {"cli": scipy_modules()}
from phaselab import config, solver
cfg, _ = config.build_simulation(config.load_json(sys.argv[1]))
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


@pytest.mark.parametrize("config_path, needed, absent", [
    (ROOT / "configs" / "circle_radial.json", "scipy.linalg", "scipy.fft"),
    (ROOT / "perfbench" / "workloads" / "circle_full2d_identity.json",
     "scipy.fft", "scipy.linalg"),
])
def test_scipy_loaded_per_grid_kind(config_path, needed, absent):
    loaded = loaded_modules(config_path)
    assert loaded["cli"] == []   # the potentials and the profile are numpy
    assert needed in loaded["stepper"]
    assert absent not in loaded["stepper"]
