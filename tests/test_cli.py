import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

import phaselab.cli as cli
import phaselab.grids
import phaselab.solver
from phaselab import config, experiments, snapshots
from phaselab.snapshots import read_snapshot

from conftest import make_circle_config

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def small_plan(tmp_path, **extra):
    """A three-member circle plan that runs in about a second."""
    plan = {
        "base": json.loads((CONFIGS / "circle_radial.json").read_text()),
        "epsilons": [0.16, 0.08, 0.04],
        **extra,
    }
    del plan["base"]["epsilon"]   # the plan sets each member's epsilon
    plan["base"]["stepper"]["t_end"] = 0.01
    plan["base"]["grid"]["half_width"] = 1.8
    return write_json(tmp_path / "plan.json", plan)


@pytest.fixture
def loose_bands(monkeypatch):
    """Mode full's slope bands widened in its row, so that the small plan's
    three coarse members pass them."""
    for name in ("err_l1", "rel_entropy"):
        monkeypatch.setitem(experiments.SWEEP_MODES["full"]["bands"], name,
                            (0.0, 10.0))


def read_csv(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_profile_standard(tmp_path, capsys):
    rc = cli.main(["profile", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "normalization" in out
    norm = float(out.split("sqrt(2W) over [-1,1]:")[1].split()[0])
    assert abs(norm - 2.0) < 1e-8

    header, rows = read_csv(tmp_path / "profile_standard.csv")
    assert header == ["s", "theta", "dtheta"]
    mid = rows[len(rows) // 2]
    assert float(mid["s"]) == 0.0
    assert float(mid["theta"]) == 0.0


def test_profile_unknown_potential(tmp_path):
    # profile takes no well name, the one well's or another; argparse exits 2
    for name in ("nosuch", "standard"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["profile", name, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_profile_rejects_coeffs(tmp_path):
    # the one well takes no coefficients; argparse exits 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["profile", "--coeffs", "1", "0", "--out",
                  str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [("--s-max", "8"), ("--n", "4096")])
def test_profile_rejects_size_flags(tmp_path, flag, value):
    # the table is always 4,096 RK4 steps on [0, 8]; argparse exits 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["profile", flag, value, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_simulate_plane_smoke(tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["simulate", "--config", str(CONFIGS / "plane1d.json"),
                   "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "diagnostics.csv")
    assert len(rows) >= 2
    assert header[0] == "t" and header[-1] == "identity_residual"
    assert (out / "plots.gp").exists()

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    for artifact in manifest["artifacts"]:
        assert (out / artifact).exists()
    # the filled document records the ratio, and rebuilds the run's dt
    assert manifest["config"]["stepper"]["dt_over_eps2"] == 20.0
    assert config.build_simulation(manifest["config"])[0].dt == 0.05 ** 2 / 20
    assert manifest["clamp_count"] == 0

    snaps = sorted((out / "snapshots").glob("*.bin"))
    assert snaps
    values, meta = read_snapshot(snaps[-1])
    assert meta["epsilon"] == 0.05
    assert np.max(np.abs(values)) <= 1.0


def test_simulate_manifest_records_row_time(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(CONFIGS / "plane1d.json"),
                     "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    timings = manifest["timings"]
    assert set(timings) == {"build_s", "wall_s", "run_wall_s", "setup_s",
                            "rows_s", "step_s", "identity_s"}
    assert 0.0 < timings["rows_s"] < timings["run_wall_s"] < timings["wall_s"]
    assert 0.0 < timings["step_s"] < timings["run_wall_s"] - timings["rows_s"]
    assert 0.0 < timings["setup_s"] and 0.0 <= timings["identity_s"]
    assert sum(timings[k] for k in ("setup_s", "rows_s", "step_s",
                                    "identity_s")) <= timings["run_wall_s"]
    assert manifest["steps_per_s"] == pytest.approx(
        manifest["n_steps"] / timings["step_s"])
    assert 0.99 < manifest["max_abs_u"] <= 1.0 + 1e-12
    # a full grid's step solves every cell of the grid the manifest rebuilds
    cfg, _ = config.build_simulation(manifest["config"], "simulate")
    assert manifest["band_nodes_max"] == cfg.grid.npts


@pytest.mark.parametrize("command", ["simulate", "sweep", "check-identities"])
def test_manifest_records_build_time(tmp_path, monkeypatch, loose_bands,
                                     command):
    """build_s is the time in the config builders (build_plan builds its base
    through build_simulation), and wall_s starts after it."""
    build = config.build_simulation

    def slow_build(*args, **kwargs):
        time.sleep(0.2)
        return build(*args, **kwargs)

    monkeypatch.setattr(config, "build_simulation", slow_build)
    argv = {"simulate": ["--config", str(CONFIGS / "plane1d.json")],
            "sweep": ["--plan", small_plan(tmp_path)],
            "check-identities": ["--config",
                                 str(CONFIGS / "identities_plane.json")]}
    out = tmp_path / "out"
    assert cli.main([command] + argv[command] + ["--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    timings = manifest["timings"]
    assert timings["build_s"] >= 0.2
    # the process's peak RSS so far, beside the timings, not among them
    assert 1.0 < manifest["peak_rss_mb"] < 1e5
    assert "peak_rss_mb" not in timings
    results = {"sweep": "summary.json", "check-identities": "identities.json"}
    if command in results:
        assert set(timings) == {"build_s", "wall_s"}
        assert "build_s" not in (out / results[command]).read_text()


# run-record fields that stay out of summary.json and identities.json
RUN_RECORD_ONLY = ("run_wall_s", "setup_s", "rows_s", "step_s", "identity_s",
                   "steps_per_s", "max_abs_u", "band_nodes_max")


def phases_within_run(record):
    """setup, rows, steps and the identity fill are disjoint parts of the
    run's wall time."""
    parts = [record[k] for k in ("setup_s", "rows_s", "step_s", "identity_s")]
    return min(parts) >= 0.0 and sum(parts) <= record["run_wall_s"]


def test_manifest_records_each_member_and_level(tmp_path, loose_bands):
    """A sweep manifest records one run per epsilon and a check-identities
    manifest one per level; the result files stay free of wall times."""
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--plan", small_plan(tmp_path),
                     "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # the bands of mode full's row
    assert manifest["config"]["bands"] == {
        "err_l1": [0.0, 10.0], "rel_entropy": [0.0, 10.0],
        "gronwall_factor": 2.0}
    members = manifest["members"]
    assert [m["epsilon"] for m in members] == [0.16, 0.08, 0.04]
    for m in members:
        assert set(m) == {"epsilon", "n_steps", "clamp_count", "run_wall_s",
                          "setup_s", "rows_s", "step_s", "identity_s",
                          "steps_per_s", "max_abs_u", "band_nodes_max"}
        assert m["setup_s"] > 0.0   # no identity rows: identity_s is ~0
        assert phases_within_run(m)
        assert m["n_steps"] > 0 and m["clamp_count"] == 0
        assert 0.0 < m["rows_s"] < m["run_wall_s"]
        assert 0.0 < m["step_s"] < m["run_wall_s"] - m["rows_s"]
        assert m["steps_per_s"] == pytest.approx(m["n_steps"] / m["step_s"])
        assert 0.99 < m["max_abs_u"] <= 1.0 + 1e-12
        assert m["band_nodes_max"] > 0
    assert sum(m["run_wall_s"] for m in members) \
        < manifest["timings"]["wall_s"]
    summary = (out / "summary.json").read_text()
    for key in RUN_RECORD_ONLY:
        assert key not in summary

    out = tmp_path / "ident"
    assert cli.main(["check-identities", "--config",
                     str(CONFIGS / "identities_plane.json"),
                     "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    payload = json.loads((out / "identities.json").read_text())
    levels = manifest["levels"]
    assert [lv["h"] for lv in levels] == [lv["h"] for lv in payload["levels"]]
    for coarse, fine in zip(levels, levels[1:]):
        assert fine["n_steps"] == 2 * coarse["n_steps"]
    for lv in levels:
        assert lv["clamp_count"] == 0
        assert 0.0 < lv["rows_s"] < lv["run_wall_s"]
        assert 0.0 < lv["step_s"] < lv["run_wall_s"] - lv["rows_s"]
        assert lv["steps_per_s"] == pytest.approx(lv["n_steps"] / lv["step_s"])
        assert 0.99 < lv["max_abs_u"] <= 1.0 + 1e-12
        assert lv["band_nodes_max"] > 0
        assert lv["setup_s"] > 0.0 and lv["identity_s"] > 0.0
        assert phases_within_run(lv)
    assert sum(lv["run_wall_s"] for lv in levels) \
        < manifest["timings"]["wall_s"]
    result = (out / "identities.json").read_text()
    for key in RUN_RECORD_ONLY:
        assert key not in result


FREED_HEAP_PROBE = """
import resource
import numpy as np
import phaselab.cli as cli

def churn():
    arrays = [np.ones((280, 280)) for _ in range(20)]
    return sum(float(a[0, 0]) for a in arrays)

took = cli._keep_freed_heap()
churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    churn()
print(took, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the malloc settings are glibc's")
def test_freed_heap_is_reused():
    """With main's malloc settings, whole-grid temporaries allocated and
    freed again reuse the heap instead of faulting fresh pages in (about
    3,000 minor faults per round without them).  The count runs in a fresh
    interpreter: ru_minflt counts the whole process, and the test session's
    own allocations could add faults."""
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", FREED_HEAP_PROBE],
                          capture_output=True, text=True, env=env, check=True)
    took, faults = proc.stdout.split()
    assert took == "True"
    assert int(faults) < 100, faults


def test_simulate_rejects_unresolved_layer(tmp_path, capsys):
    doc = json.loads((CONFIGS / "plane1d.json").read_text())
    doc["grid"]["h_over_eps"] = 1   # h = eps/1
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    rc = cli.main(["simulate", "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "grid.h_over_eps: layer resolution" in capsys.readouterr().err


def test_simulate_rejects_unflat_boundary(tmp_path, capsys):
    doc = json.loads((CONFIGS / "plane1d.json").read_text())
    doc["grid"]["half_width"] = 0.15   # the profile is not flat at +-3 eps
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config",
                   write_json(tmp_path / "c.json", doc), "--out", str(out)])
    assert rc == 2
    assert "grid.half_width: initial profile not flat" \
        in capsys.readouterr().err
    assert not out.exists()


def test_initial_data_built_once_per_run(tmp_path, monkeypatch):
    calls = []
    initial_data = phaselab.solver.initial_data

    def counting(cfg):
        calls.append(cfg.grid.npts)
        return initial_data(cfg)

    monkeypatch.setattr(phaselab.solver, "initial_data", counting)
    assert cli.main(["simulate", "--config", str(CONFIGS / "plane1d.json"),
                     "--out", str(tmp_path / "sim")]) == 0
    assert len(calls) == 1
    calls.clear()
    assert cli.main(["check-identities", "--config",
                     str(CONFIGS / "identities_plane.json"),
                     "--out", str(tmp_path / "ident")]) == 0
    assert len(calls) == 3   # one per refinement level


def test_simulate_runtime_failure(tmp_path, monkeypatch, capsys):
    def boom(*a, **k):
        raise phaselab.solver.BlowUpError("max |u| = 2.5 at step 3 (t = 1)")

    monkeypatch.setattr(phaselab.solver, "run", boom)
    rc = cli.main(["simulate", "--config", str(CONFIGS / "plane1d.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "step 3" in capsys.readouterr().err


def test_blowup_after_snapshots_leaves_nothing(tmp_path, monkeypatch,
                                              capsys):
    # snapshots are written as their rows are reached, so two exist when the
    # field goes non-finite in the first step after row 1
    written = []
    write = snapshots.write_snapshot

    def recording(path, *args, **kwargs):
        written.append(path)
        return write(path, *args, **kwargs)

    make_stepper = phaselab.solver.make_stepper

    def blowing_up(cfg):
        step, calls = make_stepper(cfg), []

        def bad(v, out, band):
            calls.append(1)
            step(v, out, band)
            if len(calls) > cfg.cadence:
                out[0] = np.nan
            return out
        return bad

    monkeypatch.setattr(snapshots, "write_snapshot", recording)
    monkeypatch.setattr(phaselab.solver, "make_stepper", blowing_up)
    doc = json.loads((CONFIGS / "plane1d.json").read_text())
    doc["diagnostics"]["snapshot_every"] = 1
    path = write_json(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config", path, "--out", str(out)])
    assert rc == 1
    assert "runtime failure: max |u| = nan at step 11" \
        in capsys.readouterr().err
    assert len(written) == 2 and not any(p.exists() for p in written)
    assert not out.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


def test_snapshot_writes_hold_no_fields(tmp_path, profile):
    # the full-grid circle workload cut to t = 0.01 (5 rows): writing every
    # row's field as it is reached holds no more than writing the last one
    cfg = replace(make_circle_config(profile, eps=0.08,
                                     half_width=1.4, t_end=0.01,
                                     mode="full"), compute_identity=True)
    field = np.empty(cfg.grid.shape).nbytes
    cli._run_simulation(cfg, tmp_path / "warm", None)   # builds caches
    peaks = {}
    for every in (1, None):
        tracemalloc.start()
        try:
            cli._run_simulation(cfg, tmp_path / str(every), every)
            peaks[every] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(list((tmp_path / "1" / "snapshots").glob("*.bin"))) == 5
    assert abs(peaks[1] - peaks[None]) <= field, \
        (peaks[1] - peaks[None]) / field


def test_missing_scipy_kernel_is_runtime_failure(tmp_path, monkeypatch,
                                                 capsys):
    # a scipy build whose LAPACK module has another file name: no extension
    # file matches, so the radial solve cannot load dpttrs
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(phaselab.grids, "EXTENSION_SUFFIXES", [".missing"])
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config", str(CONFIGS / "circle_radial.json"),
                   "--out", str(out)])
    assert rc == 1
    assert (f"runtime failure: scipy {scipy.__version__} has no compiled "
            f"module scipy.linalg._flapack") in capsys.readouterr().err
    assert not out.exists()


def test_unfactorable_radial_operator_is_runtime_failure(tmp_path,
                                                         monkeypatch, capsys):
    diagonals = phaselab.grids._radial_diagonals

    def negative_axis(grid, dt):
        lower, diag, upper = diagonals(grid, dt)
        diag[0] = -1.0
        return lower, diag, upper

    monkeypatch.setattr(phaselab.grids, "_radial_diagonals", negative_axis)
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config", str(CONFIGS / "circle_radial.json"),
                   "--out", str(out)])
    assert rc == 1
    assert "runtime failure: radial operator: non-positive axis pivot" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, name, owner, attr, exc", [
    # a grid.h_over_eps whose field fits np.intp but not the memory: numpy's
    # error
    ("simulate", "plane1d.json", phaselab.solver, "validate",
     MemoryError("Unable to allocate 6.94 EiB for an array")),
    # a finest identity level whose row list does not fit: bare
    ("check-identities", "identities_plane.json",
     phaselab.solver.SimulationConfig, "row_times", MemoryError()),
], ids=["simulate", "check-identities"])
def test_out_of_memory_is_runtime_failure(tmp_path, monkeypatch, capsys,
                                          command, name, owner, attr, exc):
    def raise_exc(*args, **kwargs):
        raise exc

    monkeypatch.setattr(owner, attr, raise_exc)
    out = tmp_path / "out"
    rc = cli.main([command, "--config", str(CONFIGS / name),
                   "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"runtime failure: {str(exc) or 'out of memory'}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_simulate_circle_sample(tmp_path):
    out = tmp_path / "circle"
    rc = cli.main(["simulate", "--config",
                   str(CONFIGS / "circle_radial.json"), "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out / "diagnostics.csv")
    final_err = float(rows[-1]["err_L1"])
    assert final_err <= 5 * 0.08


def test_sweep_reports_and_determinism(tmp_path, loose_bands):
    plan_path = small_plan(tmp_path)

    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli.main(["sweep", "--plan", str(plan_path),
                     "--out", str(out1)]) == 0
    assert cli.main(["sweep", "--plan", str(plan_path),
                     "--out", str(out2)]) == 0

    summary = json.loads((out1 / "summary.json").read_text())
    for key in ("epsilons", "quantities", "slopes", "gronwall_constants",
                "pass_flags"):
        assert key in summary
    for name in ("diagnostics_eps_0.16.csv", "diagnostics_eps_0.08.csv",
                 "diagnostics_eps_0.04.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert (out1 / "summary.json").read_bytes() \
        == (out2 / "summary.json").read_bytes()


def test_sweep_band_violation_exit_code(tmp_path):
    # the small plan's coarse members read a rel_entropy slope of about
    # 2.55, outside the pinned [1.7, 2.3]
    plan_path = small_plan(tmp_path)
    assert cli.main(["sweep", "--plan", plan_path,
                     "--out", str(tmp_path / "out")]) == 3


def test_sweep_member_blowup_exit_code(tmp_path, monkeypatch, capsys):
    def boom(*a, **k):
        raise phaselab.solver.BlowUpError("max |u| = nan at step 3 (t = 1)")

    monkeypatch.setattr(phaselab.solver, "run", boom)
    out = tmp_path / "out"
    rc = cli.main(["sweep", "--plan", small_plan(tmp_path),
                   "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "runtime failure: sweep member eps=0.16: max |u| = nan at step 3" \
        in err
    assert not out.exists()


def test_sweep_unknown_mode_rejected(tmp_path, capsys):
    doc = json.loads((CONFIGS / "initial_entropy_plane.json").read_text())
    doc["mode"] = "inital-entropy"
    out = tmp_path / "out"
    rc = cli.main(["sweep", "--plan", write_json(tmp_path / "p.json", doc),
                   "--out", str(out)])
    assert rc == 2
    assert "plan.mode: unknown mode 'inital-entropy'" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_initial_entropy_mode(tmp_path):
    rc = cli.main(["sweep", "--plan",
                   str(CONFIGS / "initial_entropy_plane.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["pass_flags"]["initial_entropy"]
    assert 1.8 <= summary["slopes"]["initial_entropy"]["slope"] <= 2.2


def test_check_identities_plane(tmp_path, capsys):
    out = tmp_path / "ident"
    rc = cli.main(["check-identities", "--config",
                   str(CONFIGS / "identities_plane.json"), "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "identities.json").read_text())
    assert len(payload["levels"]) == 3
    assert min(payload["identity_orders"]) >= 1.0
    assert min(payload["dissipation_orders"]) >= 1.0
    assert "minimum observed order" in capsys.readouterr().out


def test_invalid_json_reports_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli.main(["simulate", "--config", str(bad),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_json_array_config_reports_config_error(tmp_path, capsys):
    bad = tmp_path / "array.json"
    bad.write_text("[1, 2]")
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config", str(bad), "--out", str(out)])
    assert rc == 2
    assert f"{bad}: expected a JSON object" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file_reports_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    for command, flag in (("simulate", "--config"), ("sweep", "--plan"),
                          ("check-identities", "--config")):
        rc = cli.main([command, flag, str(tmp_path / "missing.json"),
                       "--out", str(out)])
        assert rc == 2
        assert "missing.json: cannot read" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_keys_all_listed(tmp_path, capsys):
    doc = json.loads((CONFIGS / "plane1d.json").read_text())
    doc["diagnostics"]["cadance"] = 5
    doc["stepper"]["shceme"] = "explicit"
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config", write_json(tmp_path / "c.json", doc),
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "diagnostics.cadance: unknown key" in err
    assert "stepper.shceme: unknown key" in err
    assert not out.exists()

    plan = json.loads((CONFIGS / "sweep_circle.json").read_text())
    plan["h_over_epsilon"] = 16
    plan["bands"]["err_L1"] = [0.8, 1.2]
    plan["base"]["grid"]["npst"] = 100
    rc = cli.main(["sweep", "--plan", write_json(tmp_path / "p.json", plan),
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    for key in ("plan.h_over_epsilon", "plan.bands.err_L1", "grid.npst"):
        assert f"{key}: unknown key" in err
    assert not out.exists()


def test_identity_levels_below_two_rejected(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("solver.run called")

    monkeypatch.setattr(phaselab.solver, "run", no_run)
    doc = json.loads((CONFIGS / "identities_plane.json").read_text())
    doc["identities"]["levels"] = 1
    out = tmp_path / "out"
    rc = cli.main(["check-identities", "--config",
                   write_json(tmp_path / "c.json", doc), "--out", str(out)])
    assert rc == 2
    assert "identities.levels: expected 3, got 1" in capsys.readouterr().err
    assert not out.exists()


def test_shipped_configs_load():
    root = CONFIGS.parent
    paths = sorted(CONFIGS.glob("*.json")) \
        + sorted((root / "perfbench" / "workloads").glob("*.json"))
    assert len(paths) == 10
    for path in paths:
        doc = config.load_json(path)
        if "base" in doc:
            config.build_plan(doc)
        else:
            config.build_simulation(doc)


BAD_VALUES = [   # (config, key path, value, key named in the error)
    ("plane1d.json", ("epsilon",), "abc", "epsilon"),
    ("plane1d.json", ("cutoff", "r_c"), float("nan"), "cutoff.r_c"),
    ("plane1d.json", ("diagnostics", "cadence"), 2.7, "diagnostics.cadence"),
    ("plane1d.json", ("diagnostics", "cadence"), 0,
     "diagnostics.cadence: must be >= 1"),
    ("plane1d.json", ("diagnostics", "compute_identity"), "no",
     "diagnostics.compute_identity"),
    ("plane1d.json", ("grid", "half_width"), [1], "grid.half_width"),
    # named before the point count derived from it
    ("plane1d.json", ("grid", "half_width"), -1,
     "grid: half_width must be positive"),
    # rejected by Grid before any field is allocated, named by the key that
    # sets the spacing
    ("plane1d.json", ("grid", "h_over_eps"), 1e300,
     "grid.h_over_eps = 1e+300: too many points"),
    # 2 half_width / h is inf: no point count, not an OverflowError; the
    # width 2 half_width is inf itself, so half_width is to blame
    ("plane1d.json", ("grid", "half_width"), 1e308,
     "grid: npts not finite: half_width = 1e+308 at spacing h = 0.00625"),
    # a finite width over a subnormal spacing: the spacing's key is named
    ("plane1d.json", ("grid", "h_over_eps"), 1e308,
     "grid.h_over_eps = 1e+308: npts not finite: half_width = 0.5 at "
     "spacing h = 5e-310"),
    ("plane1d.json", ("trajectory", "normal"), 5, "trajectory.normal"),
    ("sweep_circle.json", ("epsilons",), 0.1, "plan.epsilons"),
    ("sweep_circle.json", ("h_over_eps",), "x", "plan.h_over_eps"),
    ("plane1d.json", ("potential", "s_max"), 3, "s_max"),
    ("plane1d.json", ("potential", "name"), "poly",
     "potential.name: expected 'standard', got 'poly'"),
    ("plane1d.json", ("stepper", "scheme"), "explicit",
     "stepper.scheme: expected 'semi-implicit', got 'explicit'"),
    ("plane1d.json", ("stepper", "t_end"), -1, "stepper.t_end"),
    # about 8e300 steps: rejected before a step count is formed
    ("plane1d.json", ("stepper", "dt_over_eps2"), 1e300,
     "stepper.dt_over_eps2: t_end / dt = 8.000e+300 steps, more than"),
    # eta' would divide 0 by 0 at s = 0 and write NaN into row 0
    ("circle_radial.json", ("cutoff", "r_c"), 1e-200,
     "cutoff: r_c = 1e-200 out of range: r_c^2 is not a normal float"),
    # r_c ** 2 would raise OverflowError in CutoffSpec.profile
    ("plane1d.json", ("cutoff", "r_c"), 1e200,
     "cutoff: r_c = 1e+200 out of range: r_c^2 is not a normal float"),
    # |normal| would overflow to inf, and normal / inf is no unit vector
    ("plane1d.json", ("trajectory", "normal"), [1e200],
     "trajectory.normal: [1e+200] out of range"),
    # nonzero, but |normal|^2 underflows to 0
    ("plane1d.json", ("trajectory", "normal"), [1e-320],
     "trajectory.normal: [1e-320] out of range"),
    # radius0 ** 2 would raise OverflowError in the extinction time
    ("circle_radial.json", ("trajectory", "radius0"), 1e300,
     "trajectory: radius0 = 1e+300 out of range: radius0^2 is not a normal "
     "float"),
    # the plane misses the grid, so no row would measure anything; rejected
    # before the flatness rule divides its distance by eps
    ("plane1d.json", ("trajectory", "offset"), 1e308,
     "trajectory.offset: the plane misses the grid"),
    # the run works them out: npts from grid.h_over_eps, dt from
    # stepper.dt_over_eps2, and a static plane has no horizon
    ("plane1d.json", ("grid", "npts"), 160, "grid.npts: unknown key"),
    ("plane1d.json", ("stepper", "dt"), 1.25e-4, "stepper.dt: unknown key"),
    ("plane1d.json", ("trajectory", "t_max"), 10.0,
     "trajectory.t_max: unknown key"),
]


BAD_PLANS = [   # (plan, key path, value, message in the error)
    ("sweep_circle.json", ("epsilons",), [0.16, 0.08, 0.0],
     "sweep.epsilons: must be positive"),
    ("sweep_circle.json", ("epsilons",), [0.16, 0.08, -0.04],
     "sweep.epsilons: must be positive"),
    ("sweep_circle.json", ("epsilons",), [-0.04, 0.02, 0.01],
     "sweep.epsilons: must be positive"),
    # a member's rules name the plan key that sets its spacing
    ("sweep_circle.json", ("h_over_eps",), 0.1,
     "member eps=0.16: plan.h_over_eps = 0.1: need at least 8 points per "
     "axis"),
    ("initial_entropy_plane.json", ("h_over_eps",), 0.05,
     "member eps=0.16: plan.h_over_eps = 0.05: need at least 8 points per "
     "axis"),
    ("sweep_circle.json", ("h_over_eps",), 2,
     "member eps=0.16: plan.h_over_eps: layer resolution requires"),
    ("sweep_circle.json", ("dt_over_eps2",), 1e300,
     "member eps=0.16: plan.dt_over_eps2: t_end / dt = 7.813e+300 steps, "
     "more than"),
    # the base builds at a stand-in epsilon, so no member's spacing is
    # checked at the run document's default, and every problem is listed
    ("sweep_circle.json", ("epsilons",), [1e308, 0.08, 0.04, 0.02],
     "member eps=1e+308: plan.h_over_eps = 16: need at least 8 points per "
     "axis"),
    ("sweep_circle.json", ("epsilons",), [1e-300, 0.08, 0.04, 0.02],
     "member eps=1e-300: plan.h_over_eps = 16: too many points: "),
    # 2 half_width overflows whatever the spacing: the grid is to blame
    ("initial_entropy_plane.json", ("base", "grid", "half_width"), 1e308,
     "member eps=0.16: grid: npts not finite: half_width = 1e+308"),
    # a band is pinned: a plan may restate it, not set another
    ("sweep_circle.json", ("bands", "err_l1"), [0.0, 10.0],
     "plan.bands.err_l1: expected [0.8, 1.2], got [0.0, 10.0]"),
]


@pytest.mark.parametrize("values, message", [
    # no grid holds it, and the default center would be 1e18 floats
    ({("trajectory", "dim"): 1e18},
     "trajectory.dim: must be at most 343, got 1000000000000000000"),
    # gamma(d/2) in the radial cell volumes overflows from d = 344
    ({("trajectory", "dim"): 400, ("trajectory", "t_max"): 1e-5,
      ("stepper", "t_end"): 0, ("cutoff", "r_c"): 0.3},
     "trajectory.dim: must be at most 343, got 400"),
    ({("grid", "dim"): 400},
     "grid: radial mode needs 2 <= dim <= 343"),
    # named as such, not as a center of the wrong length
    ({("trajectory", "dim"): -5}, "trajectory: sphere needs dim >= 2"),
], ids=["dim_1e18", "dim_400", "grid_dim_400", "dim_-5"])
def test_unrepresentable_dim_is_config_error(tmp_path, capsys, values,
                                             message):
    doc = json.loads((CONFIGS / "circle_radial.json").read_text())
    del doc["trajectory"]["center"]
    for (section, key), value in values.items():
        doc[section][key] = value
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config",
                   write_json(tmp_path / "c.json", doc), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, path, value, key", BAD_VALUES + BAD_PLANS,
    ids=[case[3] for case in BAD_VALUES]
    + [f"{case[1][0]}={case[2]}" for case in BAD_PLANS])
def test_bad_value_is_config_error(tmp_path, capsys, name, path, value, key):
    doc = json.loads((CONFIGS / name).read_text())
    section = doc
    for part in path[:-1]:
        section = section[part]
    section[path[-1]] = value
    command, flag = ("sweep", "--plan") if "base" in doc \
        else ("simulate", "--config")
    out = tmp_path / "out"
    rc = cli.main([command, flag, write_json(tmp_path / "c.json", doc),
                   "--out", str(out)])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_one_value_keys_listed_with_the_other_problems(tmp_path, capsys):
    # potential.name and stepper.scheme each take one value; a wrong one is
    # reported in the same list as every other problem of the document
    doc = json.loads((CONFIGS / "plane1d.json").read_text())
    doc["potential"]["name"] = "poly"
    doc["stepper"]["scheme"] = "explicit"
    doc["diagnostics"]["cadence"] = 2.7
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config", write_json(tmp_path / "c.json", doc),
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "potential.name: expected 'standard', got 'poly'" in err
    assert "stepper.scheme: expected 'semi-implicit', got 'explicit'" in err
    assert "diagnostics.cadence: expected an integer, got 2.7" in err
    assert not out.exists()


def test_identities_without_shared_time_rejected(tmp_path, capsys):
    doc = json.loads((CONFIGS / "identities_plane.json").read_text())
    doc["diagnostics"]["cadence"] = 1000
    out = tmp_path / "out"
    rc = cli.main(["check-identities", "--config",
                   write_json(tmp_path / "c.json", doc), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "diagnostics.cadence" in err and "stepper.t_end" in err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, message", [
    # the refinement levels and the least order are pinned: a document may
    # restate them, not set another value (true is no number, though
    # True == 1.0)
    ("identities", "levels", 100, "identities.levels: expected 3, got 100"),
    # about 2e300 steps on the coarsest level, more than a range can hold
    ("stepper", "dt_over_eps2", 1e300,
     "stepper.dt_over_eps2: t_end / dt = 2.000e+300 steps, more than"),
    ("identities", "levels", 4, "identities.levels: expected 3, got 4"),
    ("identities", "min_order", 0.5,
     "identities.min_order: expected 1.0, got 0.5"),
    ("identities", "min_order", True,
     "identities.min_order: expected 1.0, got True"),
], ids=["levels", "dt_over_eps2", "levels=4", "min_order=0.5",
        "min_order=true"])
def test_identities_rejected_before_any_level_steps(
        tmp_path, monkeypatch, capsys, section, key, value, message):
    def no_run(*args, **kwargs):
        raise AssertionError("solver.run called")

    monkeypatch.setattr(phaselab.solver, "run", no_run)
    doc = json.loads((CONFIGS / "identities_plane.json").read_text())
    doc[section][key] = value
    out = tmp_path / "out"
    rc = cli.main(["check-identities", "--config",
                   write_json(tmp_path / "c.json", doc), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_identities_without_centered_rate_rejected(tmp_path, capsys):
    # all levels share step 30 of the coarsest, but there its neighbors are
    # the rows at steps 0 and 40, so no centered rate exists
    doc = json.loads((CONFIGS / "identities_plane.json").read_text())
    doc["diagnostics"]["cadence"] = 30
    out = tmp_path / "out"
    rc = cli.main(["check-identities", "--config",
                   write_json(tmp_path / "c.json", doc), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "diagnostics.cadence" in err and "centered rate" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name, cadence, message", [
    ("identities_circle.json", 100000, "stepper.t_end"),
    ("identities_plane.json", 30, "centered rate")])
def test_identities_cadence_rejected_before_any_run(tmp_path, monkeypatch,
                                                   capsys, name, cadence,
                                                   message):
    # the shared times and centered rates follow from each level's step
    # count, dt and cadence, so no level steps before the rejection
    def no_run(*args, **kwargs):
        raise AssertionError("solver.run called")

    monkeypatch.setattr(phaselab.solver, "run", no_run)
    doc = json.loads((CONFIGS / name).read_text())
    doc["diagnostics"]["cadence"] = cadence
    out = tmp_path / "out"
    rc = cli.main(["check-identities", "--config",
                   write_json(tmp_path / "c.json", doc), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "diagnostics.cadence" in err and message in err
    assert not out.exists()


def test_validate_calls_per_command(tmp_path, monkeypatch):
    calls = []
    validate = phaselab.solver.validate

    def counting(cfg):
        calls.append(cfg.epsilon)
        return validate(cfg)

    monkeypatch.setattr(phaselab.solver, "validate", counting)
    plan = json.loads((CONFIGS / "sweep_circle.json").read_text())
    plan["base"]["stepper"]["t_end"] = 0.001
    # a stepping sweep validates all four members before the first one
    # runs, so every member's issues are reported together, and again in
    # each member's solver.run: twice per member; an initial-entropy sweep
    # steps none, so once per member; check-identities validates its
    # coarsest level before it reads the levels' row times, then each of
    # the three levels in its solver.run
    runs = [("sweep", "--plan", write_json(tmp_path / "p.json", plan), 8),
            ("sweep", "--plan", str(CONFIGS / "initial_entropy_plane.json"),
             4),
            ("check-identities", "--config",
             str(CONFIGS / "identities_plane.json"), 4)]
    for i, (command, flag, path, expected) in enumerate(runs):
        calls.clear()
        rc = cli.main([command, flag, path, "--out", str(tmp_path / str(i))])
        assert rc in (0, 3)
        assert len(calls) == expected, (command, path)


REJECTED = [   # (config, values set, message); each value set is ignored
    ("sweep_circle.json", {("base", "epsilon"): 0.1},
     "epsilon: set per member by the plan"),
    ("sweep_circle.json", {("base", "grid", "h_over_eps"): 16},
     "grid.h_over_eps: set per member by the plan"),
    ("sweep_circle.json", {("base", "stepper", "dt_over_eps2"): 320},
     "stepper.dt_over_eps2: set per member by the plan"),
    # no run document has them: the plan works both out per member
    ("sweep_circle.json", {("base", "grid", "npts"): 141},
     "grid.npts: unknown key"),
    ("sweep_circle.json", {("base", "stepper", "dt"): 0.00128},
     "stepper.dt: unknown key"),
    ("plane1d.json", {("diagnostics", "snapshot_every"): 0},
     "diagnostics.snapshot_every: expected a positive integer, got 0"),
]


@pytest.mark.parametrize("name, values, message", REJECTED,
                         ids=[case[2].split(":")[0] for case in REJECTED])
def test_ignored_value_rejected(tmp_path, capsys, name, values, message):
    doc = json.loads((CONFIGS / name).read_text())
    for path, value in values.items():
        section = doc
        for part in path[:-1]:
            section = section[part]
        section[path[-1]] = value
    command, flag = ("sweep", "--plan") if "base" in doc \
        else ("simulate", "--config")
    out = tmp_path / "out"
    rc = cli.main([command, flag, write_json(tmp_path / "c.json", doc),
                   "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


READ_ELSEWHERE = [   # (command, config, values set, message)
    # the one well takes no coefficients, so no potential reads them
    ("simulate", "plane1d.json", {("potential", "coeffs"): [5, 1]},
     "potential.coeffs: unknown key"),
    # the profile table's range and step count, the cutoff's quadratic
    # factor and the weighted error's distance scale are constants, so no
    # command reads them (a sweep base's s0: the initial-entropy row below)
    ("simulate", "circle_radial.json", {("potential", "s_max"): 8.0},
     "potential.s_max: unknown key"),
    ("simulate", "circle_radial.json", {("potential", "n_samples"): 4096},
     "potential.n_samples: unknown key"),
    ("simulate", "circle_radial.json", {("cutoff", "c_quad"): 1.0},
     "cutoff.c_quad: unknown key"),
    ("simulate", "circle_radial.json", {("diagnostics", "s0"): 0.075},
     "diagnostics.s0: unknown key"),
    ("sweep", "sweep_circle.json", {("base", "potential", "s_max"): 8.0},
     "potential.s_max: unknown key"),
    ("sweep", "sweep_circle.json",
     {("base", "potential", "n_samples"): 4096},
     "potential.n_samples: unknown key"),
    ("sweep", "sweep_circle.json", {("base", "cutoff", "c_quad"): 1.0},
     "cutoff.c_quad: unknown key"),
    ("simulate", "plane1d.json", {("identities",): {"levels": 1}},
     "identities: read only by check-identities, not by simulate"),
    ("sweep", "sweep_circle.json", {("base", "identities"): {"levels": 3}},
     "identities: read only by check-identities, not by sweep"),
    ("sweep", "sweep_circle.json",
     {("base", "diagnostics", "snapshot_every"): 1},
     "diagnostics.snapshot_every: read only by simulate, not by sweep"),
    ("check-identities", "identities_plane.json",
     {("diagnostics", "snapshot_every"): 1},
     "diagnostics.snapshot_every: read only by simulate, "
     "not by check-identities"),
    # every mode spaces its members by h_over_eps, so the old
    # initial-entropy spacing key is read by no mode
    ("sweep", "initial_entropy_plane.json", {("initial_h_over_eps",): 16},
     "plan.initial_h_over_eps: unknown key"),
    ("sweep", "initial_entropy_plane.json", {("dt_over_eps2",): 20},
     "plan.dt_over_eps2: read only in mode 'full'"),
    ("sweep", "initial_entropy_plane.json",
     {("base", "stepper"): {"scheme": "semi-implicit"}},
     "stepper.scheme: read only in mode 'full'"),
    ("sweep", "initial_entropy_plane.json",
     {("base", "stepper"): {"t_end": 0.0}},
     "stepper.t_end: read only in mode 'full'"),
    ("sweep", "initial_entropy_plane.json",
     {("base", "diagnostics"): {"cadence": 10}},
     "diagnostics.cadence: read only in mode 'full'"),
    ("sweep", "initial_entropy_plane.json",
     {("base", "diagnostics"): {"compute_identity": False}},
     "diagnostics.compute_identity: read only in mode 'full'"),
    ("sweep", "initial_entropy_plane.json",
     {("base", "diagnostics"): {"s0": 0.1}},
     "diagnostics.s0: unknown key"),
    ("sweep", "sweep_circle.json", {("bands", "initial_entropy"): [100, 200]},
     "plan.bands.initial_entropy: read only in mode 'initial-entropy'"),
    ("sweep", "initial_entropy_plane.json", {("bands", "err_l1"): [0.8, 1.2]},
     "plan.bands.err_l1: read only in mode 'full'"),
    ("sweep", "initial_entropy_plane.json",
     {("bands", "rel_entropy"): [1.7, 2.3]},
     "plan.bands.rel_entropy: read only in mode 'full'"),
    ("sweep", "initial_entropy_plane.json",
     {("bands", "gronwall_factor"): 0.5},
     "plan.bands.gronwall_factor: read only in mode 'full'"),
]


@pytest.mark.parametrize(
    "command, name, values, message", READ_ELSEWHERE,
    ids=[f"{case[0]}-{case[3].split(':')[0]}" for case in READ_ELSEWHERE])
def test_value_another_reader_reads_rejected(tmp_path, capsys, command, name,
                                             values, message):
    doc = json.loads((CONFIGS / name).read_text())
    for path, value in values.items():
        section = doc
        for part in path[:-1]:
            section = section[part]
        section[path[-1]] = value
    flag = "--plan" if command == "sweep" else "--config"
    out = tmp_path / "out"
    rc = cli.main([command, flag, write_json(tmp_path / "c.json", doc),
                   "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_initial_entropy_reads_no_step_size(tmp_path, monkeypatch):
    # dt = eps^2/20 breaks the reaction limit eps^2/(2 max W'') of a well
    # with max W'' = 15.1, but the study never takes a step
    monkeypatch.setattr(phaselab.solver, "MAX_DDW", 15.1)
    doc = json.loads((CONFIGS / "initial_entropy_plane.json").read_text())
    out = tmp_path / "out"
    assert cli.main(["sweep", "--plan", write_json(tmp_path / "p.json", doc),
                     "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert 1.8 <= summary["slopes"]["initial_entropy"]["slope"] <= 2.2
    manifest = json.loads((out / "manifest.json").read_text())["config"]
    assert "dt_over_eps2" not in manifest
    assert manifest["h_over_eps"] == 16.0   # the mode's member spacing
    assert manifest["base"]["stepper"] == {}
    assert manifest["base"]["diagnostics"] == {}
    assert manifest["bands"] == {"initial_entropy": [1.8, 2.2]}


@pytest.mark.parametrize("value", [None, False])
def test_check_identities_computes_the_identity(tmp_path, capsys, value):
    # every refinement level computes the identity, so the manifest records
    # true for an unset key, and an explicit false is rejected
    doc = json.loads((CONFIGS / "identities_plane.json").read_text())
    doc["diagnostics"].pop("compute_identity")
    if value is not None:
        doc["diagnostics"]["compute_identity"] = value
    out = tmp_path / "out"
    rc = cli.main(["check-identities", "--config",
                   write_json(tmp_path / "c.json", doc), "--out", str(out)])
    if value is None:
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["diagnostics"]["compute_identity"] is True
    else:
        assert rc == 2
        assert "diagnostics.compute_identity: must be true" \
            in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("argv", [
    ["profile"],
    ["simulate", "--config", str(CONFIGS / "plane1d.json")],
    ["sweep", "--plan", str(CONFIGS / "initial_entropy_plane.json")],
    ["check-identities", "--config", str(CONFIGS / "identities_plane.json")],
], ids=lambda argv: argv[0])
def test_out_that_cannot_be_a_directory_rejected(tmp_path, monkeypatch,
                                                 capsys, argv, below):
    # the first of --out and its ancestors that exists must be a directory;
    # that is checked before the config is loaded, and nothing is written
    def no_load(path):
        raise AssertionError("config loaded")

    monkeypatch.setattr(config, "load_json", no_load)
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    out = blocker / "out" if below else blocker
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert f"--out: {blocker} is not a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"]
    assert blocker.read_text() == "kept"
