import json
from pathlib import Path

import numpy as np
import pytest

import phaselab.cli as cli
import phaselab.solver
from phaselab import config
from phaselab.potentials import ProfileError
from phaselab.snapshots import read_snapshot

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def read_csv(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_profile_standard(tmp_path, capsys):
    rc = cli.main(["profile", "standard", "--out", str(tmp_path)])
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


def test_profile_unknown_potential(tmp_path, capsys):
    rc = cli.main(["profile", "nosuch", "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown potential" in capsys.readouterr().err


def test_profile_rejects_small_s_max(tmp_path, capsys):
    rc = cli.main(["profile", "standard", "--s-max", "3", "--out",
                   str(tmp_path / "out")])
    assert rc == 2
    assert "s_max must be >= 5, got 3.0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_profile_failure_is_runtime_failure(tmp_path, monkeypatch, capsys):
    def fail(*a, **k):
        raise ProfileError("profile integration did not converge")

    monkeypatch.setattr(config, "solve_profile", fail)
    out = tmp_path / "out"
    for argv in (["profile", "standard"],
                 ["simulate", "--config", str(CONFIGS / "plane1d.json")]):
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert "runtime failure: profile integration did not converge" \
            in capsys.readouterr().err
    assert not out.exists()


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
    assert manifest["config"]["stepper"]["dt"] > 0
    assert manifest["clamp_count"] == 0

    snaps = sorted((out / "snapshots").glob("*.bin"))
    assert snaps
    values, meta = read_snapshot(snaps[-1])
    assert meta["epsilon"] == 0.05
    assert np.max(np.abs(values)) <= 1.0


def test_simulate_rejects_unresolved_layer(tmp_path, capsys):
    doc = json.loads((CONFIGS / "plane1d.json").read_text())
    doc["grid"]["npts"] = 20   # h = eps/1
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    rc = cli.main(["simulate", "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "layer resolution" in capsys.readouterr().err


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


def test_simulate_circle_sample(tmp_path):
    out = tmp_path / "circle"
    rc = cli.main(["simulate", "--config",
                   str(CONFIGS / "circle_radial.json"), "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out / "diagnostics.csv")
    final_err = float(rows[-1]["err_L1"])
    assert final_err <= 5 * 0.08


def test_sweep_reports_and_determinism(tmp_path):
    plan_path = small_plan(
        tmp_path, bands={"err_l1": [0.0, 10.0], "rel_entropy": [0.0, 10.0]})

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
    plan_path = small_plan(tmp_path, bands={"err_l1": [5.0, 6.0]})
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


def test_identity_levels_below_two_rejected(tmp_path, capsys):
    doc = json.loads((CONFIGS / "identities_plane.json").read_text())
    doc["identities"]["levels"] = 1
    out = tmp_path / "out"
    rc = cli.main(["check-identities", "--config",
                   write_json(tmp_path / "c.json", doc), "--out", str(out)])
    assert rc == 2
    assert "identities.levels" in capsys.readouterr().err
    assert not out.exists()


def test_shipped_configs_load():
    root = CONFIGS.parent
    paths = sorted(CONFIGS.glob("*.json")) \
        + sorted((root / "perfbench" / "workloads").glob("*.json"))
    assert len(paths) == 9
    for path in paths:
        doc = config.load_json(path)
        if "base" in doc:
            config.build_plan(doc)
        else:
            config.build_simulation(doc)
            config.build_identities(doc)


BAD_VALUES = [   # (config, key path, value, key named in the error)
    ("plane1d.json", ("epsilon",), "abc", "epsilon"),
    ("plane1d.json", ("cutoff", "r_c"), float("nan"), "cutoff.r_c"),
    ("plane1d.json", ("diagnostics", "cadence"), 2.7, "diagnostics.cadence"),
    ("plane1d.json", ("diagnostics", "compute_identity"), "no",
     "diagnostics.compute_identity"),
    ("plane1d.json", ("grid", "half_width"), [1], "grid.half_width"),
    ("plane1d.json", ("trajectory", "normal"), 5, "trajectory.normal"),
    ("sweep_circle.json", ("epsilons",), 0.1, "plan.epsilons"),
    ("sweep_circle.json", ("h_over_eps",), "x", "plan.h_over_eps"),
    ("plane1d.json", ("potential", "s_max"), 3, "s_max"),
    ("plane1d.json", ("stepper", "scheme"), "explicit", "stepper.scheme"),
    ("plane1d.json", ("stepper", "t_end"), -1, "stepper.t_end"),
    ("circle_radial.json", ("diagnostics", "s0"), 0,
     "diagnostics.s0: expected a positive number, got 0"),
    ("circle_radial.json", ("diagnostics", "s0"), -0.05,
     "diagnostics.s0: expected a positive number, got -0.05"),
]


@pytest.mark.parametrize("name, path, value, key", BAD_VALUES,
                         ids=[case[3] for case in BAD_VALUES])
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


def test_each_config_validated_once(tmp_path, monkeypatch):
    calls = []
    validate = phaselab.solver.validate

    def counting(cfg):
        calls.append(cfg.epsilon)
        return validate(cfg)

    monkeypatch.setattr(phaselab.solver, "validate", counting)
    plan = json.loads((CONFIGS / "sweep_circle.json").read_text())
    plan["base"]["stepper"]["t_end"] = 0.001
    runs = [("sweep", "--plan", write_json(tmp_path / "p.json", plan), 4),
            ("sweep", "--plan", str(CONFIGS / "initial_entropy_plane.json"),
             4),
            ("check-identities", "--config",
             str(CONFIGS / "identities_plane.json"), 3)]
    for i, (command, flag, path, expected) in enumerate(runs):
        calls.clear()
        rc = cli.main([command, flag, path, "--out", str(tmp_path / str(i))])
        assert rc in (0, 3)
        assert len(calls) == expected, (command, path)


def test_poly_manifest_records_coeffs(tmp_path):
    doc = json.loads((CONFIGS / "plane1d.json").read_text())
    doc["potential"] = {"name": "poly", "coeffs": [1, 0, -2, 0, 1]}
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config",
                     write_json(tmp_path / "c.json", doc),
                     "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["potential"]["coeffs"] == [1, 0, -2, 0, 1]


REJECTED = [   # (config, values set, message); each value set is ignored
    ("sweep_circle.json", {("base", "epsilon"): 0.1},
     "epsilon: set per member by the plan"),
    ("sweep_circle.json", {("base", "grid", "npts"): 141},
     "grid.npts: set per member by the plan"),
    ("sweep_circle.json", {("base", "stepper", "dt"): 0.00128},
     "stepper.dt: set per member by the plan"),
    ("plane1d.json", {("grid", "npts"): 160, ("grid", "h_over_eps"): 8},
     "grid.h_over_eps: set either grid.npts or grid.h_over_eps, not both"),
    ("plane1d.json", {("stepper", "dt"): 1.25e-4,
                      ("stepper", "dt_over_eps2"): 20},
     "stepper.dt_over_eps2: set either stepper.dt or stepper.dt_over_eps2"),
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
    ("simulate", "plane1d.json", {("potential", "coeffs"): [5, 1]},
     "potential.coeffs: read only by potential 'poly', not by 'standard'"),
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
    ("sweep", "sweep_circle.json", {("initial_h_over_eps",): 16},
     "plan.initial_h_over_eps: read only in mode 'initial-entropy'"),
    ("sweep", "initial_entropy_plane.json", {("h_over_eps",): 8},
     "plan.h_over_eps: read only in mode 'full'"),
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


def test_initial_entropy_reads_no_step_size(tmp_path):
    # dt = eps^2/20 breaks this potential's reaction limit eps^2/(2 max W'')
    # with max W'' ~ 15.1, but the study never takes a step
    doc = json.loads((CONFIGS / "initial_entropy_plane.json").read_text())
    doc["base"]["potential"] = {"name": "poly",
                                "coeffs": [1, 0, -1, 0, -1, 0, 1]}
    out = tmp_path / "out"
    assert cli.main(["sweep", "--plan", write_json(tmp_path / "p.json", doc),
                     "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert 1.8 <= summary["slopes"]["initial_entropy"]["slope"] <= 2.2
    manifest = json.loads((out / "manifest.json").read_text())["config"]
    assert "dt_over_eps2" not in manifest
    assert manifest["base"]["stepper"] == {}
    assert list(manifest["base"]["diagnostics"]) == ["s0"]
