"""Byte lock on the numerical outputs.

Each case runs one command through `cli.main` and compares the sha256 of
its numerical output with the digest recorded when the lock was set.  The
profile table is locked as well: every other output starts from it, and so
are the filled documents of the shipped configs and workloads, which the
runs are built from.  The digests hold for the numpy and scipy the project
is tested with (numpy 2.4.6, scipy 1.17.1 on x86-64): another build may
move the last bit of a sum.  A change that moves bits on purpose updates
the digest here and says so in CHANGES.md; any other change must leave
them as they are.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

import phaselab.cli as cli
from phaselab import config, grids

ROOT = Path(__file__).resolve().parent.parent


def shipped(command, name):
    """The argv of `command` on the shipped config or plan `name`."""
    flag = "--plan" if command == "sweep" else "--config"
    return lambda tmp: [command, flag, str(ROOT / "configs" / name)]


def cut(command, source, t_end):
    """The argv of `command` on the JSON input `source` (relative to the
    repository root) with its stepper.t_end cut to `t_end`."""
    flag = "--plan" if command == "sweep" else "--config"

    def argv(tmp_path):
        doc = json.loads((ROOT / source).read_text())
        run_doc = doc["base"] if command == "sweep" else doc
        run_doc["stepper"]["t_end"] = t_end
        path = tmp_path / Path(source).name
        path.write_text(json.dumps(doc))
        return [command, flag, str(path)]
    return argv


# simulate on the full-grid circle workload with identity rows
full2d_short = cut("simulate",
                   "perfbench/workloads/circle_full2d_identity.json", 0.01)


def sweep_member_short(tmp_path):
    """simulate on the circle sweep's eps = 0.04 member cut to t = 0.02: a
    radial run whose step band is narrower than its line."""
    plan = json.loads((ROOT / "configs" / "sweep_circle.json").read_text())
    doc = plan["base"]
    doc["epsilon"] = 0.04
    doc["grid"]["h_over_eps"] = plan["h_over_eps"]
    doc["stepper"]["dt_over_eps2"] = plan["dt_over_eps2"]
    doc["stepper"]["t_end"] = 0.02
    path = tmp_path / "sweep_member_short.json"
    path.write_text(json.dumps(doc))
    return ["simulate", "--config", str(path)]


# cases whose run must step a band narrower than the grid
NARROW_BAND = {"simulate-sweep_member_short"}

# case: (argv without --out, output file, sha256)
CASES = {
    "simulate-plane1d": (
        shipped("simulate", "plane1d.json"), "diagnostics.csv",
        "f1fecfe7bffdf94d30f6cd995db024e9f4007b5387831d6bcd496274196816dd"),
    "simulate-circle_radial": (
        shipped("simulate", "circle_radial.json"), "diagnostics.csv",
        "b996bdbd2baf6debc19b1750776f3d500eaa3dff8ccdb65ea63c98a881cfeef6"),
    "check-identities-plane": (
        shipped("check-identities", "identities_plane.json"),
        "identities.json",
        "eaf819fe3cd0635c432f235730a9f6cb5763dbe83b7e6a06274c32bf3a8102b8"),
    "simulate-circle_full2d_short": (
        full2d_short, "diagnostics.csv",
        "53b10d0cf9b580b38ffe7243b3f7b2f403e1344e9f79b0bffd1ccb6fae6cbe21"),
    "simulate-circle_full2d_short-field0": (
        full2d_short, "snapshots/field_00000.bin",
        "087070a3150a55297208d6133db13d3bd667fda428ffc728bba9e7f1aae5a5c2"),
    "simulate-sweep_member_short": (
        sweep_member_short, "diagnostics.csv",
        "e3a54e8489dcfeea1642f69038251114e698501fc29e0e03eab59a4157972a98"),
    "sweep-circle_short": (
        cut("sweep", "configs/sweep_circle.json", 0.01), "summary.json",
        "3a19baca062b3cfc34d34a65417c2ec3bf052b67bde77bce1d7f05e137c37528"),
    "check-identities-circle_short": (
        cut("check-identities", "perfbench/workloads/identities_circle.json",
            0.01),
        "identities.json",
        "d60f205886e152136651c18899c0b8426726d0573b542bc932cdd4758172fd09"),
    "sweep-initial_entropy_plane": (
        shipped("sweep", "initial_entropy_plane.json"), "summary.json",
        "5e06d7486983f39c6d1c54aad4a229147fb3ea178720ab9da797968b6961eac4"),
    "profile-standard": (
        lambda tmp: ["profile"], "profile_standard.csv",
        "f1dcb8258d3ffae39cdd9d7f28f3924496fcca72f9954d1d209fec007c6cb708"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_output_digest(tmp_path, capsys, case):
    argv, output, digest = CASES[case]
    out = tmp_path / "out"
    rc = cli.main(argv(tmp_path) + ["--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    if case in NARROW_BAND:   # narrower than the grid the manifest rebuilds
        manifest = json.loads((out / "manifest.json").read_text())
        cfg, _ = config.build_simulation(manifest["config"], "simulate")
        assert manifest["band_nodes_max"] < cfg.grid.npts
    got = hashlib.sha256((out / output).read_bytes()).hexdigest()
    assert got == digest, (
        f"{case}: {output} has sha256 {got}, the lock records {digest}. "
        f"The recorded digests belong to numpy 2.4.6 and scipy 1.17.1 "
        f"(running numpy {np.__version__}, scipy {scipy.__version__}). A "
        f"change that moves these bits on purpose updates the digest and "
        f"says so in CHANGES.md.")


def test_sweep_member_places_its_band_rarely(tmp_path, capsys, monkeypatch):
    # the radial band factors its rows anew at each placing and keeps no
    # buffers, a design for rare placings: this member's 4,000 steps place
    # it twice, and at most one placing per 1,000 steps is allowed
    place, calls = grids._RadialBand.place, []

    def counted(band, u):
        calls.append(None)
        return place(band, u)
    monkeypatch.setattr(grids._RadialBand, "place", counted)
    out = tmp_path / "out"
    rc = cli.main(sweep_member_short(tmp_path) + ["--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    n_steps = json.loads((out / "manifest.json").read_text())["n_steps"]
    assert n_steps == 4000
    assert 1 <= len(calls) <= n_steps // 1000, len(calls)


# sha256 of every shipped config's and workload's filled document, each
# built as the command that runs it builds it: a moved default changes it
FILLED_DOCUMENTS = (
    "23f5349079efc1cafcdf827c8597674baa9e409cae935e41c96352b943b5bfd1")


def test_filled_documents_digest():
    filled = {}
    for path in sorted([*(ROOT / "configs").glob("*.json"),
                        *(ROOT / "perfbench" / "workloads").glob("*.json")]):
        doc = json.loads(path.read_text())
        command = "check-identities" if "identities" in doc else "simulate"
        filled[f"{path.parent.name}/{path.name}"] = (
            config.build_plan(doc) if "base" in doc
            else config.build_simulation(doc, command))[1]
    got = hashlib.sha256(
        json.dumps(filled, sort_keys=True).encode()).hexdigest()
    assert got == FILLED_DOCUMENTS, (
        f"the filled documents have sha256 {got}, the lock records "
        f"{FILLED_DOCUMENTS}: a default or a filled key moved")
