"""Command-line front end.

Subcommands: profile, simulate, sweep, check-identities.  Exit codes:
0 = all checks passed, 1 = runtime failure, 2 = invalid configuration,
3 = checks ran but a configured band was violated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import __version__, config, diagnostics, experiments, snapshots, solver
from .potentials import ProfileError, normalization_integral
from .solver import BlowUpError, ConfigError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_BANDS = 3

PLOT_SCRIPT = """\
# gnuplot script over the diagnostics CSV emitted next to this file
set datafile separator ','
set key autotitle columnhead
set terminal push

set xlabel 't'
set logscale y
plot 'diagnostics.csv' using 1:4 with lines title 'relative entropy'
pause -1 'relative entropy; press enter'
plot 'diagnostics.csv' using 1:3 with lines title 'dissipation'
pause -1 'dissipation; press enter'
plot 'diagnostics.csv' using 1:11 with lines title 'interface L1 error'
pause -1 'interface error; press enter'
set terminal pop
"""


def _write_manifest(out_dir: Path, command: str, config_path, materialized,
                    artifacts, timings, extra=None):
    manifest = {
        "schema_version": 1,
        "tool": "phaselab",
        "version": __version__,
        "command": command,
        "config_path": str(config_path) if config_path else None,
        "config": materialized,
        "artifacts": sorted(str(a) for a in artifacts),
        "timings": timings,
    }
    if extra:
        manifest.update(extra)
    tmp = out_dir / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, out_dir / "manifest.json")


def cmd_profile(args) -> int:
    pot, table = config.build_profile(args.name, args.coeffs, args.s_max,
                                      args.n)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"profile_{pot.name}.csv"
    lines = ["s,theta,dtheta"]
    for s, th, dth in zip(table.s, table.theta, table.dtheta):
        lines.append(f"{float(s)!r},{float(th)!r},{float(dth)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    norm = normalization_integral(pot.w)
    print(f"wrote {path}")
    print(f"normalization integral of sqrt(2W) over [-1,1]: {norm:.10f} "
          f"(target 2)")
    print(f"tail bound 1 - theta(s_max): {table.tail_bound:.3e}")
    return EXIT_OK


def _run_simulation(cfg, out_dir: Path, snapshot_every):
    res = solver.run(cfg, keep_snapshots=snapshot_every is not None)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = []

    csv_path = out_dir / "diagnostics.csv"
    diagnostics.write_csv(csv_path, res.breakdowns)
    artifacts.append(csv_path.name)

    plot_path = out_dir / "plots.gp"
    plot_path.write_text(PLOT_SCRIPT, encoding="utf-8")
    artifacts.append(plot_path.name)

    snap_dir = out_dir / "snapshots"
    pairs = []
    if snapshot_every is not None:
        pairs = res.snapshots[::max(1, int(snapshot_every))]
    elif res.final_field is not None:
        pairs = [(res.times[-1], res.final_field)]
    if pairs:
        snap_dir.mkdir(exist_ok=True)
        for idx, (t, field) in enumerate(pairs):
            p = snap_dir / f"field_{idx:05d}.bin"
            sidecar = snapshots.write_snapshot(
                p, field, h=cfg.grid.h, half_width=cfg.grid.half_width,
                epsilon=cfg.epsilon, t=float(t), grid_mode=cfg.grid.mode,
                dim=cfg.grid.dim)
            artifacts.append(f"snapshots/{p.name}")
            artifacts.append(f"snapshots/{sidecar.name}")
    return res, artifacts


def cmd_simulate(args) -> int:
    doc = config.load_json(args.config)
    cfg, materialized = config.build_simulation(doc)
    out_dir = Path(args.out)
    started = time.perf_counter()
    res, artifacts = _run_simulation(
        cfg, out_dir, materialized["diagnostics"]["snapshot_every"])
    wall = time.perf_counter() - started
    _write_manifest(out_dir, "simulate", args.config, materialized,
                    artifacts, {"wall_s": wall, "run_wall_s": res.wall_s},
                    extra={"clamp_count": res.clamp_count,
                           "n_steps": res.n_steps})
    last = res.breakdowns[-1]
    print(f"completed {res.n_steps} steps to t = {res.times[-1]:.6g}; "
          f"final relative entropy {last.rel_entropy:.6e}, "
          f"interface L1 error {last.err_l1:.6e}")
    print(f"outputs in {out_dir}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    doc = config.load_json(args.plan)
    plan, materialized = config.build_plan(doc)
    out_dir = Path(args.out)
    started = time.perf_counter()

    if materialized["mode"] == "initial-entropy":
        report, runs = experiments.initial_entropy_study(plan), []
    else:
        result = experiments.run_sweep(plan)
        report, runs = result.report, result.runs

    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = []
    for eps, run_res in zip(plan.epsilons, runs):
        name = f"diagnostics_eps_{eps:g}.csv"
        diagnostics.write_csv(out_dir / name, run_res.breakdowns)
        artifacts.append(name)

    summary = out_dir / "summary.json"
    summary.write_text(
        json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    artifacts.append(summary.name)
    _write_manifest(out_dir, "sweep", args.plan, materialized, artifacts,
                    {"wall_s": time.perf_counter() - started})

    ok = all(report.pass_flags.values())
    for name, fit in report.slopes.items():
        print(f"slope[{name}] = {fit.slope:.4f} "
              f"(residual {fit.residual_norm:.2e})")
    if report.gronwall_constants:
        print("growth constants per eps: "
              + ", ".join(f"{c:.3f}" for c in report.gronwall_constants))
    print(f"pass flags: {report.pass_flags}")
    return EXIT_OK if ok else EXIT_BANDS


def cmd_check_identities(args) -> int:
    doc = config.load_json(args.config)
    cfg, materialized = config.build_simulation(doc)
    levels, min_order = config.build_identities(doc)
    out_dir = Path(args.out)
    started = time.perf_counter()
    report = experiments.check_identities(cfg, levels=levels)

    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "identities.json"
    payload = report.to_json_dict()
    payload["min_order_required"] = min_order
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    _write_manifest(out_dir, "check-identities", args.config, materialized,
                    [path.name], {"wall_s": time.perf_counter() - started})

    for lv in report.levels:
        print(f"h = {lv.h:.5g}, dt = {lv.dt:.5g}: identity residual "
              f"{lv.identity_residual:.3e}, dissipation residual "
              f"{lv.dissipation_residual:.3e}")
    print(f"identity orders: {['%.2f' % o for o in report.identity_orders]}")
    print(f"dissipation orders: "
          f"{['%.2f' % o for o in report.dissipation_orders]}")
    ok = report.min_order() >= min_order
    print(f"minimum observed order {report.min_order():.2f} "
          f"(required {min_order:.2f}): {'ok' if ok else 'VIOLATED'}")
    return EXIT_OK if ok else EXIT_BANDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaselab",
        description="Phase-field interface laboratory: simulate, diagnose, "
                    "and rate-check interface motion against exact "
                    "mean-curvature benchmarks.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="tabulate an equilibrium profile")
    p.add_argument("name", help="potential name (standard, poly)")
    p.add_argument("--coeffs", type=float, nargs="+", default=None,
                   help="polynomial coefficients for the poly potential")
    p.add_argument("--s-max", type=float, default=8.0)
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_profile)

    for name, func, cfg_flag in (
            ("simulate", cmd_simulate, "--config"),
            ("check-identities", cmd_check_identities, "--config"),
            ("sweep", cmd_sweep, "--plan")):
        p = sub.add_parser(name)
        p.add_argument(cfg_flag, required=True,
                       dest=cfg_flag.lstrip("-").replace("-", "_"))
        p.add_argument("--out", required=True)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("invalid configuration:", file=sys.stderr)
        for msg in exc.messages:
            print(f"  - {msg}", file=sys.stderr)
        return EXIT_CONFIG
    except (BlowUpError, ProfileError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
