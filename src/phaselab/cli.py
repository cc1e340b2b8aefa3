"""Command-line front end.

Subcommands: profile, simulate, sweep, check-identities.  Exit codes:
0 = all checks passed, 1 = runtime failure, 2 = invalid configuration,
3 = checks ran but a configured band was violated.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__, config, diagnostics, experiments, snapshots, solver
from .potentials import normalization_integral, solve_profile
from .solver import BlowUpError, ConfigError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_BANDS = 3

# (glibc mallopt parameter from malloc.h, value) pairs set by main
_HEAP_OPTIONS = ((-3, 32 << 20),    # M_MMAP_THRESHOLD
                 (-1, 64 << 20))    # M_TRIM_THRESHOLD

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


def _keep_freed_heap() -> bool:
    """Have the C library's malloc serve arrays below 32 MB from its heap
    and keep up to 64 MB of freed heap for reuse; True if both took.

    A full-grid diagnostic row allocates and frees whole-grid temporaries.
    By default glibc maps each of them afresh or hands the freed heap back
    once the row ends, and the next row faults the memory in again page by
    page, zero-filled: the 33 rows of the 280² identity workload take
    54,240 minor faults without these options and 7,160 with them, about
    1,430 a row, and about 0.09 s more system time.  Without mallopt
    nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    took = [mallopt(param, value) == 1 for param, value in _HEAP_OPTIONS]
    return all(took)


def _write_manifest(out_dir: Path, command: str, config_path, filled,
                    artifacts, timings, extra=None):
    manifest = {
        "schema_version": 1,
        "tool": "phaselab",
        "version": __version__,
        "command": command,
        "config_path": str(config_path) if config_path else None,
        "config": filled,
        "artifacts": sorted(str(a) for a in artifacts),
        "timings": timings,
        # the peak resident set so far; ru_maxrss counts KiB on Linux
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if extra:
        manifest.update(extra)
    tmp = out_dir / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, out_dir / "manifest.json")


def _run_record(res) -> dict:
    """Step and clamp counts, max |u|, the widest step band and wall times
    of one `solver.run`: a sweep member's or an identity level's manifest
    entry, and the run part of a `simulate` manifest."""
    return {"n_steps": res.n_steps, "clamp_count": res.clamp_count,
            "max_abs_u": res.max_abs_u, "run_wall_s": res.wall_s,
            "setup_s": res.setup_s, "rows_s": res.rows_s,
            "step_s": res.step_s, "identity_s": res.identity_s,
            "steps_per_s": res.n_steps / res.step_s if res.step_s > 0 else 0.0,
            "band_nodes_max": res.band_nodes_max}


def cmd_profile(args) -> int:
    table = solve_profile()
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "profile_standard.csv"
    lines = ["s,theta,dtheta"]
    for s, th, dth in zip(table.s, table.theta, table.dtheta):
        lines.append(f"{float(s)!r},{float(th)!r},{float(dth)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    norm = normalization_integral()
    print(f"wrote {path}")
    print(f"normalization integral of sqrt(2W) over [-1,1]: {norm:.10f} "
          f"(target 2)")
    print(f"tail bound 1 - theta(s_max): {table.tail_bound:.3e}")
    return EXIT_OK


def _run_simulation(cfg, out_dir: Path, snapshot_every):
    """Run cfg and write its outputs into out_dir.

    The snapshots, the field of every snapshot_every-th row or else of the
    last row, are written as the run reaches their rows, into a staging
    directory made in out_dir or in its nearest existing ancestor.  They
    move under out_dir/snapshots only once the run has succeeded, and the
    staging directory is removed whatever happens, so a rejected or failed
    run leaves the file system as it found it.
    """
    stage = Path(tempfile.mkdtemp(prefix=".phaselab-snapshots-",
                                  dir=_nearest_existing(out_dir)))
    names, last_row = [], None

    def sink(row, t, field):
        nonlocal last_row
        if row == 0:   # the run calls its sink once cfg is validated
            last_row = len(cfg.row_steps()) - 1
        if row % snapshot_every if snapshot_every else row != last_row:
            return
        path = stage / f"field_{len(names) // 2:05d}.bin"   # 2 files each
        sidecar = snapshots.write_snapshot(
            path, field, h=cfg.grid.h, half_width=cfg.grid.half_width,
            epsilon=cfg.epsilon, t=float(t), grid_mode=cfg.grid.mode,
            dim=cfg.grid.dim)
        names.extend((path.name, sidecar.name))

    try:
        res = solver.run(cfg, sink=sink)
        out_dir.mkdir(parents=True, exist_ok=True)
        snap_dir = out_dir / "snapshots"
        snap_dir.mkdir(exist_ok=True)
        for name in names:
            os.replace(stage / name, snap_dir / name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)

    csv_path = out_dir / "diagnostics.csv"
    diagnostics.write_csv(csv_path, res.rows)
    plot_path = out_dir / "plots.gp"
    plot_path.write_text(PLOT_SCRIPT, encoding="utf-8")
    artifacts = [csv_path.name, plot_path.name]
    artifacts += [f"snapshots/{name}" for name in names]
    return res, artifacts


def _nearest_existing(path: Path) -> Path:
    """path itself if it exists, else its nearest ancestor that does."""
    return next(p for p in (path, *path.parents) if p.exists())


def cmd_simulate(args) -> int:
    doc = config.load_json(args.config)
    build_start = time.perf_counter()
    cfg, filled = config.build_simulation(doc, "simulate")
    started = time.perf_counter()
    res, artifacts = _run_simulation(
        cfg, args.out, filled["diagnostics"].get("snapshot_every"))
    wall = time.perf_counter() - started
    record = _run_record(res)
    timings = {"build_s": started - build_start, "wall_s": wall}
    for key in ("run_wall_s", "setup_s", "rows_s", "step_s", "identity_s"):
        timings[key] = record.pop(key)
    _write_manifest(args.out, "simulate", args.config, filled,
                    artifacts, timings, extra=record)
    last = res.rows[-1]
    print(f"completed {res.n_steps} steps to t = {last['t']:.6g}; "
          f"final relative entropy {last['rel_entropy']:.6e}, "
          f"interface L1 error {last['err_l1']:.6e}")
    print(f"outputs in {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    doc = config.load_json(args.plan)
    build_start = time.perf_counter()
    plan, filled = config.build_plan(doc)
    started = time.perf_counter()
    result = plan.run()
    report, runs = result.report, result.runs

    args.out.mkdir(parents=True, exist_ok=True)
    artifacts = []
    for eps, run_res in zip(plan.epsilons, runs):
        name = f"diagnostics_eps_{eps:g}.csv"
        diagnostics.write_csv(args.out / name, run_res.rows)
        artifacts.append(name)

    summary = args.out / "summary.json"
    summary.write_text(
        json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    artifacts.append(summary.name)
    members = [{"epsilon": eps, **_run_record(run_res)}
               for eps, run_res in zip(plan.epsilons, runs)]
    _write_manifest(args.out, "sweep", args.plan, filled, artifacts,
                    {"build_s": started - build_start,
                     "wall_s": time.perf_counter() - started},
                    extra={"members": members})

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
    build_start = time.perf_counter()
    cfg, filled = config.build_simulation(doc, "check-identities")
    min_order = float(filled["identities"]["min_order"])
    started = time.perf_counter()
    report = experiments.check_identities(
        cfg, levels=int(filled["identities"]["levels"]))

    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "identities.json"
    payload = report.to_json_dict()
    payload["min_order_required"] = min_order
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    levels = [{"h": lv.h, **_run_record(run_res)}
              for lv, run_res in zip(report.levels, report.runs)]
    _write_manifest(args.out, "check-identities", args.config, filled,
                    [path.name], {"build_s": started - build_start,
                                  "wall_s": time.perf_counter() - started},
                    extra={"levels": levels})

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

    p = sub.add_parser("profile", help="tabulate the equilibrium profile")
    p.add_argument("--out", type=Path, default=".")
    p.set_defaults(func=cmd_profile)

    for name, func, cfg_flag in (
            ("simulate", cmd_simulate, "--config"),
            ("check-identities", cmd_check_identities, "--config"),
            ("sweep", cmd_sweep, "--plan")):
        p = sub.add_parser(name)
        p.add_argument(cfg_flag, required=True,
                       dest=cfg_flag.lstrip("-").replace("-", "_"))
        p.add_argument("--out", type=Path, required=True)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _keep_freed_heap()
    try:   # an --out that cannot become a directory, before any work
        if not (found := _nearest_existing(args.out)).is_dir():
            raise ConfigError([f"--out: {found} is not a directory"])
        return args.func(args)
    except ConfigError as exc:
        print("invalid configuration:", file=sys.stderr)
        for msg in exc.messages:
            print(f"  - {msg}", file=sys.stderr)
        return EXIT_CONFIG
    except (BlowUpError, ImportError, np.linalg.LinAlgError,
            MemoryError) as exc:
        # ImportError: a scipy build without the compiled kernel the grid
        # solves with; LinAlgError: a radial operator that fails to factor;
        # MemoryError: a field or a row list larger than the memory (bare,
        # with no message, when a Python list fails)
        print(f"runtime failure: {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
