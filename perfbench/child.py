"""One benchmark repeat: run a phaselab CLI command through
phaselab.cli.main in this fresh process and write what was observed to a
JSON file.

    python3 perfbench/child.py MODE RESULT_JSON CLI_ARG...

MODE is one of

    full   run the command; only solver.make_stepper is hooked, to note when
           the first time step starts and how many cell updates follow;
    setup  the same hook, but leave the process when the first step starts;
    trace  run the command with a span around every call into the layers'
           entry points, then reduce the spans to per-layer figures.

Times are CLOCK_MONOTONIC nanoseconds (time.monotonic_ns), the clock the
parent process reads too, so the parent can subtract its spawn time.
"""

from __future__ import annotations

import time

ENTRY_NS = time.monotonic_ns()    # before any import that takes time

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Spans over which setup work is summed once, however they nest.
SOLVER_SETUP = ("solver.validate", "solver.initial_data")
CONFIG_BUILD = ("config.build_plan", "config.build_simulation")
WRITERS = ("diagnostics.write_csv", "snapshots.write_snapshot",
           "cli._write_manifest")
# The spans that account for a traced run: setup, the run (steps, loop self
# time, rows) and the writers.  Import time is added from the child's clock.
COVERING = CONFIG_BUILD + SOLVER_SETUP + ("solver.run",) + WRITERS
WRAPPER_CALLS = 200_000   # calls timed to estimate the cost of one span


class Tracer:
    """Spans kept in memory, in flat arrays, until the command has ended.

    Span i has a name id, the index of the span open when it began (-1 at
    the root), and start and end times.
    """

    def __init__(self):
        self.names: list = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open = [-1]

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        open_spans = self._open
        clock = time.monotonic_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_spans[-1])
            start.append(0)
            end.append(0)
            open_spans.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                open_spans.pop()

        traced.__wrapped__ = fn
        return traced


class SpanTable:
    """Numpy views of a finished trace, with per-span self times."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32)
        self.start = np.frombuffer(tracer.start, dtype=np.int64)
        self.dur = np.frombuffer(tracer.end, dtype=np.int64) - self.start
        inner = self.parent >= 0
        child_ns = np.bincount(self.parent[inner], weights=self.dur[inner],
                               minlength=len(self.dur))
        self.self_ns = self.dur - child_ns

    def mask(self, *names):
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_id, ids)

    def total_ms(self, *names, self_time=False) -> float:
        col = self.self_ns if self_time else self.dur
        return float(col[self.mask(*names)].sum()) / 1e6

    def outer_ms(self, names) -> float:
        """Summed duration of the spans named in `names` that have no
        ancestor among them (nested calls are counted once)."""
        name_set = {self.names.index(n) for n in names if n in self.names}
        total = 0
        for i in np.flatnonzero(self.mask(*names)):
            p = self.parent[i]
            while p >= 0 and self.name_id[p] not in name_set:
                p = self.parent[p]
            if p < 0:
                total += int(self.dur[i])
        return total / 1e6


def wrapper_cost_ns() -> float:
    """Cost of one span: a wrapped no-op call minus a bare one, per call."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    clock = time.perf_counter_ns
    t0 = clock()
    for _ in range(WRAPPER_CALLS):
        noop()
    t1 = clock()
    for _ in range(WRAPPER_CALLS):
        traced()
    t2 = clock()
    return max((t2 - t1) - (t1 - t0), 0) / WRAPPER_CALLS


class Probe:
    """What every mode records: the first step and the work that follows."""

    def __init__(self, mode: str, result_path: str):
        self.mode = mode
        self.result_path = result_path
        self.first_step_ns = None
        self.cell_updates = 0
        self.runs = []        # (epsilon, clamp_count) per traced run

    def hook_make_stepper(self, solver, tracer):
        make = solver.make_stepper

        def make_stepper(cfg):
            step = make(cfg)
            self.cell_updates += math.prod(cfg.grid.shape) * cfg.steps()
            if tracer is not None:
                step = tracer.wrap("solver.step", step)
            if self.first_step_ns is None:
                self.first_step_ns = time.monotonic_ns()
                if self.mode == "setup":
                    self.write({"exit": 0})
                    os._exit(0)
            return step

        solver.make_stepper = make_stepper

    def write(self, extra: dict):
        doc = {"first_step_ns": self.first_step_ns,
               "cell_updates": self.cell_updates}
        doc.update(extra)
        with open(self.result_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install_trace(tracer: Tracer, probe: Probe, modules) -> None:
    cli, config, diagnostics, experiments, grids, snapshots, solver = modules
    targets = [
        (solver, "validate"), (solver, "initial_data"),
        (solver, "make_stepper"), (solver, "count_excursions"),
        (diagnostics, "relative_entropy"), (diagnostics, "derived_fields"),
        (diagnostics, "write_csv"), (snapshots, "write_snapshot"),
        (config, "solve_profile"), (config, "build_plan"),
        (config, "build_simulation"), (experiments, "run_sweep"),
        (experiments, "check_identities"), (cli, "_write_manifest"),
    ]
    for module, attr in targets:
        layer = module.__name__.rsplit(".", 1)[-1]
        setattr(module, attr,
                tracer.wrap(f"{layer}.{attr}", getattr(module, attr)))
    # the name diagnostics looks up, so the span is geometry's own work
    diagnostics.extended_fields = tracer.wrap("geometry.extended_fields",
                                              diagnostics.extended_fields)
    grids.Grid.integrate = tracer.wrap("grids.integrate", grids.Grid.integrate)
    experiments.SweepPlan.validate = tracer.wrap(
        "experiments.plan_validate", experiments.SweepPlan.validate)

    run = tracer.wrap("solver.run", solver.run)

    def noted_run(cfg, *args, **kwargs):
        res = run(cfg, *args, **kwargs)
        probe.runs.append((cfg.epsilon, res.clamp_count))
        return res

    solver.run = noted_run


def reduce_trace(tracer: Tracer, probe: Probe, import_ns: int,
                 end_ns: int) -> dict:
    """Per-layer figures of one traced command, the work it did, the time
    its spans cover and when the command returned (the parent divides the
    covered time by the time from its spawn to that return)."""
    t = SpanTable(tracer)
    step = t.dur[t.mask("solver.step")]
    rows = t.mask("diagnostics.relative_entropy")
    n_rows = int(rows.sum())
    integrate_in_rows = t.mask("grids.integrate") & np.isin(
        t.parent, np.flatnonzero(rows))
    excursions = t.mask("solver.count_excursions")
    run_spans = np.flatnonzero(t.mask("solver.run"))
    cli_self = t.total_ms("cli.main", "experiments.run_sweep",
                          "experiments.check_identities",
                          "experiments.plan_validate", self_time=True)
    members = {}
    for (eps, _), i in zip(probe.runs, run_spans):
        key = f"experiments.member_s.eps{eps:g}"
        members[key] = members.get(key, 0.0) + float(t.dur[i]) / 1e9
    per_run_s = [float(t.dur[i]) / 1e9 for i in run_spans]
    n_steps = max(len(step), 1)
    layer = {
        "solver.step_us.p50": float(np.percentile(step, 50)) / 1e3,
        "solver.step_us.p99": float(np.percentile(step, 99)) / 1e3,
        "solver.step_ns_per_cell": float(step.sum()) / probe.cell_updates,
        "solver.loop_self_us_per_step":
            t.total_ms("solver.run", self_time=True) * 1e3 / n_steps,
        "solver.setup_ms": t.outer_ms(SOLVER_SETUP),
        "solver.run_s.max": max(per_run_s),
        "potentials.count_excursions_us":
            float(t.dur[excursions].mean()) / 1e3,
        "potentials.solve_profile_ms": t.total_ms("config.solve_profile"),
        "config.build_ms": t.outer_ms(CONFIG_BUILD),
        "diagnostics.row_ms.p50": float(np.percentile(t.dur[rows], 50)) / 1e6,
        "diagnostics.row_self_ms":
            t.total_ms("diagnostics.relative_entropy", self_time=True)
            / n_rows,
        "diagnostics.derived_fields_ms":
            t.total_ms("diagnostics.derived_fields") / n_rows,
        "geometry.extended_fields_ms":
            t.total_ms("geometry.extended_fields") / n_rows,
        "grids.integrate_ms_per_row":
            float(t.dur[integrate_in_rows].sum()) / 1e6 / n_rows,
        "cli.self_ms": cli_self,
        "cli.write_ms": t.outer_ms(WRITERS),
        "trace.overhead_s": len(t.dur) * wrapper_cost_ns() / 1e9,
    }
    # exact invariants of the work, checked against the reference
    counts = {
        "solver.steps": len(step),
        "diagnostics.rows": n_rows,
        "grids.integrate_calls": int(integrate_in_rows.sum()),
        "potentials.clamp_count": int(sum(c for _, c in probe.runs)),
    }
    detail = {
        "solver.run_s.min": min(per_run_s),
        "experiments.plan_validate_ms": t.outer_ms(
            ("experiments.plan_validate",)),
        "experiments.self_ms": t.total_ms(
            "experiments.run_sweep", "experiments.check_identities",
            "experiments.plan_validate", self_time=True),
        "diagnostics.write_csv_ms": t.total_ms("diagnostics.write_csv"),
        "snapshots.write_ms": t.total_ms("snapshots.write_snapshot"),
        "spans": len(t.dur),
        **members,
    }
    return {"layer": layer, "detail": detail, "counts": counts,
            "covered_ns": import_ns + int(t.outer_ms(COVERING) * 1e6),
            "end_ns": end_ns}


def main() -> int:
    mode, result_path, cli_argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from phaselab import (cli, config, diagnostics, experiments, grids,
                          snapshots, solver)
    import_ns = time.monotonic_ns() - ENTRY_NS

    probe = Probe(mode, result_path)
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        install_trace(tracer, probe, (cli, config, diagnostics, experiments,
                                      grids, snapshots, solver))
    probe.hook_make_stepper(solver, tracer)
    entry = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    code = entry(cli_argv)
    end_ns = time.monotonic_ns()
    extra = {"exit": code}
    if tracer is not None:
        extra["trace"] = reduce_trace(tracer, probe, import_ns, end_ns)
    probe.write(extra)
    return code


if __name__ == "__main__":
    sys.exit(main())
