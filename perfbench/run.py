"""phaselab benchmark: time real CLI commands, each in a fresh
single-threaded process, and check their outputs against a reference.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S     # all three
    python3 perfbench/run.py --write-reference              # rebuild reference

Run it from the root of a checkout that holds src/phaselab.  The inputs of
every workload are fixed; the seed only sets the interleaved order of the
repeats (see perfbench/README.md).  While a run lasts, a calibrator
(calibrate.py) times a fixed kernel on a second CPU, and every end-to-end
time is divided by how slow that kernel ran during the same repeat.  The
last line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}, with the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1).
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))

WORKLOADS = {
    "sweep_circle": ["sweep", "--plan",
                     "perfbench/workloads/sweep_circle.json"],
    "circle_full2d_identity": ["simulate", "--config",
                               "perfbench/workloads/circle_full2d_identity.json"],
    "identities_circle": ["check-identities", "--config",
                          "perfbench/workloads/identities_circle.json"],
}
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
MIN_SETUP_PROBES = 5     # setup-only processes per untraced run
CHILD_LIMIT_S = 150.0    # a repeat running longer is killed and failed
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# About the median duration of one calibrate.py chunk on the host that
# defined the benchmark (2-vCPU Xeon VM, Python 3.11, while a workload ran
# on the other CPU): the normalised times are in seconds of that host.
CAL_REF_NS = 6.5e6


class Repeat:
    """One child process: its kind, timings and whether it was correct."""

    def __init__(self, kind: str):
        self.kind = kind
        self.t0_ns = self.t1_ns = self.first_ns = None
        self.wall_s = self.setup_s = self.rss_mb = None
        self.cell_updates = 0
        self.result: dict = {}
        self.actual: dict = {}
        self.problems: list = []


def spawn(workload: str, kind: str, scratch: Path, reference,
          cpu=None) -> Repeat:
    """Run one child of `kind` (full, setup, trace, warmup), on CPU `cpu`
    if given, and check its outputs against `reference` (None: only read
    them)."""
    rep = Repeat(kind)
    scratch.mkdir(parents=True)
    out, result_path = scratch / "out", scratch / "result.json"
    mode = "setup" if kind in ("setup", "warmup") else kind
    argv = [sys.executable, str(BENCH / "child.py"), mode, str(result_path),
            *WORKLOADS[workload], "--out", str(out)]
    env = dict(os.environ, **THREAD_PINS)
    with open(scratch / "stderr.txt", "wb") as err:
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        if cpu is not None:
            os.sched_setaffinity(proc.pid, {cpu})
        killer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.monotonic_ns()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    rep.t0_ns, rep.t1_ns = t0, t1
    rep.wall_s = (t1 - t0) / 1e9
    rep.rss_mb = usage.ru_maxrss / 1024.0
    try:
        rep.result = json.loads(result_path.read_text("utf-8"))
    except (OSError, ValueError):
        rep.result = {}
    if code != 0 or rep.result.get("first_step_ns") is None:
        tail = (scratch / "stderr.txt").read_text("utf-8", "replace")[-400:]
        rep.problems.append(f"exit {code}: {tail.strip()}")
    else:
        rep.first_ns = rep.result["first_step_ns"]
        rep.setup_s = (rep.first_ns - t0) / 1e9
        rep.cell_updates = rep.result["cell_updates"]
    if mode != "setup" and not rep.problems:
        try:
            rep.actual = check.extract(workload, out, code)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            rep.problems.append(f"outputs unreadable: {exc!r}")
        else:
            if reference is not None:
                rep.problems = check.compare(rep.actual, reference["outputs"])
                rep.problems += check.compare(
                    rep.cell_updates, reference["work"]["cell_updates"],
                    "/work/cell_updates")
    if mode == "trace" and not rep.problems:
        trace = rep.result["trace"]
        if reference is not None:
            rep.problems = check.compare(trace["counts"],
                                         reference["work"]["trace_counts"],
                                         "/work/trace_counts")
        layer = trace["layer"]
        layer["trace.span_coverage_pct"] = (
            100.0 * trace["covered_ns"] / (trace["end_ns"] - t0))
        layer["cli.bytes_written"] = sum(
            p.stat().st_size for p in out.rglob("*") if p.is_file())
    shutil.rmtree(scratch)
    return rep


class HostSpeed:
    """How slow the host ran, from the chunks calibrate.py timed while the
    repeats ran (factor 1.0 everywhere when there was no second CPU)."""

    def __init__(self, chunks=None):
        self.start = chunks["start"] if chunks else []
        self.dur = chunks["dur"] if chunks else []

    def slowdown(self, t0_ns: int, t1_ns: int) -> float:
        """Mean chunk duration within [t0, t1] over CAL_REF_NS (the
        nearest chunk if none fits)."""
        if not self.start:
            return 1.0
        lo = bisect.bisect_left(self.start, t0_ns)
        hi = lo
        while hi < len(self.start) and \
                self.start[hi] + self.dur[hi] <= t1_ns:
            hi += 1
        if hi == lo:
            lo, hi = min(lo, len(self.start) - 1), min(lo + 1, len(self.start))
        return statistics.fmean(self.dur[lo:hi]) / CAL_REF_NS


def start_calibrator(scratch: Path):
    """Start calibrate.py on the last allowed CPU; None with only one."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    scratch.mkdir(parents=True)
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "calibrate.py"),
         str(scratch / "chunks.json")],
        cwd=ROOT, env=dict(os.environ, **THREAD_PINS),
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    os.sched_setaffinity(proc.pid, {cpus[-1]})
    return proc, cpus[0]


def stop_calibrator(proc, scratch: Path) -> HostSpeed:
    if proc is None:
        return HostSpeed()
    proc.terminate()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    try:
        return HostSpeed(json.loads(
            (scratch / "chunks.json").read_text("utf-8")))
    except (OSError, ValueError):
        return HostSpeed()


def schedule(workload: str, seconds: float, trace: bool, seed: int,
             scratch: Path, reference) -> tuple:
    """Repeats of one run, in an order drawn from `seed`, and the host speed
    measured beside them.

    An untraced run interleaves full commands with setup-only probes (at
    least one full command and MIN_SETUP_PROBES probes); a traced run runs
    traced commands (at least one).  A kind is started again only while its
    median duration still fits in the time left.
    """
    rng = random.Random(seed)
    kinds = ("trace",) if trace else ("full", "setup")
    minimum = {"full": 1, "trace": 1, "setup": MIN_SETUP_PROBES}
    calibrator, cpu = start_calibrator(scratch / "calibrator")
    try:
        deadline = time.monotonic() + seconds
        repeats = [spawn(workload, "warmup", scratch / "0", reference, cpu)]
        while True:
            left = deadline - time.monotonic()
            options = []
            for kind in kinds:
                done = [r.wall_s for r in repeats if r.kind == kind]
                if len(done) < minimum[kind] or \
                        statistics.median(done) <= left:
                    options.append(kind)
            if not options:
                break
            kind = rng.choice(options)
            repeats.append(spawn(workload, kind,
                                 scratch / str(len(repeats)), reference, cpu))
    finally:
        host = stop_calibrator(calibrator, scratch / "calibrator")
    return repeats, host


def tail(values: list) -> str:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    n = len(values)
    text = f"median {statistics.median(values):.6g}"
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")
            text += f", p{p:g} {cut[int(p * 10) - 1]:.6g}"
            break
    return f"{text}, n={n}"


def end_to_end(repeats: list, host: HostSpeed) -> tuple:
    """Host-normalised timings (registered) and the raw ones (detail)."""
    full = [r for r in repeats if r.kind == "full" and not r.problems]
    setups = [r for r in repeats
              if r.kind in ("full", "setup") and r.setup_s is not None]
    wall = [r.wall_s / host.slowdown(r.t0_ns, r.t1_ns) for r in full]
    setup = [r.setup_s / host.slowdown(r.t0_ns, r.first_ns) for r in setups]
    stepping = [(r.t1_ns - r.first_ns) / 1e9
                / host.slowdown(r.first_ns, r.t1_ns) for r in full]
    samples = {
        "wall_s": wall,
        "setup_s": setup,
        "cell_updates_per_s": [r.cell_updates / s
                               for r, s in zip(full, stepping)],
        "peak_rss_mb": [r.rss_mb for r in full],
    }
    detail = {
        "raw.wall_s": [r.wall_s for r in full],
        "raw.setup_s": [r.setup_s for r in setups],
        "host.slowdown": [host.slowdown(r.t0_ns, r.t1_ns)
                          for r in full + setups],
    }
    return samples, detail


def per_layer(repeats: list) -> tuple:
    traced = [r for r in repeats if r.kind == "trace" and not r.problems]
    samples: dict = {}
    detail: dict = {}
    for r in traced:
        for part, into in (("layer", samples), ("detail", detail),
                           ("counts", detail)):
            for key, value in r.result["trace"][part].items():
                into.setdefault(key, []).append(value)
    return samples, detail


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "phaselab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": _version("numpy"), "scipy": _version("scipy"),
        "commit": _commit(), "src_sha256": digest.hexdigest()[:16],
        "thread_pins": THREAD_PINS,
    }


def _commit() -> str:
    """HEAD of the checkout if it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "unknown"


def measure(workload: str, args) -> dict:
    """One run of `workload`: print its lines and return its result."""
    reference = json.loads(
        (BENCH / "reference" / f"{workload}.json").read_text("utf-8"))
    scratch = ROOT / ".perfbench" / f"{workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        repeats, host = schedule(workload, args.seconds, bool(args.trace),
                                 args.seed, scratch, reference)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass    # another run still uses it
    failed = [r for r in repeats if r.problems]
    order = "".join(r.kind[0].upper() for r in repeats)
    print(f"workload {workload}: seed {args.seed}, order {order} "
          f"(W warm-up, F full, S setup-only, T traced)")
    for r in failed:
        print(f"  FAILED {r.kind}: " + "; ".join(r.problems[:5]))

    specs = SPEC["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        samples, detail = per_layer(repeats)
    else:
        samples, detail = end_to_end(repeats, host)
    metrics = {}
    for spec in specs:
        values = samples.get(spec["name"])
        if not values:
            continue
        metrics[spec["name"]] = {"value": statistics.median(values),
                                 "unit": spec["unit"]}
        print(f"  {spec['name']:<34} {tail(values)} {spec['unit']}")
    for key, values in sorted(detail.items()):
        if values:
            print(f"  {key:<34} median {statistics.median(values):.6g} "
                  f"(detail)")
    print(f"  {'failed_share':<34} {len(failed) / len(repeats):g} "
          f"({len(failed)} of {len(repeats)} processes)")
    missing = [s["name"] for s in specs if s["name"] not in metrics]
    if missing:
        print(f"  no samples for: {', '.join(missing)}")
    env = environment(args)
    env["calibrated"] = bool(host.start)
    print("env " + json.dumps(env, sort_keys=True))
    return {"correct": not failed and not missing,
            "attempted": len(repeats), "failed": len(failed),
            "metrics": metrics}


def write_reference() -> None:
    for workload in WORKLOADS:
        scratch = ROOT / ".perfbench" / f"reference-{workload}"
        shutil.rmtree(scratch, ignore_errors=True)
        full = spawn(workload, "full", scratch / "full", None)
        traced = spawn(workload, "trace", scratch / "trace", None)
        shutil.rmtree(scratch.parent, ignore_errors=True)
        if full.problems or traced.problems:
            raise SystemExit(f"{workload}: {full.problems + traced.problems}")
        doc = {"outputs": full.actual,
               "work": {"cell_updates": full.cell_updates,
                        "trace_counts": traced.result["trace"]["counts"]}}
        path = BENCH / "reference" / f"{workload}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True)
                        + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "phaselab" / "cli.py").is_file():
        print(f"error: {ROOT} holds no src/phaselab; "
              f"run from the root of a phaselab checkout", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    if args.workload == "all":
        results = {w: measure(w, args) for w in WORKLOADS}
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = measure(args.workload, args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
