"""Output check of the phaselab benchmark: read the numbers a command wrote
and compare them with the reference recorded at the commit that defined
the benchmark.

Tolerance.  Values may move by reordered floating-point sums (the ROADMAP
allows 1e-12 relative on CSV values for such refactors); a changed scheme
or step size moves them by far more (first order in dt, ~1e-4 relative and
up).  So a value passes when

    |actual - reference| <= rtol * |reference| + atol

with rtol = 1e-8 and atol = 1e-9 times the largest magnitude of its series,
but at least 1e-10.  Residuals and fitted orders are differences of
nearly equal quantities and get rtol = 1e-6 (orders: atol = 1e-6).  Flags,
counts, shapes and exit codes must match exactly; NaN (stored as null)
matches only NaN.
"""

from __future__ import annotations

import csv
import json
import math
import re
import struct
from array import array
from pathlib import Path

RTOL = 1e-8
ATOL_SERIES = 1e-9
ATOL_FLOOR = 1e-10
RTOL_RESIDUAL = 1e-6
ATOL_ORDER = 1e-6
SAMPLED_ROWS = 12     # rows kept per sweep member CSV


def _read_csv(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [_num(r[j]) for r in body] for j, name in enumerate(header)}


def _num(text: str):
    value = float(text)
    return None if math.isnan(value) else value


def _sample(columns: dict, n_rows: int) -> dict:
    stride = max(1, n_rows // SAMPLED_ROWS)
    idx = sorted(set(range(0, n_rows, stride)) | {n_rows - 1})
    return {"n_rows": n_rows, "rows": idx,
            "columns": {k: [v[i] for i in idx] for k, v in columns.items()}}


def _snapshot_sum(path: Path):
    """Shape, time and compensated sum of one flat binary snapshot."""
    raw = path.read_bytes()
    ndim = struct.unpack_from("<q", raw, 0)[0]
    shape = list(struct.unpack_from(f"<{ndim}q", raw, 8))
    off = 8 + 8 * ndim
    _h, _half, _eps, t = struct.unpack_from("<4d", raw, off)
    values = array("d", raw[off + 32:])
    if struct.pack("=d", 1.0) != struct.pack("<d", 1.0):
        values.byteswap()
    return shape, t, math.fsum(values)


def extract(workload: str, out: Path, exit_code: int) -> dict:
    """The checked numbers of one repeat of `workload` written to `out`."""
    doc = {"exit": exit_code}
    if workload == "sweep_circle":
        summary = json.loads((out / "summary.json").read_text("utf-8"))
        doc.update({k: summary[k] for k in ("epsilons", "quantities",
                                            "slopes", "gronwall_constants",
                                            "pass_flags")})
        members = {}
        for eps in summary["epsilons"]:
            cols = _read_csv(out / f"diagnostics_eps_{eps:g}.csv")
            members[f"eps_{eps:g}"] = _sample(cols, len(cols["t"]))
        doc["members"] = members
    elif workload == "circle_full2d_identity":
        cols = _read_csv(out / "diagnostics.csv")
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        snaps = sorted((out / "snapshots").glob("*.bin"))
        stats = [_snapshot_sum(p) for p in snaps]
        doc.update({
            "n_rows": len(cols["t"]), "columns": cols,
            "n_steps": manifest["n_steps"],
            "clamp_count": manifest["clamp_count"],
            "snapshots": {"shapes": [s[0] for s in stats],
                          "t": [s[1] for s in stats],
                          "sums": [s[2] for s in stats]},
            "sidecars": len(list((out / "snapshots").glob("*.bin.json")))})
    elif workload == "identities_circle":
        doc.update(json.loads((out / "identities.json").read_text("utf-8")))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return doc


def _tolerance(path: str):
    key = re.sub(r"\[\d+\]", "", path).rsplit("/", 1)[-1]
    if key.endswith("_orders"):
        return 0.0, ATOL_ORDER
    if "residual" in key:
        return RTOL_RESIDUAL, None
    return RTOL, None


def compare(actual, reference, path: str = "", atol=None) -> list:
    """Every place where `actual` leaves the tolerance around `reference`."""
    if isinstance(reference, dict):
        if not isinstance(actual, dict) or actual.keys() != reference.keys():
            return [f"{path}: {actual!r:.80} does not have the keys "
                    f"{sorted(reference)}"]
        out = []
        for k in reference:
            out.extend(compare(actual[k], reference[k], f"{path}/{k}"))
        return out
    if isinstance(reference, list):
        if not isinstance(actual, list) or len(actual) != len(reference):
            return [f"{path}: {actual!r:.80} is not a list of "
                    f"{len(reference)}"]
        scale = max((abs(v) for v in reference if _is_float(v)), default=0.0)
        out = []
        for i, (a, r) in enumerate(zip(actual, reference)):
            out.extend(compare(a, r, f"{path}[{i}]", ATOL_SERIES * scale))
        return out
    if _is_float(reference) and _is_float(actual):
        rtol, atol_fixed = _tolerance(path)
        if atol_fixed is not None:
            atol = atol_fixed
        else:
            atol = max(atol or 0.0, ATOL_FLOOR)
        if abs(actual - reference) <= rtol * abs(reference) + atol:
            return []
        return [f"{path}: {actual!r} != {reference!r}"]
    if actual != reference or type(actual) is not type(reference):
        return [f"{path}: {actual!r} != {reference!r}"]
    return []


def _is_float(v) -> bool:
    return isinstance(v, float)
