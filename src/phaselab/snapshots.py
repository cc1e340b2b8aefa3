"""Flat binary snapshot files with a JSON sidecar.

Layout (all little-endian 64-bit):
    int64   ndim
    int64   shape[ndim]
    float64 h, L, epsilon, t
    float64 values, row-major

The sidecar `<name>.json` repeats the header fields plus the grid mode and
physical dimension, so snapshots are self-describing without parsing the
binary header.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

_I8 = np.dtype("<i8")
_F8 = np.dtype("<f8")


def write_snapshot(path, u: np.ndarray, *, h: float, half_width: float,
                   epsilon: float, t: float, grid_mode: str,
                   dim: int) -> Path:
    path = Path(path)
    u = np.asarray(u)
    with open(path, "wb") as fh:
        np.array([u.ndim], dtype=_I8).tofile(fh)
        np.array(u.shape, dtype=_I8).tofile(fh)
        np.array([h, half_width, epsilon, t], dtype=_F8).tofile(fh)
        u.astype(_F8, copy=False).tofile(fh)   # tofile writes C order
    meta = {"file": path.name, "shape": list(u.shape), "h": h,
            "half_width": half_width, "epsilon": epsilon, "t": t,
            "grid_mode": grid_mode, "dim": dim}
    sidecar = path.with_suffix(path.suffix + ".json")
    sidecar.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    return sidecar


def read_snapshot(path):
    """Return (values, meta dict with h, half_width, epsilon, t)."""
    path = Path(path)
    with open(path, "rb") as fh:
        ndim = int(np.fromfile(fh, dtype=_I8, count=1)[0])
        shape = tuple(int(v) for v in np.fromfile(fh, dtype=_I8, count=ndim))
        h, half_width, epsilon, t = np.fromfile(fh, dtype=_F8, count=4)
        values = np.fromfile(fh, dtype=_F8).reshape(shape)
    meta = {"h": float(h), "half_width": float(half_width),
            "epsilon": float(epsilon), "t": float(t), "shape": list(shape)}
    sidecar = path.with_suffix(path.suffix + ".json")
    if sidecar.exists():
        meta.update(json.loads(sidecar.read_text(encoding="utf-8")))
    return values, meta
