"""Host-speed probe of the phaselab benchmark.

    python3 perfbench/calibrate.py RESULT_JSON

Runs one fixed kernel in short chunks, on its own CPU, until it receives
SIGTERM, and then writes the start and duration of every chunk
(CLOCK_MONOTONIC nanoseconds, the clock the runner reads too) to
RESULT_JSON.  The kernel is the same mix as the workloads' inner loops:
interpreted Python calling a banded solve and a few small numpy
operations.  The runner divides each repeat's times by how slow the kernel
ran during that repeat, so that the host's drifting speed cancels out.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from array import array

import numpy as np
from scipy.linalg import solve_banded

NODES = 1000
CALLS_PER_CHUNK = 40


def chunk(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One unit of fixed work."""
    for _ in range(CALLS_PER_CHUNK):
        x = solve_banded((1, 1), ab, x)
        x = x + 0.01 * (x - x ** 3)
        if float(np.max(np.abs(x))) > 2.0:
            x = np.clip(x, -1.0, 1.0)
    return x


def main() -> int:
    result_path = sys.argv[1]
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    ab = np.zeros((3, NODES))
    ab[0, 1:] = ab[2, :-1] = -1.0
    ab[1] = 3.0
    seed = np.linspace(-0.9, 0.9, NODES)
    start, dur = array("q"), array("q")
    clock = time.monotonic_ns
    while not stop:
        t0 = clock()
        chunk(ab, seed)
        t1 = clock()
        start.append(t0)
        dur.append(t1 - t0)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"start": list(start), "dur": list(dur)}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
