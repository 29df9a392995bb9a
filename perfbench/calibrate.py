"""A fixed reference kernel whose time tracks the host's speed.

run.py times this kernel after every case sample and scales its time metrics
by the kernel's median time in the run (see run.py).  The kernel uses none
of the package: it stands for the kinds of work the package does (Python
sets and dicts, small fancy-indexed numpy tables turned into lists, and
streaming arithmetic over an array larger than the host's caches, as the
n^3 axiom scans and the coloring frontier do), so its time moves with the
host's speed for that work and with nothing the package's code can change.

The kernel runs in a helper process, ``Kernel`` below, so that its 64 MB
array never counts in the benchmark's peak RSS.  The helper only runs when
asked and the benchmark waits for its answer, so the two never run at once.
Run as a script, this file is that helper: each line read from stdin runs
the kernel once and writes its time in seconds; end of input ends it.
"""

from __future__ import annotations

import subprocess
import sys
import time


class Kernel:
    """The helper process, started on entry and ended on exit."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def __call__(self) -> float:
        """Seconds one run of the kernel takes."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _serve():
    import os
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import numpy as np

    rng = np.random.default_rng(1)
    table = rng.integers(48, size=(48, 48))
    items = rng.integers(48, size=4000).tolist()
    big = np.ones(1 << 23)  # float64: 64 MB

    def kernel() -> float:
        t0 = time.perf_counter()
        for _ in range(4):
            seen, counts = set(), {}
            for x in items:
                if x not in seen:
                    seen.add(x)
                counts[x] = counts.get(x, 0) + 1
            sorted(counts.items())
        rows = np.arange(48)
        for _ in range(200):
            table[np.ix_(rows, rows)].tolist()
            rows = (rows + 1) % 48
        float(big.sum())
        return time.perf_counter() - t0

    kernel()  # first touch of the array and the code paths
    for _ in sys.stdin:
        print(kernel(), flush=True)


if __name__ == "__main__":
    _serve()
