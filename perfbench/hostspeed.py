"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a few vCPUs of a shared host. Their speed drifts with
the neighbours' load: on a 2-vCPU development host, the median
``crowded_decode`` request moved between ~520 and ~750 ms from one 25 s
window to the next, and a fixed numpy loop slowed and sped up with it. The
drift lasts minutes, so medians over longer windows do not remove it.

So right before and right after each timed request and each set-up probe,
a run times one pass of a fixed kernel, and scales the interval between by
``REFERENCE_S`` over the mean of the two passes: the time the interval would
have taken at the speed the kernel has on the reference host. Two passes
bracket a request of several seconds better than one. The kernel is not part of
the program, so a change to the program moves the scaled times as it moves
the wall times. It runs in a helper process of its own on the same CPU, on
its own arrays and after an untimed warm-up pass, so neither its memory nor
its allocations count in the workload process, and the program's cache
footprint barely reaches it. The unscaled figures are printed and stored
next to the scaled ones.

Run as a script, this module is that helper: it says "ready", then
answers each line on standard input with the seconds one warm pass took.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

# Median time of one warm pass on the reference host: a 2-vCPU shared x86-64
# VM (2 MB L2 per core, shared L3), Python 3.11, numpy with OpenBLAS on one
# thread.
REFERENCE_S = 0.0058
HELPER_TIMEOUT_S = 30


def _kernel():
    """One pass over the kinds of work the workloads do, in about their mix.

    Streaming over arrays past L2 takes about half of a pass: a host whose
    neighbours load the shared cache and memory slows it, and the resize,
    pyramid and attention steps with it. The rest is random reads (RoI
    bilinear sampling), a pure-Python loop and small numpy operations (the
    training tape and report code) and small matrix products (projector).
    Compute-only kernels tracked the workloads worse: over 15 minutes of all
    four workloads in turn, they about halved the spread of 30 s medians,
    and a mix like this one cut it by 2 to 3.4 times.
    """
    import numpy as np

    gen = np.random.default_rng(20240625)
    big = gen.standard_normal(2_000_000)  # 16 MB
    out = np.empty_like(big)
    idx = gen.integers(0, big.size, size=200_000)
    picked = np.empty(idx.size)
    small = [gen.standard_normal(16) for _ in range(8)]
    a = gen.standard_normal((96, 96)) * 0.01
    x2, y2 = np.empty_like(a), np.empty_like(a)

    def one_pass() -> float:
        np.multiply(big, 0.5, out=out)
        np.add(out, big, out=out)
        np.take(big, idx, out=picked)
        s = 0
        for i in range(10_000):
            s += i * i
        for _ in range(60):
            x = small[0]
            for v in small[1:]:
                x = x * v + 1.0
        np.copyto(x2, a)
        for _ in range(5):
            np.matmul(x2, a, out=y2)
            np.tanh(y2, out=x2)
        return float(out[0] + picked[0] + x[0] + x2[0, 0]) + s

    return one_pass


def _serve() -> int:
    one_pass = _kernel()
    print("ready", flush=True)
    for _ in sys.stdin:
        one_pass()  # warm-up: the kernel's arrays back in cache after the program's work
        t0 = time.perf_counter()
        one_pass()
        print(repr(time.perf_counter() - t0), flush=True)
    return 0


class Calibration:
    """The kernel helper of one run and the pass times it reported.

    Use it as a context manager, so the helper is stopped on every path out.
    """

    def __init__(self):
        self.passes: list[float] = []
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("host-speed helper failed to start")

    def __enter__(self) -> Calibration:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def sample(self) -> float:
        """Time one warm pass now; return ``REFERENCE_S`` over it, the pass's speed factor."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host-speed helper exited with code {self._proc.poll()}")
        self.passes.append(float(line))
        return REFERENCE_S / self.passes[-1]

    @property
    def factor(self) -> float:
        """``REFERENCE_S`` over the median pass of the run."""
        return REFERENCE_S / statistics.median(self.passes)

    def close(self) -> None:
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=HELPER_TIMEOUT_S)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
            self._proc.stdout.close()


if __name__ == "__main__":
    sys.exit(_serve())
