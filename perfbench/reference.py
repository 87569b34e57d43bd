"""Fixed reference job that tracks the speed of the host.

Run as a script it imports numpy and scipy.linalg in a fresh interpreter
and factors a fixed 600 x 600 SPD matrix three times (``cho_factor`` and
``eigh``): the same mix of interpreter start-up, imports and dense LAPACK
that the workloads spend their time on, and nothing of deltaspec.

The benchmark runs it just before every timed repetition. On a shared host
whose speed drifts by tens of percent from one minute to the next, the
repetition's time divided by the reference's time is steady, so every
time the benchmark reports is scaled to a nominal host on which the job
takes ``NOMINAL_WALL_S`` wall and ``NOMINAL_CPU_S`` CPU seconds (its median
on the machine described in README.md):

    reported = measured * NOMINAL / reference measured just before
"""

import os
import subprocess
import sys
import time

NOMINAL_WALL_S = 0.74
NOMINAL_CPU_S = 1.28


def measure_reference(env=None) -> tuple[float, float]:
    """Run the job in a child process; return its (wall s, CPU s)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, __file__], env=env,
                            stdout=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"reference job exited with {proc.returncode}")
    return wall, usage.ru_utime + usage.ru_stime


def scale(wall: float, cpu: float, ref: tuple[float, float]
          ) -> tuple[float, float]:
    """Wall and CPU seconds at the nominal host speed."""
    return wall * NOMINAL_WALL_S / ref[0], cpu * NOMINAL_CPU_S / ref[1]


def _job():
    import numpy as np
    import scipy.linalg as sla

    rng = np.random.default_rng(0)
    b = rng.standard_normal((600, 600))
    a = b @ b.T + 600.0 * np.eye(600)
    for _ in range(3):
        sla.cho_factor(a)
        sla.eigh(a)


if __name__ == "__main__":
    _job()
