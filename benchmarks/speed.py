"""Machine-speed probe used to take the host's speed swings out of timings.

On a shared two-vCPU host, a fixed pure-Python loop runs ~40% slower for
seconds at a time (13.8 ms vs 19.5 ms in phases of 5-30 s), whether or
not anything else in the guest is running.  Raw times inherit that noise.
So while a worker runs, a separate probe process, pinned to the same CPU as
the worker, wakes every ``INTERVAL_S`` and times a small fixed piece of
work ``REPEATS`` times back to back.  A sample is the fastest of the
repeats: the first repeat pays for whatever the worker left in the caches,
the later ones run on the probe's own warm state, so a sample tracks the
CPU's speed rather than the program's memory traffic.  An interval's time
(a command, or a worker's set-up), less the probe bursts inside it, is
divided by the median slowdown of the samples around it (sample over
``NOMINAL_S``, the sample on the reference host when it runs fast).  Raw
times are reported beside the normalized ones.

Run as a script, this file is the probe process::

    python3 benchmarks/speed.py --cpu 1

It prints ``READY`` once pinned, samples until its standard input closes,
then prints its samples as one JSON list of ``[start, end, sample]``
(``time.monotonic`` seconds) and exits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

import numpy as np

NOMINAL_S = 300e-6
INTERVAL_S = 0.05
REPEATS = 3
WINDOW_S = 2 * INTERVAL_S  # samples this far around a command count for it
_GRID = np.linspace(0.0, 1.0, 16)
_VECTOR = np.linspace(0.0, 1.0, 1 << 16)  # 512 KiB: well inside L2
_OUT = np.empty_like(_VECTOR)


def probe_work() -> float:
    """Fixed mix of interpreter arithmetic, small numpy calls and whole-array
    arithmetic, the program's own profile in miniature.  Interpreted code
    slows more than array code in the host's slow phases, so a probe of
    either kind alone over- or under-corrects workloads bound by the other
    (Monte-Carlo against surface pricing); the mix, about half of each by
    time, sits between them."""
    s = 0.0
    for i in range(900):
        s += math.exp(-i * 1e-3) * 0.5
    for _ in range(30):
        s += float(np.interp(0.3, _GRID, _GRID)) + float(np.exp(_GRID[3]))
    np.exp(_VECTOR, out=_OUT)
    np.sqrt(_OUT, out=_OUT)
    np.multiply(_VECTOR, _OUT, out=_OUT)
    return s + float(_OUT[7])


def sample() -> tuple[float, float, float]:
    """(start, end, fastest of REPEATS probe runs)."""
    start = time.monotonic()
    best = math.inf
    for _ in range(REPEATS):
        t = time.perf_counter()
        probe_work()
        best = min(best, time.perf_counter() - t)
    return start, time.monotonic(), best


class SpeedProbe:
    """Runs the probe process on ``cpu`` while active; after it stops,
    ``normalize`` turns a command interval into program seconds."""

    def __init__(self, cpu: int, env: dict[str, str]):
        self.cpu = cpu
        self.env = env
        self.samples: list[list[float]] = []
        self._proc = None

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--cpu", str(self.cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.env, text=True)
        if self._proc.stdout.readline().strip() != "READY":
            self._stop()
            raise RuntimeError("the speed probe process did not start")
        return self

    def __exit__(self, exc_type, *exc):
        out = self._stop()
        if exc_type is None:
            if self._proc.returncode != 0 or not out:
                raise RuntimeError("the speed probe process failed")
            self.samples = json.loads(out)

    def _stop(self) -> str:
        """Close the probe's input, collect its output, and wait for it."""
        try:
            out, _ = self._proc.communicate(timeout=10.0)
        except subprocess.TimeoutExpired:
            out = ""
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
            self._proc.wait()
        return out

    def slowdown(self) -> float:
        """Median slowdown over every sample taken."""
        return statistics.median(s for _, _, s in self.samples) / NOMINAL_S

    def normalize(self, start: float, end: float) -> tuple[float, float]:
        """(raw program seconds, normalized seconds) of an interval."""
        stolen = sum(max(0.0, min(e, end) - max(s, start)) for s, e, _ in self.samples)
        around = [d for s, _, d in self.samples
                  if start - WINDOW_S <= s < end + WINDOW_S]
        raw = (end - start) - stolen
        slowdown = statistics.median(around) / NOMINAL_S if around else self.slowdown()
        return raw, raw / slowdown


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    print("READY", flush=True)
    samples = []
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if ready and not sys.stdin.read(1):
            break
        samples.append(sample())
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
