"""Sampling of the host's speed inside a measured process.

Each vCPU of the host switches by itself between speeds up to 2x apart, for
seconds at a time (README.md, Steadiness). A `Sampler` runs a fixed
calibration snippet of about 40 us every INTERVAL seconds of the process's CPU
time, from a SIGPROF handler, and keeps how long it took; the samples say how
fast the vCPU ran while the process did its own work. The snippet runs twice
and only the second run is timed, so that what the process left in the caches
weighs little.

Run a threadrec command with sampling with

    python3 perfbench/speed.py SAMPLES_OUT -- lda --data ... --out ...

which writes the samples, and the time spent taking them, as JSON when the
command ends.
"""
from __future__ import annotations

import json
import signal
import sys
import time

INTERVAL = 0.02


def calibration() -> int:
    """The fixed work a sample times: integer arithmetic and list and dict
    traffic, as the interpreter does between threadrec's numpy calls."""
    s = 0
    d = {}
    for i in range(200):
        s += i * i
        d[i & 15] = s
    return s + len(d)


def snippet_s(samples_ns: list[int]) -> float:
    """The time of one calibration snippet over a stretch of work: the mean
    of its samples without the slowest 5%, which an interrupt or a page
    fault can stretch."""
    kept = sorted(samples_ns)[:max(1, len(samples_ns) * 19 // 20)]
    return sum(kept) / len(kept) / 1e9


class Sampler:
    def __init__(self):
        self.samples_ns: list[int] = []
        self.spent_ns = 0   # time the sampling itself took

    def _handler(self, signum=None, frame=None):
        t0 = time.perf_counter_ns()
        calibration()
        t1 = time.perf_counter_ns()
        calibration()
        t2 = time.perf_counter_ns()
        self.samples_ns.append(t2 - t1)
        self.spent_ns += t2 - t0

    def start(self) -> None:
        self._handler()
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"samples_ns": self.samples_ns, "spent_ns": self.spent_ns}, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: speed.py SAMPLES_OUT -- THREADREC_ARGS...", file=sys.stderr)
        return 2
    from threadrec import cli
    sampler = Sampler()
    sampler.start()
    try:
        return cli.main(argv[2:])
    finally:
        sampler.stop()
        sampler.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
