"""Timing at a reference speed on a machine whose speed changes.

On a shared 2-vCPU virtual machine (Intel Xeon) other tenants slowed every
instruction of a fixed loop by up to 2x, switching within milliseconds and
staying slow or fast for seconds to minutes; thread CPU time slowed as much
as the wall. A Clock therefore samples the machine's speed while the program
runs: a real-time interval timer interrupts the process every TICK_S, and
while a timed call is running the signal handler times one fixed probe
block. The probes thus sample the speed at the times the calls run, in
proportion to their length. The block calls nothing of the package, so a
change to the program moves the scaled times as it moves the walls.

Time spent in probes is taken out of every timed wall and every trace span
(``program_time``). A call's slowdown is the mean wall of the probes that
ran during calls of its kind in its segment (one pass of the run), over
PROBE_REF_S; its time at the reference speed is its wall divided by that.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

TICK_S = 0.01
PROBE_REF_S = 0.00075  # the block's mean wall over 28k probes on the 2-vCPU Xeon VM
PROBE_SHARE = 0.1  # of each set-up's wall, probed after it

# The block: the kind of work the walks and solvers do, in shapes like
# those of a (10, 60) body.
_M = np.random.default_rng(0).standard_normal((60, 10))
_W = np.linspace(0.5, 1.5, 60) / 60.0


def speed_block() -> float:
    """Wall of one fixed probe block, 0.5-0.9 ms: weighted Gram matrices,
    Cholesky factors, solves and leverage scores of a 60 x 10 matrix, and a
    Python loop over the scores."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(15):
        gram = (_M * _W[:, None]).T @ _M
        np.linalg.cholesky(gram)
        lev = np.einsum("ij,ji->i", _M, np.linalg.solve(gram, _M.T))
        for v in lev[:20]:
            acc += float(v)
    return time.perf_counter() - t0


class Clock:
    def __init__(self):
        self.probe_s = 0.0  # wall of every probe so far
        self.kind = None  # kind of the timed call now running, if any
        self.segments: list = []  # (label, {kind: [probe seconds, blocks]})
        self._busy = False

    def new_segment(self, label: str) -> dict:
        self.segments.append((label, {}))
        return self.segments[-1][1]

    def _record(self, kind: str, seconds: float) -> None:
        acc = self.segments[-1][1].setdefault(kind, [0.0, 0])
        acc[0] += seconds
        acc[1] += 1

    def _tick(self, signum, frame) -> None:
        if self._busy or self.kind is None:
            return
        self._busy = True
        try:
            seconds = speed_block()
            self.probe_s += seconds
            self._record(self.kind, seconds)
        finally:
            self._busy = False

    @contextlib.contextmanager
    def ticking(self):
        """Run the interval timer for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def program_time(self) -> float:
        """Seconds of a clock that stops while a probe runs."""
        while True:
            probes = self.probe_s
            now = time.perf_counter()
            if self.probe_s == probes:
                return now - probes

    @contextlib.contextmanager
    def timing(self, kind: str):
        """Time one call of ``kind``; the list it yields receives the call's
        wall without the probes that interrupted it."""
        wall: list = []
        t0 = self.program_time()
        self.kind = kind
        try:
            yield wall
        finally:
            self.kind = None
            wall.append(self.program_time() - t0)

    def sample(self, kind: str, seconds: float) -> None:
        """Probe for PROBE_SHARE x ``seconds`` (at least one block), right
        after a call of that wall that could not be interrupted (a child
        process)."""
        spent = 0.0
        while True:
            block = speed_block()
            spent += block
            self._record(kind, block)
            if spent >= PROBE_SHARE * seconds:
                break

    @staticmethod
    def slowdown(segment: dict, kind: str = None) -> float:
        """Mean probe wall over PROBE_REF_S, of the probes of ``kind`` in the
        segment, or of all its probes if none ran during that kind (or
        ``kind`` is None); 1.0 if the segment has no probe at all."""
        probes = [segment[kind]] if segment.get(kind) else list(segment.values())
        blocks = sum(n for _, n in probes)
        return sum(s for s, _ in probes) / blocks / PROBE_REF_S if blocks else 1.0
