"""Host-speed sampling paired with each timed repetition.

On a shared host the speed of this process switches within tens of
milliseconds (a 1.8x faster state comes and goes in 10-40 ms bursts on the
reference 2-core VM), so one probe before a repetition samples one state
while the repetition averages over many.  ``HostSampler`` therefore runs a
short probe piece -- small-array numpy operations plus a pure-Python float
loop, the mix of work the solver does -- from a wall-clock timer signal
every ``SAMPLE_INTERVAL_S`` while a repetition runs.  The repetition's
work time is its wall time minus the pieces run inside it, and its nominal
time is that work time scaled by ``PIECE_NOMINAL_S`` over the mean piece
time sampled during it (``host_mean``).

A piece interrupts the measured program, so ``probe_piece`` runs it twice
and times only the second pass: the first brings the piece's arrays back
into cache and its small allocations back into the allocator's free lists,
whatever the program left there.  As a check, ``HostSampler`` also times
``GAP_PIECES`` pieces in the gap before each repetition; the ratio of the
mean in-band piece to the mean gap piece is near 1 on every workload when
the in-band pieces read the host and not the program's state.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from collections import defaultdict

import numpy as np

SAMPLE_INTERVAL_S = 0.015
PIECE_ITEMS = 100
GAP_PIECES = 3

# A piece longer than this many times the median of its repetition was
# descheduled.  Both speed states of the host stay well below it, while a
# single 10 ms preemption would move the mean of the ~130 pieces of a 2 s
# repetition by about 10%, twenty times what it adds to the repetition.
PREEMPTED_OVER_MEDIAN = 3.0

# Duration of one timed probe pass on the reference host (2-core VM,
# Python 3.11, numpy 2.4); nominal times are work times at this probe speed.
PIECE_NOMINAL_S = 0.0007

_VECS = [np.full(6, 1e-3 * i) for i in range(PIECE_ITEMS)]
_MATS = [np.eye(3) * (1.0 + 1e-4 * i) for i in range(PIECE_ITEMS)]


def _piece() -> None:
    acc, s = np.zeros(3), 0.0
    for v, m in zip(_VECS, _MATS):
        acc = acc + (m @ v[:3] + v[3:] * 0.5)
        x = float(v[0])
        for k in range(6):
            s += x * k - s * 1e-3


def probe_piece() -> float:
    """Run one probe piece warm; returns the wall time of its timed pass."""
    _piece()
    start = time.perf_counter()
    _piece()
    return time.perf_counter() - start


def host_mean(pieces: list) -> float:
    """Mean piece time (s), leaving out pieces that were descheduled."""
    limit = PREEMPTED_OVER_MEDIAN * statistics.median(pieces)
    return statistics.fmean(p for p in pieces if p <= limit)


class HostSampler:
    """Context that samples host speed during ``timed`` repetitions."""

    def __init__(self):
        self._samples = None  # None between repetitions: the timer does nothing
        self._spent = 0.0  # total wall time spent in pieces run from the timer
        self._previous = None
        self.pieces = defaultdict(lambda: ([], []))  # label -> (in-band, gap) piece times

    def _on_timer(self, signum, frame):
        if self._samples is not None:
            start = time.perf_counter()
            self._samples.append(probe_piece())
            self._spent += time.perf_counter() - start

    def clock(self) -> float:
        """Wall clock (s) that stands still while probe pieces run."""
        return time.perf_counter() - self._spent

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timed(self, fn, label: str):
        """(result, work s, nominal s) of one repetition of ``fn()``."""
        gc.collect()
        band, gap = self.pieces[label]
        gap.extend(probe_piece() for _ in range(GAP_PIECES))
        self._samples = []
        start = self.clock()
        try:
            out = fn()
        finally:
            work = self.clock() - start
            samples, self._samples = self._samples, None
        if not samples:  # shorter than one interval: sample right after it
            samples = [probe_piece()]
        band.extend(samples)
        return out, work, work * PIECE_NOMINAL_S / host_mean(samples)

    def report(self) -> list:
        """One line per label: ``host_mean`` of in-band and gap pieces and their ratio."""
        lines = []
        for label, (band, gap) in self.pieces.items():
            if not band:  # every repetition of this label raised
                continue
            b, g = host_mean(band), host_mean(gap)
            lines.append(f"probe {label}: {len(band)} in-band pieces mean {1e3 * b:.4f} ms, "
                         f"{len(gap)} gap pieces mean {1e3 * g:.4f} ms, band/gap {b / g:.4f}")
        return lines
