"""Timing one solve by segments, at the speed the machine has at the time.

A solve is cut into segments at the emissions its marches report through
the ``observer`` argument of ``compute_mass_series``.  The emission ladder
is fixed, so every repetition of a solve has the same segments.

The machine this benchmark was written on switches between a fast and a
slow state about 1.8x apart, in spells from a tenth of a second to
several minutes, and process CPU time follows wall time.  So at every
emission, and before and after the solve, the recorder times a small fixed
kernel of NumPy calls on short arrays, the kind of work the package does.
Each segment is scaled by REFERENCE_KERNEL_S over the mean kernel time at
its two ends, and the solve time is the sum over the segments of each
segment's fastest scaled repetition.  A traced run scales each span's
self time by the segment the span starts in.  The kernel runs between
segments, outside the timed intervals, and uses no package code, so a
change to the package moves the solve time and not the scale.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

clock = time.perf_counter

# Fastest time of calibration_kernel() in the fast state of the reference
# machine (2 cores, Intel Xeon at 2.0 GHz, Python 3.11.7, NumPy 2.4.6).
# It fixes the scale of solve_s: seconds at that speed.
REFERENCE_KERNEL_S = 0.36e-3

_KERNEL_DATA = np.linspace(1.0, 2.0, 128)


def calibration_kernel() -> None:
    a = _KERNEL_DATA
    for _ in range(100):
        b = a * a
        c = (b[1:] - b[:-1]) * 0.5
        a = a + 1e-9 * float(c.min())


def kernel_time() -> float:
    """Fastest of three timings of the calibration kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = clock()
        calibration_kernel()
        best = min(best, clock() - start)
    return best


@dataclass
class March:
    steps: int
    series_len: int
    observer_calls: int


@dataclass
class Recorder:
    """Observer for every march of one solve.

    At each emission it keeps the state's radius and field, and the clock
    before (stamp) and after (resume) a timing of the calibration kernel.
    """

    stamps: list = field(default_factory=list)
    resumes: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)
    emitted: list = field(default_factory=list)
    marches: list = field(default_factory=list)

    def observe(self, state) -> None:
        self.stamps.append(clock())
        self.emitted.append((state.r, state.u))
        self.kernel_s.append(kernel_time())
        self.resumes.append(clock())

    def march(self, series_fn, surface, u0, config):
        """Run one mass-series march with this recorder as its observer."""
        before = len(self.stamps)
        series, final = series_fn(surface, u0, config, observer=self.observe)
        self.marches.append(
            March(final.step_index, len(series), len(self.stamps) - before)
        )
        return series, final


class Repetition:
    """One solve of a workload: outputs, recorder, and timed segments."""

    def __init__(self, workload):
        self.recorder = Recorder()
        self.outputs = None
        self.failed = workload.ops_per_solve
        kernel_before = kernel_time()
        begin = clock()
        try:
            self.outputs = workload.solve(self.recorder)
            self.failed = workload.failed(self.outputs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        end = clock()
        kernel_after = kernel_time()
        rec = self.recorder
        self.starts = np.array([begin, *rec.resumes])
        ends = np.array([*rec.stamps, end])
        kernel = np.array([kernel_before, *rec.kernel_s, kernel_after])
        self.segments_s = ends - self.starts
        self.scale = REFERENCE_KERNEL_S / (0.5 * (kernel[:-1] + kernel[1:]))
        self.scaled_s = self.segments_s * self.scale

    def scale_at(self, times: np.ndarray) -> np.ndarray:
        """The scale of the segment in which each clock reading falls."""
        index = np.searchsorted(self.starts, times, side="right") - 1
        return self.scale[np.clip(index, 0, len(self.scale) - 1)]


def fastest_segments_s(reps, scaled: bool = True) -> float:
    """Sum over the segments of each segment's fastest repetition."""
    per_rep = np.array([rep.scaled_s if scaled else rep.segments_s for rep in reps])
    return float(np.sum(np.min(per_rep, axis=0)))
