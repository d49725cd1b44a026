"""Speed probe: a fixed numpy micro-kernel that says how fast the box is now.

This sandbox's speed drifts by tens of percent over seconds with no
reported steal, so no raw wall-clock or CPU figure repeats within a
tenth.  The probe is a repo-independent stand-in for "how long does a
fixed amount of small-array numpy work take right now": the driver runs
it between units of real work, and every duration is reported multiplied
by ``speed`` (every rate divided by it), i.e. in *reference time* — what
the run would have read on a box where the probe takes ``PROBE_REF_S``.

The kernel imports nothing from ``repro`` on purpose: a change to the
program must never change the yardstick.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The probe's duration on the quiet reference box, in seconds.  Every
#: calibrated figure in ``results.json`` is relative to this constant;
#: changing it rescales the whole trajectory, so it never changes.
PROBE_REF_S = 1.2e-3

# The array size sets how hard the box's slow spells hit the kernel, and
# it is chosen so they hit it as hard as they hit the program.  Measured
# over 400 s of ``hard_stream`` with four kernels interleaved, the slope
# of log(frames/s) against log(1 / probe time) over 4.7 s windows was
# 1.24 with 300 rows (the program slowed by more than the probe said),
# 1.08 with 128, 0.96 with 64 and 0.90 with 16 (all dispatch overhead).
_ROWS, _COLS, _ITERATIONS = 64, 4, 100


class SpeedProbe:
    """The seeded micro-kernel: fancy-index, complex multiply,
    ``abs().sum``, ``argsort`` and ``cumsum`` over 64x4 complex arrays,
    100 iterations — the same small-array dispatch-bound mix the sphere
    engines spend their time in."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20140817)
        self._values = (rng.standard_normal((_ROWS, _COLS))
                        + 1j * rng.standard_normal((_ROWS, _COLS)))
        self._index = rng.integers(0, _ROWS, _ROWS)

    def run(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        values, index = self._values, self._index
        start = time.perf_counter()
        for _ in range(_ITERATIONS):
            product = np.multiply(values[index], values)
            weight = np.abs(product).sum(axis=1)
            np.cumsum(weight[np.argsort(weight)])
        return time.perf_counter() - start


def speed_factor(samples) -> float:
    """Box speed relative to the reference box from a set of probe
    readings (> 1 means faster than reference).

    The *mean* rather than the median: a reading is a sample of the
    box's slowness at one instant, and the work between readings slows
    in proportion to the average slowness, which is what the mean
    estimates (measured on the same 400 s: correlation of window
    throughput with the mean-based factor 0.95-0.97, with the
    median-based one 0.93-0.94).
    """
    return PROBE_REF_S / statistics.fmean(samples)


def speed_factors_at(times, probe_times, probe_samples, count: int,
                     default: float) -> np.ndarray:
    """One speed factor per instant in ``times``: from the ``count``
    probe readings around it in time order (all of them when there are
    fewer; ``default`` when there are none).  ``probe_times`` must be
    sorted."""
    count = min(count, len(probe_times))
    if not count:
        return np.full(len(times), default)
    total = np.concatenate([[0.0], np.cumsum(probe_samples)])
    first = np.clip(np.searchsorted(probe_times, times) - count // 2,
                    0, len(probe_times) - count)
    return PROBE_REF_S * count / (total[first + count] - total[first])
