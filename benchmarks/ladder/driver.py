"""The load drivers: closed loop, open loop, and per-pass accounting.

A *pass* is one steady-state measurement window.  Closed-loop passes are
aligned to completion events on both edges and last a whole number of
pool cycles, so every pass of a run decodes the same frames and pass-to-
pass differences are timing alone.  Open-loop passes replay a seeded
arrival schedule; latency there runs from each frame's *due* time, so a
stall charges the frames queued behind it.

Nothing is verified inside the timed window: outcomes are stashed and
compared with the oracle after the pass closes.  The speed probe runs
between loop iterations (in idle gaps only on the open loop); its time
is taken out of pass wall and CPU.  Rates and CPU are calibrated with
the pass's speed factor; each latency sample with the factor of the
probe readings taken around its frame's flight, because the box changes
speed inside a pass and a pass-wide factor leaves every slow half-second
in the tail (measured on 400 s of ``hard_stream``: 95th percentile of
23 s windows scattered 15.5 % with one factor per window, 5.7 % with one
per sample; the median 6.5 % against 2.2 %).
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from probe import SpeedProbe, speed_factor, speed_factors_at
from spans import SpanRecorder

#: Driver sleep after a poll that returned nothing (socket client only;
#: the in-process runtime's poll does the decoding itself).
EMPTY_POLL_SLEEP_S = 1e-3
#: At most one probe per this many seconds of driving (4-7 % of a pass):
#: the yardstick's own sampling error is what limits repeatability.
PROBE_PERIOD_S = 0.015
#: A latency sample is calibrated with this many probe readings, the
#: ones nearest the middle of its frame's flight.
LATENCY_PROBES = 8
#: The open loop's clock runs at the speed of this many latest readings.
CLOCK_PROBES = 20
#: Open loop: an idle gap must be this long before a probe goes in it.
PROBE_GAP_S = 3e-3

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# -- process accounting ------------------------------------------------------
def descendants(root: int) -> list[int]:
    """Every live descendant of ``root``, found by parent pid in
    ``/proc`` (this kernel has no ``children`` file)."""
    parent_of = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                # Field 4, after the parenthesised (possibly spaced) name.
                stat = (entry / "stat").read_text()
                parent_of[int(entry.name)] = int(
                    stat.rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue                    # raced with an exit
    found, frontier = [], [root]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parent_of.items() if ppid == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def descendant_cpu_s() -> float:
    """utime + stime of every live descendant of this process."""
    total = 0
    for pid in descendants(os.getpid()):
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(
                ")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
        except (OSError, IndexError, ValueError):
            continue
    return total / _CLOCK_TICKS


def peak_rss_mb() -> float:
    """``VmHWM`` of this process plus every live descendant."""
    total_kb = 0
    for pid in [os.getpid(), *descendants(os.getpid())]:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except (OSError, IndexError, ValueError):
            continue
    return total_kb / 1024.0


# -- pass bookkeeping --------------------------------------------------------
@dataclass
class PassResult:
    """One pass, verified.  Durations are raw seconds; ``speed`` is the
    pass's probe speed factor (calibrated = raw duration x speed)."""

    wall_s: float
    cpu_s: float
    driver_cpu_s: float
    speed: float
    #: The speed factor rates are divided by: ``speed`` on the closed
    #: loops; on the open loop reference seconds per wall second of its
    #: clock.
    rate_speed: float
    probe_s: float
    probe_times: list
    probe_samples: list
    attempted: int = 0
    ok: int = 0                 # completed, correct, un-degraded
    slo_met: int = 0            # ok and inside the deadline, if any
    failed: int = 0
    mismatched: int = 0
    expired: int = 0
    degraded: int = 0
    good_bits: int = 0
    #: Parallel, one entry per resolved frame: raw latency, and the
    #: speed factor while the frame was in flight.
    latencies_s: list = field(default_factory=list)
    latency_speeds: list = field(default_factory=list)
    lateness_s: list = field(default_factory=list)
    polls: int = 0
    empty_polls: int = 0
    in_flight_samples: list = field(default_factory=list)


@dataclass
class _Stash:
    """What the timed loop keeps per resolved frame for later checking."""

    index: int                  # pool index
    origin_s: float             # submit (closed loop) or due (open) time
    done_s: float
    deadline_s: float | None
    outcome: object


class Session:
    """One system under test being driven through its pool."""

    def __init__(self, sut, pool: list, expected: list,
                 recorder: SpanRecorder | None = None) -> None:
        self.sut = sut
        self.pool = pool
        self.expected = expected
        self.recorder = recorder or SpanRecorder(False)
        self.probe = SpeedProbe()
        self.cursor = 0
        #: Wall time with at least one frame in flight (for the
        #: stats-vs-wall-clock cross-check).
        self.active_s = 0.0
        self._active_since = 0.0
        #: key -> (pool index, latency origin, deadline)
        self._pending: dict = {}
        self._stash: list[_Stash] = []
        self._probe_samples: list[float] = []
        self._probe_times: list[float] = []
        #: The latest probe readings, across passes: what the open
        #: loop's clock runs by.
        self._recent_probes: deque[float] = deque(maxlen=CLOCK_PROBES)
        self._probe_cpu_s = 0.0
        self._last_probe = 0.0
        self._polls = self._empty_polls = 0
        self._in_flight: list[int] = []
        self._lateness: list[float] = []
        #: pool index -> digest of its first un-degraded result.
        self.seen_results: dict[int, bytes] = {}
        #: Sum of the program's own latency figures over completed frames
        #: (the denominator of ``obs.stage_sum_over_latency``).
        self.program_latency_s = 0.0

    # -- primitives ------------------------------------------------------
    def _submit(self, request=None, origin: float | None = None) -> None:
        """Submit the next pool frame in cyclic order — as ``request``
        when given (the open loop's tagged copy of that frame); latency
        runs from ``origin`` (default: now)."""
        index = self.cursor % len(self.pool)
        self.cursor += 1
        if request is None:
            request = self.pool[index]
        started = time.perf_counter()
        if not self._pending:
            self._active_since = started
        with self.recorder.span(f"{self.sut.layer}.submit", self.sut.layer,
                                index):
            key = self.sut.submit(request)
        self._pending[key] = (index, started if origin is None else origin,
                              request.deadline_s)

    def _poll(self, block: bool) -> int:
        self._in_flight.append(len(self._pending))
        with self.recorder.span(f"{self.sut.layer}.poll", self.sut.layer):
            outcomes = self.sut.poll(block)
        now = time.perf_counter()
        self._polls += 1
        if not outcomes:
            self._empty_polls += 1
        for outcome in outcomes:
            index, origin, deadline_s = self._pending.pop(outcome.key)
            if outcome.resolution == "completed":
                self.program_latency_s += outcome.program_latency_s
            self._stash.append(_Stash(index, origin, now, deadline_s,
                                      outcome))
        if outcomes and not self._pending:
            self.active_s += now - self._active_since
        return len(outcomes)

    def _run_probe(self, now: float) -> bool:
        if now - self._last_probe < PROBE_PERIOD_S:
            return False
        cpu = time.process_time()
        with self.recorder.span("bench.probe", "bench"):
            self._probe_samples.append(self.probe.run())
        self._probe_times.append(now)
        self._recent_probes.append(self._probe_samples[-1])
        self._probe_cpu_s += time.process_time() - cpu
        self._last_probe = time.perf_counter()
        return True

    def _idle(self, seconds: float) -> None:
        with self.recorder.span("bench.idle", "bench"):
            time.sleep(seconds)

    # -- closed loop -----------------------------------------------------
    def _closed_step(self) -> None:
        """One driver-loop iteration: poll, resubmit one frame per
        resolved frame, probe if one is due."""
        resolved = self._poll(block=True)
        if resolved:
            with self.recorder.span("bench.loadgen", "bench"):
                for _ in range(resolved):
                    self._submit()
        probed = self._run_probe(time.perf_counter())
        if not (resolved or probed or self.sut.in_process):
            self._idle(EMPTY_POLL_SLEEP_S)

    def prime(self, outstanding: int, settle: int) -> None:
        """Fill the pipeline, then run ``settle`` completions so the next
        pass opens in steady state right after a completion event."""
        while len(self._pending) < outstanding:
            self._submit()
        self.settle(settle)

    def settle(self, completions: int) -> None:
        target = len(self._stash) + completions
        while len(self._stash) < target:
            self._closed_step()
        self._verify(self._reset_window())

    def closed_pass(self, seconds: float) -> PassResult:
        """Measure the whole number of pool cycles nearest ``seconds``
        (at least one), judged by this pass's own pace."""
        self._verify(self._reset_window())
        edge = self._open_edge()
        cycles = 0
        while True:
            self._closed_step()
            if len(self._stash) >= (cycles + 1) * len(self.pool):
                cycles = len(self._stash) // len(self.pool)
                elapsed = time.perf_counter() - edge[0]
                if elapsed * (1.0 + 0.5 / cycles) >= seconds:
                    break
        # Probing stops an in-process program, so its time is not the
        # program's; a farm worker keeps decoding through it.
        return self._close_pass(edge, probe_stops_program=self.sut.in_process)

    # -- open loop -------------------------------------------------------
    def box_speed(self) -> float:
        """Box speed just now, from the latest probe readings."""
        return speed_factor(self._recent_probes)

    def open_pass(self, offsets, classes) -> PassResult:
        """Replay an arrival schedule — due times in *reference* seconds
        from pass open and each arrival's ``(priority, deadline_s)``
        class, carried by the pool frames in cyclic order; the pass
        closes when its last frame has resolved.

        The whole experiment runs in reference time.  The pass keeps a
        clock that advances at the box's current speed (from the latest
        probe readings), an arrival is due when that clock reaches its
        offset, and its deadline is stretched by the same factor: a box
        running at 0.7x is offered 0.7x the frames per wall second with
        1/0.7x the deadline — the same share of its capacity.  At a fixed
        wall-clock rate a slow spell raises utilisation, and queueing
        inflates latency far more than the slow-down itself."""
        self._verify(self._reset_window())
        speed = self.box_speed()
        edge = self._open_edge()
        clock, ticked = 0.0, edge[0]
        count, sent = len(offsets), 0
        while len(self._stash) < count:
            now = time.perf_counter()
            clock += (now - ticked) * speed
            ticked = now
            if sent < count and offsets[sent] <= clock:
                with self.recorder.span("bench.loadgen", "bench"):
                    while sent < count and offsets[sent] <= clock:
                        late = (clock - offsets[sent]) / speed
                        self._lateness.append(late)
                        priority, deadline_s = classes[sent]
                        self._submit(dataclasses.replace(
                            self.pool[self.cursor % len(self.pool)],
                            priority=priority,
                            deadline_s=(None if deadline_s is None
                                        else deadline_s / speed)),
                            now - late)
                        sent += 1
            if self._pending:
                self._poll(block=False)
                continue
            gap = (offsets[sent] - clock) / speed
            if gap > PROBE_GAP_S and self._run_probe(now):
                speed = self.box_speed()
                continue
            if gap > 0:
                # Wake in time for the next probe: the clock needs them.
                self._idle(min(gap, PROBE_PERIOD_S))
        # Probes sit in idle gaps; the schedule's clock never stops.
        result = self._close_pass(edge, probe_stops_program=False)
        result.rate_speed = clock / (ticked - edge[0])
        return result

    def drain(self) -> None:
        """Resolve whatever is still in flight (outside any pass)."""
        while self._pending:
            if not self._poll(block=True):
                time.sleep(EMPTY_POLL_SLEEP_S)
        self._verify(self._reset_window())

    # -- pass edges ------------------------------------------------------
    def _reset_window(self) -> list[_Stash]:
        stash = self._stash
        self._stash = []
        self._probe_samples = []
        self._probe_times = []
        self._probe_cpu_s = 0.0
        self._polls = self._empty_polls = 0
        self._in_flight = []
        self._lateness = []
        return stash

    def _open_edge(self) -> tuple[float, float, float]:
        # Descendant scan first: it is the slow part, and it must not
        # sit between the wall stamp and the loop.
        children_cpu = descendant_cpu_s()
        return time.perf_counter(), time.process_time(), children_cpu

    def _close_pass(self, edge, probe_stops_program: bool) -> PassResult:
        closed_wall, closed_cpu = time.perf_counter(), time.process_time()
        children_cpu = descendant_cpu_s()
        opened_wall, opened_cpu, opened_children = edge
        samples = self._probe_samples
        if len(samples) < 3:
            # A pass too short for the cadence (smoke runs): take the
            # yardstick now, outside the window.
            samples = samples + [self.probe.run() for _ in range(5)]
            probe_s = sum(self._probe_samples)
        else:
            probe_s = sum(samples)
        driver_cpu = closed_cpu - opened_cpu - self._probe_cpu_s
        result = PassResult(
            wall_s=(closed_wall - opened_wall
                    - (probe_s if probe_stops_program else 0.0)),
            cpu_s=driver_cpu + children_cpu - opened_children,
            driver_cpu_s=driver_cpu, speed=speed_factor(samples),
            rate_speed=speed_factor(samples), probe_s=probe_s,
            probe_samples=samples, probe_times=self._probe_times,
            polls=self._polls, empty_polls=self._empty_polls,
            in_flight_samples=self._in_flight, lateness_s=self._lateness)
        stash = self._reset_window()
        result.latency_speeds = speed_factors_at(
            [(item.origin_s + item.done_s) / 2 for item in stash],
            result.probe_times, samples[:len(result.probe_times)],
            LATENCY_PROBES, result.speed).tolist()
        with self.recorder.span("bench.check", "bench"):
            self._verify(stash, result)
        return result

    # -- verification (never inside a timed window) ----------------------
    def _verify(self, stash: list[_Stash],
                result: PassResult | None = None) -> None:
        """Compare every stashed outcome with the oracle.  Frames that
        resolve outside a pass (priming, settling, draining) are checked
        too — a mismatch there raises, it cannot hide."""
        for item in stash:
            outcome = item.outcome
            index = item.index
            expected = self.expected[index]
            has_deadline = item.deadline_s is not None
            status = "ok"
            if outcome.resolution != "completed":
                status = "expired"
            elif outcome.degraded:
                status = "degraded"
            elif not oracle.matches(expected, outcome.result):
                status = "mismatched"
            elif index not in self.seen_results:
                self.seen_results[index] = oracle.result_digest(
                    outcome.result)
            if result is None:
                if status == "mismatched":
                    raise AssertionError(
                        f"pool frame {index} decoded differently from "
                        "the oracle outside a pass")
                continue
            latency_s = item.done_s - item.origin_s
            result.attempted += 1
            result.latencies_s.append(latency_s)
            if status == "ok":
                result.ok += 1
                result.good_bits += expected.good_bits
                if not has_deadline or latency_s <= item.deadline_s:
                    result.slo_met += 1
            elif status == "degraded" and has_deadline:
                result.degraded += 1        # allowed by the QoS contract
            else:
                setattr(result, status, getattr(result, status) + 1)
                result.failed += 1
