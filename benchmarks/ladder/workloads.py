"""The four workloads: frame pools, arrival schedules, systems under test.

Everything the program receives is a plain
:class:`~repro.runtime.FrameRequest` generated here; the program never
sees a seed.  Pools are cycled, so every frame has an expected result
computed once at set-up (:mod:`oracle`).

Why the frames are a fixed corpus.  Sphere-search cost is heavy-tailed:
one frame's cost in the streaming runtime has a coefficient of variation
of 1.0 (a few ill-conditioned subcarriers end in the scalar straggler
drain), so the mean cost of a freshly drawn 32-frame pool moves 18 % from
draw to draw, of a 128-frame pool 7 % (measured on 1024 frames, three
repeats), and a pool steady to a third of a 0.10 bound would need 1 600
frames — half a minute of oracle work per set-up.  So the corpus is
generated from ``--corpus-seed`` (default ``CORPUS_SEED``: a recorded
trace in all but name) and ``--seed`` draws everything that can vary at
constant cost: each frame's channels and observations are rotated by a
seed-drawn unitary on the antenna side (``||Qy - QHs|| = ||y - Hs||``:
the same search tree, different bytes everywhere), and the open loop's
arrival instants and QoS classes are drawn afresh for every pass.
The coded corpus takes a fixed quota per (kind, modulation) class — the
cell's long-run mix — because one soft 16-QAM frame costs several hard
4-QAM ones and a free draw gives 4 to 8 of them in 32.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from driver import descendants
from repro.channel import awgn, noise_variance_for_snr, rayleigh_channels
from repro.constellation import qam
from repro.runtime import (
    CellWorkload,
    FrameRequest,
    UplinkRuntime,
    synthetic_cell_trace,
)
from repro.service import CellSiteClient, CellSiteServer, DetectorFarm
from repro.sphere import SphereDecoder

# ROADMAP's fixed workload: 16-QAM 4x4 x 64 subcarriers x 4 OFDM symbols,
# Rayleigh, 21 dB.
ORDER, STREAMS, ANTENNAS, SUBCARRIERS, SYMBOLS, SNR_DB = 16, 4, 4, 64, 4, 21.0

#: Generates the default frame corpus; never changes (it would move every
#: number).
CORPUS_SEED = 20140817
HARD_POOL_FRAMES = 32
#: Frames per (kind, modulation order) class in the coded pool.
CODED_POOL_QUOTA = {("hard", 4): 11, ("soft", 4): 11,
                    ("hard", 16): 5, ("soft", 16): 5}
SMOKE_POOL_FRAMES = 8
SMOKE_CODED_QUOTA = {("hard", 4): 2, ("soft", 4): 2,
                     ("hard", 16): 2, ("soft", 16): 2}

OUTSTANDING = 8
#: Frames resolve in clumps (eight in lockstep finish together), so a
#: poll that ran to the next resolution would hand the driver control —
#: and the speed probe a turn — only ~10 times a second.
CLOSED_LOOP_POLL_TICKS = 10
OPEN_LOOP_RATE_HZ = 30.0
OPEN_LOOP_MAX_IN_FLIGHT = 64
#: (name, share, priority, deadline_s) of the open-loop traffic mix;
#: deadlines in reference seconds.
QOS_MIX = (("urgent", 0.2, 0, 0.100),
           ("interactive", 0.3, 1, 0.250),
           ("background", 0.5, 2, None))


# -- pools ---------------------------------------------------------------
def hard_corpus(corpus_seed: int, frames: int) -> list[FrameRequest]:
    """Uncoded hard frames of the fixed workload, fresh Rayleigh
    channels per frame."""
    rng = np.random.default_rng([corpus_seed, 1])
    constellation = qam(ORDER)
    decoder = SphereDecoder(constellation)
    pool = []
    for _ in range(frames):
        channels = rayleigh_channels(SUBCARRIERS, ANTENNAS, STREAMS, rng)
        sent = rng.integers(0, ORDER, size=(SYMBOLS, SUBCARRIERS, STREAMS))
        clean = np.einsum("tsc,sac->tsa", constellation.points[sent],
                          channels)
        noise_variance = float(np.mean(
            [noise_variance_for_snr(channels[s], SNR_DB)
             for s in range(SUBCARRIERS)]))
        received = clean + awgn(clean.shape, noise_variance, rng)
        pool.append(FrameRequest(channels=channels, received=received,
                                 decoder=decoder))
    return pool


def coded_soft_corpus(corpus_seed: int, quota: dict) -> list[FrameRequest]:
    """Coded cell traffic — 4-/16-QAM by rate adaptation, hard and soft
    — drawn from ``CellWorkload`` until every class quota is full, kept
    in arrival order."""
    rng = np.random.default_rng([corpus_seed, 2])
    trace = synthetic_cell_trace(16, SUBCARRIERS, ANTENNAS, STREAMS, rng=rng)
    cell = CellWorkload(trace, coded=True, soft_fraction=0.5, list_size=16,
                        payload_bits=184, rng=rng)
    room = dict(quota)
    pool = []
    for _ in range(100 * sum(quota.values())):
        if not any(room.values()):
            return pool
        frame = cell.next_frame()
        key = (frame.metadata["kind"], frame.metadata["order"])
        if room.get(key, 0):
            room[key] -= 1
            pool.append(frame)
    raise RuntimeError(f"CellWorkload never filled the class quota: {room}")


def reseeded(corpus: list[FrameRequest], seed: int) -> list[FrameRequest]:
    """The corpus as ``--seed`` presents it: every frame rotated by its
    own seed-drawn antenna-side unitary.  Pool order stays fixed — which
    frames share the pipeline shapes the latency distribution, and the
    percentiles must not depend on the seed."""
    rng = np.random.default_rng([seed, 1])
    pool = []
    for frame in corpus:
        antennas = frame.channels.shape[1]
        unitary, _ = np.linalg.qr(
            rng.standard_normal((antennas, antennas))
            + 1j * rng.standard_normal((antennas, antennas)))
        pool.append(dataclasses.replace(
            frame,
            channels=np.einsum("ab,sbc->sac", unitary, frame.channels),
            received=np.einsum("ab,tsb->tsa", unitary, frame.received)))
    return pool


def arrival_schedule(seed: int, pass_index: int, pass_seconds: float
                     ) -> tuple[np.ndarray, list]:
    """One open-loop pass: due times (reference seconds from pass open,
    sorted) and each arrival's ``(priority, deadline_s)`` class.

    A Poisson process conditioned on its count, and a traffic mix
    conditioned on its shares: exactly ``rate x pass_seconds`` arrivals
    at uniform instants, of which exactly the ``QOS_MIX`` shares carry
    each class, in seed-drawn order — so the offered load is the same in
    every pass while instants, bursts and which frame is urgent are
    not."""
    rng = np.random.default_rng([seed, 4, pass_index])
    count = max(1, round(OPEN_LOOP_RATE_HZ * pass_seconds))
    due = np.sort(rng.uniform(0.0, pass_seconds, count))
    edges = np.round(np.cumsum([share for _, share, _, _ in QOS_MIX])
                     * count).astype(int)
    classes = []
    for (_, _, priority, deadline_s), edge in zip(QOS_MIX, edges):
        classes.extend([(priority, deadline_s)] * (edge - len(classes)))
    return due, [classes[i] for i in rng.permutation(count)]


def inputs_digest(pool: list[FrameRequest], schedules: list) -> str:
    """Digest of everything the program is handed: the frames in pool
    order, and (open loop) every pass's due times and classes."""
    digest = hashlib.blake2b(digest_size=16)
    for frame in pool:
        digest.update(np.ascontiguousarray(frame.channels).tobytes())
        digest.update(np.ascontiguousarray(frame.received).tobytes())
        digest.update(repr((frame.noise_variance, frame.num_pad_bits,
                            frame.deadline_s, frame.priority)).encode())
    for due, classes in schedules:
        digest.update(due.tobytes())
        digest.update(repr(classes).encode())
    return digest.hexdigest()


# -- systems under test ----------------------------------------------------
@dataclass
class Outcome:
    """One resolved frame as the driver sees it, whatever served it."""

    key: object
    resolution: str
    degraded: bool
    result: object          # None unless resolution == "completed"
    program_latency_s: float    # as the program itself measured it


class RuntimeSut:
    """In-process ``UplinkRuntime`` behind the driver's submit/poll."""

    layer = "runtime"
    in_process = True

    def __init__(self, trace: bool = False, **runtime_kwargs) -> None:
        self.runtime = UplinkRuntime(trace=trace, **runtime_kwargs)

    def submit(self, request: FrameRequest):
        return self.runtime.submit(request)

    def poll(self, block: bool) -> list[Outcome]:
        """``block`` ticks until a frame resolves, up to
        ``CLOSED_LOOP_POLL_TICKS`` (closed loop); otherwise one tick, so
        an open-loop generator gets control back between ticks."""
        handles = self.runtime.poll(CLOSED_LOOP_POLL_TICKS if block else 1)
        return [Outcome(handle, handle.resolution, handle.degraded,
                        handle.result() if handle.resolution == "completed"
                        else None, handle.latency_s) for handle in handles]

    def summary(self) -> dict:
        stats = self.runtime.stats
        report = stats.summary()
        report["tick_duration_percentiles_s"] = (
            stats.tick_duration_percentiles((50, 95)))
        return report

    def frame_traces(self) -> list:
        return self.runtime.tracer.traces()

    def close(self) -> None:
        pass


class FarmSocketSut:
    """``CellSiteClient`` -> ``CellSiteServer`` -> one-shard process farm
    on loopback.  One shard because the box has 2 vCPUs: the driver (with
    the server threads) and one worker keep both busy.

    Each gets a vCPU of its own, pinned.  Left to itself the kernel now
    and then stacks the two on one vCPU for minutes on end (measured: ten
    back-to-back runs alternated between 53-55 frames/s at exactly one
    busy CPU and 64-70 frames/s at 1.1), which no yardstick can calibrate
    away."""

    layer = "service"
    in_process = False

    def __init__(self, trace: bool = False) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        # This thread first — the server's threads inherit from it — then
        # the farm, whose worker forks before the server starts threads.
        os.sched_setaffinity(0, cpus[:1])
        self.farm = DetectorFarm(num_shards=1, backend="process",
                                 trace=trace)
        for pid in descendants(os.getpid()):
            for task in Path(f"/proc/{pid}/task").iterdir():
                os.sched_setaffinity(int(task.name), cpus[-1:])
        self.server = CellSiteServer(self.farm)
        self.client = CellSiteClient(self.server.address)

    def submit(self, request: FrameRequest):
        return self.client.submit(request)

    def poll(self, block: bool) -> list[Outcome]:
        return [Outcome(payload["frame_id"], payload["resolution"],
                        payload["degraded"], payload["result"],
                        payload["latency_s"])
                for payload in self.client.poll()]

    def summary(self) -> dict:
        """The farm aggregate, with the one shard's percentile
        sub-reports lifted to the top level (the aggregate cannot merge
        percentiles; the farm exposes p50/p90/p99 only)."""
        report = self.client.stats()
        shard = report["per_shard"][0] or {}
        for key in ("tick_duration_percentiles_s",
                    "stage_latency_percentiles_s"):
            report[key] = shard.get(key, {})
        return report

    def frame_traces(self) -> list:
        return self.farm.tracer.traces()

    def close(self) -> None:
        self.client.close()
        self.server.close()


# -- the workload table ------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    loop: str               # "closed" | "open"
    coded: bool = False
    farm: bool = False      # served through the socket farm, not in-process

    def make_pool(self, seed: int, corpus_seed: int, smoke: bool
                  ) -> list[FrameRequest]:
        if self.coded:
            corpus = coded_soft_corpus(
                corpus_seed, SMOKE_CODED_QUOTA if smoke else CODED_POOL_QUOTA)
        else:
            corpus = hard_corpus(
                corpus_seed, SMOKE_POOL_FRAMES if smoke else HARD_POOL_FRAMES)
        return reseeded(corpus, seed)

    def make_sut(self, trace: bool):
        if self.farm:
            return FarmSocketSut(trace)
        if self.loop == "open":
            return RuntimeSut(trace, lane_policy="deadline",
                              max_in_flight=OPEN_LOOP_MAX_IN_FLIGHT)
        return RuntimeSut(trace)


WORKLOADS = {workload.name: workload for workload in (
    Workload("hard_stream", "closed"),
    Workload("coded_soft_cell", "closed", coded=True),
    Workload("farm_socket", "closed", farm=True),
    Workload("slo_open_loop", "open"),
)}
