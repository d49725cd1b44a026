"""Detector-farm benchmark: frames/sec vs worker shard count.

The ISSUE-8 acceptance number: a process-backed
:class:`~repro.service.router.DetectorFarm` streaming the 16-QAM 4x4 x
64-subcarrier workload must sustain >= 1.6x the frames/sec of the
1-shard farm at 2 shards (same mechanism, same IPC, one worker — so the
comparison isolates the sharding win, not farm-vs-runtime overhead).
The 4-shard number is recorded alongside.

The workload is *balanced by construction*: shard routing is by search
signature, so the stream interleaves decoder configs that perform
identical work (node budgets far above what any search visits — the
searches never feel them) but carry distinct signatures chosen to land
one per shard.  That models the intended deployment — several cells'
worth of equally-heavy traffic spread across the farm — rather than a
lucky hash.

Scaling is real parallelism, so the floor only applies where the
machine can parallelise: on single-core runners the numbers are still
measured and recorded, but the assertion is skipped.  Each worker is
pinned to a vCPU of its own (``_pin_workers``), so the number measures
sharding and not where the kernel happened to start two processes.
"""

import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from repro.channel import awgn, noise_variance_for_snr, rayleigh_channels
from repro.constellation import qam
from repro.runtime import FrameRequest
from repro.service import DetectorFarm, request_signature, shard_for
from repro.sphere import SphereDecoder

SUBCARRIERS = 64
OFDM_SYMBOLS = 4
FRAMES_PER_SHARD = 8
SNR_DB = 21.0
#: Far above any search's visited count at these sizes/SNR: the budget
#: never fires, it only differentiates the pool signature.
_HUGE_BUDGET = 10**9


def _decoder_per_shard(num_shards):
    """``num_shards`` equally-expensive decoders, one routed to each
    shard.  Signatures differ only in an unreachable node budget, so
    every shard receives identical work."""
    chosen = {}
    budget = _HUGE_BUDGET
    while len(chosen) < num_shards:
        decoder = SphereDecoder(qam(16), node_budget=budget)
        probe = FrameRequest(
            channels=np.zeros((1, 4, 4), dtype=np.complex128),
            received=np.zeros((1, 1, 4), dtype=np.complex128),
            decoder=decoder)
        shard = shard_for(request_signature(probe), num_shards)
        chosen.setdefault(shard, decoder)
        budget += 1
    return [chosen[shard] for shard in range(num_shards)]


def _frame_stream(decoders, frames_per_decoder, seed=7):
    """Round-robin interleave of identical-cost frames, one signature
    per decoder."""
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(frames_per_decoder):
        for decoder in decoders:
            channels = rayleigh_channels(SUBCARRIERS, 4, 4, rng)
            sent = rng.integers(0, 16,
                                size=(OFDM_SYMBOLS, SUBCARRIERS, 4))
            clean = np.einsum("tsc,sac->tsa",
                              decoder.constellation.points[sent], channels)
            noise_variance = float(np.mean(
                [noise_variance_for_snr(channels[s], SNR_DB)
                 for s in range(SUBCARRIERS)]))
            received = clean + awgn(clean.shape, noise_variance, rng)
            frames.append(FrameRequest(channels=channels,
                                       received=received, decoder=decoder))
    return frames


def _pin_workers():
    """Give each shard's worker a vCPU of its own (round-robin once
    shards outnumber them), the way the ladder's ``FarmSocketSut`` does.
    Left alone the kernel now and then starts two workers on one vCPU
    and leaves them there for the first few streams, which halves the
    2-shard number and says nothing about sharding (measured on 2 vCPUs:
    1.4-1.5x unpinned against a 1.6x floor, on code that reads 2.6-3.0x
    whenever the workers happen to land apart)."""
    if not hasattr(os, "sched_setaffinity"):
        return
    cpus = sorted(os.sched_getaffinity(0))
    workers = sorted(multiprocessing.active_children(),
                     key=lambda worker: worker.pid)
    for shard, worker in enumerate(workers):
        for task in Path(f"/proc/{worker.pid}/task").iterdir():
            os.sched_setaffinity(int(task.name), {cpus[shard % len(cpus)]})


def _farm_throughput(farm, frames, best_of):
    """Best-of-N seconds to stream ``frames`` through a resident farm
    whose workers each sit on their own vCPU."""
    _pin_workers()
    def stream():
        handles = [farm.submit(frame) for frame in frames]
        farm.drain()
        assert all(handle.resolution == "completed" for handle in handles)

    stream()                       # warm-up: forks served, pools built
    return best_of(stream, repeats=3)


def test_farm_scaling_two_shards(benchmark, best_of, speedup_floor):
    """2-shard process farm vs 1-shard process farm on a balanced
    two-signature stream; >= 1.6x frames/sec where two cores exist.
    The 4-shard farm is measured on the same stream and recorded
    (no floor — CI runners rarely have four quiet cores)."""
    decoders = _decoder_per_shard(2)
    frames = _frame_stream(decoders, FRAMES_PER_SHARD)

    with DetectorFarm(1, backend="process",
                      runtime_kwargs={"capacity": 128}) as farm:
        single_s = _farm_throughput(farm, frames, best_of)
    with DetectorFarm(2, backend="process",
                      runtime_kwargs={"capacity": 128}) as farm:
        sharded_s = _farm_throughput(farm, frames, best_of)
        assert all(count > 0 for count in farm.stats()["frames_routed"]), (
            "the stream must exercise both shards")
    with DetectorFarm(4, backend="process",
                      runtime_kwargs={"capacity": 128}) as farm:
        quad_s = _farm_throughput(farm, frames, best_of)

    benchmark.extra_info["frames"] = len(frames)
    benchmark.extra_info["fps_1_shard"] = len(frames) / single_s
    benchmark.extra_info["fps_2_shards"] = len(frames) / sharded_s
    benchmark.extra_info["fps_4_shards"] = len(frames) / quad_s
    benchmark.extra_info["speedup_4_shards"] = single_s / quad_s
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.pedantic(lambda: None, rounds=1, iterations=1,
                       warmup_rounds=0)

    if (os.cpu_count() or 1) >= 2:
        speedup_floor(single_s, sharded_s, 1.6,
                      baseline="one_shard", candidate="two_shards")
    else:
        # Single-core machine: parallel speedup is physically
        # unavailable; record the (~1x) ratio without asserting.
        benchmark.extra_info["one_shard_s"] = single_s
        benchmark.extra_info["two_shards_s"] = sharded_s
        benchmark.extra_info["speedup"] = single_s / sharded_s
        pytest.skip("needs >= 2 CPUs for the 2-shard floor; numbers "
                    "recorded in extra_info")
