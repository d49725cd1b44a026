"""The layer ladder: a few fixed frames through each rung in isolation.

scalar search -> per-subcarrier batch -> frame engine (+ preprocess) ->
coded chain -> ``UplinkRuntime`` -> inline farm -> process farm -> socket
client.  Every rung decodes the same pool frames through one layer's
public functions, so each layer's added cost or win is a number with the
scalar rung as the base of every ratio.

Each rung runs ``REPEATS`` times with the speed probe in between and
reports the median calibrated cost; every call into the program is a
span under the rung's root span, and the share of the root its children
cover is returned so "spans sum to the rung's wall" is checked, not
assumed.  A workload runs only the rungs of layers it exercises; the
rest of the per-layer metrics read zero there.
"""

from __future__ import annotations

import pickle
import socket
import statistics
import time

import numpy as np

import oracle
from probe import SpeedProbe, speed_factor
from spans import END, START, SpanRecorder
from workloads import FarmSocketSut
from repro.coding import viterbi_decode_batch, viterbi_decode_soft_batch
from repro.frame import rotate_frame, triangularize_frame
from repro.obs import prometheus_text
from repro.phy import recover_uplink, recover_uplink_soft
from repro.phy.receiver import stream_coded_bits, stream_coded_reliabilities
from repro.runtime import UplinkRuntime
from repro.service import DetectorFarm
from repro.service.protocol import recv_obj, send_obj
from repro.sphere import ComplexityCounters

REPEATS, OVERHEAD_PAIRS = 3, 5
SMOKE_REPEATS, SMOKE_OVERHEAD_PAIRS = 1, 2


class Ladder:
    def __init__(self, recorder: SpanRecorder, frames: list[tuple],
                 smoke: bool) -> None:
        """``frames`` is ``[(pool index, request, expected), ...]``."""
        self.recorder = recorder
        self.frames = frames
        self.repeats = SMOKE_REPEATS if smoke else REPEATS
        self.overhead_pairs = (SMOKE_OVERHEAD_PAIRS if smoke
                               else OVERHEAD_PAIRS)
        self.probe = SpeedProbe()
        self.metrics: dict[str, float] = {}
        self.coverage: dict[str, float] = {}

    # -- the rung runner -------------------------------------------------
    def rung(self, name: str, layer: str, call, items=None,
             units_per_item: float = 1.0) -> float:
        """Run ``call(item)`` over ``items`` (default: the ladder frames)
        ``self.repeats`` times; returns calibrated milliseconds per
        unit."""
        items = self.frames if items is None else items
        costs = []
        for _ in range(self.repeats):
            before = [self.probe.run() for _ in range(3)]
            with self.recorder.span(f"rung:{name}", "bench") as root:
                for item in items:
                    with self.recorder.span(name, layer, item[0]):
                        call(item)
            after = [self.probe.run() for _ in range(3)]
            span = self.recorder.spans[root]
            costs.append((span[END] - span[START])
                         * speed_factor(before + after))
            self.coverage[name] = min(self.coverage.get(name, 1.0),
                                      self.recorder.child_coverage(root))
        return (statistics.median(costs) * 1e3
                / (len(items) * units_per_item))

    # -- sphere ----------------------------------------------------------
    def _sample_slots(self, request):
        """Two subcarriers x every OFDM symbol of the frame."""
        num_subcarriers = request.channels.shape[0]
        return [num_subcarriers // 4, (3 * num_subcarriers) // 4]

    def sphere_scalar(self, items, prefix: str = "") -> None:
        """The scalar rung (``prefix`` ``"soft_"`` for list decoding):
        cost per search and the exact node counts of the sampled slots."""
        totals = ComplexityCounters()
        searches = 0

        def scalar(item):
            nonlocal searches
            _, request, _ = item
            for subcarrier in self._sample_slots(request):
                for symbol in range(request.received.shape[0]):
                    totals.merge(oracle.scalar_decode(
                        request, symbol, subcarrier).counters)
                    searches += 1

        name = "sphere.decode_soft" if prefix else "sphere.decode"
        # Frames may differ in length, so cost is per search actually run.
        rung_ms = self.rung(name, "sphere", scalar, items=items) * len(items)
        metrics = self.metrics
        metrics[f"sphere.{prefix}scalar_ms_per_search"] = (
            rung_ms * self.repeats / searches)
        metrics[f"sphere.{prefix}visited_nodes_per_search"] = (
            totals.visited_nodes / searches)
        if not prefix:
            metrics["sphere.ped_calcs_per_search"] = (
                totals.ped_calcs / searches)

    def sphere_batch(self) -> None:
        def batch(item):
            _, request, _ = item
            q_stack, r_stack = triangularize_frame(request.channels)
            y_hat = rotate_frame(q_stack, request.received)
            for subcarrier in self._sample_slots(request):
                request.decoder.decode_batch(r_stack[subcarrier],
                                             y_hat[subcarrier])

        searches = 2 * self.frames[0][1].received.shape[0]
        self.metrics["sphere.batch_ms_per_search"] = self.rung(
            "sphere.decode_batch", "sphere", batch, units_per_item=searches)

    # -- frame -----------------------------------------------------------
    def frame_preprocess(self) -> None:
        def preprocess(item):
            _, request, _ = item
            q_stack, _ = triangularize_frame(request.channels)
            rotate_frame(q_stack, request.received)

        self.metrics["frame.preprocess_ms_per_frame"] = self.rung(
            "frame.preprocess", "frame", preprocess)

    def frame_decode(self, metric: str, scalar_metric: str, items) -> float:
        """``decode_frame`` per frame, and its speed-up over running the
        frame's searches through the scalar rung."""
        def decode(item):
            _, request, expected = item
            if not oracle.matches(
                    oracle.Expected(expected.result, None, 0),
                    oracle.decode_standalone(request)):
                raise AssertionError("decode_frame is not repeatable")

        cost = self.rung("frame.decode_frame", "frame", decode, items=items)
        self.metrics[metric] = cost
        searches = items[0][2].result.symbol_indices[..., 0].size
        self.metrics["frame.speedup_over_scalar"] = (
            self.metrics[scalar_metric] * searches / cost)
        return cost

    # -- coding / phy ----------------------------------------------------
    def coded_chain(self, hard_frames, soft_frames) -> None:
        def blocks(item, soft):
            _, request, expected = item
            config, pad = request.config, request.num_pad_bits
            if soft:
                width = config.bits_per_symbol
                llrs = expected.result.llrs
                return np.stack([stream_coded_reliabilities(
                    llrs[:, :, c * width:(c + 1) * width], pad, config)
                    for c in range(llrs.shape[2] // width)])
            indices = expected.result.symbol_indices
            return np.stack([stream_coded_bits(indices[:, :, c], pad, config)
                             for c in range(indices.shape[2])])

        hard_blocks = [(item[0], blocks(item, False), item[1].config.code)
                       for item in hard_frames]
        soft_blocks = [(item[0], blocks(item, True), item[1].config.code)
                       for item in soft_frames]
        streams = hard_blocks[0][1].shape[0]
        self.metrics["coding.viterbi_ms_per_block"] = self.rung(
            "coding.viterbi_decode_batch", "coding",
            lambda item: viterbi_decode_batch(item[1], item[2]),
            items=hard_blocks, units_per_item=streams)
        self.metrics["coding.viterbi_soft_ms_per_block"] = self.rung(
            "coding.viterbi_decode_soft_batch", "coding",
            lambda item: viterbi_decode_soft_batch(item[1], item[2]),
            items=soft_blocks, units_per_item=streams)

        crc = []
        self.metrics["phy.recover_ms_per_frame"] = self.rung(
            "phy.recover_uplink", "phy",
            lambda item: recover_uplink(item[2].result.symbol_indices,
                                        item[1].num_pad_bits,
                                        item[1].config),
            items=hard_frames)
        self.metrics["phy.recover_soft_ms_per_frame"] = self.rung(
            "phy.recover_uplink_soft", "phy",
            lambda item: crc.extend(
                decision.crc_ok for decision in recover_uplink_soft(
                    item[2].result.llrs, item[1].num_pad_bits,
                    item[1].config)),
            items=soft_frames)
        self.metrics["coding.crc_ok_fraction"] = sum(crc) / len(crc)

    # -- runtime ---------------------------------------------------------
    def _pipelined(self, items, **runtime_kwargs) -> UplinkRuntime:
        runtime = UplinkRuntime(**runtime_kwargs)
        handles = [runtime.submit(request) for _, request, _ in items]
        runtime.drain()
        for handle, (_, _, expected) in zip(handles, items):
            if not oracle.matches(expected, handle.result()):
                raise AssertionError("runtime rung disagrees with the oracle")
        return runtime

    def runtime(self, items, frame_at_a_time_ms: float) -> float:
        cost = self.rung("runtime.stream", "runtime",
                         lambda batch: self._pipelined(batch[1]),
                         items=[(None, items)], units_per_item=len(items))
        self.metrics["runtime.ms_per_frame"] = cost
        self.metrics["runtime.pipeline_gain"] = frame_at_a_time_ms / cost
        return cost

    # -- service ---------------------------------------------------------
    def _through_farm(self, farm, items) -> None:
        handles = [farm.submit(request) for _, request, _ in items]
        farm.drain()
        for handle, (_, _, expected) in zip(handles, items):
            if not oracle.matches(expected, handle.result()):
                raise AssertionError("farm rung disagrees with the oracle")

    def _through_socket(self, sut, items) -> list[dict]:
        keys = [sut.client.submit(request) for _, request, _ in items]
        payloads = {p["frame_id"]: p for p in sut.client.drain()}
        for key, (_, _, expected) in zip(keys, items):
            if not oracle.matches(expected, payloads[key]["result"]):
                raise AssertionError("socket rung disagrees with the oracle")
        return list(payloads.values())

    def service(self, items, runtime_ms: float) -> None:
        batch = [(None, items)]
        count = len(items)
        with DetectorFarm(num_shards=1, backend="inline") as farm:
            self.metrics["service.inline_ms_per_frame"] = self.rung(
                "service.inline_farm", "service",
                lambda b: self._through_farm(farm, b[1]), items=batch,
                units_per_item=count)
        with DetectorFarm(num_shards=1, backend="process") as farm:
            self._through_farm(farm, items)             # warm the worker
            process_ms = self.rung(
                "service.process_farm", "service",
                lambda b: self._through_farm(farm, b[1]), items=batch,
                units_per_item=count)
        self.metrics["service.process_ms_per_frame"] = process_ms
        self.metrics["service.process_over_runtime"] = process_ms / runtime_ms
        sut = FarmSocketSut()
        try:
            payloads = self._through_socket(sut, items)  # warm, and sizes
            self.metrics["service.socket_ms_per_frame"] = self.rung(
                "service.socket_client", "service",
                lambda b: self._through_socket(sut, b[1]), items=batch,
                units_per_item=count)
        finally:
            sut.close()

        # Exact byte counts: what one frame costs on the wire each way.
        def dumps(obj) -> int:
            return len(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))

        self.metrics["service.request_bytes_per_frame"] = statistics.fmean(
            dumps(("submit", request)) for _, request, _ in items)
        self.metrics["service.result_bytes_per_frame"] = statistics.fmean(
            dumps(("ok", [payload])) for payload in payloads)

        left, right = socket.socketpair()
        try:
            def wire(item):
                # One frame of each message across a local stream socket,
                # the request in one direction and the reply in the other
                # — the protocol's share with no farm behind it.
                send_obj(left, ("submit", item[1]))
                recv_obj(right)
                send_obj(right, ("ok", [item[2]]))
                recv_obj(left)

            self.metrics["service.wire_ms_per_frame"] = self.rung(
                "service.wire", "service", wire,
                items=[(index, request, payload) for (index, request, _),
                       payload in zip(items, payloads)])
        finally:
            left.close()
            right.close()

    # -- obs -------------------------------------------------------------
    def obs(self, items) -> None:
        """Tracer overhead from interleaved off/on pairs on the ladder
        frames: the median ratio and its quartile spread."""
        ratios = []
        summary = None
        for _ in range(self.overhead_pairs):
            timings = []
            for trace in (False, True):
                started = time.perf_counter()
                with self.recorder.span(
                        f"runtime.stream[trace={trace}]", "runtime"):
                    runtime = self._pipelined(items, trace=trace)
                timings.append(time.perf_counter() - started)
            ratios.append(timings[1] / timings[0] - 1.0)
            summary = runtime.stats.summary()
        quartiles = statistics.quantiles(ratios, n=4)
        self.metrics["obs.tracer_overhead_fraction"] = quartiles[1]
        self.metrics["obs.tracer_overhead_spread"] = (quartiles[2]
                                                      - quartiles[0])
        renders = []
        for _ in range(5):
            started = time.perf_counter()
            with self.recorder.span("obs.prometheus_text", "obs"):
                prometheus_text(summary)
            renders.append(time.perf_counter() - started)
        self.metrics["obs.prometheus_render_ms"] = (
            statistics.median(renders) * 1e3)


def run_ladder(workload, pool, expected, recorder: SpanRecorder,
               smoke: bool) -> tuple[dict, dict]:
    """Run the rungs ``workload`` exercises; returns ``(metrics,
    coverage)`` with coverage the per-rung child-span share."""
    items = [(index, pool[index], expected[index])
             for index in range(len(pool))]
    frames = 4 if smoke else 8
    if workload.coded:
        soft = [item for item in items if oracle.is_soft(item[1])]
        hard = [item for item in items if not oracle.is_soft(item[1])]
        soft, hard = soft[:frames // 2], hard[:frames // 2]
        ladder = Ladder(recorder, soft, smoke)
        ladder.sphere_scalar(soft, "soft_")
        ladder.frame_preprocess()
        soft_ms = ladder.frame_decode("frame.soft_ms_per_frame",
                                      "sphere.soft_scalar_ms_per_search", soft)
        ladder.coded_chain(hard, soft)
        ladder.runtime(soft, soft_ms
                       + ladder.metrics["phy.recover_soft_ms_per_frame"])
        ladder.obs(soft)
    else:
        hard = items[:frames]
        ladder = Ladder(recorder, hard, smoke)
        ladder.sphere_scalar(hard)
        ladder.sphere_batch()
        ladder.frame_preprocess()
        hard_ms = ladder.frame_decode("frame.hard_ms_per_frame",
                                      "sphere.scalar_ms_per_search", hard)
        runtime_ms = ladder.runtime(hard, hard_ms)
        if workload.farm:
            ladder.service(hard, runtime_ms)
        ladder.obs(hard)
    return ladder.metrics, ladder.coverage
