"""Frame-batched channel decoding: the runtime's stage past detection.

A real access point does not deliver symbol indices — it delivers decoded
bits, and deployed-network evaluations report CRC-passing *goodput*.
This module closes that gap for the streaming runtime: when a
:class:`~repro.runtime.queue.FrameRequest` carries a
:class:`~repro.phy.config.PhyConfig`, the frame's completed detections
continue through the coded chain (deinterleave -> Viterbi -> CRC) before
the pending handle resolves.

The decoding is batched the same way PRs 1-5 batched detection: every
frame that finishes detection in the same engine tick contributes one
coded block per stream, the blocks are grouped by their trellis
signature — (convolutional-code parameters, coded length) — and each
group runs through :func:`repro.coding.viterbi.viterbi_decode_soft_batch`
in ONE call: one numpy product for every block's pattern costs, then one
native call of the compiled trellis for the add-compare-select and the
traceback.  Hard frames join soft frames in the same call (hard
decisions become ±1 reliabilities, exactly as
:func:`~repro.coding.viterbi.viterbi_decode` maps them), so a tick that
completes many frames pays the per-call overhead once, not once per
stream.

Decisions are **bit-identical** to the standalone per-stream chain
(:func:`repro.phy.receiver.recover_uplink` /
:func:`~repro.phy.receiver.recover_uplink_soft` on the same detections)
for every admission order: the pre-trellis and post-trellis transforms
are the very helpers the scalar chain runs, and the batched trellis is
bit-identical to the scalar one row by row
(``tests/test_runtime.py`` / ``tests/test_coding.py`` enforce both).
"""

from __future__ import annotations

import numpy as np

from ..coding.viterbi import viterbi_decode_soft_batch
from ..phy.receiver import (
    StreamDecision,
    finish_stream,
    stream_coded_bits,
    stream_coded_reliabilities,
)

__all__ = ["DecodeStage"]


class DecodeStage:
    """Batched deinterleave -> Viterbi -> CRC over completed frames.

    Parameters
    ----------
    tracer:
        :class:`~repro.obs.trace.FrameTracer` shared with the owning
        session, for the ``viterbi`` / ``crc`` lifecycle events on
        traced frames.  ``None`` (default) emits nothing.
    """

    def __init__(self, tracer=None) -> None:
        self._tracer = tracer

    def attach_decisions(self, completed: list) -> None:
        """Decode every configured frame in ``completed`` and attach
        per-stream decisions to its result, in place.

        ``completed`` holds ``(job, result)`` pairs — a
        :class:`~repro.runtime.queue.FrameJob` and the detection result
        its ``finalise()`` built.  Frames without a config (or with no
        search problems) keep ``result.decisions = None``; every other
        frame gains one :class:`~repro.phy.receiver.StreamDecision` per
        stream, in stream order.
        """
        tracing = self._tracer is not None and self._tracer.enabled
        traced: list = []
        # groups: trellis signature -> (code, reliability rows, output slots)
        groups: dict[tuple, tuple] = {}
        for job, result in completed:
            config = job.config
            if config is None or job.num_problems == 0:
                continue
            decisions: list[StreamDecision | None] = [None] * job.num_streams
            result.decisions = decisions
            if tracing and job.trace is not None:
                traced.append((job, decisions))
            bits_per_symbol = config.bits_per_symbol
            for client in range(job.num_streams):
                if job.kind == "hard":
                    coded = stream_coded_bits(
                        result.symbol_indices[:, :, client],
                        job.num_pad_bits, config)
                    if config.code is None:
                        # Uncoded stream: no trellis to batch over.
                        decisions[client] = finish_stream(coded)
                        continue
                    row = 1.0 - 2.0 * coded.astype(np.float64)
                else:
                    row = stream_coded_reliabilities(
                        result.llrs[:, :, client * bits_per_symbol:
                                    (client + 1) * bits_per_symbol],
                        job.num_pad_bits, config)
                code = config.code
                signature = (code.constraint_length, code.polynomials,
                             row.size)
                group = groups.get(signature)
                if group is None:
                    group = (code, [], [])
                    groups[signature] = group
                group[1].append(row)
                group[2].append((decisions, client))

        # One trellis call per (code, coded length) signature, spanning
        # every frame that completed this tick.
        for code, rows, slots in groups.values():
            framed = viterbi_decode_soft_batch(np.stack(rows), code)
            for block, (decisions, client) in zip(framed, slots):
                decisions[client] = finish_stream(block)

        for job, decisions in traced:
            if job.config.code is not None:
                self._tracer.emit(job.trace, "viterbi",
                                  streams=len(decisions))
            self._tracer.emit(
                job.trace, "crc", streams=len(decisions),
                crc_ok=sum(1 for decision in decisions if decision.crc_ok))
