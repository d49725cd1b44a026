"""Sharded detector farm + cell-site service front (ISSUE-8).

The farm contract under test: deterministic signature routing, results
bit-identical to standalone ``decode_frame`` through both backends and
the socket front, per-connection frame ownership, farm-wide
backpressure, and the supervision story — a SIGKILLed worker's in-flight
frames are replayed (real results) or expired (explicit
``FrameExpired``), never hung and never fabricated.

The deterministic sweeps (shard counts × admission orders × QoS mixes)
live in ``tests/test_runtime.py::test_farm_shard_counts_bit_identical``;
this file covers the farm's own machinery, including the process
backend, which forks real workers and therefore stays small and
targeted.
"""

import copy
import dataclasses
import re
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.convolutional import WIFI_CODE
from repro.constellation import qam
from repro.frame.results import (
    FrameDecodeResult,
    SoftFrameResult,
    narrowest_int,
)
from repro.obs.trace import FrameTrace
from repro.ofdm.params import WIFI_20MHZ
from repro.phy.config import PhyConfig
from repro.phy.receiver import StreamDecision
from repro.runtime import FrameExpired, FrameRequest, UplinkRuntime
from repro.runtime.cell import ofdm_for_subcarriers
from repro.runtime.queue import validate_request
from repro.obs import COUNTER_KEYS
from repro.runtime.stats import aggregate_summaries
from repro.service import (
    CellSiteClient,
    CellSiteServer,
    DetectorFarm,
    ShardRuntime,
    request_signature,
    shard_for,
)
from repro.service import wire
from repro.service.protocol import (
    MAX_MESSAGE_BYTES,
    recv_obj,
    resolution_payload,
    send_obj,
)
from repro.service.wire import (
    DTYPES,
    MAX_ITEMS,
    MAX_STR_BYTES,
    Resolution,
    Sealed,
    decode,
    encode,
    opened,
)
from repro.service.server import POLL_HOLD_S
from repro.service.supervisor import ShardSupervisor
from repro.sphere import ListSphereDecoder, SphereDecoder
from repro.sphere.counters import ComplexityCounters

from test_runtime import (
    _assert_identical,
    _coded_config,
    _make_coded_frame,
    _make_frame,
    _reference,
)


def _mixed_frames(rng, repeats=2):
    """Hard 16-QAM, hard QPSK and soft 16-QAM frames — three distinct
    signatures, so multi-shard farms actually spread work."""
    hard16 = SphereDecoder(qam(16))
    hard4 = SphereDecoder(qam(4))
    soft16 = ListSphereDecoder(qam(16), list_size=4)
    frames = []
    for _ in range(repeats):
        frames.append(_make_frame(hard16, 5, 2, 18.0, rng))
        frames.append(_make_frame(hard4, 4, 2, 12.0, rng))
        frames.append(_make_frame(soft16, 4, 2, 15.0, rng, soft=True))
    return frames


def _check_all(handles, frames):
    for handle, frame in zip(handles, frames):
        assert handle.resolution == "completed", handle.resolution
        _assert_identical(handle.result(), _reference(frame),
                          frame.noise_variance is not None)


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------

def test_routing_is_deterministic_and_signature_stable():
    rng = np.random.default_rng(0)
    frames = _mixed_frames(rng, repeats=1)
    signatures = [request_signature(frame) for frame in frames]
    assert len(set(signatures)) == 3, "three decoder setups, three keys"
    # Same decoder config, different payload -> same signature.
    again = _mixed_frames(np.random.default_rng(1), repeats=1)
    assert [request_signature(frame) for frame in again] == signatures
    for shards in (1, 2, 4, 7):
        routes = [shard_for(sig, shards) for sig in signatures]
        assert all(0 <= route < shards for route in routes)
        assert routes == [shard_for(sig, shards) for sig in signatures]
    with DetectorFarm(4, backend="inline") as farm:
        assert [farm.route(frame) for frame in frames] == [
            shard_for(sig, 4) for sig in signatures]
    # Every pool key is a prefix of its frames' routing key, so all of
    # one routing key's frames land in one pool of one shard ...
    runtime = UplinkRuntime()
    for frame in frames + again:
        runtime.submit(frame)
    pools = list(runtime._engine._pools)
    assert pools == [signature[:len(pool)]
                     for pool, signature in zip(pools, signatures,
                                                strict=True)]
    runtime.drain()
    # ... and the values a decoder sets per frame still route apart,
    # though each such frame joins the pool already there.
    hard16, soft16 = frames[0], frames[2]
    for frame, decoder in [
            (hard16, SphereDecoder(qam(16), node_budget=40)),
            (hard16, SphereDecoder(qam(16), initial_radius_sq=4.0)),
            (soft16, ListSphereDecoder(qam(16), list_size=4, clamp=2.0))]:
        variant = dataclasses.replace(frame, decoder=decoder)
        assert request_signature(variant) != request_signature(frame)
        runtime.submit(variant)
    assert list(runtime._engine._pools) == pools
    runtime.drain()

    with pytest.raises(ValueError):
        shard_for(signatures[0], 0)
    with pytest.raises(ValueError):
        request_signature(_bad_decoder_frame(rng))


def _bad_decoder_frame(rng):
    from repro.sphere import KBestDecoder
    frame = _make_frame(SphereDecoder(qam(4)), 2, 1, 15.0, rng)
    frame.decoder = KBestDecoder(qam(4), k=4)
    return frame


# ----------------------------------------------------------------------
# Process backend: bit-exactness, stats, supervision
# ----------------------------------------------------------------------

def test_process_farm_bit_identical_and_aggregated_stats():
    rng = np.random.default_rng(2)
    frames = _mixed_frames(rng)
    with DetectorFarm(2, backend="process") as farm:
        handles = [farm.submit(frame) for frame in frames]
        farm.drain()
        _check_all(handles, frames)
        assert farm.idle
        stats = farm.stats()
    assert stats["shards"] == 2
    assert stats["frames_completed"] == len(frames)
    assert stats["frames_expired"] == 0
    assert sum(stats["frames_routed"]) == len(frames)
    assert all(count > 0 for count in stats["frames_routed"]), (
        "three signatures across two shards must land on both")
    assert stats["restarts"] == [0, 0]
    assert len(stats["per_shard"]) == 2
    assert stats["searches_completed"] == sum(
        summary["searches_completed"] for summary in stats["per_shard"]
        if summary is not None)


def test_killed_worker_frames_are_replayed_not_lost():
    """SIGKILL one shard mid-load: its in-flight frames (no deadlines)
    are replayed into a fresh worker and still decode bit-identically —
    no frame lost, no hang, at least one restart recorded."""
    rng = np.random.default_rng(3)
    frames = _mixed_frames(rng)
    with DetectorFarm(2, backend="process") as farm:
        handles = [farm.submit(frame) for frame in frames]
        farm.kill_shard(0)
        farm.drain()
        _check_all(handles, frames)
        assert sum(farm.stats()["restarts"]) >= 1


def test_farm_counters_survive_a_restart_and_count_supervisor_expiries():
    """A replacement worker starts a fresh ledger, and a frame the
    supervisor expires itself never reaches any worker's: the farm
    carries what the retired worker last reported plus its own expiry
    tally, so no counter runs backwards across the restart and the miss
    rate agrees with the handles."""
    rng = np.random.default_rng(34)
    decoder = SphereDecoder(qam(4))
    with DetectorFarm(1, backend="process", max_restarts=0) as farm:
        for _ in range(5):
            farm.submit(_make_frame(decoder, 3, 2, 15.0, rng))
        farm.drain()
        before = farm.stats()
        assert before["frames_completed"] == 5
        farm.kill_shard(0)
        doomed = _make_frame(decoder, 3, 2, 15.0, rng)
        doomed.deadline_s = 10.0
        handle = farm.submit(doomed)
        farm.drain()                        # restart budget spent: expires
        assert handle.expired and handle.missed_deadline
        after = farm.stats()
    assert after["restarts"] == [1]
    for key in COUNTER_KEYS:
        assert after[key] >= before[key], key
    assert after["frames_completed"] == 5
    assert after["frames_expired"] == before["frames_expired"] + 1
    assert after["deadline_frames_resolved"] == 1
    assert after["deadline_miss_rate"] == 1.0
    # The running worker's own report stays verbatim under per_shard.
    assert after["per_shard"][0]["frames_completed"] == 0


def test_supervisor_expiry_of_an_undated_frame_is_no_deadline_miss():
    """A frame without a deadline that the supervisor expires (its
    shard's restart budget is spent) is an expiry and nothing more: its
    handle reads no missed deadline, and it never enters the miss-rate
    denominator."""
    rng = np.random.default_rng(35)
    frame = _make_frame(SphereDecoder(qam(4)), 3, 2, 15.0, rng)
    assert frame.deadline_s is None
    with DetectorFarm(1, backend="process", max_restarts=0) as farm:
        farm.kill_shard(0)
        handle = farm.submit(frame)
        farm.drain()
        assert handle.expired and not handle.missed_deadline
        stats = farm.stats()
    assert stats["frames_expired"] == 1
    assert stats["deadline_frames_resolved"] == 0
    assert stats["deadline_miss_rate"] == 0.0


def test_killed_worker_overdue_frames_expire_explicitly():
    """Frames whose deadline passed while their worker was dead resolve
    as explicit expiries through ``FrameExpired`` — never silently and
    never with a made-up result.  ``max_restarts=0`` makes the first
    kill exhaust the restart budget, so every in-flight frame expires
    deterministically.  The worker is frozen (SIGSTOP) before the frames
    reach it, so none can finish before the kill (the frames, ~9 KB
    pickled, fit in the pipe buffer of the stopped worker)."""
    import os
    import signal

    rng = np.random.default_rng(4)
    frames = _mixed_frames(rng, repeats=1)
    for frame in frames:
        frame.deadline_s = 3600.0           # generous: expiry must come
    with DetectorFarm(1, backend="process", max_restarts=0) as farm:
        os.kill(farm._supervisor._workers[0].process.pid, signal.SIGSTOP)
        handles = [farm.submit(frame) for frame in frames]
        farm.kill_shard(0)                  # from exhaustion, not time
        farm.drain()
        for handle in handles:
            assert handle.done
            assert handle.resolution == "expired"
            assert handle.missed_deadline
            with pytest.raises(FrameExpired):
                handle.result()
        assert farm.stats()["restarts"] == [1]


# ----------------------------------------------------------------------
# Farm semantics: backpressure, cancel, lifecycle
# ----------------------------------------------------------------------

def test_farm_backpressure_bounds_outstanding():
    rng = np.random.default_rng(5)
    decoder = SphereDecoder(qam(4))
    frames = [_make_frame(decoder, 3, 2, 15.0, rng) for _ in range(6)]
    with DetectorFarm(2, backend="inline") as farm:
        farm.max_outstanding = 2
        handles = [farm.submit(frame) for frame in frames]
        assert farm.outstanding <= 2
        farm.drain()
        _check_all(handles, frames)


def test_farm_cancel_resolves_synchronously():
    rng = np.random.default_rng(6)
    decoder = SphereDecoder(qam(4))
    frames = [_make_frame(decoder, 3, 2, 15.0, rng) for _ in range(3)]
    with DetectorFarm(2, backend="inline") as farm:
        handles = [farm.submit(frame) for frame in frames]
        victim = handles[1]
        assert farm.cancel(victim)
        assert victim.resolution == "cancelled" and victim.done
        with pytest.raises(FrameExpired):
            victim.result()
        assert not farm.cancel(victim)      # already resolved
        farm.drain()
        _check_all([handles[0], handles[2]],
                   [frames[0], frames[2]])
        assert not farm.cancel(handles[0])  # completed long ago


def test_farm_close_expires_unresolved_frames():
    """Closing the farm expires what it still holds; an undated frame
    had no deadline to miss."""
    rng = np.random.default_rng(7)
    farm = DetectorFarm(1, backend="inline")
    handle = farm.submit(_make_frame(SphereDecoder(qam(4)), 3, 2, 15.0,
                                     rng))
    farm.close()
    assert handle.resolution == "expired" and not handle.missed_deadline
    with pytest.raises(ValueError):
        farm.submit(_make_frame(SphereDecoder(qam(4)), 2, 1, 15.0, rng))
    farm.close()                            # idempotent


def test_farm_close_expiring_a_dated_frame_misses_its_deadline():
    """The dated twin: a frame with a deadline that the farm's close
    expires is a missed deadline."""
    rng = np.random.default_rng(7)
    farm = DetectorFarm(1, backend="inline")
    handle = farm.submit(dataclasses.replace(
        _make_frame(SphereDecoder(qam(4)), 3, 2, 15.0, rng), deadline_s=60.0))
    farm.close()
    assert handle.resolution == "expired" and handle.missed_deadline


def test_farm_validation():
    with pytest.raises(ValueError):
        DetectorFarm(0)
    with pytest.raises(ValueError):
        DetectorFarm(2, backend="thread")
    with DetectorFarm(1, backend="inline") as farm:
        with pytest.raises(ValueError):
            farm.kill_shard(0)              # needs real processes


def test_shard_runtime_cancel_queued_and_inflight():
    """The shared shard brain: cancelling a queued frame removes it
    before admission, cancelling an admitted one evicts it, and a
    resolved frame reports the race lost."""
    rng = np.random.default_rng(8)
    decoder = SphereDecoder(qam(4))
    shard = ShardRuntime({"capacity": 4, "max_in_flight": 1})
    frames = [_make_frame(decoder, 3, 2, 15.0, rng) for _ in range(3)]
    for frame_id, frame in enumerate(frames):
        shard.submit(frame_id, frame)
    assert shard.outstanding == 3
    assert shard.cancel(2)                  # still queued locally
    assert shard.cancel(0)                  # in flight in the runtime
    payloads = shard.drain()
    assert [payload["frame_id"] for payload in payloads] == [1]
    assert payloads[0]["resolution"] == "completed"
    assert not shard.cancel(1)              # already resolved
    assert shard.idle


# ----------------------------------------------------------------------
# The socket front: two cells, one farm
# ----------------------------------------------------------------------

def test_two_clients_share_a_farm_with_ownership():
    rng = np.random.default_rng(9)
    frames = _mixed_frames(rng)
    with CellSiteServer(DetectorFarm(2, backend="process")) as server:
        with CellSiteClient(server.address) as cell_a, \
                CellSiteClient(server.address) as cell_b:
            ids_a = [cell_a.submit(frame) for frame in frames[:3]]
            ids_b = [cell_b.submit(frame) for frame in frames[3:]]
            assert cell_a.outstanding == 3
            payloads_a = cell_a.drain()
            payloads_b = cell_b.drain()
            # Ownership: each cell sees exactly its own frames.
            assert {p["frame_id"] for p in payloads_a} == set(ids_a)
            assert {p["frame_id"] for p in payloads_b} == set(ids_b)
            for ids, payloads, offset in ((ids_a, payloads_a, 0),
                                          (ids_b, payloads_b, 3)):
                by_id = {p["frame_id"]: p for p in payloads}
                for position, frame_id in enumerate(ids):
                    frame = frames[offset + position]
                    _assert_identical(by_id[frame_id]["result"],
                                      _reference(frame),
                                      frame.noise_variance is not None)
            stats = cell_a.stats()
            assert stats["frames_completed"] == len(frames)
            assert cell_a.outstanding == 0


def test_client_cancel_over_the_wire():
    rng = np.random.default_rng(10)
    decoder = SphereDecoder(qam(4))
    with CellSiteServer(DetectorFarm(1, backend="process")) as server:
        with CellSiteClient(server.address) as cell:
            frame_id = cell.submit(_make_frame(decoder, 3, 2, 15.0, rng))
            keeper = cell.submit(_make_frame(decoder, 3, 2, 15.0, rng))
            assert cell.cancel(frame_id)
            assert not cell.cancel(frame_id)     # already cancelled
            assert not cell.cancel(999_999)      # never existed
            payloads = cell.drain()
            assert [p["frame_id"] for p in payloads] == [keeper]
            assert payloads[0]["resolution"] == "completed"


def test_cancel_that_loses_the_race_still_delivers_the_result():
    """With room for one outstanding frame, the second submit services
    the farm until the first resolves — on the server, before the
    client asks to cancel it.  The cancel reports the race lost, and
    the frame stays the connection's to deliver: the drain returns both
    results instead of polling forever for the first."""
    rng = np.random.default_rng(11)
    decoder = SphereDecoder(qam(4))
    frames = [_make_frame(decoder, 3, 2, 15.0, rng) for _ in range(2)]
    farm = DetectorFarm(1, backend="inline")
    farm.max_outstanding = 1
    with CellSiteServer(farm) as server:
        with CellSiteClient(server.address) as cell:
            ids = [cell.submit(frame) for frame in frames]
            assert not cell.cancel(ids[0])       # already resolved
            by_id = {p["frame_id"]: p
                     for p in _in_thread(cell.drain, timeout_s=10.0)}
    assert set(by_id) == set(ids)
    for frame_id, frame in zip(ids, frames):
        assert by_id[frame_id]["resolution"] == "completed"
        _assert_identical(by_id[frame_id]["result"], _reference(frame),
                          False)


def _poisoned(frame, field):
    """A copy of ``frame`` with one non-finite entry in ``field``."""
    bad = copy.copy(frame)
    if field == "noise_variance":
        bad.noise_variance = float("nan")
    else:
        array = np.array(getattr(frame, field))
        array.flat[array.size // 2] = np.nan if field == "received" \
            else np.inf
        setattr(bad, field, array)
    return bad


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_bad_frame_is_rejected_at_the_farm_front_door(backend):
    """A non-finite frame raises at ``DetectorFarm.submit`` — before it
    can cross a pipe and poison a worker — and costs exactly itself:
    no restart, no expiry, in-flight frames bit-exact."""
    rng = np.random.default_rng(21)
    frames = _mixed_frames(rng, repeats=1)
    with DetectorFarm(1, backend=backend) as farm:
        handles = [farm.submit(frame) for frame in frames]
        for frame, field in ((frames[0], "received"),
                             (frames[1], "channels"),
                             (frames[2], "noise_variance")):
            with pytest.raises(ValueError, match="finite"):
                farm.submit(_poisoned(frame, field))
        assert farm.outstanding == len(frames)
        farm.drain()
        _check_all(handles, frames)
        stats = farm.stats()
        assert stats["frames_submitted"] == len(frames)
        assert stats["frames_expired"] == 0
        assert sum(stats.get("restarts", [0])) == 0


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_a_frame_the_engine_cannot_triangularise_costs_only_itself(backend):
    """A stack with no streams, or more streams than antennas, is
    well-formed on the wire and finite, but no subcarrier of it can be
    triangularised: the farm refuses it at ``submit``, so it never
    reaches a shard — no restart, and the frames around it complete."""
    rng = np.random.default_rng(37)
    frames = _mixed_frames(rng, repeats=1)
    with DetectorFarm(1, backend=backend) as farm:
        handles = [farm.submit(frame) for frame in frames]
        for streams, antennas in ((0, 4), (4, 2)):
            bad = copy.copy(frames[0])
            bad.channels = np.ones((5, antennas, streams), complex)
            bad.received = np.ones((2, 5, antennas), complex)
            with pytest.raises(ValueError, match="num_rx >= num_tx >= 1"):
                farm.submit(bad)
        farm.drain()
        _check_all(handles, frames)
        stats = farm.stats()
        assert stats["frames_expired"] == 0
        assert sum(stats["restarts"]) == 0


def test_a_frame_the_wire_cannot_carry_is_refused_with_nothing_pending():
    """A process farm encodes each request for its worker pipe before it
    holds the frame: metadata outside the wire schema raises
    ``ValueError`` at ``submit``, no frame id is spent, no ledger entry
    or outstanding frame is left behind, and a drain does not wait on
    it."""
    rng = np.random.default_rng(38)
    frames = _mixed_frames(rng, repeats=1)
    with DetectorFarm(1, backend="process") as farm:
        first = farm.submit(frames[0])
        odd = copy.copy(frames[1])
        odd.metadata = {"sender": object()}
        with pytest.raises(ValueError, match="not in the wire schema"):
            farm.submit(odd)
        assert farm.outstanding == 1
        assert list(farm._supervisor._ledger[0]) == [first.frame_id]
        second = farm.submit(frames[2])
        assert second.frame_id == first.frame_id + 1
        farm.drain()
        _check_all([first, second], [frames[0], frames[2]])
        assert farm.stats()["frames_submitted"] == 2


def test_server_answers_a_bad_submit_with_an_error_not_a_dead_socket():
    """Validation failures come back as ``("error", message)``: the
    client raises ``service error: …`` and the *same connection* keeps
    serving — frames already in flight on it complete bit-exactly and
    later submits are accepted.  A frame the wire cannot carry (a
    K-best decoder's) is refused by the sending side before a byte
    leaves."""
    rng = np.random.default_rng(22)
    frames = _mixed_frames(rng, repeats=1)
    sorted_qr = _make_frame(SphereDecoder(qam(4), column_ordering="norm"),
                            2, 1, 15.0, rng)
    with CellSiteServer(DetectorFarm(1, backend="inline")) as server:
        with CellSiteClient(server.address) as cell:
            first = cell.submit(frames[0])
            with pytest.raises(ValueError, match="service error.*finite"):
                cell.submit(_poisoned(frames[0], "received"))
            with pytest.raises(ValueError,
                               match="service error.*column_ordering"):
                cell.submit(sorted_qr)
            with pytest.raises(ValueError, match="not in the wire schema"):
                cell.submit(_bad_decoder_frame(rng))
            assert cell.outstanding == 1          # the bad ones never landed
            second = cell.submit(frames[1])
            by_id = {p["frame_id"]: p for p in cell.drain()}
            assert set(by_id) == {first, second}
            for frame_id, frame in ((first, frames[0]), (second, frames[1])):
                assert by_id[frame_id]["resolution"] == "completed"
                _assert_identical(by_id[frame_id]["result"],
                                  _reference(frame), False)
            assert cell.stats()["frames_submitted"] == 2


# ----------------------------------------------------------------------
# Results pushed, not polled (ISSUE-19): nothing on the result path
# renders a result, sleeps, or waits longer than the protocol bound
# ----------------------------------------------------------------------

def _unprintable(self, *args):
    raise AssertionError("an ok reply was rendered into text")


def test_client_renders_a_reply_only_on_the_error_path(monkeypatch):
    """``_call`` hands an ``"ok"`` value through untouched — building
    the error message eagerly meant ``repr``-ing every batch of results
    (numpy arrays and all) once per poll, on the frame's critical path —
    and still raises ``ValueError`` with the server's text otherwise.
    The reply is a batch of real decode results whose class fails the
    test if anything renders or formats one into text."""
    frame = _make_frame(SphereDecoder(qam(4)), 2, 1, 15.0,
                        np.random.default_rng(23))
    batch = [{"frame_id": 0, "result": _reference(frame)}]
    for name in ("__repr__", "__str__", "__format__"):
        monkeypatch.setattr(FrameDecodeResult, name, _unprintable)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        with CellSiteClient(listener.getsockname()) as cell:
            peer, _ = listener.accept()
            with peer:
                send_obj(peer, ("ok", batch))
                reply = cell.stats()
                assert type(reply[0]["result"]) is FrameDecodeResult
                _assert_identical(reply[0]["result"], batch[0]["result"],
                                  False)
                assert recv_obj(peer) == ("stats",)
                send_obj(peer, ("error", "shard 3 is on fire"))
                with pytest.raises(
                        ValueError,
                        match="service error: shard 3 is on fire"):
                    cell.stats()


def _in_thread(target, timeout_s=60.0):
    """Run ``target`` in a thread and insist it finishes: a hang fails
    the test instead of wedging the suite."""
    box = {}
    thread = threading.Thread(target=lambda: box.update(value=target()),
                              daemon=True)
    thread.start()
    thread.join(timeout_s)
    assert not thread.is_alive(), "call did not return"
    return box["value"]


def test_result_pumped_for_another_connection_reaches_its_owner():
    """One shard, two cells.  B's frame is admitted first, so by the
    time A's drain returns, A's polls have pumped B's result off the
    worker pipe too — nothing is left there to wake B.  B's next poll
    must still hand the frame over at once (it collects before it
    waits), not hold out for a pipe event that already happened."""
    rng = np.random.default_rng(30)
    decoder = SphereDecoder(qam(16))
    frames = [_make_frame(decoder, 5, 2, 18.0, rng) for _ in range(2)]
    with CellSiteServer(DetectorFarm(1, backend="process")) as server:
        with CellSiteClient(server.address) as cell_a, \
                CellSiteClient(server.address) as cell_b:
            id_b = cell_b.submit(frames[0])
            id_a = cell_a.submit(frames[1])
            assert [p["frame_id"] for p in _in_thread(cell_a.drain)] \
                == [id_a]
            assert server.farm.outstanding == 0, (
                "A's polls should have pumped B's earlier frame as well")
            started = time.perf_counter()
            payloads = cell_b.poll()
            elapsed = time.perf_counter() - started
            assert [p["frame_id"] for p in payloads] == [id_b]
            _assert_identical(payloads[0]["result"], _reference(frames[0]),
                              False)
            # A loopback round trip; the slack is for a loaded box, and
            # still far below a wait that only a heartbeat would end.
            assert elapsed < 8 * POLL_HOLD_S


def test_poll_never_waits_on_a_connection_that_owns_nothing():
    """The hold applies to outstanding frames only: a cell with nothing
    in flight gets its empty answer at once, even while another cell's
    frames keep the farm busy."""
    rng = np.random.default_rng(31)
    decoder = SphereDecoder(qam(16))
    polls = 50
    with CellSiteServer(DetectorFarm(1, backend="process")) as server:
        with CellSiteClient(server.address) as busy, \
                CellSiteClient(server.address) as idle:
            for _ in range(4):
                busy.submit(_make_frame(decoder, 16, 4, 18.0, rng))
            started = time.perf_counter()
            for _ in range(polls):
                assert idle.poll() == []
            elapsed = time.perf_counter() - started
            # Held polls would take polls x POLL_HOLD_S (250 ms);
            # immediate ones take a round trip each (~0.1 ms).
            assert elapsed < polls * POLL_HOLD_S / 2
            assert len(_in_thread(busy.drain)) == 4


@pytest.mark.parametrize("max_restarts, expected",
                         [(5, "completed"), (0, "expired")])
def test_client_drain_survives_a_killed_worker(max_restarts, expected):
    """A SIGKILLed worker's pipe reads EOF, which wakes the long poll
    like any message would: the sleepless drain resolves every frame —
    replayed bit-exactly, or explicitly expired once the restart budget
    is spent — and never hangs."""
    rng = np.random.default_rng(32)
    frames = _mixed_frames(rng, repeats=1)
    farm = DetectorFarm(1, backend="process", max_restarts=max_restarts)
    with CellSiteServer(farm) as server:
        with CellSiteClient(server.address) as cell:
            # Killed before the frames go out, so which of them the
            # worker finished first is not left to a race: all of them
            # sit in the ledger of a dead shard when the drain starts.
            farm.kill_shard(0)
            ids = [cell.submit(frame) for frame in frames]
            by_id = {p["frame_id"]: p for p in _in_thread(cell.drain)}
            assert set(by_id) == set(ids) and cell.outstanding == 0
            for frame_id, frame in zip(ids, frames):
                assert by_id[frame_id]["resolution"] == expected
                if expected == "completed":
                    _assert_identical(by_id[frame_id]["result"],
                                      _reference(frame),
                                      frame.noise_variance is not None)
                else:
                    assert by_id[frame_id]["result"] is None
            assert cell.stats()["restarts"] == [1]


def test_supervisor_wait_wakes_on_stash_and_on_a_dead_worker():
    """``wait`` is what replaced the sleeps, so it must return promptly
    on everything ``pump`` acts on — a stashed result, a dead worker's
    EOF — and actually block when there is nothing."""
    rng = np.random.default_rng(33)
    frame = _make_frame(SphereDecoder(qam(4)), 3, 2, 15.0, rng)
    # Heartbeats far apart: nothing but the events under test can end
    # a wait early.
    supervisor = ShardSupervisor(1, heartbeat_s=30.0, hang_timeout_s=60.0)
    try:
        started = time.perf_counter()
        supervisor.wait(0.05)
        assert time.perf_counter() - started >= 0.04, "idle wait must block"

        supervisor.submit(0, 7, frame)
        supervisor.wait(30.0)               # the result is on the pipe
        # stats() reads the pipe in order: the result first (stashed
        # for the next pump), then its own reply.
        assert supervisor.stats()[0]["frames_completed"] == 1
        started = time.perf_counter()
        supervisor.wait(30.0)
        assert time.perf_counter() - started < 5.0, "stash must end a wait"
        payloads = supervisor.pump()
        assert [p["frame_id"] for p in payloads] == [7]
        # The supervisor hands a result on as its worker encoded it;
        # whoever reads it opens it.
        sealed = payloads[0]["result"]
        assert type(sealed) is Sealed
        _assert_identical(sealed.open(), _reference(frame), False)

        supervisor.kill_shard(0)
        started = time.perf_counter()
        supervisor.wait(30.0)
        assert time.perf_counter() - started < 5.0, "EOF must end a wait"
        assert supervisor.pump() == [] and supervisor.restarts == [1]
        # stats() on a freshly replaced worker still answers.
        assert supervisor.stats()[0]["frames_completed"] == 0
    finally:
        supervisor.close()


# ----------------------------------------------------------------------
# The front door: bounded messages, bounded bookkeeping
# ----------------------------------------------------------------------

def test_oversize_length_prefix_costs_only_its_own_connection():
    """A forged 4 GiB length prefix is refused before anything is
    allocated for it: that connection is dropped and its frame
    cancelled, while a second cell's frames complete bit-exactly."""
    left, right = socket.socketpair()
    with left, right:
        left.sendall(struct.pack("!I", MAX_MESSAGE_BYTES + 1))
        with pytest.raises(ConnectionError, match="protocol cap"):
            recv_obj(right)

    rng = np.random.default_rng(34)
    frames = _mixed_frames(rng, repeats=1)
    with CellSiteServer(DetectorFarm(1, backend="inline")) as server:
        with socket.create_connection(server.address) as rogue, \
                CellSiteClient(server.address) as cell:
            rogue.settimeout(10.0)
            send_obj(rogue, ("submit", frames[0]))
            status, rogue_id = recv_obj(rogue)
            assert status == "ok"
            ids = [cell.submit(frame) for frame in frames]
            rogue.sendall(struct.pack("!I", 0xFFFFFFFF))
            assert rogue.recv(1) == b"", "server must hang up on the forger"
            by_id = {p["frame_id"]: p for p in cell.drain()}
            assert set(by_id) == set(ids) and rogue_id not in by_id
            for frame_id, frame in zip(ids, frames):
                assert by_id[frame_id]["resolution"] == "completed"
                _assert_identical(by_id[frame_id]["result"],
                                  _reference(frame),
                                  frame.noise_variance is not None)
            assert server.farm.outstanding == 0     # the rogue's was cancelled


def test_server_keeps_no_state_for_departed_connections():
    """Fifty cells connect, submit and leave without polling: every
    abandoned frame is cancelled and the server is left tracking
    nothing per departed connection — no thread list growing by one
    entry per accept."""
    rng = np.random.default_rng(35)
    frame = _make_frame(SphereDecoder(qam(4)), 3, 2, 15.0, rng)
    with CellSiteServer(DetectorFarm(1, backend="inline")) as server:
        for _ in range(50):
            with CellSiteClient(server.address) as cell:
                cell.submit(frame)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and (
                server.farm.outstanding or any(
                    thread.name == "cell-site-conn"
                    for thread in threading.enumerate())):
            time.sleep(0.01)
        assert server.farm.outstanding == 0
        assert not any(thread.name == "cell-site-conn"
                       for thread in threading.enumerate())
        tracked = sum(len(value) for value in vars(server).values()
                      if isinstance(value, (list, dict, set)))
        assert tracked < 5


# ----------------------------------------------------------------------
# Stats aggregation
# ----------------------------------------------------------------------

def test_aggregate_summaries_sums_and_recombines():
    rng = np.random.default_rng(11)
    decoder = SphereDecoder(qam(4))
    shards = [ShardRuntime(None), ShardRuntime(None)]
    for index in range(4):
        shards[index % 2].submit(index,
                                 _make_frame(decoder, 3, 2, 15.0, rng))
    for shard in shards:
        shard.drain()
    summaries = [shard.summary() for shard in shards]
    farm_view = aggregate_summaries(summaries)
    assert farm_view["shards"] == 2
    assert farm_view["frames_completed"] == 4
    assert farm_view["visited_nodes"] == sum(
        summary["visited_nodes"] for summary in summaries)
    # Shards run concurrently: throughput adds, wall time does not.
    assert farm_view["frames_per_second"] == pytest.approx(sum(
        summary["frames_per_second"] for summary in summaries))
    assert farm_view["elapsed_s"] == max(
        summary["elapsed_s"] for summary in summaries)
    empty = aggregate_summaries([])
    assert empty["shards"] == 0 and empty["frames_completed"] == 0
    assert empty["elapsed_s"] == 0.0 and empty["deadline_miss_rate"] == 0.0


# ----------------------------------------------------------------------
# Worker loop and hang detection
# ----------------------------------------------------------------------

class _ScriptedPipe:
    """Drives ``worker_main`` in-process: the scripted commands wait in a
    real pipe as the wire bytes the parent would send (the worker polls
    its descriptor), what the worker sends back is decoded, and the
    parent's end closes once a result has been sent."""

    def __init__(self, messages):
        import multiprocessing
        self._reader, self._writer = multiprocessing.Pipe(duplex=False)
        for message in messages:
            # A pipe carries the frame past the socket's length prefix.
            self._writer.send_bytes(encode(message), 4)
        self.sent = []

    def fileno(self):
        return self._reader.fileno()

    def recv_bytes(self):
        return self._reader.recv_bytes()

    def send_bytes(self, data, offset=0):
        self.sent.append(decode(bytearray(memoryview(data)[offset:])))
        if self.sent[-1][0] == "done":
            self._writer.close()        # the parent hangs up: EOF next

    def close(self):
        self._reader.close()
        if not self._writer.closed:
            self._writer.close()


def test_worker_main_loop_in_process():
    """The child-process loop run against a scripted pipe: submit /
    cancel / stats dispatch, decode servicing, heartbeats, and the
    clean EOF exit — all in-process, so it counts toward coverage."""
    from repro.service import worker_main

    rng = np.random.default_rng(12)
    frame = _make_frame(SphereDecoder(qam(4)), 3, 2, 15.0, rng)
    pipe = _ScriptedPipe([("submit", 7, frame),
                          ("cancel", 99),          # unknown id: a no-op
                          ("stats",)])
    try:
        worker_main(0, pipe, None, heartbeat_s=1e-4)   # returns on EOF
    finally:
        pipe.close()
    kinds = [message[0] for message in pipe.sent]
    assert kinds.count("done") == 1
    assert "stats" in kinds and "beat" in kinds
    done = next(message for message in pipe.sent if message[0] == "done")
    assert done[1] == 0 and done[2]["frame_id"] == 7
    assert done[2]["resolution"] == "completed"
    _assert_identical(done[2]["result"], _reference(frame), False)
    stats_reply = next(message for message in pipe.sent
                       if message[0] == "stats")
    # The stats command is answered from the first pipe drain, before
    # the decode itself has serviced: submitted, not yet completed.
    assert stats_reply[2]["frames_submitted"] == 1


def test_hung_worker_detected_and_frames_replayed():
    """A worker that goes quiet (SIGSTOP: alive but never beating) trips
    the hang detector; its deadline-tagged in-flight frames are replayed
    with shrunken budgets and still complete exactly."""
    import os
    import signal

    rng = np.random.default_rng(13)
    frames = [_make_frame(SphereDecoder(qam(16)), 5, 3, 12.0, rng)
              for _ in range(3)]
    for frame in frames:
        frame.deadline_s = 3600.0           # replay must shrink, not drop
    with DetectorFarm(1, backend="process", heartbeat_s=0.01,
                      hang_timeout_s=0.08) as farm:
        handles = [farm.submit(frame) for frame in frames]
        os.kill(farm._supervisor._workers[0].process.pid, signal.SIGSTOP)
        time.sleep(0.1)                     # let the quiet period elapse
        farm.drain()
        _check_all(handles, frames)
        assert farm.stats()["restarts"] == [1]


# ----------------------------------------------------------------------
# The wire schema: every message round-trips bit-exactly, and the
# decoder refuses everything else with ValueError
# ----------------------------------------------------------------------

_ORDERS = wire.ORDERS


def _same(sent, got):
    """Bit-exact equality of a sent value and its decoded twin."""
    if any(sent is qam(order).points for order in _ORDERS):
        assert got is sent                # the receiver's own table
    elif isinstance(sent, np.ndarray):
        assert type(got) is np.ndarray
        assert got.dtype == sent.dtype and got.shape == sent.shape
        assert got.tobytes() == np.ascontiguousarray(sent).tobytes()
        # A view of the received buffer, usable as the sender's was.
        assert got.flags.aligned and got.flags.writeable
    elif isinstance(sent, float):
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", sent)
    elif isinstance(sent, (list, tuple)):
        assert type(got) is type(sent) and len(got) == len(sent)
        for item, twin in zip(sent, got):
            _same(item, twin)
    elif isinstance(sent, dict):
        assert type(got) is type(sent)
        assert list(got) == list(sent)          # int keys stay ints
        for key in sent:
            _same(sent[key], got[key])
    elif isinstance(sent, SphereDecoder):
        assert type(got) is type(sent)
        assert got.constellation is qam(sent.constellation.order)
        for name in ("enumerator", "geometric_pruning", "node_budget",
                     "initial_radius_sq", "column_ordering", "list_size",
                     "clamp"):
            _same(getattr(sent, name, None), getattr(got, name, None))
    elif isinstance(sent, PhyConfig):
        assert type(got) is PhyConfig
        assert got.constellation is qam(sent.constellation.order)
        assert got.ofdm == sent.ofdm and got.payload_bits == sent.payload_bits
        assert (got.code is None) == (sent.code is None)
        if sent.code is not None:
            assert got.code.constraint_length == sent.code.constraint_length
            assert got.code.polynomials == sent.code.polynomials
    elif isinstance(sent, FrameTrace):
        assert type(got) is FrameTrace
        for name in FrameTrace.__slots__:
            _same(getattr(sent, name), getattr(got, name))
    elif dataclasses.is_dataclass(sent):
        assert type(got) is type(sent)
        for field in dataclasses.fields(sent):
            _same(getattr(sent, field.name), getattr(got, field.name))
    else:
        assert type(got) is type(sent) and got == sent


def _round_trip(message):
    """``message`` through the wire eagerly, and through a forwarding
    hop that keeps its records sealed and splices them into the next
    message; both must come back bit-exact."""
    body = bytearray(encode(message))[4:]
    _same(message, decode(body))
    forwarded = decode(body, sealed=True)
    _same(message, decode(bytearray(encode(forwarded))[4:]))


_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_scalars = (st.none() | st.booleans() | st.integers(-2**63, 2**63 - 1)
            | st.floats(width=64) | st.text(max_size=8))
_keys = (st.none() | st.booleans() | st.integers(-2**63, 2**63 - 1)
         | st.text(max_size=8))


@st.composite
def _arrays(draw, dtypes=tuple(DTYPES), max_dims=3):
    dtype = draw(st.sampled_from(dtypes))
    shape = draw(st.lists(st.integers(0, 3), max_size=max_dims))
    raw = draw(st.binary(min_size=int(np.prod(shape)) * dtype.itemsize,
                         max_size=int(np.prod(shape)) * dtype.itemsize))
    array = np.frombuffer(raw, dtype).reshape(shape)
    if draw(st.booleans()) and array.ndim >= 2:
        array = array.T                       # not C-contiguous
    return array


_values = st.recursive(
    _scalars | _arrays(),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_keys, inner, max_size=3)),
    max_leaves=8)


@st.composite
def _decoders(draw):
    constellation = qam(draw(st.sampled_from(_ORDERS)))
    enumerator = draw(st.sampled_from(("zigzag", "shabany")))
    pruning = draw(st.booleans())
    budget = draw(st.none() | st.integers(1, 10**6))
    if draw(st.booleans()):
        return ListSphereDecoder(
            constellation, draw(st.integers(2, 64)), pruning,
            draw(st.floats(0.5, 64.0)), enumerator, budget)
    radius = draw(st.just(float("inf")) | st.floats(1e-6, 1e6))
    return SphereDecoder(constellation, enumerator, pruning, radius, budget,
                         draw(st.sampled_from(("none", "norm"))))


@st.composite
def _configs(draw):
    return PhyConfig(
        constellation=qam(draw(st.sampled_from(_ORDERS))),
        code=draw(st.sampled_from((None, WIFI_CODE))),
        ofdm=draw(st.sampled_from((WIFI_20MHZ, ofdm_for_subcarriers(8)))),
        payload_bits=draw(st.integers(8, 4096)))


@st.composite
def _requests(draw):
    return FrameRequest(
        channels=draw(_arrays((np.dtype(np.complex128),))),
        received=draw(_arrays((np.dtype(np.complex128),))),
        decoder=draw(_decoders()),
        noise_variance=draw(st.none() | _finite),
        config=draw(st.none() | _configs()),
        num_pad_bits=draw(st.integers(0, 10**4)),
        deadline_s=draw(st.none() | _finite),
        priority=draw(st.integers(0, 7)),
        metadata=draw(st.dictionaries(st.text(max_size=6), _values,
                                      max_size=3)))


def _indices(draw, order):
    return draw(_arrays((narrowest_int(order - 1),)))


@st.composite
def _results(draw):
    order = draw(st.sampled_from(_ORDERS))
    counters = ComplexityCounters(*draw(st.lists(
        st.integers(0, 2**40), min_size=6, max_size=6)))
    decisions = draw(st.none() | st.lists(st.builds(
        StreamDecision, _arrays((np.dtype(np.uint8),), max_dims=1),
        st.booleans()), max_size=3))
    points = qam(order).points if draw(st.booleans()) \
        else draw(_arrays((np.dtype(np.complex128),), max_dims=1))
    if draw(st.booleans()):
        return FrameDecodeResult(
            _indices(draw, order), draw(_arrays((np.dtype(np.float64),))),
            counters, points, decisions)
    return SoftFrameResult(
        draw(_arrays((np.dtype(np.float64),))), _indices(draw, order),
        _indices(draw, 64), counters, points, decisions)


@st.composite
def _traces(draw):
    trace = FrameTrace(draw(st.integers(0, 2**40)),
                       draw(st.dictionaries(st.text(max_size=6), _scalars,
                                            max_size=3)))
    for t, name, attrs in draw(st.lists(st.tuples(
            _finite, st.text(max_size=8),
            st.none() | st.dictionaries(st.text(max_size=6), _scalars,
                                        max_size=2)), max_size=4)):
        trace.add(t, name, attrs)
    trace.dropped = draw(st.integers(0, 100))
    return trace


@st.composite
def _payloads(draw):
    return Resolution({
        "frame_id": draw(st.integers(0, 2**40)),
        "resolution": draw(st.sampled_from(("completed", "expired",
                                            "cancelled"))),
        "degraded": draw(st.booleans()),
        "missed_deadline": draw(st.booleans()),
        "latency_s": draw(st.none() | _finite),
        "trace": draw(st.none() | _traces()),
        "result": draw(st.none() | _results()),
    })


_stats = st.dictionaries(
    st.text(max_size=10),
    _scalars | st.dictionaries(st.integers(0, 100), _finite, max_size=4)
    | st.lists(st.none() | st.dictionaries(st.text(max_size=6), _scalars,
                                           max_size=3), max_size=3),
    max_size=6)

#: Every message the farm speaks: the socket's verbs and replies, the
#: worker pipe's commands and reports.
_messages = st.one_of(
    st.tuples(st.just("submit"), _requests()),
    st.tuples(st.just("submit"), st.integers(0, 2**40), _requests()),
    st.just(("poll",)), st.just(("stats",)), st.just(("metrics",)),
    st.just(("stop",)),
    st.tuples(st.just("cancel"), st.integers(0, 2**40)),
    st.tuples(st.just("ok"), st.lists(_payloads(), max_size=3)),
    st.tuples(st.just("ok"), st.integers(0, 2**40) | st.booleans()
              | st.text(max_size=40) | _stats),
    st.tuples(st.just("error"), st.text(max_size=40)),
    st.tuples(st.just("done"), st.integers(0, 63), _payloads()),
    st.tuples(st.just("stats"), st.integers(0, 63), _stats),
    st.tuples(st.just("beat"), st.integers(0, 63)))


@settings(max_examples=300, deadline=None)
@given(_messages)
def test_every_farm_message_round_trips_bit_exactly(message):
    """Decoders of every class over 4- to 256-QAM (zigzag and shabany,
    budgets, radii), coded configs, deadlines, priorities, metadata,
    both result kinds with their decisions, traces and stats with int
    keys: each comes back as it was sent — through a forwarding hop
    too — and every decoder or config is built on the cached
    constellation, so the runtime's identity check still holds."""
    _round_trip(message)


def test_real_frames_round_trip_and_share_the_cached_constellation():
    """A coded frame as the cell generator makes it, and the farm's own
    results and stats, cross the wire intact; the decoded request still
    passes the front door, whose ``config.constellation is
    decoder.constellation`` check needs the receiver's cache."""
    rng = np.random.default_rng(24)
    config = _coded_config(16)
    frame = _make_coded_frame(config, ListSphereDecoder(qam(16),
                                                        list_size=4),
                              14.0, rng, soft=True)
    frame.deadline_s, frame.priority = 0.25, 1
    frame.metadata = {"payloads": [np.arange(3, dtype=np.uint8)], 7: "x"}
    _round_trip(("submit", frame))
    decoded = decode(bytearray(encode(("submit", 3, frame)))[4:])[2]
    validate_request(decoded)
    assert decoded.config.constellation is decoded.decoder.constellation
    with DetectorFarm(1, backend="inline", trace=True) as farm:
        handle = farm.submit(frame)
        farm.drain()
        assert handle.result().decisions
        _round_trip(("ok", [resolution_payload(0, handle)]))
        _round_trip(("ok", farm.stats()))
        _round_trip(("ok", farm.metrics()))


def test_nothing_outside_the_schema_is_sent():
    """The sender refuses what the schema cannot express — so it never
    reaches a peer — with ``ValueError``."""
    frame = _make_frame(SphereDecoder(qam(4)), 2, 1, 15.0,
                        np.random.default_rng(25))
    refused = [
        ("ok", object()), ("ok", {(1, 2): 3}), ("ok", 2**63),
        ("ok", np.zeros(2, dtype=object)), ("ok", np.zeros((1,) * 7)),
        ("ok", "x" * (MAX_STR_BYTES + 1)), ("ok", [[]] * (MAX_ITEMS + 1)),
        ("ok", SphereDecoder), ("ok", b"bytes"),
        ("ok", SphereDecoder(qam(4 ** 7))), ("bogus",), ("poll", 1),
        ("submit", frame.channels), ("error", 3),
        ("done", 0, {"frame_id": 0}),
        ("ok", Resolution(frame_id=0)),
        ("ok", Resolution(frame_id=0, resolution="completed",
                          degraded=False, missed_deadline=False,
                          latency_s="soon", trace=None, result=None)),
        ("submit", dataclasses.replace(frame, channels=[1.0])),
        # over the cap, without allocating it
        ("ok", np.broadcast_to(np.zeros(1, np.uint8),
                               (MAX_MESSAGE_BYTES + 1,))),
        (["ok", None]), (),
    ]
    nested = []
    for _ in range(40):
        nested = [nested]
    refused.append(("ok", nested))
    list_decoder = ListSphereDecoder(qam(4), list_size=4)
    list_decoder.column_ordering = "norm"
    refused.append(("ok", list_decoder))
    for message in refused:
        with pytest.raises(ValueError):
            encode(message)


def test_numpy_scalars_and_container_subclasses_travel_as_values():
    """What stats and metadata hold besides plain values — numpy
    scalars, a named tuple, an ordered dict — crosses as the plain
    value it equals."""
    from collections import OrderedDict, namedtuple
    pair = namedtuple("pair", "a b")
    sent = {"f": np.float64(0.25), "g": np.float32(1.5), "i": np.int32(-7),
            "b": np.bool_(True), "s": np.str_("x"), "t": pair(1, 2),
            "o": OrderedDict(k=[np.int8(3)])}
    (_, got) = decode(_wire_bytes(("ok", sent)))
    assert got == {"f": 0.25, "g": 1.5, "i": -7, "b": True, "s": "x",
                   "t": (1, 2), "o": {"k": [3]}}
    assert [type(got[key]) for key in "fgibsto"] == [
        float, float, int, bool, str, tuple, dict]
    masked = np.ma.masked_array(np.arange(3.0))     # an ndarray subclass
    (_, got) = decode(_wire_bytes(("ok", masked)))
    assert type(got) is np.ndarray and np.array_equal(got, np.arange(3.0))


def _wire_bytes(message) -> bytearray:
    return bytearray(encode(message))[4:]


_VERB_OK = list(wire.MESSAGES).index("ok")


@pytest.mark.parametrize("mutate, match", [
    # an unknown verb, field count or tag
    (lambda b: b.__setitem__(0, 200), "no verb"),
    (lambda b: b.__setitem__(1, 5), "no verb"),
    (lambda b: b.__setitem__(2, 250), "cannot carry tag|unknown tag"),
    # a dtype outside the whitelist
    (lambda b: b.__setitem__(3, 99), "unknown dtype"),
    # a shape that disagrees with the byte count
    (lambda b: struct.pack_into("<I", b, 9, 3), "disagrees"),
    # an array declaring more bytes than its cap (and the message)
    (lambda b: (struct.pack_into("<BBI", b, 3, 5, 1, 100_000_000),
                struct.pack_into("<I", b, 9, 100_000_000)), "cap"),
    # a rank over the cap
    (lambda b: b.__setitem__(4, 7), "rank"),
    # trailing bytes and truncation
    (lambda b: b.extend(b"\0"), "trailing"),
    (lambda b: b.__delitem__(slice(-1, None)), "past the end|malformed"),
])
def test_decoder_refuses_a_mutated_array_message(mutate, match):
    body = _wire_bytes(("ok", np.arange(4, dtype=np.float64)))
    assert body[2] == wire.ARRAY          # dtype, rank, bytes, then dims
    mutate(body)
    with pytest.raises(ValueError, match=match):
        decode(body)


@pytest.mark.parametrize("message, offset, value, match", [
    # one string over its cap: the length field of an "error" reply
    (("error", "x"), 3, MAX_STR_BYTES + 1, "cap"),
    # a list or dict declaring more items than the cap or the message
    (("ok", [1]), 3, MAX_ITEMS + 1, "cap"),
    (("ok", {1: 2}), 3, 1000, "cannot fit"),
])
def test_decoder_refuses_over_cap_counts(message, offset, value, match):
    body = _wire_bytes(message)
    struct.pack_into("<I", body, offset, value)
    with pytest.raises(ValueError, match=match):
        decode(body)


@pytest.mark.parametrize("decoder, offset, value, match", [
    (SphereDecoder(qam(16)), 5, 9, "unknown enumerator"),
    (SphereDecoder(qam(16)), 3, 32, "QAM is not in the wire schema"),
    (SphereDecoder(qam(16)), 6, 2, "flag"),
    (SphereDecoder(qam(16)), 23, 7, "column ordering"),
    (ListSphereDecoder(qam(4), list_size=4), 5, 4, "unknown enumerator"),
    (ListSphereDecoder(qam(4), list_size=4), 15, 4096, "list size"),
])
def test_decoder_refuses_an_unknown_enumerator_or_config(decoder, offset,
                                                         value, match):
    body = _wire_bytes(("ok", decoder))
    if value > 255:
        struct.pack_into("<I", body, offset, value)
    elif offset == 3:
        struct.pack_into("<H", body, offset, value)
    else:
        body[offset] = value
    with pytest.raises(ValueError, match=match):
        decode(body)


def test_decoder_refuses_a_list_decoder_with_a_non_finite_clamp():
    """A list decoder's record carries its clamp as a double; an
    infinite or NaN one is refused at decode, as the constructor refuses
    it, before any runtime or worker sees the frame."""
    body = _wire_bytes(("ok", ListSphereDecoder(qam(4), list_size=4,
                                                clamp=3.0)))
    assert struct.unpack_from("<d", body, 19) == (3.0,)
    for clamp in (np.inf, np.nan):
        struct.pack_into("<d", body, 19, clamp)
        with pytest.raises(ValueError, match="clamp must be positive and "
                                             "finite"):
            decode(body)


def test_decoder_refuses_deep_nesting_bad_keys_and_padded_records():
    head = bytes([_VERB_OK, 1])
    deep = head + (bytes([wire.LIST]) + struct.pack("<I", 1)) * 40 \
        + bytes([wire.NONE])
    with pytest.raises(ValueError, match="nesting deeper"):
        decode(deep)
    list_key = head + bytes([wire.DICT]) + struct.pack("<I", 1) \
        + bytes([wire.LIST]) + struct.pack("<I", 0) + bytes([wire.NONE])
    with pytest.raises(ValueError, match="dict key cannot be tag"):
        decode(list_key)
    # A request whose declared body runs 8 bytes past its last field.
    frame = _make_frame(SphereDecoder(qam(4)), 2, 1, 15.0,
                        np.random.default_rng(26))
    padded = _wire_bytes(("submit", frame))
    struct.pack_into("<I", padded, 3, struct.unpack_from("<I", padded, 3)[0]
                     + 8)
    padded.extend(bytes(8))
    with pytest.raises(ValueError, match="trailing bytes"):
        decode(padded)
    (_, sealed) = decode(padded, sealed=True)
    with pytest.raises(ValueError, match="trailing bytes"):
        sealed.open()


def test_decoder_refuses_a_bad_config_or_record():
    """A config naming an order, payload, numerology or code outside its
    caps, a point table of an unknown order, an unknown resolution, and
    a record field of the wrong type are each refused."""
    body = _wire_bytes(("ok", _coded_config(16)))
    for offset, fmt, value, match in (
            (3, "<H", 8, "QAM"),
            (5, "<q", 0, "payload_bits"),
            (13, "<I", 8192, "OFDM"),
            (37, "<B", 12, "K=12"),
            (38, "<B", 0, "generators")):
        mutated = bytearray(body)
        struct.pack_into(fmt, mutated, offset, value)
        with pytest.raises(ValueError, match=match):
            decode(mutated)
    uncoded = _wire_bytes(("ok", _coded_config(16, coded=False)))
    uncoded[38] = 2
    with pytest.raises(ValueError, match="uncoded"):
        decode(uncoded)
    with pytest.raises(ValueError, match="5-QAM"):
        decode(bytes([_VERB_OK, 1, wire.POINTS]) + struct.pack("<H", 5))
    payload = _wire_bytes(("ok", Resolution(
        frame_id=0, resolution="expired", degraded=False,
        missed_deadline=True, latency_s=None, trace=None, result=None)))
    payload[11] = 9
    with pytest.raises(ValueError, match="unknown resolution"):
        decode(payload)
    trace = _wire_bytes(("ok", FrameTrace(1)))
    trace[3] = wire.FLOAT
    with pytest.raises(ValueError, match="FrameTrace.frame_id"):
        decode(trace)


@settings(max_examples=200, deadline=None)
@given(message=_messages, data=st.data())
def test_decoder_raises_only_value_error_on_damaged_bytes(message, data):
    """Random, truncated and field-mutated byte strings: the decoder
    returns a message or raises ``ValueError`` — never anything else,
    never a hang, never an allocation past the bytes it was given."""
    body = _wire_bytes(message)
    cut = data.draw(st.integers(0, len(body) - 1))
    with pytest.raises(ValueError):
        decode(body[:cut])                     # every strict prefix
    mutated = bytearray(body)
    for _ in range(data.draw(st.integers(1, 4))):
        mutated[data.draw(st.integers(0, len(body) - 1))] = data.draw(
            st.integers(0, 255))
    for candidate in (mutated, data.draw(st.binary(max_size=64))):
        for sealed in (False, True):
            try:
                decoded = decode(candidate, sealed=sealed)
            except ValueError:
                continue
            for field in decoded[1:]:
                try:
                    opened(field)
                except ValueError:
                    pass


def test_recv_obj_raises_connection_errors_on_a_broken_stream():
    """A stream cut mid-message is a ``ConnectionError``, a stream
    closed between messages an ``EOFError``, and a well-framed body the
    schema does not declare a ``ValueError`` — the stream stays
    aligned on the next message."""
    body = _wire_bytes(("poll",))
    left, right = socket.socketpair()
    with left, right:
        left.sendall(struct.pack("!I", 2) + b"\xff\x00")
        left.sendall(struct.pack("!I", len(body)) + body)
        left.sendall(struct.pack("!I", 10) + b"\x01")
        left.shutdown(socket.SHUT_WR)
        with pytest.raises(ValueError, match="no verb"):
            recv_obj(right)
        assert recv_obj(right) == ("poll",)
        with pytest.raises(ConnectionError, match="mid-message"):
            recv_obj(right)
    left, right = socket.socketpair()
    with left, right:
        left.close()
        with pytest.raises(EOFError):
            recv_obj(right)


def _past_array(body, at) -> int:
    """Offset just past the array whose tag is at ``at``."""
    _, rank, size = struct.unpack_from("<BBI", body, at + 1)
    return ((at + 7 + 4 * rank + 7) & ~7) + size


def test_server_answers_an_undecodable_submit_and_keeps_serving():
    """A well-framed ``submit`` whose bytes do not decode — a corrupt
    verb header, or a request body naming an enumerator that does not
    exist — is answered ``("error", reason)`` on the same connection,
    which then submits and receives a good frame; another connection's
    frames complete bit-exactly meanwhile, with no expiry anywhere."""
    rng = np.random.default_rng(36)
    frames = _mixed_frames(rng, repeats=1)
    good = _wire_bytes(("submit", frames[0]))
    # The request body starts 8-aligned after its tag and length; the
    # decoder follows the channels and the observations.
    decoder_at = _past_array(good, _past_array(good, 8))
    assert good[decoder_at] == wire.HARD_DECODER
    enumerator = decoder_at + 3               # after the tag and order
    bad_body = bytearray(good)
    bad_body[enumerator] = 9                  # no such enumerator
    bad_header = bytearray(good)
    bad_header[1] = 3                         # no 3-field submit
    with CellSiteServer(DetectorFarm(1, backend="process")) as server:
        with socket.create_connection(server.address) as rogue, \
                CellSiteClient(server.address) as cell:
            rogue.settimeout(30.0)
            ids = [cell.submit(frame) for frame in frames]
            for body, match in ((bad_body, "enumerator"),
                                (bad_header, "undecodable")):
                rogue.sendall(struct.pack("!I", len(body)) + body)
                status, reason = recv_obj(rogue)
                assert status == "error" and re.search(match, reason)
            send_obj(rogue, ("submit", frames[1]))
            status, rogue_id = recv_obj(rogue)
            assert status == "ok"
            by_id = {p["frame_id"]: p for p in cell.drain()}
            assert set(by_id) == set(ids)
            for frame_id, frame in zip(ids, frames):
                assert by_id[frame_id]["resolution"] == "completed"
                _assert_identical(by_id[frame_id]["result"],
                                  _reference(frame),
                                  frame.noise_variance is not None)
            rogue_results = []
            while not rogue_results:
                send_obj(rogue, ("poll",))
                status, rogue_results = recv_obj(rogue)
            assert [p["frame_id"] for p in rogue_results] == [rogue_id]
            _assert_identical(rogue_results[0]["result"],
                              _reference(frames[1]), False)
            stats = cell.stats()
            assert stats["frames_submitted"] == len(frames) + 1
            assert stats["frames_expired"] == 0
            assert stats["restarts"] == [0]
