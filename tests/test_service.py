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
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.constellation import qam
from repro.runtime import FrameExpired, UplinkRuntime
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
from repro.service.protocol import MAX_MESSAGE_BYTES, recv_obj, send_obj
from repro.service.server import POLL_HOLD_S
from repro.service.supervisor import ShardSupervisor
from repro.sphere import ListSphereDecoder, SphereDecoder

from test_runtime import _assert_identical, _make_frame, _reference


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
    # The routing key is exactly the key the engine pools by, so all of
    # one pool's searches land on one shard.
    runtime = UplinkRuntime()
    for frame in frames + again:
        runtime.submit(frame)
    assert list(runtime._engine._pools) == signatures
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
    rng = np.random.default_rng(7)
    farm = DetectorFarm(1, backend="inline")
    handle = farm.submit(_make_frame(SphereDecoder(qam(4)), 3, 2, 15.0,
                                     rng))
    farm.close()
    assert handle.resolution == "expired" and handle.missed_deadline
    with pytest.raises(ValueError):
        farm.submit(_make_frame(SphereDecoder(qam(4)), 2, 1, 15.0, rng))
    farm.close()                            # idempotent


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


def test_server_answers_a_bad_submit_with_an_error_not_a_dead_socket():
    """Validation failures come back as ``("error", message)``: the
    client raises ``service error: …`` and the *same connection* keeps
    serving — frames already in flight on it complete bit-exactly and
    later submits are accepted."""
    rng = np.random.default_rng(22)
    frames = _mixed_frames(rng, repeats=1)
    with CellSiteServer(DetectorFarm(1, backend="inline")) as server:
        with CellSiteClient(server.address) as cell:
            first = cell.submit(frames[0])
            with pytest.raises(ValueError, match="service error.*finite"):
                cell.submit(_poisoned(frames[0], "received"))
            with pytest.raises(ValueError, match="service error"):
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

class _Unprintable:
    """Stands in for a batch of decode results: picklable, but any
    attempt to render it into text is a test failure."""

    def __repr__(self):
        raise AssertionError("an ok reply was rendered into text")

    __str__ = __repr__

    def __format__(self, spec):
        raise AssertionError("an ok reply was formatted into text")


def test_client_renders_a_reply_only_on_the_error_path():
    """``_call`` hands an ``"ok"`` value through untouched — building
    the error message eagerly meant ``repr``-ing every batch of results
    (numpy arrays and all) once per poll, on the frame's critical path —
    and still raises ``ValueError`` with the server's text otherwise."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        with CellSiteClient(listener.getsockname()) as cell:
            peer, _ = listener.accept()
            with peer:
                send_obj(peer, ("ok", _Unprintable()))
                assert isinstance(cell.stats(), _Unprintable)
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
        _assert_identical(payloads[0]["result"], _reference(frame), False)

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
    """Drives ``worker_main`` in-process: feeds scripted commands, then
    models the parent closing the pipe once a result has been sent."""

    def __init__(self, messages):
        from collections import deque
        self.incoming = deque(messages)
        self.sent = []

    def poll(self, timeout=0):
        if self.incoming:
            return True
        # Parent "hangs up" once the shard has delivered a result.
        return any(message[0] == "done" for message in self.sent)

    def recv(self):
        if not self.incoming:
            raise EOFError
        return self.incoming.popleft()

    def send(self, message):
        self.sent.append(message)


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
    worker_main(0, pipe, None, heartbeat_s=1e-4)   # returns on EOF
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
