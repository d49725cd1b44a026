"""One frame handle, every resolver.

Whoever resolves a frame — the runtime (completion, deadline expiry,
cancel), the inline farm (a worker's payload, cancel, ``close()``) or
the process farm's supervisor (expiry once the restart budget is
spent) — the caller holds a :class:`PendingFrame` that resolved through
:meth:`PendingFrame.resolve`: the same ``done`` / ``expired`` /
``result()`` behaviour, a numeric ``latency_s``, and the same
:func:`resolution_payload` shape on the wire.
"""

import numpy as np
import pytest

from repro.constellation import qam
from repro.runtime import FrameExpired, PendingFrame, UplinkRuntime
from repro.service import DetectorFarm
from repro.service.protocol import resolution_payload
from repro.sphere import SphereDecoder

from test_runtime import _assert_identical, _make_frame, _reference
from test_runtime_qos import _Clock

#: The keys every resolved frame travels with (the ladder's socket rung
#: reads them).
PAYLOAD_KEYS = {"frame_id", "resolution", "degraded", "missed_deadline",
                "latency_s", "trace", "result"}


def _frame(rng, deadline_s=None):
    frame = _make_frame(SphereDecoder(qam(4)), 3, 2, 15.0, rng)
    frame.deadline_s = deadline_s
    return frame


def _runtime_completed(frame):
    runtime = UplinkRuntime(capacity=4)
    handle = runtime.submit(frame)
    assert runtime.drain() == [handle]
    return handle


def _runtime_expired(frame):
    frame.deadline_s = 1.0
    clock = _Clock()
    runtime = UplinkRuntime(capacity=4, clock=clock)
    handle = runtime.submit(frame)
    clock.now = 10.0
    assert runtime.drain() == [handle]
    return handle


def _runtime_cancelled(frame):
    runtime = UplinkRuntime(capacity=4)
    handle = runtime.submit(frame)
    assert runtime.cancel(handle) and runtime.idle
    return handle


def _farm_completed(frame):
    with DetectorFarm(1, backend="inline") as farm:
        handle = farm.submit(frame)
        assert farm.drain() == [handle]
    return handle


def _farm_cancelled(frame):
    with DetectorFarm(1, backend="inline") as farm:
        handle = farm.submit(frame)
        assert farm.cancel(handle) and farm.idle
    return handle


def _farm_closed(frame):
    farm = DetectorFarm(1, backend="inline")
    handle = farm.submit(frame)
    farm.close()
    return handle


def _supervisor_expired(frame):
    with DetectorFarm(1, backend="process", max_restarts=0) as farm:
        farm.kill_shard(0)          # the frame lands in a dead shard
        handle = farm.submit(frame)
        assert farm.drain() == [handle]
        assert farm.stats()["frames_expired"] == 1
    return handle


@pytest.mark.parametrize("resolver, resolution", [
    (_runtime_completed, "completed"),
    (_runtime_expired, "expired"),
    (_runtime_cancelled, "cancelled"),
    (_farm_completed, "completed"),
    (_farm_cancelled, "cancelled"),
    (_farm_closed, "expired"),
    (_supervisor_expired, "expired"),
])
def test_every_resolver_resolves_one_kind_of_handle(resolver, resolution):
    frame = _frame(np.random.default_rng(40))
    handle = resolver(frame)
    assert isinstance(handle, PendingFrame)
    assert handle.done and handle.resolution == resolution
    assert handle.expired == (resolution == "expired")
    assert isinstance(handle.latency_s, float) and handle.latency_s >= 0.0
    if resolution == "completed":
        _assert_identical(handle.result(), _reference(frame), False)
    else:
        with pytest.raises(FrameExpired):
            handle.result()
    payload = resolution_payload(handle.frame_id, handle)
    assert set(payload) == PAYLOAD_KEYS
    assert payload["resolution"] == resolution
    assert payload["latency_s"] == handle.latency_s
    with pytest.raises(ValueError):
        handle.resolve("completed", 0.0)        # resolves exactly once


def test_resolve_refuses_an_unknown_resolution():
    handle = PendingFrame(0, _frame(np.random.default_rng(41)), 1.0)
    with pytest.raises(ValueError):
        handle.resolve("failed", 2.0)
    assert not handle.done and handle.latency_s is None
    handle.resolve("cancelled", 2.5)
    assert handle.latency_s == 1.5 and handle.completed_at == 2.5
