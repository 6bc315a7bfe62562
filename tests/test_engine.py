import hashlib
import random

import pytest

from meshtcp.cc import Flavor
from meshtcp.engine import (
    EventKind,
    EventQueue,
    RngStream,
    RunTrace,
    TraceKind,
    run_until,
)
from meshtcp.errors import ContractError
from meshtcp.mesh import LinkModel, build_chain
from meshtcp.world import MeshWorld


def test_queue_singleton_dequeues():
    q = EventQueue()
    q.push(1.0, EventKind.APP_TICK, "a")
    assert q.pop() == (1.0, EventKind.APP_TICK, "a")
    assert not q


def test_queue_simultaneous_events_keep_insertion_order():
    q = EventQueue()
    q.push(1.0, EventKind.APP_TICK, "a")
    q.push(1.0, EventKind.APP_TICK, "b")
    q.push(0.5, EventKind.APP_TICK, "c")
    assert [q.pop()[2] for _ in range(3)] == ["c", "a", "b"]


def test_queue_rejects_events_in_the_past():
    q = EventQueue()
    q.push(1.0, EventKind.APP_TICK, None)
    q.pop()
    with pytest.raises(ContractError):
        q.push(0.5, EventKind.APP_TICK, None)


def test_rng_stream_reproducible_and_name_split():
    a = RngStream(42, "loss/hop1/fwd")
    b = RngStream(42, "loss/hop1/fwd")
    assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]
    c = RngStream(42, "loss/hop2/fwd")
    assert a.uniform() != c.uniform()
    child = RngStream(42).split("loss").split("x")
    assert child.name == "loss/x"
    assert child.seed == 42


@pytest.mark.parametrize(
    "seed, name", [(0, ""), (42, "loss/hop1/fwd"), (2**63 - 1, "loss/hop3/rev")]
)
def test_rng_stream_is_seeded_from_sha256_of_seed_and_name(seed, name):
    # the reference seeding every earlier version used, through hashlib
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    reference = random.Random(int.from_bytes(digest[:8], "big"))
    stream = RngStream(seed, name)
    assert [stream.uniform() for _ in range(20)] == [reference.random() for _ in range(20)]


def test_rng_exponential_positive_and_rate_checked():
    s = RngStream(7, "e")
    draws = [s.exponential(2.0) for _ in range(100)]
    assert all(d > 0 for d in draws)
    with pytest.raises(ContractError):
        s.exponential(0.0)


def test_trace_rejects_time_regression():
    t = RunTrace()
    t.add(1.0, TraceKind.SEND, 0, 0, "data")
    with pytest.raises(ContractError):
        t.add(0.5, TraceKind.SEND, 0, 1, "data")


def test_trace_export_format():
    t = RunTrace()
    t.add(0.0, TraceKind.SEND, 0, 3, "data")
    t.add(0.25, TraceKind.CWND_SAMPLE, 0, 44, 2)
    t.add(0.5, TraceKind.RTO, 0, 3, 0.4)
    lines = t.export().splitlines()
    assert lines[0] == "0.000000000\tSEND\t0\t3\tdata"
    assert lines[1] == "0.250000000\tCWND_SAMPLE\t0\t44\t2"
    assert lines[2] == "0.500000000\tRTO\t0\t3\t0.400000000"
    assert RunTrace().export() == ""


def _one_hop_world(seed=1):
    topo = build_chain(2, LinkModel())
    return MeshWorld(topo, Flavor.NEWRENO, seed=seed)


def test_run_until_t_end_zero_emits_only_time_zero_records():
    world = _one_hop_world()
    trace = run_until(world, 0.0)
    assert len(trace) > 0
    assert all(r.time == 0.0 for r in trace)


def test_run_until_is_deterministic():
    first = run_until(_one_hop_world(), 5.0).export()
    second = run_until(_one_hop_world(), 5.0).export()
    assert hashlib.sha256(first.encode()).hexdigest() == hashlib.sha256(
        second.encode()
    ).hexdigest()


def test_trace_times_never_exceed_t_end():
    trace = run_until(_one_hop_world(), 1.5)
    assert max(r.time for r in trace) <= 1.5


class _PastPushingWorld:
    """Stub world whose handler schedules an event before the clock."""

    def __init__(self):
        self.events = EventQueue()
        self.trace = RunTrace()
        self.events.push(1.0, EventKind.APP_TICK, None)

    def handle(self, time, kind, payload):
        self.events.push(time - 0.5, EventKind.APP_TICK, None)


def test_run_until_rejects_events_scheduled_in_the_past():
    world = _PastPushingWorld()
    with pytest.raises(ContractError, match=r"dispatch failed at t=1\.000000000 .*in the past"):
        run_until(world, 5.0)
    assert world.events._watermark == 1.0
