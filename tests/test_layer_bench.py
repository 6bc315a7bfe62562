"""Per-layer microbenchmarks: one engine push and pop, one mesh hop, one
ACK through cc and one through the sender and its timer, one data segment
through the receiver, one trace record kept in memory and one streamed as
text, at a repeated time and at a new time.

Each runs few rounds so the suite stays fast; raise ROUNDS for steadier
figures. Every benchmark also checks the result of the operation it times,
and, where the operation moves some state by one, that the state moved by
exactly the number of calls made: at least ROUNDS * ITERATIONS when
benchmarking, one under ``--benchmark-disable``. Counting the calls costs
one wrapper call per operation in every figure.
"""

import io
import itertools

import pytest

pytest.importorskip("pytest_benchmark")

from conftest import link_of  # noqa: E402
from meshtcp import cc  # noqa: E402
from meshtcp.cc import CcPhase, Flavor  # noqa: E402
from meshtcp.endpoint import ReceiverEndpoint, Segment, SegmentKind  # noqa: E402
from meshtcp.engine import (  # noqa: E402
    EventKind,
    EventQueue,
    RunTrace,
    TraceKind,
)
from meshtcp.mesh import ChainTopology, LinkModel, MeshNetwork  # noqa: E402
from meshtcp.world import MeshWorld  # noqa: E402

ROUNDS = 200
ITERATIONS = 10


def _bench(benchmark, fn, *args):
    """``fn``'s last result under the benchmark, and how often it was called."""
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return fn(*args)

    out = benchmark.pedantic(counted, args=args, rounds=ROUNDS, iterations=ITERATIONS)
    assert calls >= (ROUNDS * ITERATIONS if benchmark.enabled else 1)
    return out, calls


def test_engine_push_and_pop(benchmark):
    queue = EventQueue()
    for i in range(64):  # a heap about as deep as a busy 12-hop chain's
        queue.push(1e9 + i, EventKind.APP_TICK, i)

    def push_pop():
        queue.push(0.0, EventKind.CHANNEL_FREE, None)
        return queue.pop()

    assert _bench(benchmark, push_pop)[0] == (0.0, EventKind.CHANNEL_FREE, None)
    assert len(queue._heap) == 64


def test_mesh_hop(benchmark):
    net = MeshNetwork(
        ChainTopology(3, LinkModel()), events=EventQueue(), trace=RunTrace(), seed=1
    )
    seg = Segment(SegmentKind.DATA, 0, 1460)
    link = link_of(net, 1, 2)

    def hop():
        net.enqueue(link, seg, 0.0)
        net.on_channel_free(link, 0.00584)
        net.events._heap.clear()

    _bench(benchmark, hop)
    assert not link.queue and link.group.busy_link is None


def test_cc_new_ack(benchmark):
    state = cc.CcVars(Flavor.NEWRENO, phase=CcPhase.CA, cwnd=20, ssthresh=16, last_ack=100)
    (new, retransmit), _ = _bench(benchmark, cc.on_new_ack, state, 101, 0.05)
    assert (new.last_ack, new.ca_accumulator, retransmit) == (101, 1, [])


def test_cc_dupack(benchmark):
    state = cc.CcVars(Flavor.SACK, phase=CcPhase.CA, cwnd=20, ssthresh=16, last_ack=100)
    (new, retransmit), _ = _bench(benchmark, cc.on_dupack, state, 100, 120, ((102, 105),))
    assert (new.dupacks, new.phase, retransmit) == (1, CcPhase.CA, [])


def test_sender_ack(benchmark):
    world = MeshWorld(ChainTopology(2, LinkModel()), Flavor.NEWRENO, seed=1)
    sender = world.sender
    sender.cc = cc.CcVars(Flavor.NEWRENO, phase=CcPhase.CA, cwnd=20, ssthresh=16)
    sender.fill_window(0.0)
    world._send([], 0.0)
    acks = itertools.count(1)

    def ack():
        seq = next(acks)  # each ACK covers one more segment, 1 ms apart
        out = sender.on_ack_segment(Segment(SegmentKind.ACK, seq, 40), seq * 1e-3)
        world._send([], seq * 1e-3)
        return out

    out, calls = _bench(benchmark, ack)
    assert out and all(seg.kind is SegmentKind.DATA and not seg.retx for seg in out)
    assert sender.cc.last_ack == next(acks) - 1 == calls
    # the first RTT sample moved the deadline earlier; every later ACK moved
    # it later and queued nothing
    timers = [e for e in world.events._heap if e[2] is EventKind.TIMER_EXPIRY]
    assert len(timers) == 2


def test_receiver_data(benchmark):
    receiver = ReceiverEndpoint()
    seqs = itertools.count()

    def data():  # each segment is the next in order, so no SACK block
        return receiver.on_data(Segment(SegmentKind.DATA, next(seqs), 1460), 0.0)

    ack, calls = _bench(benchmark, data)
    assert ack.kind is SegmentKind.ACK and ack.sack == ()
    assert ack.seq == receiver.rcv_next == next(seqs) == calls


def test_trace_add(benchmark):
    trace = RunTrace()
    _, calls = _bench(benchmark, trace.add, 1.0, TraceKind.SEND, 0, 7, "data")
    assert len(trace.records) == calls


def test_trace_add_streamed(benchmark):
    # every record has the same time object, so its text is reused
    sink = io.StringIO()
    trace = RunTrace(sink.write)
    _, calls = _bench(benchmark, trace.add, 1.0, TraceKind.SEND, 0, 7, "data")
    lines = sink.getvalue().splitlines()
    assert len(trace.records) == 0 and len(lines) == calls
    assert set(lines) == {"1.000000000\tSEND\t0\t7\tdata"}


def test_trace_add_streamed_new_times(benchmark):
    # every record has a new time, so each is formatted
    sink = io.StringIO()
    trace = RunTrace(sink.write)
    times = (i * 1e-3 for i in itertools.count(1))

    def add():
        trace.add(next(times), TraceKind.SEND, 0, 7, "data")

    _, calls = _bench(benchmark, add)
    lines = sink.getvalue().splitlines()
    assert len(lines) == len(set(lines)) == calls
    assert lines[0] == "0.001000000\tSEND\t0\t7\tdata"
