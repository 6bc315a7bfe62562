"""MeshNetwork against an independent reference model of a lossless chain.

The reference below reads nothing of ``meshtcp.mesh`` but its public
constructors: it keeps its own queues, channels and event heap, and
computes every DELIVER and DROP_QUEUE from the model the mesh module's
docstring states. Hypothesis drives both with the same originations.
"""

import heapq
import itertools
import math
from collections import defaultdict, deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from meshtcp.endpoint import Segment, SegmentKind
from meshtcp.engine import EventKind, EventQueue, RunTrace, TraceKind, run_until
from meshtcp.mesh import ChainTopology, LinkModel, MeshNetwork


def reference(n_nodes, interference_range, capacity, bandwidth, prop_delay, schedule):
    """(time, record kind, seq, segment kind) of every delivery and queue drop,
    in the order they happen. ``schedule`` lists (time, kind, seq, size)."""
    hops = n_nodes - 1
    routes = {"data": range(1, n_nodes), "ack": range(hops, 0, -1)}
    heap, counter = [], itertools.count()
    queues = defaultdict(deque)  # (hop, kind) -> segments, on-air one first
    holder = {}  # interference group -> the (hop, kind) on the air, or None
    waiting = defaultdict(deque)  # interference group -> links, FIFO
    out = []

    def push(time, what, *data):  # ties go in scheduling order
        heapq.heappush(heap, (time, next(counter), what, data))

    def group(hop):
        return (hop - 1) // (interference_range + 1)

    def start(link, now):
        kind, seq, size, step = queues[link][0]
        holder[group(link[0])] = link
        end = now + size * 8.0 / bandwidth
        push(end, "free", link)
        push(end + prop_delay, "arrive", (kind, seq, size, step + 1))

    def enqueue(seg, now):
        kind, seq, _, step = seg
        link = (routes[kind][step], kind)
        queue = queues[link]
        if len(queue) >= capacity:  # the on-air segment holds a slot
            out.append((now, "DROP_QUEUE", seq, kind))
            return
        queue.append(seg)
        if len(queue) == 1:
            if holder.get(group(link[0])) is None:
                start(link, now)
            else:
                waiting[group(link[0])].append(link)

    for time, kind, seq, size in schedule:
        push(time, "arrive", (kind, seq, size, 0))
    while heap:
        now, _, what, (data,) = heapq.heappop(heap)
        if what == "free":
            queues[data].popleft()
            g = group(data[0])
            holder[g] = None
            if queues[data]:
                waiting[g].append(data)
            if waiting[g]:
                start(waiting[g].popleft(), now)
        elif data[3] == hops:
            out.append((now, "DELIVER", data[1], data[0]))
        else:
            enqueue(data, now)
    return out


class StubWorld:
    """Originates the schedule and passes arrivals and channel releases to
    the network; no endpoint answers anything."""

    def __init__(self, topology, schedule):
        self.events = EventQueue()
        self.trace = RunTrace()
        self.net = MeshNetwork(topology, events=self.events, trace=self.trace, seed=1)
        for time, kind, seq, size in schedule:
            self.events.push(time, EventKind.APP_TICK, Segment(SegmentKind(kind), seq, size))

    def handle(self, time, kind, payload):
        if kind is EventKind.APP_TICK:
            self.net.send(payload, time)
        elif kind is EventKind.SEGMENT_ARRIVAL:
            self.net.arrive(*payload, time)
        else:
            self.net.on_channel_free(payload, time)


origination = st.tuples(
    st.integers(0, 20).map(lambda k: k * 0.001),  # a coarse grid, so times tie
    st.sampled_from(["data", "ack"]),
    st.integers(0, 9),
    st.sampled_from([40, 500, 1460]),
)

CAPACITY_ONE_MANY_GROUPS = (7, 0, 1, 1e6, 0.001, [(0.0, "data", s, 1460) for s in range(4)]
                            + [(0.0, "ack", 1, 40), (0.004, "ack", 2, 40)])
ONE_GROUP = (4, 3, 2, 2e6, 0.0005, [(0.0, "data", 0, 1460), (0.0, "ack", 1, 40),
                                     (0.001, "data", 1, 500), (0.001, "data", 2, 500)])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, 7),
    st.integers(0, 3),
    st.integers(1, 3),
    st.sampled_from([1e6, 2e6, 11e6]),
    st.sampled_from([0.0, 0.0005, 0.001]),
    st.lists(origination, min_size=1, max_size=12),
)
@example(*CAPACITY_ONE_MANY_GROUPS)
@example(*ONE_GROUP)
def test_deliveries_and_queue_drops_match_the_reference(
    n_nodes, interference_range, capacity, bandwidth, prop_delay, schedule
):
    link = LinkModel(bandwidth, prop_delay, capacity)
    world = StubWorld(ChainTopology(n_nodes, link, interference_range), schedule)
    trace = run_until(world, math.inf)
    got = [
        (r.time, r.kind.value, r.seq, r.value) for r in trace.records
        if r.kind in (TraceKind.DELIVER, TraceKind.DROP_QUEUE)
    ]
    assert got == reference(n_nodes, interference_range, capacity, bandwidth, prop_delay, schedule)
    assert world.net.carried == 0
