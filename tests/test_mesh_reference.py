"""MeshNetwork against an independent reference model of a chain, with
Poisson loss, a drop table, both or neither.

The reference below reads nothing of ``meshtcp.mesh`` but its public
constructors: it keeps its own queues, channels, transmission counts, loss
instants and event heap, and computes every DELIVER, DROP_QUEUE and
DROP_WIRELESS from the model the mesh module's docstring states. It draws
each directed link's loss instants itself, from that link's named random
stream. Hypothesis drives both with the same originations, loss rate, seed
and drop table.
"""

import heapq
import itertools
import math
from collections import defaultdict, deque

from hypothesis import given, settings
from hypothesis import strategies as st

from meshtcp.endpoint import Segment, SegmentKind
from meshtcp.engine import EventKind, EventQueue, RngStream, RunTrace, TraceKind, run_until
from meshtcp.mesh import ChainTopology, DropDirective, LinkModel, MeshNetwork


def reference(
    n_nodes, interference_range, capacity, bandwidth, prop_delay, schedule, drops, rate, seed
):
    """(time, record kind, seq, segment kind) of every delivery and drop, in
    the order they happen. ``schedule`` lists (time, kind, seq, size), and
    ``drops`` (hop, seq, nth): the nth transmission of data seq on that hop
    holds the channel as any other, but is lost at its start. Every other
    directed link loses a transmission over [start, end) iff one of its
    Poisson loss instants, ``rate`` per second, lies in it; such a
    transmission too holds the channel and is lost at its start."""
    hops = n_nodes - 1
    routes = {"data": range(1, n_nodes), "ack": range(hops, 0, -1)}
    heap, counter = [], itertools.count()
    queues = defaultdict(deque)  # (hop, kind) -> segments, on-air one first
    holder = {}  # interference group -> the (hop, kind) on the air, or None
    waiting = defaultdict(deque)  # interference group -> links, FIFO
    sent = defaultdict(int)  # (hop, data seq) -> transmissions started
    scripted_hops = {hop for hop, _, _ in drops}
    instants = {}  # link -> [its next loss instant, its stream]
    out = []

    def push(time, what, *data):  # ties go in scheduling order
        heapq.heappush(heap, (time, next(counter), what, data))

    def group(hop):
        return (hop - 1) // (interference_range + 1)

    def poisson_lost(link, start, end):
        if not rate:
            return False
        if link not in instants:
            hop, kind = link
            stream = RngStream(seed, f"loss/hop{hop}/{'fwd' if kind == 'data' else 'rev'}")
            instants[link] = [stream.exponential(rate), stream]
        entry = instants[link]
        while entry[0] < start:  # exponential gaps, in time order
            entry[0] += entry[1].exponential(rate)
        return entry[0] < end

    def start(link, now):
        kind, seq, size, step = queues[link][0]
        holder[group(link[0])] = link
        end = now + size * 8.0 / bandwidth
        push(end, "free", link)
        if kind == "data" and link[0] in scripted_hops:
            sent[link[0], seq] += 1
            lost = (link[0], seq, sent[link[0], seq]) in drops
        else:
            lost = poisson_lost(link, now, end)
        if lost:
            out.append((now, "DROP_WIRELESS", seq, kind))
            return
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

    def __init__(self, topology, schedule, seed):
        self.events = EventQueue()
        self.trace = RunTrace()
        self.net = MeshNetwork(topology, events=self.events, trace=self.trace, seed=seed)
        for time, kind, seq, size in schedule:
            self.events.push(time, EventKind.APP_TICK, Segment(SegmentKind(kind), seq, size))

    def handle(self, time, kind, payload):
        if kind is EventKind.APP_TICK:
            self.net.forward(payload, time)
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

# (hop, seq, nth); hop is folded onto the chain, so any hop names one
drop = st.tuples(st.integers(1, 6), st.integers(0, 9), st.integers(1, 2))

# (n_nodes, interference_range, capacity, bandwidth, prop_delay, schedule,
#  table, loss rate, seed)
EXAMPLES = [
    # capacity-1 queues, each hop its own group
    (7, 0, 1, 1e6, 0.001, [(0.0, "data", s, 1460) for s in range(4)]
     + [(0.0, "ack", 1, 40), (0.004, "ack", 2, 40)], [], 0.0, 1),
    # one group: a freed link with more to send queues behind the waiting one
    (4, 3, 2, 2e6, 0.0005, [(0.0, "data", 0, 1460), (0.0, "ack", 1, 40),
                            (0.001, "data", 1, 500), (0.001, "data", 2, 500)], [], 0.0, 1),
    # groups of two hops: hops 2 and 3 may transmit at once, hops 1 and 2 not
    (5, 1, 5, 2e6, 0.001, [(0.0, "data", s, 1460) for s in range(4)], [], 0.0, 1),
    # the second copy of seq 0 is lost on hop 2, the first of seq 1 on hop 1
    (4, 0, 3, 2e6, 0.001, [(0.0, "data", 0, 1460), (0.002, "data", 0, 1460),
                           (0.002, "data", 1, 500)], [(2, 0, 2), (1, 1, 1)], 0.0, 1),
    # Poisson loss at 100/s on every directed link but hop 1's data link,
    # which keeps its table; originations spread over a second
    (4, 0, 3, 1e6, 0.001, [(k * 0.05, kind, k, 1460 if kind == "data" else 40)
                           for k in range(20) for kind in ("data", "ack")],
     [(1, 3, 1)], 100.0, 7),
]


def check_against_reference(
    n_nodes, interference_range, capacity, bandwidth, prop_delay, schedule, table,
    rate=0.0, seed=1,
):
    """Run ``schedule`` through MeshNetwork and the reference and compare.
    ``table`` lists (hop, seq, nth), with hop folded onto the chain."""
    hops = n_nodes - 1
    drops = tuple(DropDirective((hop - 1) % hops + 1, seq, nth) for hop, seq, nth in table)
    link = LinkModel(bandwidth, prop_delay, capacity, rate)
    topology = ChainTopology(n_nodes, link, interference_range, drops)
    world = StubWorld(topology, schedule, seed)
    trace = run_until(world, math.inf)
    got = [
        (r.time, r.kind.value, r.seq, r.value) for r in trace.records
        if r.kind in (TraceKind.DELIVER, TraceKind.DROP_QUEUE, TraceKind.DROP_WIRELESS)
    ]
    assert got == reference(
        n_nodes, interference_range, capacity, bandwidth, prop_delay, schedule, set(drops),
        rate, seed,
    )
    assert world.net.carried == 0


def check_examples():
    for args in EXAMPLES:
        check_against_reference(*args)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, 7),
    st.integers(0, 3),
    st.integers(1, 3),
    st.sampled_from([1e6, 2e6, 11e6]),
    st.sampled_from([0.0, 0.0005, 0.001]),
    st.lists(origination, min_size=1, max_size=12),
    st.one_of(st.just([]), st.lists(drop, min_size=1, max_size=4)),
    st.sampled_from([0.0, 0.0, 20.0, 200.0]),
    st.integers(1, 2**32),
)
def test_deliveries_and_queue_drops_match_the_reference(
    n_nodes, interference_range, capacity, bandwidth, prop_delay, schedule, table, rate, seed
):
    check_against_reference(
        n_nodes, interference_range, capacity, bandwidth, prop_delay, schedule, table,
        rate, seed,
    )


def test_fixed_examples_match_the_reference():
    check_examples()
