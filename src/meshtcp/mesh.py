"""Chain-topology wireless mesh.

A run carries one flow, so a segment has no address: its kind is its
route. Data goes up the chain from node 1 to the last node, and an ACK back
down to node 1. Each hop is a shared medium carried by two directed links,
one each way, with drop-tail FIFO queues. Links are partitioned into
interference groups of ``interference_range + 1`` consecutive hops; within
a group at most one transmission is on the air at a time and waiting links
are served in FIFO order. Wireless errors are a per-link Poisson process
of loss instants: a transmission is lost iff an instant lands inside it.
A drop table in the topology replaces that model on the data link of each
hop it lists, for reproducing exact loss scenarios.
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

from .endpoint import Segment, SegmentKind
from .engine import EventKind, EventQueue, RngStream, RunTrace, TraceKind
from .errors import ContractError

DEFAULT_BANDWIDTH_BPS = 2_000_000.0
DEFAULT_PROP_DELAY_S = 0.001
DEFAULT_QUEUE_CAPACITY = 50
DEFAULT_INTERFERENCE_RANGE = 2


class LinkModel(NamedTuple):
    """Static per-hop parameters. ``loss_rate`` is the Poisson rate of
    wireless loss instants, per directed link, in events per second."""

    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS
    prop_delay_s: float = DEFAULT_PROP_DELAY_S
    queue_capacity: int = DEFAULT_QUEUE_CAPACITY
    loss_rate: float = 0.0


class DropDirective(NamedTuple):
    """Drop the nth transmission (1-based) of data segment ``seq`` on hop
    ``hop``."""

    hop: int
    seq: int
    nth: int


class ChainTopology(NamedTuple):
    """Nodes 1..n in a line; hop h is the link between nodes h and h+1.
    Every hop has the same ``link`` parameters; the data link of each hop
    that ``drops`` lists loses exactly the transmissions listed for it."""

    n_nodes: int
    link: LinkModel
    interference_range: int = DEFAULT_INTERFERENCE_RANGE
    drops: tuple[DropDirective, ...] = ()

    def group_of(self, hop: int) -> int:
        return (hop - 1) // (self.interference_range + 1)

    @property
    def n_groups(self) -> int:
        return self.group_of(self.n_nodes - 1) + 1


class LossProcess:
    """Poisson loss instants with exponentially distributed gaps.

    Instants are generated lazily in time order, so the instant sequence
    depends only on (seed, stream name), never on who is transmitting.
    """

    __slots__ = ("rate", "_stream", "next_instant")

    def __init__(self, stream: RngStream | None, rate: float) -> None:
        self.rate = rate
        self._stream = stream
        self.next_instant = stream.exponential(rate) if rate > 0 else math.inf

    def decide(self, seg: Segment, start: float, tx_time: float) -> bool:
        while self.next_instant < start:
            self.next_instant += self._stream.exponential(self.rate)
        return self.next_instant < start + tx_time


class ScriptedDrops:
    """One data link's drop table: the nth transmission of seq is lost for
    each (seq, nth) in ``wanted``."""

    __slots__ = ("_wanted", "_counts")
    next_instant = -math.inf

    def __init__(self, wanted: set[tuple[int, int]]) -> None:
        self._wanted = wanted
        self._counts: dict[int, int] = {}

    def decide(self, seg: Segment, start: float, tx_time: float) -> bool:
        seq = seg.seq
        n = self._counts[seq] = self._counts.get(seq, 0) + 1
        return (seq, n) in self._wanted


# Enum members bound once: looking one up on its class costs about ten
# times the `is` test that uses it, on every segment.
_DATA = SegmentKind.DATA
_CHANNEL_FREE = EventKind.CHANNEL_FREE
_SEGMENT_ARRIVAL = EventKind.SEGMENT_ARRIVAL
_SEND, _RETX = TraceKind.SEND, TraceKind.RETX
_DROP_QUEUE, _DROP_WIRELESS = TraceKind.DROP_QUEUE, TraceKind.DROP_WIRELESS


class _Link:
    """Runtime state of one directed link; ``model`` is the LinkModel every
    link of the chain shares. ``next`` is the link a segment takes after
    this one, None at the end of its route. ``loss``, a LossProcess or
    ScriptedDrops, loses no transmission before its ``next_instant`` and
    ``decide``s the rest."""

    __slots__ = ("hop", "model", "queue", "group", "loss", "next")

    def __init__(self, hop, model, group, loss):
        self.hop = hop
        self.model = model
        self.group = group
        self.loss = loss
        self.next: _Link | None = None
        # queue[0] is on the air or waiting in the group's FIFO; an empty
        # queue means the link is idle
        self.queue: deque[Segment] = deque()


class _Group:
    """One interference group: a single shared channel; links reach it as ``group``."""

    __slots__ = ("index", "busy_link", "fifo")

    def __init__(self, index):
        self.index = index
        self.busy_link: _Link | None = None
        self.fifo: deque[_Link] = deque()


class MeshNetwork:
    """Event-driven transport fabric over a ChainTopology.

    Owns link queues, channel arbitration and the error model; a
    SEGMENT_ARRIVAL event carries the link its segment takes next, None
    at the end of its route.
    It is the only writer of the in-flight count ``carried``: ``forward``
    adds a segment, and ``retire`` records its delivery or drop and
    removes it, raising ``ContractError`` if nothing is in flight.
    """

    __slots__ = ("events", "trace", "carried", "_data_head", "_ack_head")

    def __init__(
        self,
        topology: ChainTopology,
        *,
        events: EventQueue,
        trace: RunTrace,
        seed: int,
    ) -> None:
        self.events = events
        self.trace = trace
        self.carried = 0

        groups = [_Group(i) for i in range(topology.n_groups)]
        model = topology.link
        rate = model.loss_rate
        data: list[_Link] = []
        ack: list[_Link] = []
        for hop in range(1, topology.n_nodes):
            group = groups[topology.group_of(hop)]
            scripted = {(seq, nth) for h, seq, nth in topology.drops if h == hop}
            for forward in (True, False):
                if forward and scripted:
                    loss = ScriptedDrops(scripted)
                else:
                    name = f"loss/hop{hop}/{'fwd' if forward else 'rev'}"
                    loss = LossProcess(RngStream(seed, name) if rate else None, rate)
                (data if forward else ack).append(_Link(hop, model, group, loss))
        ack.reverse()  # data crosses hops 1..h, an ACK hops h..1
        for route in (data, ack):
            for link, after in zip(route, route[1:]):
                link.next = after
        self._data_head, self._ack_head = data[0], ack[0]

    def retire(self, kind: TraceKind, seg: Segment, now: float) -> None:
        """Record a segment's delivery or drop and stop counting it."""
        if self.carried <= 0:
            raise ContractError(f"{kind.value} of {seg.kind.value} {seg.seq} not in flight")
        self.trace.add(now, kind, 0, seg.seq, seg.kind._value_)
        self.carried -= 1

    def forward(self, seg: Segment, now: float) -> None:
        """Originate a segment: record its SEND or RETX, count it in flight
        and queue it on the first link of its route, data up the chain, an
        ACK down."""
        self.trace.add(now, _RETX if seg.retx else _SEND, 0, seg.seq, seg.kind._value_)
        self.carried += 1
        self.enqueue(self._data_head if seg.kind is _DATA else self._ack_head, seg, now)

    def enqueue(self, link: _Link, seg: Segment, now: float) -> None:
        """Drop-tail FIFO; the segment being transmitted occupies a slot.
        A link that was idle takes the group's channel if it is free, else
        waits for it in FIFO order."""
        queue = link.queue
        if len(queue) >= link.model.queue_capacity:
            self.retire(_DROP_QUEUE, seg, now)
            return
        queue.append(seg)
        if len(queue) == 1:
            group = link.group
            if group.busy_link is None:
                self._start_transmission(link, now)
            else:
                group.fifo.append(link)

    def _start_transmission(self, link: _Link, now: float) -> None:
        seg = link.queue[0]
        group = link.group
        if group.busy_link is not None:
            raise ContractError(
                f"hop {link.hop} starts sending while group {group.index} is held"
            )
        group.busy_link = link
        model = link.model
        tx_time = seg.size_bytes * 8.0 / model.bandwidth_bps
        end = now + tx_time
        loss = link.loss
        dropped = loss.next_instant < end and loss.decide(seg, now, tx_time)
        self.events.push(end, _CHANNEL_FREE, link)
        if dropped:
            self.retire(_DROP_WIRELESS, seg, now)
        else:
            self.events.push(end + model.prop_delay_s, _SEGMENT_ARRIVAL, (link.next, seg))

    def on_channel_free(self, link: _Link, now: float) -> None:
        """A transmission on this link just ended; hand the channel on."""
        group = link.group
        if group.busy_link is not link:
            raise ContractError(
                f"hop {link.hop} frees group {group.index} without holding its channel"
            )
        link.queue.popleft()
        group.busy_link = None
        if link.queue:
            group.fifo.append(link)
        if group.fifo:
            self._start_transmission(group.fifo.popleft(), now)
