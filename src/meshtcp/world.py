"""One simulated run: one TCP flow over its own chain network.

The flow runs from node 1 to the last node of the chain. The world
wires the run: it owns the event queue, hands the run's trace (one it is
given, or a fresh one that keeps its records) to the network and the sender,
and dispatches events to them and the receiver. It keeps one live RTO
expiry in the queue, the one at ``_expiry_at``; an expiry popped at any
other time was replaced, and of two at that time the first popped is live.

A world may carry several flavors, which share the run until their
congestion control first acts differently; there it splits (``_split``).
"""

from __future__ import annotations

import math

from .cc import Flavor
from .endpoint import (
    DEFAULT_RTO_MIN_S,
    Diverged,
    ReceiverEndpoint,
    Segment,
    SegmentKind,
    SenderEndpoint,
)
from .engine import EventKind, EventQueue, RunTrace, TraceKind
from .mesh import ChainTopology, MeshNetwork


# bound once for the per-event path; see the note in mesh.py
_SEGMENT_ARRIVAL, _CHANNEL_FREE = EventKind.SEGMENT_ARRIVAL, EventKind.CHANNEL_FREE
_TIMER_EXPIRY, _APP_TICK = EventKind.TIMER_EXPIRY, EventKind.APP_TICK
_DATA, _DELIVER = SegmentKind.DATA, TraceKind.DELIVER


class MeshWorld:
    """A fully wired simulation, ready for ``engine.run_until``."""

    # slots, here and in the state a world owns: a copy made by ``_split``
    # keeps them, where a copied ``__dict__`` slows lookups in both worlds
    __slots__ = (
        "events", "trace", "net", "_expiry_at", "sender", "receiver", "forks",
    )

    def __init__(
        self,
        topology: ChainTopology,
        flavor: Flavor | tuple[Flavor, ...],
        *,
        seed: int,
        app_limit: int | None = None,
        rto_min: float = DEFAULT_RTO_MIN_S,
        trace: RunTrace | None = None,
    ) -> None:
        self.events = EventQueue()
        self.trace = RunTrace() if trace is None else trace
        self.net = MeshNetwork(topology, events=self.events, trace=self.trace, seed=seed)
        # time of the one live TIMER_EXPIRY in the queue, inf if none
        self._expiry_at = math.inf

        self.sender = SenderEndpoint(flavor, trace=self.trace, app_limit=app_limit, rto_min=rto_min)
        self.receiver = ReceiverEndpoint()
        self.forks: list[MeshWorld] = []
        self.events.push(0.0, EventKind.APP_TICK, None)

    def handle(self, time: float, kind: EventKind, payload) -> None:
        if kind is _SEGMENT_ARRIVAL:
            link, seg = payload
            net = self.net
            if link is not None:  # relayed onto its next hop
                net.enqueue(link, seg, time)
                return
            net.retire(_DELIVER, seg, time)
            if seg.kind is _DATA:
                net.forward(self.receiver.on_data(seg, time), time)
            else:
                self._react(time, seg)
        elif kind is _CHANNEL_FREE:
            self.net.on_channel_free(payload, time)
        elif kind is _TIMER_EXPIRY:
            self._on_timer(time)
        elif kind is _APP_TICK:
            self._send(self.sender.start(time), time)

    def _on_timer(self, time: float) -> None:
        if time != self._expiry_at:
            return  # replaced by an expiry at an earlier deadline
        self._expiry_at = math.inf
        if self.sender.rto_deadline <= time:
            self._react(time, None)
        else:
            self._send([], time)  # cancelled or restarted since it was queued

    def _react(self, time: float, ack: Segment | None) -> None:
        """Let the sender take ``ack``, or its RTO if None, and send what it
        returns; if its flavors disagree, split them first."""
        sender = self.sender
        try:
            out = sender.on_rto(time) if ack is None else sender.on_ack_segment(ack, time)
        except Diverged as exc:
            return self._split(exc.args[0], time, ack)
        self._send(out, time)

    def _send(self, segs: list[Segment], time: float) -> None:
        """Put ``segs`` on the network, then queue an expiry unless one is
        queued at or before the sender's RTO deadline.

        A deadline that moved later is caught up with when the queued
        expiry fires, so a re-arm on every ACK pushes nothing.
        """
        forward = self.net.forward
        for seg in segs:
            forward(seg, time)
        deadline = self.sender.rto_deadline
        if deadline < self._expiry_at:
            self.events.push(deadline, _TIMER_EXPIRY, None)
            self._expiry_at = deadline

    def _split(self, groups: list[list[int]], time: float, ack: Segment | None) -> None:
        """Copy the world, as it is, for every group of agreeing flavors but
        the first, which stays; the copies go to ``forks``. Each world keeps
        its group's cc states and takes the event again."""
        import copy  # only a world that splits needs it

        forks, self.forks = self.forks, []  # a copy starts with none
        twins = [copy.deepcopy(self) for _ in groups[1:]]
        self.forks = forks + twins
        for world, group in zip((self, *twins), groups):
            world.sender.keep(group)
            world._react(time, ack)
