"""One simulated run: a chain network carrying TCP flows.

The world wires the run: it owns the clock and the event queue, hands the
run's trace (one it is given, or a fresh one that keeps its records) to the
network and the senders, and dispatches events to them and the receivers.
It keeps one queued RTO expiry per flow.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .cc import Flavor
from .endpoint import (
    DEFAULT_RTO_MAX_S,
    DEFAULT_RTO_MIN_S,
    ReceiverEndpoint,
    Segment,
    SegmentKind,
    SenderEndpoint,
)
from .engine import EventKind, EventQueue, RunTrace
from .errors import ConfigError, ContractError
from .mesh import (
    DEFAULT_ACK_BYTES,
    DEFAULT_MSS_BYTES,
    ChainTopology,
    MeshNetwork,
    ScriptedDrops,
)


# bound once for the per-event path; see the note in mesh.py
_SEGMENT_ARRIVAL, _CHANNEL_FREE = EventKind.SEGMENT_ARRIVAL, EventKind.CHANNEL_FREE
_TIMER_EXPIRY, _APP_TICK = EventKind.TIMER_EXPIRY, EventKind.APP_TICK
_DATA = SegmentKind.DATA


class FlowConfig(NamedTuple):
    """One unidirectional flow from node 1 over ``hops`` links."""

    flavor: Flavor
    hops: int
    app_limit: int | None = None


class _Flow(NamedTuple):
    flow_id: int
    src: int
    dst: int
    sender: SenderEndpoint
    receiver: ReceiverEndpoint


class MeshWorld:
    """A fully wired simulation, ready for ``engine.run_until``."""

    def __init__(
        self,
        topology: ChainTopology,
        flows: list[FlowConfig],
        *,
        seed: int,
        mss_bytes: int = DEFAULT_MSS_BYTES,
        ack_bytes: int = DEFAULT_ACK_BYTES,
        rto_min: float = DEFAULT_RTO_MIN_S,
        rto_max: float = DEFAULT_RTO_MAX_S,
        scripted: ScriptedDrops | None = None,
        trace: RunTrace | None = None,
    ) -> None:
        self.clock = 0.0
        self.events = EventQueue()
        self.trace = RunTrace() if trace is None else trace
        self.net = MeshNetwork(
            topology, events=self.events, trace=self.trace, seed=seed, scripted=scripted
        )
        self.flows: dict[int, _Flow] = {}
        # flow -> (time, token) of its one live TIMER_EXPIRY in the queue;
        # an entry whose token is not here was replaced and is discarded
        self._queued_expiry: dict[int, tuple[float, int]] = {}
        self._expiry_tokens = itertools.count()

        for flow_id, config in enumerate(flows):
            if config.hops < 1 or config.hops > topology.n_hops:
                raise ConfigError(
                    f"flow needs 1..{topology.n_hops} hops, got {config.hops}"
                )
            src, dst = 1, 1 + config.hops
            sender = SenderEndpoint(
                flow_id,
                config.flavor,
                mss_bytes,
                src=src,
                dst=dst,
                app_limit=config.app_limit,
                rto_min=rto_min,
                rto_max=rto_max,
                trace=self.trace,
            )
            receiver = ReceiverEndpoint(
                flow_id,
                node=dst,
                peer=src,
                ack_bytes=ack_bytes,
                sack_enabled=config.flavor is Flavor.SACK,
            )
            self.flows[flow_id] = _Flow(flow_id, src, dst, sender, receiver)
            self.events.push(0.0, EventKind.APP_TICK, flow_id)

    def handle(self, time: float, kind: EventKind, payload) -> None:
        if kind is _SEGMENT_ARRIVAL:
            node, seg = payload
            if self.net.arrive(node, seg, time):
                self._on_delivery(time, seg)
        elif kind is _CHANNEL_FREE:
            self.net.on_channel_free(payload, time)
        elif kind is _TIMER_EXPIRY:
            self._on_timer(time, *payload)
        elif kind is _APP_TICK:
            self._on_app_tick(time, payload)
        else:  # pragma: no cover - enum is closed
            raise ContractError(f"unknown event kind {kind}")

    def _on_delivery(self, time: float, seg: Segment) -> None:
        flow = self.flows[seg.flow_id]
        if seg.kind is _DATA:
            self.net.send(flow.receiver.on_data(seg, time), time)
        else:
            self._send_all(flow.sender.on_ack_segment(seg, time), time)
            self._sync_timer(flow)

    def _on_timer(self, time: float, flow_id: int, token: int) -> None:
        queued = self._queued_expiry.get(flow_id)
        if queued is None or queued[1] != token:
            return  # replaced by an expiry at an earlier deadline
        del self._queued_expiry[flow_id]
        flow = self.flows[flow_id]
        deadline = flow.sender.rto_deadline
        if deadline is None:
            return  # cancelled since it was queued
        if deadline > time:
            self._queue_expiry(flow_id, deadline)  # restarted since it was queued
            return
        self._send_all(flow.sender.on_rto(time), time)
        self._sync_timer(flow)

    def _on_app_tick(self, time: float, flow_id: int) -> None:
        flow = self.flows[flow_id]
        self._send_all(flow.sender.start(time), time)
        self._sync_timer(flow)

    def _send_all(self, segments: list[Segment], time: float) -> None:
        for seg in segments:
            self.net.send(seg, time)

    def _sync_timer(self, flow: _Flow) -> None:
        """Queue an expiry unless one is queued at or before the deadline.

        A deadline that moved later is caught up with when the queued
        expiry fires, so a re-arm on every ACK pushes nothing.
        """
        deadline = flow.sender.rto_deadline
        if deadline is not None:
            queued = self._queued_expiry.get(flow.flow_id)
            if queued is None or deadline < queued[0]:
                self._queue_expiry(flow.flow_id, deadline)

    def _queue_expiry(self, flow_id: int, deadline: float) -> None:
        token = next(self._expiry_tokens)
        self.events.push(deadline, _TIMER_EXPIRY, (flow_id, token))
        self._queued_expiry[flow_id] = (deadline, token)
