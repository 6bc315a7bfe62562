"""TCP sender and receiver endpoints.

The sender owns sequence bookkeeping, the RTO estimator and timer state,
and translates network events (ACK arrivals, timer expiries) into the pure
congestion-control operations plus concrete segments to transmit. The
receiver generates one cumulative ACK per arriving data segment and keeps
an out-of-order buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from . import cc as cc_ops
from .cc import CcVars, Flavor, effective_window, init_sender
from .engine import RunTrace, TraceKind
from .errors import ContractError

DEFAULT_RTO_MIN_S = 0.2
DEFAULT_RTO_MAX_S = 60.0
INITIAL_RTO_S = 1.0
# Above every normal cwnd operating range here, so cwnd is the binding
# constraint in regular operation; bounds only the otherwise unbounded
# window inflation during a stuck recovery, as a real receive buffer does.
DEFAULT_RECEIVER_WINDOW = 64  # segments
MAX_SACK_BLOCKS = 3


class SegmentKind(Enum):
    DATA = "data"
    ACK = "ack"


@dataclass(frozen=True)
class Segment:
    """A simulated packet. For DATA, ``seq`` is the sequence number; for
    ACK it is the cumulative acknowledgment (next expected segment)."""

    kind: SegmentKind
    flow_id: int
    seq: int
    size_bytes: int
    src: int
    dst: int
    sack: tuple[tuple[int, int], ...] = ()
    retx: bool = False


@dataclass
class RttEstimator:
    """Smoothed RTT / variance estimator with exponential timeout backoff."""

    rto_min: float = DEFAULT_RTO_MIN_S
    rto_max: float = DEFAULT_RTO_MAX_S
    srtt: float = 0.0
    rttvar: float = 0.0
    rto: float = INITIAL_RTO_S
    has_sample: bool = False

    def update(self, sample: float) -> None:
        if sample <= 0:
            raise ContractError(f"RTT sample must be positive, got {sample}")
        if not self.has_sample:
            self.srtt = sample
            self.rttvar = sample / 2
            self.has_sample = True
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = min(max(self.srtt + 4 * self.rttvar, self.rto_min), self.rto_max)

    def back_off(self) -> None:
        self.rto = min(self.rto * 2, self.rto_max)


class SenderEndpoint:
    """One TCP sender. Methods mutate the endpoint and return the segments
    to put on the wire, in transmission order."""

    def __init__(
        self,
        flow_id: int,
        flavor: Flavor,
        mss_bytes: int,
        *,
        src: int,
        dst: int,
        app_limit: int | None = None,
        receiver_window: int = DEFAULT_RECEIVER_WINDOW,
        rto_min: float = DEFAULT_RTO_MIN_S,
        rto_max: float = DEFAULT_RTO_MAX_S,
        trace: RunTrace | None = None,
    ) -> None:
        self.flow_id = flow_id
        self.mss_bytes = mss_bytes
        self.src = src
        self.dst = dst
        self.cc: CcVars = init_sender(flavor, mss_bytes)
        self.high_sent = 0
        self.rtt_est = RttEstimator(rto_min=rto_min, rto_max=rto_max)
        self.send_timestamps: dict[int, float] = {}
        self.retransmit_flags: set[int] = set()
        self.app_limit = app_limit
        self.receiver_window = receiver_window
        self.trace = trace
        # Timer state: the simulation schedules an expiry for rto_deadline
        # and discards fires whose epoch is stale.
        self.rto_deadline: float | None = None
        self.timer_epoch = 0

    @property
    def outstanding(self) -> int:
        return self.high_sent - self.cc.last_ack

    def _arm_timer(self, deadline: float) -> None:
        self.rto_deadline = deadline
        self.timer_epoch += 1

    def _cancel_timer(self) -> None:
        self.rto_deadline = None
        self.timer_epoch += 1

    def _record(self, time: float, kind: TraceKind, seq: int, value) -> None:
        if self.trace is not None:
            self.trace.add(time, kind, self.flow_id, seq, value)

    def _data_segment(self, seq: int, retx: bool) -> Segment:
        return Segment(
            kind=SegmentKind.DATA,
            flow_id=self.flow_id,
            seq=seq,
            size_bytes=self.mss_bytes,
            src=self.src,
            dst=self.dst,
            retx=retx,
        )

    def _rtt_sample(self, ack_seq: int, now: float) -> float | None:
        """Karn's rule: never sample a segment that was retransmitted."""
        seq = ack_seq - 1
        if seq in self.retransmit_flags:
            return None
        sent_at = self.send_timestamps.get(seq)
        if sent_at is None:
            return None
        return now - sent_at

    def _prune_below(self, ack_seq: int) -> None:
        self.send_timestamps = {s: t for s, t in self.send_timestamps.items() if s >= ack_seq}
        self.retransmit_flags = {s for s in self.retransmit_flags if s >= ack_seq}

    def fill_window(self, now: float) -> list[Segment]:
        """Emit new data segments until the window or the app limit binds."""
        window = effective_window(self.cc, self.receiver_window)
        out: list[Segment] = []
        while self.outstanding < window and (
            self.app_limit is None or self.high_sent < self.app_limit
        ):
            seq = self.high_sent
            self.send_timestamps[seq] = now
            self.high_sent += 1
            out.append(self._data_segment(seq, retx=False))
        if out and self.rto_deadline is None:
            self._arm_timer(now + self.rtt_est.rto)
        return out

    def _retransmit(self, seqs: list[int], now: float) -> list[Segment]:
        if seqs:
            self.retransmit_flags.update(seqs)
            # classic single-timer behavior: sending a retransmission
            # restarts the clock covering the oldest outstanding segment
            self._arm_timer(now + self.rtt_est.rto)
        return [self._data_segment(seq, retx=True) for seq in seqs]

    def on_ack_segment(self, ack: Segment, now: float) -> list[Segment]:
        """Classify an arriving ACK, run the congestion machine, and return
        the segments to transmit (retransmissions first, then new data)."""
        if ack.kind is not SegmentKind.ACK or ack.flow_id != self.flow_id:
            raise ContractError("segment is not an ACK for this flow")
        if ack.seq < self.cc.last_ack:
            self._record(now, TraceKind.STALE_ACK, ack.seq, "ack")
            return []

        blocks = ack.sack if self.cc.flavor is Flavor.SACK else ()
        if ack.seq == self.cc.last_ack:
            self.cc, retransmit = cc_ops.on_dupack(
                self.cc, ack.seq, self.high_sent, sack_blocks=blocks
            )
        else:
            sample = self._rtt_sample(ack.seq, now)
            if sample is not None and sample > 0:
                self.rtt_est.update(sample)
            self.cc, retransmit = cc_ops.on_new_ack(
                self.cc, ack.seq, sample, sack_blocks=blocks
            )
            self._prune_below(ack.seq)
            if self.outstanding > 0:
                self._arm_timer(now + self.rtt_est.rto)
            else:
                self._cancel_timer()

        out = self._retransmit(retransmit, now)
        out.extend(self.fill_window(now))
        return out

    def on_rto(self, now: float) -> list[Segment]:
        """RTO fired: back off, collapse the window, retransmit last_ack."""
        if self.outstanding == 0:
            self._record(now, TraceKind.SPURIOUS_RTO, 0, "-")
            self._cancel_timer()
            return []
        self.rtt_est.back_off()
        self._record(now, TraceKind.RTO, self.cc.last_ack, self.rtt_est.rto)
        self.cc, retransmit = cc_ops.on_timeout(self.cc, self.high_sent)
        out = self._retransmit(retransmit, now)
        self._arm_timer(now + self.rtt_est.rto)
        return out


@dataclass
class ReceiverEndpoint:
    """One TCP receiver: cumulative ACK per arriving data segment."""

    flow_id: int
    node: int
    peer: int
    ack_bytes: int = 40
    sack_enabled: bool = False
    rcv_next: int = 0
    ooo_buffer: set[int] = field(default_factory=set)

    def _sack_blocks(self, trigger: int | None) -> tuple[tuple[int, int], ...]:
        if not self.sack_enabled or not self.ooo_buffer:
            return ()
        runs: list[tuple[int, int]] = []
        seqs = sorted(self.ooo_buffer)
        start = prev = seqs[0]
        for s in seqs[1:]:
            if s == prev + 1:
                prev = s
                continue
            runs.append((start, prev + 1))
            start = prev = s
        runs.append((start, prev + 1))
        # the block holding the segment that triggered this ACK goes first
        runs.sort(key=lambda r: (0 if trigger is not None and r[0] <= trigger < r[1] else 1, -r[0]))
        return tuple(runs[:MAX_SACK_BLOCKS])

    def _ack(self, trigger: int | None) -> Segment:
        return Segment(
            kind=SegmentKind.ACK,
            flow_id=self.flow_id,
            seq=self.rcv_next,
            size_bytes=self.ack_bytes,
            src=self.node,
            dst=self.peer,
            sack=self._sack_blocks(trigger),
        )

    def on_data(self, seg: Segment, now: float) -> Segment:
        """Consume one data segment and produce the ACK for it."""
        if seg.kind is not SegmentKind.DATA:
            raise ContractError("receiver got a non-data segment")
        if seg.seq == self.rcv_next:
            self.rcv_next += 1
            while self.rcv_next in self.ooo_buffer:
                self.ooo_buffer.remove(self.rcv_next)
                self.rcv_next += 1
            return self._ack(None)
        if seg.seq > self.rcv_next:
            self.ooo_buffer.add(seg.seq)
        return self._ack(seg.seq if seg.seq > self.rcv_next else None)
