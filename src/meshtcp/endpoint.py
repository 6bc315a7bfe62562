"""TCP sender and receiver endpoints.

The sender owns sequence bookkeeping, the RTO estimator and timer state,
and translates network events (ACK arrivals, timer expiries) into the pure
congestion-control operations plus concrete segments to transmit; it
records its own window and phase changes in the run trace. It may carry
several flavors while they act alike. The receiver generates one
cumulative ACK per arriving data segment and keeps an out-of-order buffer.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from . import cc as cc_ops
from .cc import CcVars, Flavor, init_sender
from .engine import RunTrace, TraceKind
from .errors import ContractError

DEFAULT_MSS_BYTES = 1460
DEFAULT_ACK_BYTES = 40
DEFAULT_RTO_MIN_S = 0.2
DEFAULT_RTO_MAX_S = 60.0
INITIAL_RTO_S = 1.0
# Above every normal cwnd operating range here, so cwnd is the binding
# constraint in regular operation; bounds only the otherwise unbounded
# window inflation during a stuck recovery, as a real receive buffer does.
RECEIVER_WINDOW = 64  # segments
MAX_SACK_BLOCKS = 3


class SegmentKind(Enum):
    DATA = "data"
    ACK = "ack"


# bound once for the per-event path; see the note in mesh.py
_DATA, _ACK = SegmentKind.DATA, SegmentKind.ACK
_CWND_SAMPLE, _PHASE_CHANGE = TraceKind.CWND_SAMPLE, TraceKind.PHASE_CHANGE


class Segment(NamedTuple):
    """A simulated packet. For DATA, ``seq`` is the sequence number; for
    ACK it is the cumulative acknowledgment (next expected segment)."""

    kind: SegmentKind
    seq: int
    size_bytes: int
    sack: tuple[tuple[int, int], ...] = ()
    retx: bool = False

    def __deepcopy__(self, memo) -> Segment:
        return self  # immutable, so a copied world shares it


class RttEstimator:
    """Smoothed RTT / variance estimator with exponential timeout backoff."""

    __slots__ = ("rto_min", "srtt", "rttvar", "rto")

    def __init__(self, rto_min: float = DEFAULT_RTO_MIN_S) -> None:
        self.rto_min = rto_min
        self.srtt = 0.0  # until the first sample, which is positive
        self.rttvar = 0.0
        self.rto = min(max(INITIAL_RTO_S, rto_min), DEFAULT_RTO_MAX_S)

    def update(self, sample: float) -> None:
        """Take a positive sample; the sender checks that it is."""
        if not self.srtt:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = min(max(self.srtt + 4 * self.rttvar, self.rto_min), DEFAULT_RTO_MAX_S)

    def back_off(self) -> None:
        self.rto = min(self.rto * 2, DEFAULT_RTO_MAX_S)


class Diverged(Exception):
    """A sender's flavors react differently to one event. The one argument
    lists the indices into ``flavors`` of each set that agrees, 0's first."""


class SenderEndpoint:
    """One TCP sender. Methods mutate the endpoint and return the segments
    to put on the wire, in transmission order. Given several flavors, the
    first one's state is ``cc`` and the others' are ``shadows``."""

    __slots__ = (
        "cc", "shadows", "high_sent", "rtt_est", "send_timestamps", "app_limit",
        "trace", "rto_deadline",
    )

    def __init__(
        self,
        flavor: Flavor | tuple[Flavor, ...],
        *,
        trace: RunTrace,
        app_limit: int | None = None,
        rto_min: float = DEFAULT_RTO_MIN_S,
    ) -> None:
        flavors = (flavor,) if isinstance(flavor, Flavor) else flavor
        self.cc: CcVars = init_sender(flavors[0], DEFAULT_MSS_BYTES)
        self.shadows = tuple(init_sender(f, DEFAULT_MSS_BYTES) for f in flavors[1:])
        self.high_sent = 0
        self.rtt_est = RttEstimator(rto_min=rto_min)
        # send time of each unacked seq; None once it was retransmitted
        self.send_timestamps: dict[int, float | None] = {}
        self.app_limit = app_limit
        self.trace = trace
        # Timer state: inf when stopped. The simulation keeps one expiry
        # queued for the sender and catches up with a deadline that moved later
        # when that expiry fires (one retransmission timer, RFC 6298 §5).
        self.rto_deadline = math.inf

    @property
    def outstanding(self) -> int:
        return self.high_sent - self.cc.last_ack

    @property
    def flavors(self) -> tuple[Flavor, ...]:
        return tuple(cc.flavor for cc in (self.cc, *self.shadows))

    def keep(self, group: list[int]) -> None:
        """Carry only the flavors at these indices of ``flavors``."""
        states = (self.cc, *self.shadows)
        self.cc, *shadows = (states[i] for i in group)
        self.shadows = tuple(shadows)

    def _cc_step(self, op, *args) -> tuple[CcVars, list[int]]:
        """``op(cc, *args)``, the shadows taking the same step. If one differs
        in what the sender uses (phase, cwnd, ssthresh, last_ack, the seqs
        to retransmit), raise ``Diverged``, grouped from the same results,
        and change nothing."""
        cc, retransmit = op(self.cc, *args)
        if self.shadows:
            results = [op(shadow, *args) for shadow in self.shadows]
            seen = cc[1:5]  # phase, cwnd, ssthresh, last_ack
            for state, retx in results:
                if retx != retransmit or state[1:5] != seen:
                    groups: dict[tuple, list[int]] = {}
                    for i, (after, retx) in enumerate([(cc, retransmit), *results]):
                        groups.setdefault((after[1:5], tuple(retx)), []).append(i)
                    raise Diverged(list(groups.values()))
            self.shadows = tuple([state for state, _ in results])
        return cc, retransmit

    def _set_cc(self, cc: CcVars, now: float) -> None:
        """Adopt a new congestion state; record the window (ssthresh in the
        seq column) if it changed, then the phase if that changed."""
        old, self.cc = self.cc, cc
        if cc.cwnd != old.cwnd or cc.ssthresh != old.ssthresh:
            self.trace.add(now, _CWND_SAMPLE, 0, cc.ssthresh, cc.cwnd)
        if cc.phase is not old.phase:
            self.trace.add(now, _PHASE_CHANGE, 0, 0, cc.phase._value_)

    def start(self, now: float) -> list[Segment]:
        """Record the initial window and send the first segments."""
        self.trace.add(now, _CWND_SAMPLE, 0, self.cc.ssthresh, self.cc.cwnd)
        return self.fill_window(now)

    def fill_window(self, now: float) -> list[Segment]:
        """Emit new data segments until the window or the app limit binds."""
        high = self.high_sent
        cc = self.cc
        stop = cc.last_ack + min(cc.cwnd, RECEIVER_WINDOW)
        limit = self.app_limit
        if limit is not None and limit < stop:
            stop = limit
        if high >= stop:
            return []
        timestamps = self.send_timestamps
        new = tuple.__new__  # skips the namedtuple's Python-level __new__
        out: list[Segment] = []
        for seq in range(high, stop):
            timestamps[seq] = now
            out.append(new(Segment, (_DATA, seq, DEFAULT_MSS_BYTES, (), False)))
        self.high_sent = stop
        if self.rto_deadline == math.inf:
            self.rto_deadline = now + self.rtt_est.rto
        return out

    def _retransmit(self, seqs: list[int], now: float) -> list[Segment]:
        """Resend ``seqs``, which is not empty."""
        self.send_timestamps.update(dict.fromkeys(seqs))  # Karn's rule
        # classic single-timer behavior: sending a retransmission
        # restarts the clock covering the oldest outstanding segment
        self.rto_deadline = now + self.rtt_est.rto
        return [tuple.__new__(Segment, (_DATA, seq, DEFAULT_MSS_BYTES, (), True)) for seq in seqs]

    def on_ack_segment(self, ack: Segment, now: float) -> list[Segment]:
        """Classify an arriving ACK, run the congestion machine, and return
        the segments to transmit (retransmissions first, then new data).
        ACKs take one FIFO path, so they arrive in the order they were made;
        a non-ACK, an ACK below ``last_ack`` or a non-positive RTT sample
        raises ``ContractError``."""
        kind, seq, _, sack, _ = ack
        old_ack = self.cc.last_ack
        if kind is not _ACK or seq < old_ack:
            raise ContractError(f"not an ACK >= {old_ack}: {kind.value} {seq}")

        # only sack reads the SACK blocks; every other flavor ignores them
        if seq == old_ack:
            cc, retransmit = self._cc_step(cc_ops.on_dupack, seq, self.high_sent, sack)
            self._set_cc(cc, now)
        else:
            # Karn's rule: a retransmitted segment's send time is None
            timestamps = self.send_timestamps
            sent_at = timestamps.get(seq - 1)
            sample = None if sent_at is None else now - sent_at
            if sample is not None and sample <= 0:  # before cc or the estimator
                raise ContractError(f"RTT sample must be positive, got {sample}")
            cc, retransmit = self._cc_step(cc_ops.on_new_ack, seq, sample, sack)
            rtt_est = self.rtt_est
            if sample is not None:
                rtt_est.update(sample)
            self._set_cc(cc, now)
            for covered in range(old_ack, seq):  # every key is >= old_ack
                timestamps.pop(covered, None)
            self.rto_deadline = now + rtt_est.rto if self.high_sent > seq else math.inf

        if retransmit:
            out = self._retransmit(retransmit, now)
            out.extend(self.fill_window(now))
            return out
        return self.fill_window(now)

    def on_rto(self, now: float) -> list[Segment]:
        """RTO fired: back off, collapse the window, retransmit last_ack,
        which restarts the timer. The timer runs only while something is
        outstanding, so an expiry with nothing outstanding raises
        ``ContractError``."""
        if self.outstanding == 0:
            raise ContractError(f"RTO fired with nothing outstanding at t={now}")
        cc, retransmit = self._cc_step(cc_ops.on_timeout, self.high_sent)
        self.rtt_est.back_off()
        self.trace.add(now, TraceKind.RTO, 0, self.cc.last_ack, self.rtt_est.rto)
        self._set_cc(cc, now)
        return self._retransmit(retransmit, now)


class ReceiverEndpoint:
    """One TCP receiver: cumulative ACK per arriving data segment, with
    SACK blocks while it holds out-of-order data (RFC 2018)."""

    __slots__ = ("rcv_next", "ooo_buffer")

    def __init__(self) -> None:
        self.rcv_next = 0
        self.ooo_buffer: set[int] = set()

    def _sack_blocks(self, trigger: int | None) -> tuple[tuple[int, int], ...]:
        """The SACK blocks of a non-empty out-of-order buffer."""
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

    def on_data(self, seg: Segment, now: float) -> Segment:
        """Consume one data segment and produce the ACK for it."""
        if seg.kind is not _DATA:
            raise ContractError("receiver got a non-data segment")
        seq, nxt, ooo = seg.seq, self.rcv_next, self.ooo_buffer
        trigger = None
        if seq == nxt:
            nxt += 1
            while nxt in ooo:
                ooo.remove(nxt)
                nxt += 1
            self.rcv_next = nxt
        elif seq > nxt:
            ooo.add(seq)
            trigger = seq
        sack = self._sack_blocks(trigger) if ooo else ()
        return tuple.__new__(Segment, (_ACK, nxt, DEFAULT_ACK_BYTES, sack, False))
