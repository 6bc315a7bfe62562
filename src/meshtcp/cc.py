"""Congestion-control state machines for five TCP flavors.

All flavors share slow start (SS), congestion avoidance (CA) and a fast
retransmit / fast recovery phase (FRR); they differ in how they leave FRR
and in what they do when a retransmission itself is lost:

* ``sac``     -- NewReno plus retransmission-loss detection. The count of
  segments outstanding at FRR entry is remembered in ``rlp``; once the
  duplicate ACKs seen since the most recent retransmission reach
  ``rlp - 1``, the retransmission is declared lost and sent again right
  away, the window is halved, and ``ssthresh`` keeps its value for the
  whole episode.
* ``newreno`` -- partial ACKs retransmit the next hole and stay in FRR.
* ``reno``    -- any advancing ACK ends recovery.
* ``sack``    -- NewReno exit rule plus a receiver-fed scoreboard that
  drives hole retransmissions, each hole at most once per episode.
* ``vegas``   -- Reno recovery plus RTT-based window adjustment in CA.

Every operation is pure: it takes a ``CcVars`` value and returns a new one
together with the sequence numbers the caller must retransmit. Window
arithmetic is done in whole segments so traces are integer-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable

from .errors import ConfigError, ContractError

INITIAL_SSTHRESH_BYTES = 65535
MSS_MIN_BYTES = 64
MSS_MAX_BYTES = 65535
DUPACK_THRESHOLD = 3
MIN_SSTHRESH = 2
VEGAS_ALPHA = 1.0
VEGAS_BETA = 3.0


class Flavor(Enum):
    """Closed set of supported congestion-control flavors."""

    SAC = "sac"
    NEWRENO = "newreno"
    RENO = "reno"
    SACK = "sack"
    VEGAS = "vegas"


class CcPhase(Enum):
    SS = "SS"
    CA = "CA"
    FRR = "FRR"


@dataclass(frozen=True)
class CcVars:
    """Value-semantics congestion state for one sender.

    ``cwnd``/``ssthresh``/sequence fields are all counted in segments.
    ``high_seq`` and ``rlp`` are only set while ``phase`` is FRR;
    ``add_dupacks`` counts duplicate ACKs since the most recent
    retransmission within the current FRR episode (sac only).
    """

    flavor: Flavor
    phase: CcPhase = CcPhase.SS
    cwnd: int = 1
    ssthresh: int = MIN_SSTHRESH
    last_ack: int = 0
    high_seq: int | None = None
    rlp: int | None = None
    dupacks: int = 0
    add_dupacks: int = 0
    ca_accumulator: int = 0
    vegas_base_rtt: float | None = None
    vegas_last_rtt: float | None = None
    sack_scoreboard: frozenset[int] = frozenset()
    sack_retx: frozenset[int] = frozenset()


def init_sender(flavor: Flavor, mss_bytes: int) -> CcVars:
    """Fresh sender state: one-segment window, byte-derived ssthresh."""
    if not MSS_MIN_BYTES <= mss_bytes <= MSS_MAX_BYTES:
        raise ConfigError(
            f"mss_bytes must be in [{MSS_MIN_BYTES}, {MSS_MAX_BYTES}], got {mss_bytes}"
        )
    ssthresh = max(INITIAL_SSTHRESH_BYTES // mss_bytes, MIN_SSTHRESH)
    return CcVars(flavor=flavor, phase=CcPhase.SS, cwnd=1, ssthresh=ssthresh)


def _merged_scoreboard(
    scoreboard: frozenset[int],
    blocks: Iterable[tuple[int, int]],
    last_ack: int,
) -> frozenset[int]:
    merged = {s for s in scoreboard if s >= last_ack}
    for start, end in blocks:
        merged.update(range(max(start, last_ack), end))
    return frozenset(merged)


def _lowest_hole(
    last_ack: int,
    high_seq: int | None,
    scoreboard: frozenset[int],
    done: frozenset[int],
) -> int | None:
    """Lowest missing segment below both the recovery point and the highest
    scoreboard entry (loss evidence), skipping ones already retransmitted."""
    above = [s for s in scoreboard if s > last_ack]
    if not above:
        return None
    stop = max(above)
    if high_seq is not None:
        stop = min(stop, high_seq)
    for seq in range(last_ack, stop):
        if seq not in scoreboard and seq not in done:
            return seq
    return None


def _vegas_adjust(cwnd: int, base_rtt: float | None, last_rtt: float | None) -> int:
    if base_rtt is None or last_rtt is None or last_rtt <= 0:
        return cwnd
    diff = cwnd * (last_rtt - base_rtt) / last_rtt
    if diff < VEGAS_ALPHA:
        return cwnd + 1
    if diff > VEGAS_BETA:
        return max(cwnd - 1, 1)
    return cwnd


def on_new_ack(
    cc: CcVars,
    ack_seq: int,
    rtt_sample: float | None = None,
    sack_blocks: tuple[tuple[int, int], ...] = (),
) -> tuple[CcVars, list[int]]:
    """Process an advancing cumulative ACK."""
    if ack_seq <= cc.last_ack:
        raise ContractError(
            f"on_new_ack requires an advancing ACK: {ack_seq} <= {cc.last_ack}"
        )
    newly_acked = ack_seq - cc.last_ack
    retransmit: list[int] = []

    phase = cc.phase
    cwnd = cc.cwnd
    high_seq = cc.high_seq
    rlp = cc.rlp
    add_dupacks = cc.add_dupacks
    acc = cc.ca_accumulator
    scoreboard = cc.sack_scoreboard
    sack_retx = cc.sack_retx
    base_rtt = cc.vegas_base_rtt
    last_rtt = cc.vegas_last_rtt

    if cc.flavor is Flavor.SACK:
        scoreboard = _merged_scoreboard(scoreboard, sack_blocks, ack_seq)
        sack_retx = frozenset(s for s in sack_retx if s >= ack_seq)

    if rtt_sample is not None:
        base_rtt = rtt_sample if base_rtt is None else min(base_rtt, rtt_sample)
        last_rtt = rtt_sample

    if phase is CcPhase.FRR:
        full_ack = high_seq is not None and ack_seq >= high_seq
        if full_ack or cc.flavor in (Flavor.RENO, Flavor.VEGAS):
            # The recovery point is covered, or the flavor is Reno-style
            # and any advancing ACK ends recovery.
            phase = CcPhase.CA
            cwnd = cc.ssthresh
            high_seq = None
            rlp = None
            add_dupacks = 0
            acc = 0
            sack_retx = frozenset()
        else:
            # Partial ACK: plug the next hole, deflate, stay in recovery.
            if cc.flavor is Flavor.SACK:
                hole = _lowest_hole(ack_seq, high_seq, scoreboard, sack_retx)
                if hole is not None:
                    retransmit.append(hole)
                    sack_retx = sack_retx | {hole}
            else:
                retransmit.append(ack_seq)
            cwnd = max(cwnd - newly_acked + 1, 1)
            if cc.flavor is Flavor.SAC:
                add_dupacks = 0
    elif phase is CcPhase.SS:
        cwnd += 1
        if cwnd > cc.ssthresh:
            phase = CcPhase.CA
            acc = 0
    else:  # CA
        acc += 1
        if acc >= cwnd:
            acc = 0
            if cc.flavor is Flavor.VEGAS:
                cwnd = _vegas_adjust(cwnd, base_rtt, last_rtt)
            else:
                cwnd += 1

    new = replace(
        cc,
        phase=phase,
        cwnd=cwnd,
        last_ack=ack_seq,
        high_seq=high_seq,
        rlp=rlp,
        dupacks=0,
        add_dupacks=add_dupacks,
        ca_accumulator=acc,
        vegas_base_rtt=base_rtt,
        vegas_last_rtt=last_rtt,
        sack_scoreboard=scoreboard,
        sack_retx=sack_retx,
    )
    return new, retransmit


def on_dupack(
    cc: CcVars,
    ack_seq: int,
    high_sent: int,
    sack_blocks: tuple[tuple[int, int], ...] = (),
) -> tuple[CcVars, list[int]]:
    """Process a duplicate ACK (same cumulative value as the last one)."""
    if ack_seq != cc.last_ack:
        raise ContractError(
            f"on_dupack requires ack == last_ack: {ack_seq} != {cc.last_ack}"
        )
    if high_sent < ack_seq:
        raise ContractError(f"high_sent {high_sent} below ack {ack_seq}")

    retransmit: list[int] = []
    dupacks = cc.dupacks + 1
    phase = cc.phase
    cwnd = cc.cwnd
    ssthresh = cc.ssthresh
    high_seq = cc.high_seq
    rlp = cc.rlp
    add_dupacks = cc.add_dupacks
    acc = cc.ca_accumulator
    scoreboard = cc.sack_scoreboard
    sack_retx = cc.sack_retx

    if cc.flavor is Flavor.SACK:
        scoreboard = _merged_scoreboard(scoreboard, sack_blocks, ack_seq)

    if phase is not CcPhase.FRR:
        # A dupack can only trigger recovery when something is in flight.
        if dupacks == DUPACK_THRESHOLD and high_sent > ack_seq:
            flight = high_sent - ack_seq
            high_seq = high_sent
            ssthresh = max(flight // 2, MIN_SSTHRESH)
            cwnd = ssthresh + DUPACK_THRESHOLD
            acc = 0
            if cc.flavor is Flavor.SAC:
                rlp = flight
                add_dupacks = 0
            if cc.flavor is Flavor.SACK:
                sack_retx = frozenset({ack_seq})
            phase = CcPhase.FRR
            retransmit.append(ack_seq)
    else:
        cwnd += 1  # window inflation: one segment has left the network
        if cc.flavor is Flavor.SAC:
            add_dupacks += 1
            if rlp is not None and add_dupacks >= rlp - 1:
                # Enough dupacks arrived to prove the retransmission was
                # lost too; resend it now instead of waiting for the RTO.
                retransmit.append(ack_seq)
                cwnd = max(cwnd // 2, 1)
                add_dupacks = 0
        elif cc.flavor is Flavor.SACK:
            hole = _lowest_hole(ack_seq, high_seq, scoreboard, sack_retx)
            if hole is not None:
                retransmit.append(hole)
                sack_retx = sack_retx | {hole}

    new = replace(
        cc,
        phase=phase,
        cwnd=cwnd,
        ssthresh=ssthresh,
        high_seq=high_seq,
        rlp=rlp,
        dupacks=dupacks,
        add_dupacks=add_dupacks,
        ca_accumulator=acc,
        sack_scoreboard=scoreboard,
        sack_retx=sack_retx,
    )
    return new, retransmit


def on_timeout(cc: CcVars, high_sent: int) -> tuple[CcVars, list[int]]:
    """Retransmission timeout: collapse to one segment and restart slow start."""
    flight = high_sent - cc.last_ack
    ssthresh = max(flight // 2, MIN_SSTHRESH)
    new = replace(
        cc,
        phase=CcPhase.SS,
        cwnd=1,
        ssthresh=ssthresh,
        high_seq=None,
        rlp=None,
        dupacks=0,
        add_dupacks=0,
        ca_accumulator=0,
        sack_retx=frozenset(),
    )
    return new, [cc.last_ack]


def effective_window(cc: CcVars, receiver_window: int) -> int:
    """How many segments may be outstanding beyond last_ack."""
    if receiver_window < 0:
        raise ContractError(f"receiver_window must be >= 0, got {receiver_window}")
    return min(cc.cwnd, receiver_window)
