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

from enum import Enum
from typing import Iterable, NamedTuple

from .errors import ContractError

INITIAL_SSTHRESH_BYTES = 65535
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


class CcVars(NamedTuple):
    """Value-semantics congestion state for one sender.

    ``cwnd``/``ssthresh``/sequence fields are all counted in segments.
    ``high_seq`` is set exactly while ``phase`` is FRR, and ``rlp`` exactly
    while sac is in FRR. ``dupacks`` counts the duplicate ACKs since the
    last advancing ACK, the FRR entry or sac's resend, whichever is latest.
    """

    flavor: Flavor
    phase: CcPhase = CcPhase.SS
    cwnd: int = 1
    ssthresh: int = MIN_SSTHRESH
    last_ack: int = 0
    high_seq: int | None = None
    rlp: int | None = None
    dupacks: int = 0
    ca_accumulator: int = 0
    vegas_base_rtt: float | None = None
    vegas_last_rtt: float | None = None
    sack_scoreboard: frozenset[int] = frozenset()
    sack_retx: frozenset[int] = frozenset()


# bound once for the per-ACK path; see the note in mesh.py
_SS, _CA, _FRR = CcPhase.SS, CcPhase.CA, CcPhase.FRR
_SAC, _RENO, _SACK, _VEGAS = Flavor.SAC, Flavor.RENO, Flavor.SACK, Flavor.VEGAS


def init_sender(flavor: Flavor, mss_bytes: int) -> CcVars:
    """Fresh sender state: one-segment window, byte-derived ssthresh."""
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


def _resend_lowest_hole(
    last_ack: int,
    high_seq: int,
    scoreboard: frozenset[int],
    done: frozenset[int],
    retransmit: list[int],
) -> frozenset[int]:
    """Append to ``retransmit`` the lowest missing segment below both the
    recovery point and the highest scoreboard entry (loss evidence), skipping
    ones in ``done``; return ``done`` with it."""
    above = [s for s in scoreboard if s > last_ack]
    if above:
        for seq in range(last_ack, min(max(above), high_seq)):
            if seq not in scoreboard and seq not in done:
                retransmit.append(seq)
                return done | {seq}
    return done


def _vegas_adjust(cwnd: int, base_rtt: float | None, last_rtt: float | None) -> int:
    # both are set together, from a positive sample
    if last_rtt is None:
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
    # one unpacking is much cheaper than a field lookup per value
    (flavor, phase, cwnd, ssthresh, last_ack, high_seq, rlp, _, acc,
     base_rtt, last_rtt, scoreboard, sack_retx) = cc
    if ack_seq <= last_ack:
        raise ContractError(
            f"on_new_ack requires an advancing ACK: {ack_seq} <= {last_ack}"
        )
    newly_acked = ack_seq - last_ack
    retransmit: list[int] = []

    if flavor is _SACK:  # an empty scoreboard and retx set stay empty
        if scoreboard or sack_blocks:
            scoreboard = _merged_scoreboard(scoreboard, sack_blocks, ack_seq)
        if sack_retx:
            sack_retx = frozenset(s for s in sack_retx if s >= ack_seq)

    if rtt_sample is not None:
        base_rtt = rtt_sample if base_rtt is None else min(base_rtt, rtt_sample)
        last_rtt = rtt_sample

    if phase is _FRR:
        if ack_seq >= high_seq or flavor in (_RENO, _VEGAS):
            # The recovery point is covered, or the flavor is Reno-style
            # and any advancing ACK ends recovery.
            phase = _CA
            cwnd = ssthresh
            high_seq = rlp = None
            acc = 0
            sack_retx = frozenset()
        else:
            # Partial ACK: plug the next hole, deflate, stay in recovery.
            if flavor is _SACK:
                sack_retx = _resend_lowest_hole(
                    ack_seq, high_seq, scoreboard, sack_retx, retransmit
                )
            else:
                retransmit.append(ack_seq)
            cwnd = max(cwnd - newly_acked + 1, 1)
    elif phase is _SS:
        cwnd += 1
        if cwnd > ssthresh:
            phase = _CA
            acc = 0
    else:  # CA
        acc += 1
        if acc >= cwnd:
            acc = 0
            if flavor is _VEGAS:
                cwnd = _vegas_adjust(cwnd, base_rtt, last_rtt)
            else:
                cwnd += 1

    # positional: keywords cost about twice as much on every ACK
    return CcVars(
        flavor, phase, cwnd, ssthresh, ack_seq, high_seq, rlp, 0, acc,
        base_rtt, last_rtt, scoreboard, sack_retx,
    ), retransmit


def on_dupack(
    cc: CcVars,
    ack_seq: int,
    high_sent: int,
    sack_blocks: tuple[tuple[int, int], ...] = (),
) -> tuple[CcVars, list[int]]:
    """Process a duplicate ACK (same cumulative value as the last one)."""
    (flavor, phase, cwnd, ssthresh, last_ack, high_seq, rlp, dupacks, acc,
     base_rtt, last_rtt, scoreboard, sack_retx) = cc
    if ack_seq != last_ack:
        raise ContractError(
            f"on_dupack requires ack == last_ack: {ack_seq} != {last_ack}"
        )
    if high_sent < ack_seq:
        raise ContractError(f"high_sent {high_sent} below ack {ack_seq}")

    retransmit: list[int] = []
    dupacks += 1
    if flavor is _SACK and (scoreboard or sack_blocks):
        scoreboard = _merged_scoreboard(scoreboard, sack_blocks, ack_seq)

    if phase is not _FRR:
        # A dupack can only trigger recovery when something is in flight.
        if dupacks == DUPACK_THRESHOLD and high_sent > ack_seq:
            flight = high_sent - ack_seq
            high_seq = high_sent
            ssthresh = max(flight // 2, MIN_SSTHRESH)
            cwnd = ssthresh + DUPACK_THRESHOLD
            dupacks = acc = 0
            if flavor is _SAC:
                rlp = flight
            if flavor is _SACK:
                sack_retx = frozenset({ack_seq})
            phase = _FRR
            retransmit.append(ack_seq)
    else:
        cwnd += 1  # window inflation: one segment has left the network
        if flavor is _SAC and dupacks >= rlp - 1:
            # Enough dupacks arrived to prove the retransmission was
            # lost too; resend it now instead of waiting for the RTO.
            retransmit.append(ack_seq)
            cwnd = max(cwnd // 2, 1)
            dupacks = 0
        elif flavor is _SACK:
            sack_retx = _resend_lowest_hole(
                ack_seq, high_seq, scoreboard, sack_retx, retransmit
            )

    return CcVars(
        flavor, phase, cwnd, ssthresh, last_ack, high_seq, rlp, dupacks, acc,
        base_rtt, last_rtt, scoreboard, sack_retx,
    ), retransmit


def on_timeout(cc: CcVars, high_sent: int) -> tuple[CcVars, list[int]]:
    """Retransmission timeout: collapse to one segment and restart slow start."""
    flight = high_sent - cc.last_ack
    ssthresh = max(flight // 2, MIN_SSTHRESH)
    # the recovery fields go back to their defaults
    return CcVars(
        cc.flavor, CcPhase.SS, 1, ssthresh, last_ack=cc.last_ack,
        vegas_base_rtt=cc.vegas_base_rtt, vegas_last_rtt=cc.vegas_last_rtt,
        sack_scoreboard=cc.sack_scoreboard,
    ), [cc.last_ack]
