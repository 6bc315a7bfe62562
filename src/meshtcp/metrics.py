"""Performance metrics computed from a run trace in one pass.

``throughput`` counts every data transmission (originals plus
retransmissions) over the span between the first and last of them;
``goodput`` counts distinct delivered segments over the same span. Both
are reported because the transmission-based definition credits wasted
retransmissions. Delay runs from a segment's SEND to its first delivery,
so retransmission penalty shows up in it. Goodput and delay cover the
cohort, the seqs whose SEND is in the trace, so a trace that starts
mid-flow leaves out seqs sent before it; the rest take every record.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .endpoint import SegmentKind
from .engine import TraceKind, TraceRecord

_DATA = SegmentKind.DATA.value
_SEND = TraceKind.SEND
_RETX = TraceKind.RETX
_DELIVER = TraceKind.DELIVER
_RTO = TraceKind.RTO


class MetricsSummary(NamedTuple):
    throughput: float | None
    goodput: float | None
    plr: float | None
    mean_delay: float | None
    rto_count: int
    retransmit_count: int
    delivered_count: int


def summarize(trace: Iterable[TraceRecord]) -> MetricsSummary:
    """All metrics of the records; metrics without a defined value are None.
    A steady-state window is the summary of a suffix of a kept trace."""
    tx_count = retx_count = delivered = rtos = 0
    first_tx = last_tx = 0.0
    first_sent: dict[int, float] = {}
    first_delivered: dict[int, float] = {}
    for time, kind, _, seq, value in trace:
        if kind is _RTO:
            rtos += 1
        elif value != _DATA:
            continue
        elif kind is _SEND or kind is _RETX:
            if not tx_count:
                first_tx = time
            last_tx = time
            tx_count += 1
            if kind is _RETX:
                retx_count += 1
            elif seq not in first_sent:
                first_sent[seq] = time
        elif kind is _DELIVER:
            delivered += 1
            if seq not in first_delivered:
                first_delivered[seq] = time

    span = last_tx - first_tx if tx_count >= 2 else 0.0
    # a plain running total in first-delivery order: sum() of floats is
    # compensated since Python 3.12, which would change the last bits
    delay_total = 0.0
    n_delays = 0
    for seq, t in first_delivered.items():
        if seq in first_sent:
            delay_total += t - first_sent[seq]
            n_delays += 1
    return MetricsSummary(
        throughput=tx_count / span if span > 0 else None,
        goodput=n_delays / span if span > 0 else None,
        plr=retx_count / delivered if delivered else None,
        mean_delay=delay_total / n_delays if n_delays else None,
        rto_count=rtos,
        retransmit_count=retx_count,
        delivered_count=delivered,
    )
