"""Performance metrics computed from a run trace in one pass.

``throughput`` counts every data transmission (originals plus
retransmissions) over the span between the first and last of them;
``goodput`` counts distinct delivered segments over the same span. Both
are reported because the transmission-based definition credits wasted
retransmissions. Delay is measured from a segment's first transmission to
its first delivery at the destination, so retransmission penalty shows up
in the delay figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .engine import TraceKind, TraceRecord
from .errors import MetricUndefinedError

_DATA = "data"
_SEND = TraceKind.SEND
_RETX = TraceKind.RETX
_DELIVER = TraceKind.DELIVER
_RTO = TraceKind.RTO


@dataclass(frozen=True)
class MetricsSummary:
    throughput: float | None
    goodput: float | None
    plr: float | None
    mean_delay: float | None
    rto_count: int
    retransmit_count: int
    delivered_count: int


def summarize(
    trace: Iterable[TraceRecord],
    flow_id: int = 0,
    *,
    warmup: float = 0.0,
) -> MetricsSummary:
    """All metrics for one flow over records at or after ``warmup``;
    metrics without a defined value are None."""
    tx_count = retx_count = delivered = rtos = 0
    first_tx = last_tx = 0.0
    first_sent: dict[int, float] = {}
    first_delivered: dict[int, float] = {}
    for time, kind, flow, seq, value in trace:
        if flow != flow_id or time < warmup:
            continue
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
            if seq not in first_sent:
                first_sent[seq] = time
        elif kind is _DELIVER:
            delivered += 1
            if seq not in first_delivered:
                first_delivered[seq] = time

    span = last_tx - first_tx if tx_count >= 2 else 0.0
    delays = [t - first_sent[s] for s, t in first_delivered.items() if s in first_sent]
    return MetricsSummary(
        throughput=tx_count / span if span > 0 else None,
        goodput=len(first_delivered) / span if span > 0 else None,
        plr=retx_count / delivered if delivered else None,
        mean_delay=sum(delays) / len(delays) if delays else None,
        rto_count=rtos,
        retransmit_count=retx_count,
        delivered_count=delivered,
    )


def _defined(trace: Iterable[TraceRecord], flow_id: int, name: str) -> float:
    value = getattr(summarize(trace, flow_id), name)
    if value is None:
        raise MetricUndefinedError(f"{name} is undefined for flow {flow_id}")
    return value


def throughput(trace: Iterable[TraceRecord], flow_id: int = 0) -> float:
    """Data transmissions per second over the first-to-last send span."""
    return _defined(trace, flow_id, "throughput")


def goodput(trace: Iterable[TraceRecord], flow_id: int = 0) -> float:
    """Distinct delivered segments per second over the same span."""
    return _defined(trace, flow_id, "goodput")


def packet_loss_rate(trace: Iterable[TraceRecord], flow_id: int = 0) -> float:
    """Retransmitted data packets divided by received data packets."""
    return _defined(trace, flow_id, "plr")


def mean_delay(trace: Iterable[TraceRecord], flow_id: int = 0) -> float:
    """Mean first-transmission to first-delivery latency per segment."""
    return _defined(trace, flow_id, "mean_delay")
