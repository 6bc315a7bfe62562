"""Performance metrics computed from a run trace.

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

from .engine import RunTrace, TraceKind, TraceRecord
from .errors import MetricUndefinedError

_DATA = "data"
_TX_KINDS = (TraceKind.SEND, TraceKind.RETX)


@dataclass(frozen=True)
class MetricsSummary:
    throughput: float | None
    goodput: float | None
    plr: float | None
    mean_delay: float | None
    rto_count: int
    retransmit_count: int
    delivered_count: int


def _records(trace: RunTrace | list[TraceRecord]) -> list[TraceRecord]:
    return trace.records if isinstance(trace, RunTrace) else trace


def _data_transmissions(records: list[TraceRecord], flow_id: int) -> list[TraceRecord]:
    return [
        r
        for r in records
        if r.flow_id == flow_id and r.value == _DATA and r.kind in _TX_KINDS
    ]


def _data_deliveries(records: list[TraceRecord], flow_id: int) -> list[TraceRecord]:
    return [
        r
        for r in records
        if r.flow_id == flow_id and r.value == _DATA and r.kind is TraceKind.DELIVER
    ]


def _send_span(records: list[TraceRecord], flow_id: int) -> float:
    txs = _data_transmissions(records, flow_id)
    if len(txs) < 2:
        raise MetricUndefinedError("need at least two data transmissions")
    span = txs[-1].time - txs[0].time
    if span <= 0:
        raise MetricUndefinedError("zero time span between first and last send")
    return span


def throughput(trace: RunTrace | list[TraceRecord], flow_id: int = 0) -> float:
    """Data transmissions per second over the first-to-last send span."""
    records = _records(trace)
    return len(_data_transmissions(records, flow_id)) / _send_span(records, flow_id)


def goodput(trace: RunTrace | list[TraceRecord], flow_id: int = 0) -> float:
    """Distinct delivered segments per second over the same span."""
    records = _records(trace)
    span = _send_span(records, flow_id)
    distinct = {r.seq for r in _data_deliveries(records, flow_id)}
    return len(distinct) / span


def packet_loss_rate(trace: RunTrace | list[TraceRecord], flow_id: int = 0) -> float:
    """Retransmitted data packets divided by received data packets."""
    records = _records(trace)
    delivered = len(_data_deliveries(records, flow_id))
    if delivered == 0:
        raise MetricUndefinedError("no data deliveries")
    retx = sum(
        1
        for r in records
        if r.flow_id == flow_id and r.kind is TraceKind.RETX and r.value == _DATA
    )
    return retx / delivered


def mean_delay(trace: RunTrace | list[TraceRecord], flow_id: int = 0) -> float:
    """Mean first-transmission to first-delivery latency per segment."""
    records = _records(trace)
    first_sent: dict[int, float] = {}
    first_delivered: dict[int, float] = {}
    for r in records:
        if r.flow_id != flow_id or r.value != _DATA:
            continue
        if r.kind in _TX_KINDS and r.seq not in first_sent:
            first_sent[r.seq] = r.time
        elif r.kind is TraceKind.DELIVER and r.seq not in first_delivered:
            first_delivered[r.seq] = r.time
    delays = [
        t - first_sent[seq]
        for seq, t in first_delivered.items()
        if seq in first_sent
    ]
    if not delays:
        raise MetricUndefinedError("no data deliveries")
    return sum(delays) / len(delays)


def summarize(
    trace: RunTrace | list[TraceRecord],
    flow_id: int = 0,
    *,
    warmup: float = 0.0,
) -> MetricsSummary:
    """All metrics for one flow; metrics without a defined value are None."""
    records = _records(trace)
    if warmup > 0:
        records = [r for r in records if r.time >= warmup]

    def _maybe(fn):
        try:
            return fn(records, flow_id)
        except MetricUndefinedError:
            return None

    rto_count = sum(
        1 for r in records if r.flow_id == flow_id and r.kind is TraceKind.RTO
    )
    retransmit_count = sum(
        1
        for r in records
        if r.flow_id == flow_id and r.kind is TraceKind.RETX and r.value == _DATA
    )
    delivered_count = len(_data_deliveries(records, flow_id))
    return MetricsSummary(
        throughput=_maybe(throughput),
        goodput=_maybe(goodput),
        plr=_maybe(packet_loss_rate),
        mean_delay=_maybe(mean_delay),
        rto_count=rto_count,
        retransmit_count=retransmit_count,
        delivered_count=delivered_count,
    )
