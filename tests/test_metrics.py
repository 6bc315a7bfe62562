import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshtcp.cc import Flavor
from meshtcp.engine import RunTrace, TraceKind, run_until
from meshtcp.errors import MetricUndefinedError
from meshtcp.mesh import LinkModel, build_chain
from meshtcp.metrics import (
    goodput,
    mean_delay,
    packet_loss_rate,
    summarize,
    throughput,
)
from meshtcp.world import FlowConfig, MeshWorld


def trace_of(records):
    t = RunTrace()
    for time, kind, seq, value in records:
        t.add(time, kind, 0, seq, value)
    return t


def test_throughput_formula_hundred_sends():
    # 100 data transmissions, first at 1.0, last at 11.0 -> 10.0 pkts/s
    records = [
        (1.0 + k * 0.1, TraceKind.SEND, k, "data") for k in range(100)
    ]
    records[-1] = (11.0, TraceKind.SEND, 99, "data")
    assert throughput(trace_of(records)) == 10.0


def test_throughput_counts_retransmissions():
    records = [(1.0 + k * 0.1, TraceKind.SEND, k, "data") for k in range(95)]
    records += [(10.5 + k * 0.1, TraceKind.RETX, k, "data") for k in range(4)]
    records += [(11.0, TraceKind.RETX, 4, "data")]
    records.sort(key=lambda r: r[0])
    tr = trace_of(records)
    assert throughput(tr) == 10.0
    # goodput over the same span counts distinct deliveries only
    records += [(11.0, TraceKind.DELIVER, k, "data") for k in range(95)]
    records.sort(key=lambda r: r[0])
    tr2 = trace_of(records)
    assert goodput(tr2) == 9.5
    assert goodput(tr2) <= throughput(tr2)


def test_throughput_undefined_cases():
    with pytest.raises(MetricUndefinedError):
        throughput(trace_of([(1.0, TraceKind.SEND, 0, "data")]))
    with pytest.raises(MetricUndefinedError):
        throughput(
            trace_of(
                [(1.0, TraceKind.SEND, 0, "data"), (1.0, TraceKind.SEND, 1, "data")]
            )
        )


def test_plr_formula():
    records = [(1.0 + k * 0.01, TraceKind.DELIVER, k, "data") for k in range(100)]
    records += [(2.0 + k * 0.01, TraceKind.RETX, k, "data") for k in range(5)]
    records.sort(key=lambda r: r[0])
    assert packet_loss_rate(trace_of(records)) == 0.05


def test_plr_lossless_and_undefined():
    records = [(1.0 + k * 0.01, TraceKind.DELIVER, k, "data") for k in range(100)]
    assert packet_loss_rate(trace_of(records)) == 0.0
    with pytest.raises(MetricUndefinedError):
        packet_loss_rate(trace_of([(1.0, TraceKind.SEND, 0, "data")]))


def test_mean_delay_single_sample():
    tr = trace_of(
        [(1.0, TraceKind.SEND, 0, "data"), (1.007, TraceKind.DELIVER, 0, "data")]
    )
    assert mean_delay(tr) == pytest.approx(0.007)


def test_mean_delay_two_samples():
    tr = trace_of(
        [
            (1.0, TraceKind.SEND, 0, "data"),
            (1.010, TraceKind.DELIVER, 0, "data"),
            (2.0, TraceKind.SEND, 1, "data"),
            (2.020, TraceKind.DELIVER, 1, "data"),
        ]
    )
    assert mean_delay(tr) == pytest.approx(0.015)


def test_mean_delay_uses_first_transmission():
    tr = trace_of(
        [
            (1.0, TraceKind.SEND, 7, "data"),
            (2.0, TraceKind.RETX, 7, "data"),
            (2.007, TraceKind.DELIVER, 7, "data"),
        ]
    )
    assert mean_delay(tr) == pytest.approx(1.007)


def test_summarize_lossless_run():
    topo = build_chain(2, LinkModel())
    world = MeshWorld(topo, [FlowConfig(Flavor.NEWRENO, hops=1, app_limit=50)], seed=1)
    trace = run_until(world, 10.0)
    s = summarize(trace)
    assert s.plr == 0.0
    assert s.rto_count == 0
    assert s.retransmit_count == 0
    assert s.delivered_count == 50
    first = next(r for r in trace if r.kind is TraceKind.CWND_SAMPLE)
    assert (first.time, first.value) == (0.0, 1)
    assert s.goodput <= s.throughput


def test_summarize_empty_trace_marks_unavailable():
    s = summarize(RunTrace())
    assert s.throughput is None
    assert s.goodput is None
    assert s.plr is None
    assert s.mean_delay is None
    assert s.delivered_count == 0


def test_plr_matches_independent_recount():
    topo = build_chain(3, LinkModel(loss_rate=1.0))
    world = MeshWorld(topo, [FlowConfig(Flavor.RENO, hops=2)], seed=5)
    trace = run_until(world, 20.0)
    s = summarize(trace)
    retx = deliver = 0
    for r in trace:
        if r.value != "data" or r.flow_id != 0:
            continue
        if r.kind is TraceKind.RETX:
            retx += 1
        elif r.kind is TraceKind.DELIVER:
            deliver += 1
    assert s.plr == retx / deliver
    assert s.retransmit_count == retx
    assert s.delivered_count == deliver


def test_warmup_slices_records():
    records = [(float(k), TraceKind.SEND, k, "data") for k in range(10)]
    records += [(float(k) + 0.5, TraceKind.DELIVER, k, "data") for k in range(10)]
    records.sort(key=lambda r: r[0])
    s = summarize(trace_of(records), warmup=5.0)
    assert s.delivered_count == 5  # deliveries at 5.5 .. 9.5


_TIME = st.integers(0, 12).map(lambda k: k * 0.5)  # coarse grid: many equal times
_SEQ = st.integers(0, 3)  # few seqs: duplicate sends and deliveries
_ANY_RECORD = st.tuples(
    _TIME,
    st.sampled_from(list(TraceKind)),
    st.sampled_from([0, 1]),
    _SEQ,
    st.sampled_from(["data", "ack", 0.4]),
)
_DATA_RECORD = st.tuples(
    _TIME,
    st.sampled_from([TraceKind.SEND, TraceKind.RETX, TraceKind.DELIVER]),
    st.just(0),
    _SEQ,
    st.just("data"),
)
# about half the records are flow-0 data segments, so the same seq is often
# sent, resent and delivered more than once inside the window
_RECORD = st.one_of(_DATA_RECORD, _ANY_RECORD)


def _recount(records, flow_id, warmup):
    """Every MetricsSummary field, recounted with plain list filters."""
    window = [r for r in records if r.flow_id == flow_id and r.time >= warmup]
    data = [r for r in window if r.value == "data"]
    txs = [r for r in data if r.kind in (TraceKind.SEND, TraceKind.RETX)]
    delivers = [r for r in data if r.kind is TraceKind.DELIVER]
    retx = sum(1 for r in data if r.kind is TraceKind.RETX)
    span = txs[-1].time - txs[0].time if len(txs) >= 2 else 0.0
    first_sent, first_delivered = {}, {}
    for r in txs:
        first_sent.setdefault(r.seq, r.time)
    for r in delivers:
        first_delivered.setdefault(r.seq, r.time)
    delays = [t - first_sent[s] for s, t in first_delivered.items() if s in first_sent]
    return {
        "throughput": len(txs) / span if span > 0 else None,
        "goodput": len({r.seq for r in delivers}) / span if span > 0 else None,
        "plr": retx / len(delivers) if delivers else None,
        "mean_delay": sum(delays) / len(delays) if delays else None,
        "rto_count": sum(1 for r in window if r.kind is TraceKind.RTO),
        "retransmit_count": retx,
        "delivered_count": len(delivers),
    }


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(_RECORD, min_size=2, max_size=40),
    st.sampled_from([0, 1]),
    st.one_of(_TIME, st.just(1.25)),
)
def test_summarize_matches_recount(raw, flow_id, warmup):
    trace = RunTrace()
    for time, kind, flow, seq, value in sorted(raw, key=lambda r: r[0]):
        trace.add(time, kind, flow, seq, value)
    got = summarize(trace, flow_id, warmup=warmup)
    want = _recount(trace.records, flow_id, warmup)
    for name, value in want.items():
        if name == "mean_delay" and value is not None:
            assert got.mean_delay == pytest.approx(value, rel=1e-12, abs=0.0)
        else:
            assert getattr(got, name) == value, name
