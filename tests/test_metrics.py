import pytest

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
