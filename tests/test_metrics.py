import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshtcp.cc import Flavor
from meshtcp.engine import RunTrace, TraceKind, TraceRecord, run_until
from meshtcp.mesh import ChainTopology, LinkModel
from meshtcp.metrics import summarize
from meshtcp.world import MeshWorld


def trace_of(records):
    """The records a kept trace holds after adding ``records`` in order."""
    t = RunTrace()
    for time, kind, seq, value in records:
        t.add(time, kind, 0, seq, value)
    return t.records


def test_throughput_formula_hundred_sends():
    # 100 data transmissions, first at 1.0, last at 11.0 -> 10.0 pkts/s
    records = [
        (1.0 + k * 0.1, TraceKind.SEND, k, "data") for k in range(100)
    ]
    records[-1] = (11.0, TraceKind.SEND, 99, "data")
    assert summarize(trace_of(records)).throughput == 10.0


def test_throughput_counts_retransmissions():
    records = [(1.0 + k * 0.1, TraceKind.SEND, k, "data") for k in range(95)]
    records += [(10.5 + k * 0.1, TraceKind.RETX, k, "data") for k in range(4)]
    records += [(11.0, TraceKind.RETX, 4, "data")]
    records.sort(key=lambda r: r[0])
    tr = trace_of(records)
    assert summarize(tr).throughput == 10.0
    # goodput over the same span counts distinct deliveries only
    records += [(11.0, TraceKind.DELIVER, k, "data") for k in range(95)]
    records.sort(key=lambda r: r[0])
    s = summarize(trace_of(records))
    assert s.goodput == 9.5
    assert s.goodput <= s.throughput


def test_throughput_undefined_cases():
    assert summarize(trace_of([(1.0, TraceKind.SEND, 0, "data")])).throughput is None
    assert summarize(
        trace_of([(1.0, TraceKind.SEND, 0, "data"), (1.0, TraceKind.SEND, 1, "data")])
    ).throughput is None


def test_plr_formula():
    records = [(1.0 + k * 0.01, TraceKind.DELIVER, k, "data") for k in range(100)]
    records += [(2.0 + k * 0.01, TraceKind.RETX, k, "data") for k in range(5)]
    records.sort(key=lambda r: r[0])
    assert summarize(trace_of(records)).plr == 0.05


def test_plr_lossless_and_undefined():
    records = [(1.0 + k * 0.01, TraceKind.DELIVER, k, "data") for k in range(100)]
    assert summarize(trace_of(records)).plr == 0.0
    assert summarize(trace_of([(1.0, TraceKind.SEND, 0, "data")])).plr is None


def test_mean_delay_single_sample():
    tr = trace_of(
        [(1.0, TraceKind.SEND, 0, "data"), (1.007, TraceKind.DELIVER, 0, "data")]
    )
    assert summarize(tr).mean_delay == pytest.approx(0.007)


def test_mean_delay_two_samples():
    tr = trace_of(
        [
            (1.0, TraceKind.SEND, 0, "data"),
            (1.010, TraceKind.DELIVER, 0, "data"),
            (2.0, TraceKind.SEND, 1, "data"),
            (2.020, TraceKind.DELIVER, 1, "data"),
        ]
    )
    assert summarize(tr).mean_delay == pytest.approx(0.015)


def test_mean_delay_uses_first_transmission():
    tr = trace_of(
        [
            (1.0, TraceKind.SEND, 7, "data"),
            (2.0, TraceKind.RETX, 7, "data"),
            (2.007, TraceKind.DELIVER, 7, "data"),
        ]
    )
    assert summarize(tr).mean_delay == pytest.approx(1.007)


def test_mean_delay_sums_left_to_right_in_delivery_order():
    # delays 2**53, 1.0, 1.0: each 1.0 is lost to rounding when added to the
    # running total, as it would not be with sum()'s compensated summation
    # (Python 3.12+), so the mean is the same on every Python version
    big = float(2**53)
    records = [
        TraceRecord(0.0, TraceKind.SEND, 0, 0, "data"),
        TraceRecord(1.0, TraceKind.SEND, 0, 1, "data"),
        TraceRecord(1.0, TraceKind.SEND, 0, 2, "data"),
        TraceRecord(big, TraceKind.DELIVER, 0, 0, "data"),
        TraceRecord(2.0, TraceKind.DELIVER, 0, 1, "data"),
        TraceRecord(2.0, TraceKind.DELIVER, 0, 2, "data"),
    ]
    assert summarize(records).mean_delay == big / 3


def test_summarize_lossless_run():
    topo = ChainTopology(2, LinkModel())
    world = MeshWorld(topo, Flavor.NEWRENO, seed=1, app_limit=50)
    trace = run_until(world, 10.0)
    s = summarize(trace.records)
    assert s.plr == 0.0
    assert s.rto_count == 0
    assert s.retransmit_count == 0
    assert s.delivered_count == 50
    first = next(r for r in trace.records if r.kind is TraceKind.CWND_SAMPLE)
    assert (first.time, first.value) == (0.0, 1)
    assert s.goodput <= s.throughput


def test_summarize_empty_trace_marks_unavailable():
    s = summarize(RunTrace().records)
    assert s.throughput is None
    assert s.goodput is None
    assert s.plr is None
    assert s.mean_delay is None
    assert s.delivered_count == 0


def test_plr_matches_independent_recount():
    topo = ChainTopology(3, LinkModel(loss_rate=1.0))
    world = MeshWorld(topo, Flavor.RENO, seed=5)
    trace = run_until(world, 20.0)
    s = summarize(trace.records)
    retx = deliver = 0
    for r in trace.records:
        if r.value != "data":
            continue
        if r.kind is TraceKind.RETX:
            retx += 1
        elif r.kind is TraceKind.DELIVER:
            deliver += 1
    assert s.plr == retx / deliver
    assert s.retransmit_count == retx
    assert s.delivered_count == deliver


def suffix(records, start):
    """The records at or after ``start``: a steady-state window of a kept trace."""
    return [r for r in records if r.time >= start]


def test_warmup_slices_records():
    records = [(float(k), TraceKind.SEND, k, "data") for k in range(10)]
    records += [(float(k) + 0.5, TraceKind.DELIVER, k, "data") for k in range(10)]
    records.sort(key=lambda r: r[0])
    s = summarize(suffix(trace_of(records), 5.0))
    assert s.delivered_count == 5  # deliveries at 5.5 .. 9.5


def test_warmup_cohort_excludes_seqs_sent_before_it():
    # seq 0 is sent before the window and delivered and resent in it: its
    # RETX is not its first transmission, so it is outside the cohort and
    # gives no (negative) delay, while the record counts still see it
    records = [
        (1.0, TraceKind.SEND, 0, "data"),
        (3.0, TraceKind.DELIVER, 0, "data"),
        (4.0, TraceKind.RETX, 0, "data"),
    ]
    s = summarize(suffix(trace_of(records), 2.0))
    assert s.mean_delay is None
    assert (s.delivered_count, s.retransmit_count) == (1, 1)


def test_warmup_goodput_never_exceeds_throughput():
    # random A10-style runs, some app-limited: a cohort seq's SEND is in the
    # window, so goodput <= throughput and no delay is negative
    rng = random.Random(0x3A7)
    for _ in range(30):
        flavor, hops = rng.choice(list(Flavor)), rng.randint(1, 4)
        link = LinkModel(loss_rate=rng.uniform(0.0, 3.0), queue_capacity=rng.choice([5, 20, 50]))
        topo = ChainTopology(hops + 1, link, interference_range=rng.randint(0, 3))
        app_limit = rng.choice([None, 200, 500])
        world = MeshWorld(topo, flavor, seed=rng.getrandbits(64), app_limit=app_limit)
        s = summarize(suffix(run_until(world, 10.0).records, rng.uniform(1.0, 5.0)))
        if s.goodput is not None:
            assert s.goodput <= s.throughput, (flavor, hops, link, app_limit)
        assert s.mean_delay is None or s.mean_delay >= 0


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


def _recount(records, warmup):
    """Every MetricsSummary field, recounted with plain list filters.

    Throughput, plr and the counts are over the records in the window;
    goodput and delay are over its cohort, the seqs with a SEND in it."""
    window = [r for r in records if r.time >= warmup]
    data = [r for r in window if r.value == "data"]
    txs = [r for r in data if r.kind in (TraceKind.SEND, TraceKind.RETX)]
    delivers = [r for r in data if r.kind is TraceKind.DELIVER]
    retx = sum(1 for r in data if r.kind is TraceKind.RETX)
    span = txs[-1].time - txs[0].time if len(txs) >= 2 else 0.0
    cohort = {r.seq for r in txs if r.kind is TraceKind.SEND}
    first_sent, first_delivered = {}, {}
    for r in txs:
        if r.kind is TraceKind.SEND:
            first_sent.setdefault(r.seq, r.time)
    for r in delivers:
        if r.seq in cohort:
            first_delivered.setdefault(r.seq, r.time)
    delays = [t - first_sent[s] for s, t in first_delivered.items()]
    return {
        "throughput": len(txs) / span if span > 0 else None,
        "goodput": len(first_delivered) / span if span > 0 else None,
        "plr": retx / len(delivers) if delivers else None,
        "mean_delay": sum(delays) / len(delays) if delays else None,
        "rto_count": sum(1 for r in window if r.kind is TraceKind.RTO),
        "retransmit_count": retx,
        "delivered_count": len(delivers),
    }


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(_RECORD, min_size=2, max_size=40),
    st.one_of(_TIME, st.just(1.25)),
)
def test_summarize_matches_recount(raw, warmup):
    trace = RunTrace()
    for time, kind, flow, seq, value in sorted(raw, key=lambda r: r[0]):
        trace.add(time, kind, flow, seq, value)
    got = summarize(suffix(trace.records, warmup))
    want = _recount(trace.records, warmup)
    for name, value in want.items():
        if name == "mean_delay" and value is not None:
            assert got.mean_delay == pytest.approx(value, rel=1e-12, abs=0.0)
        else:
            assert getattr(got, name) == value, name
