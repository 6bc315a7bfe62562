"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Every expected value here was derived by hand or analytically
before being frozen.
"""

import hashlib
import math
import random
from statistics import mean, pstdev, stdev

from conftest import (
    check_conservation,
    check_cwnd_positive,
    check_group_exclusivity,
    check_phase_edges,
    check_window_discipline,
)
from meshtcp.cc import Flavor
from meshtcp.cli import main
from meshtcp.endpoint import DEFAULT_ACK_BYTES, DEFAULT_MSS_BYTES
from meshtcp.engine import RngStream, RunTrace, TraceKind, run_until
from meshtcp.experiment import emit_csv, load_config, run_experiment, run_single
from meshtcp.mesh import ChainTopology, LinkModel, LossProcess
from meshtcp.metrics import summarize
from meshtcp.world import MeshWorld

SEEDS_10 = ",".join(str(s) for s in range(1, 11))
SEEDS_20 = ",".join(str(s) for s in range(1, 21))


def run_summarized(spec, flavor, hops, loss_rate, seed):
    """One sweep point's trace and its summary, as run_experiment makes them."""
    trace = run_single(spec, flavor, hops, loss_rate, seed)
    return trace, summarize(trace.records)


def cwnd_samples(trace):
    return [(r.value, r.seq) for r in trace.records if r.kind is TraceKind.CWND_SAMPLE]


def phase_changes(trace):
    return [(r.time, r.value) for r in trace.records if r.kind is TraceKind.PHASE_CHANGE]


def data_retx(trace, seq=None):
    return [
        r
        for r in trace.records
        if r.kind is TraceKind.RETX and r.value == "data"
        and (seq is None or r.seq == seq)
    ]


def test_a1_newreno_single_loss_golden_trace():
    """Hand-derived window trajectory for one lost segment.

    Slow start grows cwnd 1..11 over the first ten ACKs (19 segments sent,
    high_sent=21 when the third dupack for segment 10 arrives). FRR entry:
    flight=11, ssthresh=floor(11/2)=5, cwnd=5+3=8. Segments 14..20 supply
    seven more dupacks inflating cwnd to 15. The retransmission fills the
    hole, the full ACK (21 >= high_seq) exits to CA with cwnd=ssthresh=5,
    and five CA ACKs later cwnd steps to 6.
    """
    cfg = """\
flavors = newreno
hops = 1
loss_rates = 0
seeds = 1
duration = 5
app_limit = 60
scripted_drops = 1:10:1
"""
    spec = load_config(cfg)
    trace, summary = run_summarized(spec, Flavor.NEWRENO, 1, 0.0, 1)
    golden = (
        [(1, 44)]
        + [(c, 44) for c in range(2, 12)]   # slow start, one per ACK
        + [(8, 5)]                          # FRR entry
        + [(c, 5) for c in range(9, 16)]    # dupack inflation
        + [(5, 5), (6, 5)]                  # exit to CA, first CA step
    )
    assert cwnd_samples(trace)[: len(golden)] == golden
    assert [p for _, p in phase_changes(trace)] == ["FRR", "CA"]
    assert summary.rto_count == 0
    print("[A1] NewReno single-loss golden trace: PASS")


A2_CONFIG = """\
flavors = sac,newreno
hops = 1
loss_rates = 0
seeds = 1
duration = 10
app_limit = 200
rto_min_s = 1.0
scripted_drops = 1:10:1;1:10:2
"""


def test_a2_sac_retransmission_loss_scenario():
    spec = load_config(A2_CONFIG)
    sac_trace, sac = run_summarized(spec, Flavor.SAC, 1, 0.0, 1)
    nr_trace, nr = run_summarized(spec, Flavor.NEWRENO, 1, 0.0, 1)

    # (a) no timeout, and the third transmission of segment 10 comes after
    # exactly rlp-1 post-entry dupacks with ssthresh pinned and cwnd halved
    assert sac.rto_count == 0
    retx10 = data_retx(sac_trace, seq=10)
    assert len(retx10) == 2  # transmissions two and three
    t_entry, t_fire = retx10[0].time, retx10[1].time

    sends_before_entry = [
        r.seq
        for r in sac_trace.records
        if r.kind is TraceKind.SEND and r.value == "data" and r.time < t_entry
    ]
    rlp = max(sends_before_entry) + 1 - 10  # flight at FRR entry
    assert rlp == 11

    dupacks_between = [
        r
        for r in sac_trace.records
        if r.kind is TraceKind.DELIVER and r.value == "ack" and r.seq == 10
        and t_entry < r.time <= t_fire
    ]
    assert len(dupacks_between) == rlp - 1

    exit_time = next(t for t, p in phase_changes(sac_trace) if p == "CA" and t > t_entry)
    episode_records = [
        (r.value, r.seq)
        for r in sac_trace.records
        if r.kind is TraceKind.CWND_SAMPLE and t_entry <= r.time <= exit_time
    ]
    assert all(ssthresh == 5 for _, ssthresh in episode_records)
    fire_idx = next(
        i
        for i, r in enumerate(sac_trace.records)
        if r.kind is TraceKind.RETX and r.seq == 10 and r.time == t_fire
    )
    # at the fire instant the window sample lands just before the RETX
    # record: the last two samples are (pre-dupack cwnd, halved cwnd)
    samples_before = [
        r.value
        for r in sac_trace.records[:fire_idx]
        if r.kind is TraceKind.CWND_SAMPLE
    ]
    assert samples_before[-1] == (samples_before[-2] + 1) // 2

    # (b) NewReno on the identical script suffers the timeout
    assert nr.rto_count >= 1

    # (c) the paper-definition throughput favors sac on this paired run
    assert sac.throughput > nr.throughput
    print(
        f"[A2] SAC retransmission-loss scenario: PASS "
        f"(sac tp={sac.throughput:.1f} rto=0; newreno tp={nr.throughput:.1f} "
        f"rto={nr.rto_count})"
    )


def test_a3_flavor_divergence_two_segment_loss():
    """Hand-derived oracle: Reno exits FRR on the partial ACK and re-enters
    for the second hole (four phase changes); NewReno and sac plug the
    second hole inside one episode (two phase changes)."""
    cfg = """\
flavors = reno,newreno,sac
hops = 1
loss_rates = 0
seeds = 1
duration = 10
app_limit = 60
scripted_drops = 1:10:1;1:12:1
"""
    spec = load_config(cfg)
    series = {}
    for flavor in (Flavor.RENO, Flavor.NEWRENO, Flavor.SAC):
        trace = run_single(spec, flavor, 1, 0.0, 1)
        series[flavor] = phase_changes(trace)

    assert [p for _, p in series[Flavor.RENO]] == ["FRR", "CA", "FRR", "CA"]
    assert [p for _, p in series[Flavor.NEWRENO]] == ["FRR", "CA"]
    assert [p for _, p in series[Flavor.SAC]] == ["FRR", "CA"]
    # identical entry instant; divergence exactly at the partial ACK
    assert series[Flavor.RENO][0] == series[Flavor.NEWRENO][0]
    reno_exit = series[Flavor.RENO][1][0]
    newreno_exit = series[Flavor.NEWRENO][1][0]
    assert reno_exit < newreno_exit
    print("[A3] Reno/NewReno/sac divergence at partial ACK: PASS")


def test_a4_hop_monotonicity():
    cfg = """\
flavors = sac,newreno,reno,sack,vegas
hops = 1,2,3,4
loss_rates = 0
seeds = 1
duration = 60
app_limit = 1500
queue_capacity = 250
"""
    rows = run_experiment(load_config(cfg))
    by_flavor = {}
    for r in rows:
        by_flavor.setdefault(r.flavor, []).append(r)
    for flavor, frows in by_flavor.items():
        frows.sort(key=lambda r: r.hops)
        tps = [r.throughput for r in frows]
        assert all(b <= a for a, b in zip(tps, tps[1:])), (flavor, tps)
        assert tps[1] < tps[0] and tps[2] < tps[1], (flavor, tps)
    print("[A4] throughput non-increasing in hops, strict 1->2->3: PASS")


def test_a5_loss_monotonicity():
    cfg = f"""\
flavors = sac,newreno,reno,sack,vegas
hops = 4
loss_rates = 0,0.2,0.5,1.0
seeds = {SEEDS_10}
duration = 60
"""
    rows = run_experiment(load_config(cfg))
    table = {}
    for r in rows:
        table.setdefault((r.flavor, r.loss_rate), []).append(r)
    rates = (0.0, 0.2, 0.5, 1.0)
    for flavor in (Flavor.SAC, Flavor.NEWRENO, Flavor.RENO, Flavor.SACK, Flavor.VEGAS):
        for lam_lo, lam_hi in zip(rates, rates[1:]):
            lo = sorted(table[(flavor, lam_lo)], key=lambda r: r.seed)
            hi = sorted(table[(flavor, lam_hi)], key=lambda r: r.seed)
            assert mean(r.plr for r in hi) > mean(r.plr for r in lo), (
                f"{flavor}: plr not strictly increasing {lam_lo}->{lam_hi}"
            )
            diffs = [b.throughput - a.throughput for a, b in zip(lo, hi)]
            se = stdev(diffs) / len(diffs) ** 0.5 if len(set(diffs)) > 1 else 0.0
            assert mean(diffs) <= se, (
                f"{flavor}: throughput increased {lam_lo}->{lam_hi} beyond 1 SE"
            )
    print("[A5] PLR strictly increasing, throughput non-increasing in loss rate: PASS")


def test_a6_determinism():
    cfg = """\
flavors = sac,vegas
hops = 2
loss_rates = 0.5
seeds = 1,2
duration = 5
"""
    spec = load_config(cfg)
    csv_a = emit_csv(run_experiment(spec))
    csv_b = emit_csv(run_experiment(spec))
    assert hashlib.sha256(csv_a.encode()).digest() == hashlib.sha256(csv_b.encode()).digest()
    trace_a = run_single(spec, Flavor.SAC, 2, 0.5, 1)
    trace_b = run_single(spec, Flavor.SAC, 2, 0.5, 1)
    assert hashlib.sha256(trace_a.export().encode()).digest() == hashlib.sha256(
        trace_b.export().encode()
    ).digest()
    print("[A6] byte-identical CSV and trace on rerun: PASS")


A7_CONFIG = f"""\
flavors = sac,newreno
hops = 4
loss_rates = 0.5
seeds = {SEEDS_20}
duration = 60
app_limit = 550
bandwidth_bps = 500000
"""


def test_a7_directional_sac_superiority(tmp_path):
    spec = load_config(A7_CONFIG)
    sac_tp, nr_tp, sac_rto, nr_rto = [], [], [], []
    for seed in spec.seeds:
        _, sac = run_summarized(spec, Flavor.SAC, 4, 0.5, seed)
        _, nr = run_summarized(spec, Flavor.NEWRENO, 4, 0.5, seed)
        sac_tp.append(sac.throughput)
        nr_tp.append(nr.throughput)
        sac_rto.append(sac.rto_count)
        nr_rto.append(nr.rto_count)
    assert mean(sac_tp) >= mean(nr_tp)
    assert mean(sac_rto) <= mean(nr_rto)
    assert mean(sac_tp) > mean(nr_tp) or mean(sac_rto) < mean(nr_rto)

    cfg_file = tmp_path / "a7.cfg"
    cfg_file.write_text(A7_CONFIG)
    rc = main(
        ["compare", "--config", str(cfg_file), "--baseline", "newreno",
         "--candidate", "sac", "--out", str(tmp_path / "out")]
    )
    assert rc == 0
    print(
        f"[A7] sac over newreno at 4 hops, loss 0.5/s: PASS "
        f"(tp {mean(sac_tp):.2f} vs {mean(nr_tp):.2f}; "
        f"rto {mean(sac_rto):.2f} vs {mean(nr_rto):.2f}; compare exit 0)"
    )


def test_a8_error_model_calibration():
    """Poisson-mean oracle: lambda*T = 0.2/s * 1000 s = 200 expected drops
    on a continuously busy link; the 30-seed mean must land within
    3*sqrt(200) of it."""
    lam, horizon, tx = 0.2, 1000.0, 0.02
    counts = []
    for seed in range(1, 31):
        process = LossProcess(RngStream(seed, "loss/hop1/fwd"), lam)
        windows = int(horizon / tx)
        counts.append(sum(process.decide(None, k * tx, tx) for k in range(windows)))
    expected = lam * horizon
    tolerance = 3 * expected ** 0.5
    assert abs(mean(counts) - expected) < tolerance
    print(
        f"[A8] error-model calibration: PASS "
        f"(mean drops {mean(counts):.1f} vs {expected:.0f} +/- {tolerance:.1f})"
    )


def test_a9_metric_oracles():
    tr = RunTrace()
    for k in range(99):
        tr.add(1.0 + k * 0.05, TraceKind.SEND, 0, k, "data")
    tr.add(11.0, TraceKind.SEND, 0, 99, "data")
    assert summarize(tr.records).throughput == 10.0

    tr2 = RunTrace()
    tr2.add(1.0, TraceKind.SEND, 0, 0, "data")
    tr2.add(1.007, TraceKind.DELIVER, 0, 0, "data")
    for k in range(1, 100):
        tr2.add(2.0 + k * 0.01, TraceKind.DELIVER, 0, k, "data")
    for k in range(5):
        tr2.add(3.0 + k * 0.01, TraceKind.RETX, 0, k, "data")
    assert summarize(tr2.records).plr == 0.05

    tr3 = RunTrace()
    tr3.add(1.0, TraceKind.SEND, 0, 7, "data")
    tr3.add(2.0, TraceKind.RETX, 0, 7, "data")
    tr3.add(2.007, TraceKind.DELIVER, 0, 7, "data")
    assert abs(summarize(tr3.records).mean_delay - 1.007) < 1e-12
    print("[A9] metric formula oracles: PASS")


def test_a10_invariant_fuzz(transmissions):
    rng = random.Random(0xA10)
    for i in range(100):
        flavor = rng.choice(list(Flavor))
        hops = rng.randint(1, 4)
        rate = rng.choice([0.0, 0.3, 1.0, 2.0])
        seed = rng.getrandbits(64)
        queue = rng.choice([5, 20, 50])
        topo = ChainTopology(hops + 1, LinkModel(loss_rate=rate, queue_capacity=queue))
        world = MeshWorld(topo, flavor, seed=seed)
        trace = run_until(world, 3.0)
        check_conservation(world, trace)
        check_phase_edges(trace)
        check_cwnd_positive(trace)
        check_window_discipline(trace)
        check_group_exclusivity(transmissions[world.net])
    print("[A10] conservation and window-discipline fuzz (100 configs): PASS")


def test_a11_lossless_delivery_rate_is_the_channel_share():
    """Closed form: one segment and its ACK hold a channel for
    8 * (mss + ack) / bandwidth seconds, so one group carries at most
    C = 166.67 seg/s at the defaults, and a chain of h hops, whose first
    min(h, interference_range + 1) hops share one channel, carries
    C / min(h, interference_range + 1). Gated on deliveries per second of
    the records from 5 s on, past slow start: goodput leaves out the cohort
    still in flight at the end (0.946-0.986 of the bound at 20 s)."""
    cfg = """\
flavors = newreno
hops = 1,2,3,5
loss_rates = 0
seeds = 1
duration = 20
"""
    spec = load_config(cfg)
    capacity = spec.bandwidth_bps / (8 * (DEFAULT_MSS_BYTES + DEFAULT_ACK_BYTES))
    start = 5.0
    ratios = {}
    for hops in spec.hops:
        records = run_single(spec, Flavor.NEWRENO, hops, 0.0, 1).records
        delivered = summarize([r for r in records if r.time >= start]).delivered_count
        bound = capacity / min(hops, spec.interference_range + 1)
        ratios[hops] = delivered / (spec.duration - start) / bound
    assert all(abs(x - 1) < 0.01 for x in ratios.values()), ratios
    shown = ", ".join(f"h={h}: {x:.4f}" for h, x in ratios.items())
    print(f"[A11] lossless delivery rate within 1% of C/min(h, range+1): PASS ({shown})")


def test_a12_mathis_square_root_law():
    """Mathis et al. (CCR 1997): under random loss with probability p per
    segment, Reno-style goodput is about (1 / RTT) * sqrt(3/2) / sqrt(p)
    segments per second. On one 10 Mb/s hop with 50 ms propagation each
    way, the window stays below the path's capacity, so RTT is the base
    round trip; a transmission is lost when a Poisson instant at rate
    lambda lands inside it, so p = 1 - exp(-lambda * mss * 8 / bandwidth).
    Measured ratios are 0.942-1.047."""
    cfg = """\
flavors = newreno
hops = 1
loss_rates = 2,8
seeds = 1,2,3
duration = 60
bandwidth_bps = 10000000
prop_delay_s = 0.05
"""
    spec = load_config(cfg)
    bw = spec.bandwidth_bps
    rtt = 8 * (DEFAULT_MSS_BYTES + DEFAULT_ACK_BYTES) / bw + 2 * spec.prop_delay_s
    ratios = []
    for r in run_experiment(spec):
        p = 1 - math.exp(-r.loss_rate * DEFAULT_MSS_BYTES * 8 / bw)
        ratios.append(r.goodput / (math.sqrt(1.5 / p) / rtt))
    assert all(0.85 <= x <= 1.15 for x in ratios), ratios
    print(
        f"[A12] newreno goodput over the square-root law in [0.85, 1.15]: PASS "
        f"({min(ratios):.3f}-{max(ratios):.3f})"
    )


def rtt_samples(records):
    """ACK delivery of s + 1 minus the data send of s, for each seq s that
    was never retransmitted (Karn's rule), each at its first occurrence."""
    sent, retx, acked = {}, set(), {}
    for r in records:
        if r.value == "data":
            if r.kind is TraceKind.SEND:
                sent.setdefault(r.seq, r.time)
            elif r.kind is TraceKind.RETX:
                retx.add(r.seq)
        elif r.kind is TraceKind.DELIVER:
            acked.setdefault(r.seq, r.time)
    return [acked[s + 1] - t for s, t in sent.items() if s not in retx and s + 1 in acked]


def test_a13_rtt_spread_grows_with_hops_then_plateaus():
    """The abstract's premise (a): the RTT varies more as the hop count
    grows. Lossless newreno, 30 s, so one seed stands for all. The
    population SD of the RTT samples rises steeply from 1 to 3 hops, while
    the hops share one channel. Past 3 hops it stays nearly flat: one
    group's standing queue sets the RTT, as in A11's C/3 regime."""
    spec = load_config(
        "flavors = newreno\nhops = 1,2,3,4,5,6,7,8\nloss_rates = 0\nseeds = 1\nduration = 30\n"
    )
    sds = [
        pstdev(rtt_samples(run_single(spec, Flavor.NEWRENO, h, 0.0, 1).records))
        for h in spec.hops
    ]
    assert [round(sd, 3) for sd in sds] == [0.051, 0.108, 0.171, 0.176, 0.176, 0.183, 0.186, 0.193]
    growth = [b / a for a, b in zip(sds, sds[1:])]
    assert all(g > 1.5 for g in growth[:2]), growth
    assert all(0.99 < g < 1.05 for g in growth[2:]), growth
    shown = ", ".join(f"h={h}: {sd:.3f}" for h, sd in zip(spec.hops, sds))
    print(f"[A13] RTT SD rises to 3 hops, then within 5% per hop: PASS ({shown})")


def test_a14_congestion_and_wireless_loss_drop_more_together():
    """The abstract's premise (b): when congestion loss and wireless loss
    coexist, more packets are dropped. 4 hops, newreno, 30 s, drops summed
    over seeds 1-3. The combined drops exceed each cause alone, but stay
    below their sum: wireless loss thins the window, so the queue drops
    fall."""

    def drops(queue, rate):
        spec = load_config(
            f"flavors = newreno\nhops = 4\nloss_rates = {rate}\nseeds = 1,2,3\n"
            f"duration = 30\nqueue_capacity = {queue}\n"
        )
        kinds = [
            r.kind
            for seed in spec.seeds
            for r in run_single(spec, Flavor.NEWRENO, 4, rate, seed).records
        ]
        return kinds.count(TraceKind.DROP_QUEUE), kinds.count(TraceKind.DROP_WIRELESS)

    congestion, wireless, both = drops(5, 0.0), drops(50, 1.0), drops(5, 1.0)
    assert (congestion, wireless, both) == ((96, 0), (0, 109), (40, 114))
    assert sum(both) > max(sum(congestion), sum(wireless))
    assert both[0] < congestion[0]
    print(
        f"[A14] combined drops {sum(both)} exceed congestion {sum(congestion)} "
        f"and wireless {sum(wireless)} alone: PASS"
    )
