import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshtcp.cc import CcPhase, Flavor
from meshtcp.endpoint import (
    DEFAULT_RTO_MAX_S,
    RECEIVER_WINDOW,
    Diverged,
    ReceiverEndpoint,
    RttEstimator,
    Segment,
    SegmentKind,
    SenderEndpoint,
)
from meshtcp.engine import RunTrace, TraceKind
from meshtcp.errors import ContractError


def ack_segment(ack, sack=()):
    return Segment(kind=SegmentKind.ACK, seq=ack, size_bytes=40, sack=tuple(sack))


def data_segment(seq):
    return Segment(kind=SegmentKind.DATA, seq=seq, size_bytes=1460)


def make_sender(flavor=Flavor.NEWRENO, **kwargs):
    return SenderEndpoint(flavor, trace=RunTrace(), **kwargs)


class TestRttEstimator:
    def test_first_sample(self):
        est = RttEstimator(rto_min=0.2)
        est.update(1.0)
        assert est.srtt == 1.0
        assert est.rttvar == 0.5
        assert est.rto == 3.0

    def test_subsequent_sample(self):
        est = RttEstimator(rto_min=0.2)
        est.update(1.0)
        est.update(1.0)
        assert est.rttvar == 0.375
        assert est.srtt == 1.0
        assert est.rto == 2.5

    def test_clamp_to_rto_min(self):
        est = RttEstimator(rto_min=0.2)
        for _ in range(20):
            est.update(0.05)
        assert est.rto == 0.2

    def test_backoff_doubles_and_sample_resets(self):
        est = RttEstimator()
        est.update(1.0)  # rto 3.0
        est.rto = 1.0
        est.back_off()
        assert est.rto == 2.0
        est.back_off()
        assert est.rto == 4.0
        est.update(1.0)
        assert est.rto == 2.5  # srtt 1.0 + 4 * rttvar 0.375, backoff gone

    def test_rejects_nonpositive_sample(self):
        # the sender refuses the sample before its estimator takes it
        s = make_sender()
        s.fill_window(0.0)
        s.send_timestamps[0] = 0.3
        with pytest.raises(ContractError):
            s.on_ack_segment(ack_segment(1), 0.3)
        assert s.rtt_est.srtt == 0.0
        assert (s.rtt_est.srtt, s.rtt_est.rttvar, s.rtt_est.rto) == (0.0, 0.0, 1.0)


class TestSenderWindow:
    def test_fill_from_empty(self):
        s = make_sender()
        s.cc = s.cc._replace(cwnd=4)
        segs = s.fill_window(0.0)
        assert [g.seq for g in segs] == [0, 1, 2, 3]
        assert s.high_sent == 4
        assert s.rto_deadline < math.inf

    def test_full_window_sends_nothing(self):
        s = make_sender()
        s.cc = s.cc._replace(cwnd=4)
        s.fill_window(0.0)
        assert s.fill_window(0.1) == []

    def test_app_limit_binds(self):
        s = make_sender(app_limit=2)
        s.cc = s.cc._replace(cwnd=10)
        segs = s.fill_window(0.0)
        assert [g.seq for g in segs] == [0, 1]

    def test_receiver_window_caps_a_large_cwnd(self):
        s = make_sender()
        s.cc = s.cc._replace(cwnd=100)
        s.fill_window(0.0)
        assert s.outstanding == RECEIVER_WINDOW == 64


class TestSenderRecordsItsWindow:
    def test_start_records_the_initial_sample_before_sending(self):
        s = make_sender()
        segs = s.start(0.0)
        assert s.trace.records == [(0.0, TraceKind.CWND_SAMPLE, 0, s.cc.ssthresh, 1)]
        assert [g.seq for g in segs] == [0]

    def test_third_dupack_records_the_window_then_the_phase(self):
        s = make_sender()
        s.cc = s.cc._replace(cwnd=10)
        s.fill_window(0.0)
        for k in range(2):
            s.on_ack_segment(ack_segment(0), 0.1 + k * 0.01)
        assert s.trace.records == []  # nothing changed
        s.on_ack_segment(ack_segment(0), 0.12)
        assert s.trace.records == [
            (0.12, TraceKind.CWND_SAMPLE, 0, s.cc.ssthresh, s.cc.cwnd),
            (0.12, TraceKind.PHASE_CHANGE, 0, 0, "FRR"),
        ]


class TestSenderAckHandling:
    def test_new_ack_advances_and_sends(self):
        s = make_sender()
        s.fill_window(0.0)  # sends seq 0, cwnd 1
        out = s.on_ack_segment(ack_segment(1), 0.2)
        assert s.cc.last_ack == 1
        assert s.cc.cwnd == 2
        assert [g.seq for g in out] == [1, 2]
        assert s.rtt_est.srtt == 0.2  # 0.2 s sample taken

    def test_duplicate_ack_path(self):
        s = make_sender()
        s.cc = s.cc._replace(cwnd=8)
        s.fill_window(0.0)
        s.on_ack_segment(ack_segment(0), 0.1)
        assert s.cc.dupacks == 1
        assert s.cc.last_ack == 0

    def test_stale_ack_or_data_is_a_contract_error(self):
        # ACKs arrive in the order the receiver made them, so one below
        # last_ack means the network reordered them
        s = make_sender()
        s.fill_window(0.0)
        s.on_ack_segment(ack_segment(2), 0.2)
        with pytest.raises(ContractError, match="not an ACK >= 2: ack 1"):
            s.on_ack_segment(ack_segment(1), 0.3)
        with pytest.raises(ContractError, match="not an ACK >= 2: data 2"):
            s.on_ack_segment(data_segment(2), 0.3)

    def test_third_dupack_retransmits_before_new_data(self):
        s = make_sender()
        s.cc = s.cc._replace(cwnd=10)
        s.fill_window(0.0)
        for _ in range(2):
            s.on_ack_segment(ack_segment(0), 0.1)
        out = s.on_ack_segment(ack_segment(0), 0.12)
        assert out[0].retx and out[0].seq == 0
        assert s.cc.phase is CcPhase.FRR

    def test_sac_second_retransmission_restarts_timer(self):
        s = make_sender(Flavor.SAC)
        s.cc = s.cc._replace(cwnd=20)
        s.fill_window(0.0)
        for k in range(3):  # the third dupack enters FRR with rlp = 20
            s.on_ack_segment(ack_segment(0), 0.1 + k * 0.01)
        assert s.cc.rlp == 20
        for k in range(s.cc.rlp - 1):
            now = 0.2 + k * 0.01
            out = s.on_ack_segment(ack_segment(0), now)
        assert out[0].retx and out[0].seq == 0
        assert s.rto_deadline == now + s.rtt_est.rto

    def test_timer_cancelled_when_everything_acked(self):
        s = make_sender(app_limit=1)
        s.fill_window(0.0)
        s.on_ack_segment(ack_segment(1), 0.1)
        assert s.rto_deadline == math.inf


class TestKarnRule:
    def test_no_sample_from_retransmitted_segment(self):
        s = make_sender()
        s.fill_window(0.0)  # seq 0 out
        s.on_rto(1.0)       # seq 0 retransmitted
        assert s.rtt_est.srtt == 0.0
        s.on_ack_segment(ack_segment(1), 1.2)
        assert s.rtt_est.srtt == 0.0  # covered seq 0 was retransmitted

    def test_sample_from_fresh_segment(self):
        s = make_sender()
        s.fill_window(0.0)
        s.on_ack_segment(ack_segment(1), 0.25)
        assert s.rtt_est.srtt > 0
        assert s.rtt_est.srtt == pytest.approx(0.25)

    def test_non_positive_sample_is_a_contract_error(self):
        # a real sample spans a data and an ACK transmission, so it is
        # positive; only a forged send time gives any other
        s = make_sender()
        s.fill_window(0.0)
        s.send_timestamps[0] = 0.3
        with pytest.raises(ContractError, match="RTT sample must be positive"):
            s.on_ack_segment(ack_segment(1), 0.3)

    @pytest.mark.parametrize("sample", [0.0, -0.25])
    @pytest.mark.parametrize("flavor", list(Flavor))
    def test_non_positive_sample_is_refused_before_cc(self, flavor, sample):
        # CA at the accumulator boundary, where vegas divides by the sample
        s = make_sender(flavor)
        s.cc = s.cc._replace(phase=CcPhase.CA, cwnd=4, ssthresh=2, ca_accumulator=3)
        s.fill_window(0.0)
        s.send_timestamps[0] = 0.3 - sample
        before = (s.cc, dict(s.send_timestamps), s.rto_deadline, len(s.trace.records))
        with pytest.raises(ContractError, match=f"RTT sample must be positive, got {sample}"):
            s.on_ack_segment(ack_segment(1), 0.3)
        assert (s.cc, dict(s.send_timestamps), s.rto_deadline, len(s.trace.records)) == before
        assert s.rtt_est.srtt == 0.0


class TestSenderRto:
    def test_rto_backs_off_and_collapses_window(self):
        s = make_sender()
        s.cc = s.cc._replace(cwnd=8)
        s.fill_window(0.0)
        rto_before = s.rtt_est.rto
        out = s.on_rto(1.0)
        assert s.rtt_est.rto == min(rto_before * 2, DEFAULT_RTO_MAX_S)
        assert s.cc.cwnd == 1
        assert s.cc.phase is CcPhase.SS
        assert [g.seq for g in out] == [0]
        assert out[0].retx
        assert any(r.kind is TraceKind.RTO for r in s.trace.records)

    def test_two_rtos_double_twice(self):
        s = make_sender()
        s.fill_window(0.0)
        s.rtt_est.rto = 1.0
        s.on_rto(1.0)
        s.on_rto(3.0)
        assert s.rtt_est.rto == 4.0

    def test_rto_with_nothing_outstanding_is_a_contract_error(self):
        s = make_sender()
        assert s.rto_deadline == math.inf  # nothing sent, so no timer runs
        with pytest.raises(ContractError, match="nothing outstanding"):
            s.on_rto(1.0)


class TestSharedFlavors:
    """A sender carrying several flavors steps them all on each event, and
    raises ``Diverged`` at the first one where they act differently."""

    @staticmethod
    def in_recovery(flavors):
        """A sender whose flavors all entered FRR on the third dupack of
        ACK 4, with 5 segments in flight: sac's rlp is 5, so its fourth
        dupack in FRR resends seq 4, where no other flavor's does."""
        s = make_sender(flavors)
        s.fill_window(0.0)
        for ack in range(1, 5):
            s.on_ack_segment(ack_segment(ack), ack * 0.1)
        for k in range(3):
            s.on_ack_segment(ack_segment(4), 0.5 + k * 0.01)
        assert [cc.phase for cc in (s.cc, *s.shadows)] == [CcPhase.FRR] * 5
        return s

    def test_agreeing_flavors_all_advance(self):
        s = self.in_recovery(tuple(Flavor))
        before = (s.cc, *s.shadows)
        s.on_ack_segment(ack_segment(4), 0.6)
        after = (s.cc, *s.shadows)
        assert s.flavors == tuple(Flavor)
        assert [new.cwnd - old.cwnd for old, new in zip(before, after)] == [1] * 5
        assert [new.dupacks - old.dupacks for old, new in zip(before, after)] == [1] * 5

    @pytest.mark.parametrize("sac_at", [0, 2, 4])
    def test_sac_resend_raises_the_agreeing_groups_and_changes_nothing(self, sac_at):
        others = [f for f in Flavor if f is not Flavor.SAC]
        flavors = (*others[:sac_at], Flavor.SAC, *others[sac_at:])
        s = self.in_recovery(flavors)
        for k in range(3):
            s.on_ack_segment(ack_segment(4), 0.6 + k * 0.01)
        before = (s.cc, s.shadows, s.high_sent, dict(s.send_timestamps), len(s.trace.records))
        with pytest.raises(Diverged) as raised:
            s.on_ack_segment(ack_segment(4), 0.7)
        rest = [i for i in range(5) if i != sac_at]
        assert raised.value.args == ([rest, [sac_at]] if sac_at else [[0], rest],)
        after = (s.cc, s.shadows, s.high_sent, dict(s.send_timestamps), len(s.trace.records))
        assert after == before


class TestReceiver:
    def make(self):
        return ReceiverEndpoint()

    def test_contiguous_merge(self):
        r = self.make()
        r.rcv_next = 5
        r.ooo_buffer = {6, 7}
        ack = r.on_data(data_segment(5), 1.0)
        assert r.rcv_next == 8
        assert ack.seq == 8

    def test_out_of_order_buffers_and_dupacks(self):
        r = self.make()
        r.rcv_next = 5
        ack = r.on_data(data_segment(7), 1.0)
        assert ack.seq == 5
        assert r.ooo_buffer == {7}

    def test_below_window_duplicate(self):
        r = self.make()
        r.rcv_next = 5
        ack = r.on_data(data_segment(3), 1.0)
        assert ack.seq == 5
        assert r.ooo_buffer == set()

    def test_one_ack_per_data_segment(self):
        r = self.make()
        acks = [r.on_data(data_segment(i), float(i)) for i in range(5)]
        assert all(a is not None for a in acks)
        assert [a.seq for a in acks] == [1, 2, 3, 4, 5]

    def test_sack_blocks_trigger_first_capped_at_three(self):
        r = self.make()
        r.rcv_next = 0
        for seq in (2, 5, 8, 11):
            r.on_data(data_segment(seq), 1.0)
        ack = r.on_data(data_segment(3), 2.0)
        # block containing the triggering segment comes first
        assert ack.sack[0] == (2, 4)
        assert len(ack.sack) == 3

    def test_sack_blocks_without_trigger_highest_first(self):
        r = self.make()
        r.rcv_next = 5
        r.ooo_buffer = {7, 8, 11}
        duplicate = r.on_data(data_segment(3), 1.0)
        in_order = r.on_data(data_segment(5), 2.0)  # does not reach the buffer
        assert (duplicate.seq, duplicate.sack) == (5, ((11, 12), (7, 9)))
        assert (in_order.seq, in_order.sack) == (6, ((11, 12), (7, 9)))
        assert r.ooo_buffer == {7, 8, 11}


_ACK_OPS = st.lists(
    st.tuples(
        st.sampled_from(["new", "dup", "rto"]),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.001, 0.5),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(flavor=st.sampled_from(list(Flavor)), ops=_ACK_OPS)
def test_ack_path_keeps_exactly_the_unacked_send_state(flavor, ops):
    """After every ACK or RTO, send_timestamps holds exactly what a filter
    over everything recorded so far keeps: the seqs at or above cc.last_ack,
    with no send time for a retransmitted one."""
    s = make_sender(flavor)
    now = 0.0
    sent_at: dict[int, float] = {}
    retransmitted: set[int] = set()

    def record(segments):
        for seg in segments:
            if seg.retx:
                retransmitted.add(seg.seq)
            else:
                sent_at[seg.seq] = now

    record(s.fill_window(now))
    for op, a, b, dt in ops:
        now += dt
        last, high = s.cc.last_ack, s.high_sent
        if op == "new" and high > last:
            out = s.on_ack_segment(ack_segment(last + 1 + int(a * (high - last - 1))), now)
        elif op == "dup":
            lo = last + 1 + int(a * max(high - last - 1, 0))
            block = [(lo, lo + 1 + int(b * max(high - lo - 1, 0)))] if lo < high else []
            out = s.on_ack_segment(ack_segment(last, sack=block), now)
        elif s.outstanding > 0:
            out = s.on_rto(now)
        else:
            out = []
        record(out)
        ack = s.cc.last_ack
        assert s.send_timestamps == {
            q: None if q in retransmitted else t for q, t in sent_at.items() if q >= ack
        }
        assert set(s.send_timestamps) == set(range(ack, s.high_sent))
