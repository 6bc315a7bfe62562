import pytest

from meshtcp.cc import CcPhase, Flavor
from meshtcp.endpoint import (
    ReceiverEndpoint,
    RttEstimator,
    Segment,
    SegmentKind,
    SenderEndpoint,
)
from meshtcp.engine import RunTrace, TraceKind
from meshtcp.errors import ContractError


def ack_segment(ack, flow_id=0, sack=()):
    return Segment(
        kind=SegmentKind.ACK, flow_id=flow_id, seq=ack, size_bytes=40,
        src=2, dst=1, sack=tuple(sack),
    )


def data_segment(seq, flow_id=0):
    return Segment(
        kind=SegmentKind.DATA, flow_id=flow_id, seq=seq, size_bytes=1460,
        src=1, dst=2,
    )


def make_sender(flavor=Flavor.NEWRENO, **kwargs):
    return SenderEndpoint(
        0, flavor, 1460, src=1, dst=2, trace=RunTrace(), **kwargs
    )


class TestRttEstimator:
    def test_first_sample(self):
        est = RttEstimator(rto_min=0.2, rto_max=60.0)
        est.update(1.0)
        assert est.srtt == 1.0
        assert est.rttvar == 0.5
        assert est.rto == 3.0

    def test_subsequent_sample(self):
        est = RttEstimator(rto_min=0.2, rto_max=60.0)
        est.update(1.0)
        est.update(1.0)
        assert est.rttvar == 0.375
        assert est.srtt == 1.0
        assert est.rto == 2.5

    def test_clamp_to_rto_min(self):
        est = RttEstimator(rto_min=0.2, rto_max=60.0)
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
        with pytest.raises(ContractError):
            RttEstimator().update(0.0)


class TestSenderWindow:
    def test_fill_from_empty(self):
        s = make_sender()
        s.cc = s.cc.__class__(**{**s.cc.__dict__, "cwnd": 4})
        segs = s.fill_window(0.0)
        assert [g.seq for g in segs] == [0, 1, 2, 3]
        assert s.high_sent == 4
        assert s.rto_deadline is not None

    def test_full_window_sends_nothing(self):
        s = make_sender()
        s.cc = s.cc.__class__(**{**s.cc.__dict__, "cwnd": 4})
        s.fill_window(0.0)
        assert s.fill_window(0.1) == []

    def test_app_limit_binds(self):
        s = make_sender(app_limit=2)
        s.cc = s.cc.__class__(**{**s.cc.__dict__, "cwnd": 10})
        segs = s.fill_window(0.0)
        assert [g.seq for g in segs] == [0, 1]


class TestSenderAckHandling:
    def test_new_ack_advances_and_sends(self):
        s = make_sender()
        s.fill_window(0.0)  # sends seq 0, cwnd 1
        out = s.on_ack_segment(ack_segment(1), 0.2)
        assert s.cc.last_ack == 1
        assert s.cc.cwnd == 2
        assert [g.seq for g in out] == [1, 2]
        assert s.rtt_est.has_sample  # 0.2 s sample taken

    def test_duplicate_ack_path(self):
        s = make_sender()
        s.cc = s.cc.__class__(**{**s.cc.__dict__, "cwnd": 8})
        s.fill_window(0.0)
        s.on_ack_segment(ack_segment(0), 0.1)
        assert s.cc.dupacks == 1
        assert s.cc.last_ack == 0

    def test_stale_ack_ignored_and_recorded(self):
        s = make_sender()
        s.fill_window(0.0)
        s.on_ack_segment(ack_segment(2), 0.2)
        before = s.cc
        out = s.on_ack_segment(ack_segment(1), 0.3)
        assert out == []
        assert s.cc == before
        assert any(r.kind is TraceKind.STALE_ACK for r in s.trace)

    def test_third_dupack_retransmits_before_new_data(self):
        s = make_sender()
        s.cc = s.cc.__class__(**{**s.cc.__dict__, "cwnd": 10})
        s.fill_window(0.0)
        for _ in range(2):
            s.on_ack_segment(ack_segment(0), 0.1)
        out = s.on_ack_segment(ack_segment(0), 0.12)
        assert out[0].retx and out[0].seq == 0
        assert s.cc.phase is CcPhase.FRR

    def test_sac_second_retransmission_restarts_timer(self):
        s = make_sender(Flavor.SAC)
        s.cc = s.cc.__class__(**{**s.cc.__dict__, "cwnd": 20})
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
        assert s.rto_deadline is None


class TestKarnRule:
    def test_no_sample_from_retransmitted_segment(self):
        s = make_sender()
        s.fill_window(0.0)  # seq 0 out
        s.on_rto(1.0)       # seq 0 retransmitted
        assert not s.rtt_est.has_sample
        s.on_ack_segment(ack_segment(1), 1.2)
        assert not s.rtt_est.has_sample  # covered seq 0 was retransmitted

    def test_sample_from_fresh_segment(self):
        s = make_sender()
        s.fill_window(0.0)
        s.on_ack_segment(ack_segment(1), 0.25)
        assert s.rtt_est.has_sample
        assert s.rtt_est.srtt == pytest.approx(0.25)


class TestSenderRto:
    def test_rto_backs_off_and_collapses_window(self):
        s = make_sender()
        s.cc = s.cc.__class__(**{**s.cc.__dict__, "cwnd": 8})
        s.fill_window(0.0)
        rto_before = s.rtt_est.rto
        out = s.on_rto(1.0)
        assert s.rtt_est.rto == min(rto_before * 2, s.rtt_est.rto_max)
        assert s.cc.cwnd == 1
        assert s.cc.phase is CcPhase.SS
        assert [g.seq for g in out] == [0]
        assert out[0].retx
        assert any(r.kind is TraceKind.RTO for r in s.trace)

    def test_two_rtos_double_twice(self):
        s = make_sender()
        s.fill_window(0.0)
        s.rtt_est.rto = 1.0
        s.on_rto(1.0)
        s.on_rto(3.0)
        assert s.rtt_est.rto == 4.0

    def test_spurious_rto_with_nothing_outstanding(self):
        s = make_sender()
        out = s.on_rto(1.0)
        assert out == []
        assert any(r.kind is TraceKind.SPURIOUS_RTO for r in s.trace)


class TestReceiver:
    def make(self, **kwargs):
        return ReceiverEndpoint(0, node=2, peer=1, **kwargs)

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
        r = self.make(sack_enabled=True)
        r.rcv_next = 0
        for seq in (2, 5, 8, 11):
            r.on_data(data_segment(seq), 1.0)
        ack = r.on_data(data_segment(3), 2.0)
        # block containing the triggering segment comes first
        assert ack.sack[0] == (2, 4)
        assert len(ack.sack) == 3
