import random

import pytest

from meshtcp.cc import (
    CcPhase,
    CcVars,
    Flavor,
    effective_window,
    init_sender,
    on_dupack,
    on_new_ack,
    on_timeout,
)
from meshtcp.errors import ConfigError, ContractError

LEGAL_EDGES = {
    (CcPhase.SS, CcPhase.CA),
    (CcPhase.SS, CcPhase.FRR),
    (CcPhase.CA, CcPhase.FRR),
    (CcPhase.FRR, CcPhase.CA),
    (CcPhase.SS, CcPhase.SS),
    (CcPhase.CA, CcPhase.SS),
    (CcPhase.FRR, CcPhase.SS),
}


def test_init_sender_sac_1460():
    cc = init_sender(Flavor.SAC, 1460)
    assert cc.cwnd == 1
    assert cc.ssthresh == 44
    assert cc.phase is CcPhase.SS


def test_init_sender_newreno_512():
    cc = init_sender(Flavor.NEWRENO, 512)
    assert cc.cwnd == 1
    assert cc.ssthresh == 127
    assert cc.phase is CcPhase.SS


def test_init_sender_rejects_oversized_mss():
    with pytest.raises(ConfigError):
        init_sender(Flavor.VEGAS, 70000)
    with pytest.raises(ConfigError):
        init_sender(Flavor.RENO, 63)


def test_new_ack_slow_start_growth():
    cc = init_sender(Flavor.NEWRENO, 1460)
    cc = CcVars(**{**cc.__dict__, "cwnd": 2, "last_ack": 5})
    cc, retx = on_new_ack(cc, 6)
    assert cc.cwnd == 3
    assert cc.phase is CcPhase.SS
    assert retx == []


def test_new_ack_slow_start_to_ca_crossing():
    cc = CcVars(flavor=Flavor.NEWRENO, phase=CcPhase.SS, cwnd=10, ssthresh=10, last_ack=0)
    cc, _ = on_new_ack(cc, 1)
    assert cc.cwnd == 11
    assert cc.phase is CcPhase.CA


def test_new_ack_ca_linear_growth_ten_acks():
    cc = CcVars(flavor=Flavor.NEWRENO, phase=CcPhase.CA, cwnd=10, ssthresh=5, last_ack=0)
    for k in range(10):
        cc, _ = on_new_ack(cc, k + 1)
    assert cc.cwnd == 11


def test_new_ack_resets_dupack_counter():
    cc = CcVars(flavor=Flavor.RENO, phase=CcPhase.CA, cwnd=10, ssthresh=5,
                last_ack=0, dupacks=2)
    cc, _ = on_new_ack(cc, 1)
    assert cc.dupacks == 0


def test_new_ack_full_ack_exits_frr_to_ssthresh():
    cc = CcVars(flavor=Flavor.SAC, phase=CcPhase.FRR, cwnd=25, ssthresh=10,
                last_ack=100, high_seq=120, rlp=20)
    cc, retx = on_new_ack(cc, 121)
    assert cc.phase is CcPhase.CA
    assert cc.cwnd == 10
    assert cc.high_seq is None
    assert cc.rlp is None


def test_new_ack_partial_newreno_stays_and_retransmits():
    cc = CcVars(flavor=Flavor.NEWRENO, phase=CcPhase.FRR, cwnd=14, ssthresh=5,
                last_ack=10, high_seq=21)
    cc, retx = on_new_ack(cc, 12)
    assert cc.phase is CcPhase.FRR
    assert retx == [12]
    # deflated by newly acked (2) then re-inflated by 1
    assert cc.cwnd == 13


def test_new_ack_partial_sac_resets_add_dupacks():
    cc = CcVars(flavor=Flavor.SAC, phase=CcPhase.FRR, cwnd=14, ssthresh=5,
                last_ack=10, high_seq=21, rlp=11, add_dupacks=6)
    cc, retx = on_new_ack(cc, 12)
    assert cc.phase is CcPhase.FRR
    assert cc.add_dupacks == 0
    assert retx == [12]


def test_new_ack_partial_reno_exits_immediately():
    cc = CcVars(flavor=Flavor.RENO, phase=CcPhase.FRR, cwnd=14, ssthresh=5,
                last_ack=10, high_seq=21)
    cc, retx = on_new_ack(cc, 12)
    assert cc.phase is CcPhase.CA
    assert cc.cwnd == 5
    assert retx == []


def test_reno_newreno_diverge_exactly_at_partial_ack():
    """Two-segment-loss script: the trajectories split at the partial ACK."""
    events = [
        ("dup", 10, 21),
        ("dup", 10, 21),
        ("dup", 10, 21),   # third dupack enters FRR
        ("dup", 10, 21),
        ("new", 12),       # partial ACK: Reno leaves, NewReno stays
    ]
    states = {}
    for flavor in (Flavor.RENO, Flavor.NEWRENO):
        cc = CcVars(flavor=flavor, phase=CcPhase.CA, cwnd=11, ssthresh=44, last_ack=10)
        history = []
        for ev in events:
            if ev[0] == "dup":
                cc, _ = on_dupack(cc, ev[1], ev[2])
            else:
                cc, _ = on_new_ack(cc, ev[1])
            history.append(cc.phase)
        states[flavor] = history
    assert states[Flavor.RENO][:4] == states[Flavor.NEWRENO][:4]
    assert states[Flavor.RENO][4] is CcPhase.CA
    assert states[Flavor.NEWRENO][4] is CcPhase.FRR


def test_dupack_third_enters_frr_with_sac_bookkeeping():
    cc = CcVars(flavor=Flavor.SAC, phase=CcPhase.CA, cwnd=20, ssthresh=44,
                last_ack=100, dupacks=2)
    cc, retx = on_dupack(cc, 100, 120)
    assert cc.phase is CcPhase.FRR
    assert cc.ssthresh == 10
    assert cc.cwnd == 13
    assert cc.rlp == 20
    assert cc.add_dupacks == 0
    assert cc.high_seq == 120
    assert retx == [100]


def test_dupack_below_threshold_only_counts():
    cc = CcVars(flavor=Flavor.NEWRENO, phase=CcPhase.CA, cwnd=20, ssthresh=44,
                last_ack=100)
    cc, retx = on_dupack(cc, 100, 120)
    assert cc.dupacks == 1
    assert cc.phase is CcPhase.CA
    assert retx == []


def test_dupack_inflation_in_frr_newreno():
    cc = CcVars(flavor=Flavor.NEWRENO, phase=CcPhase.FRR, cwnd=13, ssthresh=10,
                last_ack=100, high_seq=120, dupacks=3)
    cc, retx = on_dupack(cc, 100, 120)
    assert cc.cwnd == 14
    assert retx == []


def test_sac_second_retransmission_fires_at_rlp_minus_one():
    cc = CcVars(flavor=Flavor.SAC, phase=CcPhase.FRR, cwnd=24, ssthresh=10,
                last_ack=100, high_seq=120, rlp=20, add_dupacks=18, dupacks=21)
    cc, retx = on_dupack(cc, 100, 120)
    assert retx == [100]
    assert cc.cwnd == 12            # inflated to 25, then halved
    assert cc.ssthresh == 10        # pinned for the whole episode
    assert cc.add_dupacks == 0      # re-armed


def test_sac_second_retransmission_never_fires_early():
    """The retransmission-loss rule fires at exactly the (rlp-1)-th
    post-entry dupack and not one event sooner."""
    cc = CcVars(flavor=Flavor.SAC, phase=CcPhase.CA, cwnd=20, ssthresh=44,
                last_ack=100, dupacks=2)
    cc, retx = on_dupack(cc, 100, 120)   # enters FRR, rlp = 20
    assert cc.rlp == 20
    fired_at = None
    for k in range(1, 20):
        cc, retx = on_dupack(cc, 100, 120)
        if retx:
            fired_at = k
            break
    assert fired_at == cc.rlp - 1 == 19


def test_sac_ssthresh_pinned_across_episode():
    cc = CcVars(flavor=Flavor.SAC, phase=CcPhase.CA, cwnd=20, ssthresh=44,
                last_ack=100, dupacks=2)
    cc, _ = on_dupack(cc, 100, 120)
    pinned = cc.ssthresh
    for _ in range(30):
        cc, _ = on_dupack(cc, 100, 120)
        assert cc.ssthresh == pinned
    cc, _ = on_new_ack(cc, 105)   # partial
    assert cc.ssthresh == pinned
    cc, _ = on_new_ack(cc, 120)   # full: episode over
    assert cc.phase is CcPhase.CA


def test_dupack_with_nothing_outstanding_cannot_enter_frr():
    cc = CcVars(flavor=Flavor.NEWRENO, phase=CcPhase.CA, cwnd=4, ssthresh=44,
                last_ack=100, dupacks=2)
    cc, retx = on_dupack(cc, 100, 100)
    assert cc.phase is CcPhase.CA
    assert retx == []


def test_dupack_contract_violations():
    cc = CcVars(flavor=Flavor.RENO, phase=CcPhase.CA, cwnd=4, ssthresh=44, last_ack=100)
    with pytest.raises(ContractError):
        on_dupack(cc, 99, 120)
    with pytest.raises(ContractError):
        on_dupack(cc, 100, 99)
    with pytest.raises(ContractError):
        on_new_ack(cc, 100)


def test_timeout_halves_flight_and_restarts_slow_start():
    cc = CcVars(flavor=Flavor.NEWRENO, phase=CcPhase.CA, cwnd=20, ssthresh=44,
                last_ack=50)
    cc, retx = on_timeout(cc, 70)
    assert cc.cwnd == 1
    assert cc.ssthresh == 10
    assert cc.phase is CcPhase.SS
    assert cc.dupacks == 0
    assert retx == [50]


def test_timeout_applies_to_sac_in_frr():
    cc = CcVars(flavor=Flavor.SAC, phase=CcPhase.FRR, cwnd=13, ssthresh=10,
                last_ack=100, high_seq=120, rlp=20, add_dupacks=5)
    cc, _ = on_timeout(cc, 120)
    assert cc.cwnd == 1
    assert cc.phase is CcPhase.SS
    assert cc.high_seq is None and cc.rlp is None and cc.add_dupacks == 0


def test_timeout_degenerate_flight_clamps_ssthresh():
    cc = CcVars(flavor=Flavor.RENO, phase=CcPhase.SS, cwnd=1, ssthresh=44, last_ack=7)
    cc, _ = on_timeout(cc, 8)
    assert cc.ssthresh == 2


def test_effective_window_examples():
    cc = CcVars(flavor=Flavor.RENO, cwnd=13, ssthresh=10)
    assert effective_window(cc, 1000) == 13
    assert effective_window(cc, 4) == 4
    assert effective_window(CcVars(flavor=Flavor.RENO, cwnd=1, ssthresh=10), 0) == 0


def test_vegas_ca_adjustment_directions():
    # diff = cwnd * (last - base) / last; alpha=1, beta=3
    base = CcVars(flavor=Flavor.VEGAS, phase=CcPhase.CA, cwnd=10, ssthresh=5,
                  last_ack=0, vegas_base_rtt=0.100, vegas_last_rtt=0.100,
                  ca_accumulator=9)
    # diff = 0 < alpha: grow
    cc, _ = on_new_ack(base, 1, rtt_sample=0.100)
    assert cc.cwnd == 11
    # diff = 10*(0.2-0.1)/0.2 = 5 > beta: shrink
    shrunk = CcVars(**{**base.__dict__, "vegas_last_rtt": 0.200})
    cc, _ = on_new_ack(shrunk, 1, rtt_sample=0.200)
    assert cc.cwnd == 9
    # diff = 10*(0.125-0.1)/0.125 = 2 in [alpha, beta]: hold
    held = CcVars(**{**base.__dict__, "vegas_last_rtt": 0.125})
    cc, _ = on_new_ack(held, 1, rtt_sample=0.125)
    assert cc.cwnd == 10


def test_vegas_tracks_base_rtt_minimum():
    cc = CcVars(flavor=Flavor.VEGAS, phase=CcPhase.CA, cwnd=4, ssthresh=2, last_ack=0)
    cc, _ = on_new_ack(cc, 1, rtt_sample=0.30)
    cc, _ = on_new_ack(cc, 2, rtt_sample=0.10)
    cc, _ = on_new_ack(cc, 3, rtt_sample=0.20)
    assert cc.vegas_base_rtt == 0.10
    assert cc.vegas_last_rtt == 0.20


def test_vegas_partial_ack_exits_like_reno():
    cc = CcVars(flavor=Flavor.VEGAS, phase=CcPhase.FRR, cwnd=14, ssthresh=5,
                last_ack=10, high_seq=21)
    cc, retx = on_new_ack(cc, 12)
    assert cc.phase is CcPhase.CA
    assert cc.cwnd == 5
    assert retx == []


def test_sack_partial_ack_retransmits_next_hole():
    cc = CcVars(flavor=Flavor.SACK, phase=CcPhase.FRR, cwnd=14, ssthresh=5,
                last_ack=10, high_seq=21,
                sack_scoreboard=frozenset(range(13, 20)),
                sack_retx=frozenset({10}))
    cc, retx = on_new_ack(cc, 12)
    assert cc.phase is CcPhase.FRR
    assert retx == [12]
    assert 12 in cc.sack_retx


def test_sack_scoreboard_drives_hole_retransmissions_once():
    cc = CcVars(flavor=Flavor.SACK, phase=CcPhase.CA, cwnd=20, ssthresh=44,
                last_ack=10, dupacks=2)
    cc, retx = on_dupack(cc, 10, 21, sack_blocks=((11, 14),))
    assert cc.phase is CcPhase.FRR
    assert retx == [10]
    # dupack reporting a later block exposes the hole at 14
    cc, retx = on_dupack(cc, 10, 21, sack_blocks=((15, 17),))
    assert retx == [14]
    # the same hole is not retransmitted twice in one episode
    cc, retx = on_dupack(cc, 10, 21, sack_blocks=((15, 18),))
    assert retx == []


def test_purity_same_inputs_same_outputs():
    cc = CcVars(flavor=Flavor.SAC, phase=CcPhase.CA, cwnd=20, ssthresh=44,
                last_ack=100, dupacks=2)
    first = on_dupack(cc, 100, 120)
    second = on_dupack(cc, 100, 120)
    assert first == second
    assert cc.dupacks == 2  # input untouched


def _random_walk(flavor: Flavor, seed: int, steps: int = 300):
    """Drive a sender through a random-but-consistent event stream and
    yield (phase_before, phase_after, cc) triples."""
    rng = random.Random(seed)
    cc = init_sender(flavor, 1460)
    high_sent = 0
    for _ in range(steps):
        # keep the sender plausibly busy
        high_sent = max(high_sent, cc.last_ack + rng.randint(1, 40))
        before = cc.phase
        roll = rng.random()
        if roll < 0.55:
            ack = rng.randint(cc.last_ack + 1, high_sent) if high_sent > cc.last_ack else cc.last_ack + 1
            high_sent = max(high_sent, ack)
            cc, _ = on_new_ack(cc, ack, rtt_sample=rng.uniform(0.01, 0.5))
        elif roll < 0.9:
            cc, _ = on_dupack(cc, cc.last_ack, high_sent)
        else:
            cc, _ = on_timeout(cc, high_sent)
        yield before, cc.phase, cc


@pytest.mark.parametrize("flavor", list(Flavor))
def test_fuzz_phase_edges_and_cwnd_positive(flavor):
    for seed in range(10):
        for before, after, cc in _random_walk(flavor, seed):
            assert (before, after) in LEGAL_EDGES or before is after
            assert cc.cwnd >= 1
            if cc.phase is CcPhase.FRR:
                assert cc.high_seq is not None and cc.high_seq >= cc.last_ack
                if flavor is Flavor.SAC:
                    assert cc.rlp is not None and cc.rlp >= 1
