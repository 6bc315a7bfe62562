import pytest

from conftest import (
    check_conservation,
    check_group_exclusivity,
    link_of,
    route,
)
from meshtcp.cc import Flavor
from meshtcp.endpoint import Segment, SegmentKind
from meshtcp.engine import (
    EventKind,
    EventQueue,
    RngStream,
    RunTrace,
    TraceKind,
    run_until,
)
from meshtcp.errors import ContractError
from meshtcp.mesh import (
    ChainTopology,
    DropDirective,
    LinkModel,
    LossProcess,
    MeshNetwork,
    ScriptedDrops,
)
from meshtcp.world import MeshWorld


def data_seg(seq, size=1460):
    return Segment(SegmentKind.DATA, seq, size)


def make_net(n_nodes=2, seed=1, **link_kwargs):
    topo = ChainTopology(n_nodes, LinkModel(**link_kwargs))
    events = EventQueue()
    trace = RunTrace()
    net = MeshNetwork(topo, events=events, trace=trace, seed=seed)
    return net, events, trace


class TestBuildChain:
    def test_five_nodes_four_hops(self):
        topo = ChainTopology(5, LinkModel())
        assert topo.n_nodes == 5
        assert topo.link == LinkModel()

    def test_minimal_chain_single_group(self):
        topo = ChainTopology(2, LinkModel())
        assert topo.n_nodes == 2
        assert topo.n_groups == 1

    def test_interference_partition_range_two(self):
        topo = ChainTopology(8, LinkModel(), interference_range=2)
        assert [topo.group_of(h) for h in range(1, 8)] == [0, 0, 0, 1, 1, 1, 2]

    def test_interference_partition_range_zero(self):
        topo = ChainTopology(4, LinkModel(), interference_range=0)
        assert [topo.group_of(h) for h in range(1, 4)] == [0, 1, 2]


class TestTransmissionTiming:
    def test_data_segment_timing(self):
        # 1500 bytes at 2 Mb/s is 6 ms on the air, plus 1 ms propagation
        net, events, _ = make_net()
        net.forward(data_seg(0, size=1500), 0.0)
        fired = {}
        while events._heap:
            t, kind, payload = events.pop()
            fired[kind] = t
        assert fired[EventKind.CHANNEL_FREE] == pytest.approx(0.006)
        assert fired[EventKind.SEGMENT_ARRIVAL] == pytest.approx(0.007)

    def test_ack_segment_timing(self):
        net, events, _ = make_net()
        net.forward(Segment(SegmentKind.ACK, 1, 40), 0.0)
        t, kind, _ = events.pop()
        assert kind is EventKind.CHANNEL_FREE
        assert t == pytest.approx(0.00016)


class TestRoutes:
    @pytest.mark.parametrize("n_nodes", [2, 4, 7])
    def test_each_route_crosses_every_hop_once_from_its_head(self, n_nodes):
        scripted_hop = n_nodes // 2
        topo = ChainTopology(n_nodes, LinkModel(loss_rate=0.5), interference_range=1,
                           drops=(DropDirective(scripted_hop, 3, 1),))
        net = MeshNetwork(topo, events=EventQueue(), trace=RunTrace(), seed=1)
        data, ack = route(net._data_head), route(net._ack_head)
        hops = list(range(1, n_nodes))
        assert [link.hop for link in data] == hops
        assert [link.hop for link in ack] == hops[::-1]
        assert not set(map(id, data)) & set(map(id, ack))
        for up, down in zip(data, reversed(ack)):
            assert up.group is down.group
            assert up.group.index == topo.group_of(up.hop)
            assert isinstance(down.loss, LossProcess)
            assert isinstance(up.loss, ScriptedDrops if up.hop == scripted_hop else LossProcess)

    def test_arrival_forwards_until_the_end_of_the_route(self):
        # data runs up the chain and ends at the last node; an ACK runs
        # down and ends at node 1
        net, _, trace = make_net(n_nodes=4)
        data, ack = data_seg(0), Segment(SegmentKind.ACK, 1, 40)
        net.forward(data, 0.0)
        net.forward(ack, 0.0)
        assert list(link_of(net, 1, 2).queue) == [data]
        assert list(link_of(net, 4, 3).queue) == [ack]
        assert not net.arrive(link_of(net, 1, 2).next, data, 0.01)
        assert list(link_of(net, 2, 3).queue) == [data]
        assert not net.arrive(link_of(net, 4, 3).next, ack, 0.01)
        assert list(link_of(net, 3, 2).queue) == [ack]
        assert not link_of(net, 2, 1).queue and not link_of(net, 3, 4).queue
        assert net.arrive(link_of(net, 3, 4).next, data, 0.02)
        assert net.arrive(link_of(net, 2, 1).next, ack, 0.02)
        delivered = [(r.seq, r.value) for r in trace.records if r.kind is TraceKind.DELIVER]
        assert delivered == [(0, "data"), (1, "ack")]
        assert net.carried == 0


def queue_drops(trace):
    return [r.seq for r in trace.records if r.kind is TraceKind.DROP_QUEUE]


class TestQueueing:
    def test_accepts_below_capacity(self):
        net, _, trace = make_net(queue_capacity=50)
        for seq in range(10):
            net.forward(data_seg(seq), 0.0)
        assert len(link_of(net, 1, 2).queue) == 10
        assert queue_drops(trace) == []
        assert net.carried == 10

    def test_overflow_drops_tail(self):
        net, _, trace = make_net(queue_capacity=50)
        for seq in range(51):
            net.forward(data_seg(seq), 0.0)
        assert len(link_of(net, 1, 2).queue) == 50
        assert queue_drops(trace) == [50]
        assert net.carried == 50

    def test_capacity_one_drops_while_transmitting(self):
        net, _, trace = make_net(queue_capacity=1)
        net.forward(data_seg(0), 0.0)  # starts transmitting
        net.forward(data_seg(1), 0.001)
        assert [seg.seq for seg in link_of(net, 1, 2).queue] == [0]
        assert queue_drops(trace) == [1]
        assert net.carried == 1


class TestChannelArbitration:
    def test_same_group_serializes_fifo(self, transmissions):
        # two links of one group: the second request waits for the first
        net, events, _ = make_net(n_nodes=3)
        log = transmissions[net]
        net.enqueue(link_of(net, 1, 2), data_seg(0), 0.0)
        net.enqueue(link_of(net, 2, 3), data_seg(1), 0.0)
        assert len(log) == 1  # second transmission not started yet
        while events._heap:
            t, kind, payload = events.pop()
            if kind is EventKind.CHANNEL_FREE:
                net.on_channel_free(payload, t)
        starts = sorted(s for _, s, _ in log)
        assert starts[1] == pytest.approx(0.00584)  # after the first finishes

    def test_disjoint_groups_transmit_concurrently(self, transmissions):
        net, _, _ = make_net(n_nodes=5, queue_capacity=10)
        log = transmissions[net]
        net.enqueue(link_of(net, 1, 2), data_seg(0), 0.0)  # hop 1, group 0
        net.enqueue(link_of(net, 4, 5), data_seg(1), 0.0)  # hop 4, group 1
        starts = sorted((g, s) for g, s, _ in log)
        assert starts == [(0, 0.0), (1, 0.0)]

    def test_start_on_held_channel_raises(self):
        net, _, _ = make_net(n_nodes=3)
        net.enqueue(link_of(net, 1, 2), data_seg(0), 0.0)  # holds group 0
        waiting = link_of(net, 2, 3)
        waiting.queue.append(data_seg(1))
        with pytest.raises(ContractError, match="group 0 is held"):
            net._start_transmission(waiting, 0.001)

    def test_free_by_non_holder_raises(self):
        net, _, _ = make_net(n_nodes=3)
        net.enqueue(link_of(net, 1, 2), data_seg(0), 0.0)  # holds group 0
        net.enqueue(link_of(net, 2, 3), data_seg(1), 0.0)  # waits
        with pytest.raises(ContractError, match="without holding"):
            net.on_channel_free(link_of(net, 2, 3), 0.00584)
        net.on_channel_free(link_of(net, 1, 2), 0.00584)  # hands over to hop 2
        net.on_channel_free(link_of(net, 2, 3), 0.01168)
        with pytest.raises(ContractError, match="without holding"):
            net.on_channel_free(link_of(net, 2, 3), 0.01168)  # the channel is idle


class TestLossProcess:
    def test_zero_rate_never_drops(self):
        p = LossProcess(RngStream(1, "x"), 0.0)
        assert not any(p.decide(None, t * 0.006, 0.006) for t in range(1000))

    def test_poisson_mean_single_seed(self):
        # oracle: loss instants at rate 0.2/s over 1000 s of continuous
        # transmission yield about 200 drops (3-sigma band of ~42)
        p = LossProcess(RngStream(42, "loss"), 0.2)
        tx = 0.02
        drops = sum(p.decide(None, k * tx, tx) for k in range(int(1000 / tx)))
        assert abs(drops - 200) < 3 * 200 ** 0.5

    def test_instants_identical_across_consumers(self):
        # the instant sequence depends only on (seed, name), not on how the
        # decide windows are laid out
        p1 = LossProcess(RngStream(9, "l"), 1.0)
        p2 = LossProcess(RngStream(9, "l"), 1.0)
        hits1 = [t for t in range(2000) if p1.decide(None, t * 0.01, 0.01)]
        # coarser windows over the same horizon
        hits2 = [t for t in range(1000) if p2.decide(None, t * 0.02, 0.02)]
        # every fine-window hit lands inside a hit coarse window
        coarse = {h for h in hits2}
        assert all((t // 2) in coarse for t in hits1)


class TestScriptedDrops:
    def test_exact_nth_transmissions_dropped(self):
        s = ScriptedDrops({(10, 1), (10, 2)})
        seg = data_seg(10)
        assert s.decide(seg, 0.0, 0.006)      # 1st transmission
        assert s.decide(seg, 0.1, 0.006)      # 2nd transmission
        assert not s.decide(seg, 0.2, 0.006)  # 3rd passes
        assert not s.decide(data_seg(11), 0.3, 0.006)

    def test_each_drop_stays_on_its_hop(self, transmissions):
        # one group per hop: hop 2 is group 1, and its data link alone
        # loses seq 10's first transmission
        topo = ChainTopology(4, LinkModel(), interference_range=0, drops=(DropDirective(2, 10, 1),))
        world = MeshWorld(topo, Flavor.NEWRENO, seed=1)
        trace = run_until(world, 5.0)
        drops = [r for r in trace.records if r.kind is TraceKind.DROP_WIRELESS]
        assert [(r.seq, r.value) for r in drops] == [(10, "data")]
        group1_starts = {start for group, start, _ in transmissions[world.net] if group == 1}
        assert drops[0].time in group1_starts

    def test_acks_are_never_dropped(self):
        drops = tuple(DropDirective(1, s, 1) for s in range(1, 31))
        world = MeshWorld(ChainTopology(2, LinkModel(), drops=drops), Flavor.SACK, seed=1)
        trace = run_until(world, 5.0)
        dropped = [r.value for r in trace.records if r.kind is TraceKind.DROP_WIRELESS]
        assert dropped and set(dropped) == {"data"}


class TestIntegratedRuns:
    def test_lossless_run_delivers_everything(self):
        topo = ChainTopology(3, LinkModel(queue_capacity=500))
        world = MeshWorld(topo, Flavor.NEWRENO, seed=3, app_limit=200)
        trace = run_until(world, 30.0)
        delivered = {
            r.seq
            for r in trace.records
            if r.kind is TraceKind.DELIVER and r.value == "data"
        }
        assert delivered == set(range(200))
        assert world.net.carried == 0
        check_conservation(world, trace)

    def test_data_fifo_order_without_loss(self):
        topo = ChainTopology(2, LinkModel())
        world = MeshWorld(topo, Flavor.RENO, seed=3, app_limit=100)
        trace = run_until(world, 30.0)
        seqs = [
            r.seq for r in trace.records if r.kind is TraceKind.DELIVER and r.value == "data"
        ]
        assert seqs == sorted(seqs)

    def test_group_exclusivity_and_conservation_lossy(self, transmissions):
        topo = ChainTopology(5, LinkModel(loss_rate=1.0))
        world = MeshWorld(topo, Flavor.SAC, seed=11)
        trace = run_until(world, 10.0)
        assert any(r.kind is TraceKind.DROP_WIRELESS for r in trace.records)
        check_group_exclusivity(transmissions[world.net])
        check_conservation(world, trace)
