import inspect
import math
import random
from collections import Counter

import pytest

from conftest import (
    check_conservation,
    check_cwnd_positive,
    check_group_exclusivity,
    check_phase_edges,
    check_window_discipline,
    route,
)
from meshtcp.cc import Flavor
from meshtcp.endpoint import ReceiverEndpoint, RttEstimator, SenderEndpoint
from meshtcp.engine import EventKind, TraceKind, run_until
from meshtcp.mesh import ChainTopology, DropDirective, LinkModel, _Link
from meshtcp.metrics import summarize
from meshtcp.world import MeshWorld


def run_world(flavor, hops=1, seed=1, duration=5.0, link=None, drops=(),
              app_limit=None):
    topo = ChainTopology(hops + 1, link or LinkModel(), drops=drops)
    world = MeshWorld(topo, flavor, seed=seed, app_limit=app_limit)
    return world, run_until(world, duration)


def test_each_constructor_takes_exactly_its_declared_options():
    # the wiring census: adding or removing an option is a declared edit here
    def options(cls):
        return [
            name for name, p in inspect.signature(cls).parameters.items()
            if p.kind is p.KEYWORD_ONLY or p.default is not p.empty
        ]

    assert {
        cls.__name__: options(cls)
        for cls in (MeshWorld, SenderEndpoint, ReceiverEndpoint, RttEstimator)
    } == {
        "MeshWorld": ["seed", "app_limit", "rto_min", "trace"],
        "SenderEndpoint": ["trace", "app_limit", "rto_min"],
        "ReceiverEndpoint": [],
        "RttEstimator": ["rto_min"],
    }
    # and the state census: a new per-world slot is a declared edit too
    assert MeshWorld.__slots__ == (
        "events", "trace", "net", "_expiry_at", "sender", "receiver", "forks",
    )


def test_each_link_holds_only_its_own_state():
    # the per-link census: the link parameters live once, in the shared
    # model, and a new per-link slot is a declared edit here
    assert _Link.__slots__ == ("hop", "model", "queue", "group", "loss", "next")


def test_lossless_run_clean_metrics():
    _, trace = run_world(Flavor.NEWRENO, app_limit=100, duration=10.0)
    s = summarize(trace.records)
    assert s.plr == 0.0
    assert s.rto_count == 0
    first = next(r for r in trace.records if r.kind is TraceKind.CWND_SAMPLE)
    assert (first.time, first.value) == (0.0, 1)


def test_double_drop_script_newreno_times_out_sac_does_not():
    script = (DropDirective(1, 10, 1), DropDirective(1, 10, 2))
    _, nr_trace = run_world(Flavor.NEWRENO, duration=5.0, drops=script)
    _, sac_trace = run_world(Flavor.SAC, duration=5.0, drops=script)
    assert summarize(nr_trace.records).rto_count >= 1
    assert summarize(sac_trace.records).rto_count == 0


def test_invariants_on_lossy_runs(transmissions):
    for flavor in (Flavor.SAC, Flavor.NEWRENO, Flavor.VEGAS):
        world, trace = run_world(
            flavor, hops=3, seed=9, duration=8.0,
            link=LinkModel(loss_rate=1.0),
        )
        check_phase_edges(trace)
        check_cwnd_positive(trace)
        check_window_discipline(trace)
        check_conservation(world, trace)
        check_group_exclusivity(transmissions[world.net])


def test_one_ack_per_delivered_data_segment():
    # delayed acks are off by default: ACK originations must equal data
    # deliveries exactly
    for rate in (0.0, 1.0):
        _, trace = run_world(Flavor.SACK, hops=2, seed=2,
                             duration=5.0, link=LinkModel(loss_rate=rate))
        data_delivered = sum(
            1 for r in trace.records
            if r.kind is TraceKind.DELIVER and r.value == "data"
        )
        acks_sent = sum(
            1 for r in trace.records
            if r.kind is TraceKind.SEND and r.value == "ack"
        )
        assert acks_sent == data_delivered


def test_same_seed_same_trace_different_seed_differs():
    _, a = run_world(Flavor.RENO, hops=2, seed=4, duration=4.0,
                     link=LinkModel(loss_rate=1.0))
    _, b = run_world(Flavor.RENO, hops=2, seed=4, duration=4.0,
                     link=LinkModel(loss_rate=1.0))
    _, c = run_world(Flavor.RENO, hops=2, seed=5, duration=4.0,
                     link=LinkModel(loss_rate=1.0))
    assert a.export() == b.export()
    assert a.export() != c.export()


def test_fuzz_invariants_random_configurations(transmissions):
    rng = random.Random(0xF00D)
    for _ in range(25):
        flavor = rng.choice(list(Flavor))
        hops = rng.randint(1, 4)
        rate = rng.choice([0.0, 0.5, 2.0])
        seed = rng.randint(0, 2**32)
        queue = rng.choice([5, 20, 50])
        world, trace = run_world(
            flavor, hops=hops, seed=seed, duration=3.0,
            link=LinkModel(loss_rate=rate, queue_capacity=queue),
        )
        check_phase_edges(trace)
        check_cwnd_positive(trace)
        check_window_discipline(trace)
        check_conservation(world, trace)
        check_group_exclusivity(transmissions[world.net])


# Events handled per kind, frozen from the simulator before the per-event
# path was rewritten; timer_expiry was re-frozen when each flow came to keep
# one queued expiry instead of one per re-arm. MeshWorld.handle is wrapped on the class, as the
# benchmark's counting pass does, so this also pins it as the one dispatch
# entry: an event delivered any other way would go uncounted.
EVENT_COUNTS = {
    (Flavor.SAC, 4, 1.0, 7): {
        "app_tick": 1, "channel_free": 4365, "segment_arrival": 4354, "timer_expiry": 57,
    },
    (Flavor.NEWRENO, 4, 1.0, 7): {
        "app_tick": 1, "channel_free": 4365, "segment_arrival": 4354, "timer_expiry": 57,
    },
    (Flavor.RENO, 4, 1.0, 7): {
        "app_tick": 1, "channel_free": 3842, "segment_arrival": 3833, "timer_expiry": 43,
    },
    (Flavor.SACK, 4, 1.0, 7): {
        "app_tick": 1, "channel_free": 4388, "segment_arrival": 4379, "timer_expiry": 57,
    },
    (Flavor.VEGAS, 4, 1.0, 7): {
        "app_tick": 1, "channel_free": 3836, "segment_arrival": 3827, "timer_expiry": 59,
    },
    (Flavor.NEWRENO, 12, 0.2, 3): {
        "app_tick": 1, "channel_free": 12723, "segment_arrival": 12716, "timer_expiry": 38,
    },
    (Flavor.SAC, 12, 0.2, 3): {
        "app_tick": 1, "channel_free": 12723, "segment_arrival": 12716, "timer_expiry": 38,
    },
}


@pytest.mark.parametrize(
    "point", list(EVENT_COUNTS), ids=lambda p: f"{p[0].value}-{p[1]}hops-loss{p[2]}-seed{p[3]}"
)
def test_event_counts_per_kind_are_locked(monkeypatch, point):
    flavor, hops, rate, seed = point
    counts = Counter()
    handle = MeshWorld.handle

    def counted(self, time, kind, payload):
        counts[kind.value] += 1
        return handle(self, time, kind, payload)

    monkeypatch.setattr(MeshWorld, "handle", counted)
    run_world(flavor, hops=hops, seed=seed, duration=10.0, link=LinkModel(loss_rate=rate))
    assert dict(counts) == EVENT_COUNTS[point]


def test_rto_fires_exactly_at_its_deadline(monkeypatch):
    # A10-style random configs: no event may be handled past a pending
    # deadline (an expiry late or lost), and on_rto runs only at the deadline
    rto_times = []
    handle, on_rto = MeshWorld.handle, SenderEndpoint.on_rto

    def checked_handle(self, time, kind, payload):
        deadline = self.sender.rto_deadline
        assert time <= deadline, (
            f"{kind.value} at t={time} past the deadline {deadline}"
        )
        return handle(self, time, kind, payload)

    def checked_on_rto(self, now):
        assert now == self.rto_deadline, f"on_rto at t={now}, deadline {self.rto_deadline}"
        rto_times.append(now)
        return on_rto(self, now)

    monkeypatch.setattr(MeshWorld, "handle", checked_handle)
    monkeypatch.setattr(SenderEndpoint, "on_rto", checked_on_rto)
    rng = random.Random(0x7173)
    for _ in range(30):
        flavor, hops = rng.choice(list(Flavor)), rng.randint(1, 4)
        link = LinkModel(loss_rate=rng.uniform(0.0, 2.0), queue_capacity=rng.choice([2, 5, 10]))
        world = MeshWorld(ChainTopology(hops + 1, link), flavor, seed=rng.getrandbits(64))
        run_until(world, 4.0)
    assert len(rto_times) > 30  # the configs do reach the timer


def test_of_two_expiries_at_one_time_the_first_popped_fires(monkeypatch):
    # the only segment is lost, so nothing moves the deadline before it is due
    topo = ChainTopology(2, LinkModel(), drops=(DropDirective(1, 0, 1),))
    world = MeshWorld(topo, Flavor.NEWRENO, seed=1, app_limit=1)
    run_until(world, 0.0)
    due = world._expiry_at
    assert due == world.sender.rto_deadline
    world.events.push(due, EventKind.TIMER_EXPIRY, None)  # ties the live one
    rto_times = []
    on_rto = SenderEndpoint.on_rto

    def counted(self, now):
        rto_times.append(now)
        return on_rto(self, now)

    monkeypatch.setattr(SenderEndpoint, "on_rto", counted)
    run_until(world, due)
    assert rto_times == [due]
    assert world._expiry_at == world.sender.rto_deadline > due


def test_link_is_idle_exactly_when_its_queue_is_empty(monkeypatch):
    # A10-style random configs: after every event, a link with an empty
    # queue neither holds its group's channel nor waits for it, and a link
    # with a queue does exactly one of the two, waiting in the FIFO once
    handle = MeshWorld.handle
    waited = 0

    def checked_handle(self, time, kind, payload):
        nonlocal waited
        handle(self, time, kind, payload)
        net = self.net
        for link in (*route(net._data_head), *route(net._ack_head)):
            sending = link.group.busy_link is link
            waiting = sum(other is link for other in link.group.fifo)
            waited += waiting
            expected = 1 if link.queue else 0
            assert sending + waiting == expected, (
                f"hop {link.hop} at t={time}: {len(link.queue)} queued, {sending=} {waiting=}"
            )

    monkeypatch.setattr(MeshWorld, "handle", checked_handle)
    rng = random.Random(0x11E)
    for _ in range(20):
        flavor, hops = rng.choice(list(Flavor)), rng.randint(1, 4)
        link = LinkModel(loss_rate=rng.uniform(0.0, 2.0), queue_capacity=rng.choice([2, 5, 10]))
        topo = ChainTopology(hops + 1, link, interference_range=rng.randint(0, 3))
        run_until(MeshWorld(topo, flavor, seed=rng.getrandbits(64)), 3.0)
    assert waited > 0  # links did wait for a busy channel


@pytest.mark.parametrize(
    "point", [(Flavor.SAC, 4, 1.0, 7), (Flavor.NEWRENO, 12, 0.2, 3)],
    ids=lambda p: f"{p[0].value}-{p[1]}hops",
)
def test_one_live_timer_entry_per_flow(monkeypatch, point):
    flavor, hops, rate, seed = point
    duration = 10.0
    handle = MeshWorld.handle
    area = last_time = last_count = 0.0

    def sampled(self, time, kind, payload):
        nonlocal area, last_time, last_count
        area += last_count * (time - last_time)
        handle(self, time, kind, payload)
        timers = [t for t, _, k, _ in self.events._heap if k is EventKind.TIMER_EXPIRY]
        if self.sender.rto_deadline < math.inf:
            assert timers.count(self._expiry_at) == 1
            assert self._expiry_at <= self.sender.rto_deadline
        last_time, last_count = time, len(timers)

    monkeypatch.setattr(MeshWorld, "handle", sampled)
    run_world(flavor, hops=hops, seed=seed, duration=duration, link=LinkModel(loss_rate=rate))
    area += last_count * (duration - last_time)
    # a re-arm pushes nothing, so only a deadline moved earlier (a shrinking
    # RTO) leaves a replaced entry behind; the mean was 12-28 with one push
    # per re-arm
    assert area / duration <= 3
