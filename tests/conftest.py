"""Shared invariant checkers used by unit and acceptance tests."""

from collections import defaultdict

import pytest

from meshtcp.engine import TraceKind
from meshtcp.mesh import MeshNetwork

LEGAL_PHASE_EDGES = {
    ("SS", "CA"),
    ("SS", "FRR"),
    ("CA", "FRR"),
    ("FRR", "CA"),
    ("CA", "SS"),
    ("FRR", "SS"),
}

TERMINAL_KINDS = (TraceKind.DELIVER, TraceKind.DROP_WIRELESS, TraceKind.DROP_QUEUE)


def check_phase_edges(trace):
    """Every recorded phase transition must be a legal edge from SS."""
    phase = "SS"
    for r in trace.records:
        if r.kind is TraceKind.PHASE_CHANGE:
            assert (phase, r.value) in LEGAL_PHASE_EDGES, (
                f"illegal phase edge {phase}->{r.value} at t={r.time}"
            )
            phase = r.value


def check_cwnd_positive(trace):
    for r in trace.records:
        if r.kind is TraceKind.CWND_SAMPLE:
            assert r.value >= 1, f"cwnd {r.value} below 1 at t={r.time}"


def check_window_discipline(trace):
    """Replay the trace: every new data send must fit inside the window
    that was in force at that instant."""
    cwnd = 1
    last_ack = 0
    for r in trace.records:
        if r.kind is TraceKind.CWND_SAMPLE:
            cwnd = r.value
        elif r.kind is TraceKind.DELIVER and r.value == "ack":
            last_ack = max(last_ack, r.seq)
        elif r.kind is TraceKind.SEND and r.value == "data":
            outstanding = r.seq + 1 - last_ack
            assert outstanding <= cwnd, (
                f"window violated at t={r.time}: seq={r.seq} "
                f"last_ack={last_ack} cwnd={cwnd}"
            )


def route(head):
    """The links a segment crosses from ``head`` to the end of its route."""
    links = []
    while head is not None:
        assert head not in links, f"the route crosses hop {head.hop} twice"
        links.append(head)
        head = head.next
    return links


def link_of(net, src, dst):
    """The directed link of ``net`` from node ``src`` to its neighbour ``dst``,
    found on the route that crosses it."""
    assert abs(dst - src) == 1
    links = route(net._data_head if dst > src else net._ack_head)
    (link,) = [link for link in links if link.hop == min(src, dst)]
    return link


def check_conservation(world, trace):
    """Originated segments = terminal records + still-in-flight count."""
    sends = terminal = 0
    for r in trace.records:
        if r.kind in (TraceKind.SEND, TraceKind.RETX):
            sends += 1
        elif r.kind in TERMINAL_KINDS:
            terminal += 1
    balance = sends - terminal
    assert balance >= 0, f"more terminals ({terminal}) than sends ({sends})"
    carried = world.net.carried
    assert balance == carried, f"trace balance {balance} != in-flight counter {carried}"


@pytest.fixture
def transmissions(monkeypatch):
    """Log every transmission a network starts as (group, start, end), one
    list per network: ``transmissions[net]``. Wraps
    ``MeshNetwork._start_transmission`` on the class, so a world copied
    from another logs its own network's transmissions."""
    logs = defaultdict(list)
    start = MeshNetwork._start_transmission

    def recorded(net, link, now):
        start(net, link, now)
        end = now + link.queue[0].size_bytes * 8.0 / link.bandwidth_bps
        logs[net].append((link.group.index, now, end))

    monkeypatch.setattr(MeshNetwork, "_start_transmission", recorded)
    return logs


def check_group_exclusivity(log):
    """No two transmissions within one interference group may overlap.
    ``log`` is one network's list from the ``transmissions`` fixture."""
    by_group = {}
    for group, start, end in log:
        by_group.setdefault(group, []).append((start, end))
    for group, intervals in by_group.items():
        intervals.sort()
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert s2 >= e1 - 1e-12, (
                f"group {group}: transmission [{s2},{e2}] overlaps [{s1},{e1}]"
            )
