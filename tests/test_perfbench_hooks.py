"""The benchmark passes in ``perfbench/`` call meshtcp and wrap its functions
and methods by name; these fail when one of those names goes away."""

import json
import subprocess
import sys
from pathlib import Path

from meshtcp.cc import Flavor
from meshtcp.endpoint import SenderEndpoint
from meshtcp.engine import TraceKind, run_until
from meshtcp.mesh import ChainTopology, LinkModel
from meshtcp.world import MeshWorld

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_tracer_installs_runs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    originals = (MeshWorld.handle, SenderEndpoint.fill_window, SenderEndpoint.on_ack_segment)
    tracer = Tracer()
    tracer.install()
    try:
        world = MeshWorld(ChainTopology(3, LinkModel()), Flavor.SAC, seed=1)
        run_until(world, 1.0)
    finally:
        tracer.uninstall()
    assert (MeshWorld.handle, SenderEndpoint.fill_window, SenderEndpoint.on_ack_segment) == originals
    counters, _ = tracer.layers()
    assert counters["world.events.app_tick"] == 1
    assert counters["endpoint.on_ack.calls"] > 0
    assert counters["mesh.tx"] > 0
    from_handle = [
        site["calls"] for site in tracer.call_sites()
        if (site["parent"], site["name"]) == ("world.handle", "endpoint.fill_window")
    ]
    assert from_handle == [1]  # the one app tick starts the sender


def test_tracer_counts_originations_and_worlds(monkeypatch):
    # mesh.forward counts a segment once, where it starts its route, and
    # every world built runs one app tick
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        worlds = [
            MeshWorld(ChainTopology(4, LinkModel(loss_rate=1.0)), flavor, seed=3)
            for flavor in (Flavor.SAC, Flavor.NEWRENO, Flavor.RENO)
        ]
        for world in worlds:
            run_until(world, 3.0)
    finally:
        tracer.uninstall()
    counters, _ = tracer.layers()
    kinds = [r.kind for world in worlds for r in world.trace.records]
    assert TraceKind.DROP_WIRELESS in kinds and TraceKind.RETX in kinds
    assert counters["mesh.forward.calls"] == kinds.count(TraceKind.SEND) + kinds.count(TraceKind.RETX)
    assert counters["world.events.app_tick"] == len(worlds)


def _child(mode, *extra):
    """Run one untraced pass of ``perfbench/child.py`` on the retransmission
    scenario and return the JSON it prints last."""
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), mode, "--root", str(ROOT),
         "--config", str(ROOT / "configs" / "retransmission_loss.cfg"), *extra, "--", "run"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert "error" not in result, result.get("error")
    return result


def test_child_setup_builds_the_first_sweep_point():
    assert _child("setup")["setup_s"] > 0


def test_child_count_sees_every_event(tmp_path):
    result = _child("count", "--out", str(tmp_path / "out"))
    assert result["exit_code"] == 0
    # sac and newreno share one world until sac resends the lost
    # retransmission, so the events before that are handled once
    assert result["events"] == {
        "app_tick": 1, "channel_free": 755, "segment_arrival": 753, "timer_expiry": 6,
    }
