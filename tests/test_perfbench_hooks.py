"""The traced benchmark pass in ``perfbench/`` wraps meshtcp functions and
methods by name; this fails when one of those names goes away."""

from pathlib import Path

from meshtcp.cc import Flavor
from meshtcp.endpoint import SenderEndpoint
from meshtcp.engine import run_until
from meshtcp.mesh import LinkModel, build_chain
from meshtcp.world import FlowConfig, MeshWorld

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_runs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    originals = (MeshWorld.handle, SenderEndpoint.fill_window, SenderEndpoint.on_ack_segment)
    tracer = Tracer()
    tracer.install()
    try:
        world = MeshWorld(build_chain(3, LinkModel()), [FlowConfig(Flavor.SAC, hops=2)], seed=1)
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
