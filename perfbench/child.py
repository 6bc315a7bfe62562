"""One benchmark pass in a fresh interpreter; prints one JSON line.

Modes:
  setup   import meshtcp, load_config, build_world for the first sweep point
  plain   run the workload command through meshtcp.cli.main, untraced
  count   the same, counting handled events by kind (MeshWorld.handle only)
  traced  the same under the per-layer tracer; writes spans to --spans

Usage: python3 child.py MODE --root DIR --config FILE [--out DIR]
       [--spans FILE] -- MESHTCP_ARGS...
"""

from __future__ import annotations

import argparse
import heapq
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path


CALIBRATION_STEPS = 150_000


class _Node:
    __slots__ = ("queue", "sent", "next")

    def __init__(self) -> None:
        self.queue: list[int] = []
        self.sent = 0
        self.next: _Node | None = None

    def forward(self, now: float, heap: list, seq: int) -> None:
        self.sent += 1
        if len(self.queue) < 8:
            self.queue.append(seq)
        else:
            self.queue.pop(0)
        heapq.heappush(heap, (now + 0.001 * (1 + seq % 7), seq, self.next))


def calibrate() -> float:
    """Seconds that a fixed event loop (heap, small objects, method calls)
    takes right now.

    It runs no meshtcp code, so no change to meshtcp can move it; it tracks
    how fast the shared host is running while a pass is timed.
    """
    nodes = [_Node() for _ in range(8)]
    for node, after in zip(nodes, nodes[1:] + nodes[:1]):
        node.next = after
    heap = [(0.0, i, node) for i, node in enumerate(nodes)]
    start = time.perf_counter()
    for seq in range(len(nodes), len(nodes) + CALIBRATION_STEPS):
        now, _, node = heapq.heappop(heap)
        node.forward(now, heap, seq)
    return time.perf_counter() - start


def _setup(config: str) -> dict:
    start = time.perf_counter()
    from meshtcp.experiment import build_world, load_config

    spec = load_config(Path(config).read_text())
    build_world(spec, *spec.combinations()[0])
    setup_s = time.perf_counter() - start
    return {"setup_s": setup_s, "calib_s": calibrate()}


def _command(argv: list[str], calibrated: bool = False) -> dict:
    from meshtcp.cli import main

    before = calibrate() if calibrated else 0.0
    start = time.perf_counter()
    exit_code = main(argv)
    wall_s = time.perf_counter() - start
    result = {"exit_code": exit_code, "wall_s": wall_s}
    if calibrated:
        result["calib_s"] = (before + calibrate()) / 2
    return result


def _count(argv: list[str]) -> dict:
    from meshtcp.world import MeshWorld

    events: Counter[str] = Counter()
    handle = MeshWorld.handle

    def counted(self, time, kind, payload):
        events[kind.value] += 1
        return handle(self, time, kind, payload)

    MeshWorld.handle = counted
    try:
        result = _command(argv)
    finally:
        MeshWorld.handle = handle
    result["events"] = dict(events)
    return result


def _traced(argv: list[str], spans_path: str) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        result = _command(argv)
    finally:
        tracer.uninstall()
    counters, times = tracer.layers()
    result["counters"] = counters
    result["times"] = times
    Path(spans_path).write_text(
        json.dumps({"spans": tracer.spans, "call_sites": tracer.call_sites()}, indent=1)
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "plain", "count", "traced"))
    parser.add_argument("--root", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    own = sys.argv[1:]
    split = own.index("--") if "--" in own else len(own)
    args = parser.parse_args(own[:split])
    meshtcp_args = own[split + 1 :]
    sys.path.insert(0, str(Path(args.root) / "src"))
    argv = meshtcp_args[:1] + ["--config", args.config, "--out", str(args.out)]
    argv += meshtcp_args[1:]
    try:
        if args.mode == "setup":
            result = _setup(args.config)
        elif args.mode == "plain":
            result = _command(argv, calibrated=True)
        elif args.mode == "count":
            result = _count(argv)
        else:
            result = _traced(argv, args.spans)
    except Exception:  # reported to run.py, which counts the pass as failed
        result = {"error": traceback.format_exc()}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
