"""Per-layer tracing for the traced benchmark pass.

Public functions and methods of meshtcp are replaced, where they are looked
up, by wrappers that keep an open-span stack. Each wrapped call adds its
count, total and self time to an aggregate keyed by call site (the calling
span's name and its own), so memory stays bounded however many calls a run
makes. Whole spans (start, end, parent) are kept only at the command and
sweep-point level. Deterministic counters are recorded by small hooks at the
same boundaries.

Nothing here runs in the untraced pass: the wrappers exist only between
``Tracer.install`` and ``Tracer.uninstall``.
"""

from __future__ import annotations

import pathlib
import time
from collections import Counter

ROOT = "<root>"
N_GROUPS = 4  # busy_frac.g0..g3: the longest workload chain has 4 groups


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = [[ROOT, 0.0, None]]  # [name, child time, span id]
        self.agg: dict[tuple[str, str], list] = {}  # (parent, name) -> [calls, total, self]
        self.counts: Counter[str] = Counter()
        self.busy_s = [0.0] * N_GROUPS
        self.sim_s = 0.0  # simulated seconds over all sweep points
        self.queue_hwm = 0
        self.spans: list[dict] = []  # command and sweep-point spans only
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def span(self, owner, attr: str, name: str, before=None, whole: bool = False) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``before(args)`` runs ahead of the call to update counters. With
        ``whole`` the call is also kept as a complete span record.
        """
        stack, agg, spans, clock = self.stack, self.agg, self.spans, time.perf_counter

        def wrapper(original):
            def traced(*args, **kwargs):
                if before is not None:
                    before(args)
                span_id = None
                if whole:
                    span_id = len(spans)
                    spans.append({"id": span_id, "name": name, "parent": stack[-1][2]})
                frame = [name, 0.0, span_id if whole else stack[-1][2]]
                stack.append(frame)
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    end = clock()
                    elapsed = end - start
                    stack.pop()
                    parent = stack[-1]
                    parent[1] += elapsed
                    key = (parent[0], name)
                    entry = agg.get(key)
                    if entry is None:
                        entry = agg[key] = [0, 0.0, 0.0]
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[1]
                    if whole:
                        spans[span_id].update(start=start, end=end)

            return traced

        self._patch(owner, attr, wrapper)

    def hook(self, owner, attr: str, before=None, after=None) -> None:
        """Count without timing: call ``before(args)`` / ``after(args)``."""

        def wrapper(original):
            def hooked(*args, **kwargs):
                if before is not None:
                    before(args)
                result = original(*args, **kwargs)
                if after is not None:
                    after(args)
                return result

            return hooked

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the meshtcp layers -------------------------------------------------

    def install(self) -> None:
        from meshtcp import cc, cli, endpoint, engine, experiment, mesh, world

        counts = self.counts

        def on_push(args):
            if args[2] is engine.EventKind.CHANNEL_FREE:
                counts["mesh.tx"] += 1

        def on_trace_add(args):
            kind, value = args[2], args[5]
            if kind is engine.TraceKind.DROP_QUEUE:
                counts["mesh.drop_queue"] += 1
            elif kind is engine.TraceKind.DROP_WIRELESS:
                counts["mesh.drop_wireless"] += 1
            elif value == "data" and kind in (engine.TraceKind.SEND, engine.TraceKind.RETX):
                counts["endpoint.data_tx"] += 1

        def on_rng(args):
            counts["engine.rng.draws"] += 1

        def on_handle(args):
            counts["world.events." + args[2].value] += 1

        def on_channel_free(args):
            link = args[1]
            self.busy_s[link.group.index] += (
                link.queue[0].size_bytes * 8.0 / link.model.bandwidth_bps
            )

        def after_enqueue(args):
            self.queue_hwm = max(self.queue_hwm, len(args[1].queue))

        def on_data(args):
            receiver, seg = args[0], args[1]
            if seg.seq >= receiver.rcv_next and seg.seq not in receiver.ooo_buffer:
                counts["endpoint.distinct_delivered"] += 1

        def on_run_until(args):
            self.sim_s += args[1]

        def on_summarize(args):
            counts["metrics.records_in"] += len(args[0])

        def on_write(args):
            counts["cli.trace_bytes"] += len(args[1].encode())

        self.span(cli, "main", "cli.main", whole=True)
        self.span(cli, "run_single", "experiment.run_single", whole=True)
        self.span(experiment, "run_single", "experiment.run_single", whole=True)
        self.span(cli, "load_config", "experiment.load_config")
        self.span(experiment, "build_world", "experiment.build_world")
        self.span(cli, "emit_csv", "experiment.emit_csv")
        self.span(experiment, "summarize", "metrics.summarize", before=on_summarize)
        self.span(experiment, "run_until", "engine.dispatch", before=on_run_until)
        self.span(engine.EventQueue, "push", "engine.push", before=on_push)
        self.span(engine.EventQueue, "pop", "engine.pop")
        self.span(engine.RunTrace, "add", "engine.trace_add", before=on_trace_add)
        self.span(engine.RunTrace, "export", "cli.export")
        self.hook(engine.RngStream, "uniform", before=on_rng)
        self.hook(engine.RngStream, "exponential", before=on_rng)
        self.span(world.MeshWorld, "handle", "world.handle", before=on_handle)
        self.span(mesh.MeshNetwork, "forward", "mesh.forward")
        self.hook(mesh.MeshNetwork, "enqueue", after=after_enqueue)
        self.span(mesh.MeshNetwork, "on_channel_free", "mesh.channel_free", before=on_channel_free)
        self.span(endpoint.SenderEndpoint, "on_ack_segment", "endpoint.on_ack")
        self.span(endpoint.SenderEndpoint, "fill_window", "endpoint.fill_window")
        self.span(endpoint.SenderEndpoint, "on_rto", "endpoint.on_rto")
        self.span(endpoint.ReceiverEndpoint, "on_data", "endpoint.on_data", before=on_data)
        self.span(cc, "on_new_ack", "cc.on_new_ack")
        self.span(cc, "on_dupack", "cc.on_dupack")
        self.span(cc, "on_timeout", "cc.on_timeout")
        self.span(pathlib.Path, "write_text", "cli.write", before=on_write)

    # -- results ------------------------------------------------------------

    def layers(self) -> tuple[dict[str, float], dict[str, float]]:
        """Return (deterministic counters, self times in seconds)."""
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        for (_, name), (n, _, own) in self.agg.items():
            calls[name] += n
            self_s[name] += own
        counters: dict[str, float] = {
            f"{name}.calls": calls[name]
            for name in (
                "engine.push", "engine.pop", "engine.trace_add", "mesh.forward",
                "mesh.channel_free", "endpoint.on_ack", "endpoint.on_data",
                "endpoint.on_rto", "cc.on_new_ack", "cc.on_dupack", "cc.on_timeout",
                "metrics.summarize", "experiment.build_world",
            )
        }
        for name in (
            "engine.rng.draws", "mesh.tx", "mesh.drop_queue", "mesh.drop_wireless",
            "metrics.records_in", "cli.trace_bytes",
        ):
            counters[name] = self.counts[name]
        for kind in ("segment_arrival", "channel_free", "timer_expiry", "app_tick"):
            counters[f"world.events.{kind}"] = self.counts[f"world.events.{kind}"]
        counters["mesh.queue_hwm"] = self.queue_hwm
        timers = counters["world.events.timer_expiry"]
        counters["world.timer_stale_frac"] = (
            (timers - counters["endpoint.on_rto.calls"]) / timers if timers else 0.0
        )
        data_tx = self.counts["endpoint.data_tx"]
        counters["endpoint.useful_tx_frac"] = (
            self.counts["endpoint.distinct_delivered"] / data_tx if data_tx else 0.0
        )
        for group, busy in enumerate(self.busy_s):
            counters[f"mesh.busy_frac.g{group}"] = busy / self.sim_s if self.sim_s else 0.0

        times = {
            f"{name}.self_s": self_s[name]
            for name in (
                "engine.push", "engine.pop", "engine.dispatch", "engine.trace_add",
                "world.handle", "mesh.forward", "mesh.channel_free", "endpoint.on_ack",
                "endpoint.on_data", "endpoint.fill_window", "cc.on_new_ack",
                "cc.on_dupack", "metrics.summarize", "experiment.load_config",
                "experiment.build_world", "experiment.emit_csv", "cli.export",
                "cli.write",
            )
        }
        return counters, times

    def call_sites(self) -> list[dict]:
        return [
            {"parent": parent, "name": name, "calls": n, "total_s": total, "self_s": own}
            for (parent, name), (n, total, own) in sorted(self.agg.items())
        ]
