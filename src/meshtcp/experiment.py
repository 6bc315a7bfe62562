"""Experiment configuration, sweep orchestration and CSV tabulation.

Configs are line-oriented ``key = value`` text with ``#`` comments and
comma-separated lists. A sweep runs every (flavor, hops, loss_rate, seed)
combination on a fresh chain of ``max(hops) + 1`` nodes with the flow from
node 1 to node ``1 + hops``. Link loss streams are keyed by seed and link
only, never by flavor, so two flavors at the same (hops, loss_rate, seed)
see identical loss-instant sequences and comparisons are paired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .cc import MSS_MAX_BYTES, MSS_MIN_BYTES, Flavor
from .engine import RunTrace, run_until
from .errors import ConfigError, ContractError
from .mesh import (
    DEFAULT_ACK_BYTES,
    DEFAULT_BANDWIDTH_BPS,
    DEFAULT_INTERFERENCE_RANGE,
    DEFAULT_MSS_BYTES,
    DEFAULT_PROP_DELAY_S,
    DEFAULT_QUEUE_CAPACITY,
    DropDirective,
    LinkModel,
    ScriptedDrops,
    build_chain,
)
from .metrics import MetricsSummary, summarize
from .world import FlowConfig, MeshWorld
from .endpoint import DEFAULT_RTO_MAX_S, DEFAULT_RTO_MIN_S

_REQUIRED_KEYS = ("flavors", "hops", "loss_rates", "seeds", "duration")
# key: (ExperimentSpec field, value type, lower bound, bound is strict,
# comma-separated list). Keys are parsed, and errors raised, in this order.
_SCHEMA: dict[str, tuple[str, type, float | None, bool, bool]] = {
    "flavors": ("flavors", Flavor, None, False, True),
    "hops": ("hop_counts", int, 1, False, True),
    "loss_rates": ("loss_rates", float, 0.0, False, True),
    "seeds": ("seeds", int, None, False, True),
    "duration": ("duration", float, 0.0, True, False),
    "bandwidth_bps": ("bandwidth_bps", float, 0.0, True, False),
    "prop_delay_s": ("prop_delay_s", float, 0.0, False, False),
    "queue_capacity": ("queue_capacity", int, 1, False, False),
    "mss_bytes": ("mss_bytes", int, MSS_MIN_BYTES, False, False),
    "ack_bytes": ("ack_bytes", int, 1, False, False),
    "interference_range": ("interference_range", int, 0, False, False),
    "rto_min_s": ("rto_min_s", float, 0.0, True, False),
    "rto_max_s": ("rto_max_s", float, 0.0, True, False),
    "app_limit": ("app_limit", int, 1, False, False),
    "scripted_drops": ("scripted_drops", DropDirective, None, False, False),
    "warmup_s": ("warmup_s", float, 0.0, False, False),
}

CSV_HEADER = (
    "flavor,hops,loss_rate,seed,throughput,goodput,plr,mean_delay,"
    "rto_count,retransmit_count,delivered_count"
)


@dataclass(frozen=True)
class ExperimentSpec:
    flavors: tuple[Flavor, ...]
    hop_counts: tuple[int, ...]
    loss_rates: tuple[float, ...]
    seeds: tuple[int, ...]
    duration: float
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS
    prop_delay_s: float = DEFAULT_PROP_DELAY_S
    queue_capacity: int = DEFAULT_QUEUE_CAPACITY
    mss_bytes: int = DEFAULT_MSS_BYTES
    ack_bytes: int = DEFAULT_ACK_BYTES
    interference_range: int = DEFAULT_INTERFERENCE_RANGE
    rto_min_s: float = DEFAULT_RTO_MIN_S
    rto_max_s: float = DEFAULT_RTO_MAX_S
    app_limit: int | None = None
    scripted_drops: tuple[DropDirective, ...] = ()
    warmup_s: float = 0.0

    @property
    def n_nodes(self) -> int:
        return max(self.hop_counts) + 1

    def combinations(self) -> list[tuple[Flavor, int, float, int]]:
        """All sweep points in deterministic lexicographic order."""
        return [
            (flavor, hops, rate, seed)
            for flavor in sorted(self.flavors, key=lambda f: f.value)
            for hops in sorted(self.hop_counts)
            for rate in sorted(self.loss_rates)
            for seed in sorted(self.seeds)
        ]


@dataclass(frozen=True)
class ResultRow(MetricsSummary):
    """The metrics of one sweep point, with the point itself."""

    flavor: Flavor
    hops: int
    loss_rate: float
    seed: int


def _parse_lines(text: str) -> dict[str, tuple[str, str]]:
    """Parse key = value lines into {key: (raw value, location)}."""
    mapping: dict[str, tuple[str, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {body!r}")
        key, _, raw = body.partition("=")
        key = key.strip()
        raw = raw.strip()
        where = f"line {lineno}"
        if key not in _SCHEMA:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in mapping:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        if not raw:
            raise ConfigError(f"{where}: empty value for {key!r}")
        mapping[key] = (raw, where)
    return mapping


def _split_list(raw: str, where: str, key: str) -> list[str]:
    items = [part.strip() for part in raw.split(",")]
    if not items or any(not part for part in items):
        raise ConfigError(f"{where}: malformed list for {key!r}")
    return items


def _parse_value(
    raw: str,
    where: str,
    key: str,
    kind: type,
    minimum: float | None = None,
    strict: bool = False,
):
    """One value of type ``kind``, at least ``minimum`` (above it if strict)."""
    if kind is DropDirective:
        return _parse_scripted(raw, where)
    try:
        value = kind(raw)
    except ValueError:
        if kind is Flavor:
            known = ", ".join(f.value for f in Flavor)
            raise ConfigError(f"{where}: unknown flavor {raw!r} (known: {known})") from None
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where}: {key} must be {noun}, got {raw!r}") from None
    if minimum is not None and (value < minimum or (strict and value <= minimum)):
        op = ">" if strict else ">="
        raise ConfigError(f"{where}: {key} must be {op} {minimum}, got {value}")
    return value


def _parse_scripted(raw: str, where: str) -> tuple[DropDirective, ...]:
    directives = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ConfigError(
                f"{where}: scripted_drops entries are 'link:seq:nth', got {part!r}"
            )
        hop, seq, nth = (_parse_value(p, where, "scripted_drops", int) for p in pieces)
        directives.append(DropDirective(hop, seq, nth))
    if not directives:
        raise ConfigError(f"{where}: scripted_drops is empty")
    return tuple(directives)


def load_config(text: str, overrides: Mapping[str, str] | None = None) -> ExperimentSpec:
    """Parse and validate a config, applying overrides on top."""
    mapping = _parse_lines(text)
    for key, raw in (overrides or {}).items():
        if key not in _SCHEMA:
            raise ConfigError(f"override: unknown key {key!r}")
        mapping[key] = (str(raw), "override")

    missing = [key for key in _REQUIRED_KEYS if key not in mapping]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    fields = {}
    for key, (field, kind, minimum, strict, is_list) in _SCHEMA.items():
        if key not in mapping:
            continue
        raw, where = mapping[key]
        if key == "app_limit" and raw == "unbounded":
            continue
        items = _split_list(raw, where, key) if is_list else [raw]
        values = tuple(_parse_value(v, where, key, kind, minimum, strict) for v in items)
        fields[field] = values if is_list else values[0]
    spec = ExperimentSpec(**fields)

    if spec.mss_bytes > MSS_MAX_BYTES:
        where = mapping["mss_bytes"][1]
        raise ConfigError(
            f"{where}: mss_bytes must be <= {MSS_MAX_BYTES}, got {spec.mss_bytes}"
        )
    if spec.rto_max_s < spec.rto_min_s:
        raise ConfigError("rto_max_s must be >= rto_min_s")
    if spec.warmup_s >= spec.duration:
        raise ConfigError("warmup_s must be below duration")
    for directive in spec.scripted_drops:
        if directive.hop > max(spec.hop_counts):
            raise ConfigError(
                f"scripted drop on hop {directive.hop} beyond the chain"
            )
    return spec


def build_world(
    spec: ExperimentSpec, flavor: Flavor, hops: int, loss_rate: float, seed: int
) -> MeshWorld:
    """Fresh world for one sweep point."""
    link = LinkModel(
        bandwidth_bps=spec.bandwidth_bps,
        prop_delay_s=spec.prop_delay_s,
        queue_capacity=spec.queue_capacity,
        loss_rate=loss_rate,
    )
    topology = build_chain(spec.n_nodes, link, spec.interference_range)
    scripted = ScriptedDrops(spec.scripted_drops) if spec.scripted_drops else None
    return MeshWorld(
        topology,
        [FlowConfig(flavor=flavor, hops=hops, app_limit=spec.app_limit)],
        seed=seed,
        mss_bytes=spec.mss_bytes,
        ack_bytes=spec.ack_bytes,
        rto_min=spec.rto_min_s,
        rto_max=spec.rto_max_s,
        scripted=scripted,
    )


def run_single(
    spec: ExperimentSpec, flavor: Flavor, hops: int, loss_rate: float, seed: int
) -> tuple[RunTrace, MetricsSummary]:
    """Run one combination to spec.duration and summarize it."""
    world = build_world(spec, flavor, hops, loss_rate, seed)
    trace = run_until(world, spec.duration)
    return trace, summarize(trace, 0, warmup=spec.warmup_s)


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Run the full sweep; one row per combination, lexicographic order."""
    rows = []
    for flavor, hops, rate, seed in spec.combinations():
        try:
            _, summary = run_single(spec, flavor, hops, rate, seed)
        except ContractError as exc:
            raise ContractError(
                f"combination flavor={flavor.value} hops={hops} "
                f"loss_rate={rate} seed={seed} aborted: {exc}"
            ) from exc
        rows.append(ResultRow(**vars(summary), flavor=flavor, hops=hops, loss_rate=rate, seed=seed))
    return rows


def _fmt(value: float | None) -> str:
    return "nan" if value is None else f"{value:.6f}"


def emit_csv(rows: list[ResultRow]) -> str:
    """Byte-stable CSV: header plus one line per row."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.flavor.value},{r.hops},{_fmt(r.loss_rate)},{r.seed},"
            f"{_fmt(r.throughput)},{_fmt(r.goodput)},{_fmt(r.plr)},{_fmt(r.mean_delay)},"
            f"{r.rto_count},{r.retransmit_count},{r.delivered_count}"
        )
    return "\n".join(lines) + "\n"
