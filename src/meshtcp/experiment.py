"""Experiment configuration, sweep orchestration and CSV tabulation.

Configs are line-oriented ``key = value`` text with ``#`` comments and
comma-separated lists. A sweep runs every (flavor, hops, loss_rate, seed)
combination on a fresh chain of ``hops + 1`` nodes with the flow from node
1 to the last node. Link loss streams are keyed by seed and hop only, never
by flavor, so two flavors at the same (hops, loss_rate, seed) see identical
loss-instant sequences and comparisons are paired; one world carries all
flavors of a point until they act differently.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable, Iterator, NamedTuple

from .cc import Flavor
from .endpoint import DEFAULT_ACK_BYTES, DEFAULT_MSS_BYTES, DEFAULT_RTO_MAX_S, DEFAULT_RTO_MIN_S
from .engine import LARGEST_UNIT_DRAW, RunTrace, run_until
from .errors import ConfigError, ContractError
from .mesh import (
    DEFAULT_BANDWIDTH_BPS,
    DEFAULT_INTERFERENCE_RANGE,
    DEFAULT_PROP_DELAY_S,
    DEFAULT_QUEUE_CAPACITY,
    ChainTopology,
    DropDirective,
    LinkModel,
)
from .metrics import MetricsSummary, summarize
from .world import MeshWorld

# key: (value type, lower bound, lower bound is strict, upper bound,
# comma-separated list). Each key names its ExperimentSpec field, and a key
# is required iff that field has no default. Keys are parsed, and errors
# raised, in this order.
_SCHEMA: dict[str, tuple[type, float | None, bool, float | None, bool]] = {
    "flavors": (Flavor, None, False, None, True),
    "hops": (int, 1, False, None, True),
    "loss_rates": (float, 0.0, False, None, True),
    "seeds": (int, None, False, None, True),
    "duration": (float, 0.0, True, None, False),
    "bandwidth_bps": (float, 0.0, True, None, False),
    "prop_delay_s": (float, 0.0, False, None, False),
    "queue_capacity": (int, 1, False, None, False),
    "interference_range": (int, 0, False, None, False),
    "rto_min_s": (float, 0.0, True, DEFAULT_RTO_MAX_S, False),
    "app_limit": (int, 1, False, None, False),
    "scripted_drops": (DropDirective, None, False, None, False),
}


class ExperimentSpec(NamedTuple):
    flavors: tuple[Flavor, ...]
    hops: tuple[int, ...]
    loss_rates: tuple[float, ...]
    seeds: tuple[int, ...]
    duration: float
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS
    prop_delay_s: float = DEFAULT_PROP_DELAY_S
    queue_capacity: int = DEFAULT_QUEUE_CAPACITY
    interference_range: int = DEFAULT_INTERFERENCE_RANGE
    rto_min_s: float = DEFAULT_RTO_MIN_S
    app_limit: int | None = None
    scripted_drops: tuple[DropDirective, ...] = ()

    def combinations(self) -> list[tuple[Flavor, int, float, int]]:
        """All sweep points in deterministic lexicographic order."""
        return [
            (flavor, hops, rate, seed)
            for flavor in sorted(self.flavors, key=lambda f: f.value)
            for hops in sorted(self.hops)
            for rate in sorted(self.loss_rates)
            for seed in sorted(self.seeds)
        ]


ResultRow = namedtuple(
    "ResultRow", ("flavor", "hops", "loss_rate", "seed") + MetricsSummary._fields
)
ResultRow.__doc__ = "One sweep point and its metrics, in the CSV's column order."
CSV_HEADER = ",".join(ResultRow._fields)


def _parse_lines(entries: Iterable[tuple[str, str]]) -> dict[str, tuple[str, str]]:
    """Parse (location, "key = value") entries into {key: (raw value, location)}."""
    mapping: dict[str, tuple[str, str]] = {}
    for where, body in entries:
        if "=" not in body:
            raise ConfigError(f"{where}: expected 'key = value', got {body!r}")
        key, _, raw = body.partition("=")
        key = key.strip()
        raw = raw.strip()
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
    if any(not part for part in items):
        raise ConfigError(f"{where}: malformed list for {key!r}")
    return items


def parse_flavor(raw: str, where: str) -> Flavor:
    """The flavor named ``raw``; an unknown name is an error at ``where``."""
    try:
        return Flavor(raw)
    except ValueError:
        known = ", ".join(f.value for f in Flavor)
        raise ConfigError(f"{where}: unknown flavor {raw!r} (known: {known})") from None


def number(raw: str, kind: type = int):
    """``kind(raw)``, refusing the ``_`` and non-ASCII digits it would read."""
    if not raw.isascii() or "_" in raw:
        raise ValueError(f"not a plain number: {raw!r}")
    return kind(raw)


def _parse_value(
    raw: str,
    where: str,
    key: str,
    kind: type,
    minimum: float | None = None,
    strict: bool = False,
    maximum: float | None = None,
):
    """One value of type ``kind``, at least ``minimum`` (above it if strict)
    and at most ``maximum``."""
    if kind is DropDirective:
        return _parse_scripted(raw, where)
    if kind is Flavor:
        return parse_flavor(raw, where)
    try:
        value = number(raw, kind)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where}: {key} must be {noun}, got {raw!r}") from None
    if kind is float:
        if not -math.inf < value < math.inf:
            raise ConfigError(f"{where}: {key} must be a finite number, got {raw!r}")
        value += 0.0  # -0.0 becomes 0.0
    if minimum is not None and (value < minimum or (strict and value <= minimum)):
        op = ">" if strict else ">="
        raise ConfigError(f"{where}: {key} must be {op} {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{where}: {key} must be <= {maximum}, got {value}")
    return value


def _parse_scripted(raw: str, where: str) -> tuple[DropDirective, ...]:
    directives = []
    for part in raw.split(";"):
        part = part.strip()
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ConfigError(
                f"{where}: scripted_drops entries are 'link:seq:nth', got {part!r}"
            )
        hop, seq, nth = (
            _parse_value(p, where, "scripted_drops", int, minimum)
            for p, minimum in zip(pieces, (1, 0, 1))
        )
        directives.append(DropDirective(hop, seq, nth))
    return tuple(directives)


def load_config(text: str, overrides: Iterable[str] = ()) -> ExperimentSpec:
    """Parse and validate a config, then apply ``KEY=VALUE`` overrides on top;
    an override is one more entry, checked after the whole file."""
    lines = enumerate((line.split("#", 1)[0].strip() for line in text.splitlines()), 1)
    mapping = _parse_lines((f"line {n}", body) for n, body in lines if body)
    mapping |= _parse_lines(("override", pair) for pair in overrides)

    defaults = ExperimentSpec._field_defaults
    missing = [key for key in _SCHEMA if key not in mapping and key not in defaults]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    fields = {}
    for key, (kind, minimum, strict, maximum, is_list) in _SCHEMA.items():
        if key not in mapping:
            continue
        raw, where = mapping[key]
        items = _split_list(raw, where, key) if is_list else [raw]
        values = tuple(_parse_value(v, where, key, kind, minimum, strict, maximum) for v in items)
        seen = set()
        for value in values:
            if value in seen:
                shown = value.value if kind is Flavor else value
                raise ConfigError(f"{where}: {key} lists {shown} more than once")
            seen.add(value)
        fields[key] = values if is_list else values[0]
    spec = ExperimentSpec(**fields)

    # time can stop if an ACK takes at most one ulp of duration (d + x/2 == d)
    if spec.duration + DEFAULT_ACK_BYTES * 8.0 / spec.bandwidth_bps / 2 == spec.duration:
        where = mapping.get("bandwidth_bps", mapping["duration"])[1]
        raise ConfigError(f"{where}: bandwidth_bps sends an ACK within one ulp of duration")
    # a rate whose largest gap is no longer than a data segment on the air
    # loses every data transmission; that gap is longer than an ACK, so by
    # the check above it also moves the loss clock at duration
    for rate in spec.loss_rates:
        if rate * 8 * DEFAULT_MSS_BYTES / spec.bandwidth_bps >= LARGEST_UNIT_DRAW:
            where = mapping["loss_rates"][1]
            raise ConfigError(f"{where}: loss_rates {rate} loses every data transmission")
    if spec.scripted_drops:
        where = mapping["scripted_drops"][1]
        if any(spec.loss_rates):
            raise ConfigError(
                f"{where}: scripted_drops replaces the loss model, so loss_rates must be 0"
            )
        for directive in spec.scripted_drops:
            if directive.hop > max(spec.hops):
                raise ConfigError(
                    f"{where}: scripted drop on hop {directive.hop} beyond the chain"
                )
    return spec


def build_world(
    spec: ExperimentSpec,
    flavor: Flavor | tuple[Flavor, ...],
    hops: int,
    loss_rate: float,
    seed: int,
    trace: RunTrace | None = None,
) -> MeshWorld:
    """Fresh world for one sweep point and one or more flavors, feeding
    ``trace`` if one is given."""
    link = LinkModel(
        bandwidth_bps=spec.bandwidth_bps,
        prop_delay_s=spec.prop_delay_s,
        queue_capacity=spec.queue_capacity,
        loss_rate=loss_rate,
    )
    topology = ChainTopology(hops + 1, link, spec.interference_range, spec.scripted_drops)
    return MeshWorld(
        topology,
        flavor,
        seed=seed,
        app_limit=spec.app_limit,
        rto_min=spec.rto_min_s,
        trace=trace,
    )


def _run_worlds(
    spec: ExperimentSpec,
    flavor: Flavor | tuple[Flavor, ...],
    hops: int,
    loss_rate: float,
    seed: int,
    trace: RunTrace | None = None,
) -> Iterator[MeshWorld]:
    """Run the point's world to spec.duration, then each copy it splits
    into, and yield each one. A ``ContractError`` names the point and the
    flavors of the world it was raised in."""
    worlds = [build_world(spec, flavor, hops, loss_rate, seed, trace)]
    try:
        while worlds:
            world = worlds.pop()
            run_until(world, spec.duration)
            worlds += world.forks
            yield world
    except ContractError as exc:
        names = ",".join(f.value for f in world.sender.flavors)
        raise ContractError(
            f"combination flavor={names} hops={hops} "
            f"loss_rate={loss_rate} seed={seed} aborted: {exc}"
        ) from exc


def run_single(
    spec: ExperimentSpec,
    flavor: Flavor,
    hops: int,
    loss_rate: float,
    seed: int,
    trace: RunTrace | None = None,
) -> RunTrace:
    """Run one combination to spec.duration; return the trace it fed."""
    (world,) = _run_worlds(spec, flavor, hops, loss_rate, seed, trace)
    return world.trace


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Run the full sweep; one row per combination, lexicographic order."""
    flavors = tuple(sorted(spec.flavors, key=lambda f: f.value))
    points = {}  # a lossless point reads no seed: one run, whatever its seed
    rows = []
    for flavor, hops, rate, seed in spec.combinations():
        point = (hops, rate, seed if rate else None)
        if point not in points:
            points[point] = summaries = {}  # of each flavor at the point
            for world in _run_worlds(spec, flavors, hops, rate, seed):
                summary = summarize(world.trace.records)
                summaries.update(dict.fromkeys(world.sender.flavors, summary))
        rows.append(ResultRow(flavor, hops, rate, seed, *points[point][flavor]))
    return rows


def _cell(value: Flavor | float | int | None) -> str:
    if value is None:
        return "nan"
    if isinstance(value, float):
        return f"{value:.6f}"
    return value.value if isinstance(value, Flavor) else str(value)


def emit_csv(rows: Iterable[tuple], header: str = CSV_HEADER) -> str:
    """Byte-stable CSV: header plus one line per row."""
    lines = [header]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"
