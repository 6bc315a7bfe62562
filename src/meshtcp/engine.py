"""Deterministic discrete-event core: ordered event queue, named seeded
random streams, and the append-only run trace."""

from __future__ import annotations

import heapq
import math
import random
from enum import Enum
from typing import Callable, NamedTuple

from .errors import ContractError

try:
    from _sha256 import sha256
except ImportError:  # hashlib loads OpenSSL, so it is only the fallback
    from hashlib import sha256


class EventKind(Enum):
    SEGMENT_ARRIVAL = "segment_arrival"
    TIMER_EXPIRY = "timer_expiry"
    CHANNEL_FREE = "channel_free"
    APP_TICK = "app_tick"


class EventQueue:
    """Priority queue ordered by (time, insertion counter).

    The insertion counter gives simultaneous events a total order (the
    order they were scheduled in), which keeps runs reproducible.
    """

    __slots__ = ("_heap", "_counter", "_watermark")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, EventKind, object]] = []
        self._counter = 0  # a plain int, so the queue copies and pickles
        self._watermark = 0.0  # time of the last event taken off the heap

    def push(self, time: float, kind: EventKind, payload: object = None) -> None:
        if time < self._watermark:
            raise ContractError(
                f"event scheduled in the past: t={time} < clock {self._watermark}"
            )
        self._counter = counter = self._counter + 1
        heapq.heappush(self._heap, (time, counter, kind, payload))

    def pop(self) -> tuple[float, EventKind, object]:
        time, _, kind, payload = heapq.heappop(self._heap)
        self._watermark = time
        return time, kind, payload


class TraceKind(Enum):
    SEND = "SEND"
    DELIVER = "DELIVER"
    DROP_WIRELESS = "DROP_WIRELESS"
    DROP_QUEUE = "DROP_QUEUE"
    RETX = "RETX"
    RTO = "RTO"
    CWND_SAMPLE = "CWND_SAMPLE"
    PHASE_CHANGE = "PHASE_CHANGE"


class TraceRecord(NamedTuple):
    time: float
    kind: TraceKind
    flow_id: int
    seq: int
    value: int | float | str


_CWND_SAMPLE = TraceKind.CWND_SAMPLE


class RunTrace:
    """Append-only, time-ordered record of everything a run did.

    Segment records (SEND/RETX/DELIVER/DROP_*) put "data" or "ack" in the
    value column. CWND_SAMPLE records put cwnd in the value column and the
    concurrent ssthresh in the seq column, so the whole window trajectory
    is recoverable from the trace alone.

    Without ``write``, the trace keeps its records. Given ``write``, it keeps
    none: it passes each record's trace.tsv line, newline included, to
    ``write`` as the record is added, so its memory does not grow with the
    length of the run. Given ``write_cwnd`` too, it also passes it
    ``time<TAB>cwnd`` for each CWND_SAMPLE. Such a streaming trace cannot
    be copied, as its records are already gone.

    The records one event makes mostly share its time object, so a
    streaming trace formats the time only when the object differs from the
    previous record's; one float object always formats to the same text.
    """

    __slots__ = ("records", "_write", "_write_cwnd", "_last_time", "_stamp")

    def __init__(
        self,
        write: Callable[[str], object] | None = None,
        write_cwnd: Callable[[str], object] | None = None,
    ) -> None:
        self.records: list[TraceRecord] = []
        self._write = write
        self._write_cwnd = write_cwnd
        self._last_time = 0.0
        self._stamp = "0.000000000"  # the text of _last_time

    def add(
        self,
        time: float,
        kind: TraceKind,
        flow_id: int,
        seq: int,
        value: int | float | str,
    ) -> None:
        last = self._last_time
        if time < last:
            raise ContractError(f"trace times must be non-decreasing: {time} < {last}")
        self._last_time = time
        write = self._write
        if write is None:
            # tuple.__new__ skips the namedtuple's Python-level __new__
            self.records.append(tuple.__new__(TraceRecord, (time, kind, flow_id, seq, value)))
            return
        if time is last:
            stamp = self._stamp
        else:
            self._stamp = stamp = f"{time:.9f}"
        if kind is _CWND_SAMPLE and self._write_cwnd is not None:
            self._write_cwnd(f"{stamp}\t{value}\n")
        if not isinstance(value, str):
            value = str(value) if isinstance(value, int) else f"{value:.9f}"
        write(f"{stamp}\t{kind._value_}\t{flow_id}\t{seq}\t{value}\n")

    def __deepcopy__(self, memo) -> RunTrace:
        # a generic copy would walk every record, though each is immutable
        if self._write is not None:
            raise ContractError("a streaming trace cannot be copied")
        twin = RunTrace()
        twin.records.extend(self.records)  # records are immutable and shared
        twin._last_time = self._last_time
        return twin

    def export(self) -> str:
        """The kept records as the text ``meshtcp trace`` writes to trace.tsv."""
        lines: list[str] = []
        add = RunTrace(lines.append).add
        for record in self.records:
            add(*record)
        return "".join(lines)


# -log(2**-53): RngStream.exponential's largest draw at rate 1, which it
# returns for random()'s largest value, 1 - 2**-53
LARGEST_UNIT_DRAW = 36.7368005696771


class RngStream:
    """Named, seeded pseudo-random stream.

    The generator is seeded from sha256(seed, name), so the same
    (seed, name, draw index) always yields the same value and adding a new
    named stream never perturbs an existing one.
    """

    def __init__(self, seed: int, name: str) -> None:
        digest = sha256(f"{seed}:{name}".encode()).digest()
        self._rng = random.Random(int.from_bytes(digest[:8], "big"))

    def uniform(self) -> float:
        return self._rng.random()

    def exponential(self, rate: float) -> float:
        if rate <= 0:
            raise ContractError(f"exponential rate must be positive, got {rate}")
        return -math.log(1.0 - self._rng.random()) / rate

    def __deepcopy__(self, memo) -> RngStream:
        # through the state tuple, which a generic copy walks word by word
        twin = RngStream.__new__(RngStream)
        twin._rng = random.Random.__new__(random.Random)  # not seeded in vain
        twin._rng.setstate(self._rng.getstate())
        return twin


def run_until(world, t_end: float) -> RunTrace:
    """Dispatch events in order until the queue empties or time passes t_end.

    Takes events off the queue's heap itself, advancing the watermark that
    ``EventQueue.push`` checks, as ``EventQueue.pop`` would.
    """
    events = world.events
    heap = events._heap
    pop = heapq.heappop
    handle = world.handle
    while heap and heap[0][0] <= t_end:
        time, _, kind, payload = pop(heap)
        events._watermark = time
        try:
            handle(time, kind, payload)
        except ContractError as exc:
            raise ContractError(
                f"dispatch failed at t={time:.9f} ({kind.value}): {exc}"
            ) from exc
    return world.trace
