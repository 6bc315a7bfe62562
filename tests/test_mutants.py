"""A catalogue of mutants, each with the oracle that must kill it.

A mutant is one exact text edit to one function's source. The test
compiles the edited source in a copy of the function's module namespace,
binds the result wherever the original is bound (module globals and class
attributes, found by identity, so a name imported elsewhere is patched
too), runs the oracle, and restores the original. Each entry must:

- find its old text exactly once, so a refactor that removes or rewrites
  that line fails here and the entry is updated, not dropped;
- make its oracle fail with ``AssertionError`` or ``ContractError``;
- let the oracle pass again once the original is back.
"""

import __future__
import inspect
import sys
import textwrap
from typing import Callable, NamedTuple

import pytest

import test_cc
import test_experiment
import test_metrics
import test_world
from meshtcp import cc
from meshtcp.cc import Flavor
from meshtcp.endpoint import SenderEndpoint
from meshtcp.engine import RunTrace, TraceKind
from meshtcp.errors import ConfigError, ContractError
from meshtcp.experiment import _parse_lines, load_config
from meshtcp.mesh import ChainTopology, LossProcess, MeshNetwork, ScriptedDrops
from meshtcp.metrics import summarize
from meshtcp.world import MeshWorld
from test_mesh_reference import check_examples
from test_metamorphic import check_queue_relation, check_range_relation, check_time_scaling, records


class Mutant(NamedTuple):
    name: str
    target: Callable
    old: str
    new: str
    oracle: Callable[[], None]


def negative_zero_keeps_its_sign():
    # -0.0 equals the 0.0 before it but prints apart
    lines = []
    trace = RunTrace(lines.append)
    trace.add(0.0, TraceKind.SEND, 0, 0, "data")
    trace.add(-0.0, TraceKind.SEND, 0, 1, "data")
    assert lines == ["0.000000000\tSEND\t0\t0\tdata\n", "-0.000000000\tSEND\t0\t1\tdata\n"]


def streaming_trace_writes_a_text_cwnd():
    cwnd = []
    trace = RunTrace(lambda line: None, cwnd.append)
    trace.add(0.0, TraceKind.CWND_SAMPLE, 0, 64, "2")
    assert cwnd == ["0.000000000\t2\n"]


def streaming_trace_refuses_a_backwards_record():
    # raises AssertionError itself: a failed pytest.raises raises Failed
    lines = []
    trace = RunTrace(lines.append)
    trace.add(1.0, TraceKind.SEND, 0, 0, "data")
    refused = False
    try:
        trace.add(0.5, TraceKind.SEND, 0, 1, "data")
    except ContractError:
        refused = True
    assert refused and lines == ["1.000000000\tSEND\t0\t0\tdata\n"]


def a_key_set_twice_is_refused():
    # in the file and among the overrides alike; raises AssertionError
    # itself, as a failed pytest.raises raises Failed
    for text, overrides in [
        (test_experiment.BASIC + "seeds = 4\n", []),
        (test_experiment.BASIC, ["seeds=4", "seeds=5"]),
    ]:
        refused = ""
        try:
            load_config(text, overrides)
        except ConfigError as exc:
            refused = str(exc)
        assert "'seeds'" in refused, (text, overrides)


def drop_table_naming_an_unsent_seq_drops_nothing():
    lossless = records(Flavor.NEWRENO, 2, 0, 1, duration=1.0)
    assert lossless == records(
        Flavor.NEWRENO, 2, 0, 1, duration=1.0, scripted_drops="1:1000000000:1"
    )


def shared_world_splits_into_each_flavors_own_run():
    test_experiment.TestSeedFreePoints().test_a_shared_world_splits_into_each_flavors_own_run()


def rto_fires_exactly_at_its_deadline():
    # thirty configs drawn once from a fixed seed
    with pytest.MonkeyPatch.context() as patch:
        test_world.test_rto_fires_exactly_at_its_deadline(patch)


def goodput_leaves_out_a_delivery_sent_before_the_trace():
    # seq 0's SEND is before the first record; its delivery is not in the cohort
    records = test_metrics.trace_of([
        (0.0, TraceKind.DELIVER, 0, "data"),
        (0.0, TraceKind.SEND, 1, "data"),
        (1.0, TraceKind.SEND, 2, "data"),
        (1.0, TraceKind.DELIVER, 1, "data"),
    ])
    assert summarize(records)._asdict() == test_metrics._recount(records, 0.0)


def event_counts_are_locked():
    # a replaced expiry taken as live changes no output, only the count of
    # expiries handled
    with pytest.MonkeyPatch.context() as patch:
        test_world.test_event_counts_per_kind_are_locked(patch, (Flavor.SAC, 4, 1.0, 7))


CATALOGUE = [
    Mutant(
        "group_fifo_served_lifo",
        MeshNetwork.on_channel_free,
        "self._start_transmission(group.fifo.popleft(), now)",
        "self._start_transmission(group.fifo.pop(), now)",
        check_examples,
    ),
    Mutant(
        "group_of_shifted_by_one_hop",
        ChainTopology.group_of,
        "return (hop - 1) // (self.interference_range + 1)",
        "return hop // (self.interference_range + 1)",
        check_examples,
    ),
    Mutant(
        "on_air_segment_holds_no_slot",
        MeshNetwork.enqueue,
        "if len(queue) >= link.queue_capacity:",
        "if len(queue) > link.queue_capacity:",
        check_examples,
    ),
    Mutant(
        "propagation_delay_added_twice",
        MeshNetwork._start_transmission,
        "end + link.prop_delay_s,",
        "end + 2 * link.prop_delay_s,",
        check_examples,
    ),
    Mutant(
        "scripted_copies_counted_from_zero",
        ScriptedDrops.decide,
        "self._counts.get(seq, 0) + 1",
        "self._counts.get(seq, -1) + 1",
        check_examples,
    ),
    Mutant(
        "loss_instants_advanced_once",
        LossProcess.decide,
        "while self.next_instant < start:",
        "if self.next_instant < start:",
        check_examples,
    ),
    Mutant(
        "sac_resends_at_rlp_dupacks",
        cc.on_dupack,
        "dupacks >= rlp - 1",
        "dupacks >= rlp",
        test_cc.test_sac_second_retransmission_never_fires_early,
    ),
    Mutant(
        "sac_resend_keeps_cwnd",
        cc.on_dupack,
        "cwnd = max(cwnd // 2, 1)",
        "pass",
        test_cc.test_sac_second_retransmission_fires_at_rlp_minus_one,
    ),
    Mutant(
        "frr_entry_keeps_dupacks",
        cc.on_dupack,
        "dupacks = acc = 0",
        "acc = 0",
        test_cc.test_dupack_third_enters_frr_with_sac_bookkeeping,
    ),
    Mutant(
        "trace_stamp_reused_for_an_equal_time",
        RunTrace.add,
        "if time is last:",
        "if time == last:",
        negative_zero_keeps_its_sign,
    ),
    Mutant(
        "cc_step_ignores_the_retransmit_list",
        SenderEndpoint._cc_step,
        "if retx != retransmit or state[1:5] != seen:",
        "if state[1:5] != seen:",
        shared_world_splits_into_each_flavors_own_run,
    ),
    Mutant(
        "split_copies_skip_the_event",
        MeshWorld._split,
        "world._react(time, ack)",
        "world is self and world._react(time, ack)",
        shared_world_splits_into_each_flavors_own_run,
    ),
    Mutant(
        "send_skips_the_earlier_deadline_push",
        MeshWorld._send,
        "deadline < self._expiry_at",
        "self._expiry_at == math.inf",
        rto_fires_exactly_at_its_deadline,
    ),
    Mutant(
        "replaced_expiry_taken_as_live",
        MeshWorld._on_timer,
        "if time != self._expiry_at:",
        "if False:",
        event_counts_are_locked,
    ),
    Mutant(
        "vegas_diff_over_a_constant_rtt",
        cc._vegas_adjust,
        "/ last_rtt",
        "/ 0.05",
        lambda: check_time_scaling(Flavor.VEGAS, 3, 4.0, 4051686261, 2),
    ),
    Mutant(
        "group_of_shifted_under_the_range_relation",
        ChainTopology.group_of,
        "return (hop - 1) // (self.interference_range + 1)",
        "return hop // (self.interference_range + 1)",
        lambda: check_range_relation(Flavor.NEWRENO, 3, 0, 1, 1.0, 50),
    ),
    Mutant(
        "window_ignores_the_receiver",
        SenderEndpoint.fill_window,
        "cc.last_ack + min(cc.cwnd, RECEIVER_WINDOW)",
        "cc.last_ack + cc.cwnd",
        lambda: check_queue_relation(Flavor.NEWRENO, 1, 0, 1, 20.0, 64),
    ),
    Mutant(
        "table_matches_the_copy_number_only",
        ScriptedDrops.decide,
        "return (seq, n) in self._wanted",
        "return any(n == k for _, k in self._wanted)",
        drop_table_naming_an_unsent_seq_drops_nothing,
    ),
    Mutant(
        "cwnd_written_only_for_numbers",
        RunTrace.add,
        "self._write_cwnd is not None:",
        "self._write_cwnd is not None and not isinstance(value, str):",
        streaming_trace_writes_a_text_cwnd,
    ),
    Mutant(
        "goodput_counts_deliveries_sent_before_the_trace",
        summarize,
        "goodput=n_delays / span",
        "goodput=len(first_delivered) / span",
        goodput_leaves_out_a_delivery_sent_before_the_trace,
    ),
    Mutant(
        "parser_lets_a_key_repeat",
        _parse_lines,
        "if key in mapping:",
        "if False:",
        a_key_set_twice_is_refused,
    ),
    Mutant(
        "order_check_skipped_when_streaming",
        RunTrace.add,
        "if time < last:",
        "if time < last and self._write is None:",
        streaming_trace_refuses_a_backwards_record,
    ),
]


def _bindings(obj):
    """Every (namespace, name) through which ``obj`` is reachable: the
    globals of each loaded module and the attributes of its classes."""
    found = []
    for module in list(sys.modules.values()):
        for name, value in list(getattr(module, "__dict__", {}).items()):
            if value is obj:
                found.append((module, name))
            elif isinstance(value, type) and getattr(value, "__module__", None) == module.__name__:
                found.extend((value, n) for n, v in vars(value).items() if v is obj)
    return found


def _compile(mutant):
    source = textwrap.dedent(inspect.getsource(mutant.target))
    assert source.count(mutant.old) == 1, f"{mutant.name}: old text not found exactly once"
    code = compile(
        source.replace(mutant.old, mutant.new),
        inspect.getsourcefile(mutant.target),
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace = dict(sys.modules[mutant.target.__module__].__dict__)
    exec(code, namespace)
    return namespace[mutant.target.__name__]


@pytest.mark.parametrize("mutant", CATALOGUE, ids=[m.name for m in CATALOGUE])
def test_oracle_kills_the_mutant(mutant):
    patched = _compile(mutant)
    bindings = _bindings(mutant.target)
    assert bindings, f"{mutant.name}: the target is bound nowhere"
    try:
        for namespace, name in bindings:
            setattr(namespace, name, patched)
        with pytest.raises((AssertionError, ContractError)):
            mutant.oracle()
    finally:
        for namespace, name in bindings:
            setattr(namespace, name, mutant.target)
    mutant.oracle()
