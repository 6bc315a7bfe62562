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

from meshtcp.errors import ContractError
from meshtcp.mesh import ChainTopology, MeshNetwork, ScriptedDrops
from test_mesh_reference import check_examples


class Mutant(NamedTuple):
    name: str
    target: Callable
    old: str
    new: str
    oracle: Callable[[], None]


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
