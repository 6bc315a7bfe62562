"""Exact metamorphic relations: pairs of configs that must give the same
trace, record for record, with no hand-derived value to compare against."""

from hypothesis import given, settings
from hypothesis import strategies as st

from meshtcp.cc import Flavor
from meshtcp.experiment import load_config, run_single

FLAVORS = st.sampled_from(list(Flavor))
HOPS = st.integers(1, 4)
SEEDS = st.integers(1, 2**32)
DURATIONS = st.sampled_from([1.0, 3.0])
QUEUES = st.sampled_from([3, 50])


def records(flavor, hops, rate, seed, **keys):
    """The kept records of one run of a small config with ``keys`` set."""
    text = f"flavors = {flavor.value}\nhops = {hops}\nloss_rates = {rate}\nseeds = {seed}\n"
    text += "".join(f"{key} = {value}\n" for key, value in keys.items())
    spec = load_config(text)
    return run_single(spec, flavor, hops, spec.loss_rates[0], seed).records


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(FLAVORS, HOPS, SEEDS, DURATIONS, QUEUES)
def test_a_drop_table_naming_an_unsent_seq_gives_the_lossless_trace(
    flavor, hops, seed, duration, queue
):
    lossless = records(flavor, hops, 0, seed, duration=duration, queue_capacity=queue)
    assert lossless == records(
        flavor, hops, 0, seed, duration=duration, queue_capacity=queue,
        scripted_drops="1:1000000000:1",
    )


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(FLAVORS, HOPS, SEEDS, DURATIONS, QUEUES, st.sampled_from([0, 0.5, 2.0]))
def test_any_range_that_spans_the_chain_gives_one_trace(
    flavor, hops, seed, duration, queue, rate
):
    # ranges of hops - 1 and above both put every hop of the chain in one group
    narrow = records(
        flavor, hops, rate, seed, duration=duration, queue_capacity=queue,
        interference_range=hops - 1,
    )
    assert narrow == records(
        flavor, hops, rate, seed, duration=duration, queue_capacity=queue,
        interference_range=hops + 7,
    )
