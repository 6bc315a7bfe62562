"""Exact metamorphic relations: pairs of configs that must give the same
trace, record for record (or the same trace with time scaled), with no
hand-derived value to compare against."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from meshtcp import endpoint
from meshtcp.cc import Flavor
from meshtcp.endpoint import DEFAULT_RTO_MIN_S, RECEIVER_WINDOW
from meshtcp.engine import TraceKind
from meshtcp.experiment import load_config, run_single
from meshtcp.mesh import DEFAULT_BANDWIDTH_BPS, DEFAULT_PROP_DELAY_S

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
    check_range_relation(flavor, hops, rate, seed, duration, queue)


def check_range_relation(flavor, hops, rate, seed, duration, queue):
    # ranges of hops - 1 and above both put every hop of the chain in one group
    narrow = records(
        flavor, hops, rate, seed, duration=duration, queue_capacity=queue,
        interference_range=hops - 1,
    )
    assert narrow == records(
        flavor, hops, rate, seed, duration=duration, queue_capacity=queue,
        interference_range=hops + 7,
    )


def check_time_scaling(flavor, hops, rate, seed, k):
    """Scale every time constant by k, and the bandwidth and the loss rate
    by 1/k: each record's time and each RTO value scale by exactly k, as
    multiplying by a power of two commutes with IEEE-754 rounding, and every
    other field stays equal."""
    base = records(flavor, hops, rate, seed, duration=3.0, queue_capacity=5)
    # the two time constants no config key sets
    initial, ceiling = endpoint.INITIAL_RTO_S, endpoint.DEFAULT_RTO_MAX_S
    endpoint.INITIAL_RTO_S, endpoint.DEFAULT_RTO_MAX_S = initial * k, ceiling * k
    try:
        scaled = records(
            flavor, hops, rate / k, seed, duration=3.0 * k, queue_capacity=5,
            prop_delay_s=DEFAULT_PROP_DELAY_S * k, bandwidth_bps=DEFAULT_BANDWIDTH_BPS / k,
            rto_min_s=DEFAULT_RTO_MIN_S * k,
        )
    finally:
        endpoint.INITIAL_RTO_S, endpoint.DEFAULT_RTO_MAX_S = initial, ceiling
    assert scaled == [
        (time * k, kind, flow, seq, value * k if kind is TraceKind.RTO else value)
        for time, kind, flow, seq, value in base
    ]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(FLAVORS, HOPS, SEEDS, st.sampled_from([0, 1.0, 4.0]), st.sampled_from([0.5, 2, 4]))
def test_scaling_time_by_a_power_of_two_scales_the_trace_exactly(flavor, hops, seed, rate, k):
    check_time_scaling(flavor, hops, rate, seed, k)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    FLAVORS, HOPS, st.sampled_from([0, 1.0, 4.0]), SEEDS, st.sampled_from([10.0, 20.0]),
    st.sampled_from([64, 65, 80, 128]),
)
@example(Flavor.NEWRENO, 1, 0, 1, 20.0, 64)  # cwnd passes the window here
def test_any_queue_that_holds_the_receiver_window_gives_one_trace(
    flavor, hops, rate, seed, duration, capacity
):
    check_queue_relation(flavor, hops, rate, seed, duration, capacity)


def check_queue_relation(flavor, hops, rate, seed, duration, capacity):
    # the sender sends nothing past a receiver window beyond its last ACK, so
    # a queue that holds a window overflows only on stale copies, and these
    # configs queue too few of them to fill one
    assert capacity >= RECEIVER_WINDOW
    bounded = records(flavor, hops, rate, seed, duration=duration, queue_capacity=capacity)
    assert bounded == records(
        flavor, hops, rate, seed, duration=duration, queue_capacity=100_000
    )
