import math
import pickle
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import link_of, route
from meshtcp import experiment, mesh
from meshtcp.cc import Flavor
from meshtcp.cli import main
from meshtcp.endpoint import DEFAULT_ACK_BYTES, DEFAULT_MSS_BYTES
from meshtcp.engine import LARGEST_UNIT_DRAW, TraceKind, run_until
from meshtcp.errors import ConfigError, ContractError
from meshtcp.experiment import (
    _SCHEMA,
    CSV_HEADER,
    ExperimentSpec,
    ResultRow,
    build_world,
    emit_csv,
    load_config,
    run_experiment,
    run_single,
)
from meshtcp.mesh import DropDirective, LinkModel
from meshtcp.metrics import summarize

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BASIC = """\
flavors = sac,newreno
hops = 1,2,3,4
loss_rates = 0,0.5
seeds = 1,2,3
duration = 60
"""


class TestLoadConfig:
    def test_cartesian_combination_count(self):
        spec = load_config(BASIC)
        assert len(spec.combinations()) == 2 * 4 * 2 * 3

    def test_defaults_applied(self):
        spec = load_config(BASIC)
        assert spec.bandwidth_bps == 2_000_000
        assert spec.prop_delay_s == 0.001
        assert spec.queue_capacity == 50
        assert spec.interference_range == 2
        assert spec.rto_min_s == 0.2
        assert spec.app_limit is None

    def test_unknown_flavor_rejected(self):
        with pytest.raises(ConfigError, match="cubic"):
            load_config(BASIC.replace("sac,newreno", "cubic"))

    def test_empty_config_rejected(self):
        # the required keys are the fields without a default, in field order
        with pytest.raises(
            ConfigError, match="^missing required keys: flavors, hops, loss_rates, seeds, duration$"
        ):
            load_config("")

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 6"):
            load_config(BASIC + "frobnicate = 1\n")

    def test_malformed_line_names_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            load_config("flavors = sac\nhops = 1\nbogus line\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(BASIC + "hops = 2\n")

    @pytest.mark.parametrize(
        "key, raw, shown",
        [
            ("flavors", "sac,newreno,sac", "sac"),
            ("hops", "2,1,2", "2"),
            ("loss_rates", "0.5,0.50", "0.5"),
            ("seeds", "3,3", "3"),
        ],
    )
    def test_repeated_list_value_rejected(self, key, raw, shown):
        # a repeat would run its sweep points twice and count them twice
        text, lineno = config_with(key, raw)
        with pytest.raises(ConfigError, match=f"line {lineno}: {key} lists {shown} more"):
            load_config(text)

    def test_a_long_seed_list_is_checked_for_repeats_in_one_pass(self):
        # the repeat check must be linear: a pairwise one takes about 10 s here
        seeds = ",".join(map(str, range(1, 40_001)))
        text, lineno = config_with("seeds", seeds)
        start = time.perf_counter()
        assert len(load_config(text).seeds) == 40_000
        assert time.perf_counter() - start < 2.0
        text, _ = config_with("seeds", seeds + ",7")
        with pytest.raises(ConfigError, match=f"^line {lineno}: seeds lists 7 more than once$"):
            load_config(text)

    def test_negative_zero_reads_as_zero(self):
        text, _ = config_with("loss_rates", "-0,0.5")
        spec = load_config(text + "prop_delay_s = -0.0\n")
        assert math.copysign(1.0, spec.loss_rates[0]) == 1.0
        assert math.copysign(1.0, spec.prop_delay_s) == 1.0

    def test_comments_and_blanks_ignored(self):
        spec = load_config("# comment\n\n" + BASIC + "   # trailing comment\n")
        assert spec.duration == 60

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigError, match="duration"):
            load_config(BASIC.replace("duration = 60", "duration = 0"))

    def test_scripted_drops_parse(self):
        spec = load_config(BASIC + "scripted_drops = 1:10:1;1:10:2\n", ["loss_rates=0"])
        assert [(d.hop, d.seq, d.nth) for d in spec.scripted_drops] == [
            (1, 10, 1),
            (1, 10, 2),
        ]

    def test_scripted_drops_malformed(self):
        # an empty entry fails as an empty item of a comma list does
        for raw, entry in [("1:10", "1:10"), ("1:3:1;", ""), ("1:3:1;;1:4:1", ""), (";", "")]:
            text, lineno = config_with("scripted_drops", raw)
            with pytest.raises(
                ConfigError,
                match=f"^line {lineno}: scripted_drops entries are 'link:seq:nth', got '{entry}'$",
            ):
                load_config(text)

    @pytest.mark.parametrize(
        "key, raw, error",
        [
            ("app_limit", "", "empty value for 'app_limit'"),
            ("hops", "1,,2", "malformed list for 'hops'"),
        ],
    )
    def test_empty_value_or_list_item_names_line(self, key, raw, error):
        text, lineno = config_with(key, raw)
        with pytest.raises(ConfigError, match=f"^line {lineno}: {error}$"):
            load_config(text)

    def test_scripted_drop_beyond_chain(self):
        with pytest.raises(ConfigError, match="line 6: scripted drop on hop 9 beyond the chain"):
            load_config(BASIC + "scripted_drops = 9:10:1\n", ["loss_rates=0"])

    @pytest.mark.parametrize(
        "raw, bound, got", [("0:10:1", 1, 0), ("1:-1:1", 0, -1), ("1:10:0", 1, 0)]
    )
    def test_scripted_drop_below_bound_names_line(self, raw, bound, got):
        # a hop and an nth count from 1, a seq from 0
        text, lineno = config_with("scripted_drops", raw)
        with pytest.raises(
            ConfigError, match=f"^line {lineno}: scripted_drops must be >= {bound}, got {got}$"
        ):
            load_config(text, ["loss_rates=0"])

    def test_app_limit_unbounded_and_numeric(self, tmp_path, capsys):
        # no limit is the key left out; no word stands for it
        assert load_config(BASIC).app_limit is None
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(BASIC + "app_limit = unbounded\n")
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "app_limit must be an integer, got 'unbounded'" in capsys.readouterr().err
        assert load_config(BASIC + "app_limit = 500\n").app_limit == 500

    def test_overrides_replace_keys(self):
        spec = load_config(BASIC, ["seeds=9", "duration=5"])
        assert spec.seeds == (9,)
        assert spec.duration == 5.0

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="override"):
            load_config(BASIC, ["nope=1"])


SMALL = """\
flavors = reno,sac
hops = 1,2
loss_rates = 0.5
seeds = 1,2
duration = 5
app_limit = 100
"""


class TestRunExperiment:
    def test_sweep_completeness_and_order(self):
        spec = load_config(SMALL)
        rows = run_experiment(spec)
        assert len(rows) == 2 * 2 * 1 * 2
        keys = [(r.flavor.value, r.hops, r.loss_rate, r.seed) for r in rows]
        assert keys == sorted(keys)

    def test_determinism(self):
        spec = load_config(SMALL)
        assert run_experiment(spec) == run_experiment(spec)

    def test_seed_isolation(self):
        rows_a = run_experiment(load_config(SMALL))
        rows_b = run_experiment(load_config(SMALL.replace("seeds = 1,2", "seeds = 1,3")))
        a_seed1 = [r for r in rows_a if r.seed == 1]
        b_seed1 = [r for r in rows_b if r.seed == 1]
        assert a_seed1 == b_seed1

    def test_paired_loss_streams_ignore_flavor(self):
        spec = load_config(SMALL)
        w_reno = build_world(spec, Flavor.RENO, 2, 0.5, 1)
        w_sac = build_world(spec, Flavor.SAC, 2, 0.5, 1)
        for src, dst in ((1, 2), (2, 1), (2, 3), (3, 2)):
            s1 = link_of(w_reno.net, src, dst).loss._stream
            s2 = link_of(w_sac.net, src, dst).loss._stream
            assert [s1.uniform() for _ in range(5)] == [s2.uniform() for _ in range(5)]

    @pytest.mark.parametrize(
        "bound, rtos",
        [
            # segment 0 lost on each of its first seven transmissions: the
            # backed-off RTO stops at the fixed 60 s ceiling (RFC 6298 §2.5)
            (
                "app_limit = 1\nduration = 130\nscripted_drops = "
                + ";".join(f"1:0:{nth}" for nth in range(1, 8)),
                [(1.0, 2.0), (3.0, 4.0), (7.0, 8.0), (15.0, 16.0), (31.0, 32.0),
                 (63.0, 60.0), (123.0, 60.0)],
            ),
            ("rto_min_s = 3", [(3.0, 6.0)]),
        ],
    )
    def test_first_rto_keeps_the_configured_bounds(self, bound, rtos):
        # segment 0 is lost on its first transmission at time 0, and the keys
        # in ``bound`` override the base point; RTO records carry (time,
        # backed-off RTO)
        spec = load_config(
            "flavors = sac\nhops = 1\nloss_rates = 0\nseeds = 1\nduration = 10\n"
            "app_limit = 3\nscripted_drops = 1:0:1\n",
            bound.splitlines(),
        )
        trace = run_single(spec, *spec.combinations()[0])
        assert [(r.time, r.value) for r in trace.records if r.kind is TraceKind.RTO] == rtos

    def test_each_point_builds_a_chain_the_flow_spans(self):
        spec = load_config(SMALL.replace("hops = 1,2", "hops = 1,2,4"))
        world = build_world(spec, Flavor.SAC, 2, 0.5, 1)
        assert [link.hop for link in route(world.net._data_head)] == [1, 2]
        # data is delivered only at the chain's end
        trace = run_until(world, 1.0)
        assert any(r.kind is TraceKind.DELIVER and r.value == "data" for r in trace.records)


def point_by_point(spec):
    """The sweep's rows, each from its own run."""
    return [
        ResultRow(*point, *summarize(run_single(spec, *point).records))
        for point in spec.combinations()
    ]


class TestSeedFreePoints:
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(
        hops=st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True),
        lossy=st.lists(st.sampled_from((0.5, 2.0, 8.0)), max_size=2, unique=True),
        seeds=st.lists(st.integers(1, 50), min_size=2, max_size=3, unique=True),
        scripted=st.booleans(),
    )
    def test_sweep_equals_its_points_run_one_by_one(self, hops, lossy, seeds, scripted):
        # the sweep runs each point's five flavors in one world that splits
        # where their congestion control first acts differently; a drop
        # table runs at loss rate 0 only
        spec = ExperimentSpec(
            tuple(Flavor), tuple(hops), (0.0,) if scripted else (0.0, *lossy), tuple(seeds),
            duration=3.0, app_limit=150, rto_min_s=1.0,
            scripted_drops=(DropDirective(1, 10, 1), DropDirective(1, 10, 2)) if scripted else (),
        )
        assert run_experiment(spec) == point_by_point(spec)

    def test_a_shared_world_splits_into_each_flavors_own_run(self):
        # at this point sack once differs from its group only in what it
        # retransmits, and it reads SACK blocks from a receiver it shares
        spec = load_config(SMALL, ["hops=4", "loss_rates=2.0", "duration=10"])
        point = (4, 2.0, 1)
        traces, worlds = {}, 0
        for world in experiment._run_worlds(spec, tuple(Flavor), *point):
            worlds += 1
            traces.update(dict.fromkeys(world.sender.flavors, world.trace.records))
        assert worlds > 1
        assert set(traces) == set(Flavor)
        for flavor in Flavor:
            assert traces[flavor] == run_single(spec, flavor, *point).records, flavor

    def test_an_error_in_a_shared_world_names_every_flavor_it_carries(self, monkeypatch):
        # retiring each delivery twice fails on the first one, before any split
        retire = mesh.MeshNetwork.retire

        def retire_deliveries_twice(self, kind, seg, now):
            retire(self, kind, seg, now)
            if kind is TraceKind.DELIVER:
                retire(self, kind, seg, now)

        monkeypatch.setattr(mesh.MeshNetwork, "retire", retire_deliveries_twice)
        spec = load_config(SMALL, ["hops=1", "seeds=1"])
        with pytest.raises(ContractError, match=(
            r"^combination flavor=reno,sac hops=1 loss_rate=0.5 seed=1 aborted: "
        )):
            run_experiment(spec)

    def test_a_point_that_reads_no_seed_is_given_none(self, monkeypatch):
        # anything a seed-free point drew from its seed would differ between
        # seeds, and the sweep would be wrong to run it once
        def no_stream(*args):
            raise AssertionError("a loss stream was built")

        monkeypatch.setattr(mesh, "RngStream", no_stream)
        lossless = load_config(SMALL, ["loss_rates=0"])
        scripted_cfg = (CONFIGS / "retransmission_loss.cfg").read_text()
        with pytest.raises(ConfigError, match="loss_rates must be 0"):
            load_config(scripted_cfg, ["loss_rates=0.5"])
        for spec in (lossless, load_config(scripted_cfg)):
            trace = run_single(spec, Flavor.SAC, 1, spec.loss_rates[0], 1)
            assert any(r.kind is TraceKind.DELIVER for r in trace.records)
        with pytest.raises(AssertionError, match="loss stream"):
            build_world(load_config(SMALL), Flavor.SAC, 1, 0.5, 1)

    def test_loss_sweep_runs_each_lossless_point_once(self, monkeypatch):
        built = []
        build = experiment.build_world

        def counting(spec, flavor, hops, rate, seed, trace=None):
            built.append((rate, seed))
            return build(spec, flavor, hops, rate, seed, trace)

        monkeypatch.setattr(experiment, "build_world", counting)
        spec = load_config((CONFIGS / "loss_sweep.cfg").read_text(), ["duration=1"])
        rows = run_experiment(spec)
        # 5 flavors x 4 rates x 10 seeds; one world per point carries all
        # five flavors, and at rate 0 only the first seed runs
        assert len(rows) == 200
        assert len(built) == 31
        assert [seed for rate, seed in built if rate == 0] == [1]


class TestEmitCsv:
    def test_header_only_when_empty(self):
        assert emit_csv([]) == CSV_HEADER + "\n"

    def test_row_formatting(self):
        row = ResultRow(
            flavor=Flavor.SAC, hops=4, loss_rate=0.5, seed=7,
            throughput=55.5, goodput=54.25, plr=0.0125, mean_delay=0.125,
            rto_count=2, retransmit_count=9, delivered_count=3000,
        )
        text = emit_csv([row])
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == (
            "sac,4,0.500000,7,55.500000,54.250000,0.012500,0.125000,2,9,3000"
        )

    def test_none_marks_nan(self):
        row = ResultRow(
            flavor=Flavor.RENO, hops=1, loss_rate=0.0, seed=1,
            throughput=None, goodput=None, plr=None, mean_delay=None,
            rto_count=0, retransmit_count=0, delivered_count=0,
        )
        assert ",nan,nan,nan,nan," in emit_csv([row])

    def test_byte_stability(self):
        rows = run_experiment(load_config(SMALL))
        assert emit_csv(rows) == emit_csv(rows)


def test_values_survive_a_pickle_round_trip():
    # what a worker process of a parallel sweep would receive and send back
    spec = load_config(BASIC + "scripted_drops = 1:10:1;1:10:2\n", ["loss_rates=0"])
    row = ResultRow(
        throughput=55.5, goodput=None, plr=0.0125, mean_delay=0.125, rto_count=2,
        retransmit_count=9, delivered_count=3000, flavor=Flavor.SAC, hops=4,
        loss_rate=0.5, seed=7,
    )
    for value in (spec, row, LinkModel(loss_rate=0.5), DropDirective(1, 10, 2)):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value
        assert type(copy) is type(value)


# every numeric key, with a value just below its lower bound (None: unbounded)
BELOW_BOUND = {
    "hops": "0",
    "loss_rates": "-0.5",
    "seeds": None,
    "duration": "0",
    "bandwidth_bps": "0",
    "prop_delay_s": "-0.001",
    "queue_capacity": "0",
    "interference_range": "-1",
    "rto_min_s": "0",
    "app_limit": "0",
}


def test_config_keys_are_exactly_the_declared_ones():
    # the key census: adding or removing a config key is a declared edit here
    keys = [
        "flavors", "hops", "loss_rates", "seeds", "duration", "bandwidth_bps",
        "prop_delay_s", "queue_capacity", "interference_range", "rto_min_s",
        "app_limit", "scripted_drops",
    ]
    assert list(_SCHEMA) == keys
    assert list(ExperimentSpec._fields) == keys
    numeric = {key: lower for key, (kind, lower, *_) in _SCHEMA.items() if kind in (int, float)}
    assert sorted(BELOW_BOUND) == sorted(numeric)
    assert all((BELOW_BOUND[key] is None) == (lower is None) for key, lower in numeric.items())


FLOAT_KEYS = ("loss_rates", "duration", "bandwidth_bps", "prop_delay_s", "rto_min_s")


def config_with(key, raw):
    """BASIC with ``key = raw`` in place or appended, and its line number."""
    lines = BASIC.splitlines()
    keys = [line.partition("=")[0].strip() for line in lines]
    if key in keys:
        lineno = keys.index(key) + 1
        lines[lineno - 1] = f"{key} = {raw}"
    else:
        lines.append(f"{key} = {raw}")
        lineno = len(lines)
    return "\n".join(lines) + "\n", lineno


class TestNumericKeys:
    @pytest.mark.parametrize("key", sorted(BELOW_BOUND))
    def test_non_number_names_key_and_line(self, key):
        text, lineno = config_with(key, "abc")
        with pytest.raises(ConfigError, match=f"line {lineno}: {key} must be"):
            load_config(text)

    @pytest.mark.parametrize(
        "key", sorted(k for k, raw in BELOW_BOUND.items() if raw is not None)
    )
    def test_below_bound_names_key_and_line(self, key):
        text, lineno = config_with(key, BELOW_BOUND[key])
        with pytest.raises(ConfigError, match=f"line {lineno}: {key} must be >"):
            load_config(text)

    # a nan fails no comparison, so it would pass every bound, and an inf
    # passes every one here
    @pytest.mark.parametrize(
        "key, raw",
        [(key, raw) for key in FLOAT_KEYS for raw in ("nan", "inf")]
        + [("loss_rates", "0,nan"), ("loss_rates", "nan,nan")],
    )
    def test_non_finite_names_key_and_line(self, key, raw):
        text, lineno = config_with(key, raw)
        bad = raw.rpartition(",")[2]
        with pytest.raises(
            ConfigError, match=f"line {lineno}: {key} must be a finite number, got '{bad}'"
        ):
            load_config(text)

    # int() and float() also read digit separators and non-ASCII digits
    @pytest.mark.parametrize(
        "key, raw, noun",
        [("hops", "1_0", "an integer"), ("loss_rates", "0_0.5", "a number"),
         ("seeds", "\uff17", "an integer"), ("scripted_drops", "1:1_0:1", "an integer")],
    )
    def test_only_plain_ascii_literals(self, key, raw, noun):
        text, lineno = config_with(key, raw)
        bad = raw.split(":")[1] if key == "scripted_drops" else raw
        with pytest.raises(
            ConfigError, match=re.escape(f"line {lineno}: {key} must be {noun}, got '{bad}'")
        ):
            load_config(text)


@pytest.mark.parametrize("duration", [0.25, 1e6])
@pytest.mark.parametrize("ulps, ok", [(0.5, False), (1.0, False), (2.0, True)])
def test_bandwidth_bound_is_one_ulp_of_duration(duration, ulps, ok):
    # refused while an ACK takes at most one ulp of duration (at exactly one
    # ulp only where duration's last mantissa bit is 0, as for these two)
    assert (duration / math.ulp(duration)) % 2 == 0
    bandwidth = DEFAULT_ACK_BYTES * 8.0 / (ulps * math.ulp(duration))
    text, lineno = config_with("bandwidth_bps", repr(bandwidth))
    overrides = [f"duration={duration!r}"]
    if ok:
        assert load_config(text, overrides).bandwidth_bps == bandwidth
    else:
        with pytest.raises(ConfigError, match=f"line {lineno}: bandwidth_bps sends an ACK"):
            load_config(text, overrides)


@pytest.mark.parametrize("bandwidth, bound", [(None, 6290.5), (1e7, 31452.7)])
@pytest.mark.parametrize("scale, ok", [(1 - 1e-9, True), (1 + 1e-9, False), (1e16, False)])
def test_loss_rate_bound_is_one_data_segment_on_the_air(bandwidth, bound, scale, ok):
    # refused once the largest gap a loss clock can draw, LARGEST_UNIT_DRAW /
    # rate, is no longer than a data segment's time on the air: then every
    # data transmission is lost, at the default bandwidth and at another
    bps = mesh.DEFAULT_BANDWIDTH_BPS if bandwidth is None else bandwidth
    limit = LARGEST_UNIT_DRAW * bps / (8 * DEFAULT_MSS_BYTES)
    assert round(limit, 1) == bound
    rate = limit * scale
    text, lineno = config_with("loss_rates", f"0,{rate!r}")
    overrides = [] if bandwidth is None else [f"bandwidth_bps={bandwidth!r}"]
    if ok:
        assert load_config(text, overrides).loss_rates == (0.0, rate)
    else:
        with pytest.raises(ConfigError, match=re.escape(f"line {lineno}: loss_rates {rate} loses")):
            load_config(text, overrides)
