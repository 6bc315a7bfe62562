import pytest

from meshtcp.cc import Flavor
from meshtcp.errors import ConfigError
from meshtcp.experiment import (
    CSV_HEADER,
    ResultRow,
    build_world,
    emit_csv,
    load_config,
    run_experiment,
)

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
        assert spec.n_nodes == 5

    def test_defaults_applied(self):
        spec = load_config(BASIC)
        assert spec.bandwidth_bps == 2_000_000
        assert spec.prop_delay_s == 0.001
        assert spec.queue_capacity == 50
        assert spec.mss_bytes == 1460
        assert spec.ack_bytes == 40
        assert spec.interference_range == 2
        assert spec.rto_min_s == 0.2
        assert spec.rto_max_s == 60.0
        assert spec.app_limit is None
        assert spec.warmup_s == 0.0

    def test_unknown_flavor_rejected(self):
        with pytest.raises(ConfigError, match="cubic"):
            load_config(BASIC.replace("sac,newreno", "cubic"))

    def test_empty_config_rejected(self):
        with pytest.raises(ConfigError, match="missing required"):
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

    def test_comments_and_blanks_ignored(self):
        spec = load_config("# comment\n\n" + BASIC + "   # trailing comment\n")
        assert spec.duration == 60

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigError, match="duration"):
            load_config(BASIC.replace("duration = 60", "duration = 0"))

    def test_scripted_drops_parse(self):
        spec = load_config(BASIC + "scripted_drops = 1:10:1;1:10:2\n")
        assert [(d.hop, d.seq, d.nth) for d in spec.scripted_drops] == [
            (1, 10, 1),
            (1, 10, 2),
        ]

    def test_scripted_drops_malformed(self):
        with pytest.raises(ConfigError, match="scripted_drops"):
            load_config(BASIC + "scripted_drops = 1:10\n")

    def test_scripted_drop_beyond_chain(self):
        with pytest.raises(ConfigError, match="beyond the chain"):
            load_config(BASIC + "scripted_drops = 9:10:1\n")

    def test_app_limit_unbounded_and_numeric(self):
        assert load_config(BASIC + "app_limit = unbounded\n").app_limit is None
        assert load_config(BASIC + "app_limit = 500\n").app_limit == 500

    def test_overrides_replace_keys(self):
        spec = load_config(BASIC, overrides={"seeds": "9", "duration": "5"})
        assert spec.seeds == (9,)
        assert spec.duration == 5.0

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="override"):
            load_config(BASIC, overrides={"nope": "1"})


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
            s1 = w_reno.net.link(src, dst).loss._stream
            s2 = w_sac.net.link(src, dst).loss._stream
            assert (s1.seed, s1.name) == (s2.seed, s2.name)
            assert [s1.uniform() for _ in range(5)] == [s2.uniform() for _ in range(5)]


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


# every numeric key, with a value just below its lower bound (None: unbounded)
BELOW_BOUND = {
    "hops": "0",
    "loss_rates": "-0.5",
    "seeds": None,
    "duration": "0",
    "bandwidth_bps": "0",
    "prop_delay_s": "-0.001",
    "queue_capacity": "0",
    "mss_bytes": "0",
    "ack_bytes": "0",
    "interference_range": "-1",
    "rto_min_s": "0",
    "rto_max_s": "0",
    "app_limit": "0",
    "warmup_s": "-1",
}


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


@pytest.mark.parametrize(
    "raw, ok", [("63", False), ("64", True), ("65535", True), ("65536", False)]
)
def test_mss_bytes_range_matches_sender(raw, ok):
    text, lineno = config_with("mss_bytes", raw)
    if ok:
        assert load_config(text).mss_bytes == int(raw)
    else:
        with pytest.raises(ConfigError, match=f"line {lineno}: mss_bytes must be"):
            load_config(text)
