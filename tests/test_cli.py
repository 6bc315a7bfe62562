import argparse
import importlib.util
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from meshtcp import cc, cli
from meshtcp.cli import main
from meshtcp.errors import ContractError
from meshtcp.mesh import MeshNetwork

REPO = Path(__file__).resolve().parent.parent
LOSS_SWEEP = str(REPO / "configs" / "loss_sweep.cfg")

GOOD = """\
flavors = sac,newreno
hops = 1
loss_rates = 0
seeds = 1
duration = 5
app_limit = 100
"""

SCRIPTED = """\
flavors = sac,newreno
hops = 1
loss_rates = 0
seeds = 1
duration = 10
app_limit = 200
rto_min_s = 1.0
scripted_drops = 1:10:1;1:10:2
"""


def write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_validate_ok(tmp_path):
    assert main(["validate", "--config", write(tmp_path, GOOD)]) == 0


def test_validate_unknown_flavor_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, GOOD.replace("sac,newreno", "cubic"))
    assert main(["validate", "--config", cfg]) == 2
    assert "cubic" in capsys.readouterr().err


def test_validate_missing_file_exits_2(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_run_writes_results_csv(tmp_path):
    cfg = write(tmp_path, GOOD)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "results.csv").read_text()
    assert text.startswith("flavor,hops,loss_rate,seed,")
    assert len(text.splitlines()) == 3  # header + 2 flavors

    # rerun produces identical bytes
    out2 = tmp_path / "out2"
    main(["run", "--config", cfg, "--out", str(out2)])
    assert (out2 / "results.csv").read_bytes() == (out / "results.csv").read_bytes()


def test_run_seed_override(tmp_path):
    cfg = write(tmp_path, GOOD)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out), "--override", "seeds=9"]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert all(",9," in line for line in lines[1:])


def test_each_subcommand_takes_exactly_its_declared_options():
    # the knob census: adding or removing a flag is a declared edit here
    parser = cli._build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    common = ["-h", "--help", "--config", "--out", "--override"]
    assert {
        name: sorted(opt for action in sub._actions for opt in action.option_strings)
        for name, sub in commands.items()
    } == {
        "run": sorted(common),
        "trace": sorted(common + ["--flavor", "--hops", "--seed"]),
        "compare": sorted(common + ["--baseline", "--candidate"]),
        "validate": sorted(set(common) - {"--out"}),
    }


def test_run_refuses_a_seed_flag(tmp_path, capsys):
    # --override seeds=N is the one way to pick seeds
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", write(tmp_path, GOOD), "--out", str(tmp_path / "o"),
              "--seed", "9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 9" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--override", "seeds=1", "--override", "seeds=2"],
        ["run", "--out", "o", "--override", "seeds = 1", "--override", "seeds=2"],
    ],
)
def test_repeated_seeds_setting_exits_2_naming_the_key(tmp_path, capsys, monkeypatch, argv):
    # a second setting of one key is an error, as in the config file, not
    # a silent last-wins
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--config", write(tmp_path, GOOD)]) == 2
    assert "'seeds'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["run", "--out", "o"], ["validate"]])
def test_drop_table_beside_a_loss_rate_exits_2(tmp_path, capsys, monkeypatch, argv):
    # each rate under a drop table would be the same run under another label
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, SCRIPTED.replace("loss_rates = 0", "loss_rates = 0,0.5"))
    assert main([*argv, "--config", cfg]) == 2
    assert "line 8: scripted_drops replaces the loss model" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# GOOD has six lines, so an appended key is on line 7; the RTO ceiling is
# a fixed 60 s (RFC 6298 §2.5), so no key sets it
@pytest.mark.parametrize(
    "extra, overrides, error",
    [
        ("rto_min_s = 61\n", [], "line 7: rto_min_s must be <= 60.0, got 61.0"),
        ("", ["rto_min_s=61"], "override: rto_min_s must be <= 60.0, got 61.0"),
        ("rto_max_s = 60\n", [], "line 7: unknown key 'rto_max_s'"),
    ],
)
def test_rto_ceiling_is_fixed_at_60_s(tmp_path, capsys, extra, overrides, error):
    argv = [arg for pair in overrides for arg in ("--override", pair)]
    assert main(["validate", "--config", write(tmp_path, GOOD + extra), *argv]) == 2
    assert capsys.readouterr().err == f"configuration error: {error}\n"


def test_no_key_sets_a_measurement_window(tmp_path, capsys):
    # metrics cover the whole run; a window is summarize() over a suffix of
    # a kept trace
    assert main(["validate", "--config", write(tmp_path, GOOD + "warmup_s = 2\n")]) == 2
    assert capsys.readouterr().err == "configuration error: line 7: unknown key 'warmup_s'\n"


def test_segment_size_is_fixed_at_1460_bytes(tmp_path, capsys):
    # every data segment is endpoint.DEFAULT_MSS_BYTES long; no key sets it
    assert main(["validate", "--config", write(tmp_path, GOOD + "mss_bytes = 1460\n")]) == 2
    assert capsys.readouterr().err == "configuration error: line 7: unknown key 'mss_bytes'\n"


def test_loss_rate_that_cannot_move_the_clock_exits_2(tmp_path, capsys):
    # each gap of about 1e-20 s is below one ulp of a clock at 1 s, so the
    # loss clock would never catch up with the first retransmission
    cfg = write(tmp_path, GOOD.replace("loss_rates = 0", "loss_rates = 1e20"))
    assert main(["validate", "--config", cfg, "--override", "duration=1"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: line 3: loss_rates 1e+20 draws no gap that moves a clock"
        " at duration\n"
    )


# a check across keys names where the key it reports was set last
@pytest.mark.parametrize(
    "overrides, where",
    [(["loss_rates=0.5"], "line 7"), (["scripted_drops=1:10:2", "loss_rates=0.5"], "override")],
)
def test_drop_table_error_names_its_location(tmp_path, capsys, overrides, where):
    argv = [arg for pair in overrides for arg in ("--override", pair)]
    cfg = write(tmp_path, GOOD + "scripted_drops = 1:10:1\n")
    assert main(["validate", "--config", cfg, *argv]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: {where}: "
        "scripted_drops replaces the loss model, so loss_rates must be 0\n"
    )


# an ACK's transmission must move the clock up to the run's end, or time
# stops and the run never ends
@pytest.mark.parametrize(
    "text, error",
    [
        (GOOD, None),
        (
            GOOD.replace("duration = 5", "duration = 0.01")
            + "bandwidth_bps = 1e308\nprop_delay_s = 0\n",
            "line 7: bandwidth_bps sends an ACK within one ulp of duration",
        ),
        (
            GOOD.replace("duration = 5", "duration = 1e300"),
            "line 5: bandwidth_bps sends an ACK within one ulp of duration",
        ),
    ],
    ids=["defaults", "huge_bandwidth", "huge_duration"],
)
def test_ack_within_one_clock_ulp_exits_2(tmp_path, capsys, text, error):
    code = main(["validate", "--config", write(tmp_path, text)])
    assert (code, capsys.readouterr().err) == (
        (2, f"configuration error: {error}\n") if error else (0, "")
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--flavor", "sac", "--hops", "1_0", "--seed", "1"],
        ["trace", "--flavor", "sac", "--hops", "1", "--seed", "\uff17"],
    ],
    ids=["trace_hops_separator", "trace_seed_fullwidth"],
)
def test_integer_flag_takes_only_a_plain_ascii_literal(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", write(tmp_path, GOOD), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "invalid number value" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_override_without_a_value_exits_2(tmp_path, capsys):
    assert main(["validate", "--config", write(tmp_path, GOOD), "--override", "seeds"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: override: expected 'key = value', got 'seeds'\n"
    )


@pytest.mark.parametrize(
    "entries, error",
    [
        (["seeds"], "expected 'key = value', got 'seeds'"),
        (["frobnicate = 1"], "unknown key 'frobnicate'"),
        (["seeds = 1", "seeds = 2"], "duplicate key 'seeds'"),
        (["app_limit ="], "empty value for 'app_limit'"),
    ],
    ids=["missing_equals", "unknown_key", "repeated_key", "empty_value"],
)
def test_file_line_and_override_share_one_grammar(tmp_path, capsys, entries, error):
    # an override is one more config entry: the same check gives the same
    # message, and only the location differs
    cfg = write(tmp_path, "\n".join(entries) + "\n")
    assert main(["validate", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"configuration error: line {len(entries)}: {error}\n"
    argv = [arg for entry in entries for arg in ("--override", entry)]
    assert main(["validate", "--config", write(tmp_path, GOOD), *argv]) == 2
    assert capsys.readouterr().err == f"configuration error: override: {error}\n"


def test_run_override_key(tmp_path):
    cfg = write(tmp_path, GOOD)
    out = tmp_path / "o"
    rc = main(
        ["run", "--config", cfg, "--out", str(out), "--override", "flavors=reno"]
    )
    assert rc == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("reno,")


def test_trace_writes_trace_and_cwnd_files(tmp_path):
    cfg = write(tmp_path, GOOD)
    out = tmp_path / "t"
    rc = main(
        ["trace", "--config", cfg, "--flavor", "sac", "--hops", "1",
         "--seed", "1", "--out", str(out)]
    )
    assert rc == 0
    trace_lines = (out / "trace.tsv").read_text().splitlines()
    assert all(len(line.split("\t")) == 5 for line in trace_lines)
    cwnd_lines = (out / "cwnd.tsv").read_text().splitlines()
    assert cwnd_lines[0].endswith("\t1")
    # nothing written outside --out
    assert sorted(p.name for p in out.iterdir()) == ["cwnd.tsv", "trace.tsv"]


def test_trace_rerun_is_byte_identical(tmp_path):
    cfg = write(tmp_path, GOOD)
    outs = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        main(["trace", "--config", cfg, "--flavor", "newreno", "--hops", "1",
              "--seed", "3", "--out", str(out)])
        outs.append(out)
    assert (outs[0] / "trace.tsv").read_bytes() == (outs[1] / "trace.tsv").read_bytes()
    assert (outs[0] / "cwnd.tsv").read_bytes() == (outs[1] / "cwnd.tsv").read_bytes()


def test_trace_rejects_bad_flavor_and_hops(tmp_path):
    cfg = write(tmp_path, GOOD)
    out = str(tmp_path / "t")
    assert main(["trace", "--config", cfg, "--flavor", "cubic", "--hops", "1",
                 "--seed", "1", "--out", out]) == 2
    assert main(["trace", "--config", cfg, "--flavor", "sac", "--hops", "7",
                 "--seed", "1", "--out", out]) == 2
    assert not (tmp_path / "t").exists()  # rejected before --out is created


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["trace", "--flavor", "cubic", "--hops", "1", "--seed", "1"], "--flavor"),
        (["compare", "--baseline", "cubic", "--candidate", "sac"], "--baseline"),
        (["compare", "--baseline", "newreno", "--candidate", "cubic"], "--candidate"),
    ],
)
def test_unknown_flavor_flag_exits_2_naming_the_flag(tmp_path, capsys, argv, flag):
    cfg = write(tmp_path, GOOD)
    assert main([*argv, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    known = ", ".join(f.value for f in cc.Flavor)
    assert f"{flag}: unknown flavor 'cubic' (known: {known})" in capsys.readouterr().err


def test_trace_needs_exactly_one_loss_rate(tmp_path, capsys):
    # the README example: loss_sweep.cfg lists four loss rates
    argv = ["trace", "--config", LOSS_SWEEP, "--flavor", "sac", "--hops", "4",
            "--seed", "1"]
    assert main(argv + ["--out", str(tmp_path / "t")]) == 2
    assert "--override loss_rates=<rate>" in capsys.readouterr().err
    out = tmp_path / "t2"
    assert main(argv + ["--override", "loss_rates=0.5", "--out", str(out)]) == 0
    kinds = [line.split("\t")[1] for line in (out / "trace.tsv").read_text().splitlines()]
    assert "DROP_WIRELESS" in kinds


def test_trace_failing_mid_run_leaves_no_files(tmp_path, monkeypatch, capsys):
    on_new_ack = cc.on_new_ack
    calls = []

    def fail_later(*args, **kwargs):
        calls.append(None)
        if len(calls) == 50:
            raise ContractError("injected cc failure")
        return on_new_ack(*args, **kwargs)

    monkeypatch.setattr(cc, "on_new_ack", fail_later)
    out = tmp_path / "t"
    assert main(["trace", "--config", write(tmp_path, GOOD), "--flavor", "sac",
                 "--hops", "1", "--seed", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(calls) == 50 and "injected cc failure" in err
    assert "combination flavor=sac hops=1 loss_rate=0.0 seed=1 aborted" in err
    assert list(out.iterdir()) == []  # no trace.tsv, cwnd.tsv or partial file


TRACE_LONG = """\
flavors = sack
hops = 1
loss_rates = 2.0
seeds = 1
duration = 20
"""


def test_trace_memory_does_not_grow_with_duration(tmp_path):
    cfg = write(tmp_path, TRACE_LONG)
    peaks = []
    for duration in (20, 80):
        argv = ["trace", "--config", cfg, "--flavor", "sack", "--hops", "1",
                "--seed", "1", "--override", f"duration={duration}",
                "--out", str(tmp_path / f"d{duration}")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def _start_on_any_idle_link(self, link, seg, now):
    # enqueue without waiting for the group's channel
    link.queue.append(seg)
    if len(link.queue) == 1:
        self._start_transmission(link, now)


def _free_twice(on_channel_free):
    def free(self, link, now):
        on_channel_free(self, link, now)
        on_channel_free(self, link, now)

    return free


@pytest.mark.parametrize(
    "attr, broken, message",
    [
        ("enqueue", _start_on_any_idle_link, "group 0 is held"),
        ("on_channel_free", _free_twice(MeshNetwork.on_channel_free), "without holding"),
    ],
    ids=["start_on_held_channel", "free_unheld_channel"],
)
def test_channel_misuse_exits_1(tmp_path, capsys, monkeypatch, attr, broken, message):
    monkeypatch.setattr(MeshNetwork, attr, broken)
    cfg = write(tmp_path, GOOD)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and message in err


def test_double_retire_exits_1_naming_the_sweep_point(tmp_path, capsys, monkeypatch):
    # a network that retires each delivered segment twice un-counts segments
    # it no longer carries; the in-flight count refuses to go below zero
    arrive = MeshNetwork.arrive

    def arrive_twice(self, link, seg, now):
        delivered = arrive(self, link, seg, now)
        if delivered:
            arrive(self, link, seg, now)
        return delivered

    monkeypatch.setattr(MeshNetwork, "arrive", arrive_twice)
    cfg = write(tmp_path, GOOD)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "not in flight" in err
    assert "combination flavor=" in err


def test_compare_sac_beats_newreno_on_retransmission_loss_script(tmp_path):
    cfg = write(tmp_path, SCRIPTED)
    out = tmp_path / "cmp"
    rc = main(
        ["compare", "--config", cfg, "--baseline", "newreno",
         "--candidate", "sac", "--out", str(out)]
    )
    assert rc == 0
    summary = (out / "summary.txt").read_text()
    assert "verdict=pass" in summary
    csv_lines = (out / "compare.csv").read_text().splitlines()
    assert len(csv_lines) == 2  # header + one pair


def test_compare_pairs_rows_by_their_point(tmp_path, monkeypatch):
    # each candidate row meets the baseline row of its own point, whatever
    # order the sweep gives the baseline's rows in
    cfg = write(tmp_path, "flavors = sac\nhops = 1,2\nloss_rates = 0,1\nseeds = 1,2\nduration = 2")
    argv = ["compare", "--config", cfg, "--baseline", "newreno", "--candidate", "sac", "--out"]
    rc = main(argv + [str(tmp_path / "in_order")])
    run_experiment = cli.run_experiment

    def baseline_reversed(spec):
        rows = run_experiment(spec)
        baseline = [r for r in rows if r.flavor is cc.Flavor.NEWRENO]
        return baseline[::-1] + [r for r in rows if r.flavor is not cc.Flavor.NEWRENO]

    monkeypatch.setattr(cli, "run_experiment", baseline_reversed)
    assert main(argv + [str(tmp_path / "reversed")]) == rc
    for name in ("compare.csv", "summary.txt"):
        in_order = (tmp_path / "in_order" / name).read_text()
        assert (tmp_path / "reversed" / name).read_text() == in_order


def test_compare_reversed_verdict_exits_3(tmp_path):
    cfg = write(tmp_path, SCRIPTED)
    out = tmp_path / "cmp"
    rc = main(
        ["compare", "--config", cfg, "--baseline", "sac",
         "--candidate", "newreno", "--out", str(out)]
    )
    assert rc == 3
    assert "verdict=fail" in (out / "summary.txt").read_text()


def test_compare_of_a_flavor_with_itself_exits_2(tmp_path, capsys):
    # the two sweeps would be one run twice, and its verdict would say nothing
    out = tmp_path / "cmp"
    rc = main(["compare", "--config", write(tmp_path, SCRIPTED), "--baseline", "sac",
               "--candidate", "sac", "--out", str(out)])
    assert rc == 2
    assert "--baseline and --candidate both name 'sac'" in capsys.readouterr().err
    assert not out.exists()


def test_compare_undefined_throughput_exits_3_without_verdict(tmp_path, capsys):
    # a valid config whose one-segment run has no send span to measure
    cfg = write(tmp_path, GOOD.replace("sac,newreno", "sac").replace(
        "app_limit = 100", "app_limit = 1"))
    out = tmp_path / "cmp"
    rc = main(["compare", "--config", cfg, "--baseline", "newreno",
               "--candidate", "sac", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "throughput" in err
    assert "configuration error" not in err
    assert not (out / "summary.txt").exists()


def test_usage_error_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing required flags
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["run"],
        ["trace", "--flavor", "sac", "--hops", "1", "--seed", "1"],
        ["compare", "--baseline", "newreno", "--candidate", "sac"],
    ],
)
def test_unusable_out_exits_2_before_any_run(tmp_path, capsys, monkeypatch, argv):
    def no_run(*args, **kwargs):
        raise AssertionError("ran a sweep point before creating --out")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    monkeypatch.setattr(cli, "run_single", no_run)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    cfg = write(tmp_path, GOOD)
    assert main(argv + ["--config", cfg, "--out", str(blocker)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(blocker) in err


@pytest.mark.parametrize(
    "argv, output",
    [
        (["run"], "results.csv"),
        (["trace", "--flavor", "sac", "--hops", "1", "--seed", "1"], "trace.tsv"),
        (["compare", "--baseline", "newreno", "--candidate", "sac"], "compare.csv"),
        (["run"], "results.csv.partial"),  # where run writes before the rename
    ],
    ids=["run", "trace", "compare", "run-partial"],
)
def test_unwritable_output_exits_2_and_leaves_no_partial(tmp_path, capsys, argv, output):
    out = tmp_path / "o"
    (out / output).mkdir(parents=True)  # a directory where the output goes
    cfg = write(tmp_path, GOOD.replace("sac,newreno", "sac"))
    assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("configuration error: cannot write")
    assert [p.name for p in out.iterdir()] == [output]


@pytest.mark.parametrize(
    "argv, blocked, kept",
    [
        (["trace", "--flavor", "sac", "--hops", "1", "--seed", "1"], "cwnd.tsv", "trace.tsv"),
        (["compare", "--baseline", "newreno", "--candidate", "sac"], "summary.txt", "compare.csv"),
    ],
    ids=["trace", "compare"],
)
def test_unwritable_second_output_leaves_the_first_unchanged(
    tmp_path, capsys, argv, blocked, kept
):
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)
    (out / kept).write_text("older\n")
    cfg = write(tmp_path, GOOD.replace("sac,newreno", "sac"))
    assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("configuration error: cannot write")
    assert (out / kept).read_text() == "older\n"
    assert sorted(p.name for p in out.iterdir()) == sorted([blocked, kept])


def test_importing_cli_leaves_heavy_stdlib_modules_unloaded():
    # each worker of a parallel sweep pays the import again; only modules the
    # import adds count, since site may have loaded some of these already
    code = (
        "import sys; before = set(sys.modules); import meshtcp.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    added = set(
        subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        ).stdout.split()
    )
    assert "meshtcp.cli" in added
    unwanted = {"dataclasses", "inspect", "statistics"}
    if importlib.util.find_spec("_sha256") is not None:
        unwanted |= {"hashlib", "_hashlib"}  # else sha256 comes from hashlib
    assert not added & unwanted
