from pathlib import Path

import pytest

from meshtcp import cli
from meshtcp.cli import main

LOSS_SWEEP = str(Path(__file__).resolve().parent.parent / "configs" / "loss_sweep.cfg")

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
    assert main(["run", "--config", cfg, "--out", str(out), "--seed", "9"]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert all(",9," in line for line in lines[1:])


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


def test_compare_reversed_verdict_exits_3(tmp_path):
    cfg = write(tmp_path, SCRIPTED)
    out = tmp_path / "cmp"
    rc = main(
        ["compare", "--config", cfg, "--baseline", "sac",
         "--candidate", "newreno", "--out", str(out)]
    )
    assert rc == 3
    assert "verdict=fail" in (out / "summary.txt").read_text()


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
