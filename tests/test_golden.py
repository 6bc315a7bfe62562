"""Frozen sha256 digests of the simulator's outputs.

A run is a pure function of (config, seed), so these digests pin the model
across versions: a refactor that reorders events or changes a number fails
here even when two runs of the same code agree. Only an intended change to
model behaviour may update a digest, and CHANGES.md must say so.
"""

import hashlib
import math
from pathlib import Path

import pytest

from meshtcp.cc import Flavor
from meshtcp.cli import main
from meshtcp.engine import RngStream, run_until
from meshtcp.experiment import (
    build_world,
    emit_csv,
    load_config,
    run_experiment,
    run_single,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def spec_of(name, **overrides):
    return load_config((CONFIGS / name).read_text(), [f"{k}={v}" for k, v in overrides.items()])


# emit_csv(run_experiment(...)) per config, with overrides that keep it short
SWEEP_OVERRIDES = {
    "hop_sweep.cfg": {},
    "retransmission_loss.cfg": {},
    "loss_sweep.cfg": {"seeds": "1,2", "duration": "10"},
}
SWEEP_CSV = {
    "hop_sweep.cfg": "1db9d4da871fe039de016a69e8ab8f4b510b350af2aeeafd2ff1f07424114017",
    "retransmission_loss.cfg": "fd4800cf2a4f70aef781ece573f05b0327f648aeade26368d028cea50dce129c",
    "loss_sweep.cfg": "f5149e72179ff03712dcc9354186e515edc04ad99c22b0dc5aecca78326041a3",
}

# the same sweep over several seeds: every row of a scripted sweep is the
# same run, whatever its seed
SCRIPTED_SEEDS_CSV = "adfae6200e763aae2641e852501fd120d3f6b411f1cbfdce1e9f8304d9fc94fc"

# RunTrace.export() of retransmission_loss.cfg: scripted drops, 1 hop
SCRIPTED_TRACE = {
    "sac": "42fe18859bbc61bc74b556b5b9364ddeb394946de54e00cf7218e08127b8185c",
    "newreno": "bb802d6169c3fe0de137577760eb08b2c56112a724c76c630f94b1f385d02db4",
    "reno": "bb802d6169c3fe0de137577760eb08b2c56112a724c76c630f94b1f385d02db4",
    "sack": "bb802d6169c3fe0de137577760eb08b2c56112a724c76c630f94b1f385d02db4",
    "vegas": "0daa936e6cd8a0a68217e4ae4bdb54312fa0374be60760559f4bb171c93f1b0f",
}

# RunTrace.export() of loss_sweep.cfg at 3 hops, loss 1.0/s, seed 7
LOSSY_TRACE = {
    "sac": "b0b415820fb0805440733853c1fb589d4a9705309594b4c880f4b0fb2a79e99c",
    "newreno": "b0b415820fb0805440733853c1fb589d4a9705309594b4c880f4b0fb2a79e99c",
    "reno": "854e8f148f10040badc6570425e28bcf0d4789278b437d24afb6d697861fa64c",
    "sack": "b6f98b5202bdedd0a006c6c5cf936dda39dfa7b7284e904ffefc4749b97af615",
    "vegas": "071e3bbd9460232ecd5c37e5048b009115f3d19420bb5c82f7d7438dff6b1b29",
}

# files written by the CLI: (argv without --out, {file: digest}, exit code)
CLI_OUTPUTS = {
    "trace_lossy": (
        ["trace", "--config", str(CONFIGS / "loss_sweep.cfg"), "--flavor", "sac",
         "--hops", "3", "--seed", "7", "--override", "loss_rates=1.0",
         "--override", "duration=10"],
        {
            "cwnd.tsv": "fbce202210efa22cecb24e230aa5f8c0f64b361472b89854f94836a3efc00de1",
            "trace.tsv": "b0b415820fb0805440733853c1fb589d4a9705309594b4c880f4b0fb2a79e99c",
        },
        0,
    ),
    "compare_scripted": (
        ["compare", "--config", str(CONFIGS / "retransmission_loss.cfg"),
         "--baseline", "newreno", "--candidate", "sac"],
        {
            "compare.csv": "3abc7a1dd7d37c5d6d83d51e60f2445c490b9ef9f51a6f83e6566cec094452af",
            "summary.txt": "28001f91614d74e5b7c3048027d6384260fb05519fe73860591ad4e1d2dd380b",
        },
        0,
    ),
    "compare_lossy": (
        ["compare", "--config", str(CONFIGS / "loss_sweep.cfg"),
         "--baseline", "sack", "--candidate", "reno",
         "--override", "seeds=1,2", "--override", "duration=10"],
        {
            "compare.csv": "5b5664b7b5e5676f2b6fe1dbcc8a7afe8c9c08872c67e63128e497f1c2552306",
            "summary.txt": "b1e7bdc2e8f873a7b86c97827500fc9ed1b5c3cf70b41f07bff5d06064a9e4d1",
        },
        3,
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEP_CSV))
def test_sweep_csv_digest(name):
    spec = spec_of(name, **SWEEP_OVERRIDES[name])
    assert sha256(emit_csv(run_experiment(spec))) == SWEEP_CSV[name]


def test_scripted_sweep_over_seeds_digest():
    spec = spec_of("retransmission_loss.cfg", seeds="1,2,3", loss_rates="0")
    assert sha256(emit_csv(run_experiment(spec))) == SCRIPTED_SEEDS_CSV


@pytest.mark.parametrize("flavor", sorted(SCRIPTED_TRACE))
def test_scripted_trace_digest(flavor):
    spec = spec_of("retransmission_loss.cfg")
    trace = run_single(spec, Flavor(flavor), 1, 0.0, 1)
    assert sha256(trace.export()) == SCRIPTED_TRACE[flavor]


@pytest.mark.parametrize("flavor", sorted(LOSSY_TRACE))
def test_lossy_trace_digest(flavor):
    spec = spec_of("loss_sweep.cfg", duration="10")
    trace = run_single(spec, Flavor(flavor), 3, 1.0, 7)
    assert sha256(trace.export()) == LOSSY_TRACE[flavor]


@pytest.mark.parametrize("name", sorted(CLI_OUTPUTS))
def test_cli_output_digest(name, tmp_path):
    argv, digests, exit_code = CLI_OUTPUTS[name]
    assert main(argv + ["--out", str(tmp_path)]) == exit_code
    got = {file: sha256((tmp_path / file).read_bytes()) for file in digests}
    assert got == digests


def test_cli_trace_matches_export():
    # `trace` writes the same text that RunTrace.export() gives for its point
    spec = spec_of("loss_sweep.cfg", loss_rates="1.0", duration="10")
    trace = run_until(build_world(spec, Flavor.SAC, 3, 1.0, 7), spec.duration)
    assert sha256(trace.export()) == CLI_OUTPUTS["trace_lossy"][1]["trace.tsv"]


def nudge_loss_draws(monkeypatch, nudge):
    """Pass every exponential draw through ``nudge``."""
    draw = RngStream.exponential
    monkeypatch.setattr(RngStream, "exponential", lambda self, rate: nudge(draw(self, rate)))


def loss_sweep_digest():
    spec = spec_of("loss_sweep.cfg", **SWEEP_OVERRIDES["loss_sweep.cfg"])
    return sha256(emit_csv(run_experiment(spec)))


@pytest.mark.parametrize("toward", [math.inf, -math.inf])
def test_one_ulp_in_loss_draws_changes_no_digest(monkeypatch, toward):
    # a libm whose log() differs in the last bit must give the same outputs:
    # no result may hang on where a loss instant falls within one ulp
    nudge_loss_draws(monkeypatch, lambda x: math.nextafter(x, toward))
    spec = spec_of("loss_sweep.cfg", duration="10")
    lossy = {f: sha256(run_single(spec, Flavor(f), 3, 1.0, 7).export()) for f in LOSSY_TRACE}
    assert lossy == LOSSY_TRACE
    assert loss_sweep_digest() == SWEEP_CSV["loss_sweep.cfg"]


def test_one_percent_in_loss_draws_changes_the_sweep_digest(monkeypatch):
    # keeps the one-ulp test live: the sweep digest does see the loss draws
    nudge_loss_draws(monkeypatch, lambda x: x * 1.01)
    assert loss_sweep_digest() != SWEEP_CSV["loss_sweep.cfg"]
