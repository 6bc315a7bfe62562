"""Benchmark workloads: a meshtcp config and CLI arguments made from a
workload seed, and the checks that a command's outputs are correct.

meshtcp sees only the generated config file and the CLI arguments; the
workload seed picks the simulation seeds. See NOTES.md for why each
workload was chosen and which layers it stresses.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1

CSV_HEADER = (
    "flavor,hops,loss_rate,seed,throughput,goodput,plr,mean_delay,"
    "rto_count,retransmit_count,delivered_count"
)
COMPARE_HEADER = (
    "hops,loss_rate,seed,baseline_throughput,candidate_throughput,"
    "throughput_delta,baseline_rto_count,candidate_rto_count,rto_count_delta"
)


class OutputError(Exception):
    """A command's outputs are malformed or inconsistent."""


@dataclass(frozen=True)
class Case:
    """One workload at one workload seed."""

    name: str
    config: str
    argv: tuple[str, ...]  # subcommand and flags, without --config/--out
    outputs: tuple[str, ...]  # files under --out that are digested
    points: int  # sweep points (single runs) one command executes
    sim_seeds: tuple[int, ...]


def _sim_seeds(name: str, seed: int, n: int) -> tuple[int, ...]:
    rng = random.Random(f"{name}/{seed}")
    return tuple(sorted(rng.randrange(1, 2**31) for _ in range(n)))


def _seed_list(seeds) -> str:
    return ",".join(str(s) for s in seeds)


def _loss_sweep(seed: int) -> Case:
    seeds = _sim_seeds("loss_sweep", seed, 2)
    config = (
        "flavors = sac,newreno,reno,sack,vegas\n"
        "hops = 4\n"
        "loss_rates = 0,0.2,0.5,1.0\n"
        f"seeds = {_seed_list(seeds)}\n"
        "duration = 12\n"
    )
    return Case("loss_sweep", config, ("run",), ("results.csv",), 5 * 4 * 2, seeds)


def _long_chain(seed: int) -> Case:
    seeds = _sim_seeds("long_chain", seed, 2)
    config = (
        "flavors = newreno,sac\n"
        "hops = 12\n"
        "loss_rates = 0,0.2\n"
        f"seeds = {_seed_list(seeds)}\n"
        "duration = 20\n"
    )
    argv = ("compare", "--baseline", "newreno", "--candidate", "sac")
    return Case("long_chain", config, argv, ("compare.csv", "summary.txt"), 2 * 2 * 2, seeds)


def _long_trace(seed: int) -> Case:
    seeds = _sim_seeds("long_trace", seed, 1)
    # trace reads only loss_rates[0], so exactly one rate is listed
    config = (
        "flavors = sack\n"
        "hops = 1\n"
        "loss_rates = 2.0\n"
        f"seeds = {seeds[0]}\n"
        "duration = 150\n"
    )
    argv = ("trace", "--flavor", "sack", "--hops", "1", "--seed", str(seeds[0]))
    return Case("long_trace", config, argv, ("trace.tsv", "cwnd.tsv"), 1, seeds)


WORKLOADS = {
    "loss_sweep": _loss_sweep,
    "long_chain": _long_chain,
    "long_trace": _long_trace,
}


def make(name: str, seed: int) -> Case:
    return WORKLOADS[name](seed)


def digest(case: Case, out: Path, exit_code: int) -> dict:
    """sha256 of every output file, plus the exit code."""
    files = {}
    for name in case.outputs:
        path = out / name
        if not path.is_file():
            raise OutputError(f"missing output {name}")
        files[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"exit_code": exit_code, "files": files}


def _number(text: str, what: str) -> float | None:
    if text == "nan":
        return None
    try:
        value = float(text)
    except ValueError:
        raise OutputError(f"{what}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise OutputError(f"{what}: not finite: {text!r}")
    return value


def _check_run(case: Case, out: Path, exit_code: int) -> None:
    if exit_code != 0:
        raise OutputError(f"run exited {exit_code}")
    lines = (out / "results.csv").read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise OutputError("results.csv header differs")
    expected = [
        (flavor, rate, seed)
        for flavor in ("newreno", "reno", "sac", "sack", "vegas")
        for rate in ("0.000000", "0.200000", "0.500000", "1.000000")
        for seed in case.sim_seeds
    ]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(expected):
        raise OutputError(f"results.csv has {len(rows)} rows, expected {len(expected)}")
    lossy_retx = 0
    for row, (flavor, rate, seed) in zip(rows, expected):
        if len(row) != 11 or (row[0], row[1], row[2], row[3]) != (flavor, "4", rate, str(seed)):
            raise OutputError(f"results.csv row out of order: {','.join(row)}")
        throughput = _number(row[4], "throughput")
        goodput = _number(row[5], "goodput")
        if throughput is None or goodput is None or not 0 < goodput <= throughput:
            raise OutputError(f"results.csv goodput/throughput wrong: {','.join(row)}")
        if int(row[10]) <= 0:
            raise OutputError(f"results.csv row delivered nothing: {','.join(row)}")
        if rate != "0.000000":
            lossy_retx += int(row[9])
    if lossy_retx == 0:
        raise OutputError("no retransmissions at any nonzero loss rate")


def _check_compare(case: Case, out: Path, exit_code: int) -> None:
    if exit_code not in (0, 3):
        raise OutputError(f"compare exited {exit_code}")
    lines = (out / "compare.csv").read_text().splitlines()
    if not lines or lines[0] != COMPARE_HEADER:
        raise OutputError("compare.csv header differs")
    expected = [(rate, seed) for rate in ("0.000000", "0.200000") for seed in case.sim_seeds]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(expected):
        raise OutputError(f"compare.csv has {len(rows)} rows, expected {len(expected)}")
    for row, (rate, seed) in zip(rows, expected):
        if len(row) != 9 or (row[0], row[1], row[2]) != ("12", rate, str(seed)):
            raise OutputError(f"compare.csv row out of order: {','.join(row)}")
        base = _number(row[3], "baseline_throughput")
        cand = _number(row[4], "candidate_throughput")
        if base is None or cand is None or base <= 0 or cand <= 0:
            raise OutputError(f"compare.csv throughput not positive: {','.join(row)}")
    summary = dict(
        line.split("=", 1) for line in (out / "summary.txt").read_text().splitlines()
    )
    verdict = "pass" if exit_code == 0 else "fail"
    if summary.get("pairs") != str(len(rows)) or summary.get("verdict") != verdict:
        raise OutputError(f"summary.txt disagrees with exit code {exit_code}: {summary}")
    delta = _number(summary.get("mean_throughput_delta", ""), "mean_throughput_delta")
    if delta is None or (abs(delta) > 1e-6 and (delta > 0) != (exit_code == 0)):
        raise OutputError(f"verdict disagrees with mean_throughput_delta {delta}")


def _check_trace(case: Case, out: Path, exit_code: int) -> None:
    if exit_code != 0:
        raise OutputError(f"trace exited {exit_code}")
    kinds: dict[str, int] = {}
    with (out / "trace.tsv").open() as lines:
        for line in lines:
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 5:
                raise OutputError(f"trace.tsv record malformed: {line!r}")
            kinds[fields[1]] = kinds.get(fields[1], 0) + 1
    # a lossless long_trace would hide the recovery paths it is meant to load
    if kinds.get("DROP_WIRELESS", 0) == 0:
        raise OutputError("trace.tsv has no DROP_WIRELESS record")
    if kinds.get("RETX", 0) == 0 or kinds.get("DELIVER", 0) == 0:
        raise OutputError("trace.tsv lacks RETX or DELIVER records")
    if not (out / "cwnd.tsv").read_text():
        raise OutputError("cwnd.tsv is empty")


_CHECKS = {"run": _check_run, "compare": _check_compare, "trace": _check_trace}


def check(case: Case, out: Path, exit_code: int) -> None:
    """Raise OutputError unless the command's outputs are well formed."""
    _CHECKS[case.argv[0]](case, out, exit_code)
