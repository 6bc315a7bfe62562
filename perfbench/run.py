"""meshtcp benchmark.

Runs one workload through meshtcp's public CLI entry point with default
settings, checks every output, and prints each metric by name and unit.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --freeze    # rewrite golden.json (model changes only)

Every pass runs in a fresh interpreter (perfbench/child.py), so peak RSS is
per pass. ``--trace 0`` reports the end-to-end metrics from untraced passes;
``--trace 1`` adds traced passes and reports the per-layer metrics. Workload
definitions and output checks are in workloads.py, the tracer in tracer.py,
and the reasons behind both in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import DEFAULT_SEED, Case, OutputError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 15  # fresh interpreters timed for setup_s, after one warm-up
MIN_PASSES = 3  # untraced passes per run, however short --seconds is
MIN_TRACED = 2  # traced passes per --trace 1 run, so counters can be compared
TIME_LIMIT_S = 170.0  # stop starting passes after this; the run must end by 180 s
# child.calibrate() time at the reference host speed. Host times are scaled
# by CALIBRATION_REF_S / (calibration measured in the same interpreter around
# the timed work); see NOTES.md, "Host noise".
CALIBRATION_REF_S = 0.14

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "events_per_s": "1/s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or ".busy_frac." in name:
        return "frac"
    if name == "cli.trace_bytes":
        return "B"
    return "count"


class BenchError(Exception):
    """A pass failed or produced wrong outputs."""


class Bench:
    """The passes of one benchmark run and their bookkeeping."""

    def __init__(self, case: Case, work: Path, golden: dict | None) -> None:
        self.case = case
        self.work = work
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.expected = golden  # digest every pass must reproduce
        self.n_passes = 0
        work.mkdir(parents=True)
        self.config = self.write_config(case)

    def write_config(self, case: Case) -> Path:
        path = self.work / f"{case.name}-{case.sim_seeds[0]}.cfg"
        path.write_text(case.config)
        return path

    def remaining(self) -> float:
        return TIME_LIMIT_S - (time.monotonic() - self.started)

    def child(self, mode: str, config: Path, *extra: str) -> dict:
        cmd = [sys.executable, str(HERE / "child.py"), mode, "--root", str(ROOT),
               "--config", str(config), *extra]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=max(self.remaining(), 1.0)
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} pass timed out") from None
        lines = proc.stdout.strip().splitlines()
        try:
            if proc.returncode != 0 or not lines:
                raise ValueError
            result = json.loads(lines[-1])
        except ValueError:
            raise BenchError(f"{mode} pass exited {proc.returncode}: {proc.stderr[-2000:]}") from None
        if "error" in result:
            raise BenchError(f"{mode} pass raised:\n{result['error']}")
        return result

    def setup_s(self) -> tuple[list[float], list[float]]:
        """Raw and speed-scaled setup times, warm-up dropped."""
        samples = [self.child("setup", self.config) for _ in range(SETUP_SAMPLES + 1)][1:]
        return [r["setup_s"] for r in samples], [scaled(r, "setup_s") for r in samples]

    def command(self, mode: str, case: Case | None = None, expected: dict | None = None) -> dict | None:
        """One pass of the workload command; None if it failed a check."""
        case = case or self.case
        config = self.config if case is self.case else self.write_config(case)
        self.n_passes += 1
        out = self.work / f"out-{self.n_passes}"
        spans = self.work / "spans.json"
        self.attempted += case.points
        try:
            result = self.child(mode, config, "--out", str(out), "--spans", str(spans),
                                "--", *case.argv)
            found = workloads.digest(case, out, result["exit_code"])
            workloads.check(case, out, result["exit_code"])
            if case is self.case:
                if self.expected is None:
                    self.expected = found
                expected = self.expected
            if found != expected:
                raise BenchError(
                    f"{mode} pass outputs differ from the expected digests:\n"
                    f"  found    {found}\n  expected {expected}"
                )
        except (BenchError, OutputError) as exc:
            self.fail(f"{case.name} {mode}: {exc}")
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return result

    def fail(self, problem: str) -> None:
        self.failed += self.case.points
        self.problems.append(problem)


def scaled(result: dict, key: str) -> float:
    """A host time scaled to the reference host speed."""
    return result[key] * CALIBRATION_REF_S / result["calib_s"]


def describe(name: str, values: list[float], unit: str) -> str:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = f"q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"
    else:
        spread = f"n={len(values)}"
    return f"{name:34s} {statistics.median(values):.6g} {unit}  ({spread})"


def end_to_end(bench: Bench, seconds: int, events: int) -> dict[str, dict]:
    raw_setup, setup = bench.setup_s()
    passes: list[dict] = []
    loop_end = time.monotonic() + seconds
    while (len(passes) < MIN_PASSES or time.monotonic() < loop_end) and bench.remaining() > 0:
        result = bench.command("plain")
        if result is None:
            break
        passes.append(result)
    if not passes:
        return {}
    walls = [scaled(r, "wall_s") for r in passes]
    values = {
        "setup_s": setup,
        "wall_s": walls,
        "events_per_s": [events / w for w in walls],
        "peak_rss_mb": [r["peak_rss_mb"] for r in passes],
    }
    print(f"{'events (deterministic)':34s} {events} count")
    print(describe("setup_s (unscaled)", raw_setup, "s"))
    print(describe("wall_s (unscaled)", [r["wall_s"] for r in passes], "s"))
    print(describe("calibration", [r["calib_s"] for r in passes], "s"))
    for name, vals in values.items():
        print(describe(name, vals, END_TO_END_UNITS[name]))
    return {
        name: {"value": statistics.median(vals), "unit": END_TO_END_UNITS[name]}
        for name, vals in values.items()
    }


def per_layer(bench: Bench, seconds: int, events: dict[str, int]) -> dict[str, dict]:
    plain_walls: list[float] = []
    traced: list[dict] = []
    loop_end = time.monotonic() + seconds
    while (
        len(plain_walls) < MIN_TRACED or len(traced) < MIN_TRACED or time.monotonic() < loop_end
    ) and bench.remaining() > 0:
        plain = bench.command("plain")
        result = bench.command("traced")
        if plain is None or result is None:
            break
        plain_walls.append(plain["wall_s"])
        traced.append(result)
    if not traced:
        return {}

    counters = traced[0]["counters"]
    for result in traced[1:]:
        if result["counters"] != counters:
            bench.fail(f"deterministic counters differ between traced passes: "
                       f"{counters} != {result['counters']}")
    traced_events = {
        kind: counters[f"world.events.{kind}"]
        for kind in ("segment_arrival", "channel_free", "timer_expiry", "app_tick")
        if counters[f"world.events.{kind}"]
    }
    if traced_events != events:
        bench.fail(f"events differ between counting and traced passes: {events} != {traced_events}")

    metrics: dict[str, dict] = {}
    for name, value in counters.items():
        print(f"{name:34s} {value:.6g} {layer_unit(name)}")
        metrics[name] = {"value": value, "unit": layer_unit(name)}
    for name in traced[0]["times"]:
        vals = [r["times"][name] for r in traced]
        print(describe(name, vals, "s"))
        metrics[name] = {"value": statistics.median(vals), "unit": "s"}
    traced_walls = [r["wall_s"] for r in traced]
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    print(describe("wall_s (untraced)", plain_walls, "s"))
    print(describe("wall_s (traced)", traced_walls, "s"))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    print(f"{'trace.overhead_s':34s} {overhead:.6g} s")
    print(f"spans and call-site aggregates: {bench.work / 'spans.json'}")
    return metrics


def load_golden(name: str) -> dict:
    try:
        golden = json.loads(GOLDEN.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read {GOLDEN}: {exc}") from None
    if golden.get("seed") != DEFAULT_SEED:
        raise SystemExit(f"{GOLDEN} was not frozen at the default seed {DEFAULT_SEED}")
    return golden["workloads"][name]


def freeze() -> int:
    golden = {
        "note": "sha256 of each workload's outputs and its exit code at the default "
                "workload seed. Only an intended change to model behaviour may refresh them.",
        "seed": DEFAULT_SEED,
        "workloads": {},
    }
    for name in workloads.WORKLOADS:
        case = workloads.make(name, DEFAULT_SEED)
        work = WORK / "freeze" / name
        shutil.rmtree(work, ignore_errors=True)
        bench = Bench(case, work, None)
        if bench.command("plain") is None:
            print("\n".join(bench.problems), file=sys.stderr)
            return 1
        golden["workloads"][name] = bench.expected
        print(f"{name}: {bench.expected}")
    shutil.rmtree(WORK / "freeze", ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    return 0


def main() -> int:
    # subprocess.run kills and reaps the running pass when SystemExit unwinds it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true",
                        help="rewrite golden.json from the current code")
    args = parser.parse_args()
    if not (ROOT / "src" / "meshtcp" / "cli.py").is_file():
        print(f"no meshtcp source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.freeze:
        return freeze()
    if args.workload is None:
        parser.error("--workload is required")
    golden = load_golden(args.workload)

    case = workloads.make(args.workload, args.seed)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(case, work, golden if args.seed == DEFAULT_SEED else None)
    print(f"workload {case.name}, seed {args.seed}, {case.points} sweep points per pass")

    metrics: dict[str, dict] = {}
    counted = bench.command("count")
    if args.seed != DEFAULT_SEED:
        bench.command("plain", workloads.make(args.workload, DEFAULT_SEED), golden)
    if counted is not None and not bench.problems:
        events = counted["events"]
        try:
            if args.trace:
                metrics = per_layer(bench, args.seconds, events)
            else:
                metrics = end_to_end(bench, args.seconds, sum(events.values()))
        except BenchError as exc:
            bench.fail(str(exc))

    correct = not bench.problems and bool(metrics)
    print(f"{'failed_frac':34s} {bench.failed / max(bench.attempted, 1):.6g} frac "
          f"({bench.failed} of {bench.attempted} sweep points)")
    for problem in bench.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
