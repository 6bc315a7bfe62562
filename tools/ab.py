"""A/B benchmark harness: a base revision against the working tree.

  python3 tools/ab.py --base REV [--workload NAME]... [--rounds 10] [--seconds 25]

REV is exported twice with ``git archive``, as A and A' (``A2`` in the
output); B is the working tree. Each round runs ``perfbench/run.py --workload W --seconds S --trace 0``
(at run.py's default seed, the one its golden digests are checked at) in A,
B and A', rotating which runs first, for every workload (all of
BENCHMARK.json's by default). A run that is not ``"correct": true``
with 0 failed stops the harness with exit 1.

For each end-to-end metric of BENCHMARK.json, with its ``better`` direction
and its relative ``bound``, and each workload, a round gives one pair
(A, B) and one pair (A, A'). A pair is a win when its second side is better
than A; equal values count for neither side. The sign-test p-values are
exact and one-sided over the pairs that are not ties. The verdict, decided
in this order, so that a drifting set never hides a regression:

- **worse**: B's median is worse than A's by more than the bound, as a
  fraction of A's median.
- **void**: A' against A has p <= 0.05 in either direction. The host
  drifted within the set, so it shows nothing; run it again.
- **gain**: B beats A in at least 9 of every 10 pairs, and B's median is
  better than A's by more than A's q3 - q1.
- **unresolved**: A's q3 - q1 is wider than the bound (as a fraction of A's
  median) and not every B run is better than every A run, so the set cannot
  tell "no change" from a regression within the bound.
- **no change**: otherwise.

The last line printed is one JSON object holding every figure above.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
P_VOID = 0.05


def declared(root: Path = ROOT) -> tuple[list[str], dict[str, tuple[str, float]]]:
    """BENCHMARK.json's workload names, and {metric: (better, bound)} for
    each of its end-to-end metrics."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    return workloads, {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def sign_p(wins: int, losses: int) -> float:
    """Exact one-sided sign-test p-value of at least ``wins`` wins among
    ``wins + losses`` pairs, each won with probability 1/2."""
    n = wins + losses
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2**n


def spread(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def judge(a: list[float], b: list[float], a2: list[float], better: str, bound: float) -> dict:
    """Compare the samples of one metric, paired by round; see the module
    docstring for the rule."""
    sign = 1 if better == "higher" else -1  # sign * (x - y) > 0: x is better than y

    def tally(other: list[float]) -> tuple[int, int]:
        wins = sum(sign * (o - x) > 0 for x, o in zip(a, other))
        return wins, sum(sign * (x - o) > 0 for x, o in zip(a, other))

    b_wins, b_losses = tally(b)
    a2_wins, a2_losses = tally(a2)
    sa, sb = spread(a), spread(b)
    gain = sign * (sb["median"] - sa["median"])  # > 0: B's median is better
    if -gain > bound * abs(sa["median"]):
        verdict = "worse"
    elif min(sign_p(a2_wins, a2_losses), sign_p(a2_losses, a2_wins)) <= P_VOID:
        verdict = "void"
    elif 10 * b_wins >= 9 * len(a) and gain > sa["q3"] - sa["q1"]:
        verdict = "gain"
    elif sa["q3"] - sa["q1"] > bound * abs(sa["median"]) and not all(
            sign * (y - x) > 0 for x in a for y in b):
        verdict = "unresolved"
    else:
        verdict = "no change"
    return {
        "better": better, "bound": bound, "A": sa, "B": sb, "A2": spread(a2),
        "b_wins": b_wins, "b_losses": b_losses,
        "p_b_better": sign_p(b_wins, b_losses), "p_b_worse": sign_p(b_losses, b_wins),
        "a2_wins": a2_wins, "a2_losses": a2_losses,
        "p_a2_better": sign_p(a2_wins, a2_losses), "p_a2_worse": sign_p(a2_losses, a2_wins),
        "verdict": verdict,
    }


def export(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        # the "data" filter exists from Python 3.12 and in 3.10.12+ / 3.11.4+
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(dest, **safe)


def bench(tree: Path, workload: str, seconds: int) -> dict[str, float]:
    """One run.py run in ``tree``: {metric: value}. Exits 1 on a run that
    is not correct."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if proc.returncode or not result.get("correct") or result.get("failed"):
        print(f"{workload} in {tree} failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        raise SystemExit(1)
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    # subprocess.run kills and reaps the running pass when SystemExit unwinds it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args(argv)
    workloads, metrics = declared()
    workloads = args.workload or workloads

    with tempfile.TemporaryDirectory(prefix="meshtcp-ab-") as tmp:
        trees = {"A": Path(tmp) / "a", "B": ROOT, "A2": Path(tmp) / "a2"}
        for side in ("A", "A2"):
            export(args.base, trees[side])
        samples = {w: {side: [] for side in trees} for w in workloads}
        for r in range(args.rounds):
            for w in workloads:
                order = list(trees)[r % 3:] + list(trees)[:r % 3]
                for side in order:
                    samples[w][side].append(bench(trees[side], w, args.seconds))
                print(f"round {r + 1}/{args.rounds} {w}: " + ", ".join(
                    f"{side} wall_s {samples[w][side][-1]['wall_s']:.4f}" for side in order),
                    flush=True)

    report: dict[str, dict] = {}
    for w in workloads:
        report[w] = {}
        for name, (better, bound) in metrics.items():
            a, b, a2 = ([run[name] for run in samples[w][side]] for side in ("A", "B", "A2"))
            res = report[w][name] = judge(a, b, a2, better, bound)
            print(f"{w:10s} {name:12s} " + "  ".join(
                f"{side} {res[side]['median']:.6g} [{res[side]['q1']:.6g}-{res[side]['q3']:.6g}]"
                for side in ("A", "B", "A2")
            ) + f"  B>A {res['b_wins']}/{args.rounds} (p {res['p_b_better']:.4f})"
                f"  A2>A {res['a2_wins']}/{args.rounds} A2<A {res['a2_losses']}/{args.rounds}"
                f"  -> {res['verdict']}")
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.base],
                            capture_output=True, text=True, check=True).stdout.strip()
    print(json.dumps({"base": args.base, "base_commit": commit, "rounds": args.rounds,
                      "seconds": args.seconds, "workloads": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
