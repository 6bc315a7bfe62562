"""Command-line interface.

Subcommands: ``run`` (full sweep to results.csv), ``trace`` (one
combination's event trace and cwnd series), ``compare`` (paired-seed
baseline-vs-candidate comparison with the verdict in the exit code), and
``validate`` (config check only).

Exit codes: 0 success, 1 internal contract violation, 2 configuration
error, 3 compare verdict failure. Machine output goes to files under
``--out``; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from statistics import mean

from .cc import Flavor
from .engine import TraceKind
from .errors import ConfigError, ContractError
from .experiment import (
    ExperimentSpec,
    emit_csv,
    load_config,
    run_experiment,
    run_single,
)

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_CONFIG = 2
EXIT_VERDICT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshtcp",
        description="TCP congestion control over multi-hop wireless mesh chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, out_required: bool = True) -> None:
        p.add_argument("--config", required=True, help="experiment config file")
        if out_required:
            p.add_argument("--out", required=True, help="output directory")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )

    p_run = sub.add_parser("run", help="run the full sweep, write results.csv")
    add_common(p_run)
    p_run.add_argument("--seed", type=int, help="replace the seed list with one seed")

    p_trace = sub.add_parser("trace", help="run one combination, dump its trace")
    add_common(p_trace)
    p_trace.add_argument("--flavor", required=True)
    p_trace.add_argument("--hops", required=True, type=int)
    p_trace.add_argument("--seed", required=True, type=int)

    p_cmp = sub.add_parser("compare", help="paired comparison of two flavors")
    add_common(p_cmp)
    p_cmp.add_argument("--baseline", required=True)
    p_cmp.add_argument("--candidate", required=True)

    p_val = sub.add_parser("validate", help="parse and validate a config")
    add_common(p_val, out_required=False)
    return parser


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must be KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


def _load_spec(args: argparse.Namespace) -> ExperimentSpec:
    path = Path(args.config)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    overrides = _parse_overrides(args.override)
    if getattr(args, "seed", None) is not None and args.command == "run":
        overrides["seeds"] = str(args.seed)
    return load_config(text, overrides)


def _flavor(name: str) -> Flavor:
    try:
        return Flavor(name)
    except ValueError:
        known = ", ".join(f.value for f in Flavor)
        raise ConfigError(f"unknown flavor {name!r} (known: {known})") from None


def _outdir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from None
    return out


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    out = _outdir(args)
    rows = run_experiment(spec)
    (out / "results.csv").write_text(emit_csv(rows))
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    flavor = _flavor(args.flavor)
    if not 1 <= args.hops <= max(spec.hop_counts):
        raise ConfigError(
            f"hops must be in 1..{max(spec.hop_counts)} for this config"
        )
    if len(spec.loss_rates) != 1:
        raise ConfigError(
            f"trace runs one loss rate but the config lists {len(spec.loss_rates)}; "
            "pick one with --override loss_rates=<rate>"
        )
    out = _outdir(args)
    trace, _ = run_single(spec, flavor, args.hops, spec.loss_rates[0], args.seed)
    (out / "trace.tsv").write_text(trace.export())
    cwnd_lines = [
        f"{r.time:.9f}\t{r.value}"
        for r in trace
        if r.kind is TraceKind.CWND_SAMPLE and r.time >= spec.warmup_s
    ]
    (out / "cwnd.tsv").write_text("\n".join(cwnd_lines) + ("\n" if cwnd_lines else ""))
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    baseline = _flavor(args.baseline)
    candidate = _flavor(args.candidate)
    out = _outdir(args)
    # both sweeps visit the (hops, loss_rate, seed) points in the same order
    pairs = list(
        zip(
            run_experiment(replace(spec, flavors=(baseline,))),
            run_experiment(replace(spec, flavors=(candidate,))),
        )
    )
    if any(row.throughput is None for pair in pairs for row in pair):
        raise ConfigError("comparison undefined: a run produced no measurable throughput")
    lines = [
        "hops,loss_rate,seed,baseline_throughput,candidate_throughput,"
        "throughput_delta,baseline_rto_count,candidate_rto_count,rto_count_delta"
    ]
    for base, cand in pairs:
        lines.append(
            f"{base.hops},{base.loss_rate:.6f},{base.seed},"
            f"{base.throughput:.6f},{cand.throughput:.6f},"
            f"{cand.throughput - base.throughput:.6f},"
            f"{base.rto_count},{cand.rto_count},{cand.rto_count - base.rto_count}"
        )
    (out / "compare.csv").write_text("\n".join(lines) + "\n")

    tp_delta = mean(cand.throughput - base.throughput for base, cand in pairs)
    rto_delta = mean(cand.rto_count - base.rto_count for base, cand in pairs)
    verdict_ok = tp_delta >= 0  # candidate mean throughput >= baseline mean
    summary_lines = [
        f"baseline={baseline.value}",
        f"candidate={candidate.value}",
        f"pairs={len(pairs)}",
        f"mean_throughput_delta={tp_delta:.6f}",
        f"mean_rto_count_delta={rto_delta:.6f}",
        f"verdict={'pass' if verdict_ok else 'fail'}",
    ]
    (out / "summary.txt").write_text("\n".join(summary_lines) + "\n")
    return EXIT_OK if verdict_ok else EXIT_VERDICT


def _cmd_validate(args: argparse.Namespace) -> int:
    _load_spec(args)
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "trace": _cmd_trace,
    "compare": _cmd_compare,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ContractError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
