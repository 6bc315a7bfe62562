"""Command-line interface.

Subcommands: ``run`` (full sweep to results.csv), ``trace`` (one
combination's event trace and cwnd series), ``compare`` (paired-seed
baseline-vs-candidate comparison with the verdict in the exit code), and
``validate`` (config check only).

Exit codes: 0 success, 1 internal contract violation, 2 configuration
error, 3 compare verdict failure or no verdict (a run whose throughput is
undefined). Machine output goes to files under ``--out``; diagnostics go
to stderr.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from .engine import RunTrace
from .errors import ConfigError, ContractError
from .experiment import (
    ExperimentSpec,
    _cell,
    emit_csv,
    load_config,
    number,
    parse_flavor,
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

    p_trace = sub.add_parser("trace", help="run one combination, dump its trace")
    add_common(p_trace)
    p_trace.add_argument("--flavor", required=True)
    p_trace.add_argument("--hops", required=True, type=number)
    p_trace.add_argument("--seed", required=True, type=number)

    p_cmp = sub.add_parser("compare", help="paired comparison of two flavors")
    add_common(p_cmp)
    p_cmp.add_argument("--baseline", required=True)
    p_cmp.add_argument("--candidate", required=True)

    p_val = sub.add_parser("validate", help="parse and validate a config")
    add_common(p_val, out_required=False)
    return parser


def _load_spec(args: argparse.Namespace) -> ExperimentSpec:
    path = Path(args.config)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return load_config(text, args.override)


def _outdir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from None
    return out


@contextmanager
def _writing(*paths: Path) -> Iterator[list[Path]]:
    """Yield a ``.partial`` twin of each output path to write to.

    The twins are renamed to the real paths only once the block has
    succeeded, and removed in any case, so a failed command leaves no
    partial file behind. No destination may be a directory, and that is
    checked before the first rename, so a blocked output leaves the others
    as they were too. An ``OSError`` on the way is a ``ConfigError``.
    """
    partial = [path.with_name(path.name + ".partial") for path in paths]
    try:
        try:
            yield partial
            for path in paths:
                if path.is_dir():
                    raise ConfigError(f"cannot write output: {path} is a directory")
            for done, path in zip(partial, paths):
                done.replace(path)
        finally:
            for path in partial:
                path.unlink(missing_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    out = _outdir(args)
    rows = run_experiment(spec)
    with _writing(out / "results.csv") as (partial,):
        partial.write_text(emit_csv(rows))
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    flavor = parse_flavor(args.flavor, "--flavor")
    if not 1 <= args.hops <= max(spec.hops):
        raise ConfigError(f"hops must be in 1..{max(spec.hops)} for this config")
    if len(spec.loss_rates) != 1:
        raise ConfigError(
            f"trace runs one loss rate but the config lists {len(spec.loss_rates)}; "
            "pick one with --override loss_rates=<rate>"
        )
    out = _outdir(args)
    # each record is written as it is made; the files get their names only
    # once the run has finished, so a failed run leaves neither behind
    with _writing(out / "trace.tsv", out / "cwnd.tsv") as partial:
        with open(partial[0], "w") as trace_file, open(partial[1], "w") as cwnd_file:
            trace = RunTrace(trace_file.write, cwnd_file.write)
            run_single(spec, flavor, args.hops, spec.loss_rates[0], args.seed, trace)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    # imported here, the one place it is used, to keep it off the import path
    from statistics import mean

    spec = _load_spec(args)
    baseline = parse_flavor(args.baseline, "--baseline")
    candidate = parse_flavor(args.candidate, "--candidate")
    if candidate is baseline:
        raise ConfigError(f"--baseline and --candidate both name {baseline.value!r}")
    out = _outdir(args)
    rows = run_experiment(spec._replace(flavors=(baseline, candidate)))
    baseline_at = {(r.hops, r.loss_rate, r.seed): r for r in rows if r.flavor is baseline}
    pairs = [(baseline_at[r.hops, r.loss_rate, r.seed], r) for r in rows if r.flavor is candidate]
    if any(row.throughput is None for pair in pairs for row in pair):
        print(
            "no verdict: comparison undefined: a run produced no measurable throughput",
            file=sys.stderr,
        )
        return EXIT_VERDICT
    lines = [
        "hops,loss_rate,seed,baseline_throughput,candidate_throughput,"
        "throughput_delta,baseline_rto_count,candidate_rto_count,rto_count_delta"
    ]
    for base, cand in pairs:
        cells = (
            base.hops, base.loss_rate, base.seed,
            base.throughput, cand.throughput, cand.throughput - base.throughput,
            base.rto_count, cand.rto_count, cand.rto_count - base.rto_count,
        )
        lines.append(",".join(map(_cell, cells)))
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
    with _writing(out / "compare.csv", out / "summary.txt") as (csv_path, summary_path):
        csv_path.write_text("\n".join(lines) + "\n")
        summary_path.write_text("\n".join(summary_lines) + "\n")
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
