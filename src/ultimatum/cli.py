"""Command line interface.

Subcommands:

* run    - execute an experiment plan and store one JSON record per run
* grade  - grade stored runs or raw log files into verdicts
* report - aggregate stored runs into summary tables
* stats  - run the chi-square or z-test on four counts directly

Exit codes: 0 on success, 1 when some runs failed or a log could not be
graded, 2 for invalid configuration or usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .agents import ReplayGateway
from .engine import DEFAULT_POT, DEFAULT_ROUNDS, GameConfig, InvalidConfigError
from .experiment import (
    MODES,
    InvalidPlanError,
    RunStore,
    aggregate,
    load_plan,
    load_records,
    regrade_record,
    render_report,
    run_batch,
    verdict_to_dict,
)
from .rubric import evaluate_transcript
from .stats import DegenerateTableError, chi_square_2x2, two_proportion_z
from .strategy import MIN_POT, PersonalityPair
from .transcripts import (
    InconsistentLogsError,
    UnparseableLogError,
    parse_agent_log,
    parse_single_model_log,
)

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_USAGE = 2


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        plan = load_plan(args.plan)
        if args.seed is not None:
            plan = dataclasses.replace(plan, seed=args.seed)
        gateway = None
        if args.replay_file is not None and args.mode != "replay":
            return _fail_usage("--replay-file only applies in replay mode")
        if args.mode == "replay":
            if not args.replay_file:
                return _fail_usage("--replay-file is required in replay mode")
            try:
                gateway = ReplayGateway(args.replay_file)
            except ValueError as exc:
                return _fail_usage(str(exc))
        store = RunStore(args.out)
        batch = run_batch(
            plan,
            mode=args.mode,
            store=store,
            gateway=gateway,
            max_workers=args.workers,
            keep_prompts=args.keep_prompts,
        )
    except (InvalidPlanError, OSError) as exc:
        return _fail_usage(str(exc))
    print(
        f"{len(batch.records)} runs -> {args.out} "
        f"({batch.ok_count} graded, {batch.failed_count} failed) "
        f"in {batch.elapsed_seconds:.2f}s"
    )
    if batch.gateway_usage:
        print(
            f"gateway: {batch.gateway_usage['requests']} requests, "
            f"{batch.gateway_usage['retries']} retries"
        )
    for record in batch.records:
        if record["status"] != "ok":
            print(f"failed: {record['run_id']}: {record['cause']}", file=sys.stderr)
    return EXIT_PARTIAL if batch.failed_count else EXIT_OK


def _print_verdict(name: str, verdict: dict, confidence: str, warnings: list[str]) -> None:
    print(f"{name}: {verdict['error_class']} (parse confidence: {confidence})")
    print(json.dumps(verdict, indent=2, sort_keys=True))
    for warning in warnings:
        print(f"warning: {warning}")


def _cmd_grade(args: argparse.Namespace) -> int:
    sources = [bool(args.records), bool(args.single_log), bool(args.proposer_log or args.receiver_log)]
    if sum(sources) != 1:
        return _fail_usage(
            "give exactly one of --records, --single-log, or --proposer-log/--receiver-log"
        )

    if args.records:
        for flag, value in (("--pair", args.pair), ("--pot", args.pot), ("--rounds", args.rounds)):
            if value is not None:
                return _fail_usage(
                    f"{flag} does not apply to --records: each record names its own pair and game"
                )
        try:
            records = load_records(args.records, on_torn_line=_warn)
        except (OSError, ValueError) as exc:
            return _fail_usage(str(exc))
        failures = 0
        # Verdict or error per distinct transcript ("" is not keyed: its error
        # names the run), and verdict per distinct game (see regrade_record).
        graded: dict[str, dict | Exception] = {}
        games: dict[str, dict] = {}
        for record in records:
            run_id = record.get("run_id", "?")
            if record.get("status") != "ok":
                failures += 1
                print(f"{run_id}: failed ({record.get('cause')})")
                continue
            key = record["transcript"] or None
            verdict = graded.get(key)
            if verdict is None:
                try:
                    verdict = regrade_record(record, games)
                except Exception as exc:  # noqa: BLE001 - report and continue
                    verdict = exc
                if key is not None:
                    graded[key] = verdict
            if isinstance(verdict, Exception):
                failures += 1
                print(f"{run_id}: ungradable ({verdict})")
                continue
            drift = "" if verdict == record.get("verdict") else " [differs from stored verdict]"
            print(f"{run_id}: {verdict['error_class']}{drift}")
        total = len(records)
        print(f"{total} records, {total - failures} graded, {failures} failed")
        return EXIT_PARTIAL if failures else EXIT_OK

    if not args.pair:
        return _fail_usage("--pair is required when grading raw logs")
    try:
        pair = PersonalityPair.from_label(args.pair)
        game = GameConfig(
            pot=DEFAULT_POT if args.pot is None else args.pot,
            rounds=DEFAULT_ROUNDS if args.rounds is None else args.rounds,
        )
    except (ValueError, InvalidConfigError) as exc:
        return _fail_usage(str(exc))
    if game.pot < MIN_POT:
        return _fail_usage(f"pot must be at least {MIN_POT} cents, got {game.pot}")

    if not (args.single_log or (args.proposer_log and args.receiver_log)):
        return _fail_usage("agent grading needs both --proposer-log and --receiver-log")
    paths = [args.single_log] if args.single_log else [args.proposer_log, args.receiver_log]
    texts = []
    for path in paths:
        try:
            texts.append(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            return _fail_usage(str(exc))
        except UnicodeDecodeError as exc:
            return _fail_usage(f"{path}: {exc}")
    try:
        if args.single_log:
            transcript, diagnostics = parse_single_model_log(texts[0], pair, game)
        else:
            transcript, diagnostics = parse_agent_log(tuple(texts), pair, game)
    except (UnparseableLogError, InconsistentLogsError) as exc:
        print(f"error: cannot grade: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    verdict = verdict_to_dict(evaluate_transcript(transcript))
    _print_verdict(" + ".join(paths), verdict, diagnostics.confidence.value, list(diagnostics.warnings))
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        summary = aggregate(load_records(args.records, on_torn_line=_warn))
    except (OSError, ValueError) as exc:
        return _fail_usage(str(exc))
    print(render_report(summary, args.format), end="")
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    s1, n1, s2, n2 = args.counts
    try:
        if args.test == "chi2":
            result = chi_square_2x2(s1, n1, s2, n2)
            print(f"chi-square = {result.statistic:.6f} (df=1)")
        else:
            result = two_proportion_z(s1, n1, s2, n2)
            print(f"z = {result.statistic:.6f}")
        print(f"two-tailed p = {result.p_two_tailed:.6g}")
        if result.warning:
            print(f"warning: {result.warning}")
    except (DegenerateTableError, ValueError) as exc:
        return _fail_usage(str(exc))
    except OverflowError as exc:
        return _fail_usage(f"counts too large for a float: {exc}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultimatum",
        description="Simulate, grade, and summarize repeated ultimatum games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment plan")
    run_p.add_argument("--plan", required=True, help="YAML plan file")
    run_p.add_argument("--mode", choices=MODES, default="oracle")
    run_p.add_argument("--seed", type=int, help="override the plan's seed")
    run_p.add_argument("--out", required=True, help="JSON-lines store to append run records to")
    run_p.add_argument("--replay-file", help="recorded exchanges for replay mode")
    run_p.add_argument(
        "--workers",
        type=int,
        help="worker threads (default: 4 live, else 1); see README for live requests in flight",
    )
    run_p.add_argument(
        "--keep-prompts", action="store_true", help="store full prompt/reply traffic per run"
    )
    run_p.set_defaults(func=_cmd_run)

    grade_p = sub.add_parser("grade", help="grade stored runs or raw logs")
    grade_p.add_argument("--records", help="JSON-lines store to re-grade")
    grade_p.add_argument("--single-log", help="combined log file (single-model structure)")
    grade_p.add_argument("--proposer-log", help="proposer agent log file")
    grade_p.add_argument("--receiver-log", help="receiver agent log file")
    grade_p.add_argument("--pair", help="personality pair label, e.g. fair-greedy")
    # None marks an option not given, which --records refuses.
    grade_p.add_argument("--pot", type=int, help=f"pot in cents (default {DEFAULT_POT})")
    grade_p.add_argument("--rounds", type=int, help=f"rounds (default {DEFAULT_ROUNDS})")
    grade_p.set_defaults(func=_cmd_grade)

    report_p = sub.add_parser("report", help="aggregate stored runs into tables")
    report_p.add_argument("--records", required=True, help="JSON-lines store to summarize")
    report_p.add_argument("--format", choices=["markdown", "csv"], default="markdown")
    report_p.set_defaults(func=_cmd_report)

    stats_p = sub.add_parser("stats", help="test two proportions directly")
    stats_p.add_argument("test", choices=["chi2", "ztest"])
    stats_p.add_argument(
        "counts",
        nargs=4,
        type=int,
        metavar="COUNT",
        help="S1 N1 S2 N2: successes and trials for each group",
    )
    stats_p.set_defaults(func=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
