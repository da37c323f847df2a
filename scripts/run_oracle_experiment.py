#!/usr/bin/env python3
"""Run the scripted-player experiment grid offline and print the report.

Every cell of the grid (two structures x four personality pairs) is played
by deterministic oracle players, graded, and summarized. Optional planted
flaws demonstrate how each grading axis reacts:

    run_oracle_experiment.py
    run_oracle_experiment.py --runs-per-cell 20 --out runs.jsonl
    run_oracle_experiment.py --proposer-flaw deviator --format csv
"""

import argparse
import sys

from ultimatum.agents import Flaw, flaw_role
from ultimatum.engine import DEFAULT_POT, DEFAULT_ROUNDS
from ultimatum.experiment import (
    ExperimentPlan,
    InvalidPlanError,
    RunStore,
    aggregate,
    plan_from_dict,
    render_report,
    run_batch,
)
from ultimatum.strategy import Role


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs-per-cell", type=int, default=ExperimentPlan.runs_per_cell)
    parser.add_argument("--seed", type=int, default=ExperimentPlan.seed)
    parser.add_argument("--pot", type=int, default=DEFAULT_POT, help="pot in cents")
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    parser.add_argument("--out", help="append run records to this JSON-lines file")
    parser.add_argument("--format", choices=["markdown", "csv"], default="markdown")
    for role in Role:
        parser.add_argument(
            f"--{role.value}-flaw",
            choices=[flaw.value for flaw in Flaw if flaw_role(flaw) is role],
            help=f"plant a {role.value} flaw in every run",
        )
    args = parser.parse_args(argv)

    data = {
        "runs_per_cell": args.runs_per_cell,
        "seed": args.seed,
        "pot": args.pot,
        "rounds": args.rounds,
    }
    flaws = {role.value: flaw for role in Role if (flaw := getattr(args, f"{role.value}_flaw"))}
    if flaws:
        data["flaws"] = flaws

    try:
        plan = plan_from_dict(data)
        store = RunStore(args.out) if args.out else None
        batch = run_batch(plan, store=store)
    except (InvalidPlanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(render_report(aggregate(batch.records), args.format), end="")
    print(
        f"{len(batch.records)} runs ({batch.ok_count} graded, "
        f"{batch.failed_count} failed) in {batch.elapsed_seconds:.2f}s",
        file=sys.stderr,
    )
    return 1 if batch.failed_count else 0


if __name__ == "__main__":
    raise SystemExit(main())
