"""Golden markdown and CSV reports for the oracle grids.

Each report is rendered from a fresh oracle batch over both structures
and all four pairs, and must match its committed file byte for byte.
The pot-200 files pin grading at a pot other than the default, where
the personality bands must scale with the pot: every grid there keeps
its designed error class.

Regenerate the files after an intended change with
``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

from __future__ import annotations

import pathlib

import pytest

from ultimatum.experiment import aggregate, plan_from_dict, render_report, run_batch

GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "golden"

GRIDS = {
    "clean": {},
    "incomplete": {"proposer": "incomplete"},
    "deviator": {"proposer": "deviator"},
    "inconsistent_threshold": {"receiver": "inconsistent_threshold"},
}
SHAPES = ((100, 5), (200, 10))
FORMATS = {"markdown": "md", "csv": "csv"}

CASES = [
    (grid, pot, rounds, fmt)
    for grid in GRIDS
    for pot, rounds in SHAPES
    for fmt in FORMATS
]


def _report(grid: str, pot: int, rounds: int, fmt: str) -> str:
    plan = plan_from_dict(
        {"runs_per_cell": 2, "pot": pot, "rounds": rounds, "flaws": GRIDS[grid]}
    )
    return render_report(aggregate(run_batch(plan).records), fmt)


def _path(grid: str, pot: int, rounds: int, fmt: str) -> pathlib.Path:
    return GOLDEN / f"{grid}-pot{pot}-r{rounds}.{FORMATS[fmt]}"


@pytest.mark.parametrize(
    "grid, pot, rounds, fmt", CASES, ids=lambda v: str(v)
)
def test_report_matches_golden_file(grid, pot, rounds, fmt):
    expected = _path(grid, pot, rounds, fmt).read_text(encoding="utf-8")
    assert _report(grid, pot, rounds, fmt) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        _path(*case).write_text(_report(*case), encoding="utf-8")
