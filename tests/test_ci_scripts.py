"""Checks that once ran only as shell in CI, run here as tier-1 tests.

Each runs what the shell ran: the CLI in a fresh interpreter through
`subprocess`, in `tmp_path`.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "ultimatum"

# src/ultimatum, prompts/ included, grows only by a stated choice: a change
# that raises this bound says why in CHANGES.md.
SOURCE_LINE_BOUND = 4604


def test_the_source_stays_within_its_line_bound():
    files = sorted(SOURCE.glob("*.py")) + sorted((SOURCE / "prompts").glob("*.py"))
    lines = sum(path.read_bytes().count(b"\n") for path in files)
    assert lines <= SOURCE_LINE_BOUND, f"src/ultimatum: {lines} .py lines"


def _cli(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ultimatum.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_a_pot_above_the_largest_is_one_error_line_and_no_store(tmp_path):
    # Every pot a plan accepts writes round lines the canonical reader reads
    # (at most 18 digits), so a larger pot is a usage error (exit 2).
    (tmp_path / "big_pot.yaml").write_text(
        "runs_per_cell: 1\npot: 10000000000000000000\n", encoding="utf-8"
    )
    done = _cli("run", "--plan", "big_pot.yaml", "--out", "big_pot.jsonl", cwd=tmp_path)
    assert done.returncode == 2
    assert not (tmp_path / "big_pot.jsonl").exists()
    assert done.stderr.splitlines() == [
        "error: bad plan value: pot must be <= 999999999999999999 cents, got 10000000000000000000"
    ]
