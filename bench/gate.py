"""Correctness checks the benchmark applies before it prints any number.

A failed check raises GateError; the runner then exits non-zero without
printing a result. The rubric's known defects (misgrades at pots other
than 100, replay mismatches) are not checked here: they are counted and
reported, so they stay visible.
"""

from __future__ import annotations

import hashlib
import json
import re

from ultimatum.experiment import aggregate, regrade_record, render_report
from ultimatum.transcripts import parse_canonical, serialize_canonical


class GateError(Exception):
    """The program produced an output the benchmark knows to be wrong."""


def records_digest(records) -> str:
    """Fingerprint of a batch's records, ignoring their wall times."""
    h = hashlib.sha256()
    for record in records:
        stable = {k: v for k, v in record.items() if k != "elapsed_seconds"}
        h.update(json.dumps(stable, sort_keys=True).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


_REPORT_TOTAL_RE = re.compile(r"^(\d+) runs: (\d+) graded, (\d+) failed\.$", re.MULTILINE)


def check_records(records, allowed_causes: tuple[str, ...] = ()) -> None:
    """Every ok record re-grades to its stored verdict and its canonical
    transcript round-trips byte for byte; the report counts every record.

    allowed_causes lists the exception names a failed run may carry.
    """
    for record in records:
        run_id = record["run_id"]
        if record["status"] == "ok":
            text = record["transcript"]
            if serialize_canonical(parse_canonical(text)) != text:
                raise GateError(f"{run_id}: canonical transcript does not round-trip")
            if regrade_record(record) != record["verdict"]:
                raise GateError(f"{run_id}: stored verdict differs from its re-grade")
        else:
            cause = (record.get("cause") or "").split(":", 1)[0]
            if cause not in allowed_causes:
                raise GateError(f"{run_id}: unexpected failure {record.get('cause')!r}")
    check_report_totals(render_report(aggregate(records)), len(records))


def check_report_totals(markdown: str, expected: int) -> None:
    m = _REPORT_TOTAL_RE.search(markdown)
    if m is None:
        raise GateError("report has no totals line")
    total, graded, failed = (int(g) for g in m.groups())
    if total != expected or graded + failed != expected:
        raise GateError(f"report totals {total} ({graded} + {failed}) for {expected} records")


def check_csv_total(csv_text: str, expected: int) -> None:
    line = f"overall,-,total,{expected}"
    if line not in csv_text.splitlines():
        raise GateError(f"csv report lacks {line!r}")


_GRADE_TOTAL_RE = re.compile(r"^(\d+) records, (\d+) graded, (\d+) failed$", re.MULTILINE)


def check_grade_output(text: str, expected: int) -> int:
    """Validate `ultimatum grade --records` output; return its failed count."""
    if "[differs from stored verdict]" in text:
        raise GateError("re-grade differs from a stored verdict")
    m = _GRADE_TOTAL_RE.search(text)
    if m is None:
        raise GateError("grade output has no totals line")
    total, graded, failed = (int(g) for g in m.groups())
    if total != expected or graded + failed != expected:
        raise GateError(f"grade totals {total} ({graded} + {failed}) for {expected} records")
    return failed


class Repeats:
    """A call repeated on the same seed must give the same output."""

    def __init__(self) -> None:
        self.first: dict[int, str] = {}

    def check(self, position: int, digest: str) -> None:
        if self.first.setdefault(position, digest) != digest:
            raise GateError(f"call {position} of the cycle gave different output when repeated")
