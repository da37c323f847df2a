"""A gauge of how fast this machine runs Python at the moment.

On a shared machine the same pure-Python work can take 1.7 times longer
for tens of seconds at a time, and CPU time inflates with wall time, so
neither helps. A short fixed pass of the same kinds of work the harness
does (JSON, regular expressions, dicts, string formatting) slows down
with it. The runner times that pass before and after every timed call and scales
CPU-bound timings by NOMINAL_S / (mean of the two pass times). The result
reads as the time the call would take on a machine where one pass takes
NOMINAL_S, so a change to the program moves it but a slow spell on the
host does not.
"""

from __future__ import annotations

import json
import re
import time

NOMINAL_S = 0.0035  # a typical pass on a 2-core x86 VM at Python 3.11

_RECORDS = [{"run_id": f"run.{i:03d}", "offer": i % 101, "flags": [i, "x" * (i % 7)]} for i in range(60)]
_TEXT = "Round 3: the proposer offers $0.45, about 45 cents; DECISION: accept\n" * 12
_AMOUNT_RE = re.compile(r"\$(\d+)\.(\d{2})|(\d+)\s*cents?\b")


def gauge_pass() -> float:
    """Seconds for one fixed pass of harness-like work."""
    start = time.perf_counter()
    for _ in range(12):
        text = json.dumps(_RECORDS, sort_keys=True)
        json.loads(text)
        found = [m.group(0) for m in _AMOUNT_RE.finditer(_TEXT)]
        counts: dict = {}
        for word in _TEXT.split():
            counts[word.lower()] = counts.get(word.lower(), 0) + 1
        "|".join(f"{k}:{v}" for k, v in sorted(counts.items())) + str(len(found))
    return time.perf_counter() - start


class SpeedLog:
    """Gauge samples taken around timed calls."""

    def __init__(self) -> None:
        self.seconds: list[float] = []

    def sample(self) -> int:
        """Take one gauge sample and return its index."""
        self.seconds.append(gauge_pass())
        return len(self.seconds) - 1

    def factor(self, before: int) -> float:
        """NOMINAL_S over the mean of samples `before` and `before + 1`, the
        ones taken just before and just after a timed call."""
        return NOMINAL_S / ((self.seconds[before] + self.seconds[before + 1]) / 2)
