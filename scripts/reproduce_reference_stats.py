#!/usr/bin/env python3
"""Recompute the pinned reference comparisons from their raw counts.

The test suite freezes six statistical comparisons as acceptance criteria
(tests/test_acceptance.py). This script recomputes each one from its
success/trial counts and checks it against the pinned value, so drift in
the statistics code is visible at a glance:

    reproduce_reference_stats.py
"""

import sys

from ultimatum.stats import chi_square_2x2, two_proportion_z

# (test, counts s1/n1/s2/n2, pinned statistic, pinned p, p is upper bound)
CASES = [
    ("chi2", (35, 40, 20, 40), 13.091, 0.000297, False),
    ("chi2", (35, 40, 22, 40), 10.3127, 0.001321, False),
    ("ztest", (7, 7, 0, 7), 3.7417, 0.00018, False),
    # The pinned 3.1632 carries a transcription slip; sqrt(10) = 3.16228.
    ("ztest", (5, 5, 0, 5), 3.1632, 0.00158, False),
    ("ztest", (17, 23, 9, 23), 2.379, 0.017, False),
    ("ztest", (20, 20, 5, 20), 4.899, 0.00001, True),
]

STAT_TOLERANCE = 0.01
P_TOLERANCE = 0.05  # relative


def main() -> int:
    failures = 0
    header = f"{'test':5} {'counts':18} {'computed':>22} {'pinned':>20} verdict"
    print(header)
    print("-" * len(header))
    for test, counts, pinned_stat, pinned_p, p_is_bound in CASES:
        s1, n1, s2, n2 = counts
        if test == "chi2":
            result = chi_square_2x2(s1, n1, s2, n2)
        else:
            result = two_proportion_z(s1, n1, s2, n2)
        stat_ok = abs(result.statistic - pinned_stat) <= STAT_TOLERANCE
        if p_is_bound:
            p_ok = result.p_two_tailed < pinned_p
        else:
            p_ok = abs(result.p_two_tailed - pinned_p) <= P_TOLERANCE * pinned_p
        ok = stat_ok and p_ok
        failures += not ok
        counts_text = f"{s1}/{n1} vs {s2}/{n2}"
        computed = f"{result.statistic:.4f}, p={result.p_two_tailed:.3g}"
        pin = f"{pinned_stat}, p{'<' if p_is_bound else '='}{pinned_p}"
        print(f"{test:5} {counts_text:18} {computed:>22} {pin:>20} {'ok' if ok else 'DRIFT'}")
    if failures:
        print(f"{failures} comparison(s) drifted from the pinned values", file=sys.stderr)
        return 1
    print("all pinned comparisons reproduce")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
