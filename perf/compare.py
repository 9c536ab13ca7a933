#!/usr/bin/env python3
"""Compare two sides of ``perf/run.py --out`` result files.

    python3 perf/compare.py A.json B.json
    python3 perf/compare.py A1.json,A2.json,A3.json B1.json,B2.json,B3.json

A is the base (the parent commit), B the change.  For every end-to-end
metric of every workload the side's value is the median over its files and
the verdict applies the metric's own bound from ``BENCHMARK.json``:

* ``worse``      B is worse than A by more than the bound;
* ``better``     B is better than A by more than the bound;
* ``unchanged``  within the bound;
* ``unresolved`` the run-to-run quartile spread of either side exceeds the
  bound (so the bound cannot be applied), unless every run of B reads
  better than every run of A.  A side with a single file has no run-to-run
  spread; the row then says so.

Every ratio is printed with its base.  Exit status 1 when any row is
``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_side(spec: str) -> dict:
    """``{(workload, metric): [value per file]}`` for end-to-end reports."""
    side: dict = {}
    for path in spec.split(","):
        for report in json.loads(Path(path).read_text())["reports"]:
            if report["trace"]:
                continue
            for name, metric in report["metrics"].items():
                side.setdefault((report["workload"], name), []).append(
                    metric["value"])
    return side


def spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str, bound: float):
    base, new = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (new - base) / base
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    clean_win = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if spreads and max(spreads) > bound and not clean_win:
        status = "unresolved"
    elif worsening > bound:
        status = "worse"
    elif worsening < -bound:
        status = "better"
    else:
        status = "unchanged"
    return status, base, new, spreads


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    side_a, side_b = load_side(argv[1]), load_side(argv[2])
    print(f"base A = {argv[1]}\nnew  B = {argv[2]}\n")
    print(f"{'workload':<18}{'metric':<22}{'A (base)':>14}{'B':>14}"
          f"{'B/A':>8}{'bound':>7}  verdict")
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in side_a or key not in side_b:
                print(f"{workload:<18}{metric['name']:<22}"
                      f"{'missing on one side':>43}  unresolved")
                bad += 1
                continue
            status, base, new, spreads = verdict(
                side_a[key], side_b[key], metric["better"], metric["bound"])
            note = (f"spread {max(spreads):.3f}" if spreads
                    else "1 run a side: no run-to-run spread")
            print(f"{workload:<18}{metric['name']:<22}{base:>14.6g}"
                  f"{new:>14.6g}{new / base:>8.3f}{metric['bound']:>7.2f}"
                  f"  {status} ({metric['better']} is better; {note})")
            bad += status in ("worse", "unresolved")
    print(f"\n{bad} row(s) worse or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
