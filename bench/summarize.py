#!/usr/bin/env python3
"""Summarize untraced run records into medians and quartiles.

    python3 bench/summarize.py bench/results/*-trace0.json > summary.json

Groups the records by workload and reports, for every metric and for the
workload's own reported metrics, the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median over the runs.
"""

from __future__ import annotations

import json
import statistics
import sys


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "runs": len(values)}


def main(paths: list[str]) -> int:
    groups: dict[str, list[dict]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        groups.setdefault(record["workload"], []).append(record)
    out = {}
    for workload, records in sorted(groups.items()):
        records.sort(key=lambda r: r["seed"])
        series: dict[str, list[float]] = {}
        for r in records:
            for key, value in r["metrics"].items():
                series.setdefault(key, []).append(value)
            for key, value in r["detail"].items():
                if key == "problem":  # the guarded problem_* metrics above
                    continue
                if isinstance(value, dict) and "p50_ms" in value:
                    series.setdefault(f"{key}_p50_ms", []).append(value["p50_ms"])
                    series.setdefault(f"{key}_tail_ms", []).append(value["tail_ms"])
                elif key in ("fail_ratio", "norm_rel_err_max"):
                    series.setdefault(key, []).append(value)
        out[workload] = {
            "seeds": [r["seed"] for r in records],
            "seconds": records[0]["seconds"],
            "environment": records[0]["environment"],
            "attempted": sum(r["counts"]["attempted"] for r in records),
            "failed": sum(r["counts"]["failed"] for r in records),
            "wrong": sum(r["counts"]["wrong"] for r in records),
            "metrics": {key: spread(values) for key, values in series.items()},
        }
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
