"""Compare two full benchmark runs: ``compare.py BASE/result.json NEW/result.json``.

For every workload and end-to-end metric, prints the base value, the new
value, their ratio and one verdict, judged with the metric's bound from
``BENCHMARK.json``:

* ``regressed`` / ``improved`` — the new median is worse / better than the
  base by more than the bound;
* ``unchanged`` — within the bound either way;
* ``unresolved`` — a run's own quartiles are further apart than the bound, so
  the medians cannot settle it (unless the new run's worse quartile still
  beats the base's better one, which counts as ``improved``).

Also reports, per workload, whether the verdict digest and the exact counts
match.  Exits non-zero on any regression or any rise in ``failed_share``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _spread(metric: dict) -> float:
    if "q1" not in metric or not metric["value"]:
        return 0.0
    return abs(metric["q3"] - metric["q1"]) / abs(metric["value"])


def judge(base: dict, new: dict, better: str, bound: float) -> str:
    """Verdict for one metric of one workload (see the module docstring)."""
    lower = better == "lower"
    worse_by = (new["value"] - base["value"]) / abs(base["value"]) * (1.0 if lower else -1.0)
    if max(_spread(base), _spread(new)) > bound:
        if "q1" in base and "q1" in new:
            new_worst, base_best = (new["q3"], base["q1"]) if lower else (new["q1"], base["q3"])
            if (new_worst < base_best) if lower else (new_worst > base_best):
                return "improved"
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def compare(base: dict, new: dict, benchmark: dict) -> int:
    """Print the comparison table; return the process exit code."""
    status = 0
    print(f"{'workload':<17} {'metric':<22} {'base':>14} {'new':>14} {'new/base':>9}  verdict")
    for name in base["workloads"]:
        a = base["workloads"][name].get("untraced")
        b = new["workloads"].get(name, {}).get("untraced")
        if a is None or b is None:
            print(f"{name:<17} missing from one of the runs")
            status = 1
            continue
        for metric in benchmark["end_to_end"]:
            old, cur = a["end_to_end"][metric["name"]], b["end_to_end"][metric["name"]]
            verdict = judge(old, cur, metric["better"], metric["bound"])
            if verdict == "regressed":
                status = 1
            print(
                f"{name:<17} {metric['name']:<22} {old['value']:>14.6g} {cur['value']:>14.6g} "
                f"{cur['value'] / old['value']:>9.3f}  {verdict}"
            )
        failed = "rose" if b["failed_share"] > a["failed_share"] else "ok"
        if failed == "rose":
            status = 1
        digest = "same" if a["digest"] == b["digest"] else "DIFFERENT"
        counts = "same" if a["counts"] == b["counts"] else "DIFFERENT"
        print(
            f"{name:<17} failed_share {a['failed_share']:.6g} -> {b['failed_share']:.6g} ({failed}); "
            f"verdict digest {digest}; exact counts {counts}"
        )
    return status


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if base["seed"] != new["seed"]:
        print(f"note: seeds differ ({base['seed']} vs {new['seed']}): digests and counts will too")
    return compare(base, new, benchmark)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
