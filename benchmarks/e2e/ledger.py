"""Statistics for the ledger, and comparing two ledgers.

A ledger file (``run.py --output``) holds, per workload and metric, every
repeat's value in run order.  ``compare`` applies each end-to-end metric's
bound per workload; ``paired_claim`` is the rule a later change must meet
before it may claim a gain.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

import metrics

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10
MIN_PAIRS = 10
WIN_SHARE = 0.9


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; refuses one the sample cannot support."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile {q} out of (0, 100)")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {max(beyond, 0)} beyond "
            f"it; {MIN_BEYOND} are needed"
        )
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def summarize(values: Sequence[float]) -> Dict[str, object]:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "samples": list(values)}


def worse_by(metric: metrics.Metric, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    if base == 0:
        return 0.0 if new == 0 else math.inf
    change = (new - base) / abs(base)
    return change if metric.better == "lower" else -change


def verdict(metric: metrics.Metric, base: Sequence[float],
            new: Sequence[float]) -> str:
    """``regressed``, ``unresolved`` (a side's own spread exceeds the
    bound, so "no worse" cannot be told), or ``ok``."""
    bound = metric.bound or 0.0
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    if bound == 0.0:  # absolute bound: any worsening counts
        worse = (new_median > base_median if metric.better == "lower"
                 else new_median < base_median)
        return "regressed" if worse else "ok"
    if spread(base) > bound or spread(new) > bound:
        return "unresolved"
    if worse_by(metric, base_median, new_median) > bound:
        return "regressed"
    return "ok"


def compare(base: dict, new: dict) -> List[Dict[str, object]]:
    """One row per workload x end-to-end metric present on both sides."""
    rows: List[Dict[str, object]] = []
    for workload, base_metrics in base["workloads"].items():
        new_metrics = new["workloads"].get(workload)
        if new_metrics is None:
            continue
        for metric in metrics.END_TO_END:
            if not metric.applies_to(workload):
                continue
            if metric.name not in base_metrics or metric.name not in new_metrics:
                continue
            base_samples = base_metrics[metric.name]["samples"]
            new_samples = new_metrics[metric.name]["samples"]
            base_median = statistics.median(base_samples)
            new_median = statistics.median(new_samples)
            rows.append({
                "workload": workload,
                "metric": metric.name,
                "unit": metric.unit,
                "bound": metric.bound,
                "base": base_median,
                "new": new_median,
                "ratio": new_median / base_median if base_median else None,
                "base_spread": spread(base_samples),
                "new_spread": spread(new_samples),
                "n": [len(base_samples), len(new_samples)],
                "verdict": verdict(metric, base_samples, new_samples),
            })
    return rows


def paired_claim(
    metric: metrics.Metric, base: Sequence[float], new: Sequence[float],
    pairs: int, order: Optional[Sequence[bool]] = None,
) -> Dict[str, object]:
    """The rule for claiming a gain: at least ten pairs, the change wins
    nine tenths of all pairs run (ties count for neither side), and the
    medians differ by more than the parent's interquartile distance.

    ``order[i]`` is true when the parent's run of pair ``i`` started
    first; the pairs must alternate, so each side starts about half."""
    if pairs < MIN_PAIRS:
        raise ValueError(f"a claim needs at least {MIN_PAIRS} pairs")
    if len(base) < pairs or len(new) < pairs:
        raise ValueError(
            f"{pairs} pairs asked for, but the files hold "
            f"{len(base)} and {len(new)} repeats"
        )
    base, new = list(base[:pairs]), list(new[:pairs])
    wins = sum(1 for b, n in zip(base, new) if worse_by(metric, b, n) < 0)
    q1, base_median, q3 = quartiles(base)
    gap = abs(statistics.median(new) - base_median)
    alternating = None
    if order is not None:
        parent_first = sum(1 for first in order[:pairs] if first)
        alternating = abs(2 * parent_first - pairs) <= 2
    met = (wins >= WIN_SHARE * pairs and gap > q3 - q1
           and worse_by(metric, base_median, statistics.median(new)) < 0
           and alternating is not False)
    return {
        "pairs": pairs, "wins": wins, "median_gap": gap,
        "parent_iqr": q3 - q1, "alternating": alternating, "claim_met": met,
    }
