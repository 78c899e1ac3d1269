"""Arithmetic the benchmark reports with: percentiles, self time, failure share.

Pure functions over plain lists, so ``test_perfbench.py`` can pin them on
tiny synthetic inputs without running any workload.
"""

from __future__ import annotations

from collections import defaultdict

#: A percentile is only reported when at least this many samples lie beyond it.
TAIL_SAMPLES = 10


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (0 < q < 100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty list")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def highest_percentile(n_samples: int, candidates=(99.9, 99, 95, 90, 75, 50)):
    """The highest candidate percentile with >= TAIL_SAMPLES samples beyond it.

    Returns None when even the median lacks that many samples above it.
    """
    for q in candidates:
        if n_samples * (100.0 - q) / 100.0 + 1e-9 >= TAIL_SAMPLES:
            return q
    return None


def count_failures(statuses: list[int], checks_failed: int = 0) -> tuple[int, int]:
    """(attempted, failed) over HTTP operations and their result checks.

    ``statuses`` holds one HTTP status per request.  A request fails when
    it is not 2xx, so 429/503 refusals count; ``checks_failed`` counts
    operations whose answers were 2xx but broke a correctness check, and
    each adds one failed operation on top of the requests.
    """
    bad = sum(1 for s in statuses if not 200 <= s < 300)
    return len(statuses) + checks_failed, bad + checks_failed


def failed_frac(attempted: int, failed: int) -> float:
    """Failed or refused operations divided by operations attempted."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    return failed / attempted


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per-name self time: each span's duration minus what its children cover.

    ``spans`` are dicts with ``id``, ``parent`` (None or another span's id),
    ``name``, ``start`` and ``end``.  Children are clipped to their parent
    and overlapping children are merged first, so nested and adjacent
    children are never subtracted twice.
    """
    children: dict = defaultdict(list)
    for span in spans:
        if span.get("parent") is not None:
            children[span["parent"]].append(span)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[span["name"]] += max(0.0, (end - start) - covered)
    return dict(totals)


def summary(values: list[float]) -> dict:
    """Median, the highest well-sampled percentile, and the sample count."""
    if not values:
        return {"n": 0}
    q = highest_percentile(len(values))
    out = {"n": len(values), "p50": percentile(values, 50)}
    if q is not None and q > 50:
        out[f"p{q:g}"] = percentile(values, q)
    return out
