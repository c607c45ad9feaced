"""Percentiles with the sample-count rule the benchmark reports by."""

from __future__ import annotations

import typing as _t

#: a percentile is reported only when this many samples lie beyond it
MIN_BEYOND = 10


def percentile(samples: _t.Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0–100), linear between closest ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside 0..100")
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(n: int, q: float) -> float:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return n * (100 - q) / 100


def tail_q(n: int, target: float) -> float:
    """``target`` when at least :data:`MIN_BEYOND` of ``n`` samples lie
    beyond it, otherwise the highest percentile that has that many
    beyond it."""
    if n < 2 * MIN_BEYOND:
        raise ValueError(f"{n} samples: fewer than {2 * MIN_BEYOND}, so "
                         f"not even the median has {MIN_BEYOND} beyond it")
    if beyond(n, target) >= MIN_BEYOND:
        return target
    return 100 * (n - MIN_BEYOND) / n


def summarize(samples: _t.Sequence[float], target: float
              ) -> _t.Dict[str, float]:
    """Median and tail (see :func:`tail_q`) with the sample count."""
    q = tail_q(len(samples), target)
    return {"n": len(samples), "p50": percentile(samples, 50),
            "tail_q": q, "tail": percentile(samples, q)}
