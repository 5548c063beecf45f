"""Pure metric code of the benchmark: no simulator, no clock.

Everything here works on plain numbers, histograms and request records,
so ``test_metrics.py`` can check it on synthetic inputs.
"""

from __future__ import annotations

import statistics
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

class BenchmarkError(Exception):
    """A correctness check of the benchmark failed."""


#: Outcomes the application chose (insufficient funds, missing row,
#: duplicate insert). They are correct answers, not failures.
APPLICATION_ABORTS = frozenset({"user_abort", "not_found", "duplicate_key"})

#: CO p99 limit a hot-key rung must meet to count towards slo_max_tps.
SLO_P99_LIMIT_US = 250.0

#: A rung has a growing backlog when, at the end of its arrival window,
#: more than this much virtual time worth of offered load still waits.
BACKLOG_LIMIT_S = 1e-3

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def samples_beyond(count: int, pct: float) -> int:
    """How many of *count* ranked samples lie above the *pct* percentile."""
    return int(count * (100.0 - pct) / 100.0 + 1e-9)


def supported_percentile(hist, pct: float) -> Tuple[Optional[float], int]:
    """``(value, samples beyond)`` of a histogram percentile.

    The value is ``None`` when fewer than :data:`MIN_SAMPLES_BEYOND`
    samples lie beyond it: the sample cannot support that percentile.
    """
    beyond = samples_beyond(hist.count, pct)
    if beyond < MIN_SAMPLES_BEYOND:
        return None, beyond
    return hist.percentile(pct), beyond


def fail_count(
    abort_reasons: Mapping[str, int], unknown: int, censored: int
) -> int:
    """Requests that did not commit for a reason other than the application's.

    Retries exhausted (the final abort reason is a conflict), requests
    killed by a crash (``unknown``) and requests still waiting when the
    drain ended (``censored``) all count; application aborts do not.
    """
    system_aborts = sum(
        count for reason, count in abort_reasons.items()
        if reason not in APPLICATION_ABORTS
    )
    return system_aborts + unknown + censored


def fail_frac(
    intended: int, abort_reasons: Mapping[str, int], unknown: int, censored: int
) -> float:
    """:func:`fail_count` as a share of the intended requests."""
    if intended <= 0:
        raise ValueError("no intended requests")
    return fail_count(abort_reasons, unknown, censored) / intended


def check_co_identity(intended: int, completed: int, unknown: int, censored: int) -> Optional[str]:
    """The open-loop accounting identity; returns a message when it breaks."""
    if intended != completed + unknown + censored:
        return (
            f"CO accounting: intended {intended} != completed {completed} "
            f"+ unknown {unknown} + censored {censored}"
        )
    return None


def backlog_at(requests: Iterable, when: float) -> int:
    """Requests that had arrived by *when* but were not yet dispatched."""
    return sum(
        1 for r in requests
        if r.intended <= when and (r.dispatched is None or r.dispatched > when)
    )


def backlog_growing(backlog_end_of_window: int, offered: float) -> bool:
    """True when more than :data:`BACKLOG_LIMIT_S` of offered load waits."""
    return backlog_end_of_window > offered * BACKLOG_LIMIT_S


def slo_max_tps(rungs: Sequence[Tuple[float, float, bool]]) -> float:
    """Highest offered rate with CO p99 within the limit and no growing backlog.

    *rungs* holds ``(offered, co_p99_us, backlog_growing)``. Returns 0.0
    when no rung meets the limit.
    """
    best = 0.0
    for offered, p99_us, growing in rungs:
        if p99_us <= SLO_P99_LIMIT_US and not growing and offered > best:
            best = offered
    return best


def quantile_values(values: Sequence[float]) -> List[float]:
    """Sorted values' p50 and p99 by nearest rank (plain lists, no histogram)."""
    if not values:
        return [0.0, 0.0]
    ordered = sorted(values)
    last = len(ordered) - 1
    return [ordered[round(last * 0.5)], ordered[round(last * 0.99)]]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median, from ``statistics.quantiles``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0
