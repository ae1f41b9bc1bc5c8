"""Arithmetic of the benchmark, kept free of I/O so tests can pin it.

Percentiles are nearest-rank: the p-th percentile of n samples is the
ceil(p * n / 100)-th smallest, so it is always a measured value and the
number of samples strictly above its rank is n - ceil(p * n / 100).
"""

import math
import random
import statistics


def rank(n, p):
    """1-based nearest rank of the p-th percentile among n samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile must lie in (0, 100]")
    return max(1, math.ceil(p * n / 100))


def percentile(values, p):
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def samples_beyond(n, p):
    """How many of n samples rank above the p-th percentile."""
    return n - rank(n, p)


def median(values):
    return statistics.median(values)


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def due_latency_ms(due_s, ack_s):
    """Open-loop latency: from when the request was due, not when it was
    sent, so a stalled sender charges its wait to every late request."""
    return (ack_s - due_s) * 1e3


def poisson_schedule(arrival_seed, kind_seed, rate, seconds, mix):
    """Arrival offsets (seconds) and kinds of an open loop of Poisson
    arrivals at a fixed rate, drawn so that every run offers the same
    load: round(rate * seconds) arrivals whose gaps are exponential with
    mean 1 / rate, sampled one per quantile band of that distribution
    (jittered stratified sampling) in a random order and scaled to span
    exactly [seconds]. [mix] is a list of (kind, weight); each kind gets
    its share of the arrivals (largest remainder), in a random order.
    [arrival_seed] draws the offsets and [kind_seed] the order of the
    kinds; the same seeds give the same schedule."""
    count = round(rate * seconds)
    arrivals = random.Random(arrival_seed)
    gaps = [-math.log(1 - (i + arrivals.random()) / count) / rate for i in range(count)]
    arrivals.shuffle(gaps)
    rng = random.Random(kind_seed)
    scale = seconds / sum(gaps)
    offsets = []
    t = 0.0
    for g in gaps:
        t += g * scale
        offsets.append(t)
    total = sum(w for _, w in mix)
    quotas = [(count * w / total, k) for k, w in mix]
    counts = {k: int(q) for q, k in quotas}
    by_remainder = sorted(quotas, key=lambda qk: qk[0] - int(qk[0]), reverse=True)
    for _, k in by_remainder[:count - sum(counts.values())]:
        counts[k] += 1
    kinds = [k for k, _ in mix for _ in range(counts[k])]
    rng.shuffle(kinds)
    return list(zip(offsets, kinds))


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0
    end = lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its
    interval its children cover. [spans] maps id -> (parent, start, end)."""
    children = {}
    for sid, (parent, start, end) in spans.items():
        children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered(children.get(sid, []), start, end)
        for sid, (_, start, end) in spans.items()
    }


def root_of(spans, sid):
    while spans[sid][0] >= 0:
        sid = spans[sid][0]
    return sid
