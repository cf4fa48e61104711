"""Arithmetic shared by the benchmark runner and its tests.

Everything here is a pure function of its arguments, so the tests in
test_stats.py can check it on synthetic inputs.
"""

import math
import random
import re
import statistics

# A metric name: letters, digits, '_', '.' and '-', starting with a
# letter or digit, at most 64 characters.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Percentiles the rule may choose from, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def valid_metric_name(name):
    return METRIC_NAME.fullmatch(name) is not None


def median(values):
    return statistics.median(values)


def nearest_rank(n, p):
    """1-based rank of the p-th percentile of n samples.  Rounded before
    the ceiling so that, e.g., 99.9% of 10000 is rank 9990, not 9991."""
    return max(1, math.ceil(round(p / 100.0 * n, 6)))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[nearest_rank(len(ordered), p) - 1]


def samples_beyond(n, p):
    """How many of n samples lie beyond the nearest-rank p-th percentile."""
    return n - nearest_rank(n, p)


def checked_percentile(values, p):
    """The p-th percentile, refused when fewer than ten samples lie
    beyond it."""
    if samples_beyond(len(values), p) < 10:
        raise ValueError(
            f"p{p:g} needs at least ten samples beyond it; have {len(values)} samples")
    return percentile(values, p)


def highest_percentile(values):
    """The highest percentile in PERCENTILES with at least ten samples
    beyond it, as (p, value, sample count); None when even the median
    has fewer than ten beyond it."""
    best = None
    for p in PERCENTILES:
        if samples_beyond(len(values), p) >= 10:
            best = (p, percentile(values, p), len(values))
    return best


def least_steal(values, steal, share=0.25, minimum=3):
    """The samples measured while the VM lost the least CPU time to the
    hypervisor: every sample whose steal share is at most that of the
    k-th least-stolen one, k = max(minimum, ceil(share * n)).  Ties are
    kept, so where no steal is reported every sample is kept."""
    if len(values) != len(steal) or not values:
        raise ValueError("need one steal share per sample")
    cut = steal_cut(steal, share, minimum)
    return [v for v, s in zip(values, steal) if s <= cut]


def steal_cut(steal, share=0.25, minimum=3):
    """The steal share of the k-th least-stolen sample (see least_steal)."""
    k = min(len(steal), max(minimum, math.ceil(share * len(steal))))
    return sorted(steal)[k - 1]


def median_of_processes(series, share=0.25, minimum=3):
    """One figure from the samples of several processes, each a
    {"value": [...], "steal": [...]} series.  The least-stolen samples
    are chosen across all processes together, so a process that lost
    its CPUs to the hypervisor throughout gives none; each process with
    samples left gives the median of those, and the result is the
    median over those processes, so one process the host placed on
    faster or slower cores does not move it."""
    cut = steal_cut([s for x in series for s in x["steal"]], share, minimum)
    kept = [[v for v, s in zip(x["value"], x["steal"]) if s <= cut] for x in series]
    return median([median(k) for k in kept if k])


def least_steal_jobs(latency, job_window, window_steal, minimum=1000):
    """Latencies of the jobs due in the least-stolen time windows:
    windows are taken in order of steal until at least `minimum` jobs
    are kept, and windows tied with the last one taken are kept too."""
    jobs = {}
    for lat, w in zip(latency, job_window):
        jobs.setdefault(int(w), []).append(lat)
    kept, last = [], None
    for w in sorted(range(len(window_steal)), key=lambda i: window_steal[i]):
        if len(kept) >= minimum and window_steal[w] > last:
            break
        kept += jobs.get(w, [])
        last = window_steal[w]
    return kept


def poisson_schedule(seed, n, tenants):
    """n arrivals of a unit-rate Poisson process: (gap, tenant) pairs.
    The driver divides each gap by the offered rate."""
    rng = random.Random(seed)
    return [(rng.expovariate(1.0), rng.randrange(tenants)) for _ in range(n)]


def idle_frac(seq_kernel_ms_per_iter, threads, arm_ms_per_iter):
    """Share of the arm's thread-time not spent on the kernels' own work:
    1 - (seq kernel ms per iteration) / (threads * arm ms per iteration)."""
    return 1.0 - seq_kernel_ms_per_iter / (threads * arm_ms_per_iter)


# Access codes in the driver's loop shapes.
READ, WRITE, READ_WRITE = 0, 1, 2


def computed_bytes(set_size, args):
    """Bytes a loop moves, computed from its shape (not measured).

    args: (dim, bytes per value, access, map arity) per argument.  Each
    argument moves set_size * dim values, twice when it is read and
    written; an indirect argument also reads one int of its map per
    element.  Cache reuse is ignored, so this is the computed traffic.
    """
    total = 0.0
    for dim, width, access, arity in args:
        total += set_size * dim * width * (2 if access == READ_WRITE else 1)
        if arity:
            total += set_size * 4
    return total


def gb_per_s(nbytes, ms):
    return nbytes / (ms * 1e-3) / 1e9


def decode_shape(flat):
    """The driver's flat loop shape [set, dim, width, access, arity, ...]
    as (set_size, [(dim, width, access, arity), ...])."""
    set_size, rest = flat[0], flat[1:]
    if len(rest) % 4:
        raise ValueError("loop shape must list four numbers per argument")
    return set_size, [tuple(int(v) for v in rest[i:i + 4]) for i in range(0, len(rest), 4)]
