"""Pure helpers of the benchmark: percentiles, self time, core-hour
extrapolation and the stratified dataset-key sampler.

Nothing here imports numpy or the package, so the helpers are tested on
their own (``test_perfbench.py``).
"""

import math
import random
import statistics

# Percentiles a timing may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
# A percentile is reportable when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values, pct):
    """Nearest-rank percentile: the smallest value with at least ``pct``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < pct <= 100.0:
        raise ValueError("percentile must lie in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def tail_percentile(n_samples):
    """Highest percentile with at least ten samples beyond it, or None.

    This is the rule for which tail a timing may be quoted at: p99 needs
    1,000 samples, p90 needs 100, the median needs 20.
    """
    for pct in TAIL_PERCENTILES:
        if n_samples * (100.0 - pct) / 100.0 >= MIN_SAMPLES_BEYOND - 1e-9:
            return pct
    return None


def self_time(start, end, children):
    """Duration of ``[start, end]`` not covered by any child interval.

    Children may overlap each other or stick out of the parent; only the
    part of their union inside the parent is subtracted.
    """
    covered = 0.0
    cursor = start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, cursor), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            cursor = c_end
    return (end - start) - covered


def full_plan_core_hours(cpu_by_mode, datasets_by_mode):
    """CPU core-hours of a whole plan from per-dataset CPU seconds.

    ``cpu_by_mode`` maps a component-count mode to the CPU seconds of the
    sampled datasets in that mode; ``datasets_by_mode`` gives how many
    datasets of each mode the plan holds.  Each mode's mean CPU per dataset
    is weighted by its dataset count, so a mode missing from the sample is
    an error rather than a silent zero.
    """
    missing = [m for m in datasets_by_mode if not cpu_by_mode.get(m)]
    if missing:
        raise ValueError(f"no sampled datasets for modes {missing}")
    return sum(statistics.fmean(cpu_by_mode[mode]) * count
               for mode, count in datasets_by_mode.items()) / 3600.0


def mode_counts(keys):
    """Datasets per component-count mode among plan dataset keys."""
    counts = {}
    for key in keys:
        counts[key[5]] = counts.get(key[5], 0) + 1
    return counts


def pass_strata(models, seed):
    """The two strata of one plan_sample pass: fixed4, and one k = 6 stratum
    that alternates between fixed6 and random2to10 (drawn nearest its mean
    k of 6), with models rotating so any four consecutive seeds cover every
    model x mode pair."""
    return [(models[seed % 2], "fixed4"),
            (models[(seed // 2) % 2], ("fixed6", "random2to10")[seed % 2])]


def all_strata(models, modes):
    return [(model, mode) for model in models for mode in modes]


def stratified_sample(keys, strata, seed, noise=None, rank=None):
    """One plan dataset key per (model, mode) stratum, drawn from ``seed``.

    ``keys`` are plan dataset keys ``(mi, model, ni, noise, ci, mode, di)``.
    Within a stratum the key is drawn at random, from one noise level when
    ``noise`` is given; with ``rank(key)`` the draw is the first key of
    lowest rank in a seeded shuffle.
    """
    rng = random.Random(seed)
    sample = []
    for model, mode in strata:
        pool = [key for key in keys if key[1] == model and key[5] == mode
                and (noise is None or key[3] == noise)]
        if not pool:
            raise ValueError(f"no dataset key for {(model, mode, noise)}")
        rng.shuffle(pool)
        sample.append(min(pool, key=rank) if rank else pool[0])
    return sample
