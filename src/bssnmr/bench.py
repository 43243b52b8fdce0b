"""Benchmark orchestration: experiment grid, aggregation, runtimes.

A plan spans models x noise levels x component-count modes x normalizations
x techniques x k offsets.  Datasets are derived deterministically from the
master seed and reused byte-identically across techniques and k offsets.
Each decomposition is one :class:`Record`.  A technique failure stays a
record, with ``failed: true`` and its ``failure`` message, and is excluded
from the tables.  All aggregation is a sorted reduction, so results are
independent of worker count and completion order.  The four tables are
always made, if need be without rows.
"""

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from multiprocessing import get_context
from typing import Optional

import numpy as np

from .bss import TECHNIQUES, decompose, parse_technique
from .errors import NumericalFailure, TechniqueFailure, UndefinedStatistic
from .scoring import PureStatistics, best_assignment, overprediction_ratio
from .synth import (MAX_COMPONENTS, MIN_COMPONENTS, MODELS, NOISE_LEVELS,
                    NORMALIZATION_MODES, assemble_dataset, normalize,
                    sample_components)

COMPONENT_COUNT_MODES = ("fixed4", "fixed6", "random2to10")

# Stream tags keeping dataset randomness separate from technique seeding.
_DATASET_STREAM = 1
_TECHNIQUE_STREAM = 2


@dataclass(frozen=True)
class BenchmarkPlan:
    """The experiment grid; construction refuses any bad value, so a bad plan
    never runs.  An empty ``techniques`` means the full roster."""

    master_seed: int = 0
    n_datasets_per_cell: int = 20
    models: tuple[str, ...] = MODELS
    noise_levels: tuple[float, ...] = NOISE_LEVELS
    component_count_modes: tuple[str, ...] = COMPONENT_COUNT_MODES
    normalizations: tuple[str, ...] = NORMALIZATION_MODES
    techniques: tuple[str, ...] = ()
    k_offsets: tuple[int, ...] = (-2, -1, 0, 1, 2, 3, 4)

    def __post_init__(self):
        if not self.techniques:
            object.__setattr__(self, "techniques", tuple(TECHNIQUES))
        if not isinstance(self.master_seed, int) or self.master_seed < 0:
            raise ValueError(f"master_seed must be a non-negative int: {self.master_seed!r}")
        if not isinstance(self.n_datasets_per_cell, int) or self.n_datasets_per_cell < 1:
            raise ValueError("n_datasets_per_cell must be an int of at least 1")
        if 0 not in self.k_offsets:
            raise ValueError("k_offsets must contain 0")
        vocab = {"models": MODELS, "component_count_modes": COMPONENT_COUNT_MODES,
                 "normalizations": NORMALIZATION_MODES}
        for axis, legal in vocab.items():
            for value in getattr(self, axis):
                if value not in legal:
                    raise ValueError(f"unknown {axis} value {value!r}")
        for technique in self.techniques:
            parse_technique(technique)
        if not all(not isinstance(n, bool) and math.isfinite(n) and n >= 0
                   for n in self.noise_levels):
            raise ValueError(f"noise_levels must be finite numbers >= 0: {self.noise_levels}")
        if not all(type(offset) is int for offset in self.k_offsets):
            raise ValueError(f"k_offsets must be ints: {self.k_offsets}")
        for axis in fields(self)[2:]:          # the tuple-valued axes
            values = getattr(self, axis.name)
            if len(set(values)) != len(values):
                raise ValueError(f"{axis.name} repeats a value: {values}")

    def dataset_keys(self):
        for mi, model in enumerate(self.models):
            for ni, noise in enumerate(self.noise_levels):
                for ci, mode in enumerate(self.component_count_modes):
                    for di in range(self.n_datasets_per_cell):
                        yield (mi, model, ni, float(noise), ci, mode, di)

    def record_keys(self):
        """Every record's :func:`record_key`, in the order ``run_plan``
        hands records to its sink."""
        for _, model, _, noise, _, mode, di in self.dataset_keys():
            for norm in self.normalizations:
                for technique in self.techniques:
                    for k_offset in self.k_offsets:
                        yield (model, noise, mode, di, norm, technique, k_offset)

    @property
    def records_per_dataset(self) -> int:
        return (len(self.normalizations) * len(self.techniques)
                * len(self.k_offsets))


@dataclass(frozen=True)
class Record:
    """One decomposition's outcome: a line of ``records.jsonl``, whose keys
    are these fields in this order.  Records are held as such dicts; each
    is built, and read back, through this class.  ``error`` is null exactly
    when the technique failed, and ``failure`` then says why."""

    model: str
    noise: float
    mode: str
    dataset: int
    normalization: str
    technique: str
    k_offset: int
    true_k: int
    k_used: int
    clamped: bool
    failed: bool
    error: Optional[float]
    converged: bool
    runtime: float
    failure: Optional[str] = None

    def __post_init__(self):
        if self.failed != (self.error is None):
            raise ValueError("error must be null exactly when failed is true, "
                             f"found failed {self.failed} and error {self.error!r}")

    def to_dict(self) -> dict:
        """The record's JSON object: its fields, in order."""
        return dict(vars(self))


@dataclass
class AggregateTable:
    columns: list
    rows: list

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_csv_cell(v) for v in row))
        return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def build_dataset(plan: BenchmarkPlan, library, dataset_key):
    """Deterministic dataset for one (model, noise, mode, index) cell slot."""
    mi, model, ni, noise, ci, mode, di = dataset_key
    rng = np.random.default_rng([plan.master_seed, _DATASET_STREAM, mi, ni, ci, di])
    if mode == "fixed4":
        true_k = 4
    elif mode == "fixed6":
        true_k = 6
    else:
        true_k = int(rng.integers(MIN_COMPONENTS, MAX_COMPONENTS + 1))
    pures = sample_components(library, true_k, rng)
    dataset = assemble_dataset(pures, model, rng, noise_factor=noise)
    return dataset, pures, true_k


def _technique_seed(plan: BenchmarkPlan, dataset_key, tech_index: int,
                    offset_index: int) -> int:
    mi, ni, ci, di = dataset_key[0], dataset_key[2], dataset_key[4], dataset_key[6]
    seq = np.random.SeedSequence([plan.master_seed, _TECHNIQUE_STREAM,
                                  mi, ni, ci, di, tech_index, offset_index])
    return int(seq.generate_state(1)[0])


def run_dataset(plan: BenchmarkPlan, library, dataset_key) -> list:
    """All decomposition records for one dataset across the plan grid.

    The dataset is built once, and so are the statistics of its pure
    components that scoring needs and the seed of each (technique, k
    offset), which does not depend on the normalization; every record
    reuses them.
    """
    _, model, _, noise, _, mode, di = dataset_key
    dataset, pures, true_k = build_dataset(plan, library, dataset_key)
    pure_stats = PureStatistics(pures)
    seeds = [[_technique_seed(plan, dataset_key, ti, oi)
              for oi in range(len(plan.k_offsets))]
             for ti in range(len(plan.techniques))]
    records = []
    for norm in plan.normalizations:
        normalized = normalize(dataset, norm)
        for ti, technique in enumerate(plan.techniques):
            for oi, k_offset in enumerate(plan.k_offsets):
                k = max(1, true_k + k_offset)
                try:
                    result = decompose(normalized, technique, k, seed=seeds[ti][oi])
                    report = best_assignment(result, pure_stats)
                    outcome = dict(failed=False, error=report.dataset_error,
                                   converged=result.converged,
                                   runtime=result.runtime_seconds)
                except (TechniqueFailure, NumericalFailure) as exc:
                    outcome = dict(failed=True, error=None, converged=False,
                                   runtime=0.0, failure=str(exc))
                records.append(Record(
                    model=model, noise=noise, mode=mode, dataset=di,
                    normalization=norm, technique=technique,
                    k_offset=int(k_offset), true_k=true_k, k_used=k,
                    clamped=k != true_k + k_offset, **outcome).to_dict())
    return records


_FORK_CONTEXT: dict = {}


def _fork_worker(dataset_key):
    return run_dataset(_FORK_CONTEXT["plan"], _FORK_CONTEXT["library"], dataset_key)


def record_key(record: dict) -> tuple:
    return (record["model"], record["noise"], record["mode"], record["dataset"],
            record["normalization"], record["technique"], record["k_offset"])


def run_plan(plan: BenchmarkPlan, library, workers: int = 1,
             existing_records=None, record_sink=None):
    """Execute the plan; returns ``(tables, records)``: every record in key
    order, and each CSV file the CLI writes (``table1/2/3.csv``,
    ``runtime_factors.csv``) by name, as an :class:`AggregateTable`.  All
    four are always returned; table1 has no rows if no exact-k record succeeded.

    ``existing_records`` (from a previous interrupted run) are trusted to
    be the records of the plan's leading whole datasets; the rest are run.
    ``record_sink`` receives each fresh record as soon as its dataset is
    done, in the order of ``plan.record_keys()`` at any worker count.
    """
    if not library:
        raise ValueError("run_plan needs a nonempty component library")
    records = list(existing_records or [])
    pending = list(plan.dataset_keys())[len(records) // plan.records_per_dataset:]

    def keep(batch):
        records.extend(batch)
        if record_sink is not None:
            for record in batch:
                record_sink(record)

    if workers <= 1 or not pending:
        for dataset_key in pending:
            keep(run_dataset(plan, library, dataset_key))
    else:
        _FORK_CONTEXT["plan"] = plan
        _FORK_CONTEXT["library"] = library
        try:
            with ProcessPoolExecutor(max_workers=workers,
                                     mp_context=get_context("fork")) as pool:
                for batch in pool.map(_fork_worker, pending):
                    keep(batch)
        finally:
            _FORK_CONTEXT.clear()

    records.sort(key=record_key)
    tables = {
        "table1.csv": aggregate_table1(records),
        "table2.csv": aggregate_table2(records),
        "table3.csv": aggregate_table3(records),
        "runtime_factors.csv": aggregate_runtimes(records),
    }
    return tables, records


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _grouped(records, key, where, value="error") -> dict:
    """``record[value]`` of each successful record passing ``where``, by key."""
    groups: dict = {}
    for record in records:
        if not record["failed"] and where(record):
            groups.setdefault(key(record), []).append(record[value])
    return groups


def runtime_factor(runtimes) -> int:
    """Integer magnitude of the most frequent runtime decade."""
    counts = Counter(math.floor(math.log10(max(float(t), 1e-9)))
                     for t in runtimes)
    if not counts:
        raise ValueError("runtime_factor needs at least one runtime")
    return max(sorted(counts), key=counts.__getitem__)   # a tie: the smaller


def aggregate_table1(records) -> AggregateTable:
    """Mean (min, max) dataset error per technique x normalization, exact k."""
    groups = _grouped(records, lambda r: (r["technique"], r["normalization"]),
                      lambda r: r["k_offset"] == 0)
    rows = []
    for (technique, norm) in sorted(groups):
        errors = groups[(technique, norm)]
        rows.append((technique, norm, float(np.mean(errors)),
                     float(np.min(errors)), float(np.max(errors)), len(errors)))
    return AggregateTable(
        columns=["technique", "normalization", "mean_error", "min_error",
                 "max_error", "n_datasets"],
        rows=rows)


def aggregate_runtimes(records) -> AggregateTable:
    """Runtime factor per technique (reported separately: wall-clock data)."""
    groups = _grouped(records, lambda r: r["technique"], lambda r: True,
                      value="runtime")
    rows = [(tech, runtime_factor(groups[tech])) for tech in sorted(groups)]
    return AggregateTable(columns=["technique", "runtime_factor"], rows=rows)


def aggregate_table2(records) -> AggregateTable:
    """Error ratio vs exact-k per technique family and positive k offset."""
    offsets = sorted({r["k_offset"] for r in records if r["k_offset"] > 0})
    groups = _grouped(records, lambda r: (parse_technique(r["technique"]).family,
                                          r["k_offset"]),
                      lambda r: r["k_offset"] >= 0)
    families = sorted({fam for fam, _ in groups})
    rows = []
    for family in families:
        base = groups.get((family, 0))
        if not base:
            continue
        row = [family, 1.0]
        for offset in offsets:
            try:
                row.append(overprediction_ratio(base, groups.get((family, offset), [])))
            except UndefinedStatistic:
                row.append("")
        rows.append(tuple(row))
    return AggregateTable(
        columns=["family", "exact"] + [f"plus_{o}" for o in offsets],
        rows=rows)


def aggregate_table3(records) -> AggregateTable:
    """Mean error per technique family at each noise level (raw data only)."""
    noises = sorted({r["noise"] for r in records})
    groups = _grouped(records, lambda r: (parse_technique(r["technique"]).family,
                                          r["noise"]),
                      lambda r: r["k_offset"] == 0 and r["normalization"] == "none")
    families = sorted({fam for fam, _ in groups})
    rows = []
    for family in families:
        row = [family]
        for noise in noises:
            errors = groups.get((family, noise))
            row.append(float(np.mean(errors)) if errors else "")
        rows.append(tuple(row))
    return AggregateTable(
        columns=["family"] + [f"noise_{n:g}" for n in noises],
        rows=rows)
