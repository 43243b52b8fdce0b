"""The four benchmark workloads and their end-to-end metrics.

Every workload makes its inputs from the seed, sets up (timed, several
times), then runs whole units of work (a pass over a dataset sample, a
round of library slices, a CLI invocation) until ``seconds`` have passed,
and checks the program's outputs.  Rates are medians over units.

On the workloads that do not exist for the library, its metrics come from
probes: between two decompositions, at most once every PROBE_INTERVAL_S,
a small fixed library is generated, written and read back, and the time
this takes is kept out of the dataset that holds it.  On a shared host
whose speed drifts by tens of percent over a few seconds, a median over
probes spread across the run is steady where a few samples taken during
set-up were not.

Why each workload exists:

* ``plan_sample``: the real plan's per-dataset work (20 techniques x 3
  normalizations x 7 k offsets through ``bench.run_dataset``) on a fixed4
  dataset and a k = 6 dataset (see ``pass_strata``).  ``nnmf`` and
  ``mcr:nnls`` dominate, so nonnegative-solver changes must show here.
* ``signed_roster``: the same kind of datasets, one of every model x mode
  stratum per pass, run with only the 12 techniques that use no
  nonnegative solver and one normalization each; solver changes predict
  no change here.
* ``library_io``: generate a library slice, write it, read it back, then
  run the subspace techniques on one fixed4 dataset drawn from the
  read-back library to show it is usable.  Lineshape and file I/O
  dominate.
* ``cli_bench``: ``bssnmr bench --workers 2`` as a subprocess: the only
  path through the CLI, the fork pool, the records sink and table
  emission.  Each invocation runs a plan of its own master seed, so one
  run covers several draws of the data rather than repeating one.  It
  runs one BLAS thread per worker like the rest: with
  OpenBLAS's default of one thread per core, two workers on two cores ran
  the same plan at 10.1 to 14.9 records/s from run to run, a spread no
  bound of the benchmark can hold.
"""

import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

from bssnmr import bench, bss, fileio, lineshape
from bssnmr.errors import TechniqueFailure

import layers
import stats
from blas import blas_info
from spans import Tracer, wrapper_cost_s

HERE = Path(__file__).resolve().parent

DEFAULT_PLAN = bench.BenchmarkPlan()
DEFAULT_KEYS = list(DEFAULT_PLAN.dataset_keys())
FULL_ROSTER = DEFAULT_PLAN.techniques
SIGNED_ROSTER = tuple(t for t in FULL_ROSTER
                      if bss.parse_technique(t).family not in ("nnmf", "mcr"))
SUBSPACE_ROSTER = ("svd", "truncated_svd", "pca")
FULL_PLAN_RECORDS = (len(DEFAULT_KEYS) * len(DEFAULT_PLAN.normalizations)
                     * len(FULL_ROSTER) * len(DEFAULT_PLAN.k_offsets))
# A dataset's cost depends on its noise level and component count far more
# than on anything else the seed draws, and a run can afford only two
# full-roster datasets (12-25 s each).  So samples are drawn at one noise
# level, the one whose cost is nearest the mean over the six levels (fixed4
# CPU per dataset 9.4-16.8 s across levels, mean 14.0 s, 13.8 s here), and
# random2to10 is drawn nearest k = 6, the mean of its uniform k (cost swings
# 5x over k).  Its datasets then do the same work as fixed6 ones, so the two
# modes are costed from their pooled k = 6 datasets.
SAMPLE_NOISE = 0.000178
RANDOM_MODE_K = 6
K6_MODES = ("fixed6", "random2to10")
SETUP_REPEATS = 3
CLI_WORKERS = 2
# At least this many CLI invocations, each of about 7 s, so that the median
# over invocations does not rest on one or two plans.
CLI_MIN_INVOCATIONS = 3
CLI_TIMEOUT_S = 150
PROBE_INTERVAL_S = 1.5
MB = 1e6


def library_spec():
    """3,200 components: every 2nd cq, every 2nd eta and every 3rd shift of
    the default grid, each with all 8 smoothing widths."""
    full = lineshape.LibraryGridSpec.from_counts()
    return lineshape.LibraryGridSpec(
        cq_values_hz=full.cq_values_hz[::2], eta_values=full.eta_values[::2],
        shift_values_hz=full.shift_values_hz[::3],
        broaden_values=full.broaden_values)


def probe_spec():
    """The probe library: 2 cq x 2 eta x 2 shift values of the default grid
    with all 8 smoothing widths (64 components, about 0.7 MB on disk)."""
    full = lineshape.LibraryGridSpec.from_counts()
    return lineshape.LibraryGridSpec(
        cq_values_hz=full.cq_values_hz[10:12], eta_values=full.eta_values[:2],
        shift_values_hz=full.shift_values_hz[:2],
        broaden_values=full.broaden_values)


def library_slice(rng):
    """A seeded 10 cq x 5 eta x 4 shift slice of the default grid, with all
    8 smoothing widths (1,600 components)."""
    full = lineshape.LibraryGridSpec.from_counts()

    def pick(values, n):
        return tuple(values[i] for i in sorted(rng.sample(range(len(values)), n)))

    return lineshape.LibraryGridSpec(
        cq_values_hz=pick(full.cq_values_hz, 10),
        eta_values=pick(full.eta_values, 5),
        shift_values_hz=pick(full.shift_values_hz, 4),
        broaden_values=full.broaden_values)


def tables_of(records):
    return {"table1.csv": bench.aggregate_table1(records).to_csv(),
            "table2.csv": bench.aggregate_table2(records).to_csv(),
            "table3.csv": bench.aggregate_table3(records).to_csv()}


def tables_sha256(tables):
    digest = hashlib.sha256()
    for name in sorted(tables):
        digest.update(name.encode() + b"\0" + tables[name].encode() + b"\0")
    return digest.hexdigest()


def record_failed(record):
    """A record fails when its technique raised or its error is not finite."""
    error = record.get("error")
    return bool(record["failed"]) or not (
        isinstance(error, (int, float)) and math.isfinite(error))


def _guarded(decompose, before):
    """``decompose`` with every exception raised as TechniqueFailure, and
    ``before()`` called ahead of each call.

    ``run_dataset`` records a TechniqueFailure as a failed record but lets
    anything else (such as NumericalFailure from an ``nnls`` iteration cap)
    abort the whole dataset.  Under the benchmark such a decomposition
    counts as one failed record and the dataset goes on, so a failure
    costs one record rather than hiding the rest of the dataset's work.
    """
    @functools.wraps(decompose)
    def guarded(*args, **kwargs):
        before()
        try:
            return decompose(*args, **kwargs)
        except TechniqueFailure:
            raise
        except Exception as exc:
            raise TechniqueFailure(f"{type(exc).__name__}: {exc}") from exc

    return guarded


def plan_json(plan):
    return {"master_seed": plan.master_seed,
            "n_datasets_per_cell": plan.n_datasets_per_cell,
            "models": list(plan.models), "noise_levels": list(plan.noise_levels),
            "component_count_modes": list(plan.component_count_modes),
            "normalizations": list(plan.normalizations),
            "techniques": list(plan.techniques), "k_offsets": list(plan.k_offsets)}


class Run:
    """Measurements and output checks of one benchmark run."""

    def __init__(self, seed, seconds, work_dir, tracer, trace):
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.tracer = tracer
        self.trace = trace
        self.probing = False       # library probes between decompositions
        self.probe_wall = 0.0      # seconds spent in probes
        self.probe_cpu = 0.0
        self._next_probe = 0.0
        self.imports = []          # import seconds of each fresh interpreter
        self.setup = []            # seconds of each set-up repeat
        self.gen = []              # (components, seconds) per generate_library
        self.writes = []           # (bytes, seconds) per write_library
        self.reads = []            # (bytes, seconds) per read_library
        self.datasets = []         # per dataset: mode, wall s, cpu s
        self.units = []            # per unit of work: records, wall s, cpu s
        self.records = []          # every record the program produced
        self.lost = 0              # records of datasets that raised
        self.tables = None         # table1/2/3 text of the first pass
        self.cpu_by_mode = None    # per-mode dataset CPU, for core-hours
        self.plan_records = FULL_PLAN_RECORDS   # default plan, this roster
        self.checks = {}
        self.info = {}
        self.cli = {}

    def check(self, name, ok):
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def generate(self, spec):
        start = time.perf_counter()
        components = lineshape.generate_library(spec)
        self.gen.append((len(components), time.perf_counter() - start))
        return components

    def write(self, path, components, spec):
        start = time.perf_counter()
        fileio.write_library(path, components, lineshape.DEFAULT_GRID, spec)
        self.writes.append((os.path.getsize(path), time.perf_counter() - start))

    def read(self, path):
        start = time.perf_counter()
        components, _, _ = fileio.read_library(path)
        self.reads.append((os.path.getsize(path), time.perf_counter() - start))
        return components

    def probe_library(self):
        """Turn on library probes, except in a traced run, where they would
        add to the spans of the dataset that holds them."""
        self.probing = not self.trace

    def maybe_probe(self):
        """Generate, write and read back the probe library, if probing and
        PROBE_INTERVAL_S have passed since the last probe."""
        if not self.probing or time.perf_counter() < self._next_probe:
            return
        wall, cpu = time.perf_counter(), time.process_time()
        spec, path = probe_spec(), self.work_dir / "probe.json"
        self.write(path, self.generate(spec), spec)
        self.read(path)
        self._next_probe = time.perf_counter() + PROBE_INTERVAL_S
        self.probe_wall += time.perf_counter() - wall
        self.probe_cpu += time.process_time() - cpu

    def unit(self, datasets, records):
        """Close a unit of work made of the given ``datasets`` entries; a
        unit whose datasets all raised has no rate and is left out."""
        if records:
            self.units.append((records, sum(d["wall"] for d in datasets),
                               sum(d["cpu"] for d in datasets)))

    def run_dataset(self, plan, library, key):
        """One ``bench.run_dataset`` call; if it raises, all of the
        dataset's records count as attempted and failed."""
        self.tracer.dataset = len(self.datasets)
        wall, cpu = time.perf_counter(), time.process_time()
        probe_wall, probe_cpu = self.probe_wall, self.probe_cpu
        records = []
        try:
            records = bench.run_dataset(plan, library, key)
        except Exception as exc:
            print(f"perfbench: dataset {key} raised {exc!r}", file=sys.stderr)
            self.lost += (len(plan.normalizations) * len(plan.techniques)
                          * len(plan.k_offsets))
        self.datasets.append({"key": list(key), "mode": key[5],
                              "normalizations": list(plan.normalizations),
                              "wall": (time.perf_counter() - wall
                                       - (self.probe_wall - probe_wall)),
                              "cpu": (time.process_time() - cpu
                                      - (self.probe_cpu - probe_cpu))})
        self.records.extend(records)
        self.tracer.dataset = -1

    def per_mode_cpu(self):
        """CPU of a whole dataset (all of the plan's normalizations) for
        each component-count mode, the k = 6 modes pooled."""
        def whole(d):
            return d["cpu"] * len(DEFAULT_PLAN.normalizations) / len(d["normalizations"])

        self.cpu_by_mode = {"fixed4": [whole(d) for d in self.datasets
                                       if d["mode"] == "fixed4"]}
        for mode in K6_MODES:
            self.cpu_by_mode[mode] = [whole(d) for d in self.datasets
                                      if d["mode"] in K6_MODES]

    def records_per_s(self):
        return statistics.median(n / w for n, w, _ in self.units)

    def end_to_end(self):
        cpu_s_per_record = statistics.median(c / n for n, _, c in self.units)
        if self.cpu_by_mode is None:
            core_h = cpu_s_per_record * self.plan_records / 3600.0
        else:
            core_h = stats.full_plan_core_hours(
                self.cpu_by_mode, stats.mode_counts(DEFAULT_KEYS))
        peak_kb = self.cli.get("peak_rss_kb") or \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_s": (statistics.median(self.imports)
                        + statistics.median(self.setup), "s"),
            "records_per_s": (self.records_per_s(), "1/s"),
            "dataset_s_p50": (
                statistics.median(d["wall"] for d in self.datasets), "s"),
            "cpu_s_per_record": (cpu_s_per_record, "s"),
            "full_plan_core_h": (core_h, "h"),
            "library_components_per_s": (
                statistics.median(c / s for c, s in self.gen), "1/s"),
            "library_write_mb_per_s": (
                statistics.median(b / s for b, s in self.writes) / MB, "MB/s"),
            "library_read_mb_per_s": (
                statistics.median(b / s for b, s in self.reads) / MB, "MB/s"),
            "peak_rss_mb": (peak_kb * 1024 / MB, "MB"),
        }


def _prepare_library(run):
    """Generate the 3,200-component library once, then set up
    SETUP_REPEATS times: write it to a file and read it back, which is
    where ``bssnmr bench`` starts from."""
    spec = library_spec()
    generated = lineshape.generate_library(spec)
    path = run.work_dir / "library.json"
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        fileio.write_library(path, generated, lineshape.DEFAULT_GRID, spec)
        library = fileio.read_library(path)[0]
        run.setup.append(time.perf_counter() - start)
    checksum = lineshape.library_checksum(library)
    run.check("library_round_trip",
              checksum == lineshape.library_checksum(generated))
    run.info["library_checksum"] = checksum
    run.info["library_components"] = len(library)
    return library, path


def _draw_sample(run, plan, library, strata, seed):
    """Stratified dataset keys at SAMPLE_NOISE, random2to10 nearest k = 6."""
    def distance_from_mean_k(key):
        if key[5] != "random2to10":
            return 0
        return abs(bench.build_dataset(plan, library, key)[2] - RANDOM_MODE_K)

    with run.tracer.paused():
        return stats.stratified_sample(DEFAULT_KEYS, strata, seed,
                                       noise=SAMPLE_NOISE, rank=distance_from_mean_k)


def _dataset_passes(run, roster, strata, min_passes, split_normalizations):
    """At least ``min_passes`` whole passes of ``bench.run_dataset`` over
    stratified key samples, and more until ``run.seconds`` have passed;
    each pass is a unit, and the first makes the tables.

    ``strata(pass_seed)`` gives a pass's strata.  With
    ``split_normalizations`` each dataset runs one normalization of the
    plan, rotating, so a pass draws three times as many datasets for the
    same work; its records are those the whole plan makes for that
    normalization.
    """
    library, _ = _prepare_library(run)
    run.probe_library()
    plan = bench.BenchmarkPlan(master_seed=run.seed, techniques=roster)
    norms = plan.normalizations
    samples = []
    start = time.perf_counter()
    while (len(samples) < min_passes
           or time.perf_counter() - start < run.seconds):
        pass_seed = run.seed + len(samples)
        samples.append(_draw_sample(run, plan, library, strata(pass_seed),
                                    pass_seed))
        first, n_records = len(run.datasets), len(run.records)
        for i, key in enumerate(samples[-1]):
            if split_normalizations:
                norm = norms[(i + len(samples)) % len(norms)]
                run.run_dataset(dataclasses.replace(plan, normalizations=(norm,)),
                                library, key)
            else:
                run.run_dataset(plan, library, key)
        run.unit(run.datasets[first:], len(run.records) - n_records)
        if run.tables is None:
            run.tables = tables_of(run.records)
    run.per_mode_cpu()
    run.info["plan"] = plan_json(plan)
    run.info["sample"] = [d["key"] for d in run.datasets]


def plan_sample(run):
    _dataset_passes(run, FULL_ROSTER,
                    lambda seed: stats.pass_strata(DEFAULT_PLAN.models, seed),
                    min_passes=1, split_normalizations=False)


def signed_roster(run):
    # A pass holds one dataset of every model x mode stratum at a third of
    # the plan's work each, about 8 s; two passes make twelve datasets, so
    # the data drawn from the seed averages out within a run.
    strata = stats.all_strata(DEFAULT_PLAN.models, DEFAULT_PLAN.component_count_modes)
    _dataset_passes(run, SIGNED_ROSTER, lambda seed: strata,
                    min_passes=2, split_normalizations=True)


def library_io(run):
    plan = bench.BenchmarkPlan(master_seed=run.seed, techniques=SUBSPACE_ROSTER)
    run.plan_records = FULL_PLAN_RECORDS * len(SUBSPACE_ROSTER) // len(FULL_ROSTER)
    tiny = lineshape.LibraryGridSpec.from_counts(n_cq=2, n_eta=1, n_shift=1)
    warm_path = run.work_dir / "warm.json"
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        fileio.write_library(warm_path, lineshape.generate_library(tiny),
                             lineshape.DEFAULT_GRID, tiny)
        warm = fileio.read_library(warm_path)[0]
        run.setup.append(time.perf_counter() - start)
    # One fixed4 dataset per model: the subspace pass only shows that the
    # read-back library is usable, and one component count keeps its
    # per-dataset times in one cluster, so their median is steady.  A round
    # runs one slice per key, so every round holds the same datasets.
    keys = _draw_sample(run, plan, warm, [(model, "fixed4") for model in plan.models],
                        run.seed)

    rng = random.Random(run.seed)
    path = run.work_dir / "slice.json"
    checksums = []
    round_records = 0
    start = time.perf_counter()
    while len(checksums) % len(keys) or time.perf_counter() - start < run.seconds:
        if len(checksums) % len(keys) == 0:
            round_records = len(run.records)
        spec = library_slice(rng)
        generated = run.generate(spec)
        run.write(path, generated, spec)
        library = run.read(path)
        checksums.append(lineshape.library_checksum(library))
        run.check("library_round_trip",
                  checksums[-1] == lineshape.library_checksum(generated))
        run.run_dataset(plan, library, keys[(len(checksums) - 1) % len(keys)])
        if len(checksums) % len(keys) == 0:
            run.unit(run.datasets[-len(keys):], len(run.records) - round_records)
        if len(checksums) == len(keys):
            run.tables = tables_of(run.records)
    run.info["plan"] = plan_json(plan)
    run.info["sample"] = [list(key) for key in keys]
    run.info["library_checksum"] = checksums[0]
    run.info["library_components"] = run.gen[0][0]


def cli_plan(seed, invocation):
    """The plan of one CLI invocation: both models, the full roster, three
    normalizations and k offsets 0 and +4 on one fixed4 dataset each."""
    return bench.BenchmarkPlan(
        master_seed=seed * 100 + invocation, n_datasets_per_cell=1,
        noise_levels=(SAMPLE_NOISE,),
        component_count_modes=("fixed4",), k_offsets=(0, 4))


def cli_bench(run):
    library, library_path = _prepare_library(run)
    env = subprocess_env()
    run.probe_library()
    # Tables must not depend on the worker count: the first invocation's
    # plan also runs in this process with one worker.  It runs first, so
    # the library probes between its decompositions and those after each
    # invocation span the whole run.
    _, reference = bench.run_plan(cli_plan(run.seed, 0), library, workers=1)

    plans = []
    start = time.perf_counter()
    while (len(plans) < CLI_MIN_INVOCATIONS
           or time.perf_counter() - start < run.seconds):
        plan = cli_plan(run.seed, len(plans))
        plans.append(plan)
        plan_path = run.work_dir / f"plan{len(plans)}.json"
        plan_path.write_text(json.dumps(plan_json(plan)), encoding="utf-8")
        records_per_plan = (sum(1 for _ in plan.dataset_keys())
                            * len(plan.normalizations) * len(plan.techniques)
                            * len(plan.k_offsets))
        out = run.work_dir / f"cli{len(plans)}"
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        wall = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "bssnmr.cli", "bench", "--plan", str(plan_path),
             "--library", str(library_path), "--out", str(out),
             "--workers", str(CLI_WORKERS)],
            env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        wall = time.perf_counter() - wall
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)
        run.maybe_probe()
        if done.returncode != 0:   # every record of the plan counts as failed
            print(done.stderr, file=sys.stderr)
            run.lost += records_per_plan
            continue
        with open(out / "records.jsonl", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        run.records.extend(records)
        run.units.append((len(records), wall, cpu))
        run.check("cli_records_complete", len(records) == records_per_plan)
        tables = {name: (out / name).read_text(encoding="utf-8")
                  for name in ("table1.csv", "table2.csv", "table3.csv")}
        # The CLI aggregates its records in key order; the float sums of
        # the tables depend on that order down to the last bit.
        run.check("cli_tables_match_records",
                  tables == tables_of(sorted(records, key=bench.record_key)))
        if len(plans) == 1:
            run.tables = tables
            run.cli["records_bytes"] = os.path.getsize(out / "records.jsonl")
        # The CLI records each decomposition's runtime; a dataset's time is
        # the sum over its records (decompose only, measured in the worker).
        per_dataset = {}
        for record in records:
            dkey = (record["model"], record["noise"], record["mode"], record["dataset"])
            per_dataset[dkey] = per_dataset.get(dkey, 0.0) + record["runtime"]
        run.datasets += [{"key": list(dkey), "mode": dkey[2], "wall": seconds,
                          "cpu": None}
                         for dkey, seconds in sorted(per_dataset.items())]
    run.cli.update(wall_s=sum(w for _, w, _ in run.units),
                   cpu_s=sum(c for _, _, c in run.units),
                   workers=CLI_WORKERS,
                   blas_threads=run.info["subprocess_blas"]["blas_threads"] or 0,
                   peak_rss_kb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
                   invocations=len(plans))

    if run.tables is not None:
        run.check("cli_tables_match_in_process", tables_of(reference) == run.tables)
    run.info["plan"] = [plan_json(plan) for plan in plans]


WORKLOADS = {"plan_sample": plan_sample, "signed_roster": signed_roster,
             "library_io": library_io, "cli_bench": cli_bench}


def subprocess_env():
    """The benchmark's environment with the package source importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE.parent / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def probe_imports(run):
    """Import numpy and the package in SETUP_REPEATS fresh interpreters:
    the import part of set-up, and the BLAS a subprocess gets."""
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, str(HERE / "blas.py")],
                               env=subprocess_env(), capture_output=True,
                               text=True, timeout=60, check=True)
        info = json.loads(probe.stdout)
        run.imports.append(info.pop("import_s"))
    run.info["subprocess_blas"] = info


def execute(name, seed, seconds, trace, root):
    """Run one workload; returns (correct, attempted, failed, metrics, detail)."""
    work_dir = root / ".perfbench_work" / f"{name}-seed{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    tracer = Tracer()
    original_decompose = bench.decompose
    run = Run(seed, seconds, work_dir, tracer, trace)
    bench.decompose = _guarded(original_decompose, run.maybe_probe)
    if trace:
        layers.install(tracer)
    start = time.perf_counter()
    try:
        probe_imports(run)
        WORKLOADS[name](run)
    finally:
        tracer.uninstall()
        bench.decompose = original_decompose
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):   # left alone while not empty
            work_dir.parent.rmdir()
    run.total_wall = time.perf_counter() - start

    attempted = len(run.records) + run.lost
    failed = sum(record_failed(r) for r in run.records) + run.lost
    if not run.records:
        raise SystemExit(f"perfbench: {name} produced no records")
    run.check("errors_nonnegative", all(
        r["error"] >= 0 for r in run.records if not record_failed(r)))
    run.check("tables_made", run.tables is not None)
    # A traced run takes no library probes, so only its record rate is
    # comparable with an untraced run.
    e2e = None if trace else run.end_to_end()
    if trace:
        metrics = layers.per_layer(tracer, run, run.records_per_s(),
                                   wrapper_cost_s())
        calls = len(tracer.named("bss.decompose"))
        run.info["decompose_calls"] = calls
        run.info["decompose_quotable_pct"] = stats.tail_percentile(calls)
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{name}-seed{seed}.jsonl")
    else:
        metrics = e2e
    blas = blas_info()
    detail = {
        "workload": name, "master_seed": seed, "seconds": seconds,
        "trace": trace, "numpy": numpy.__version__, "scipy": scipy.__version__,
        "openblas": blas["openblas"], "blas_threads": blas["blas_threads"],
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "workers": run.cli.get("workers", 1),
        "attempted": attempted, "failed": failed,
        "failed_fraction": failed / attempted,
        "datasets": run.datasets, "import_repeats_s": run.imports,
        "setup_repeats_s": run.setup,
        "library_writes": run.writes, "library_reads": run.reads,
        "tables_sha256": tables_sha256(run.tables) if run.tables else None,
        "checks": run.checks,
        "end_to_end": e2e and {k: v for k, (v, _) in e2e.items()},
        **run.info,
    }
    correct = all(run.checks.values())
    return correct, attempted, failed, metrics, detail
