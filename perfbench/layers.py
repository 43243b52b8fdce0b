"""Per-layer metrics of a traced run: where the tracer hooks into each
module, and how the spans become the ``per_layer`` metrics of
``BENCHMARK.json``.

Layer metric -> end-to-end metric it should move:

* lineshape.*: library_components_per_s on library_io; setup_s where a
  workload builds its library.
* fileio.*: library_write/read_mb_per_s on library_io; records_per_s on
  cli_bench (the CLI reads the library file).
* synth.*: records_per_s on signed_roster.
* bss.nnmf.*, bss.mcr_nnls.*, numkernel.nnls.*: records_per_s,
  dataset_s_p50, cpu_s_per_record, full_plan_core_h on plan_sample.
* bss.fastica/jade/sobi/simplisma.*, numkernel.joint_diagonalize.*,
  numkernel.assign_max.*, scoring.*: the same metrics on signed_roster.
* cli.*: records_per_s and cpu_s_per_record on cli_bench.

On cli_bench only the benchmark process is traced; worker-side layers are
measured on plan_sample.
"""

import os
import statistics

import numpy as np

from bssnmr import bench, bss, fileio, lineshape, scoring

import stats

BSS_GROUPS = ("svd", "truncated_svd", "pca", "fastica", "jade", "sobi", "vca",
              "nnmf", "simplisma", "mcr_ols_als", "mcr_nnls")


def names():
    """Every per-layer metric as (name, unit, better)."""
    out = [
        ("lineshape.crystallite_frequencies.busy_s", "s", "lower"),
        ("lineshape.generate_library.self_s", "s", "lower"),
        ("lineshape.powder_points", "count", "higher"),
        ("lineshape.components", "count", "higher"),
        ("lineshape.library_checksum.busy_s", "s", "lower"),
        ("fileio.write_library.busy_s", "s", "lower"),
        ("fileio.read_library.busy_s", "s", "lower"),
        ("fileio.library_bytes", "bytes", "lower"),
        ("synth.sample_components.busy_s", "s", "lower"),
        ("synth.assemble_dataset.busy_s", "s", "lower"),
        ("synth.normalize.busy_s", "s", "lower"),
        ("synth.datasets", "count", "higher"),
    ]
    for group in BSS_GROUPS:
        out += [(f"bss.{group}.busy_s", "s", "lower"),
                (f"bss.{group}.calls", "count", "higher"),
                (f"bss.{group}.converged_ratio", "ratio", "higher"),
                (f"bss.{group}.iterations_p50", "count", "lower"),
                (f"bss.{group}.failures", "count", "lower")]
    out += [
        ("bss.decompose.exact_k.busy_s", "s", "lower"),
        ("bss.decompose.plus4_k.busy_s", "s", "lower"),
        ("bss.decompose.call_ms_p50", "ms", "lower"),
        ("bss.decompose.call_ms_p99", "ms", "lower"),
        ("numkernel.nnls.calls", "count", "lower"),
        ("numkernel.nnls.busy_s", "s", "lower"),
        ("numkernel.svd.calls", "count", "lower"),
        ("numkernel.svd.busy_s", "s", "lower"),
        ("numkernel.joint_diagonalize.calls", "count", "lower"),
        ("numkernel.joint_diagonalize.busy_s", "s", "lower"),
        ("numkernel.joint_diagonalize.sweeps_p50", "count", "lower"),
        ("numkernel.assign_max.calls", "count", "lower"),
        ("numkernel.assign_max.busy_s", "s", "lower"),
        ("scoring.best_assignment.calls", "count", "higher"),
        ("scoring.best_assignment.busy_s", "s", "lower"),
        ("scoring.fit_pair.calls", "count", "lower"),
        ("scoring.dead_predictions", "count", "lower"),
        ("bench.build_dataset.busy_s", "s", "lower"),
        ("bench.run_dataset.busy_s", "s", "lower"),
        ("bench.run_dataset.self_s", "s", "lower"),
        ("bench.records", "count", "higher"),
        ("bench.run_plan.busy_s", "s", "lower"),
        ("bench.aggregate.busy_s", "s", "lower"),
        ("cli.wall_s", "s", "lower"),
        ("cli.cpu_s", "s", "lower"),
        ("cli.cpu_per_wall", "ratio", "lower"),
        ("cli.workers", "count", "higher"),
        ("cli.blas_threads", "count", "lower"),
        ("cli.records_bytes", "bytes", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.records_per_s", "1/s", "higher"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
    return out


def bss_group(technique):
    tech = bss.parse_technique(str(technique))
    if tech.family == "mcr":
        return "mcr_" + tech.variant.split(":")[0]
    return tech.family


def iterations(result):
    """Iteration count a technique leaves in ``ComponentSet.meta``, if any."""
    meta = result.meta
    if "iterations" in meta:
        return meta["iterations"]
    if "sweeps" in meta:
        return meta["sweeps"]
    if "objective_history" in meta:
        return len(meta["objective_history"]) - 1
    if "residual_history" in meta:
        return len(meta["residual_history"])
    return None


def install(tracer):
    """Wrap each layer's public functions where the package imports them."""
    state = {"true_k": None}

    def note_build(args, kwargs, result, exc):
        state["true_k"] = None if result is None else result[2]
        return None

    def note_decompose(args, kwargs, result, exc):
        technique, k = args[1], args[2]
        attrs = {"group": bss_group(technique), "failed": exc is not None,
                 "k_offset": None if state["true_k"] is None
                 else k - state["true_k"]}
        if result is not None:
            attrs["converged"] = bool(result.converged)
            attrs["iterations"] = iterations(result)
        return attrs

    def note_assignment(args, kwargs, result, exc):
        rows = np.asarray(getattr(args[0], "components", args[0]))
        return {"dead": int(np.count_nonzero(np.linalg.norm(rows, axis=1) == 0.0))}

    def note_jd(args, kwargs, result, exc):
        return None if result is None else {"sweeps": result.sweeps}

    def note_generate(args, kwargs, result, exc):
        return None if result is None else {"components": len(result)}

    def note_write(args, kwargs, result, exc):
        return {"bytes": os.path.getsize(args[0])} if exc is None else None

    wrap = tracer.wrap
    wrap(lineshape, "crystallite_frequencies", "lineshape.crystallite_frequencies")
    wrap(lineshape, "generate_library", "lineshape.generate_library", note_generate)
    wrap(lineshape, "library_checksum", "lineshape.library_checksum")
    wrap(fileio, "library_checksum", "lineshape.library_checksum")
    wrap(fileio, "write_library", "fileio.write_library", note_write)
    wrap(fileio, "read_library", "fileio.read_library")
    wrap(bench, "sample_components", "synth.sample_components")
    wrap(bench, "assemble_dataset", "synth.assemble_dataset")
    wrap(bench, "normalize", "synth.normalize")
    wrap(bench, "build_dataset", "bench.build_dataset", note_build)
    wrap(bench, "run_dataset", "bench.run_dataset")
    wrap(bench, "run_plan", "bench.run_plan")
    for table in ("aggregate_table1", "aggregate_table2", "aggregate_table3"):
        wrap(bench, table, "bench.aggregate")
    wrap(bench, "decompose", "bss.decompose", note_decompose)
    wrap(bss, "nnls", "numkernel.nnls")
    wrap(bss, "svd", "numkernel.svd")
    wrap(bss, "joint_diagonalize", "numkernel.joint_diagonalize", note_jd)
    wrap(scoring, "assign_max", "numkernel.assign_max")
    wrap(bench, "best_assignment", "scoring.best_assignment", note_assignment)
    tracer.count(scoring, "fit_pair", "scoring.fit_pair")


def _p50(values):
    return statistics.median(values) if values else 0.0


def per_layer(tracer, run, records_per_s, wrapper_cost):
    """Every metric of ``names()`` from the spans; layers a workload does
    not reach read 0."""
    m = {}
    busy = tracer.busy
    m["lineshape.crystallite_frequencies.busy_s"] = busy("lineshape.crystallite_frequencies")
    m["lineshape.generate_library.self_s"] = tracer.self_busy("lineshape.generate_library")
    m["lineshape.powder_points"] = len(tracer.named("lineshape.crystallite_frequencies"))
    m["lineshape.components"] = sum(
        s[5]["components"] for s in tracer.named("lineshape.generate_library") if s[5])
    m["lineshape.library_checksum.busy_s"] = busy("lineshape.library_checksum")
    m["fileio.write_library.busy_s"] = busy("fileio.write_library")
    m["fileio.read_library.busy_s"] = busy("fileio.read_library")
    m["fileio.library_bytes"] = sum(
        s[5]["bytes"] for s in tracer.named("fileio.write_library") if s[5])
    m["synth.sample_components.busy_s"] = busy("synth.sample_components")
    m["synth.assemble_dataset.busy_s"] = busy("synth.assemble_dataset")
    m["synth.normalize.busy_s"] = busy("synth.normalize")
    m["synth.datasets"] = len(tracer.named("synth.assemble_dataset"))

    calls = tracer.named("bss.decompose")
    for group in BSS_GROUPS:
        spans = [s for s in calls if s[5]["group"] == group]
        done = [s for s in spans if not s[5]["failed"]]
        its = [s[5]["iterations"] for s in done if s[5]["iterations"] is not None]
        m[f"bss.{group}.busy_s"] = sum(s[2] - s[1] for s in spans)
        m[f"bss.{group}.calls"] = len(spans)
        m[f"bss.{group}.converged_ratio"] = (
            sum(s[5]["converged"] for s in done) / len(done) if done else 0.0)
        m[f"bss.{group}.iterations_p50"] = _p50(its)
        m[f"bss.{group}.failures"] = len(spans) - len(done)
    m["bss.decompose.exact_k.busy_s"] = sum(
        s[2] - s[1] for s in calls if s[5]["k_offset"] == 0)
    m["bss.decompose.plus4_k.busy_s"] = sum(
        s[2] - s[1] for s in calls if s[5]["k_offset"] == 4)
    # Nearest-rank percentiles; the detail line states the call count and
    # the highest percentile with ten calls beyond it (p99 needs 1,000).
    call_ms = [(s[2] - s[1]) * 1e3 for s in calls]
    m["bss.decompose.call_ms_p50"] = stats.percentile(call_ms, 50) if call_ms else 0.0
    m["bss.decompose.call_ms_p99"] = stats.percentile(call_ms, 99) if call_ms else 0.0

    for kernel in ("nnls", "svd", "joint_diagonalize", "assign_max"):
        m[f"numkernel.{kernel}.calls"] = len(tracer.named(f"numkernel.{kernel}"))
        m[f"numkernel.{kernel}.busy_s"] = busy(f"numkernel.{kernel}")
    m["numkernel.joint_diagonalize.sweeps_p50"] = _p50(
        [s[5]["sweeps"] for s in tracer.named("numkernel.joint_diagonalize") if s[5]])

    assignments = tracer.named("scoring.best_assignment")
    m["scoring.best_assignment.calls"] = len(assignments)
    m["scoring.best_assignment.busy_s"] = busy("scoring.best_assignment")
    m["scoring.fit_pair.calls"] = tracer.counts.get("scoring.fit_pair", 0)
    m["scoring.dead_predictions"] = sum(s[5]["dead"] for s in assignments)

    m["bench.build_dataset.busy_s"] = busy("bench.build_dataset")
    m["bench.run_dataset.busy_s"] = busy("bench.run_dataset")
    m["bench.run_dataset.self_s"] = tracer.self_busy("bench.run_dataset")
    m["bench.records"] = len(run.records)
    m["bench.run_plan.busy_s"] = busy("bench.run_plan")
    m["bench.aggregate.busy_s"] = busy("bench.aggregate")

    cli = run.cli
    m["cli.wall_s"] = cli.get("wall_s", 0.0)
    m["cli.cpu_s"] = cli.get("cpu_s", 0.0)
    m["cli.cpu_per_wall"] = cli["cpu_s"] / cli["wall_s"] if cli else 0.0
    m["cli.workers"] = cli.get("workers", 0)
    m["cli.blas_threads"] = cli.get("blas_threads", 0)
    m["cli.records_bytes"] = cli.get("records_bytes", 0)

    n_calls = len(tracer.spans) + sum(tracer.counts.values())
    m["trace.spans"] = len(tracer.spans)
    m["trace.records_per_s"] = records_per_s
    m["trace.overhead_share"] = n_calls * wrapper_cost / run.total_wall
    units = {name: unit for name, unit, _ in names()}
    return {name: (value, units[name]) for name, value in m.items()}
