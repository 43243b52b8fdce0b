"""Command-line interface.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
All commands are deterministic given their flags and inputs; ``bssnmr bench``
owns a worker pool sized by ``--workers``.
"""

import json
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import bench as bench_mod
from . import bss, fileio, plots, scoring, synth
from .errors import DataFormatError, NumericalFailure, TechniqueFailure
from .lineshape import DEFAULT_GRID, LibraryGridSpec, generate_library

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


@click.group()
def cli():
    """Blind source separation toolkit for spectra with negative intensity."""


def _load_grid_spec(text: str) -> LibraryGridSpec:
    if text == "default":
        return LibraryGridSpec.from_counts()
    return fileio.from_json(LibraryGridSpec, fileio.read_json(text), text)


@cli.command("generate-pure")
@click.option("--grid-spec", "grid_spec", default="default", show_default=True,
              help="Path to a grid-spec JSON file, or 'default' for the "
                   "full 40x10x10x8 grid (32,000 components).")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--force", is_flag=True, help="Overwrite an existing output file.")
def cmd_generate_pure(grid_spec, out_path, force):
    """Simulate the pure-component library and write it to one file."""
    if os.path.exists(out_path) and not force:
        raise click.UsageError(f"{out_path} exists; pass --force to overwrite")
    spec = _load_grid_spec(grid_spec)
    components = generate_library(spec, DEFAULT_GRID)
    fileio.write_library(out_path, components, DEFAULT_GRID, spec)
    click.echo(f"wrote {len(components)} components to {out_path}")


@cli.command("generate-mixtures")
@click.option("--library", "library_path", required=True, type=click.Path(exists=True))
@click.option("--model", type=click.Choice(synth.MODELS), required=True)
@click.option("--noise", type=click.FloatRange(min=0), default=0.0, show_default=True)
@click.option("--count", type=click.IntRange(min=1), default=20, show_default=True,
              help="Number of datasets to generate.")
@click.option("--components", "n_components", default="random", show_default=True,
              help="Component count per dataset: an integer in [2, 10] or 'random'.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--emit-pures", is_flag=True,
              help="Also write each dataset's true pure components.")
def cmd_generate_mixtures(library_path, model, noise, count, n_components,
                          seed, out_dir, emit_pures):
    """Assemble mixture datasets from randomly sampled pure components."""
    fixed_k = None
    if n_components != "random":
        try:
            fixed_k = int(n_components)
        except ValueError:
            raise click.UsageError("--components must be an integer or 'random'")
        if not synth.MIN_COMPONENTS <= fixed_k <= synth.MAX_COMPONENTS:
            raise click.UsageError(
                f"--components must lie in [{synth.MIN_COMPONENTS}, "
                f"{synth.MAX_COMPONENTS}]")

    library, grid, _ = fileio.read_library(library_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for index in range(count):
        rng = np.random.default_rng([seed, 0, index])
        k = fixed_k if fixed_k is not None else int(
            rng.integers(synth.MIN_COMPONENTS, synth.MAX_COMPONENTS + 1))
        pures = synth.sample_components(library, k, rng)
        dataset = synth.assemble_dataset(pures, model, rng, noise_factor=noise)
        fileio.write_dataset(out / f"dataset_{index:03d}.json", dataset)
        if emit_pures:
            fileio.write_library(out / f"pures_{index:03d}.json", pures, grid)
    click.echo(f"wrote {count} datasets to {out_dir}")


@cli.command("decompose")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--technique", required=True)
@click.option("--k", type=int, required=True)
@click.option("--normalization", type=click.Choice(synth.NORMALIZATION_MODES),
              default="none", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def cmd_decompose(in_path, technique, k, normalization, seed, out_path):
    """Run one technique on one dataset and write the predicted components."""
    try:
        bss.parse_technique(technique)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    dataset = fileio.read_dataset(in_path)
    normalized = synth.normalize(dataset, normalization)
    result = bss.decompose(normalized, technique, k, seed=seed)
    fileio.write_component_set(out_path, result, dataset.grid)
    click.echo(f"{technique}: k={k} converged={result.converged} "
               f"runtime={result.runtime_seconds:.3f}s -> {out_path}")


@cli.command("score")
@click.option("--predicted", "predicted_path", required=True,
              type=click.Path(exists=True))
@click.option("--pure", "pure_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--svg-dir", "svg_dir", type=click.Path(), default=None,
              help="Also write one predicted-over-pure overlay SVG per match.")
def cmd_score(predicted_path, pure_path, out_path, svg_dir):
    """Match predicted components against pure components and quantify errors."""
    result, result_grid = fileio.read_component_set(predicted_path)
    pures, grid, _ = fileio.read_library(pure_path)
    if result_grid is not None and result_grid != grid:
        raise DataFormatError(f"predicted components are on {result_grid}, "
                              f"pure components on {grid}")
    if result.components.shape[1] != grid.n_points:
        raise DataFormatError(
            f"predicted components have {result.components.shape[1]} points, "
            f"pure components have {grid.n_points}")
    report = scoring.best_assignment(result, pures)
    fileio.write_match_report(out_path, report)
    if svg_dir is not None:
        out = Path(svg_dir)
        out.mkdir(parents=True, exist_ok=True)
        norms = np.linalg.norm(result.components, axis=1)
        for pred_idx, pure_idx, fit in report.pairs:
            scale = norms[pred_idx] if norms[pred_idx] > 0 else 1.0
            plots.write_overlay(
                out / f"pair_p{pred_idx:02d}_c{pure_idx:02d}.svg",
                pures[pure_idx].intensity,
                result.components[pred_idx] / scale, fit)
    click.echo(f"matched {len(report.pairs)} pairs, dataset error "
               f"{report.dataset_error:.6g} -> {out_path}")


def _resume_records(records_path, plan) -> list:
    """Records of the datasets completed by an interrupted run of ``plan``.

    A last line without its newline, the torn tail of a killed run, is not
    read.  Each whole line must be a record with the next key of
    ``plan.record_keys()``; any other line is refused, naming it, before
    the file is changed.  The file is then cut after the leading whole
    datasets.  The unfinished dataset is rerun; its fresh records then
    start on a line of their own and repeat no key.
    """
    expected = plan.record_keys()
    records, ends = [], [0]
    with open(records_path, "rb") as handle:
        for number, line in enumerate(handle, 1):
            if not line.endswith(b"\n"):
                break
            where = f"{records_path}: line {number}"
            record = fileio.from_json(bench_mod.Record,
                                      fileio.json_line(line, records_path, number),
                                      where).to_dict()
            key, want = bench_mod.record_key(record), next(expected, None)
            if key != want:
                raise DataFormatError(f"{where}: record {key} is not the plan's "
                                      f"next record {want}")
            records.append(record)
            ends.append(ends[-1] + len(line))
    whole = len(records) - len(records) % plan.records_per_dataset
    with open(records_path, "r+b") as handle:
        handle.truncate(ends[whole])
    return records[:whole]


@cli.command("bench")
@click.option("--plan", "plan_path", required=True,
              help="Path to a plan JSON file, or 'full' for the complete "
                   "default grid.")
@click.option("--library", "library_path", required=True,
              type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True,
              help="Worker process count.")
@click.option("--resume", is_flag=True,
              help="Reuse records already present in the output directory.")
def cmd_bench(plan_path, library_path, out_dir, workers, resume):
    """Run a benchmark plan and emit aggregate CSV tables.

    Results are persisted incrementally (records.jsonl, one record per
    decomposition, each dataset's records as soon as it finishes) so
    interrupted runs can resume.  The error tables (table1/2/3.csv) are
    deterministic for a given plan and library at any worker count;
    runtime_factors.csv holds wall-clock data and is excluded from that
    guarantee.
    """
    plan = (bench_mod.BenchmarkPlan() if plan_path == "full" else fileio.from_json(
        bench_mod.BenchmarkPlan, fileio.read_json(plan_path), plan_path))
    library, _, _ = fileio.read_library(library_path)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records_path = out / "records.jsonl"
    existing = []
    if resume and records_path.exists():
        existing = _resume_records(records_path, plan)
    mode = "a" if existing else "w"
    with open(records_path, mode, encoding="utf-8", newline="\n") as handle:
        def sink(record):
            handle.write(json.dumps(record) + "\n")
            handle.flush()

        tables, records = bench_mod.run_plan(plan, library, workers=workers,
                                             existing_records=existing,
                                             record_sink=sink)

    if not tables["table1.csv"].rows:
        raise ValueError("no successful exact-k records to aggregate")
    for name, table in tables.items():
        with open(out / name, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(table.to_csv())
    click.echo(f"{len(records)} records -> {out_dir}")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except click.exceptions.Abort:
        return EXIT_USAGE
    except ValueError as exc:
        click.echo(f"data error: {exc}", err=True)
        return EXIT_DATA
    except (NumericalFailure, TechniqueFailure) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
