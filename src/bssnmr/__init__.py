"""Blind source separation toolkit for spectral datasets with negative
intensity, with a synthetic quadrupolar-NMR dataset generator and a
benchmark harness."""

from .bench import (AggregateTable, BenchmarkPlan, aggregate_table1,
                    aggregate_table2, aggregate_table3, run_plan)
from .bss import ComponentSet, TechniqueId, decompose, parse_technique
from .lineshape import (DEFAULT_GRID, LibraryGridSpec, PureComponent,
                        QuadrupolarParams, SpectrumGrid, generate_library,
                        simulate_pure)
from .scoring import MatchReport, PairFit, best_assignment, dataset_error, fit_pair
from .synth import (IntensitySeries, MixtureDataset, assemble_dataset,
                    inversion_profile, normalize, nutation_profile,
                    sample_components)

__version__ = "0.1.0"

__all__ = [
    "AggregateTable", "BenchmarkPlan", "ComponentSet",
    "DEFAULT_GRID", "IntensitySeries", "LibraryGridSpec", "MatchReport",
    "MixtureDataset", "PairFit", "PureComponent", "QuadrupolarParams",
    "SpectrumGrid", "TechniqueId", "aggregate_table1", "aggregate_table2",
    "aggregate_table3", "assemble_dataset", "best_assignment", "dataset_error",
    "decompose", "fit_pair", "generate_library", "inversion_profile",
    "normalize", "nutation_profile", "parse_technique", "run_plan",
    "sample_components", "simulate_pure",
]
