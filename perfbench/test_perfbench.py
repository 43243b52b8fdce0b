"""Tests of the benchmark's own helpers (run with pytest from the repo root)."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from bssnmr.bench import BenchmarkPlan  # noqa: E402

DEFAULT_KEYS = list(BenchmarkPlan().dataset_keys())
MODELS = BenchmarkPlan().models
MODES = BenchmarkPlan().component_count_modes


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))          # 1..100, unsorted
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.5], 99) == 7.5
    assert stats.percentile([1, 2, 3], 50) == 2
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9), (1_000, 99.0), (999, 90.0), (100, 90.0),
    (99, 50.0), (20, 50.0), (19, None), (0, None)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_self_time_subtracts_union_of_children():
    assert stats.self_time(0.0, 10.0, []) == 10.0
    # overlapping children [1, 4] and one sticking out past the end [8, 10]
    children = [(8.0, 12.0), (2.0, 4.0), (1.0, 3.0)]
    assert stats.self_time(0.0, 10.0, children) == pytest.approx(5.0)
    # a child inside another child counts once
    assert stats.self_time(0.0, 10.0, [(1.0, 9.0), (2.0, 3.0)]) == pytest.approx(2.0)


def test_core_hours_weight_modes_by_dataset_count():
    counts = stats.mode_counts(DEFAULT_KEYS)
    assert counts == {"fixed4": 240, "fixed6": 240, "random2to10": 240}
    cpu = {"fixed4": [10.0, 20.0], "fixed6": [30.0], "random2to10": [60.0]}
    assert stats.full_plan_core_hours(cpu, counts) == pytest.approx(
        (15.0 + 30.0 + 60.0) * 240 / 3600)
    # unequal shares: the mean of each mode is scaled by its own count
    assert stats.full_plan_core_hours(
        {"a": [36.0], "b": [72.0]}, {"a": 100, "b": 300}) == pytest.approx(7.0)
    with pytest.raises(ValueError):
        stats.full_plan_core_hours({"fixed4": [1.0]}, counts)


@pytest.mark.parametrize("seed", range(8))
def test_pass_strata_cover_every_model_and_mode_in_four_seeds(seed):
    covered = set()
    for s in range(seed, seed + 4):
        sample = stats.stratified_sample(
            DEFAULT_KEYS, stats.pass_strata(MODELS, s), s)
        assert sample[0][5] == "fixed4"
        assert sample[1][5] in ("fixed6", "random2to10")
        assert all(key in DEFAULT_KEYS for key in sample)
        covered |= {(key[1], key[5]) for key in sample}
    assert covered == {(model, mode) for model in MODELS for mode in MODES}


def test_full_sample_covers_every_stratum_and_is_seeded():
    strata = stats.all_strata(MODELS, MODES)
    sample = stats.stratified_sample(DEFAULT_KEYS, strata, 5)
    assert {(key[1], key[5]) for key in sample} == set(strata)
    assert sample == stats.stratified_sample(DEFAULT_KEYS, strata, 5)
    assert sample != stats.stratified_sample(DEFAULT_KEYS, strata, 6)


def test_sampler_keeps_noise_level_and_takes_lowest_rank():
    strata = stats.all_strata(MODELS, MODES)
    sample = stats.stratified_sample(DEFAULT_KEYS, strata, 3, noise=0.000178,
                                     rank=lambda key: abs(key[6] - 7))
    assert {key[3] for key in sample} == {0.000178}
    assert all(key[6] == 7 for key in sample)
    with pytest.raises(ValueError):
        stats.stratified_sample(DEFAULT_KEYS, strata, 3, noise=0.5)


def test_benchmark_json_names_every_per_layer_metric():
    import layers

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == layers.names()
