import pytest

from bssnmr import bench, bss, synth
from bssnmr.errors import NumericalFailure


def tiny_plan(**overrides):
    defaults = dict(
        master_seed=3, n_datasets_per_cell=2, models=("inversion",),
        noise_levels=(0.000316,), component_count_modes=("fixed4",),
        normalizations=("none",), techniques=("svd", "nnmf:nndsvd"),
        k_offsets=(0,),
    )
    defaults.update(overrides)
    return bench.BenchmarkPlan(**defaults)


def test_plan_validation():
    with pytest.raises(ValueError):
        bench.BenchmarkPlan(k_offsets=(1, 2))
    with pytest.raises(ValueError):
        bench.BenchmarkPlan(n_datasets_per_cell=0)
    with pytest.raises(ValueError):
        bench.BenchmarkPlan(component_count_modes=("fixed5",))
    assert bench.BenchmarkPlan().techniques  # default roster filled in


def test_datasets_shared_across_techniques(small_library):
    plan = tiny_plan()
    key = next(iter(plan.dataset_keys()))
    first, _, _ = bench.build_dataset(plan, small_library, key)
    second, _, _ = bench.build_dataset(plan, small_library, key)
    assert first.spectra.tobytes() == second.spectra.tobytes()


def test_run_plan_deterministic_rerun(small_library):
    plan = tiny_plan()
    _, records_a = bench.run_plan(plan, small_library)
    _, records_b = bench.run_plan(plan, small_library)
    assert records_a == records_b or all(
        a["error"] == b["error"] and bench.record_key(a) == bench.record_key(b)
        for a, b in zip(records_a, records_b))


def test_run_plan_workers_agree(small_library):
    plan = tiny_plan(n_datasets_per_cell=3)
    _, serial = bench.run_plan(plan, small_library, workers=1)
    _, parallel = bench.run_plan(plan, small_library, workers=4)
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert bench.record_key(a) == bench.record_key(b)
        assert a["error"] == b["error"]


def test_run_dataset_factors_each_form_once_per_normalization(small_library,
                                                              monkeypatch):
    plan = tiny_plan(normalizations=("none", "peak", "area"), techniques=(),
                     k_offsets=(-1, 0, 2))
    key = next(iter(plan.dataset_keys()))
    calls = []
    real = bss.svd
    monkeypatch.setattr(bss, "svd", lambda m: calls.append(m.shape) or real(m))
    records = bench.run_dataset(plan, small_library, key)
    assert len(records) == 3 * 20 * 3
    assert not any(r["failed"] for r in records)
    # five forms (raw, centered, two transposed, nonnegative) x 3 normalizations
    assert 0 < len(calls) <= 15


def test_k_offset_clamped_and_flagged(small_library):
    plan = tiny_plan(master_seed=0, component_count_modes=("random2to10",),
                     k_offsets=(-2, 0), n_datasets_per_cell=6, techniques=("svd",))
    _, records = bench.run_plan(plan, small_library)
    low_true = [r for r in records if r["k_offset"] == -2 and r["true_k"] == 2]
    assert low_true, "seeded plan should include a true_k = 2 dataset"
    for record in low_true:
        assert record["k_used"] == 1
        assert record["clamped"]
    for record in records:
        if record["k_offset"] == 0:
            assert not record["clamped"]


def test_resume_skips_complete_datasets(small_library):
    plan = tiny_plan(n_datasets_per_cell=3)
    _, full = bench.run_plan(plan, small_library)
    per_dataset = len(plan.normalizations) * len(plan.techniques) * len(plan.k_offsets)
    partial = full[:per_dataset]  # first dataset complete, rest missing
    _, resumed = bench.run_plan(plan, small_library, existing_records=partial)
    assert [bench.record_key(r) for r in resumed] == [bench.record_key(r) for r in full]
    assert [r["error"] for r in resumed] == [r["error"] for r in full]


def test_sink_stops_plan_after_first_dataset(small_library, monkeypatch):
    """A sink that fails on the 2nd dataset has every record of the 1st,
    and the plan stops there."""
    plan = tiny_plan(n_datasets_per_cell=3)
    first = next(iter(plan.dataset_keys()))
    real = bench.run_dataset
    ran = []

    def counted(plan, library, dataset_key):
        ran.append(dataset_key)
        return real(plan, library, dataset_key)

    monkeypatch.setattr(bench, "run_dataset", counted)
    received = []

    def sink(record):
        if record["dataset"] != first[6]:
            raise KeyboardInterrupt
        received.append(record)

    with pytest.raises(KeyboardInterrupt):
        bench.run_plan(plan, small_library, record_sink=sink)
    assert len(ran) == 2
    expected = real(plan, small_library, first)
    assert [bench.record_key(r) for r in received] == [
        bench.record_key(r) for r in expected]


@pytest.mark.parametrize("workers", [1, 2])
def test_sink_has_finished_datasets_when_plan_dies(small_library, monkeypatch,
                                                   workers):
    plan = tiny_plan(n_datasets_per_cell=3)
    keys = list(plan.dataset_keys())
    real = bench.run_dataset

    def dies_on_last(plan, library, dataset_key):
        if dataset_key == keys[-1]:
            raise RuntimeError("killed")
        return real(plan, library, dataset_key)

    monkeypatch.setattr(bench, "run_dataset", dies_on_last)
    received = []
    with pytest.raises(RuntimeError, match="killed"):
        bench.run_plan(plan, small_library, workers=workers,
                       record_sink=received.append)
    expected = [r for key in keys[:-1] for r in real(plan, small_library, key)]
    assert [bench.record_key(r) for r in received] == [
        bench.record_key(r) for r in expected]


def synthetic_records():
    base = dict(model="inversion", noise=0.0, mode="fixed4", normalization="none",
                true_k=4, k_used=4, clamped=False, converged=True, runtime=0.3)
    records = []
    for i, err in enumerate([1.0, 2.0, 3.0]):
        records.append(dict(base, dataset=i, technique="svd", k_offset=0,
                            failed=False, error=err))
    records.append(dict(base, dataset=3, technique="svd", k_offset=0,
                        failed=True, error=None, converged=False))
    return records


def test_aggregate_table1_mean_min_max():
    table = bench.aggregate_table1(synthetic_records())
    assert table.columns[:2] == ["technique", "normalization"]
    row = table.rows[0]
    assert row[0] == "svd" and row[1] == "none"
    assert row[2] == 2.0 and row[3] == 1.0 and row[4] == 3.0
    assert row[5] == 3  # the failed record is excluded


def test_aggregate_single_dataset_degenerate():
    records = synthetic_records()[:1]
    table = bench.aggregate_table1(records)
    _, _, mean, low, high, n = table.rows[0]
    assert mean == low == high == 1.0 and n == 1


def test_cell_isolation():
    records = synthetic_records()
    extra = dict(records[0], technique="pca")
    with_extra = bench.aggregate_table1(records + [extra])
    without = bench.aggregate_table1(records)
    svd_rows_a = [r for r in with_extra.rows if r[0] == "svd"]
    svd_rows_b = [r for r in without.rows if r[0] == "svd"]
    assert svd_rows_a == svd_rows_b


def test_numerical_failure_is_one_failed_record(small_library, monkeypatch):
    real = bench.decompose

    def flaky(dataset, technique, k, seed=0):
        if technique == "pca" and k == 4:
            raise NumericalFailure("nnls iteration cap of 12 exceeded")
        return real(dataset, technique, k, seed=seed)

    monkeypatch.setattr(bench, "decompose", flaky)
    plan = tiny_plan(techniques=("svd", "pca"), k_offsets=(0, 1))
    key = next(iter(plan.dataset_keys()))
    records = bench.run_dataset(plan, small_library, key)
    assert len(records) == 4
    failed = [r for r in records if r["failed"]]
    assert len(failed) == 1
    assert (failed[0]["technique"], failed[0]["k_used"]) == ("pca", 4)
    assert "iteration cap" in failed[0]["failure"]


def test_run_plan_keeps_records_when_every_exact_k_fails(small_library,
                                                        monkeypatch):
    real = bench.decompose

    def fails_at_true_k(dataset, technique, k, seed=0):
        if k == len(dataset.components):
            raise NumericalFailure("nnls iteration cap of 12 exceeded")
        return real(dataset, technique, k, seed=seed)

    monkeypatch.setattr(bench, "decompose", fails_at_true_k)
    plan = tiny_plan(n_datasets_per_cell=1, k_offsets=(0, 1))
    tables, records = bench.run_plan(plan, small_library)
    assert tables["table1.csv"].rows == []
    assert len(records) == 4
    assert [r["failed"] for r in records] == [r["k_offset"] == 0 for r in records]


def test_runtime_factor_modal_decade():
    assert bench.runtime_factor([0.3, 0.31, 0.29, 4.0]) == -1
    assert bench.runtime_factor([0.002, 0.0021, 1.5]) == -3
    assert bench.runtime_factor([12.0]) == 1


def test_aggregate_table2_exact_column_is_one():
    base = dict(model="inversion", noise=0.0, mode="fixed4", normalization="none",
                true_k=4, clamped=False, converged=True, runtime=0.1, failed=False)
    records = []
    for i in range(4):
        records.append(dict(base, dataset=i, technique="fastica", k_offset=0,
                            k_used=4, error=1.0))
        records.append(dict(base, dataset=i, technique="fastica", k_offset=2,
                            k_used=6, error=3.0))
    table = bench.aggregate_table2(records)
    assert table.columns == ["family", "exact", "plus_2"]
    assert table.rows[0] == ("fastica", 1.0, 3.0)


def test_aggregate_table3_shape(small_library):
    plan = tiny_plan(noise_levels=synth.NOISE_LEVELS, techniques=("svd",),
                     n_datasets_per_cell=1)
    _, records = bench.run_plan(plan, small_library)
    table = bench.aggregate_table3(records)
    assert len(table.columns) == 1 + 6
    assert table.rows[0][0] == "svd"
    assert all(isinstance(v, float) for v in table.rows[0][1:])


def test_csv_output_stable():
    table = bench.AggregateTable(columns=["a", "b"], rows=[("x", 0.1), ("y", 2.0)])
    assert table.to_csv() == "a,b\nx,0.1\ny,2.0\n"


def test_single_cell_plan_shape(small_library):
    plan = tiny_plan()
    tables, records = bench.run_plan(plan, small_library)
    assert len(records) == 2 * plan.records_per_dataset == 4
    assert list(tables) == ["table1.csv", "table2.csv", "table3.csv",
                            "runtime_factors.csv"]
    table1 = tables["table1.csv"]
    assert [row[0] for row in table1.rows] == ["nnmf:nndsvd", "svd"]
    assert all(row[-1] == 2 for row in table1.rows)  # one entry per dataset
    assert table1.to_csv() == bench.aggregate_table1(records).to_csv()
