import json

import numpy as np
import pytest

from bssnmr import bench, fileio, synth
from bssnmr.cli import main
from bssnmr.errors import DataFormatError, NumericalFailure

TINY_SPEC = {
    "cq_values_hz": [0.0, 2e6],
    "eta_values": [0.0, 0.5],
    "shift_values_hz": [-1500.0, 1500.0],
    "broaden_values": [8.0, 32.0],
}


@pytest.fixture()
def tiny_library(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    lib_path = tmp_path / "lib.json"
    assert main(["generate-pure", "--grid-spec", str(spec_path),
                 "--out", str(lib_path)]) == 0
    return lib_path


# ---------------------------------------------------------------------------
# generate-pure
# ---------------------------------------------------------------------------

def test_generate_pure_round_trip(tiny_library):
    components, grid, manifest = fileio.read_library(tiny_library)
    assert len(components) == 16
    assert manifest["n_components"] == 16
    assert grid.n_points == 1024


def test_generate_pure_checksum_stable(tmp_path, tiny_library):
    spec_path = tmp_path / "spec.json"
    other = tmp_path / "lib2.json"
    assert main(["generate-pure", "--grid-spec", str(spec_path),
                 "--out", str(other)]) == 0
    a = fileio.read_json(tiny_library)["manifest"]["checksum_sha256"]
    b = fileio.read_json(other)["manifest"]["checksum_sha256"]
    assert a == b


def test_generate_pure_refuses_overwrite(tmp_path, tiny_library):
    spec_path = tmp_path / "spec.json"
    assert main(["generate-pure", "--grid-spec", str(spec_path),
                 "--out", str(tiny_library)]) == 2
    assert main(["generate-pure", "--grid-spec", str(spec_path),
                 "--out", str(tiny_library), "--force"]) == 0


def test_generate_pure_malformed_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"cq_values_hz": [0.0]}))
    code = main(["generate-pure", "--grid-spec", str(bad),
                 "--out", str(tmp_path / "x.json")])
    assert code == 3
    assert "eta_values" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# generate-mixtures
# ---------------------------------------------------------------------------

def test_generate_mixtures_happy_path(tmp_path, tiny_library):
    out = tmp_path / "mix"
    assert main(["generate-mixtures", "--library", str(tiny_library),
                 "--model", "inversion", "--components", "4", "--count", "3",
                 "--noise", "0.000316", "--seed", "9", "--out", str(out),
                 "--emit-pures"]) == 0
    for index in range(3):
        ds = fileio.read_dataset(out / f"dataset_{index:03d}.json")
        assert ds.spectra.shape == (20, 1024)
        assert len(ds.components) == 4
        assert ds.noise_factor == 0.000316
        pures, _, _ = fileio.read_library(out / f"pures_{index:03d}.json")
        assert [p.id for p in pures] == [s.component_id for s in ds.components]


def test_generate_mixtures_deterministic(tmp_path, tiny_library):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["generate-mixtures", "--library", str(tiny_library),
                     "--model", "nutation", "--components", "2", "--count", "2",
                     "--seed", "4", "--out", str(out)]) == 0
    for index in range(2):
        name = f"dataset_{index:03d}.json"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_generate_mixtures_rejects_out_of_range_components(tmp_path, tiny_library):
    code = main(["generate-mixtures", "--library", str(tiny_library),
                 "--model", "inversion", "--components", "11",
                 "--out", str(tmp_path / "mix")])
    assert code == 2


# ---------------------------------------------------------------------------
# decompose / score
# ---------------------------------------------------------------------------

@pytest.fixture()
def one_dataset(tmp_path, tiny_library):
    out = tmp_path / "mix"
    assert main(["generate-mixtures", "--library", str(tiny_library),
                 "--model", "inversion", "--components", "3", "--count", "1",
                 "--seed", "12", "--out", str(out), "--emit-pures"]) == 0
    return out / "dataset_000.json", out / "pures_000.json"


def test_decompose_writes_component_set(tmp_path, one_dataset):
    dataset_path, _ = one_dataset
    out = tmp_path / "cs.json"
    assert main(["decompose", "--in", str(dataset_path),
                 "--technique", "simplisma:offset8", "--k", "3",
                 "--out", str(out)]) == 0
    result = fileio.read_component_set(out)
    assert result.components.shape == (3, 1024)
    assert result.coefficients.shape == (20, 3)
    assert result.technique == "simplisma:offset8"


def test_decompose_metadata_audit(tmp_path, one_dataset):
    dataset_path, _ = one_dataset
    out = tmp_path / "cs.json"
    assert main(["decompose", "--in", str(dataset_path),
                 "--technique", "nnmf:nndsvdar", "--normalization", "peak",
                 "--seed", "3", "--k", "3", "--out", str(out)]) == 0
    payload = fileio.read_json(out)
    assert "flipped_rows" in payload["meta"]
    assert "offset" in payload["meta"]
    assert payload["meta"]["init"] == "nndsvdar"


def test_decompose_unknown_technique_lists_valid(tmp_path, one_dataset, capsys):
    dataset_path, _ = one_dataset
    code = main(["decompose", "--in", str(dataset_path), "--technique", "mystery",
                 "--k", "2", "--out", str(tmp_path / "x.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "simplisma:offset8" in err and "nnmf:nndsvd" in err


def test_score_perfect_prediction(tmp_path, one_dataset):
    dataset_path, pures_path = one_dataset
    pures, grid, _ = fileio.read_library(pures_path)
    from bssnmr.bss import ComponentSet
    fake = ComponentSet(
        components=np.stack([p.intensity for p in pures]),
        coefficients=np.zeros((20, 3)), technique="svd")
    cs_path = tmp_path / "perfect.json"
    fileio.write_component_set(cs_path, fake, grid)
    report_path = tmp_path / "report.json"
    svg_dir = tmp_path / "svgs"
    assert main(["score", "--predicted", str(cs_path), "--pure", str(pures_path),
                 "--out", str(report_path), "--svg-dir", str(svg_dir)]) == 0
    report = fileio.read_json(report_path)
    assert report["kind"] == "match_report"
    assert len(report["pairs"]) == 3
    assert report["dataset_error"] < 1e-20
    svgs = sorted(svg_dir.glob("*.svg"))
    assert len(svgs) == 3
    assert svgs[0].read_text().startswith("<svg")


def test_score_discards_excess_predictions(tmp_path, one_dataset):
    dataset_path, pures_path = one_dataset
    assert main(["decompose", "--in", str(dataset_path), "--technique", "svd",
                 "--k", "5", "--out", str(tmp_path / "cs.json")]) == 0
    assert main(["score", "--predicted", str(tmp_path / "cs.json"),
                 "--pure", str(pures_path),
                 "--out", str(tmp_path / "report.json")]) == 0
    report = fileio.read_json(tmp_path / "report.json")
    assert len(report["pairs"]) == 3
    assert len(report["discarded_predicted"]) == 2


def test_score_mismatched_lengths(tmp_path, one_dataset):
    _, pures_path = one_dataset
    from bssnmr.bss import ComponentSet
    fake = ComponentSet(components=np.ones((2, 100)),
                        coefficients=np.zeros((20, 2)), technique="svd")
    cs_path = tmp_path / "short.json"
    fileio.write_component_set(cs_path, fake)
    code = main(["score", "--predicted", str(cs_path), "--pure", str(pures_path),
                 "--out", str(tmp_path / "r.json")])
    assert code == 3


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def bench_plan_file(tmp_path, **overrides):
    plan = {
        "master_seed": 5, "n_datasets_per_cell": 2, "models": ["inversion"],
        "noise_levels": [0.000316], "component_count_modes": ["fixed4"],
        "normalizations": ["none"], "techniques": ["svd", "nnmf:nndsvd"],
        "k_offsets": [0, 1],
        **overrides,
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    return path


def test_bench_emits_tables(tmp_path, tiny_library):
    plan_path = bench_plan_file(tmp_path)
    out = tmp_path / "bench"
    assert main(["bench", "--plan", str(plan_path), "--library",
                 str(tiny_library), "--out", str(out)]) == 0
    for name in ("table1.csv", "table2.csv", "table3.csv",
                 "runtime_factors.csv", "records.jsonl"):
        assert (out / name).exists()
    header = (out / "table1.csv").read_text().splitlines()[0]
    assert header.startswith("technique,normalization,mean_error")


def test_bench_resume_matches_uninterrupted(tmp_path, tiny_library):
    plan_path = bench_plan_file(tmp_path)
    full = tmp_path / "full"
    assert main(["bench", "--plan", str(plan_path), "--library",
                 str(tiny_library), "--out", str(full)]) == 0
    resumed = tmp_path / "resumed"
    resumed.mkdir()
    lines = (full / "records.jsonl").read_text().splitlines()
    # simulate an interrupted run: half the records, last one truncated
    (resumed / "records.jsonl").write_text(
        "\n".join(lines[:4]) + "\n" + lines[4][:25])
    assert main(["bench", "--plan", str(plan_path), "--library",
                 str(tiny_library), "--out", str(resumed), "--resume"]) == 0
    for name in ("table1.csv", "table2.csv", "table3.csv"):
        assert (full / name).read_bytes() == (resumed / name).read_bytes()


def test_bench_resume_after_truncated_tail(tmp_path, tiny_library):
    plan_path = bench_plan_file(tmp_path)
    full = tmp_path / "full"
    assert main(["bench", "--plan", str(plan_path), "--library",
                 str(tiny_library), "--out", str(full)]) == 0
    lines = (full / "records.jsonl").read_text().splitlines()
    # 5 whole lines end inside the second dataset (4 records per dataset)
    for whole in (4, 5):
        resumed = tmp_path / f"resumed{whole}"
        resumed.mkdir()
        (resumed / "records.jsonl").write_text(
            "\n".join(lines[:whole]) + "\n" + lines[whole][:25])
        assert main(["bench", "--plan", str(plan_path), "--library",
                     str(tiny_library), "--out", str(resumed), "--resume"]) == 0
        written = [json.loads(line) for line in
                   (resumed / "records.jsonl").read_text().splitlines()]
        keys = [bench.record_key(record) for record in written]
        assert len(keys) == len(set(keys)) == len(lines)
        for name in ("table1.csv", "table2.csv", "table3.csv"):
            assert (full / name).read_bytes() == (resumed / name).read_bytes()


def test_bench_without_exact_k_results_is_a_data_error(tmp_path, tiny_library,
                                                       monkeypatch, capsys):
    def fails(dataset, technique, k, seed=0):
        raise NumericalFailure("nnls iteration cap of 12 exceeded")

    monkeypatch.setattr(bench, "decompose", fails)
    out = tmp_path / "bench"
    assert main(["bench", "--plan", str(bench_plan_file(tmp_path)), "--library",
                 str(tiny_library), "--out", str(out), "--workers", "1"]) == 3
    assert "no successful exact-k records" in capsys.readouterr().err
    records = [json.loads(line) for line in
               (out / "records.jsonl").read_text().splitlines()]
    assert records and all(r["failed"] for r in records)
    assert not (out / "table1.csv").exists()


@pytest.mark.parametrize("axis, values", [
    ("models", ["inversion", "relaxation"]),
    ("normalizations", ["none", "max"]),
    ("techniques", ["svd", "nnmf:bogus"]),
    ("noise_levels", [-1.0]),
    ("noise_levels", [float("inf")]),
    ("k_offsets", [0, 1.5]),
    ("noise_levels", [0.000316, 0.000316]),
    ("techniques", ["svd", "nnmf:nndsvd", "svd"]),
    ("k_offsets", [0, 1, 0]),
    ("n_datasets_per_cell", 1.5),
])
def test_bench_refuses_plan_before_any_record(tmp_path, tiny_library, axis,
                                              values):
    with pytest.raises(ValueError):
        bench.BenchmarkPlan(**{axis: tuple(values) if isinstance(values, list)
                               else values})
    out = tmp_path / "bench"
    assert main(["bench", "--plan", str(bench_plan_file(tmp_path, **{axis: values})),
                 "--library", str(tiny_library), "--out", str(out)]) == 3
    assert not (out / "records.jsonl").exists()


def test_bench_rejects_bad_plan(tmp_path, tiny_library):
    bad = tmp_path / "bad_plan.json"
    bad.write_text(json.dumps({"master_seed": 1, "bogus_field": 2}))
    assert main(["bench", "--plan", str(bad), "--library", str(tiny_library),
                 "--out", str(tmp_path / "x")]) == 3


# ---------------------------------------------------------------------------
# file format round trips
# ---------------------------------------------------------------------------

def test_array_codec_bit_exact():
    rng = np.random.default_rng(1)
    values = rng.standard_normal(257)
    decoded = fileio.decode_array(fileio.encode_array(values))
    assert np.array_equal(values, decoded)


def test_dataset_round_trip(tmp_path, small_library):
    pures = synth.sample_components(small_library, 3, 6)
    ds = synth.assemble_dataset(pures, "nutation", 6, noise_factor=0.0001)
    path = tmp_path / "ds.json"
    fileio.write_dataset(path, ds)
    loaded = fileio.read_dataset(path)
    assert np.array_equal(loaded.spectra, ds.spectra)
    assert ([s.component_id for s in loaded.components]
            == [s.component_id for s in ds.components])
    assert loaded.seed == ds.seed
    assert loaded.noise_factor == ds.noise_factor
    for a, b in zip(loaded.components, ds.components):
        assert np.array_equal(a.values, b.values)
        assert a.f == b.f and a.T1 == b.T1


def test_corrupted_library_rejected(tmp_path, tiny_library):
    payload = fileio.read_json(tiny_library)
    payload["components"][0]["intensity"] = fileio.encode_array(np.zeros(1024))
    bad = tmp_path / "corrupt.json"
    fileio.write_json(bad, payload)
    with pytest.raises(Exception, match="checksum"):
        fileio.read_library(bad)


def test_component_set_round_trip(tmp_path, one_dataset):
    dataset_path, _ = one_dataset
    out = tmp_path / "cs.json"
    assert main(["decompose", "--in", str(dataset_path),
                 "--technique", "mcr:nnls:random", "--k", "2", "--seed", "6",
                 "--out", str(out)]) == 0
    loaded = fileio.read_component_set(out)
    reloaded_path = tmp_path / "cs2.json"
    fileio.write_component_set(reloaded_path, loaded)
    a = fileio.read_component_set(reloaded_path)
    assert np.array_equal(a.components, loaded.components)
    assert np.array_equal(a.coefficients, loaded.coefficients)
    assert a.technique == loaded.technique
    assert a.converged == loaded.converged


def test_component_set_with_wrong_k_refused(tmp_path, one_dataset):
    dataset_path, pures_path = one_dataset
    out = tmp_path / "cs.json"
    assert main(["decompose", "--in", str(dataset_path), "--technique", "svd",
                 "--k", "2", "--out", str(out)]) == 0
    payload = fileio.read_json(out)
    assert payload["k_requested"] == 2
    payload["k_requested"] = 3
    fileio.write_json(out, payload)
    with pytest.raises(DataFormatError, match="k_requested"):
        fileio.read_component_set(out)
    assert main(["score", "--predicted", str(out), "--pure", str(pures_path),
                 "--out", str(tmp_path / "r.json")]) == 3


def test_match_report_round_trip(tmp_path):
    from bssnmr.scoring import MatchReport, PairFit
    report = MatchReport(
        pairs=[(0, 1, PairFit(B=0.25, M=-3.5, lack_of_fit=1.25e-7)),
               (2, 0, PairFit(B=-1.0, M=2.0, lack_of_fit=0.5))],
        ensemble_score=8_000_002.0, discarded_predicted=[1],
        unmatched_pure=[2], dataset_error=0.125)
    path = tmp_path / "report.json"
    fileio.write_match_report(path, report)
    loaded = fileio.read_json(path)
    assert (loaded["format_version"], loaded["kind"]) == (1, "match_report")
    assert loaded["pairs"] == [
        {"predicted": 0, "pure": 1, "B": 0.25, "M": -3.5, "lack_of_fit": 1.25e-7},
        {"predicted": 2, "pure": 0, "B": -1.0, "M": 2.0, "lack_of_fit": 0.5}]
    assert loaded["ensemble_score"] == report.ensemble_score
    assert loaded["discarded_predicted"] == [1]
    assert loaded["unmatched_pure"] == [2]
    assert loaded["dataset_error"] == report.dataset_error
