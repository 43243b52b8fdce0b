import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bssnmr
from bssnmr import bench, bss, fileio, synth
from bssnmr import lineshape as ls
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
    a = fileio.read_library(tiny_library)[2]["checksum_sha256"]
    b = fileio.read_library(other)[2]["checksum_sha256"]
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


@pytest.mark.parametrize("command, option, value", [
    ("bench", "--workers", "0"),
    ("generate-mixtures", "--count", "0"),
    ("generate-mixtures", "--noise", "-1"),
])
def test_option_out_of_range_is_a_usage_error(tmp_path, tiny_library, capsys,
                                              command, option, value):
    if command == "bench":
        args = ["--plan", str(bench_plan_file(tmp_path))]
    else:
        args = ["--model", "inversion"]
    out = tmp_path / "out"
    assert main([command, "--library", str(tiny_library), *args, option, value,
                 "--out", str(out)]) == 2
    assert option in capsys.readouterr().err
    assert not out.exists()


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
    result, grid = fileio.read_component_set(out)
    assert grid == ls.DEFAULT_GRID
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
    assert payload["technique"] == "nnmf:nndsvdar"


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


def test_score_refuses_a_set_on_another_grid(tmp_path, one_dataset):
    dataset_path, pures_path = one_dataset
    pures, grid, _ = fileio.read_library(pures_path)
    fake = bss.ComponentSet(components=np.stack([p.intensity for p in pures]),
                            coefficients=np.zeros((20, 3)), technique="svd")
    other = ls.SpectrumGrid(n_points=1024, sweep_width_hz=99.0, larmor_hz=1e6)
    cs_path = tmp_path / "other.json"
    fileio.write_component_set(cs_path, fake, other)
    assert fileio.read_component_set(cs_path)[1] == other
    code = main(["score", "--predicted", str(cs_path), "--pure", str(pures_path),
                 "--out", str(tmp_path / "r.json")])
    assert code == 3
    # A stored grid whose n_points is not the rows' length is refused on read.
    payload = fileio.read_json(cs_path)
    payload["grid"]["n_points"] = 2048
    fileio.write_json(cs_path, payload)
    with pytest.raises(DataFormatError, match=r"components: .* length 2048; found lengths \[1024\]"):
        fileio.read_component_set(cs_path)
    assert main(["score", "--predicted", str(cs_path), "--pure", str(pures_path),
                 "--out", str(tmp_path / "r.json")]) == 3
    # Written without a grid, the same rows pass the point-count check.
    fileio.write_component_set(cs_path, fake)
    assert main(["score", "--predicted", str(cs_path), "--pure", str(pures_path),
                 "--out", str(tmp_path / "r.json")]) == 0


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
    names = [field.name for field in dataclasses.fields(bench.Record)]
    for line in (out / "records.jsonl").read_text().splitlines():
        assert list(json.loads(line)) == names


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


def _drop_converged_and_quote_error(lines):
    record = json.loads(lines[0])
    del record["converged"]
    record["error"] = str(record["error"])
    return [json.dumps(record)] + lines[1:]


@pytest.mark.parametrize("edit, plan, line", [
    (_drop_converged_and_quote_error, {}, 1),
    (None, {"techniques": ["svd"]}, 3),                 # drops a technique
    (None, {"techniques": ["nnmf:nndsvd", "svd"]}, 1),  # reorders them
    (None, {"k_offsets": [1, 0]}, 1),
    (lambda lines: lines[:2] + lines[3:4], {}, 3),      # loses a record
    (lambda lines: lines[:3] + ["{"], {}, 4),          # a whole line, not JSON
])
def test_bench_resume_refuses_a_record_off_the_plan(tmp_path, tiny_library, capsys,
                                                   edit, plan, line):
    out = tmp_path / "bench"
    assert main(["bench", "--plan", str(bench_plan_file(tmp_path)), "--library",
                 str(tiny_library), "--out", str(out)]) == 0
    records = out / "records.jsonl"
    if edit is not None:
        lines = records.read_text().splitlines()
        records.write_text("\n".join(edit(lines)) + "\n")
    before = records.read_bytes()
    capsys.readouterr()
    assert main(["bench", "--plan", str(bench_plan_file(tmp_path, **plan)),
                 "--library", str(tiny_library), "--out", str(out), "--resume"]) == 3
    assert f"records.jsonl: line {line}" in capsys.readouterr().err
    assert records.read_bytes() == before


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
    ("master_seed", "7"),
    ("master_seed", 7.9),
    ("master_seed", -1),
    ("k_offsets", [0, True]),
    ("noise_levels", [True]),
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


# scipy is a test dependency only: the package must import and run without it
BLOCK_SCIPY = 'import sys; sys.modules["scipy"] = None\n'


def run_python(code, *args):
    """``python -c code args`` in a fresh interpreter that finds this
    checkout's package."""
    env = {**os.environ, "PYTHONPATH": str(Path(bssnmr.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)


def test_cli_imports_without_scipy():
    done = run_python(BLOCK_SCIPY + "import scipy")
    assert done.returncode != 0 and "None in sys.modules" in done.stderr
    done = run_python(BLOCK_SCIPY + "import bssnmr, bssnmr.cli")
    assert done.returncode == 0, done.stderr


def test_import_loads_no_scipy_module():
    done = run_python("import sys, bssnmr.cli\n"
                      "print(sorted(m for m in sys.modules"
                      " if m == 'scipy' or m.startswith('scipy.')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    # a fresh interpreter's `import bssnmr` is what perfbench's setup_s times
    done = run_python("import sys, bssnmr\n"
                      "print(sorted(m for m in ('bssnmr.fileio', 'click') if m in sys.modules))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_bench_without_scipy_writes_the_same_tables(tmp_path, tiny_library):
    plan_path = bench_plan_file(tmp_path)
    blocked, with_scipy = tmp_path / "blocked", tmp_path / "with_scipy"
    done = run_python(BLOCK_SCIPY + "from bssnmr.cli import main; sys.exit(main(sys.argv[1:]))",
                      "bench", "--plan", plan_path, "--library", tiny_library,
                      "--out", blocked, "--workers", "2")
    assert done.returncode == 0, done.stderr
    assert main(["bench", "--plan", str(plan_path), "--library", str(tiny_library),
                 "--out", str(with_scipy), "--workers", "1"]) == 0
    for table in ("table1.csv", "table2.csv", "table3.csv"):
        assert (blocked / table).read_bytes() == (with_scipy / table).read_bytes()


def test_committed_fixed_plan_and_grid():
    plans = Path(__file__).resolve().parents[1] / "plans"
    plan = fileio.from_json(bench.BenchmarkPlan,
                            fileio.read_json(plans / "fixed.json"), "fixed.json")
    spec = fileio.from_json(ls.LibraryGridSpec,
                            fileio.read_json(plans / "fixed_grid.json"),
                            "fixed_grid.json")
    assert len(list(plan.dataset_keys())) == 12
    assert plan.records_per_dataset == 120
    assert (len(spec.cq_values_hz) * len(spec.eta_values)
            * len(spec.shift_values_hz) * len(spec.broaden_values)) == 108


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
    assert loaded.noise_factor == ds.noise_factor
    for a, b in zip(loaded.components, ds.components):
        assert np.array_equal(a.values, b.values)
        assert a.f == b.f and a.T1 == b.T1


@pytest.mark.parametrize("text", [
    "AAAAAAAAAAé=",            # non-ASCII
    "AAAA AAAAAAA=",                # whitespace
    "AAAAAAAAAAA=\n",
    "AAAAAAAAAA-_",                 # outside the alphabet
    "AAAAAAAAAA#A",
    "=AAAAAAAAAAA",                 # misplaced padding
    "AAAAAA=AAAAA",
    "AAAAAAAAAAA==",                # excess padding
    "AAAAAAAAAAA=AAAA",
    "AAAAAAAAAAA",                  # missing padding
    "AAAAAAAAAA==",                 # 7 bytes
    "AAAAAAAAAAAA",                 # 9 bytes
])
def test_decode_array_refuses_bad_payload(text):
    with pytest.raises(DataFormatError,
                       match="^(invalid base64 payload|payload length not a multiple of 8)$"):
        fileio.decode_array(text)


SMALL_GRID = ls.SpectrumGrid(64, 10_000.0, 1e8)


@pytest.fixture(scope="module")
def escaped_pures():
    """16 components on a 64-point grid, with ids that JSON escapes: a
    quote, a backslash, a non-ASCII letter and a surrogate pair."""
    spec = ls.LibraryGridSpec.from_counts(n_cq=2, n_eta=2, n_shift=2,
                                          broaden_exponents=(3, 4))
    marks = ('"', "\\", "é", "\U0001d11e")
    return [dataclasses.replace(c, id=c.id + marks[i % 4])
            for i, c in enumerate(ls.generate_library(spec, SMALL_GRID))]


def _rewrite_library(path, edit):
    """Rewrite the library file at ``path`` after ``edit(header, entries)``
    has changed its header dict or its list of component entries; an entry
    that is bytes is written as it is, as a line's raw text."""
    header, *entries = map(json.loads, path.read_bytes().splitlines())
    edit(header, entries)
    path.write_bytes(b"".join(
        item if isinstance(item, bytes) else json.dumps(item).encode() + b"\n"
        for item in [header, *entries]))


@pytest.mark.parametrize("n_components", [0, 1, 5])
def test_streamed_library_is_one_json_dumps(tmp_path, escaped_pures, n_components):
    # one json.dumps for the header line, then one for each component's line
    pures = escaped_pures[:n_components]
    spec = ls.LibraryGridSpec.from_counts(n_cq=1, n_eta=1, n_shift=1)
    path = tmp_path / "lib.json"
    fileio.write_library(path, pures, SMALL_GRID, spec)
    header = {
        "format_version": 2, "kind": "pure_library",
        "manifest": {"n_components": n_components,
                     "checksum_sha256": ls.library_checksum(pures),
                     "grid": fileio.to_json(SMALL_GRID),
                     "grid_spec": fileio.to_json(spec)},
    }
    entries = [{"id": c.id, "params": fileio.to_json(c.params),
                "intensity": fileio.encode_array(c.intensity)} for c in pures]
    assert path.read_text(encoding="utf-8") == "".join(
        json.dumps(item) + "\n" for item in [header, *entries])
    components, grid, manifest = fileio.read_library(path)
    assert (grid, manifest) == (SMALL_GRID, header["manifest"])
    assert [c.id for c in components] == [c.id for c in pures]
    assert [c.params for c in components] == [c.params for c in pures]
    assert all(np.array_equal(a.intensity, b.intensity) and a.grid is grid
               and not a.intensity.flags.writeable
               for a, b in zip(components, pures))


@pytest.mark.parametrize("edit, match", [
    (lambda lines: lines[0][:40], "line 1 is not valid JSON"),
    (lambda lines: b"".join(lines[:2]) + lines[2][:-30], "line 3 is not valid JSON"),
    (lambda lines: b"".join(lines[:2]) + lines[2][:-2], "line 3 is not valid JSON"),
    (lambda lines: b"".join(lines[:2]), "n_components is 2, but the file holds 1 "),
    (lambda lines: b"".join(lines[:2]) + b"\n" + lines[2], "line 3 is not valid JSON"),
    (lambda lines: b"".join(lines) + b"\n", "line 4 is trailing data"),
    (lambda lines: b"".join(lines) + lines[1], "line 4 is trailing data"),
    (lambda lines: b"[" + lines[0][:-1] + b"]\n" + b"".join(lines[1:]),
     "line 1: LibraryHeader must be a JSON object"),
], ids=["header cut", "entry cut", "entry cut before its brace", "cut at a line end",
        "blank line", "blank last line", "extra line", "header a list"])
def test_library_read_refuses_a_cut_or_extended_file(tmp_path, escaped_pures, capsys,
                                                     edit, match):
    path = tmp_path / "lib.json"
    fileio.write_library(path, escaped_pures[:2], SMALL_GRID)
    path.write_bytes(edit(path.read_bytes().splitlines(keepends=True)))
    with pytest.raises(DataFormatError, match=match):
        fileio.read_library(path)
    assert main(["generate-mixtures", "--library", str(path), "--model", "inversion",
                 "--count", "1", "--out", str(tmp_path / "mix")]) == 3
    assert match in capsys.readouterr().err


@pytest.mark.parametrize("cut", [3, 1 << 20])
def test_streamed_read_refuses_a_cut_file(tmp_path, escaped_pures, cut):
    """A library that lost its last ``cut`` bytes is refused: 3 bytes cut the
    last component's line, and 1 MiB, more than the file holds, leaves it
    empty."""
    path = tmp_path / "lib.json"
    fileio.write_library(path, escaped_pures, SMALL_GRID)
    data = path.read_bytes()
    assert 3 < len(data) < 1 << 20
    path.write_bytes(data[:-cut])
    with pytest.raises(DataFormatError, match="not valid JSON"):
        fileio.read_library(path)


@pytest.mark.parametrize("edit, match", [
    (lambda header, entries: entries.append({}), "trailing data"),
    (lambda header, entries: entries.append(b"]\n"), "trailing data"),
    (lambda header, entries: entries.insert(1, b"{\n"), "not valid JSON"),
    pytest.param(lambda header, entries: entries.insert(1, 5),
                 "line 3: LibraryLine must be a JSON object", id="entry a number"),
    pytest.param(lambda header, entries: entries.insert(1, ["x"]),
                 "line 3: LibraryLine must be a JSON object", id="entry a list"),
    pytest.param(lambda header, entries: entries[1].update(params=[]),
                 r"line 3: LibraryLine\.params: QuadrupolarParams must be a JSON object",
                 id="params a list"),
    pytest.param(lambda header, entries: entries[0].pop("intensity"),
                 "line 2: LibraryLine is missing field 'intensity'", id="intensity missing"),
    pytest.param(lambda header, entries: header.update(manifest=[]),
                 r"line 1: LibraryHeader\.manifest: Manifest must be a JSON object",
                 id="manifest a list"),
    (lambda header, entries: header["manifest"]["grid"].update(n_points=32),
     "intensity length 64 != n_points 32"),
    pytest.param(lambda header, entries: header["manifest"].update(seed=1),
                 r"line 1: .*Manifest has unknown fields \['seed'\]", id="manifest unknown key"),
    pytest.param(lambda header, entries: entries[1].update(grid={}),
                 r"line 3: LibraryLine has unknown fields \['grid'\]", id="entry unknown key"),
])
def test_streamed_read_refuses_malformed_library(tmp_path, escaped_pures, edit,
                                                 match):
    path = tmp_path / "lib.json"
    fileio.write_library(path, escaped_pures[:2], SMALL_GRID)
    _rewrite_library(path, edit)
    with pytest.raises(DataFormatError, match=match):
        fileio.read_library(path)


@pytest.mark.parametrize("header, match", [
    ({"kind": "component_set"},
     "expected kind 'pure_library', found 'component_set'"),
    ({"format_version": 1}, "unsupported format_version 1"),
])
def test_library_header_checked_before_any_entry(tmp_path, monkeypatch,
                                                 escaped_pures, header, match):
    path = tmp_path / "lib.json"
    fileio.write_library(path, escaped_pures[:2], SMALL_GRID)
    _rewrite_library(path, lambda head, entries: head.update(header))

    def never(*args):
        raise AssertionError("an entry was decoded")
    monkeypatch.setattr(fileio, "decode_array", never)
    with pytest.raises(DataFormatError, match=match):
        fileio.read_library(path)


def test_single_document_library_names_its_format_version(tmp_path, escaped_pures,
                                                          capsys):
    # the layout of format version 1: one JSON document holding the components
    pures = escaped_pures[:2]
    path = tmp_path / "lib.json"
    fileio.write_json(path, {
        "format_version": 1, "kind": "pure_library",
        "manifest": {"n_components": 2, "checksum_sha256": ls.library_checksum(pures),
                     "grid": fileio.to_json(SMALL_GRID), "grid_spec": None},
        "components": [{"id": c.id, "params": fileio.to_json(c.params),
                        "intensity": fileio.encode_array(c.intensity)} for c in pures],
    })
    assert main(["generate-mixtures", "--library", str(path), "--model", "inversion",
                 "--count", "1", "--out", str(tmp_path / "mix")]) == 3
    assert "unsupported format_version 1 (expected 2)" in capsys.readouterr().err


def test_component_set_given_as_library_names_its_kind(tmp_path, capsys):
    from bssnmr.bss import ComponentSet
    path = tmp_path / "set.json"
    fileio.write_component_set(path, ComponentSet(
        components=np.ones((2, 8)), coefficients=np.ones((3, 2)), technique="svd"))
    assert main(["generate-mixtures", "--library", str(path), "--model", "inversion",
                 "--count", "1", "--out", str(tmp_path / "mix")]) == 3
    assert "expected kind 'pure_library', found 'component_set'" in capsys.readouterr().err


def test_library_read_needs_little_beyond_its_arrays(tmp_path, small_library, grid):
    import tracemalloc
    pures = [dataclasses.replace(small_library[i % 72], id=f"c{i}")
             for i in range(1_500)]
    path = tmp_path / "lib.json"
    fileio.write_library(path, pures, grid)
    assert path.stat().st_size > 16e6
    tracemalloc.start()
    try:
        components, _, _ = fileio.read_library(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(components) == 1_500
    assert held > 12e6                   # the decoded arrays, 8 KiB each
    assert peak - held < 6e6, (held, peak)


@pytest.mark.parametrize("spec, accepted", [
    (None, True),
    (dict(TINY_SPEC, bogus=1), False),
    (dict(TINY_SPEC, cq_values_hz="40"), False),
])
def test_library_grid_spec_is_checked(tmp_path, tiny_library, spec, accepted):
    _rewrite_library(tiny_library,
                     lambda header, entries: header["manifest"].update(grid_spec=spec))
    if accepted:
        assert fileio.read_library(tiny_library)[2]["grid_spec"] is None
        return
    with pytest.raises(DataFormatError, match=r"Manifest\.grid_spec: LibraryGridSpec"):
        fileio.read_library(tiny_library)
    assert main(["generate-mixtures", "--library", str(tiny_library),
                 "--model", "inversion", "--count", "1",
                 "--out", str(tmp_path / "mix")]) == 3


STORED = {
    ls.SpectrumGrid: {"n_points": 1024, "sweep_width_hz": 10_000.0,
                      "larmor_hz": 1e8, "center_hz": 0.0},
    ls.QuadrupolarParams: {"cq_hz": 2e6, "eta": 0.5, "delta_iso_hz": -100.0,
                           "spin": 1.5, "spin_rate_hz": 1e4,
                           "gaussian_broaden": 8.0},
    ls.LibraryGridSpec: dict(TINY_SPEC, spin=1.5, spin_rate_hz=1e4),
    synth.IntensitySeries: {"component_id": "c0", "model": "nutation", "A": 0.5,
                            "values": fileio.encode_array(np.ones(20)),
                            "T1": None, "f": 0.6},
    bench.BenchmarkPlan: {"master_seed": 5, "n_datasets_per_cell": 2,
                          "models": ["inversion"], "noise_levels": [0.0],
                          "component_count_modes": ["fixed4"],
                          "normalizations": ["none"], "techniques": ["svd"],
                          "k_offsets": [0, 1]},
    bench.Record: {"model": "inversion", "noise": 0.0, "mode": "fixed4", "dataset": 0,
                   "normalization": "none", "technique": "svd", "k_offset": 0,
                   "true_k": 4, "k_used": 4, "clamped": False, "failed": False,
                   "error": 0.5, "converged": True, "runtime": 0.01, "failure": None},
}
DROP = object()


@pytest.mark.parametrize("cls, field, value", [
    (ls.SpectrumGrid, "bogus", 1),
    (ls.SpectrumGrid, "larmor_hz", DROP),
    (ls.SpectrumGrid, "sweep_width_hz", "8"),
    (ls.SpectrumGrid, "n_points", 1024.5),
    (ls.SpectrumGrid, "n_points", True),
    (ls.QuadrupolarParams, "bogus", 1),
    (ls.QuadrupolarParams, "gaussian_broaden", DROP),
    (ls.QuadrupolarParams, "cq_hz", "8"),
    (ls.LibraryGridSpec, "bogus", 1),
    (ls.LibraryGridSpec, "eta_values", DROP),
    (ls.LibraryGridSpec, "cq_values_hz", [0.0, "8"]),
    (ls.LibraryGridSpec, "broaden_values", 8.0),
    (synth.IntensitySeries, "bogus", 1),
    (synth.IntensitySeries, "values", DROP),
    (synth.IntensitySeries, "A", "8"),
    (synth.IntensitySeries, "values", "not base64!"),
    (bench.BenchmarkPlan, "bogus", 1),
    (bench.BenchmarkPlan, "master_seed", "7"),
    (bench.BenchmarkPlan, "n_datasets_per_cell", 1.5),
    (bench.Record, "bogus", 1),
    (bench.Record, "converged", DROP),
    (bench.Record, "converged", 1),
    (bench.Record, "failed", 0),
    (bench.Record, "clamped", "false"),
    (bench.Record, "error", "0.5"),
    (bench.Record, "error", None),
    (bench.Record, "k_offset", True),
    (bench.BenchmarkPlan, "noise_levels", [True]),
    (bench.BenchmarkPlan, "k_offsets", [0, True]),
    (bench.BenchmarkPlan, "models", [1]),
])
def test_reader_refuses_bad_field(cls, field, value):
    payload = dict(STORED[cls])
    if value is DROP:
        del payload[field]
    else:
        payload[field] = value
    with pytest.raises(DataFormatError, match=f"{cls.__name__}.*{field}"):
        fileio.from_json(cls, payload, "test")


@pytest.mark.parametrize("cls", list(STORED))
def test_reader_round_trips_every_stored_type(cls):
    assert fileio.to_json(fileio.from_json(cls, STORED[cls], "test")) == STORED[cls]
    with pytest.raises(DataFormatError, match=cls.__name__):
        fileio.from_json(cls, [STORED[cls]], "test")


def test_reader_takes_int_for_float():
    grid = fileio.from_json(ls.SpectrumGrid, {"n_points": 8, "sweep_width_hz": 100,
                                              "larmor_hz": 10**8}, "test")
    assert type(grid.sweep_width_hz) is float and type(grid.center_hz) is float
    assert grid == ls.SpectrumGrid(8, 100.0, 1e8)


@pytest.mark.parametrize("technique", tuple(bss.TECHNIQUES))
def test_component_set_meta_is_plain_json(small_library, technique):
    pures = synth.sample_components(small_library, 4, 2)
    dataset = synth.assemble_dataset(pures, "inversion", 2, noise_factor=3e-4)
    for k in (1, 4, 8):
        json.dumps(bss.decompose(dataset, technique, k, seed=1).meta)


def test_library_read_and_written_again_is_identical(tmp_path, tiny_library):
    components, grid, manifest = fileio.read_library(tiny_library)
    spec = fileio.from_json(ls.LibraryGridSpec, manifest["grid_spec"], "grid_spec")
    again = tmp_path / "again.json"
    fileio.write_library(again, components, grid, spec)
    assert again.read_bytes() == tiny_library.read_bytes()


def test_library_with_wrong_component_count_refused(tmp_path, tiny_library):
    assert fileio.read_library(tiny_library)[2]["n_components"] == 16
    _rewrite_library(tiny_library, lambda header, entries:
                     header["manifest"].update(n_components=999))
    with pytest.raises(DataFormatError, match="999.*16"):
        fileio.read_library(tiny_library)
    assert main(["generate-mixtures", "--library", str(tiny_library),
                 "--model", "inversion", "--count", "1",
                 "--out", str(tmp_path / "mix")]) == 3


def test_corrupted_library_rejected(tmp_path, tiny_library):
    zeros = fileio.encode_array(np.zeros(1024))
    _rewrite_library(tiny_library,
                     lambda header, entries: entries[0].update(intensity=zeros))
    with pytest.raises(Exception, match="checksum"):
        fileio.read_library(tiny_library)


def test_component_set_round_trip(tmp_path, one_dataset):
    dataset_path, _ = one_dataset
    out = tmp_path / "cs.json"
    assert main(["decompose", "--in", str(dataset_path),
                 "--technique", "mcr:nnls:random", "--k", "2", "--seed", "6",
                 "--out", str(out)]) == 0
    loaded, grid = fileio.read_component_set(out)
    reloaded_path = tmp_path / "cs2.json"
    fileio.write_component_set(reloaded_path, loaded)
    a, no_grid = fileio.read_component_set(reloaded_path)
    assert grid == ls.DEFAULT_GRID and no_grid is None
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


@pytest.mark.parametrize("field", ["format_version", "k_requested"])
def test_component_set_with_boolean_integer_refused(tmp_path, one_dataset, field):
    dataset_path, pures_path = one_dataset
    out = tmp_path / "cs.json"
    assert main(["decompose", "--in", str(dataset_path), "--technique", "svd",
                 "--k", "1", "--out", str(out)]) == 0
    payload = fileio.read_json(out)
    payload[field] = True                     # equal to 1 as a Python int
    fileio.write_json(out, payload)
    with pytest.raises(DataFormatError, match=field):
        fileio.read_component_set(out)
    assert main(["score", "--predicted", str(out), "--pure", str(pures_path),
                 "--out", str(tmp_path / "r.json")]) == 3


@pytest.mark.parametrize("kind, edit, field", [
    ("component_set", lambda payload: payload.update(converged="no"), "converged"),
    ("component_set", lambda payload: payload.update(converged=1), "converged"),
    ("component_set", lambda payload: payload.update(runtime_seconds=True),
     "runtime_seconds"),
    ("component_set", lambda payload: payload.update(meta=[1]), "meta"),
    ("component_set", lambda payload: payload.update(components=[]), "components"),
    ("component_set", lambda payload: payload.update(coefficients=[]), "coefficients"),
    ("component_set", lambda payload: payload.update(components=[1]), "components"),
    ("dataset", lambda payload: payload["provenance"].update(noise_factor=True),
     "noise_factor"),
    ("dataset", lambda payload: payload.update(provenance="no components"), "provenance"),
    ("dataset", lambda payload: payload.update(provenance=["components"]), "provenance"),
    pytest.param("component_set", lambda payload: payload.update(
        coefficients=[fileio.encode_array(np.ones(5))] * 20), "coefficients",
        id="component_set-coefficient-width"),
    ("component_set", lambda payload: payload.update(bogus=1), "bogus"),
    ("dataset", lambda payload: payload["provenance"].update(seed=7), "seed"),
    ("dataset", lambda payload: payload.update(bogus=1), "bogus"),
])
def test_envelope_field_of_the_wrong_type_refused(tmp_path, one_dataset, kind, edit,
                                                  field):
    dataset_path, pures_path = one_dataset
    path, read = dataset_path, fileio.read_dataset
    if kind == "component_set":
        path, read = tmp_path / "cs.json", fileio.read_component_set
        assert main(["decompose", "--in", str(dataset_path), "--technique", "svd",
                     "--k", "1", "--out", str(path)]) == 0
    payload = fileio.read_json(path)
    edit(payload)
    fileio.write_json(path, payload)
    with pytest.raises(DataFormatError, match=field):
        read(path)
    if kind == "component_set":
        args = ["score", "--predicted", str(path), "--pure", str(pures_path)]
    else:
        args = ["decompose", "--in", str(path), "--technique", "svd", "--k", "1"]
    assert main(args + ["--out", str(tmp_path / "out.json")]) == 3


@pytest.mark.parametrize("field", ["format_version", "n_components"])
def test_library_with_boolean_integer_refused(tmp_path, small_library, grid, field):
    path = tmp_path / "lib.json"
    spec = ls.LibraryGridSpec.from_counts(n_cq=1, n_eta=1, n_shift=1)
    fileio.write_library(path, small_library[:1], grid, spec)
    _rewrite_library(path, lambda header, entries: (
        header if field == "format_version" else header["manifest"]
    ).update({field: True}))
    with pytest.raises(DataFormatError, match=field):
        fileio.read_library(path)
    assert main(["generate-mixtures", "--library", str(path), "--model", "inversion",
                 "--count", "1", "--out", str(tmp_path / "mix")]) == 3


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
