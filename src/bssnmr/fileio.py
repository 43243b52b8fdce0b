"""On-disk formats: JSON with binary float payloads, CSV export.

Spectra are stored as base64-encoded little-endian 64-bit floats so every
file round-trips bit-exactly; the surrounding JSON carries provenance.
Validation failures raise DataFormatError naming the offending field.
"""

import base64
import json
from typing import Optional

import numpy as np

from .bss import ComponentSet, parse_technique
from .errors import DataFormatError
from .lineshape import (LibraryGridSpec, PureComponent, QuadrupolarParams,
                        SpectrumGrid, library_checksum)
from .scoring import MatchReport
from .synth import IntensitySeries, MixtureDataset

FORMAT_VERSION = 1


def encode_array(values) -> str:
    data = np.ascontiguousarray(values, dtype="<f8")
    return base64.b64encode(data.tobytes()).decode("ascii")


def decode_array(text: str, field: str = "array") -> np.ndarray:
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise DataFormatError(f"{field}: invalid base64 payload") from exc
    if len(raw) % 8 != 0:
        raise DataFormatError(f"{field}: payload length not a multiple of 8")
    return np.frombuffer(raw, dtype="<f8").astype(float)


def _require(mapping: dict, field: str, kind=None):
    if field not in mapping:
        raise DataFormatError(f"missing required field {field!r}")
    value = mapping[field]
    if kind is not None and not isinstance(value, kind):
        raise DataFormatError(f"field {field!r} has the wrong type")
    return value


def _check_version(payload: dict, kind: str):
    version = _require(payload, "format_version", int)
    if version != FORMAT_VERSION:
        raise DataFormatError(f"unsupported format_version {version}")
    found = _require(payload, "kind", str)
    if found != kind:
        raise DataFormatError(f"expected kind {kind!r}, found {found!r}")


def write_json(path, payload: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(json.dumps(payload) + "\n")


def read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# grids and parameters
# ---------------------------------------------------------------------------

def grid_to_json(grid: SpectrumGrid) -> dict:
    return {"n_points": grid.n_points, "sweep_width_hz": grid.sweep_width_hz,
            "larmor_hz": grid.larmor_hz, "center_hz": grid.center_hz}

def grid_from_json(payload: dict) -> SpectrumGrid:
    try:
        return SpectrumGrid(
            n_points=int(_require(payload, "n_points")),
            sweep_width_hz=float(_require(payload, "sweep_width_hz")),
            larmor_hz=float(_require(payload, "larmor_hz")),
            center_hz=float(payload.get("center_hz", 0.0)))
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"grid: {exc}") from exc


def params_to_json(params: QuadrupolarParams) -> dict:
    return {"cq_hz": params.cq_hz, "eta": params.eta,
            "delta_iso_hz": params.delta_iso_hz, "spin": params.spin,
            "spin_rate_hz": params.spin_rate_hz,
            "gaussian_broaden": params.gaussian_broaden}

def params_from_json(payload: dict) -> QuadrupolarParams:
    try:
        return QuadrupolarParams(
            cq_hz=float(_require(payload, "cq_hz")),
            eta=float(_require(payload, "eta")),
            delta_iso_hz=float(_require(payload, "delta_iso_hz")),
            spin=float(payload.get("spin", 1.5)),
            spin_rate_hz=float(payload.get("spin_rate_hz", 10_000.0)),
            gaussian_broaden=float(_require(payload, "gaussian_broaden")))
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"params: {exc}") from exc


def grid_spec_to_json(spec: LibraryGridSpec) -> dict:
    return {"cq_values_hz": list(spec.cq_values_hz),
            "eta_values": list(spec.eta_values),
            "shift_values_hz": list(spec.shift_values_hz),
            "broaden_values": list(spec.broaden_values),
            "spin": spec.spin, "spin_rate_hz": spec.spin_rate_hz}

def grid_spec_from_json(payload: dict) -> LibraryGridSpec:
    try:
        return LibraryGridSpec(
            cq_values_hz=tuple(float(v) for v in _require(payload, "cq_values_hz", list)),
            eta_values=tuple(float(v) for v in _require(payload, "eta_values", list)),
            shift_values_hz=tuple(float(v) for v in _require(payload, "shift_values_hz", list)),
            broaden_values=tuple(float(v) for v in _require(payload, "broaden_values", list)),
            spin=float(payload.get("spin", 1.5)),
            spin_rate_hz=float(payload.get("spin_rate_hz", 10_000.0)))
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"grid_spec: {exc}") from exc


# ---------------------------------------------------------------------------
# pure-component library
# ---------------------------------------------------------------------------

def write_library(path, components, grid: SpectrumGrid,
                  grid_spec: Optional[LibraryGridSpec] = None):
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "pure_library",
        "manifest": {
            "n_components": len(components),
            "checksum_sha256": library_checksum(components),
            "grid": grid_to_json(grid),
            "grid_spec": grid_spec_to_json(grid_spec) if grid_spec else None,
        },
        "components": [
            {"id": comp.id, "params": params_to_json(comp.params),
             "intensity": encode_array(comp.intensity)}
            for comp in components
        ],
    }
    write_json(path, payload)


def read_library(path):
    payload = read_json(path)
    _check_version(payload, "pure_library")
    manifest = _require(payload, "manifest", dict)
    grid = grid_from_json(_require(manifest, "grid", dict))
    components = []
    for entry in _require(payload, "components", list):
        intensity = decode_array(_require(entry, "intensity", str), "intensity")
        if intensity.size != grid.n_points:
            raise DataFormatError(
                f"component {entry.get('id')!r}: intensity length "
                f"{intensity.size} != n_points {grid.n_points}")
        intensity.setflags(write=False)
        components.append(PureComponent(
            id=_require(entry, "id", str),
            params=params_from_json(_require(entry, "params", dict)),
            grid=grid, intensity=intensity))
    expected = _require(manifest, "checksum_sha256", str)
    actual = library_checksum(components)
    if actual != expected:
        raise DataFormatError("library checksum mismatch (file corrupted?)")
    return components, grid, manifest


# ---------------------------------------------------------------------------
# mixture datasets
# ---------------------------------------------------------------------------

def _series_to_json(series: IntensitySeries) -> dict:
    return {"component_id": series.component_id, "model": series.model,
            "A": series.A, "T1": series.T1, "f": series.f,
            "values": encode_array(series.values)}

def _series_from_json(payload: dict) -> IntensitySeries:
    return IntensitySeries(
        component_id=_require(payload, "component_id", str),
        model=_require(payload, "model", str),
        A=float(_require(payload, "A")),
        T1=None if payload.get("T1") is None else float(payload["T1"]),
        f=None if payload.get("f") is None else float(payload["f"]),
        values=decode_array(_require(payload, "values", str), "values"))


def write_dataset(path, dataset: MixtureDataset):
    provenance = None
    if dataset.components is not None:
        provenance = {
            "seed": dataset.seed,
            "model": dataset.components[0].model,
            "noise_factor": dataset.noise_factor,
            "components": [_series_to_json(s) for s in dataset.components],
        }
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "mixture_dataset",
        "grid": grid_to_json(dataset.grid),
        "normalization": dataset.normalization,
        "spectra": [encode_array(row) for row in dataset.spectra],
        "provenance": provenance,
    }
    write_json(path, payload)


def read_dataset(path) -> MixtureDataset:
    payload = read_json(path)
    _check_version(payload, "mixture_dataset")
    grid = grid_from_json(_require(payload, "grid", dict))
    rows = [decode_array(text, f"spectra[{i}]")
            for i, text in enumerate(_require(payload, "spectra", list))]
    lengths = {row.size for row in rows}
    if len(lengths) != 1 or lengths.pop() != grid.n_points:
        raise DataFormatError("spectra: rows must all have length n_points")
    spectra = np.stack(rows)

    components = None
    seed = None
    noise = 0.0
    provenance = payload.get("provenance")
    if provenance:
        components = tuple(_series_from_json(entry)
                           for entry in _require(provenance, "components", list))
        seed = provenance.get("seed")
        noise = float(provenance.get("noise_factor", 0.0))
    return MixtureDataset(grid=grid, spectra=spectra, components=components,
                          noise_factor=noise, seed=seed,
                          normalization=payload.get("normalization", "none"))


# ---------------------------------------------------------------------------
# component sets and match reports
# ---------------------------------------------------------------------------

def write_component_set(path, result: ComponentSet, grid: Optional[SpectrumGrid] = None):
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "component_set",
        "technique": result.technique,
        "k_requested": result.k,
        "converged": result.converged,
        "runtime_seconds": result.runtime_seconds,
        "grid": grid_to_json(grid) if grid else None,
        "components": [encode_array(row) for row in result.components],
        "coefficients": [encode_array(row) for row in result.coefficients],
        "meta": _json_safe(result.meta),
    }
    write_json(path, payload)


def read_component_set(path) -> ComponentSet:
    payload = read_json(path)
    _check_version(payload, "component_set")
    comps = np.stack([decode_array(t, f"components[{i}]")
                      for i, t in enumerate(_require(payload, "components", list))])
    coeff = np.stack([decode_array(t, f"coefficients[{i}]")
                      for i, t in enumerate(_require(payload, "coefficients", list))])
    k = _require(payload, "k_requested", int)
    if k != comps.shape[0]:
        raise DataFormatError(f"k_requested {k} != {comps.shape[0]} component rows")
    technique = _require(payload, "technique", str)
    parse_technique(technique)
    return ComponentSet(
        components=comps, coefficients=coeff, technique=technique,
        converged=bool(_require(payload, "converged")),
        runtime_seconds=float(payload.get("runtime_seconds", 0.0)),
        meta=payload.get("meta") or {})


def write_match_report(path, report: MatchReport):
    write_json(path, {
        "format_version": FORMAT_VERSION, "kind": "match_report",
        "pairs": [{"predicted": i, "pure": j,
                   "B": fit.B, "M": fit.M, "lack_of_fit": fit.lack_of_fit}
                  for i, j, fit in report.pairs],
        "ensemble_score": report.ensemble_score,
        "discarded_predicted": report.discarded_predicted,
        "unmatched_pure": report.unmatched_pure,
        "dataset_error": report.dataset_error,
    })


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value
