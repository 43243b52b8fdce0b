"""On-disk formats: JSON with binary float payloads, CSV export.

Spectra are stored as base64-encoded little-endian 64-bit floats so every
file round-trips bit-exactly; the surrounding JSON carries provenance.  A
pure-component library is JSON Lines; every other kind of file is one JSON
document.
Validation failures raise DataFormatError naming the offending field.
"""

import base64
import binascii
import dataclasses
import json
from functools import lru_cache
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .bss import ComponentSet, parse_technique
from .errors import DataFormatError
from .lineshape import (LibraryGridSpec, PureComponent, QuadrupolarParams,
                        SpectrumGrid, library_checksum)
from .scoring import MatchReport
from .synth import IntensitySeries, MixtureDataset

# Version 2 of a library is JSON Lines: a header line, then a line per component.
FORMAT_VERSION = {"pure_library": 2, "mixture_dataset": 1, "component_set": 1,
                  "match_report": 1}


def encode_array(values) -> str:
    data = np.ascontiguousarray(values, dtype="<f8")
    return base64.b64encode(data.tobytes()).decode("ascii")


def decode_array(text: str, field: str = "array") -> np.ndarray:
    """The little-endian floats in base64 ``text``, as a read-only array over
    the decoded bytes."""
    # strict mode refuses non-alphabet characters and misplaced or excess
    # padding; a str with a non-ASCII character raises ValueError, and a
    # JSON value that is not a string TypeError.
    try:
        raw = binascii.a2b_base64(text, strict_mode=True)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{field}: invalid base64 payload") from exc
    if len(raw) % 8 != 0:
        raise DataFormatError(f"{field}: payload length not a multiple of 8")
    return np.frombuffer(raw, dtype="<f8")


def _require(mapping: dict, field: str, kind=None):
    """``mapping[field]``, refused unless ``mapping`` is a JSON object that
    holds it as a ``kind``; a JSON boolean is only ever a ``bool``."""
    if not isinstance(mapping, dict):
        raise DataFormatError(f"field {field!r} must be in a JSON object")
    if field not in mapping:
        raise DataFormatError(f"missing required field {field!r}")
    value = mapping[field]
    if kind is not None and (not isinstance(value, kind)
                             or (isinstance(value, bool) and kind is not bool)):
        raise DataFormatError(f"field {field!r} has the wrong type")
    return value


def _optional(mapping: dict, field: str, kind, default):
    """``mapping[field]`` checked as by _require, or ``default`` if absent."""
    return _require(mapping, field, kind) if field in mapping else default


def _rows(payload: dict, field: str) -> np.ndarray:
    """The base64 rows listed in ``payload[field]``, stacked; refused unless
    there is at least one row and all have one length."""
    rows = [decode_array(text, f"{field}[{i}]")
            for i, text in enumerate(_require(payload, field, list))]
    if not rows or len({row.size for row in rows}) != 1:
        raise DataFormatError(f"{field}: needs one or more rows, all of one length")
    return np.stack(rows)


def _check_version(payload: dict, kind: str):
    found = _require(payload, "kind", str)
    if found != kind:
        raise DataFormatError(f"expected kind {kind!r}, found {found!r}")
    version = _require(payload, "format_version", int)
    if version != FORMAT_VERSION[kind]:
        raise DataFormatError(f"unsupported format_version {version} "
                              f"(expected {FORMAT_VERSION[kind]})")


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
# stored dataclasses
# ---------------------------------------------------------------------------

def to_json(obj) -> dict:
    """A dataclass's fields in declaration order, arrays as base64 text and
    tuples as lists."""
    payload = {}
    for key, _, _ in _schema(type(obj)):
        value = getattr(obj, key)
        if isinstance(value, np.ndarray):
            value = encode_array(value)
        elif isinstance(value, tuple):
            value = list(value)
        payload[key] = value
    return payload


def from_json(cls, payload, where: str):
    """Build dataclass ``cls`` from a JSON object read at ``where``.

    Refuses a non-object, an unknown key, a missing field that has no
    default and a value of the wrong JSON type; a ``float`` field takes a
    JSON int as a float.  Each refusal is a DataFormatError naming the type
    and the field, and so is a value the type itself refuses.
    """
    name = cls.__name__
    if not isinstance(payload, dict):
        raise DataFormatError(f"{where}: {name} must be a JSON object")
    kwargs = {}
    for key, decode, required in _schema(cls):
        if key in payload:
            try:
                kwargs[key] = decode(payload[key])
            except DataFormatError as exc:
                raise DataFormatError(f"{where}: {name}.{key}: {exc}") from None
        elif required:
            raise DataFormatError(f"{where}: {name} is missing field {key!r}")
    if len(kwargs) != len(payload):
        unknown = sorted(set(payload) - {key for key, _, _ in _schema(cls)})
        raise DataFormatError(f"{where}: {name} has unknown fields {unknown}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{where}: {name}: {exc}") from exc


@lru_cache(maxsize=None)
def _schema(cls) -> tuple:
    """(name, decoder, required) for each field of dataclass ``cls``."""
    hints = get_type_hints(cls)
    return tuple((item.name, _decoder(hints[item.name]),
                  item.default is dataclasses.MISSING
                  and item.default_factory is dataclasses.MISSING)
                 for item in dataclasses.fields(cls))


def _decoder(hint):
    """A function that checks a JSON value against the annotation ``hint``
    and returns it as the field's Python value."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:                             # Optional[X]
        inner = _decoder(args[0])
        return lambda value: None if value is None else inner(value)
    if origin is tuple:                             # tuple[X, ...]
        inner = _decoder(args[0])
        return lambda value: tuple(inner(v) for v in _expect(value, list, "a list"))
    if hint is tuple:
        return lambda value: tuple(_expect(value, list, "a list"))
    if hint is np.ndarray:
        return lambda value: decode_array(_expect(value, str, "base64 text"))
    if hint is float:
        return lambda value: float(_expect(value, (int, float), "a number"))
    if hint is int:
        return lambda value: _expect(value, int, "an integer")
    if hint is str:
        return lambda value: _expect(value, str, "a string")
    if hint is bool:
        return lambda value: _expect(value, bool, "true or false")
    raise TypeError(f"no JSON form for a field of type {hint!r}")


def _expect(value, kind, what: str):
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise DataFormatError(f"must be {what}, found {value!r:.40}")
    return value


# ---------------------------------------------------------------------------
# pure-component library
# ---------------------------------------------------------------------------

def write_library(path, components, grid: SpectrumGrid,
                  grid_spec: Optional[LibraryGridSpec] = None):
    """Write the library as JSON Lines: a header line with the format
    version, kind and manifest, then one ``{"id", "params", "intensity"}``
    line per component.  Base64 text needs no JSON escaping, so the
    intensity is written as it is, not through ``json.dumps``."""
    header = json.dumps({
        "format_version": FORMAT_VERSION["pure_library"],
        "kind": "pure_library",
        "manifest": {
            "n_components": len(components),
            "checksum_sha256": library_checksum(components),
            "grid": to_json(grid),
            "grid_spec": to_json(grid_spec) if grid_spec else None,
        },
    })
    # A 1 MB buffer makes one system call per megabyte, not per component.
    with open(path, "w", encoding="utf-8", newline="\n", buffering=1 << 20) as handle:
        handle.write(header + "\n")
        for comp in components:
            handle.write('{"id": %s, "params": %s, "intensity": "%s"}\n' % (
                json.dumps(comp.id), json.dumps(to_json(comp.params)),
                encode_array(comp.intensity)))


def read_library(path):
    """The components, grid and manifest of the library file at ``path``.

    The header line is checked before any component is read, and each
    component line is decoded to its arrays before the next is read, so a
    read holds neither the file's text nor its whole JSON tree.
    """
    with open(path, "rb") as handle:
        header = json_line(handle.readline(), path, 1)
        _check_version(header, "pure_library")
        manifest = _require(header, "manifest", dict)
        grid = from_json(SpectrumGrid, _require(manifest, "grid"), "manifest.grid")
        if manifest.get("grid_spec") is not None:
            from_json(LibraryGridSpec, manifest["grid_spec"], "manifest.grid_spec")
        stated = _require(manifest, "n_components", int)
        expected = _require(manifest, "checksum_sha256", str)
        components = []
        for line in handle:
            if len(components) == stated:
                raise DataFormatError(f"{path}: line {stated + 2} is trailing data: "
                                      f"manifest.n_components is {stated}")
            entry = json_line(line, path, len(components) + 2)
            # Freeing the line before its arrays are allocated fragments the
            # heap less: the full library peaks at 310 MB RSS, 350 MB without
            # (x86-64 Linux, glibc malloc).
            del line
            components.append(_component_entry(entry, len(components), grid))
    if stated != len(components):
        raise DataFormatError(f"manifest.n_components is {stated}, but the file "
                              f"holds {len(components)} components")
    if library_checksum(components) != expected:
        raise DataFormatError("library checksum mismatch (file corrupted?)")
    return components, grid, manifest


def json_line(line: bytes, path, number: int):
    """The JSON value on line ``number`` of the file at ``path``."""
    try:
        return json.loads(line)
    except ValueError as exc:           # JSONDecodeError or a bad encoding
        raise DataFormatError(f"{path}: line {number} is not valid JSON: {exc}") from None


def _component_entry(entry, index: int, grid: SpectrumGrid) -> PureComponent:
    where = f"components[{index}]"
    if not isinstance(entry, dict):
        raise DataFormatError(f"{where} must be a JSON object")
    comp_id = _require(entry, "id", str)
    params = from_json(QuadrupolarParams, _require(entry, "params"), f"{where}.params")
    intensity = decode_array(_require(entry, "intensity", str), "intensity")
    if intensity.size != grid.n_points:
        raise DataFormatError(f"component {comp_id!r}: intensity length "
                              f"{intensity.size} != n_points {grid.n_points}")
    return PureComponent(id=comp_id, params=params, grid=grid, intensity=intensity)


# ---------------------------------------------------------------------------
# mixture datasets
# ---------------------------------------------------------------------------

def write_dataset(path, dataset: MixtureDataset):
    provenance = None
    if dataset.components is not None:
        provenance = {
            "model": dataset.components[0].model,
            "noise_factor": dataset.noise_factor,
            "components": [to_json(s) for s in dataset.components],
        }
    payload = {
        "format_version": FORMAT_VERSION["mixture_dataset"],
        "kind": "mixture_dataset",
        "grid": to_json(dataset.grid),
        "normalization": dataset.normalization,
        "spectra": [encode_array(row) for row in dataset.spectra],
        "provenance": provenance,
    }
    write_json(path, payload)


def read_dataset(path) -> MixtureDataset:
    payload = read_json(path)
    _check_version(payload, "mixture_dataset")
    grid = from_json(SpectrumGrid, _require(payload, "grid"), "grid")
    spectra = _rows(payload, "spectra")
    if spectra.shape[1] != grid.n_points:
        raise DataFormatError("spectra: rows must all have length n_points")

    components = None
    noise = 0.0
    provenance = _optional(payload, "provenance", (dict, type(None)), None)
    if provenance:
        components = tuple(
            from_json(IntensitySeries, entry, f"provenance.components[{i}]")
            for i, entry in enumerate(_require(provenance, "components", list)))
        noise = float(_optional(provenance, "noise_factor", (int, float), 0.0))
    return MixtureDataset(grid=grid, spectra=spectra, components=components,
                          noise_factor=noise,
                          normalization=payload.get("normalization", "none"))


# ---------------------------------------------------------------------------
# component sets and match reports
# ---------------------------------------------------------------------------

def write_component_set(path, result: ComponentSet, grid: Optional[SpectrumGrid] = None):
    payload = {
        "format_version": FORMAT_VERSION["component_set"],
        "kind": "component_set",
        "technique": result.technique,
        "k_requested": result.k,
        "converged": result.converged,
        "runtime_seconds": result.runtime_seconds,
        "grid": to_json(grid) if grid else None,
        "components": [encode_array(row) for row in result.components],
        "coefficients": [encode_array(row) for row in result.coefficients],
        "meta": result.meta,
    }
    write_json(path, payload)


def read_component_set(path) -> tuple:
    """The component set in ``path`` and the grid its rows are sampled on,
    or None for a file written without one."""
    payload = read_json(path)
    _check_version(payload, "component_set")
    comps = _rows(payload, "components")
    coeff = _rows(payload, "coefficients")
    k = _require(payload, "k_requested", int)
    if k != comps.shape[0]:
        raise DataFormatError(f"k_requested {k} != {comps.shape[0]} component rows")
    technique = _require(payload, "technique", str)
    parse_technique(technique)
    grid = payload.get("grid")
    if grid is not None:
        grid = from_json(SpectrumGrid, grid, "grid")
        if comps.shape[1] != grid.n_points:
            raise DataFormatError(f"component rows of length {comps.shape[1]} "
                                  f"!= grid n_points {grid.n_points}")
    return ComponentSet(
        components=comps, coefficients=coeff, technique=technique,
        converged=_require(payload, "converged", bool),
        runtime_seconds=float(_optional(payload, "runtime_seconds", (int, float), 0.0)),
        meta=_optional(payload, "meta", dict, {})), grid


def write_match_report(path, report: MatchReport):
    write_json(path, {
        "format_version": FORMAT_VERSION["match_report"], "kind": "match_report",
        "pairs": [{"predicted": i, "pure": j,
                   "B": fit.B, "M": fit.M, "lack_of_fit": fit.lack_of_fit}
                  for i, j, fit in report.pairs],
        "ensemble_score": report.ensemble_score,
        "discarded_predicted": report.discarded_predicted,
        "unmatched_pure": report.unmatched_pure,
        "dataset_error": report.dataset_error,
    })
