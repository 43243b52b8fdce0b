"""On-disk formats: JSON with binary float payloads, CSV export.

Spectra are stored as base64-encoded little-endian 64-bit floats so every
file round-trips bit-exactly; the surrounding JSON carries provenance.  A
pure-component library is JSON Lines; every other kind of file is one JSON
document.  Every document is read by :func:`from_json` and written by
:func:`to_json` from a dataclass, so each kind has one set of refusals:
failures raise DataFormatError naming the offending field.
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


def decode_array(text: str) -> np.ndarray:
    """The little-endian floats in base64 ``text``, as a read-only array over
    the decoded bytes."""
    # strict mode refuses non-alphabet characters and misplaced or excess
    # padding; a str with a non-ASCII character raises ValueError, and a
    # JSON value that is not a string TypeError.
    try:
        raw = binascii.a2b_base64(text, strict_mode=True)
    except (TypeError, ValueError) as exc:
        raise DataFormatError("invalid base64 payload") from exc
    if len(raw) % 8 != 0:
        raise DataFormatError("payload length not a multiple of 8")
    return np.frombuffer(raw, dtype="<f8")


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

def to_json(value):
    """``value`` as JSON: a number, string, object or null as it is, an
    array as base64 text, a tuple as a list of converted items and a
    dataclass as an object of its fields in declaration order."""
    if value is None or isinstance(value, (int, float, str, dict)):
        return value
    if isinstance(value, np.ndarray):
        return encode_array(value)
    if isinstance(value, tuple):
        return [to_json(item) for item in value]
    return {key: to_json(getattr(value, key)) for key, _, _ in _schema(type(value))}


def from_json(cls, payload, where: str):
    """Build dataclass ``cls`` from a JSON object read at ``where``.

    Refuses a non-object, an unknown key, a missing field that has no
    default and a value of the wrong JSON type; a ``float`` field takes a
    JSON int as a float, and a dataclass field is read the same way.  Each
    refusal is a DataFormatError naming the type and the field, down the
    path of nested fields, and so is a value the type itself refuses.
    """
    try:
        return _decode(cls, payload)
    except DataFormatError as exc:
        raise DataFormatError(f"{where}: {exc}") from exc


def _decode(cls, payload):
    name = cls.__name__.lstrip("_")
    if not isinstance(payload, dict):
        raise DataFormatError(f"{name} must be a JSON object")
    kwargs = {}
    for key, decode, required in _schema(cls):
        if key in payload:
            try:
                kwargs[key] = decode(payload[key])
            except DataFormatError as exc:
                raise DataFormatError(f"{name}.{key}: {exc}") from None
        elif required:
            raise DataFormatError(f"{name} is missing field {key!r}")
    if len(kwargs) != len(payload):
        unknown = sorted(set(payload) - {key for key, _, _ in _schema(cls)})
        raise DataFormatError(f"{name} has unknown fields {unknown}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{name}: {exc}") from exc


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
    if dataclasses.is_dataclass(hint):
        return lambda value: _decode(hint, value)
    if hint is dict:
        return lambda value: _expect(value, dict, "a JSON object")
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
# file kinds: a kind and format_version around the fields of a dataclass
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _Manifest:
    n_components: int
    checksum_sha256: str
    grid: SpectrumGrid
    grid_spec: Optional[LibraryGridSpec] = None


@dataclasses.dataclass(frozen=True)
class _LibraryHeader:
    manifest: _Manifest


@dataclasses.dataclass(frozen=True)
class _LibraryLine:
    id: str
    params: QuadrupolarParams
    intensity: np.ndarray


@dataclasses.dataclass(frozen=True, kw_only=True)
class _Provenance:
    model: Optional[str] = None
    noise_factor: float = 0.0
    components: tuple[IntensitySeries, ...]


@dataclasses.dataclass(frozen=True, kw_only=True)
class _Dataset:
    grid: SpectrumGrid
    normalization: str = "none"
    spectra: tuple[np.ndarray, ...]
    provenance: Optional[_Provenance] = None


@dataclasses.dataclass(frozen=True, kw_only=True)
class _ComponentSet:
    technique: str
    k_requested: int
    converged: bool
    runtime_seconds: float = 0.0
    grid: Optional[SpectrumGrid] = None
    components: tuple[np.ndarray, ...]
    coefficients: tuple[np.ndarray, ...]
    meta: dict = dataclasses.field(default_factory=dict)


def _envelope(kind: str, body: dict) -> dict:
    return {"format_version": FORMAT_VERSION[kind], "kind": kind, **body}


def _from_envelope(cls, kind: str, payload, where: str):
    """``payload``, a ``kind`` file, as a ``cls``: its ``kind`` and
    ``format_version`` are taken out and must name ``kind`` at its current
    version."""
    if isinstance(payload, dict):
        found = payload.pop("kind", None)
        if found != kind:
            raise DataFormatError(f"{where}: expected kind {kind!r}, found {found!r:.40}")
        version = payload.pop("format_version", None)
        if type(version) is not int or version != FORMAT_VERSION[kind]:
            raise DataFormatError(f"{where}: unsupported format_version {version!r:.40} "
                                  f"(expected {FORMAT_VERSION[kind]})")
    return from_json(cls, payload, where)


def _stack(rows: tuple, field: str, where: str, width=None) -> np.ndarray:
    """``rows`` as a matrix, refused unless there is at least one row and
    all have one length, which must be ``width`` if that is given."""
    lengths = {row.size for row in rows}
    if len(lengths) != 1 or (width is not None and lengths != {width}):
        need = "one length" if width is None else f"length {width}"
        raise DataFormatError(f"{where}: {field}: needs one or more rows, all of "
                              f"{need}; found lengths {sorted(lengths)}")
    return np.stack(rows)


# ---------------------------------------------------------------------------
# pure-component library
# ---------------------------------------------------------------------------

def write_library(path, components, grid: SpectrumGrid,
                  grid_spec: Optional[LibraryGridSpec] = None):
    """Write the library as JSON Lines: a header line with the format
    version, kind and manifest, then one line per component with the fields
    of ``_LibraryLine``.  Base64 text needs no JSON escaping, so the
    intensity is written as it is, not through ``json.dumps``."""
    manifest = _Manifest(n_components=len(components),
                         checksum_sha256=library_checksum(components),
                         grid=grid, grid_spec=grid_spec)
    header = json.dumps(_envelope("pure_library", to_json(_LibraryHeader(manifest))))
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
        manifest = _from_envelope(_LibraryHeader, "pure_library",
                                  json_line(handle.readline(), path, 1),
                                  f"{path}: line 1").manifest
        grid, stated = manifest.grid, manifest.n_components
        components = []
        for line in handle:
            number = len(components) + 2
            if len(components) == stated:
                raise DataFormatError(f"{path}: line {number} is trailing data: "
                                      f"manifest.n_components is {stated}")
            entry = json_line(line, path, number)
            # Freeing the line before its arrays are allocated fragments the
            # heap less: the full library peaks at 308 MB RSS, 350 MB without
            # (x86-64 Linux, glibc malloc).  So does keeping ``entry`` until
            # the next line is parsed: 312 MB if it is freed at once.  An
            # enumerate() of the lines would keep each line alive.
            del line
            decoded = from_json(_LibraryLine, entry, f"{path}: line {number}")
            if decoded.intensity.size != grid.n_points:
                raise DataFormatError(f"{path}: line {number}: intensity length "
                                      f"{decoded.intensity.size} != n_points {grid.n_points}")
            components.append(PureComponent(id=decoded.id, params=decoded.params,
                                            grid=grid, intensity=decoded.intensity))
    if stated != len(components):
        raise DataFormatError(f"manifest.n_components is {stated}, but the file "
                              f"holds {len(components)} components")
    if library_checksum(components) != manifest.checksum_sha256:
        raise DataFormatError("library checksum mismatch (file corrupted?)")
    return components, grid, to_json(manifest)


def json_line(line: bytes, path, number: int):
    """The JSON value on line ``number`` of the file at ``path``."""
    try:
        return json.loads(line)
    except ValueError as exc:           # JSONDecodeError or a bad encoding
        raise DataFormatError(f"{path}: line {number} is not valid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# mixture datasets
# ---------------------------------------------------------------------------

def write_dataset(path, dataset: MixtureDataset):
    provenance = None
    if dataset.components is not None:
        provenance = _Provenance(model=dataset.components[0].model,
                                 noise_factor=dataset.noise_factor,
                                 components=tuple(dataset.components))
    write_json(path, _envelope("mixture_dataset", to_json(_Dataset(
        grid=dataset.grid, normalization=dataset.normalization,
        spectra=tuple(dataset.spectra), provenance=provenance))))


def read_dataset(path) -> MixtureDataset:
    stored = _from_envelope(_Dataset, "mixture_dataset", read_json(path), path)
    spectra = _stack(stored.spectra, "spectra", path, stored.grid.n_points)
    components, noise = None, 0.0
    if stored.provenance is not None:
        components = stored.provenance.components
        noise = stored.provenance.noise_factor
    return MixtureDataset(grid=stored.grid, spectra=spectra, components=components,
                          noise_factor=noise, normalization=stored.normalization)


# ---------------------------------------------------------------------------
# component sets and match reports
# ---------------------------------------------------------------------------

def write_component_set(path, result: ComponentSet, grid: Optional[SpectrumGrid] = None):
    write_json(path, _envelope("component_set", to_json(_ComponentSet(
        technique=result.technique, k_requested=result.k, converged=result.converged,
        runtime_seconds=result.runtime_seconds, grid=grid,
        components=tuple(result.components), coefficients=tuple(result.coefficients),
        meta=result.meta))))


def read_component_set(path) -> tuple:
    """The component set in ``path`` and the grid its rows are sampled on,
    or None for a file written without one."""
    stored = _from_envelope(_ComponentSet, "component_set", read_json(path), path)
    k, grid = stored.k_requested, stored.grid
    comps = _stack(stored.components, "components", path, grid and grid.n_points)
    if k != comps.shape[0]:
        raise DataFormatError(f"{path}: k_requested {k} != {comps.shape[0]} component rows")
    coeff = _stack(stored.coefficients, "coefficients", path, k)
    parse_technique(stored.technique)
    return ComponentSet(
        components=comps, coefficients=coeff, technique=stored.technique,
        converged=stored.converged, runtime_seconds=stored.runtime_seconds,
        meta=stored.meta), grid


def write_match_report(path, report: MatchReport):
    write_json(path, _envelope("match_report", {
        "pairs": [{"predicted": i, "pure": j,
                   "B": fit.B, "M": fit.M, "lack_of_fit": fit.lack_of_fit}
                  for i, j, fit in report.pairs],
        "ensemble_score": report.ensemble_score,
        "discarded_predicted": report.discarded_predicted,
        "unmatched_pure": report.unmatched_pure,
        "dataset_error": report.dataset_error,
    }))
