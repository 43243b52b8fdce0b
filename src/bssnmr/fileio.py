"""On-disk formats: JSON with binary float payloads, CSV export.

Spectra are stored as base64-encoded little-endian 64-bit floats so every
file round-trips bit-exactly; the surrounding JSON carries provenance.
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

FORMAT_VERSION = 1


def encode_array(values) -> str:
    data = np.ascontiguousarray(values, dtype="<f8")
    return base64.b64encode(data.tobytes()).decode("ascii")


def decode_array(text: str, field: str = "array") -> np.ndarray:
    """The little-endian floats in base64 ``text``, as a read-only array over
    the decoded bytes."""
    # strict mode refuses non-alphabet characters and misplaced or excess
    # padding; a str with a non-ASCII character raises ValueError.
    try:
        raw = binascii.a2b_base64(text, strict_mode=True)
    except ValueError as exc:
        raise DataFormatError(f"{field}: invalid base64 payload") from exc
    if len(raw) % 8 != 0:
        raise DataFormatError(f"{field}: payload length not a multiple of 8")
    return np.frombuffer(raw, dtype="<f8")


def _require(mapping: dict, field: str, kind=None):
    if field not in mapping:
        raise DataFormatError(f"missing required field {field!r}")
    value = mapping[field]
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
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
    raise TypeError(f"no JSON form for a field of type {hint!r}")


def _expect(value, kind, what: str):
    if not isinstance(value, kind) or isinstance(value, bool):
        raise DataFormatError(f"must be {what}, found {value!r:.40}")
    return value


# ---------------------------------------------------------------------------
# pure-component library
# ---------------------------------------------------------------------------

def write_library(path, components, grid: SpectrumGrid,
                  grid_spec: Optional[LibraryGridSpec] = None):
    """Write ``json.dumps(payload) + "\\n"`` of the library payload, encoding
    one component at a time so no whole-file text is ever held.  Only the id
    and the parameters go through ``json.dumps``: base64 text needs no JSON
    escaping, so the intensity is written as it is."""
    head = json.dumps({
        "format_version": FORMAT_VERSION,
        "kind": "pure_library",
        "manifest": {
            "n_components": len(components),
            "checksum_sha256": library_checksum(components),
            "grid": to_json(grid),
            "grid_spec": to_json(grid_spec) if grid_spec else None,
        },
        "components": [],
    })
    # A 1 MB buffer makes one system call per megabyte, not per component.
    with open(path, "w", encoding="utf-8", newline="\n", buffering=1 << 20) as handle:
        handle.write(head[:-2])                 # all but the closing "]}"
        for index, comp in enumerate(components):
            if index:
                handle.write(", ")
            handle.write('{"id": %s, "params": %s, "intensity": "%s"}' % (
                json.dumps(comp.id), json.dumps(to_json(comp.params)),
                encode_array(comp.intensity)))
        handle.write("]}\n")


def read_library(path):
    """The components, grid and manifest of the library file at ``path``.

    The file is streamed: each component is decoded to its arrays before
    the next is read, so a read holds neither the file's text nor its whole
    JSON tree.  Keys may come in any order (the last of a duplicate wins,
    as in ``json.load``) and data after the closing brace is refused.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = _JsonStream(handle, path).library_payload()
    _check_version(payload, "pure_library")
    manifest = _require(payload, "manifest", dict)
    grid = from_json(SpectrumGrid, _require(manifest, "grid"), "manifest.grid")
    if manifest.get("grid_spec") is not None:
        from_json(LibraryGridSpec, manifest["grid_spec"], "manifest.grid_spec")
    entries = _require(payload, "components", list)
    stated = _require(manifest, "n_components", int)
    if stated != len(entries):
        raise DataFormatError(f"manifest.n_components is {stated}, but the file "
                              f"holds {len(entries)} components")
    components = []
    for comp_id, params, intensity in entries:
        if intensity.size != grid.n_points:
            raise DataFormatError(
                f"component {comp_id!r}: intensity length "
                f"{intensity.size} != n_points {grid.n_points}")
        components.append(PureComponent(id=comp_id, params=params, grid=grid,
                                        intensity=intensity))
    expected = _require(manifest, "checksum_sha256", str)
    actual = library_checksum(components)
    if actual != expected:
        raise DataFormatError("library checksum mismatch (file corrupted?)")
    return components, grid, manifest


# Characters read from a library file at a time.
READ_CHUNK = 1 << 20
# How far short of the end of its text a cut token can stop a decode: a cut
# literal ("-Infinit") or escape ("\ud83d\ude0") fails where it starts, and
# a cut number ("1.", "1e") parses short of the cut.
_CUT_MARGIN = 16
_WHITESPACE = json.decoder.WHITESPACE
_DECODER = json.JSONDecoder()


class _JsonStream:
    """JSON values decoded one at a time from a text handle read in chunks
    of READ_CHUNK characters.  It holds only the text not yet decoded."""

    def __init__(self, handle, path):
        self.handle, self.path = handle, path
        self.text = ""
        self.pos = 0          # next character of ``text`` to decode
        self.start = 0        # the file position of ``text[0]``

    def _more(self) -> bool:
        """Drop the decoded text and append the next chunk; False at the end
        of the file."""
        chunk = self.handle.read(READ_CHUNK)
        if not chunk:
            return False
        self.start += self.pos
        self.text = self.text[self.pos:] + chunk
        self.pos = 0
        return True

    def error(self, what: str, pos=None) -> DataFormatError:
        at = self.start + (self.pos if pos is None else pos)
        return DataFormatError(f"{self.path}: not valid JSON at character {at}: {what}")

    def peek(self) -> str:
        """Skip whitespace; the next character, or "" at the end of the file."""
        while True:
            self.pos = _WHITESPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text) or not self._more():
                return self.text[self.pos:self.pos + 1]

    def take(self, allowed: str) -> str:
        """Consume the next character, which must be one of ``allowed``."""
        char = self.peek()
        if not char or char not in allowed:
            raise self.error(f"expecting one of {allowed!r}")
        self.pos += 1
        return char

    def value(self):
        """Decode the next value.  A decode that fails or stops near the end
        of the text may have met a cut token, so it is retried with the next
        chunk appended; at the end of the file it stands."""
        self.peek()
        while True:
            try:
                value, end = _DECODER.raw_decode(self.text, self.pos)
            except json.JSONDecodeError as exc:
                cut = (exc.msg.startswith("Unterminated string")
                       or exc.pos + _CUT_MARGIN >= len(self.text))
                if cut and self._more():
                    continue
                raise self.error(exc.msg, exc.pos) from None
            if end + _CUT_MARGIN < len(self.text) or not self._more():
                self.pos = end
                return value

    def members(self, opening: str, closing: str):
        """Consume a bracketed sequence, yielding before each member; the
        caller consumes the member."""
        self.take(opening)
        if self.peek() == closing:
            self.pos += 1
            return
        while True:
            yield
            if self.take("," + closing) == closing:
                return

    def library_payload(self) -> dict:
        """The file's top-level object, with a ``components`` list held as
        (id, params, intensity) per component: each entry is decoded, and
        its dict and text dropped, before the next is read."""
        payload = {}
        for _ in self.members("{", "}"):
            key = self.value()
            if not isinstance(key, str):
                raise self.error("expecting a property name")
            self.take(":")
            if key == "components" and self.peek() == "[":
                if "format_version" in payload and "kind" in payload:
                    # another kind of file is refused before any entry is decoded
                    _check_version(payload, "pure_library")
                payload[key] = [_component_entry(self.value(), index)
                                for index, _ in enumerate(self.members("[", "]"))]
            else:
                payload[key] = self.value()
        if self.peek():
            raise self.error("trailing data after the library object")
        return payload


def _component_entry(entry, index: int) -> tuple:
    where = f"components[{index}]"
    if not isinstance(entry, dict):
        raise DataFormatError(f"{where} must be a JSON object")
    return (_require(entry, "id", str),
            from_json(QuadrupolarParams, _require(entry, "params"), f"{where}.params"),
            decode_array(_require(entry, "intensity", str), "intensity"))


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
        "format_version": FORMAT_VERSION,
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
    rows = [decode_array(text, f"spectra[{i}]")
            for i, text in enumerate(_require(payload, "spectra", list))]
    lengths = {row.size for row in rows}
    if len(lengths) != 1 or lengths.pop() != grid.n_points:
        raise DataFormatError("spectra: rows must all have length n_points")
    spectra = np.stack(rows)

    components = None
    noise = 0.0
    provenance = payload.get("provenance")
    if provenance:
        components = tuple(
            from_json(IntensitySeries, entry, f"provenance.components[{i}]")
            for i, entry in enumerate(_require(provenance, "components", list)))
        noise = float(provenance.get("noise_factor", 0.0))
    return MixtureDataset(grid=grid, spectra=spectra, components=components,
                          noise_factor=noise,
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
    comps = np.stack([decode_array(t, f"components[{i}]")
                      for i, t in enumerate(_require(payload, "components", list))])
    coeff = np.stack([decode_array(t, f"coefficients[{i}]")
                      for i, t in enumerate(_require(payload, "coefficients", list))])
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
        converged=bool(_require(payload, "converged")),
        runtime_seconds=float(payload.get("runtime_seconds", 0.0)),
        meta=payload.get("meta") or {}), grid


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
