"""Reading and writing biframe systems as JSON manifests.

The on-disk format is deliberately plain: one JSON object with the scalar
field, the dimension, the weighted node list, the two sample families, the
target matrix, and (optionally) a claimed bound pair and a label.  Complex
scalars are two-element ``[re, im]`` arrays.  :func:`save` emits a canonical
form -- sorted keys, two-space indent, shortest round-tripping float
representation -- so saved manifests diff cleanly and ``load(save(x))``
reproduces ``x`` bit for bit.

The canonical form is, byte for byte, what ``json.dumps(doc,
sort_keys=True, indent=2)`` writes for the manifest document, and its layout
has not changed.  :func:`dumps` renders it from fixed templates instead,
because with ``indent`` set the standard library falls back to its
pure-Python encoder; strings still go through ``json.dumps``, so their
escaping is the standard one.  :func:`loads` checks a matrix's entry types on the set of types present
and converts the whole matrix in one ``numpy.array`` call; only a matrix that
fails that check or overflows is scanned entry by entry, to name the bad entry.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from ..biframe import BiframeSystem
from ..errors import (
    BiframeError,
    ManifestParseError,
    ManifestValidationError,
)
from ..measure import DiscreteMeasure

FORMAT_VERSION = 1

_TOP_LEVEL_FIELDS = {
    "format_version", "field", "dim", "measure", "F", "G", "K",
    "claimed_bounds", "label",
}


@dataclass(frozen=True)
class ManifestRecord:
    """A loaded manifest: the system plus its optional claim and label."""

    system: BiframeSystem
    claimed_bounds: tuple[float, float] | None = None
    label: str | None = None


def _fail(field: str, problem: str) -> ManifestValidationError:
    return ManifestValidationError(f"{field}: {problem}")


def _parse_scalar(value, complex_field: bool, where: str) -> complex | float:
    if isinstance(value, bool):
        raise _fail(where, "booleans are not numbers")
    try:
        if isinstance(value, (int, float)):
            return complex(value) if complex_field else float(value)
        if complex_field and isinstance(value, list) and len(value) == 2 \
                and all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in value):
            return complex(float(value[0]), float(value[1]))
    except OverflowError:
        raise _fail(where, "an integer beyond the float range") from None
    expected = "a number or [re, im] pair" if complex_field else "a number"
    raise _fail(where, f"expected {expected}, got {value!r}")


def _numbers(kinds) -> bool:
    """Whether every type in ``kinds`` passes :func:`_parse_scalar` as a number."""
    return all(issubclass(k, (int, float)) and not issubclass(k, bool) for k in kinds)


def _parse_matrix(rows, n_rows: int, n_cols: int, complex_field: bool, name: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != n_rows:
        raise _fail(name, f"expected {n_rows} rows")
    shaped = all(issubclass(k, list) for k in set(map(type, rows))) \
        and set(map(len, rows)) == {n_cols}
    kinds = set(map(type, chain.from_iterable(rows))) if shaped else set()
    scalar_kinds = {k for k in kinds if not issubclass(k, list)}
    if complex_field:
        pairs = [v for v in chain.from_iterable(rows) if isinstance(v, list)] if shaped else []
        valid = set(map(len, pairs)) <= {2} and _numbers(set(map(type, chain.from_iterable(pairs))))
    else:
        valid = scalar_kinds == kinds
    if shaped and valid and _numbers(scalar_kinds):
        if complex_field and scalar_kinds:
            rows = [[v if isinstance(v, list) else [v, 0.0] for v in row] for row in rows]
        try:
            mat = np.array(rows, dtype=np.float64)
        except OverflowError:
            pass  # an integer beyond the float range
        else:
            # a view keeps the sign of a -0.0 imaginary part, which re + 1j*im loses
            return mat.view(np.complex128)[..., 0] if complex_field else mat
    # the checks above accept what this scan accepts, and only this scan
    # rejects overflow, so it raises, naming the first bad row or entry
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n_cols:
            raise _fail(f"{name}[{i}]", f"expected a row of {n_cols} entries")
        for j, value in enumerate(row):
            _parse_scalar(value, complex_field, f"{name}[{i}][{j}]")


def loads(text: str) -> ManifestRecord:
    """Parse a manifest from a JSON string (see :func:`load`)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestParseError(
            f"not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})",
            line=exc.lineno,
            column=exc.colno,
        ) from exc
    except ValueError as exc:  # an integer literal past Python's int-string limit
        raise ManifestParseError(f"not valid JSON: {exc}") from exc

    if not isinstance(raw, dict):
        raise _fail("manifest", "top level must be a JSON object")
    unknown = set(raw) - _TOP_LEVEL_FIELDS
    if unknown:
        raise _fail(", ".join(sorted(unknown)), "unexpected field")
    for required in ("format_version", "field", "dim", "measure", "F", "G", "K"):
        if required not in raw:
            raise _fail(required, "missing required field")

    if raw["format_version"] != FORMAT_VERSION:
        raise _fail("format_version", f"expected {FORMAT_VERSION}, got {raw['format_version']!r}")
    if raw["field"] not in ("real", "complex"):
        raise _fail("field", f'must be "real" or "complex", got {raw["field"]!r}')
    complex_field = raw["field"] == "complex"

    dim = raw["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise _fail("dim", f"must be a positive integer, got {dim!r}")

    nodes = raw["measure"]
    if not isinstance(nodes, list) or not nodes:
        raise _fail("measure", "must be a non-empty list of nodes")
    ids: list[str] = []
    weights: list[float] = []
    for i, node in enumerate(nodes):
        if not isinstance(node, dict) or set(node) != {"id", "weight"}:
            raise _fail(f"measure[{i}]", 'each node needs exactly "id" and "weight"')
        if not isinstance(node["id"], str):
            raise _fail(f"measure[{i}].id", "must be a string")
        weight = node["weight"]  # int/float comparison is exact: no overflow, no NaN
        if type(weight) not in (int, float) or not 0 < weight <= sys.float_info.max:
            raise _fail(f"measure[{i}].weight", "weights strictly positive and finite required")
        ids.append(node["id"])
        weights.append(float(weight))
    if len(set(ids)) != len(ids):
        raise _fail("measure", "node ids must be unique")

    f_mat = _parse_matrix(raw["F"], len(nodes), dim, complex_field, "F")
    g_mat = _parse_matrix(raw["G"], len(nodes), dim, complex_field, "G")
    k_mat = _parse_matrix(raw["K"], dim, dim, complex_field, "K")

    claimed: tuple[float, float] | None = None
    if "claimed_bounds" in raw and raw["claimed_bounds"] is not None:
        pair = raw["claimed_bounds"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise _fail("claimed_bounds", "must be a [lower, upper] pair")
        lo, hi = (float(_parse_scalar(p, False, "claimed_bounds")) for p in pair)
        if not (np.isfinite(lo) and np.isfinite(hi) and 0 < lo <= hi):
            raise _fail("claimed_bounds", f"need finite 0 < lower <= upper, got [{lo}, {hi}]")
        claimed = (lo, hi)

    label = raw.get("label")
    if label is not None and not isinstance(label, str):
        raise _fail("label", "must be a string")

    try:
        system = BiframeSystem.from_samples(
            DiscreteMeasure(tuple(ids), np.array(weights)), f_mat, g_mat, k_mat
        )
    except (BiframeError, ValueError) as exc:
        # ValueError covers non-finite entries (JSON's Infinity/NaN literals
        # parse as floats and pass the schema checks above)
        raise ManifestValidationError(str(exc)) from exc
    return ManifestRecord(system=system, claimed_bounds=claimed, label=label)


def load(path) -> ManifestRecord:
    """Load and validate a manifest file.

    Syntactic problems raise :class:`ManifestParseError` (with line/column);
    schema problems raise :class:`ManifestValidationError` naming the field.
    """
    return loads(Path(path).read_text(encoding="utf-8"))


# one complex entry, nested at the depth of a matrix entry
_PAIR = "[\n        %r,\n        %r\n      ]"
_NODE = '{\n      "id": %s,\n      "weight": %r\n    }'


def _matrix_text(mat: np.ndarray) -> str:
    """``mat`` in the canonical layout, as the value of a top-level field.

    Entries are finite (the system validated them), so ``repr`` spells each
    float as ``json`` does.
    """
    n_rows, n_cols = mat.shape
    entry = _PAIR if np.iscomplexobj(mat) else "%r"
    row = "[\n      " + ",\n      ".join([entry] * n_cols) + "\n    ]"
    numbers = np.ascontiguousarray(mat).view(np.float64).ravel().tolist()
    return ("[\n    " + ",\n    ".join([row] * n_rows) + "\n  ]") % tuple(numbers)


def dumps(system: BiframeSystem, *, claimed_bounds=None, label: str | None = None) -> str:
    """Serialize a system to the canonical manifest string."""
    nodes = zip(map(json.dumps, system.measure.ids), system.measure.weights.tolist())
    fields = {
        "format_version": str(FORMAT_VERSION),
        "field": json.dumps(system.field_name),
        "dim": str(system.dim),
        "measure": "[\n    " + ",\n    ".join(_NODE % node for node in nodes) + "\n  ]",
        "F": _matrix_text(system.analysis.samples),
        "G": _matrix_text(system.synthesis.samples),
        "K": _matrix_text(system.target),
    }
    if claimed_bounds is not None:
        # json.dumps, not repr: a claim may be infinite
        lo, hi = json.dumps(float(claimed_bounds[0])), json.dumps(float(claimed_bounds[1]))
        fields["claimed_bounds"] = f"[\n    {lo},\n    {hi}\n  ]"
    if label is not None:
        fields["label"] = json.dumps(label)
    return "{\n" + ",\n".join(f'  "{key}": {fields[key]}' for key in sorted(fields)) + "\n}\n"


def save(system: BiframeSystem, path, *, claimed_bounds=None, label: str | None = None) -> None:
    """Write the canonical manifest for ``system`` (overwrites)."""
    Path(path).write_text(dumps(system, claimed_bounds=claimed_bounds, label=label),
                          encoding="utf-8")
