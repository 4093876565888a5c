"""JSON persistence for the laboratory's files: reports and instances.

Matrices are stored densely as parallel row-major real and imaginary lists,
so a round trip is bit-exact at double precision (Python emits
shortest-round-trip decimal literals).  Every composite object carries a
"kind" tag and a "schema_version"; the loader dispatches on the tag and
reports schema violations with the JSON path of the offending field.

The kinds a file carries: "report" (a pipeline's output, read back as a
plain dict), "instance" (with its two "concrete_algebra" values), and inside
them "certificate" and "matrix", around plain numbers, strings and lists.
Any other value with a ``to_dict`` is written through it and read back as a
plain dict, and any value without one (a ``LinMap``, an ``FDAlgebra``)
raises TypeError.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import ConcreteAlgebra
from .certs import Certificate, SchemaError, require_finite

__all__ = [
    "SchemaError",
    "matrix_to_json",
    "matrix_from_json",
    "to_jsonable",
    "from_jsonable",
    "save",
    "load",
    "dumps",
    "loads",
]


def _need(d: dict, key: str, path: str):
    if key not in d:
        raise SchemaError(f"missing field {path}.{key}")
    return d[key]


# the fields of a stored certificate: those it must carry, then the rest
_CERT_REQUIRED = ("name", "formula", "inputs", "ceiling", "achieved", "verdict")
_CERT_FIELDS = set(_CERT_REQUIRED) | {"slack", "provenance", "details", "kind", "schema_version"}


def _certificate_from_json(d: dict, path: str) -> Certificate:
    """A certificate, after checking that it carries every required field, no
    unknown one, numbers for its ceiling, achieved value and slack, objects
    for its inputs, provenance and details, and a verdict of "pass" or
    "fail".  Whether its ceiling is the one its inputs give, and whether a
    "pass" lies within it, is left to the reader of the file (``cstarlab
    report`` refuses a certificate on either count)."""
    for key in _CERT_REQUIRED:
        _need(d, key, path)
    unknown = sorted(set(d) - _CERT_FIELDS)
    if unknown:
        raise SchemaError(f"unknown field {path}.{unknown[0]}")
    for key in ("ceiling", "achieved", "slack"):
        v = d.get(key, 0.0)
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SchemaError(f"{path}.{key} is {v!r}, not a number")
    for key in ("inputs", "provenance", "details"):
        if not isinstance(d.get(key, {}), dict):
            raise SchemaError(f"{path}.{key} is {d[key]!r}, not an object")
    if d["verdict"] not in ("pass", "fail"):
        raise SchemaError(f"{path}.verdict is {d['verdict']!r}, not 'pass' or 'fail'")
    return Certificate.from_dict(d)


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("only two-dimensional arrays are stored")
    return {"kind": "matrix", "schema_version": 1,
            "rows": m.shape[0], "cols": m.shape[1],
            "re": [float(v) for v in m.real.reshape(-1)],
            "im": [float(v) for v in m.imag.reshape(-1)]}


def matrix_from_json(d: dict, path: str) -> np.ndarray:
    rows, cols = _need(d, "rows", path), _need(d, "cols", path)
    re, im = _need(d, "re", path), _need(d, "im", path)
    if not (isinstance(rows, int) and isinstance(cols, int)
            and rows >= 0 and cols >= 0):
        raise SchemaError(f"invalid shape at {path}.rows/cols")
    if len(re) != rows * cols:
        raise SchemaError(f"{path}.re has {len(re)} entries, expected {rows * cols}")
    if len(im) != rows * cols:
        raise SchemaError(f"{path}.im has {len(im)} entries, expected {rows * cols}")
    re, im = np.array(re, dtype=float), np.array(im, dtype=float)
    require_finite(re, f"{path}.re")
    require_finite(im, f"{path}.im")
    return (re + 1j * im).reshape(rows, cols)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def to_jsonable(obj):
    """Convert a laboratory value into plain JSON-ready data."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return matrix_to_json(obj)
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, Certificate):
        return to_jsonable(obj.to_dict())
    if isinstance(obj, ConcreteAlgebra):
        return {"kind": "concrete_algebra", "schema_version": 1,
                "ambient_dim": obj.ambient_dim,
                "basis": [matrix_to_json(b) for b in obj.basis],
                "support": matrix_to_json(obj.support)}
    if hasattr(obj, "to_dict"):
        return to_jsonable(obj.to_dict())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def from_jsonable(d, path: str = "$"):
    """Rebuild a laboratory value from tagged JSON data; plain values and
    untagged containers come back as-is."""
    if isinstance(d, list):
        return [from_jsonable(v, f"{path}[{i}]") for i, v in enumerate(d)]
    if not isinstance(d, dict):
        return d
    kind = d.get("kind")
    if kind is None:
        return {k: from_jsonable(v, f"{path}.{k}") for k, v in d.items()}
    if kind == "matrix":
        return matrix_from_json(d, path)
    if kind == "concrete_algebra":
        N = int(_need(d, "ambient_dim", path))
        basis = [matrix_from_json(b, f"{path}.basis[{i}]")
                 for i, b in enumerate(_need(d, "basis", path))]
        support = matrix_from_json(_need(d, "support", path), f"{path}.support")
        try:
            return ConcreteAlgebra(ambient_dim=N, basis=tuple(basis), support=support)
        except ValueError as exc:  # its message opens with the field it refuses
            raise SchemaError(f"{path}.{exc}") from exc
    if kind == "certificate":
        return _certificate_from_json(d, path)
    if kind == "instance":
        from .instances import Instance
        tu = d.get("true_unitary")
        return Instance(
            A=from_jsonable(_need(d, "A", path), f"{path}.A"),
            B=from_jsonable(_need(d, "B", path), f"{path}.B"),
            recipe=str(_need(d, "recipe", path)),
            params=from_jsonable(_need(d, "params", path), f"{path}.params"),
            true_unitary=None if tu is None else matrix_from_json(tu, f"{path}.true_unitary"),
            seed=int(_need(d, "seed", path)))
    # reports and other tagged summaries come back as plain dicts
    return {k: from_jsonable(v, f"{path}.{k}") for k, v in d.items()}


def dumps(obj) -> str:
    return json.dumps(to_jsonable(obj), indent=2, sort_keys=True)


def loads(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    return from_jsonable(data)


def save(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
