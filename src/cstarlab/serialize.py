"""JSON persistence for the laboratory's files: reports and instances.

Matrices are stored densely as parallel row-major real and imaginary lists,
so a round trip is bit-exact at double precision (Python emits
shortest-round-trip decimal literals).  Every composite object carries a
"kind" tag and its kind's "schema_version"; the loader dispatches on the tag,
refuses another version, and names the JSON path of each schema violation.

The kinds a file carries: "report" (a pipeline's output, read back as a
plain dict), "instance" (with its two "concrete_algebra" values), and inside
them "certificate" and "matrix", around plain numbers, strings and lists.
A certificate loads through ``Certificate.from_dict``, which rebuilds it
from ``certs.BOUNDS`` and refuses one the table would not give.  Any other
value with a ``to_dict`` is written through it and read back as a plain
dict, and any value without one (a ``LinMap``, an ``FDAlgebra``) raises
TypeError.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import ConcreteAlgebra
from .certs import (JSON_TYPES, SCHEMA_VERSIONS, Certificate, SchemaError, require_field,
                    require_finite, require_version)

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


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("only two-dimensional arrays are stored")
    return {"kind": "matrix", "schema_version": SCHEMA_VERSIONS["matrix"],
            "rows": m.shape[0], "cols": m.shape[1],
            "re": [float(v) for v in m.real.reshape(-1)],
            "im": [float(v) for v in m.imag.reshape(-1)]}


def matrix_from_json(d: dict, path: str) -> np.ndarray:
    if not isinstance(d, dict):
        raise SchemaError(f"{path} is {d!r}, not a matrix")
    require_version(d, "matrix", path)
    rows, cols = (require_field(d, key, path, "an integer") for key in ("rows", "cols"))
    if rows < 0 or cols < 0:
        raise SchemaError(f"invalid shape at {path}.rows/cols")
    parts = []
    for key in ("re", "im"):
        v = require_field(d, key, path, "a list")
        if len(v) != rows * cols:
            raise SchemaError(f"{path}.{key} has {len(v)} entries, expected {rows * cols}")
        for i, x in enumerate(v):
            if not JSON_TYPES["a number"](x):
                raise SchemaError(f"{path}.{key}[{i}] is {x!r}, not a number")
        parts.append(np.array(v, dtype=float))
        require_finite(parts[-1], f"{path}.{key}")
    return (parts[0] + 1j * parts[1]).reshape(rows, cols)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def to_jsonable(obj):
    """Convert a laboratory value into plain JSON-ready data."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (np.floating, np.integer, np.bool_)):  # as the Python value it holds
        return obj.item()
    if isinstance(obj, np.ndarray):
        return matrix_to_json(obj)
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, ConcreteAlgebra):
        return {"kind": "concrete_algebra", "schema_version": SCHEMA_VERSIONS["concrete_algebra"],
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
    if kind in ("concrete_algebra", "instance", "report"):
        require_version(d, kind, path)
    if kind == "concrete_algebra":
        N = require_field(d, "ambient_dim", path, "an integer")
        basis = [matrix_from_json(b, f"{path}.basis[{i}]")
                 for i, b in enumerate(require_field(d, "basis", path, "a list"))]
        support = matrix_from_json(require_field(d, "support", path, "an object"),
                                   f"{path}.support")
        try:
            return ConcreteAlgebra(ambient_dim=N, basis=tuple(basis), support=support)
        except ValueError as exc:  # its message opens with the field it refuses
            raise SchemaError(f"{path}.{exc}") from exc
    if kind == "certificate":
        return Certificate.from_dict(d, path)
    if kind == "instance":
        from .instances import Instance
        A, B = (from_jsonable(require_field(d, key, path, "an object"), f"{path}.{key}")
                for key in "AB")
        if bad := [key for key, v in zip("AB", (A, B)) if not isinstance(v, ConcreteAlgebra)]:
            raise SchemaError(f"{path}.{bad[0]} is not a concrete_algebra")
        tu = d.get("true_unitary")
        return Instance(
            A=A, B=B, recipe=require_field(d, "recipe", path, "a string"),
            params=from_jsonable(require_field(d, "params", path, "an object"), f"{path}.params"),
            true_unitary=None if tu is None else matrix_from_json(tu, f"{path}.true_unitary"),
            seed=require_field(d, "seed", path, "an integer"))
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
