"""Machine-checkable certificates, the paper's bounds and the track.

Every quantitative claim produced by this package is wrapped in a
:class:`Certificate`, which stores its name, its numeric inputs, the achieved
value recomputed from the returned objects, a verdict and details.
Certificates are plain data and serialize to JSON; they carry no timestamps
so reruns from the same seed are byte-identical.

:data:`BOUNDS` is the one table of the paper's bounds: per certificate name,
the formula text, the ceiling as a function of the ``inputs``, the slack and
the hypothesis windows.  A certificate reads its formula, ceiling and slack
from its row, and its JSON states all three; ``Certificate.from_dict``
rebuilds every stored certificate through ``build``, so a file whose formula,
slack or ceiling is not the table's does not load.

The numeric tolerances are the constants below, which the routines read
directly.  The certification track is one run-level setting, :data:`TRACK`,
set with :func:`on_track`.  On the ``paper`` track :func:`require_window`
raises :class:`WindowError` when an input leaves its window; the
``experimental`` track neither enforces nor records the windows (ROADMAP
item 10), and still verifies every output bound a posteriori.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, asdict
from typing import Callable

import numpy as np


class WindowError(ValueError):
    """A hypothesis window required by the selected track is violated."""


class SpectralGapError(RuntimeError):
    """An eigenvalue landed inside a forbidden window, so a spectral
    projection needed by a construction is not well defined."""


class ContradictionError(ValueError):
    """Numerically impossible configuration: the supplied certificates are
    mutually inconsistent."""


class SchemaError(ValueError):
    """Malformed input data: a JSON document that does not match the
    expected schema (the message names the path of the offending field), or
    matrices with NaN or infinite entries."""


def require_finite(x, what: str) -> None:
    """Raise SchemaError unless every entry of x is finite; for the places
    where matrix data enters the package."""
    if not np.isfinite(x).all():
        raise SchemaError(f"{what} has a NaN or infinite entry")


# the JSON types a loaded field may be required to have; an integer is a JSON
# integer, not a bool or a fraction
JSON_TYPES = {"an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
              "a number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
              "a string": lambda v: isinstance(v, str), "a list": lambda v: isinstance(v, list),
              "an object": lambda v: isinstance(v, dict)}


def require_field(d: dict, key: str, path: str, kind: str):
    """d[key]; SchemaError naming ``<path>.<key>`` when it is missing or is
    not of the JSON type ``kind``, one of JSON_TYPES."""
    if key not in d:
        raise SchemaError(f"missing field {path}.{key}")
    if not JSON_TYPES[kind](d[key]):
        raise SchemaError(f"{path}.{key} is {d[key]!r}, not {kind}")
    return d[key]


# numeric tolerances
TOL_ALG = 1e-9          # *-algebra / homomorphism residuals
TOL_EXACT = 1e-12       # exactness claims (diagonals, units, round trips)
TOL_PSD = 1e-9          # Choi positivity slack
TOL_RANK = 1e-8         # relative rank / pseudoinverse cutoff
CLUSTER_REL = 1e-6      # relative eigenvalue clustering gap

# hypothesis windows of the quantitative lemmas (paper track)
WINDOW_DEFECT_REPAIR = 1.0 / 17.0        # multiplicativity repair input defect
WINDOW_INTERTWINE = 13.0 / 150.0         # one-sided gap feeding the intertwiner
WINDOW_ISO_ETA = 1.0 / 210000.0          # per-stage closeness for the iso chain
WINDOW_ISO_GAMMA = 1.0 / 420000.0        # distance for the two-sided isomorphism
WINDOW_ISO_MU = 1.0 / 2000.0             # drift budget parameter


@dataclass(frozen=True)
class Bound:
    """One bound of the table: the formula a certificate states, its ceiling
    from the certificate's inputs, the slack its verdict allows, and the
    hypothesis windows {input name: WINDOW_*} the paper track enforces."""

    formula: str
    ceiling: Callable[[dict], float]
    slack: float
    windows: dict


def _mu(gamma: float) -> float:
    """2 gamma + gamma^2, the order-zero witness distance."""
    return 2.0 * gamma + gamma ** 2


# every certificate the package builds, by name; the ceilings that vanish
# with their inputs take a rounding slack
BOUNDS = {
    "expectation-restriction": Bound(
        "||phi(x) - x|| <= 2*gamma + tol_alg on X",
        lambda i: 2.0 * i["gamma"] + TOL_ALG, 0.0, {}),
    "projection-conjugator": Bound(
        "||w - 1|| <= sqrt(2) * ||p - q||, w p w* = q",
        lambda i: np.sqrt(2.0) * i["beta"], TOL_EXACT, {}),
    "twirled-projection-drift": Bound(
        "||p0 - p|| <= 2 * gamma^{1/2}",
        lambda i: 2.0 * float(np.sqrt(max(i["gamma"], 0.0))), TOL_ALG, {}),
    "multiplicativity-repair": Bound(
        "sup_{||x||<=1} ||phi(x) - psi(x)|| <= 8 sqrt(2) gamma^{1/2}",
        lambda i: 8.0 * np.sqrt(2.0) * float(np.sqrt(max(i["gamma"], 0.0))), TOL_ALG,
        {"gamma": WINDOW_DEFECT_REPAIR}),
    "repaired-multiplicativity": Bound(
        "psi is a *-homomorphism: matrix-unit relation residual <= tol_alg",
        lambda i: TOL_ALG, 0.0, {}),
    "intertwiner-norm": Bound(
        "||u - 1|| <= 2 sqrt(2) gamma + 5 sqrt(2) delta",
        lambda i: 2.0 * np.sqrt(2.0) * i["gamma"] + 5.0 * np.sqrt(2.0) * i["delta"],
        TOL_ALG, {"gamma": WINDOW_INTERTWINE}),
    "intertwining-residual": Bound(
        "||u phi2(x) u* - phi1(x)|| <= "
        "(||phi1(x)s - s phi2(x)|| + ||[|s|, phi2(x)]||) * |||s|^{-1}||",
        lambda i: i["chain_bound"], TOL_ALG, {}),
    "iso-closeness": Bound(
        "||alpha(x) - x|| <= 8 sqrt(6) eta^{1/2} + eta + mu on X_A",
        lambda i: 8.0 * np.sqrt(6.0) * np.sqrt(i["eta"]) + i["eta"] + i["mu"], TOL_EXACT,
        {"eta": WINDOW_ISO_ETA, "mu": WINDOW_ISO_MU}),
    "homomorphism": Bound("matrix-unit relation residual <= tol_alg", lambda i: TOL_ALG, 0.0, {}),
    "image-membership": Bound(
        "relative HS residual of images in span(B) <= tol_alg before snapping",
        lambda i: TOL_ALG, 0.0, {}),
    "injectivity": Bound(
        "||alpha(x)|| >= ||x|| - (8 sqrt(6) eta^{1/2} + eta + nu)",
        lambda i: 8.0 * np.sqrt(6.0) * np.sqrt(i["eta"]) + i["eta"] + i["nu"], TOL_EXACT, {}),
    "surjectivity": Bound(
        "sigma_min(alpha) > tol_alg and dim A = dim B with alpha(A) in B, "
        "so alpha is onto B; density_margin (8 sqrt(2) b + 2 nu + b + "
        "2 delta, the paper's window quantity) is not checked", lambda i: 0.0, 0.0, {}),
    "forward-closeness": Bound(
        "||theta(x) - x|| <= 28 gamma^{1/2} on X",
        lambda i: 28.0 * np.sqrt(i["gamma"]), TOL_EXACT, {"gamma": WINDOW_ISO_GAMMA}),
    "backward-closeness": Bound(
        "||theta^{-1}(y) - y|| <= 2 ||x - y|| + ||theta(x) - y|| <= 28 gamma^{1/2} on Y",
        lambda i: 28.0 * np.sqrt(i["gamma"]), TOL_EXACT, {}),
    "near-embedding": Bound(
        "||theta(x) - x|| <= 28 gamma^{1/2} on X",
        lambda i: 28.0 * np.sqrt(i["gamma"]), TOL_EXACT, {"gamma": WINDOW_ISO_GAMMA}),
    "half-flip-transport": Bound(
        "||phi(x) - x|| <= 8 alpha + 4 alpha^2 + 4 sqrt(2) gamma, "
        "alpha = (4 sqrt(2) + 1) gamma + 4 sqrt(2) gamma^2",
        lambda i: 8.0 * i["alpha"] + 4.0 * i["alpha"] ** 2 + 4.0 * np.sqrt(2.0) * i["gamma"],
        0.0, {}),
    "unitary-implementation": Bound(
        "u x u* = alpha(x) on the basis; ||u - 1|| <= 2 sqrt(2) gamma "
        "+ 5 sqrt(2) delta; u A u* = B as subspaces", lambda i: TOL_ALG, 0.0, {}),
    "order-zero-perturbation": Bound(
        "||phi - psi||_cb <= (2 gamma + gamma^2)(2 + 2 gamma + gamma^2)",
        lambda i: _mu(i["gamma"]) * (2.0 + _mu(i["gamma"])), TOL_ALG, {}),
    "nucdim-decomposition": Bound(
        "sup_X ||psi(phi(x)) - x|| <= eps; down cpc, ups order zero, composite cpc",
        lambda i: i["eps"], 0.0, {}),
    "nucdim-transfer": Bound(
        "||phi(x) - x|| <= 2 (n+1) (2 gamma + gamma^2)(2 + 2 gamma + gamma^2) + eps on X",
        lambda i: 2.0 * (i["n"] + 1) * _mu(i["gamma"]) * (2.0 + _mu(i["gamma"])) + i["eps"],
        TOL_ALG, {}),
    "nucdim-near-embedding": Bound(
        "||theta(x) - x|| <= 20 eta^{1/2}, "
        "eta = 2 (n+1) (2 gamma + gamma^2)(2 + 2 gamma + gamma^2)",
        lambda i: 20.0 * np.sqrt(i["eta"]), TOL_EXACT, {"eta": WINDOW_ISO_ETA}),
    "distance-interval": Bound(
        "sampled d(A, B) within the constructive recipe bound",
        lambda i: i["recipe_bound"], TOL_ALG, {}),
}


# the certification track of the run: "paper" enforces the windows of
# BOUNDS, "experimental" does not; set only through on_track
TRACK: ContextVar[str] = ContextVar("track", default="experimental")


@contextmanager
def on_track(track: str):
    """Run the body of a ``with`` block on the given track."""
    if track not in ("paper", "experimental"):
        raise ValueError(f"unknown track {track!r}")
    token = TRACK.set(track)
    try:
        yield
    finally:
        TRACK.reset(token)


def require_window(name: str, **values: float) -> None:
    """On the paper track, demand each input that ``BOUNDS[name]`` windows
    within its window; every windowed input must be given, on either track."""
    for key, window in BOUNDS[name].windows.items():
        if values[key] > window and TRACK.get() == "paper":
            raise WindowError(f"{name}: {key} = {values[key]:.6g} exceeds the "
                              f"paper-track window {window:.6g}")


@dataclass
class Certificate:
    """One certified quantitative claim: its name, inputs, achieved value,
    verdict and details.  Its formula, ceiling and slack are read from
    ``BOUNDS[name]`` and its inputs.  verdict is "pass" iff achieved <=
    ceiling + slack, else "fail"; a verifier may also set "fail" on a
    certificate within its ceiling when an invariant it checks fails.
    ``from_dict`` rebuilds a stored certificate through ``build``.  The
    run's provenance is the report's, not the certificate's.
    """

    name: str
    inputs: dict
    achieved: float
    verdict: str
    details: dict

    @classmethod
    def build(cls, name: str, inputs: dict, achieved: float,
              details: dict | None = None) -> "Certificate":
        bound = BOUNDS[name]
        inputs = {k: _plain(v) for k, v in inputs.items()}
        passed = achieved <= float(bound.ceiling(inputs)) + bound.slack
        return cls(name=name, inputs=inputs, achieved=float(achieved),
                   verdict="pass" if passed else "fail", details=dict(details or {}))

    @property
    def formula(self) -> str:
        return BOUNDS[self.name].formula

    @property
    def ceiling(self) -> float:
        return float(BOUNDS[self.name].ceiling(self.inputs))

    @property
    def slack(self) -> float:
        return float(BOUNDS[self.name].slack)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {**asdict(self), "formula": self.formula, "ceiling": self.ceiling,
                "slack": self.slack, "kind": "certificate", "schema_version": 2}

    @classmethod
    def from_dict(cls, d: dict, path: str) -> "Certificate":
        """The stored certificate d at JSON path ``path``, rebuilt with
        ``build`` from its name, inputs, achieved value and details.

        Raises SchemaError naming ``<path>.<field>`` for a missing required
        field, an unknown field, a ceiling, achieved value or slack that is
        not a number, inputs or details that are not an object, a verdict
        other than "pass" or "fail", a name that is not in BOUNDS, inputs
        its ceiling cannot be computed from, and a stored formula, slack or
        ceiling that differs from the rebuilt one.  The stored verdict is
        kept: a "pass" above ceiling + slack loads, and its readers judge
        it.
        """
        for key in _REQUIRED:
            if key not in d:
                raise SchemaError(f"missing field {path}.{key}")
        if unknown := sorted(set(d) - _FIELDS):
            raise SchemaError(f"unknown field {path}.{unknown[0]}")
        for key, kind in (("ceiling", "a number"), ("achieved", "a number"), ("slack", "a number"),
                          ("inputs", "an object"), ("details", "an object")):
            if key in d:
                require_field(d, key, path, kind)
        if d["verdict"] not in ("pass", "fail"):
            raise SchemaError(f"{path}.verdict is {d['verdict']!r}, not 'pass' or 'fail'")
        if not isinstance(d["name"], str) or d["name"] not in BOUNDS:
            raise SchemaError(f"{path}.name is {d['name']!r}, not a certificate of certs.BOUNDS")
        try:
            cert = cls.build(d["name"], d["inputs"], d["achieved"], d.get("details"))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{path}.inputs do not give the ceiling of {d['name']!r} "
                              f"({type(exc).__name__}: {exc})") from exc
        for key in ("formula", "slack", "ceiling"):
            if key in d and d[key] != getattr(cert, key):
                raise SchemaError(f"{path}.{key} is {d[key]!r}, but BOUNDS gives "
                                  f"{getattr(cert, key)!r} for its inputs")
        cert.verdict = d["verdict"]
        return cert


# the fields of a stored certificate: those it must carry, then the rest
_REQUIRED = ("name", "formula", "inputs", "ceiling", "achieved", "verdict")
_FIELDS = set(_REQUIRED) | {"slack", "details", "kind", "schema_version"}


def _plain(v):
    """A numpy scalar as the Python number it holds; anything else as is."""
    return v.item() if isinstance(v, np.generic) else v
