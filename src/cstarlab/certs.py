"""Machine-checkable certificates and tolerance tracking.

Every quantitative claim produced by this package is wrapped in a
:class:`Certificate`: the ceiling formula as text, its numeric inputs, the
ceiling value, the achieved value recomputed from the returned objects, and a
verdict.  Certificates are plain data and serialize to JSON; they carry no
timestamps so reruns from the same seed are byte-identical.

The numeric tolerances are the module constants below (TOL_ALG, TOL_EXACT,
TOL_PSD, TOL_RANK, TOL_CONV, CLUSTER_REL), which the routines read directly.
:class:`ToleranceBudget` is only the certification track.  The ``paper``
track raises :class:`WindowError` when a quantity leaves a hypothesis window
under which the underlying theorems are stated; the ``experimental`` track
neither enforces nor records the windows (recording them is ROADMAP item
10), and still verifies every output bound a posteriori.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

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


# numeric tolerances
TOL_ALG = 1e-9          # *-algebra / homomorphism residuals
TOL_EXACT = 1e-12       # exactness claims (diagonals, units, round trips)
TOL_PSD = 1e-9          # Choi positivity slack
TOL_RANK = 1e-8         # relative rank / pseudoinverse cutoff
TOL_CONV = 1e-11        # iteration convergence (basis drift)
CLUSTER_REL = 1e-6      # relative eigenvalue clustering gap

# hypothesis windows of the quantitative lemmas (paper track)
WINDOW_DEFECT_REPAIR = 1.0 / 17.0        # multiplicativity repair input defect
WINDOW_INTERTWINE = 13.0 / 150.0         # one-sided gap feeding the intertwiner
WINDOW_ISO_ETA = 1.0 / 210000.0          # per-stage closeness for the iso chain
WINDOW_ISO_GAMMA = 1.0 / 420000.0        # distance for the two-sided isomorphism
WINDOW_OZ_PROJECTION = 1e-7              # order-zero projection heuristic
WINDOW_ISO_MU = 1.0 / 2000.0             # drift budget parameter


@dataclass
class Certificate:
    """One certified quantitative claim.

    verdict is "pass" iff achieved <= ceiling + slack, "heuristic" when the
    producing routine has no constructive guarantee and the bound was only
    checked a posteriori, else "fail".
    """

    name: str
    formula: str
    inputs: dict
    ceiling: float
    achieved: float
    verdict: str
    slack: float = 0.0
    provenance: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @classmethod
    def build(cls, name: str, formula: str, inputs: dict, ceiling: float,
              achieved: float, slack: float = 0.0, heuristic: bool = False,
              provenance: dict | None = None, details: dict | None = None) -> "Certificate":
        ok = achieved <= ceiling + slack
        verdict = "heuristic" if heuristic else ("pass" if ok else "fail")
        if heuristic and not ok:
            verdict = "fail"
        return cls(name=name, formula=formula,
                   inputs={k: _plain(v) for k, v in inputs.items()},
                   ceiling=float(ceiling), achieved=float(achieved),
                   verdict=verdict, slack=float(slack),
                   provenance=dict(provenance or {}),
                   details=dict(details or {}))

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass", "heuristic")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["kind"] = "certificate"
        d["schema_version"] = 1
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Certificate":
        d = dict(d)
        d.pop("kind", None)
        d.pop("schema_version", None)
        return cls(**d)


def _plain(v):
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.bool_,)):
        return bool(v)
    return v


@dataclass(frozen=True)
class ToleranceBudget:
    """The certification track; the tolerances are the module constants.

    track "paper": hypothesis windows are enforced and violations raise
    :class:`WindowError`.  track "experimental": windows are neither enforced
    nor recorded (``require_window`` does nothing; see ROADMAP item 10), and
    all output bounds are still certified a posteriori.
    """

    track: str = "experimental"

    def __post_init__(self):
        if self.track not in ("paper", "experimental"):
            raise ValueError(f"unknown track {self.track!r}")

    def require_window(self, name: str, value: float, window: float) -> None:
        """On the paper track, demand value <= window; always no-op otherwise."""
        if self.track == "paper" and value > window:
            raise WindowError(
                f"{name}: value {value:.6g} exceeds the paper-track window {window:.6g}")


DEFAULT_BUDGET = ToleranceBudget()
PAPER_BUDGET = ToleranceBudget(track="paper")


def provenance_stamp(seed=None, **extra) -> dict:
    """Uniform provenance payload for certificates (no timestamps)."""
    out = {"package": "cstarlab-0.1.0", "numpy": np.__version__}
    if seed is not None:
        out["seed"] = int(seed)
    out.update(extra)
    return out
