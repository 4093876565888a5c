"""Experiment orchestration: run the module operations in their natural
order on a generated instance and collect every certificate into one report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certs import Certificate
from .cpmaps import LinMap
from .geometry import kk_distance
from .instances import Instance, damping
from .intertwine import close_isomorphism, implement_unitarily
from .linalg import dagger, opnorm, rng_for
from .orderzero import (OrderZeroMap, identity_decomposition,
                        near_embed_nucdim, perturb_order_zero)

__all__ = ["Report", "PIPELINES", "run_pipeline", "render_report",
           "conjugation_iso"]

PIPELINES = ("dist", "iso", "unitary", "oz-perturb", "oz-embed")


@dataclass
class Report:
    """One pipeline run: its certificates, its notes, and the provenance
    (package and numpy versions) of every value in it; the seed is the
    run's ``seed``."""

    pipeline: str
    seed: int
    recipe: str
    certificates: dict
    notes: dict
    provenance: dict

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.certificates.values())

    def to_dict(self) -> dict:
        from .serialize import to_jsonable
        return {"kind": "report", "schema_version": 2,
                "pipeline": self.pipeline, "seed": self.seed,
                "recipe": self.recipe, "ok": self.ok,
                "provenance": self.provenance,
                "certificates": {k: c.to_dict() for k, c in self.certificates.items()},
                "notes": to_jsonable(self.notes)}


def conjugation_iso(instance: Instance) -> LinMap:
    """The exact isomorphism x -> u x u* carried by a conjugation instance."""
    u = instance.true_unitary
    if u is None:
        raise ValueError("instance carries no generating unitary")
    A = instance.A
    units = A.structure().matrix_units
    return LinMap(A, u @ units @ dagger(u), codomain_algebra=instance.B)


def _gamma_source(instance: Instance, seed: int, samples: int,
                  notes: dict) -> float:
    hint = instance.dist_hint()
    if hint is not None:
        notes["gamma_source"] = "conjugation-bound"
        return hint
    notes["gamma_source"] = "sampled-distance"
    return kk_distance(instance.A, instance.B, seed, samples).hi


def run_pipeline(instance: Instance, pipeline: str, seed: int,
                 samples: int = 32) -> Report:
    """Run one named pipeline on an instance and collect its certificates.

    dist: two-sided distance interval against the constructive bound when
    available.  iso: two-sided close isomorphism.  unitary: exact unitary
    implementation of the instance isomorphism.  oz-perturb: perturb a damped
    block embedding of A into B.  oz-embed: transfer the trivial
    decomposition of A into an embedding into B.
    """
    if pipeline not in PIPELINES:
        raise ValueError(f"unknown pipeline {pipeline!r}; choose one of {PIPELINES}")
    A, B = instance.A, instance.B
    notes: dict = {"ambient_dim": A.ambient_dim, "dim_A": A.dim, "dim_B": B.dim}
    certs = _certify(instance, pipeline, seed, samples, notes)
    return Report(pipeline=pipeline, seed=seed, recipe=instance.recipe,
                  certificates=certs, notes=notes,
                  provenance={"package": "cstarlab-0.1.0", "numpy": np.__version__})


def _certify(instance: Instance, pipeline: str, seed: int, samples: int,
             notes: dict) -> dict:
    """The certificates of one pipeline run, by name; its notes go into
    ``notes``."""
    A, B = instance.A, instance.B
    if pipeline == "dist":
        interval = kk_distance(A, B, seed, samples)
        hint = instance.dist_hint()
        notes["interval"] = {"lo": interval.lo, "hi": interval.hi}
        return {"distance-interval": Certificate.build(
            "distance-interval",
            {"samples": samples, "recipe_bound": float(hint if hint is not None else 2.0)},
            interval.hi,
            details={"lo": interval.lo, "hi": interval.hi,
                     "gamma_ab": interval.gamma_ab, "gamma_ba": interval.gamma_ba})}

    gamma = _gamma_source(instance, seed, samples, notes)

    if pipeline == "iso":
        res = close_isomorphism(A, B, gamma)
        notes["eta"], notes["mu"], notes["nu"] = res.eta, res.mu, res.nu
        return res.certificates

    if pipeline == "unitary":
        certs: dict = {}
        if instance.true_unitary is not None:
            theta = conjugation_iso(instance)
        else:
            res = close_isomorphism(A, B, gamma)
            certs.update(res.certificates)
            theta = res.map
        u, certs["unitary-implementation"] = implement_unitarily(theta)
        notes["u_norm"] = float(opnorm(u - np.eye(A.ambient_dim)))
        return certs

    if pipeline == "oz-perturb":
        struct = A.structure()
        pi = LinMap(struct.fd_model(), struct.matrix_units, codomain_algebra=A)
        h = damping(pi, rng_for(seed, "oz-damping"))
        oz = OrderZeroMap.from_pair(pi, h, codomain_algebra=A)
        psi, cert = perturb_order_zero(oz, B, gamma)
        notes["cb_achieved"] = cert.achieved
        return {"order-zero-perturbation": cert}

    # oz-embed
    dec = identity_decomposition(A)
    theta, cert = near_embed_nucdim(A, B, gamma, dec)
    notes["n_colors"] = dec.n + 1
    return {"nucdim-near-embedding": cert}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_report(report: Report, fmt: str) -> str:
    """Render a report as json, csv, or a human-readable table."""
    if fmt == "json":
        from .serialize import dumps
        return dumps(report)
    rows = [(key, c.verdict, c.achieved, c.ceiling, c.slack)
            for key, c in sorted(report.certificates.items())]
    if fmt == "csv":
        lines = ["certificate,verdict,achieved,ceiling,slack"]
        for key, verdict, achieved, ceiling, slack in rows:
            lines.append(f"{key},{verdict},{achieved!r},{ceiling!r},{slack!r}")
        return "\n".join(lines)
    if fmt == "table":
        header = (f"pipeline {report.pipeline} | recipe {report.recipe} | "
                  f"seed {report.seed} | {'OK' if report.ok else 'FAIL'}")
        lines = [header, "-" * len(header)]
        width = max([len(r[0]) for r in rows], default=10)
        for key, verdict, achieved, ceiling, slack in rows:
            lines.append(f"{key:<{width}}  {verdict:<4}  "
                         f"achieved {achieved:.6g}  ceiling {ceiling:.6g}")
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}; choose json, csv or table")
