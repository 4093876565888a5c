"""Experiment orchestration: run the module operations in their natural
order on a generated instance and collect every certificate into one report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certs import TOL_ALG, Certificate, ToleranceBudget, DEFAULT_BUDGET, provenance_stamp
from .cpmaps import LinMap
from .geometry import SampleSpec, kk_distance
from .instances import Instance
from .intertwine import close_isomorphism, implement_unitarily
from .linalg import dagger, opnorm, rng_for
from .orderzero import (OrderZeroMap, identity_decomposition,
                        near_embed_nucdim, perturb_order_zero)

__all__ = ["Report", "PIPELINES", "run_pipeline", "render_report",
           "conjugation_iso"]

PIPELINES = ("dist", "iso", "unitary", "oz-perturb", "oz-embed")


@dataclass
class Report:
    pipeline: str
    seed: int
    recipe: str
    certificates: dict
    notes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.certificates.values())

    def to_dict(self) -> dict:
        from .serialize import to_jsonable
        return {"kind": "report", "schema_version": 1,
                "pipeline": self.pipeline, "seed": self.seed,
                "recipe": self.recipe, "ok": self.ok,
                "certificates": {k: c.to_dict() for k, c in self.certificates.items()},
                "notes": to_jsonable(self.notes)}


def conjugation_iso(instance: Instance) -> LinMap:
    """The exact isomorphism x -> u x u* carried by a conjugation instance."""
    u = instance.true_unitary
    if u is None:
        raise ValueError("instance carries no generating unitary")
    A = instance.A
    return LinMap(A, A.ambient_dim, u @ A.basis @ dagger(u), codomain_algebra=instance.B)


def _gamma_source(instance: Instance, seed: int, samples: int,
                  notes: dict) -> float:
    hint = instance.dist_hint()
    if hint is not None:
        notes["gamma_source"] = "conjugation-bound"
        return hint
    spec = SampleSpec(seed=seed, n_selfadjoint=samples, n_unitary=samples,
                      iters=200)
    notes["gamma_source"] = "sampled-distance"
    return float(kk_distance(instance.A, instance.B, spec=spec).hi)


def run_pipeline(instance: Instance, pipeline: str,
                 budget: ToleranceBudget = DEFAULT_BUDGET, seed: int = 0,
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
    certs: dict = {}

    if pipeline == "dist":
        spec = SampleSpec(seed=seed, n_selfadjoint=samples, n_unitary=samples,
                          iters=200)
        interval = kk_distance(A, B, spec=spec)
        hint = instance.dist_hint()
        ceiling = hint if hint is not None else 2.0
        certs["distance-interval"] = Certificate.build(
            name="distance-interval",
            formula="sampled d(A, B) within the constructive recipe bound",
            inputs={"samples": samples},
            ceiling=float(ceiling), achieved=float(interval.hi),
            slack=TOL_ALG,
            details={"lo": interval.lo, "hi": interval.hi,
                     "gamma_ab": interval.cert_ab.gamma_hi,
                     "gamma_ba": interval.cert_ba.gamma_hi},
            provenance=provenance_stamp(seed))
        notes["interval"] = {"lo": interval.lo, "hi": interval.hi}
        return Report(pipeline=pipeline, seed=seed, recipe=instance.recipe,
                      certificates=certs, notes=notes)

    gamma = _gamma_source(instance, seed, samples, notes)

    if pipeline == "iso":
        res = close_isomorphism(A, B, gamma, seed=seed, budget=budget)
        certs.update(res.certificates)
        notes["stages"] = len(res.trace)
        notes["eta"], notes["mu"], notes["nu"] = res.eta, res.mu, res.nu
        notes["converged"] = res.converged
        return Report(pipeline=pipeline, seed=seed, recipe=instance.recipe,
                      certificates=certs, notes=notes)

    if pipeline == "unitary":
        if instance.true_unitary is not None:
            theta = conjugation_iso(instance)
        else:
            res = close_isomorphism(A, B, gamma, seed=seed, budget=budget)
            certs.update(res.certificates)
            theta = res.map
        u, cert = implement_unitarily(theta, seed=seed, budget=budget)
        certs["unitary-implementation"] = cert
        notes["u_norm"] = float(opnorm(u - np.eye(A.ambient_dim)))
        return Report(pipeline=pipeline, seed=seed, recipe=instance.recipe,
                      certificates=certs, notes=notes)

    if pipeline == "oz-perturb":
        bm = A.block_model()
        fd = bm.fd
        pi = LinMap(fd, A.ambient_dim, bm.to_concrete(fd.units()), codomain_algebra=A)
        rng = rng_for(seed, "oz-damping")
        h = np.zeros((A.ambient_dim,) * 2, dtype=complex)
        for k in range(len(fd.block_sizes)):
            h = h + float(rng.uniform(0.4, 1.0)) * pi(fd.block_unit(k))
        oz = OrderZeroMap.from_pair(pi, h, codomain_algebra=A)
        psi, cert = perturb_order_zero(oz, B, gamma, seed=seed)
        certs["order-zero-perturbation"] = cert
        notes["cb_achieved"] = cert.achieved
        return Report(pipeline=pipeline, seed=seed, recipe=instance.recipe,
                      certificates=certs, notes=notes)

    # oz-embed
    dec = identity_decomposition(A)
    theta, cert = near_embed_nucdim(A, B, gamma, dec, seed=seed,
                                    budget=budget)
    certs["nucdim-near-embedding"] = cert
    notes["n_colors"] = dec.n + 1
    return Report(pipeline=pipeline, seed=seed, recipe=instance.recipe,
                  certificates=certs, notes=notes)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_report(report: Report, fmt: str = "table") -> str:
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
            lines.append(f"{key:<{width}}  {verdict:<9}  "
                         f"achieved {achieved:.6g}  ceiling {ceiling:.6g}")
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}; choose json, csv or table")
