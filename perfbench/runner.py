"""Run ops and passes of a workload and check every output.

The library is called the way the ``cstarlab`` CLI calls it:
``gen_instance`` -> ``run_pipeline`` (default experimental budget) ->
``serialize.dumps``.  Calls go through module attributes, so that wrappers
installed by :mod:`tracer` are seen.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from cstarlab import instances, pipelines, serialize

from workloads import Op, Workload, op_seed

# Certificates whose ceiling is below this are tolerance-only checks whose
# achieved values are round-off; they are left out of the ratio metrics.
RATIO_MIN_CEILING = 1e-6


@dataclass
class OpResult:
    op: Op
    seed: int
    start: float
    end: float
    report: str | None = None
    error: str | None = None
    # achieved / ceiling for each certificate with ceiling >= RATIO_MIN_CEILING
    ratios: dict[str, float] = field(default_factory=dict)
    # Raw seconds of the op, and the factor that turns them into seconds at
    # reference machine speed (speed.py).
    seconds: float = 0.0
    speed: float = 1.0

    def __post_init__(self):
        self.seconds = self.end - self.start


def check_report(text: str, instance, op: Op) -> tuple[str | None, dict]:
    """Check one serialized report; return (first failed check or None,
    achieved/ceiling ratios of its certificates)."""
    data = serialize.loads(text)
    if serialize.dumps(data) != text:
        return "re-dump after round trip differs", {}
    if data["ok"] is not True:
        return "report not ok", {}
    ratios = {}
    for key, cert in data["certificates"].items():
        if not cert.achieved <= cert.ceiling + cert.slack or cert.verdict == "fail":
            return (f"certificate {key}: verdict {cert.verdict}, achieved "
                    f"{cert.achieved!r}, ceiling {cert.ceiling!r}"), {}
        if cert.ceiling >= RATIO_MIN_CEILING:
            ratios[key] = cert.achieved / cert.ceiling
    if op.pipeline == "dist":
        lo, hi = data["notes"]["interval"]["lo"], data["notes"]["interval"]["hi"]
        u = instance.true_unitary
        bound = 2.0 * np.linalg.norm(u - np.eye(u.shape[0]), 2)
        if not lo <= hi:
            return f"interval lo {lo!r} > hi {hi!r}", {}
        if not lo <= bound:
            return f"interval lo {lo!r} above the conjugation bound {bound!r}", {}
    return None, ratios


def run_op(op: Op, seed: int, tracer=None) -> OpResult:
    """Time one op (generate, run, serialize), then check its output outside
    the timed and traced region.  Any exception counts as a failed op."""
    t0 = time.perf_counter()
    try:
        with tracer if tracer is not None else contextlib.nullcontext():
            instance = instances.gen_instance(op.recipe, op.params, seed=seed)
            report = pipelines.run_pipeline(instance, op.pipeline, seed=seed)
            text = serialize.dumps(report)
    except Exception as exc:  # one failed op must not end the run
        return OpResult(op, seed, t0, time.perf_counter(),
                        error=f"{type(exc).__name__}: {exc}")
    res = OpResult(op, seed, t0, time.perf_counter(), report=text)
    try:
        res.error, res.ratios = check_report(text, instance, op)
    except Exception as exc:
        res.error = f"check raised {type(exc).__name__}: {exc}"
    return res


@dataclass
class Pass:
    results: list[OpResult]

    def wall_s(self, normalized: bool = False) -> float:
        return sum(_secs(r, normalized) for r in self.results)


def _secs(r: OpResult, normalized: bool) -> float:
    return r.seconds * r.speed if normalized else r.seconds


def run_pass(workload: Workload, ops, seed: int, pass_index: int,
             tracer=None, meter=None) -> Pass:
    """Run the op list once, one op at a time (closed loop).  The pass's
    wall time is the sum of its op times, so the checks are not in it.  With
    a running speed meter, the meter's own time is taken out of each op and
    the op gets its speed factor (call `set_speeds` once the run is over, so
    that samples after the op count too)."""
    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        res = run_op(op, op_seed(workload.name, seed, pass_index, i), tracer)
        if meter is not None:
            res.seconds -= meter.busy(res.start, res.end)
        results.append(res)
    return Pass(results)


def set_speeds(passes: list[Pass], meter) -> None:
    for r in (r for p in passes for r in p.results):
        r.speed = meter.factor(r.start, r.end)


def timing(passes: list[Pass], normalized: bool = False) -> dict:
    """The time metrics of a run (see BENCHMARK.json); with `normalized`,
    times are at reference machine speed (speed.py)."""
    results = [r for p in passes for r in p.results]
    return {
        "wall_s": statistics.median(p.wall_s(normalized) for p in passes),
        "op_p50_s": statistics.median(_secs(r, normalized) for r in results),
        "op_max_s": statistics.median(max(_secs(r, normalized) for r in p.results)
                                      for p in passes),
    }


def certificate_ratios(passes: list[Pass]) -> dict:
    """Certificate tightness over a run, from achieved / ceiling.

    cert_ratio_max is the largest, over certificate names, of the median
    ratio of that certificate in the run: the worst certificate on a typical
    instance.  cert_ratio_worst is the plain maximum, which moves by a
    quarter between seeds where a few certificates make it."""
    by_name: dict[str, list[float]] = {}
    for r in (r for p in passes for r in p.results):
        for key, ratio in r.ratios.items():
            by_name.setdefault(key, []).append(ratio)
    ratios = [x for xs in by_name.values() for x in xs]
    return {
        "cert_ratio_max": max((statistics.median(xs) for xs in by_name.values()),
                              default=0.0),
        "cert_ratio_mean": statistics.fmean(ratios) if ratios else 0.0,
        "cert_ratio_worst": max(ratios, default=0.0),
    }
