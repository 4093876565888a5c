#!/usr/bin/env python3
"""Benchmark of the cstarlab pipelines, end to end and layer by layer.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports cstarlab from ``src/``.  One run
is one process with BLAS pinned to one thread.  It runs an untimed warm-up
op, then whole passes of the workload's fixed op list (see workloads.py),
checks every report and prints one JSON object as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0  end-to-end metrics, tracing off.  Set-up time is the median over
           several fresh processes of the time from process start to the end
           of the warm-up op.  Times are seconds at reference machine speed
           (speed.py); the raw seconds go to the detail file.
--trace 1  per-layer metrics: one untraced pass, then the same pass with
           every public cstarlab function wrapped (tracer.py).  The two passes
           must produce byte-identical reports.

Details of each run (context, per-op times, the full per-function table) go
to perfbench/out/<workload>-trace<0|1>.json, and the spans of a traced run to
perfbench/out/<workload>-spans.npz.
"""

import os

# Pinned before numpy is imported anywhere in this process or its children.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3

END_TO_END = {"wall_s": "s", "op_p50_s": "s", "op_max_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}

# Certificate tightness (runner.certificate_ratios).  It is fixed for a seed but
# moves by up to a quarter between seeds on scale, whose two ops give its
# only certificates, so it is reported without a bound: printed by every run
# and in the result of a traced run.  Compare it seed by seed.
CERT_METRICS = ("cert_ratio_max", "cert_ratio_mean")

PER_LAYER = (
    "linalg.opnorm.calls", "linalg.opnorm.self_s", "linalg.eigh_fun.calls",
    "linalg.eigh_fun.self_s", "linalg.self_s",
    "cpmaps.LinMap.__call__.calls", "cpmaps.LinMap.__call__.self_s",
    "cpmaps.mult_defect.calls", "cpmaps.mult_defect.incl_s",
    "cpmaps.arveson_restrict.incl_s", "cpmaps.stinespring.calls",
    "cpmaps.stinespring.incl_s", "cpmaps.cb_bracket.calls",
    "cpmaps.cb_bracket.incl_s", "cpmaps.classify.calls", "cpmaps.self_s",
    "averaging.exact_diagonal.calls", "averaging.exact_diagonal.self_s",
    "averaging.exact_diagonal.terms", "averaging.improve_multiplicativity.calls",
    "averaging.improve_multiplicativity.incl_s",
    "averaging.intertwining_unitary.calls",
    "averaging.intertwining_unitary.incl_s", "averaging.self_s",
    "intertwine.intertwining_iso.calls", "intertwine.intertwining_iso.incl_s",
    "intertwine.intertwining_iso.stages",
    "intertwine.intertwining_iso.tracked_points",
    "intertwine.implement_unitarily.incl_s", "intertwine.self_s",
    "geometry.nearest_in_span.calls", "geometry.nearest_in_span.self_s",
    "geometry.nearest_in_span.incl_s", "geometry.kk_distance.incl_s",
    "geometry.tensor_lift.calls", "geometry.tensor_lift.self_s",
    "geometry.self_s",
    "algebra.wedderburn_decompose.calls", "algebra.wedderburn_decompose.self_s",
    "algebra.self_s",
    "orderzero.perturb_order_zero.calls", "orderzero.perturb_order_zero.incl_s",
    "orderzero.nucdim_cpc_transfer.incl_s", "orderzero.self_s",
    "instances.gen_instance.incl_s",
    "pipelines.run_pipeline.dist.incl_s", "pipelines.run_pipeline.iso.incl_s",
    "pipelines.run_pipeline.unitary.incl_s",
    "pipelines.run_pipeline.oz-perturb.incl_s",
    "pipelines.run_pipeline.oz-embed.incl_s",
    "serialize.dumps.calls", "serialize.dumps.incl_s", "serialize.dumps.bytes",
    "trace.overhead_s",
) + CERT_METRICS
_COUNT_SUFFIXES = (".calls", ".terms", ".stages", ".tracked_points")


def layer_unit(name: str) -> str:
    if name in CERT_METRICS:
        return "ratio"
    if name.endswith(_COUNT_SUFFIXES):
        return "count"
    return "bytes" if name.endswith(".bytes") else "s"


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cstarlab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def context(load_start) -> dict:
    import numpy
    import scipy
    return {"git_sha": _git_sha(), "src_sha256": _src_digest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_env": {v: os.environ[v] for v in BLAS_VARS},
            "loadavg_start": load_start, "loadavg_end": _loadavg()}


def setup_seconds(args) -> tuple[float, float]:
    """Median over fresh processes of process start -> warm-up op done, raw
    and at reference speed.  CLOCK_MONOTONIC is system-wide, so the child's
    ready time and the parent's launch time are on one clock."""
    raw, normalized = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(probe["ready"] - t0 - probe["busy"])
        normalized.append(raw[-1] * probe["speed"])
    return statistics.median(raw), statistics.median(normalized)


def probe(seed: int) -> None:
    """Set-up of one process: imports and the warm-up op, with the speed
    meter running from the numpy import on."""
    from speed import SpeedMeter
    with SpeedMeter() as meter:
        t0 = time.perf_counter()
        warm_up(seed)
        t1 = time.perf_counter()
        ready = time.monotonic()
    print(json.dumps({"ready": ready, "busy": meter.busy(t0, t1),
                      "speed": meter.factor(t0, t1)}), flush=True)


def warm_up(seed: int) -> None:
    import runner
    from workloads import WARMUP, op_seed
    runner.run_op(WARMUP, op_seed("warmup", seed, 0, 0))


def _as_number(name: str, value: float):
    return int(value) if layer_unit(name) in ("count", "bytes") else value


def main(argv=None) -> int:
    load_start = _loadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload's tiny op list once")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "cstarlab" / "__init__.py").is_file():
        print(f"perfbench: no cstarlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, passes_for
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    if args.probe:
        probe(args.seed)
        return 0

    if args.trace == 0:
        setup_raw, setup_s = setup_seconds(args)
    import runner
    warm_up(args.seed)
    ops = workload.smoke if args.smoke else workload.ops
    detail = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    OUT.mkdir(exist_ok=True)

    if args.trace == 0:
        n_passes = 1 if args.smoke else passes_for(workload, args.seconds)
        from speed import SpeedMeter
        with SpeedMeter() as meter:
            passes = [runner.run_pass(workload, ops, args.seed, p, meter=meter)
                      for p in range(n_passes)]
        runner.set_speeds(passes, meter)
        detail["raw"] = runner.timing(passes)
        detail["raw"]["setup_s"] = setup_raw
        detail["reference_s"] = {"samples": len(meter.times),
                                 "mean": statistics.fmean(meter.times),
                                 "median": statistics.median(meter.times)}
        detail["certificates"] = runner.certificate_ratios(passes)
        metrics = runner.timing(passes, normalized=True)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
        mismatched = set()
    else:
        from tracer import Tracer
        import numpy as np
        plain = runner.run_pass(workload, ops, args.seed, 0)
        tracer = Tracer()
        traced = runner.run_pass(workload, ops, args.seed, 0, tracer=tracer)
        passes = [plain, traced]
        mismatched = {i for i, (a, b) in enumerate(zip(plain.results,
                                                       traced.results))
                      if a.report != b.report}
        table = tracer.summary({i: op.pipeline for i, op in enumerate(ops)})
        table["trace.overhead_s"] = traced.wall_s() - plain.wall_s()
        table.update(runner.certificate_ratios([plain]))
        detail["per_function"] = dict(sorted(table.items()))
        metrics = {name: _as_number(name, table.get(name, 0))
                   for name in PER_LAYER}
        units = {name: layer_unit(name) for name in PER_LAYER}
        spans = tracer.spans()
        np.savez_compressed(OUT / f"{workload.name}-spans.npz",
                            names=np.array(spans.pop("names")),
                            **{k: np.asarray(v) for k, v in spans.items()})

    results = [r for p in passes for r in p.results]
    failed = sum(1 for r in results if r.error is not None) + len(mismatched)
    detail["ops"] = [{"pass": k, "op": r.op.label, "seed": r.seed,
                      "seconds": r.seconds, "speed": r.speed, "error": r.error}
                     for k, p in enumerate(passes) for r in p.results]
    detail["traced_reports_differ"] = sorted(mismatched)
    detail["fail_ratio"] = failed / len(results)
    detail["metrics"] = metrics
    detail["context"] = context(load_start)
    (OUT / f"{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")

    for r in results:
        if r.error is not None:
            print(f"FAILED {r.op.label} seed {r.seed}: {r.error}")
    for i in sorted(mismatched):
        print(f"FAILED {ops[i].label}: traced report differs from untraced")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    for name, value in detail.get("certificates", {}).items():
        print(f"{name} {value} ratio")
    print(f"fail_ratio {detail['fail_ratio']} ratio ({failed}/{len(results)})")
    print("context " + json.dumps(detail["context"]))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(results), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
