"""Command-line surface: instance generation, the five pipelines, report
rendering, and the acceptance selftest.

Settings resolve in precedence order: explicit CLI flag, then a CSTARLAB_*
environment variable mirroring the flag, then the [lab] section of an INI
config file (--config or CSTARLAB_CONFIG), then the built-in default.  Exit
status is 0 on success, 1 when a paper-track certificate fails (or the
selftest fails), 2 on a structural error such as a violated hypothesis
window or a malformed input file, and 141 (128 + SIGPIPE, what a shell
reports for a writer stopped by a closed pipe) when the reader of standard
output closes it early, as ``| head`` does.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

from . import acceptance
from .certs import (DEFAULT_BUDGET, PAPER_BUDGET, ContradictionError,
                    SpectralGapError, WindowError)
from .instances import RECIPES, Instance, gen_instance
from .pipelines import PIPELINES, Report, render_report, run_pipeline
from .serialize import SchemaError, load, save

_DEFAULTS = {
    "seed": 0,
    "dim": 4,
    "recipe": "conjugation",
    "eps": 1e-4,
    "track": "experimental",
    "samples": 32,
    "out": None,
    "format": "table",
    "algebra": "M2",
    "block": 0,
}

_CASTS = {"seed": int, "dim": int, "eps": float, "samples": int, "block": int}


def _read_config(path: str | None) -> dict:
    if path is None:
        path = os.environ.get("CSTARLAB_CONFIG")
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise FileNotFoundError(f"config file not found: {path}")
    if parser.has_section("lab"):
        return dict(parser.items("lab"))
    return {}


def _setting(name: str, args: argparse.Namespace, cfg: dict):
    """CLI flag > CSTARLAB_<NAME> env var > config file > default."""
    cast = _CASTS.get(name, str)
    val = getattr(args, name, None)
    if val is not None:
        return cast(val)
    env = os.environ.get("CSTARLAB_" + name.upper())
    if env is not None:
        return cast(env)
    if name in cfg:
        return cast(cfg[name])
    return _DEFAULTS[name]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dim", type=int, default=None,
                   help="ambient matrix dimension for generated instances")
    p.add_argument("--recipe", choices=RECIPES, default=None)
    p.add_argument("--eps", type=float, default=None,
                   help="perturbation scale for generated instances")
    p.add_argument("--track", choices=("paper", "experimental"), default=None)
    p.add_argument("--samples", type=int, default=None,
                   help="sample count for distance estimation")
    p.add_argument("--out", default=None, help="write output to this path")
    p.add_argument("--format", choices=("table", "json", "csv"), default=None)
    p.add_argument("--algebra", default=None,
                   help="base algebra: M2, M3, M2+M1, M2+M2, diag2..diag4, "
                        "fullN, or comma-separated block sizes")
    p.add_argument("--block", type=int, default=None,
                   help="block index for the block-rotation recipe")
    p.add_argument("--config", default=None, help="INI config file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstarlab",
        description="finite-dimensional laboratory for close C*-algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance and save it")
    _add_common(p_gen)

    for name in PIPELINES:
        p_run = sub.add_parser(name, help=f"run the {name} pipeline")
        p_run.add_argument("instance", nargs="?", default=None,
                           help="instance JSON path (generated when omitted)")
        _add_common(p_run)

    p_rep = sub.add_parser("report", help="re-render a saved report")
    p_rep.add_argument("path", help="report JSON path")
    _add_common(p_rep)

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.add_argument("--criteria", default=None,
                        help="comma-separated criterion numbers (default all)")
    _add_common(p_self)
    return parser


def _instance_from_settings(args, cfg) -> Instance:
    params = {
        "algebra": _setting("algebra", args, cfg),
        "ambient": _setting("dim", args, cfg),
        "eps": _setting("eps", args, cfg),
        "block": _setting("block", args, cfg),
    }
    return gen_instance(_setting("recipe", args, cfg), params,
                        seed=_setting("seed", args, cfg))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        print(text, flush=True)  # a closed pipe raises here, inside main
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _cmd_gen(args, cfg) -> int:
    inst = _instance_from_settings(args, cfg)
    out = _setting("out", args, cfg)
    if out is None:
        out = f"instance-{inst.recipe}-{inst.seed}.json"
    save(inst, out)
    print(f"wrote {out} (recipe {inst.recipe}, ambient {inst.A.ambient_dim}, "
          f"dim {inst.A.dim})")
    return 0


def _cmd_pipeline(args, cfg) -> int:
    if args.instance is not None:
        inst = load(args.instance)
        if not isinstance(inst, Instance):
            raise SchemaError(f"{args.instance} does not contain an instance")
    else:
        inst = _instance_from_settings(args, cfg)
    track = _setting("track", args, cfg)
    budget = PAPER_BUDGET if track == "paper" else DEFAULT_BUDGET
    report = run_pipeline(inst, args.command, budget=budget,
                          seed=_setting("seed", args, cfg),
                          samples=_setting("samples", args, cfg))
    _emit(render_report(report, _setting("format", args, cfg)),
          _setting("out", args, cfg))
    if track == "paper" and not report.ok:
        return 1
    return 0


def _cmd_report(args, cfg) -> int:
    report = load(args.path)
    if isinstance(report, dict) and "certificates" in report:
        report = Report(pipeline=report.get("pipeline", "?"),
                        seed=int(report.get("seed", 0)),
                        recipe=report.get("recipe", "?"),
                        certificates=report["certificates"],
                        notes=report.get("notes", {}))
    if not isinstance(report, Report):
        raise SchemaError(f"{args.path} does not contain a pipeline report")
    _emit(render_report(report, _setting("format", args, cfg)),
          _setting("out", args, cfg))
    return 0


def _cmd_selftest(args, cfg) -> int:
    numbers = None
    if args.criteria:
        numbers = [int(tok) for tok in args.criteria.split(",") if tok.strip()]
    results = acceptance.run_all(numbers)
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _read_config(getattr(args, "config", None))
        if args.command == "gen":
            return _cmd_gen(args, cfg)
        if args.command in PIPELINES:
            return _cmd_pipeline(args, cfg)
        if args.command == "report":
            return _cmd_report(args, cfg)
        return _cmd_selftest(args, cfg)
    except (WindowError, SpectralGapError, ContradictionError, SchemaError,
            FileNotFoundError, ValueError) as exc:
        print(f"cstarlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the recipe of Python's signal docs: with stdout on os.devnull the
        # flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
