"""Command-line surface: instance generation, the five pipelines, report
rendering, and the acceptance selftest.

Each subcommand takes only the settings it reads (``_TAKES``), and each
setting resolves once, in precedence order: explicit CLI flag, then a
CSTARLAB_* environment variable mirroring the flag, then the [lab] section
of an INI config file (--config or CSTARLAB_CONFIG), then the built-in
default; a variable or key takes only the values its flag takes, and a
[lab] key must name a setting.  A pipeline given a saved instance refuses
the flags that generate one.  Exit status is 0 on success, 1 when a
paper-track certificate fails (or the selftest fails), 2 on a structural
error such as a violated hypothesis window, a malformed input file or a
setting outside its type or choices, and 141 (128 + SIGPIPE, what a shell
reports for a writer stopped by a closed pipe) when the reader of standard
output closes it early, as ``| head`` does.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from typing import NamedTuple

from . import acceptance
from .certs import Certificate, SpectralGapError, on_track
from .instances import RECIPES, Instance, gen_instance
from .pipelines import PIPELINES, Report, render_report, run_pipeline
from .serialize import SchemaError, load, save


class _Setting(NamedTuple):
    type: type
    default: object
    choices: tuple | None
    help: str


# each setting once; a CSTARLAB_<NAME> variable or [lab] key takes only the
# values its flag takes
_SETTINGS = {
    "seed": _Setting(int, 0, None, "seed of the generated instance and of the run's draws"),
    "dim": _Setting(int, 4, None, "ambient matrix dimension for generated instances"),
    "recipe": _Setting(str, "conjugation", RECIPES, "how the instance's B is made from A"),
    "eps": _Setting(float, 1e-4, None, "perturbation scale for generated instances"),
    "algebra": _Setting(str, "M2", None, "base algebra: M2, M3, M2+M1, M2+M2, diag2..diag4, "
                                         "fullN, or comma-separated block sizes"),
    "block": _Setting(int, 0, None, "block index for the block-rotation recipe"),
    "track": _Setting(str, "experimental", ("paper", "experimental"),
                      "paper enforces the hypothesis windows"),
    "samples": _Setting(int, 32, None, "sample count for distance estimation"),
    "format": _Setting(str, "table", ("table", "json", "csv"), "report format"),
    "out": _Setting(str, None, None, "write output to this path"),
}
# the settings that make an instance; a saved instance refuses them
_GENERATION = ("dim", "recipe", "eps", "algebra", "block")
_GEN = ("seed",) + _GENERATION + ("out",)
# the settings each subcommand reads
_TAKES = {"gen": _GEN, **dict.fromkeys(PIPELINES, _GEN + ("track", "samples", "format")),
          "report": ("format", "out"), "selftest": ()}


def _read_config(path: str | None) -> dict:
    path = os.environ.get("CSTARLAB_CONFIG") if path is None else path
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise FileNotFoundError(f"config file not found: {path}")
    cfg = dict(parser.items("lab")) if parser.has_section("lab") else {}
    if unknown := sorted(set(cfg) - set(_SETTINGS)):
        raise SchemaError(f"{path}: config key [lab] {', '.join(unknown)} names no "
                          f"setting; the settings are {', '.join(_SETTINGS)}")
    return cfg


def _resolve(args: argparse.Namespace) -> None:
    """Set each setting the subcommand takes, by the precedence above; an
    environment or config value outside its flag's type or choices raises
    ``SchemaError`` naming its variable or key, as does a config key that
    names no setting.  A saved instance refuses the generation flags, and
    their other sources go unread."""
    names = _TAKES[args.command]
    if getattr(args, "instance", None) is not None:
        given = [f"--{n}" for n in _GENERATION if getattr(args, n) is not None]
        if given:
            raise ValueError(f"{args.instance} is a saved instance, which sets its own "
                             f"{', '.join(given)}; drop them or omit the instance")
        names = tuple(n for n in names if n not in _GENERATION)
    cfg = _read_config(args.config) if names else {}
    for name in names:
        if getattr(args, name) is not None:
            continue
        spec = _SETTINGS[name]
        val, env = spec.default, "CSTARLAB_" + name.upper()
        for source, raw in ((env, os.environ.get(env)),
                            (f"config key [lab] {name}", cfg.get(name))):
            if raw is not None:
                if spec.choices and raw not in spec.choices:
                    raise SchemaError(f"{source} = {raw!r}; --{name} takes one of {spec.choices}")
                try:
                    val = spec.type(raw)
                except ValueError:
                    raise SchemaError(f"{source} = {raw!r}; --{name} takes "
                                      f"{spec.type.__name__} values") from None
                break
        setattr(args, name, val)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstarlab",
        description="finite-dimensional laboratory for close C*-algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {"gen": sub.add_parser("gen", help="generate an instance and save it")}
    for name in PIPELINES:
        subs[name] = sub.add_parser(name, help=f"run the {name} pipeline")
        subs[name].add_argument("instance", nargs="?", default=None,
                                help="instance JSON path (generated when omitted)")
    subs["report"] = sub.add_parser("report", help="re-render a saved report")
    subs["report"].add_argument("path", help="report JSON path")
    subs["selftest"] = sub.add_parser("selftest", help="run the acceptance suite")
    subs["selftest"].add_argument("--criteria", default=None,
                                  help="comma-separated criterion numbers (default all)")
    for command, names in _TAKES.items():
        for name in names:
            spec = _SETTINGS[name]
            subs[command].add_argument(f"--{name}", type=spec.type, choices=spec.choices,
                                       help=spec.help)
        if names:
            subs[command].add_argument("--config", default=None, help="INI config file")
    return parser


def _instance_from_settings(args) -> Instance:
    params = {"algebra": args.algebra, "ambient": args.dim, "eps": args.eps, "block": args.block}
    return gen_instance(args.recipe, params, seed=args.seed)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        print(text, flush=True)  # a closed pipe raises here, inside main
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _cmd_gen(args) -> int:
    inst = _instance_from_settings(args)
    out = args.out or f"instance-{inst.recipe}-{inst.seed}.json"
    save(inst, out)
    print(f"wrote {out} (recipe {inst.recipe}, ambient {inst.A.ambient_dim}, "
          f"dim {inst.A.dim})")
    return 0


def _cmd_pipeline(args) -> int:
    if args.instance is not None:
        inst = load(args.instance)
        if not isinstance(inst, Instance):
            raise SchemaError(f"{args.instance} does not contain an instance")
    else:
        inst = _instance_from_settings(args)
    with on_track(args.track):
        report = run_pipeline(inst, args.command, seed=args.seed, samples=args.samples)
    _emit(render_report(report, args.format), args.out)
    return 1 if args.track == "paper" and not report.ok else 0


def _cmd_report(args) -> int:
    """Re-render a saved report.  Loading it rebuilds every certificate from
    certs.BOUNDS (``Certificate.from_dict``); this command also refuses a
    "pass" above ceiling + slack, which loads so that its readers can name
    it."""
    data = load(args.path)
    if not isinstance(data, dict) or "certificates" not in data:
        raise SchemaError(f"{args.path} does not contain a pipeline report")
    report = Report(pipeline=data.get("pipeline", "?"), seed=int(data.get("seed", 0)),
                    recipe=data.get("recipe", "?"), certificates=data["certificates"],
                    notes=data.get("notes", {}), provenance=data.get("provenance", {}))
    if not isinstance(report.certificates, dict):
        raise SchemaError("$.certificates is not an object")
    for key, c in report.certificates.items():
        path = f"$.certificates.{key}"
        if not isinstance(c, Certificate):
            raise SchemaError(f"{path}.kind is not 'certificate'")
        if c.passed and not c.achieved <= c.ceiling + c.slack:
            raise SchemaError(f"{path}.verdict is 'pass' but achieved {c.achieved!r} "
                              f"exceeds ceiling {c.ceiling!r} + slack {c.slack!r}")
    _emit(render_report(report, args.format), args.out)
    return 0


def _cmd_selftest(args) -> int:
    # no numbers, from no --criteria or an empty one, runs every criterion
    numbers = [int(tok) for tok in (args.criteria or "").split(",") if tok.strip()]
    results = acceptance.run_all(numbers)
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _resolve(args)
        run = _cmd_pipeline if args.command in PIPELINES else {
            "gen": _cmd_gen, "report": _cmd_report, "selftest": _cmd_selftest}[args.command]
        return run(args)
    except (SpectralGapError, FileNotFoundError, ValueError) as exc:
        print(f"cstarlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the recipe of Python's signal docs: with stdout on os.devnull the
        # flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
