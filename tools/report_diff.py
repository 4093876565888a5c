#!/usr/bin/env python3
"""Print the reports, certificate values, verdicts, details and formulas that
differ between two trees.

    python3 tools/report_diff.py PARENT_SRC CHANGE_SRC

Each SRC is the ``src`` directory of a tree, the parent of its ``cstarlab``
package; the script checks both first, and any other directory exits 2.  It
runs every benchmark op once per tree (the op lists and instance seeds of
this repository's ``perfbench/workloads.py``, workload seed 3000, pass 0),
each tree in its own process.  It prints one line per op whose serialized
report moved, with the sha256 of both reports, and counts those lines.
Below that, for each op and certificate, it prints every achieved value that
moved by more than 1e-9 relative, every verdict that changed, every
certificate that one tree has and the other lacks, and every op that raised
on one side only, and counts those lines.  Last come every numeric
``details`` value that moved by more than 1e-9 relative, every other details
value that changed, every details key that one tree lacks and every formula
whose text changed, with a count of their own.  An achieved or details line
whose value moved by at most 1e-13 absolute ends in ``(rounding)``, and each
count gives how many of its lines do.  It exits 0 whatever it finds; it
fails only when a tree cannot be run.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

REL = 1e-9
# a move of at most this much, absolute, is marked as rounding
ROUNDING = 1e-13


def run(src):
    """({op label: sha256 of its report}, {op label: {certificate: fields}})
    of one tree; an op that raised has "raised <name>" in both."""
    out = subprocess.run([sys.executable, __file__, "--dump", src], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    rows = [json.loads(line) for line in out.splitlines()]
    return ({label: digest for label, digest, _ in rows},
            {label: certs for label, _, certs in rows})


def scalar(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def dump(src):
    """Print one JSON line [label, digest, certificate fields] per op, running
    cstarlab from the tree src."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [str(Path(src).resolve()),
                    str(Path(__file__).resolve().parents[1] / "perfbench")]
    from cstarlab import instances, pipelines, serialize
    from workloads import WORKLOADS, op_seed

    for name, workload in WORKLOADS.items():
        for i, op in enumerate(workload.ops):
            seed = op_seed(name, 3000, 0, i)
            try:
                inst = instances.gen_instance(op.recipe, op.params, seed=seed)
                text = serialize.dumps(pipelines.run_pipeline(inst, op.pipeline, seed=seed))
            except Exception as exc:  # a failing op is a result too
                digest = certs = f"raised {type(exc).__name__}"
            else:
                digest = hashlib.sha256(text.encode()).hexdigest()
                certs = {k: {"achieved": c["achieved"], "verdict": c["verdict"],
                             "formula": c["formula"],
                             "details": c["details"]}
                         for k, c in json.loads(text)["certificates"].items()}
            print(json.dumps([f"{name} #{i} {op.label}", digest, certs]), flush=True)


def moved(a, b) -> bool:
    return abs(a - b) > REL * max(abs(a), abs(b))


def shift(a, b) -> str:
    tag = " (rounding)" if abs(b - a) <= ROUNDING else ""
    return f"{a!r} -> {b!r} ({(b - a) / max(abs(a), abs(b)):+.3g}){tag}"


def rounding(lines) -> int:
    return sum(line.endswith(" (rounding)") for line in lines)


def moved_reports(parent, change):
    """One line per op whose report digest differs between the trees."""
    return sorted(f"{label}: report {parent.get(label, 'missing')} -> "
                  f"{change.get(label, 'missing')}"
                  for label in parent.keys() | change.keys()
                  if parent.get(label) != change.get(label))


def diff(parent, change):
    """(achieved, verdict and presence lines; details and formula lines)"""
    lines, more = [], []
    for label in parent.keys() | change.keys():
        old, new = parent.get(label, "missing"), change.get(label, "missing")
        if isinstance(old, str) or isinstance(new, str):
            if old != new:
                lines.append(f"{label}: {old} -> {new}")
            continue
        for key in sorted(old.keys() | new.keys()):
            if key not in old or key not in new:
                lines.append(f"{label} {key}: {'only in change' if key in new else 'only in parent'}")
                continue
            a, b = old[key], new[key]
            if a["verdict"] != b["verdict"]:
                lines.append(f"{label} {key}: verdict {a['verdict']} -> {b['verdict']}")
            if moved(a["achieved"], b["achieved"]):
                lines.append(f"{label} {key}: achieved {shift(a['achieved'], b['achieved'])}")
            for name in sorted(a["details"].keys() | b["details"].keys()):
                if name not in a["details"] or name not in b["details"]:
                    side = "change" if name in b["details"] else "parent"
                    more.append(f"{label} {key}: details.{name} only in {side}")
                    continue
                x, y = a["details"][name], b["details"][name]
                if scalar(x) and scalar(y):
                    if moved(x, y):
                        more.append(f"{label} {key}: details.{name} {shift(x, y)}")
                elif x != y:
                    more.append(f"{label} {key}: details.{name} {x!r} -> {y!r}")
            if a["formula"] != b["formula"]:
                more.append(f"{label} {key}: formula {a['formula']!r} -> {b['formula']!r}")
    return sorted(lines), sorted(more)


def main(argv):
    if argv[:1] == ["--dump"]:
        dump(argv[1])
        return
    problems = [] if len(argv) == 2 else ["it takes two directories, PARENT_SRC CHANGE_SRC"]
    problems += [f"{src} is not the parent directory of the cstarlab package (for example src)"
                 for src in argv if not (Path(src) / "cstarlab" / "__init__.py").is_file()]
    if problems:
        print(f"report_diff.py: {problems[0]}", file=sys.stderr)
        sys.exit(2)
    (parent_digests, parent), (change_digests, change) = run(argv[0]), run(argv[1])
    reports = moved_reports(parent_digests, change_digests)
    lines, more = diff(parent, change)
    print("\n".join(reports + [f"{len(reports)} of {len(change_digests)} reports moved "
                               "(sha256 of the serialized report)"]
                    + lines + [f"{len(lines)} certificate differences "
                               f"(achieved by more than {REL:g} relative, or verdicts), "
                               f"{rounding(lines)} of them rounding (at most {ROUNDING:g} absolute)"]
                    + more + [f"{len(more)} details and formula differences "
                              f"(numeric details by more than {REL:g} relative, other details "
                              "changed, details in one tree only, or formula text), "
                              f"{rounding(more)} of them rounding (at most {ROUNDING:g} absolute)"]))


if __name__ == "__main__":
    main(sys.argv[1:])
