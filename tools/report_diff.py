#!/usr/bin/env python3
"""Print the certificate values, verdicts, details and formulas that differ
between two trees.

    python3 tools/report_diff.py PARENT_SRC CHANGE_SRC

Runs the ops that ``report_digest.py`` runs (every benchmark op once, workload
seed 3000, pass 0) on each ``src`` directory, each tree in its own process.
For each op and certificate it prints every achieved value that moved by
more than 1e-9 relative, every verdict that changed, every certificate that
one tree has and the other lacks, and every op that raised on one side only,
and counts those lines.  Below that count it prints every scalar ``details``
value that moved by more than 1e-9 relative and every formula whose text
changed, with a count of its own.  An achieved or details line whose value
moved by at most 1e-13 absolute ends in ``(rounding)``, and each count gives
how many of its lines do.  It exits 0 whatever it finds; it fails only when a
tree cannot be run.
"""

import json
import subprocess
import sys

REL = 1e-9
# a move of at most this much, absolute, is marked as rounding
ROUNDING = 1e-13


def run(src):
    """{op label: {certificate: fields} or "raised <name>"} of one tree."""
    out = subprocess.run([sys.executable, __file__, "--dump", src], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return {label: certs for label, certs in map(json.loads, out.splitlines())}


def scalar(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def dump(src):
    from report_digest import reports  # beside this file

    for label, text, error in reports(src):
        certs = (f"raised {error}" if text is None else
                 {k: {"achieved": c["achieved"], "verdict": c["verdict"],
                      "formula": c["formula"],
                      "details": {n: v for n, v in c["details"].items() if scalar(v)}}
                  for k, c in json.loads(text)["certificates"].items()})
        print(json.dumps([label, certs]), flush=True)


def moved(a, b) -> bool:
    return abs(a - b) > REL * max(abs(a), abs(b))


def shift(a, b) -> str:
    tag = " (rounding)" if abs(b - a) <= ROUNDING else ""
    return f"{a!r} -> {b!r} ({(b - a) / max(abs(a), abs(b)):+.3g}){tag}"


def rounding(lines) -> int:
    return sum(line.endswith(" (rounding)") for line in lines)


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
            for name in sorted(a["details"].keys() & b["details"].keys()):
                x, y = a["details"][name], b["details"][name]
                if moved(x, y):
                    more.append(f"{label} {key}: details.{name} {shift(x, y)}")
            if a["formula"] != b["formula"]:
                more.append(f"{label} {key}: formula {a['formula']!r} -> {b['formula']!r}")
    return sorted(lines), sorted(more)


def main(argv):
    if argv[:1] == ["--dump"]:
        dump(argv[1])
        return
    parent_src, change_src = argv
    lines, more = diff(run(parent_src), run(change_src))
    print("\n".join(lines + [f"{len(lines)} certificate differences "
                             f"(achieved by more than {REL:g} relative, or verdicts), "
                             f"{rounding(lines)} of them rounding (at most {ROUNDING:g} absolute)"]
                    + more + [f"{len(more)} details and formula differences "
                              f"(scalar details by more than {REL:g} relative, or formula text), "
                              f"{rounding(more)} of them rounding (at most {ROUNDING:g} absolute)"]))


if __name__ == "__main__":
    main(sys.argv[1:])
