#!/usr/bin/env python3
"""Print the certificate values and verdicts that differ between two trees.

    python3 tools/report_diff.py PARENT_SRC CHANGE_SRC

Runs the ops that ``report_digest.py`` runs (every benchmark op once, workload
seed 3000, pass 0) on each ``src`` directory, each tree in its own process.
For each op and certificate it prints every achieved value that moved by
more than 1e-9 relative, every verdict that changed, every certificate that
one tree has and the other lacks, and every op that raised on one side only.
The last line counts the differences.  It exits 0 whatever it finds; it
fails only when a tree cannot be run.
"""

import json
import subprocess
import sys

REL = 1e-9


def run(src):
    """{op label: {certificate: (achieved, verdict)} or "raised <name>"} of one tree."""
    out = subprocess.run([sys.executable, __file__, "--dump", src], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return {label: certs for label, certs in map(json.loads, out.splitlines())}


def dump(src):
    from report_digest import reports  # beside this file

    for label, text, error in reports(src):
        certs = (f"raised {error}" if text is None else
                 {k: (c["achieved"], c["verdict"])
                  for k, c in json.loads(text)["certificates"].items()})
        print(json.dumps([label, certs]), flush=True)


def moved(a, b) -> bool:
    return abs(a - b) > REL * max(abs(a), abs(b))


def diff(parent, change):
    lines = []
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
            (a, va), (b, vb) = old[key], new[key]
            if va != vb:
                lines.append(f"{label} {key}: verdict {va} -> {vb}")
            if moved(a, b):
                lines.append(f"{label} {key}: achieved {a!r} -> {b!r} ({(b - a) / max(abs(a), abs(b)):+.3g})")
    return sorted(lines)


def main(argv):
    if argv[:1] == ["--dump"]:
        dump(argv[1])
        return
    parent_src, change_src = argv
    lines = diff(run(parent_src), run(change_src))
    print("\n".join(lines + [f"{len(lines)} certificate differences "
                             f"(achieved by more than {REL:g} relative, or verdicts)"]))


if __name__ == "__main__":
    main(sys.argv[1:])
