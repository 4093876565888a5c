"""tools/report_diff.py: the reports, certificate fields and details that
move between two trees."""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "report_diff.py"


def report_diff():
    spec = importlib.util.spec_from_file_location("report_diff", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def cert(achieved, verdict="pass", formula="f", **details):
    return {"achieved": achieved, "verdict": verdict, "formula": formula, "details": details}


def test_diff_marks_rounding_moves_and_keeps_every_line():
    tool = report_diff()
    parent = {
        "iso #0": {"closeness": cert(1e-7, cb_lo=2e-16, sigma=0.5),
                   "homomorphism": cert(3e-15),
                   "injectivity": cert(0.25, formula="old")},
        "iso #1": "raised SpectralGapError",
        "dist #0": {"distance-interval": cert(1e-6)},
        "dist #1": {"distance-interval": cert(1e-6)},
    }
    change = {
        "iso #0": {"closeness": cert(1.0000005e-07, cb_lo=3e-16, sigma=0.500001),
                   "homomorphism": cert(4e-15, verdict="fail"),
                   "injectivity": cert(0.25, formula="new"),
                   "surjectivity": cert(0.0)},
        "iso #1": {"closeness": cert(1e-7)},
        "dist #0": {"distance-interval": cert(1e-6 * (1 + 1e-12))},
        "dist #1": {"distance-interval": cert(2e-6)},
    }
    lines, more = tool.diff(parent, change)
    # a move within 1e-9 relative is no line at all; every other line stays,
    # and only the moves of at most 1e-13 absolute carry the mark
    assert lines == sorted([
        "dist #1 distance-interval: achieved 1e-06 -> 2e-06 (+0.5)",
        "iso #0 closeness: achieved 1e-07 -> 1.0000005e-07 (+5e-07) (rounding)",
        "iso #0 homomorphism: achieved 3e-15 -> 4e-15 (+0.25) (rounding)",
        "iso #0 homomorphism: verdict pass -> fail",
        "iso #0 surjectivity: only in change",
        "iso #1: raised SpectralGapError -> {'closeness': " + repr(cert(1e-7)) + "}",
    ])
    assert more == sorted([
        "iso #0 closeness: details.cb_lo 2e-16 -> 3e-16 (+0.333) (rounding)",
        "iso #0 closeness: details.sigma 0.5 -> 0.500001 (+2e-06)",
        "iso #0 injectivity: formula 'old' -> 'new'",
    ])
    assert tool.rounding(lines) == 2 and tool.rounding(more) == 1


def test_moved_reports_names_each_op_whose_digest_moved():
    tool = report_diff()
    parent = {"a": "d1", "b": "d2", "c": "raised SpectralGapError"}
    change = {"a": "d1", "b": "d3", "d": "d4"}
    assert tool.moved_reports(parent, change) == [
        "b: report d2 -> d3", "c: report raised SpectralGapError -> missing",
        "d: report missing -> d4"]


def test_an_edited_formula_moves_the_reports_that_state_it(tmp_path):
    # a copy of the tree whose distance-interval formula text differs: the
    # dist reports, and only they, move, each with its formula line, and no
    # achieved value or verdict moves
    shutil.copytree(ROOT / "src" / "cstarlab", tmp_path / "src" / "cstarlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    certs = tmp_path / "src" / "cstarlab" / "certs.py"
    formula = '"sampled d(A, B) within the constructive recipe bound"'
    certs.write_text(certs.read_text().replace(formula, formula[:-1] + ' (edited)"'))
    out = subprocess.run([sys.executable, str(TOOL), str(ROOT / "src"), str(tmp_path / "src")],
                         check=True, capture_output=True, text=True, timeout=600).stdout
    lines = out.splitlines()
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    ops = sum(len(w.ops) for w in WORKLOADS.values())
    dist = sorted(f"{name} #{i} {op.label}" for name, w in WORKLOADS.items()
                  for i, op in enumerate(w.ops) if op.pipeline == "dist")
    n = len(dist)
    assert n and [line.split(": report ")[0] for line in lines[:n]] == dist
    assert all(re.fullmatch(r".*: report [0-9a-f]{64} -> [0-9a-f]{64}", line) for line in lines[:n])
    assert lines[n] == f"{n} of {ops} reports moved (sha256 of the serialized report)"
    assert lines[n + 1].startswith("0 certificate differences")
    assert [line.split(": formula")[0] for line in lines[n + 2:-1]] == [
        f"{label} distance-interval" for label in dist]
    assert lines[-1].startswith(f"{n} details and formula differences")
