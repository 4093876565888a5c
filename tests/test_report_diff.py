"""tools/report_diff.py's comparison of two sets of certificate fields."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def report_diff():
    spec = importlib.util.spec_from_file_location("report_diff", ROOT / "tools" / "report_diff.py")
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
