"""The reachable core: every definition of the package sits on a run path."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REACH = ROOT / "tools" / "reach.py"
KNOB_COUNT = ROOT / "tools" / "knob_count.py"
REPORT_DIGEST = ROOT / "tools" / "report_digest.py"

# the definitions that wait for the ROADMAP items that wire or retire them:
# the near-inclusion embedding (item 12) and the half-flip producer (item 10)
ALLOWED = {"intertwine.near_embedding_nuclear", "intertwine.half_flip_cpc",
           "intertwine._projection_near_unit"}


# the defaulted parameters and dataclass fields of the package, as
# tools/knob_count.py counts them: a new default moves this pin, with the
# run path that sets it to a second value named where the pin moves.  The
# certification track is a context variable (certs.TRACK), which the count
# does not see
KNOBS = 28


def reach(src) -> list[str]:
    out = subprocess.run([sys.executable, str(REACH), str(src)], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return out.split()


def test_only_the_allowed_definitions_are_unreached():
    assert set(reach(ROOT / "src" / "cstarlab")) == ALLOWED


def test_no_default_is_added_unseen():
    out = subprocess.run([sys.executable, str(KNOB_COUNT), str(ROOT / "src" / "cstarlab")],
                         check=True, capture_output=True, text=True, timeout=60).stdout
    assert out.splitlines()[-1] == f"total: {KNOBS}", out


@pytest.mark.parametrize("tool,src,expects", [
    (REACH, ROOT / "src", "package directory"),
    (KNOB_COUNT, ROOT / "src", "package directory"),
    (REPORT_DIGEST, ROOT / "src" / "cstarlab", "parent directory of the cstarlab package"),
], ids=["reach", "knob_count", "report_digest"])
def test_a_tool_given_the_other_layout_exits_2(tool, src, expects):
    # reach.py and knob_count.py read the package directory, report_digest.py
    # its parent; handed the other one, each names the layout it expects
    out = subprocess.run([sys.executable, str(tool), str(src)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2 and out.stdout == ""
    assert len(out.stderr.splitlines()) == 1 and expects in out.stderr, out.stderr


def test_reach_follows_names_modules_methods_and_import_chains(tmp_path):
    # a toy package with the roots' module names: each definition below is
    # reached one way, except the three that nothing on a run path reads
    files = {
        "pipelines.py": """
            from .linalg import norm, Box
            from . import linalg

            def run_pipeline():
                box = Box()
                return norm(box.size()) + linalg.scale()
            """,
        "linalg.py": """
            from .base import shared

            SQUARE = lambda x: x * x

            def norm(x: "Unused") -> float:
                return shared(SQUARE(x))

            def scale():
                return 2

            class Box:
                def __init__(self):
                    self.n = 1

                def size(self):
                    return self.n

                def grow(self):
                    return 0

            class Unused:
                pass

            def orphan():
                return norm(1)
            """,
        "base.py": """
            def shared(x):
                return x
            """,
        "cli.py": "def main():\n    return 0\n",
        "acceptance.py": "def run_all():\n    return []\n",
        "serialize.py": "".join(f"def {n}(x=None):\n    return x\n\n"
                                for n in ("dumps", "loads", "save", "load")),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(textwrap.dedent(text))
    assert reach(tmp_path) == ["linalg.Box.grow", "linalg.Unused", "linalg.orphan"]
