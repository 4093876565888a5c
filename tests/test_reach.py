"""The reachable core: every definition of the package sits on a run path."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REACH = ROOT / "tools" / "reach.py"

# the definitions that wait for the ROADMAP items that wire or retire them:
# the near-inclusion embedding (item 12), the half-flip producer (item 10)
# and the heuristic order-zero fit (item 7)
ALLOWED = {"intertwine.near_embedding_nuclear", "intertwine.half_flip_cpc",
           "intertwine._projection_near_unit", "orderzero.order_zero_projection"}


def reach(src) -> list[str]:
    out = subprocess.run([sys.executable, str(REACH), str(src)], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return out.split()


def test_only_the_allowed_definitions_are_unreached():
    assert set(reach(ROOT / "src" / "cstarlab")) == ALLOWED


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
