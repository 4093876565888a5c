"""The reachable core: every definition of the package sits on a run path."""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REACH = ROOT / "tools" / "reach.py"
KNOB_COUNT = ROOT / "tools" / "knob_count.py"
REPORT_DIFF = ROOT / "tools" / "report_diff.py"

# the definition that waits for the ROADMAP item that wires it: the
# near-inclusion embedding (item 12)
ALLOWED = {"intertwine.near_embedding_nuclear"}


# the defaulted parameters, dataclass fields and module-level context
# variables of the package, as tools/knob_count.py counts them: a new default
# moves this pin, with the run path that sets it to a second value named where
# the pin moves.  The 11 are the certification track (certs.TRACK) and 10
# defaults: averaging 3 (improve_multiplicativity gamma, intertwining_unitary
# gamma and delta), certs 2 (TRACK, build details), cli 1 (main argv), cpmaps 2
# (LinMap.codomain_algebra, stinespring tol_psd), intertwine 1
# (near_embedding_nuclear X), orderzero 1 (near_embed_nucdim X), serialize 1
# (from_jsonable path)
KNOBS = 11


# the walk that does not enter the selftest also leaves the selftest's data
# generators, the diagonal algebra the hat decomposition lives on, and the
# decomposition verifiers that item 23 wires into oz-embed
SELFTEST_ONLY = {
    "algebra.ConcreteAlgebra.diagonal", "algebra.FDAlgebra.random_elements",
    "instances._rotated_embedding", "instances.hat_decomposition",
    "instances.random_order_zero", "linalg.random_unitary",
    "orderzero.split_decomposition",
    "orderzero.NucDimDecomposition.compose", "orderzero.is_order_zero",
    "orderzero.verify_nucdim_decomposition",
}


def reach_tool():
    """tools/reach.py as a module, for the walk's skip argument."""
    spec = importlib.util.spec_from_file_location("reach", REACH)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def reach(src) -> list[str]:
    out = subprocess.run([sys.executable, str(REACH), str(src)], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return out.split()


def test_only_the_allowed_definitions_are_unreached():
    assert set(reach(ROOT / "src" / "cstarlab")) == ALLOWED


def test_without_the_selftest_only_its_data_and_the_waiting_verifiers_are_unreached():
    # what criteria check is what the pipelines run: no definition but the
    # selftest's own data and item 23's verifiers waits on acceptance.run_all
    src = ROOT / "src" / "cstarlab"
    assert set(reach_tool().unreached(src, skip=("acceptance",))) == ALLOWED | SELFTEST_ONLY
    # skipping nothing is the command line's walk
    assert reach_tool().unreached(src) == reach(src)


def test_no_default_is_added_unseen():
    out = subprocess.run([sys.executable, str(KNOB_COUNT), str(ROOT / "src" / "cstarlab")],
                         check=True, capture_output=True, text=True, timeout=60).stdout
    assert out.splitlines()[-1] == f"total: {KNOBS}", out


@pytest.mark.parametrize("tool,dirs,expects", [
    (REACH, [ROOT / "src"], "package directory"),
    (KNOB_COUNT, [ROOT / "src"], "package directory"),
    (REPORT_DIFF, [ROOT / "src", ROOT / "src" / "cstarlab"],
     "src/cstarlab is not the parent directory of the cstarlab package"),
], ids=["reach", "knob_count", "report_diff"])
def test_a_tool_given_the_other_layout_exits_2(tool, dirs, expects):
    # reach.py and knob_count.py read the package directory, report_diff.py
    # its parent in both trees, checked before it runs either; handed the
    # other one, each names the layout it expects
    out = subprocess.run([sys.executable, str(tool), *map(str, dirs)],
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
    # a skipped definition is neither entered nor listed: what only it reads
    # is left unreached
    assert reach_tool().unreached(tmp_path, skip=("linalg.norm",)) == [
        "base.shared", "linalg.Box.grow", "linalg.Unused", "linalg.orphan"]


def test_knob_count_sees_defaults_fields_and_context_variables(tmp_path):
    # a toy package: one defaulted parameter, one defaulted dataclass field
    # and one module-level context variable are knobs; a required parameter,
    # a field without a default and a context variable made in a function
    # are not
    (tmp_path / "__init__.py").write_text("")
    (tmp_path / "mod.py").write_text(textwrap.dedent("""
        from contextvars import ContextVar
        import contextvars
        from dataclasses import dataclass

        MODE: ContextVar[str] = ContextVar("mode", default="a")
        LEVEL = contextvars.ContextVar("level")

        def f(x, y=1):
            return ContextVar("local")

        @dataclass
        class R:
            a: int
            b: int = 0
        """))
    out = subprocess.run([sys.executable, str(KNOB_COUNT), str(tmp_path)], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.splitlines() == ["__init__: 0", "mod: 4  MODE LEVEL f(y) R.b", "total: 4"]
