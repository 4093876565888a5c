import ast
import dataclasses
from pathlib import Path

import pytest

import cstarlab

from cstarlab.certs import (DEFAULT_BUDGET, PAPER_BUDGET, Certificate,
                            ToleranceBudget, WindowError, provenance_stamp,
                            WINDOW_DEFECT_REPAIR, WINDOW_INTERTWINE,
                            WINDOW_ISO_ETA, WINDOW_ISO_GAMMA)


def test_frozen_window_constants():
    # hypothesis windows pinned by the theory; changing one invalidates certs
    assert WINDOW_DEFECT_REPAIR == 1.0 / 17.0
    assert WINDOW_INTERTWINE == 13.0 / 150.0
    assert WINDOW_ISO_ETA == 1.0 / 210000.0
    assert WINDOW_ISO_GAMMA == 1.0 / 420000.0


def test_verdict_pass_iff_within_slack():
    c = Certificate.build(name="t", formula="a <= c", inputs={}, ceiling=1.0,
                          achieved=1.0, provenance=provenance_stamp())
    assert c.verdict == "pass" and c.passed
    c2 = Certificate.build(name="t", formula="a <= c", inputs={}, ceiling=1.0,
                           achieved=1.0 + 1e-12, slack=1e-9,
                           provenance=provenance_stamp())
    assert c2.verdict == "pass"
    c3 = Certificate.build(name="t", formula="a <= c", inputs={}, ceiling=1.0,
                           achieved=1.1, slack=1e-9,
                           provenance=provenance_stamp())
    assert c3.verdict == "fail" and not c3.passed


def test_budget_tracks():
    assert DEFAULT_BUDGET.track == "experimental"
    assert PAPER_BUDGET.track == "paper"
    # the experimental track neither raises nor records (ROADMAP item 10)
    DEFAULT_BUDGET.require_window("x", 10.0, 1.0)
    with pytest.raises(WindowError):
        PAPER_BUDGET.require_window("x", 10.0, 1.0)
    PAPER_BUDGET.require_window("x", 0.5, 1.0)


def test_budget_is_only_the_track():
    assert tuple(f.name for f in dataclasses.fields(ToleranceBudget)) == ("track",)


PACKAGE = {path.stem: ast.parse(path.read_text())
           for path in sorted(Path(cstarlab.__file__).parent.glob("*.py"))}


def test_no_tolerance_is_read_from_a_budget():
    # the tolerances are the certs constants; a budget carries no tolerance
    reads = [f"{module}:{node.lineno} .{node.attr}" for module, tree in PACKAGE.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr.startswith("tol_")]
    assert reads == []


def test_every_budget_parameter_is_used_for_a_window():
    # a function that takes a budget checks a window with it, or hands it to
    # a call that may
    def uses_budget(fn) -> bool:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == "require_window"
                    and isinstance(f.value, ast.Name) and f.value.id == "budget"):
                return True
            if any(isinstance(a, ast.Name) and a.id == "budget"
                   for a in node.args + [k.value for k in node.keywords]):
                return True
        return False

    takers = [(module, fn) for module, tree in PACKAGE.items() for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef)
              and "budget" in [a.arg for a in fn.args.args + fn.args.kwonlyargs]]
    assert len(takers) >= 5
    assert [f"{module}.{fn.name}" for module, fn in takers if not uses_budget(fn)] == []


def test_every_seed_parameter_reaches_a_draw():
    # a seed that only labels provenance changes no value.  Every function
    # that takes one hands it, alone or in an expression, to a call other
    # than provenance_stamp, and not only to functions whose own seed is
    # idle in this sense
    def callee(call) -> str:
        f = call.func
        return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")

    def outside_calls(node):
        """node and what it contains, short of the calls inside it"""
        yield node
        if not isinstance(node, ast.Call):
            for child in ast.iter_child_nodes(node):
                yield from outside_calls(child)

    def seed_callees(fn) -> set:
        return {callee(call) for call in ast.walk(fn) if isinstance(call, ast.Call)
                and any(isinstance(node, ast.Name) and node.id == "seed"
                        for arg in call.args + [k.value for k in call.keywords]
                        for node in outside_calls(arg))}

    takers = [(f"{module}.{fn.name}", fn.name, seed_callees(fn))
              for module, tree in PACKAGE.items() for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name != "provenance_stamp"
              and "seed" in [a.arg for a in fn.args.args + fn.args.kwonlyargs]]
    assert len(takers) >= 5
    idle = {"provenance_stamp"}
    while more := {name for _, name, callees in takers if callees <= idle} - idle:
        idle |= more
    assert [label for label, name, _ in takers if name in idle] == []


def test_every_seed_changes_an_output():
    # the runtime side of the test above, which reads only the source: every
    # function that takes a seed gives a different output at seeds 0 and 1.
    # The list is the set of seed-taking functions in the package, so a new
    # seed parameter must join it
    from cstarlab.instances import gen_instance, random_order_zero
    from cstarlab.linalg import rng_for
    from cstarlab.pipelines import _gamma_source, run_pipeline

    params = {"algebra": "M2+M1", "ambient": 4, "eps": 1e-5}
    conj = gen_instance("conjugation", params, seed=3)
    noisy = gen_instance("choi-noise", {"algebra": "M2", "eps": 1e-6}, seed=2)
    outputs = {
        "rng_for": lambda s: rng_for(s, "seed-test").standard_normal(),
        "gen_instance": lambda s: gen_instance("conjugation", params, seed=s).B.basis.tobytes(),
        "random_order_zero": lambda s: random_order_zero((2, 1), 4, seed=s).map.images.tobytes(),
        # the interval's values, not the report, which also records the seed
        "run_pipeline": lambda s: run_pipeline(conj, "dist", seed=s)
        .certificates["distance-interval"].details,
        "_gamma_source": lambda s: _gamma_source(noisy, s, 32, {}),
    }
    takers = {fn.name for tree in PACKAGE.values() for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name != "provenance_stamp"
              and "seed" in [a.arg for a in fn.args.args + fn.args.kwonlyargs]}
    assert set(outputs) == takers
    assert [name for name, out in outputs.items() if out(0) == out(1)] == []


def test_budget_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_BUDGET.track = "paper"


def test_provenance_has_no_timestamp():
    s = provenance_stamp(3)
    assert "time" not in {k.lower()[:4] for k in s}
    assert s == provenance_stamp(3)


def test_certificate_to_dict_plain():
    c = Certificate.build(name="t", formula="f", inputs={"g": 0.5},
                          ceiling=1.0, achieved=0.1,
                          provenance=provenance_stamp())
    d = c.to_dict()
    assert d["kind"] == "certificate"
    assert d["verdict"] == "pass"
    assert isinstance(d["inputs"]["g"], float)
