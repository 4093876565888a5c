import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import cstarlab

from cstarlab.certs import (BOUNDS, TOL_ALG, TOL_EXACT, TRACK, Certificate, SchemaError,
                            WindowError, on_track, require_window,
                            WINDOW_DEFECT_REPAIR, WINDOW_INTERTWINE,
                            WINDOW_ISO_ETA, WINDOW_ISO_GAMMA)


def test_frozen_window_constants():
    # hypothesis windows pinned by the theory; changing one invalidates certs
    assert WINDOW_DEFECT_REPAIR == 1.0 / 17.0
    assert WINDOW_INTERTWINE == 13.0 / 150.0
    assert WINDOW_ISO_ETA == 1.0 / 210000.0
    assert WINDOW_ISO_GAMMA == 1.0 / 420000.0


def test_verdict_pass_iff_within_slack():
    # forward-closeness: 28 gamma^{1/2} = 0.028 at gamma = 1e-6, slack TOL_EXACT
    def build(achieved):
        return Certificate.build("forward-closeness", {"gamma": 1e-6, "n_points": 1}, achieved)

    c = build(0.028)
    assert c.verdict == "pass" and c.passed
    assert c.slack == TOL_EXACT and c.formula == BOUNDS["forward-closeness"].formula
    assert build(0.028 + TOL_EXACT / 2).verdict == "pass"
    c3 = build(0.028 + 2 * TOL_EXACT)
    assert c3.verdict == "fail" and not c3.passed


# one hand-picked input per bound, with its ceiling worked out by hand and its
# slack: the ceilings that vanish with their inputs take a rounding slack
ORACLES = {
    "expectation-restriction": ({"gamma": 0.25, "n_points": 2}, 0.5 + 1e-9, 0.0),
    "projection-conjugator": ({"beta": 0.5}, math.sqrt(0.5), TOL_EXACT),
    "twirled-projection-drift": ({"gamma": 0.04}, 0.4, TOL_ALG),
    "multiplicativity-repair": ({"gamma": 0.04}, 1.6 * math.sqrt(2), TOL_ALG),
    "repaired-multiplicativity": ({}, 1e-9, 0.0),
    # 2 sqrt(2) gamma + 5 sqrt(2) delta = sqrt(2) (0.2 + 0.05)
    "intertwiner-norm": ({"gamma": 0.1, "delta": 0.01}, 0.25 * math.sqrt(2), TOL_ALG),
    "intertwining-residual": ({"s_min": 0.9, "chain_bound": 0.3}, 0.3, TOL_ALG),
    # 8 sqrt(6) eta^{1/2} = 8 sqrt(6/24) = 4 at eta = 1/24
    "iso-closeness": ({"eta": 1 / 24, "mu": 1e-3, "n_points": 2}, 4 + 1 / 24 + 1e-3, TOL_EXACT),
    "homomorphism": ({}, 1e-9, 0.0),
    "image-membership": ({}, 1e-9, 0.0),
    "injectivity": ({"eta": 1 / 24, "nu": 5e-4}, 4 + 1 / 24 + 5e-4, TOL_EXACT),
    "surjectivity": ({"delta": 1e-6, "dim_A": 4, "dim_B": 4}, 0.0, 0.0),
    "forward-closeness": ({"gamma": 1e-6, "n_points": 2}, 0.028, TOL_EXACT),
    "backward-closeness": ({"gamma": 1e-6, "n_points": 2}, 0.028, TOL_EXACT),
    "near-embedding": ({"gamma": 1e-6, "n_points": 2, "sigma_min": 1.0}, 0.028, TOL_EXACT),
    "unitary-implementation": ({"gamma_basis": 1e-6, "defect": 0.0}, 1e-9, 0.0),
    # (2 gamma + gamma^2)(2 + 2 gamma + gamma^2) = 0.21 * 2.21 at gamma = 0.1
    "order-zero-perturbation": ({"gamma": 0.1, "mu": 0.21, "m": 2, "blocks_kept": 1},
                                0.4641, TOL_ALG),
    "nucdim-decomposition": ({"eps": 3e-3, "n": 0, "n_points": 2}, 3e-3, 0.0),
    "nucdim-transfer": ({"gamma": 0.1, "n": 1, "eps": 3e-3, "n_points": 2},
                        2 * 2 * 0.4641 + 3e-3, TOL_ALG),
    "nucdim-near-embedding": ({"gamma": 1e-7, "eta": 4e-4, "n": 0, "n_points": 2}, 0.4, TOL_EXACT),
    "distance-interval": ({"recipe_bound": 0.07}, 0.07, TOL_ALG),
}


def test_every_bound_has_a_closed_form_oracle():
    assert set(ORACLES) == set(BOUNDS)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_bound_meets_its_closed_form(name):
    inputs, ceiling, slack = ORACLES[name]
    c = Certificate.build(name, inputs, 0.0)
    assert c.ceiling == pytest.approx(ceiling, rel=1e-12, abs=0.0)
    assert c.slack == slack and c.inputs == inputs and c.formula == BOUNDS[name].formula


def test_track_enforces_windows_on_the_paper_track_only():
    assert TRACK.get() == "experimental"
    windowed = [(name, key, window) for name, bound in BOUNDS.items()
                for key, window in bound.windows.items()]
    assert len(windowed) == 7
    for name, key, window in windowed:
        zeros = dict.fromkeys(BOUNDS[name].windows, 0.0)
        require_window(name, **{**zeros, key: 1e6 * window})  # experimental: no check
        with on_track("paper"):
            require_window(name, **{**zeros, key: window})
            with pytest.raises(WindowError, match=rf"{name}: {key} = .* window {window:.6g}$"):
                require_window(name, **{**zeros, key: window * (1 + 1e-9)})
    assert TRACK.get() == "experimental"


def test_on_track_resets_the_track_and_knows_two_tracks():
    with pytest.raises(WindowError), on_track("paper"):
        require_window("forward-closeness", gamma=1.0)
    assert TRACK.get() == "experimental"
    with pytest.raises(ValueError, match="unknown track"), on_track("strict"):
        pass


PACKAGE = {path.stem: ast.parse(path.read_text())
           for path in sorted(Path(cstarlab.__file__).parent.glob("*.py"))}


def test_no_tolerance_is_read_from_a_budget():
    # the tolerances are the certs constants, read directly, never as the
    # attribute of a settings object
    reads = [f"{module}:{node.lineno} .{node.attr}" for module, tree in PACKAGE.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr.startswith("tol_")]
    assert reads == []


def _calls(attr: str):
    """(module, call) for every call of a function or method named attr."""
    return [(module, node) for module, tree in PACKAGE.items() for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr]


def test_every_build_names_a_bound_and_passes_no_bound():
    # the formula, ceiling and slack of a certificate come from BOUNDS alone,
    # and every entry of the table is built somewhere
    names = []
    for module, call in _calls("build"):
        if getattr(call.func.value, "id", None) != "Certificate":
            continue
        (name,) = call.args[:1] or [k.value for k in call.keywords if k.arg == "name"]
        assert isinstance(name, ast.Constant) and name.value in BOUNDS, f"{module}:{call.lineno}"
        assert not {"formula", "ceiling", "slack"} & {k.arg for k in call.keywords}
        names.append(name.value)
    assert len(names) == 22 and set(names) == set(BOUNDS)


def test_every_window_is_required_by_name():
    # each bound with windows is asked for all of them at one call; the
    # seven windows of the paper track sit on six bounds
    required = {}
    for module, call in _calls("require_window"):
        assert isinstance(call.args[0], ast.Constant), f"{module}:{call.lineno}"
        required[call.args[0].value] = {k.arg for k in call.keywords}
    assert required == {name: set(b.windows) for name, b in BOUNDS.items() if b.windows}


def test_every_seed_parameter_reaches_a_draw():
    # a seed that only labels a result changes no value.  Every function
    # that takes one hands it, alone or in an expression, to a call, and not
    # only to functions whose own seed is idle in this sense
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
              if isinstance(fn, ast.FunctionDef)
              and "seed" in [a.arg for a in fn.args.args + fn.args.kwonlyargs]]
    assert len(takers) >= 5
    idle: set = set()
    while more := {name for _, name, callees in takers if callees <= idle} - idle:
        idle |= more
    assert [label for label, name, _ in takers if name in idle] == []


def test_every_seed_changes_an_output():
    # the runtime side of the test above, which reads only the source: every
    # function that takes a seed gives a different output at seeds 0 and 1.
    # The list is the set of seed-taking functions in the package, so a new
    # seed parameter must join it.  dist reads no seed, so the pipelines are
    # read on oz-perturb, whose damping draws from it
    from cstarlab.instances import gen_instance, random_order_zero
    from cstarlab.linalg import rng_for
    from cstarlab.pipelines import _certify, run_pipeline

    params = {"algebra": "M2+M1", "ambient": 4, "eps": 1e-5}
    conj = gen_instance("conjugation", params, seed=3)
    outputs = {
        "rng_for": lambda s: rng_for(s, "seed-test").standard_normal(),
        "gen_instance": lambda s: gen_instance("conjugation", params, seed=s).B.basis.tobytes(),
        "random_order_zero": lambda s: random_order_zero((2, 1), 4, seed=s).map.images.tobytes(),
        # the certificate's value, not the report, which also records the seed
        "run_pipeline": lambda s: run_pipeline(conj, "oz-perturb", seed=s)
        .certificates["order-zero-perturbation"].achieved,
        "_certify": lambda s: _certify(conj, "oz-perturb", s, {})["order-zero-perturbation"].achieved,
    }
    takers = {fn.name for tree in PACKAGE.values() for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef)
              and "seed" in [a.arg for a in fn.args.args + fn.args.kwonlyargs]}
    assert set(outputs) == takers
    assert [name for name, out in outputs.items() if out(0) == out(1)] == []


def test_provenance_has_no_timestamp():
    # a report states its run's provenance once, with no timestamp, so a
    # rerun gives the same one
    from cstarlab.instances import gen_instance
    from cstarlab.pipelines import run_pipeline
    inst = gen_instance("conjugation", {"algebra": "M2", "eps": 1e-5}, seed=3)
    s = run_pipeline(inst, "dist", seed=3).provenance
    assert "time" not in {k.lower()[:4] for k in s}
    assert s == run_pipeline(inst, "dist", seed=3).provenance


def test_certificate_to_dict_plain():
    c = Certificate.build("twirled-projection-drift", {"gamma": np.float64(0.25)},
                          np.float64(0.1))
    d = c.to_dict()
    assert d["kind"] == "certificate" and d["schema_version"] == 2
    assert d["verdict"] == "pass" and "provenance" not in d
    assert type(d["inputs"]["gamma"]) is float and type(d["ceiling"]) is float


def test_a_certificate_stores_each_value_once():
    # the formula, ceiling and slack are read from its BOUNDS row and its
    # inputs, so a certificate does not store them; its JSON states them all
    assert [f.name for f in dataclasses.fields(Certificate)] == [
        "name", "inputs", "achieved", "verdict", "details"]
    d = Certificate.build("forward-closeness", {"gamma": 1e-6, "n_points": 1}, 0.01).to_dict()
    assert set(d) == {"name", "formula", "inputs", "ceiling", "achieved", "verdict", "slack",
                      "details", "kind", "schema_version"}
    assert (d["formula"], d["ceiling"], d["slack"]) == (
        BOUNDS["forward-closeness"].formula, 28.0 * math.sqrt(1e-6), TOL_EXACT)


def _oracle_certificate(name) -> Certificate:
    inputs, ceiling, slack = ORACLES[name]
    return Certificate.build(name, inputs, ceiling / 2, details={"note": [1, 2.5]})


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_every_bound_round_trips_unchanged(name):
    from cstarlab.serialize import dumps, loads
    cert = _oracle_certificate(name)
    back = loads(dumps(cert))
    assert back == cert and dumps(back) == dumps(cert)


@pytest.mark.parametrize("field,tamper", [
    ("formula", lambda v: v + " on all of A"),
    ("slack", lambda v: v + 1e-3),
    ("ceiling", lambda v: 2.0 * v + 1.0),
])
@pytest.mark.parametrize("name", sorted(ORACLES))
def test_every_bound_refuses_a_tampered_field(name, field, tamper):
    # the loader rebuilds each certificate from its inputs and refuses a
    # stored formula, slack or ceiling that BOUNDS would not give, naming
    # the field, the stored value and the rebuilt one
    from cstarlab.serialize import from_jsonable, to_jsonable
    d = to_jsonable(_oracle_certificate(name))
    rebuilt, d[field] = d[field], tamper(d[field])
    with pytest.raises(SchemaError) as err:
        from_jsonable({"kind": "report", "certificates": {name: d}})
    assert str(err.value) == (f"$.certificates.{name}.{field} is {d[field]!r}, "
                              f"but BOUNDS gives {rebuilt!r} for its inputs")
