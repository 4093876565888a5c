"""JSON persistence: exact round trips and schema diagnostics."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarlab.certs import BOUNDS, Certificate
from cstarlab.cpmaps import LinMap
from cstarlab.instances import block_algebra, gen_instance
from cstarlab.serialize import (
    SchemaError,
    dumps,
    load,
    loads,
    matrix_from_json,
    matrix_to_json,
    save,
)

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


@given(st.lists(finite, min_size=4, max_size=4),
       st.lists(finite, min_size=4, max_size=4))
@settings(max_examples=50, deadline=None)
def test_matrix_round_trip_bit_exact(re, im):
    m = (np.array(re).reshape(2, 2) + 1j * np.array(im).reshape(2, 2))
    back = matrix_from_json(matrix_to_json(m), "$")
    assert np.array_equal(back, m)


def test_matrix_round_trip_special_values():
    m = np.array([[0.1 + 0.2j, -0.0 + 1e-300j], [3e5, 7.0]])
    back = loads(dumps(m))
    assert np.array_equal(back, m)


def test_concrete_algebra_round_trip():
    A = block_algebra((2, 1), 4)
    back = loads(dumps(A))
    assert back.ambient_dim == 4
    assert back.dim == A.dim
    for b1, b2 in zip(A.basis, back.basis):
        assert np.array_equal(b1, b2)
    assert np.array_equal(A.support, back.support)


@pytest.mark.parametrize("edit,path", [
    (lambda d: d["A"].update(basis=[]), "$.A.basis is empty"),
    (lambda d: d["A"].update(support=matrix_to_json(np.eye(3))), "$.A.support has shape"),
    (lambda d: d["B"]["basis"].__setitem__(1, matrix_to_json(np.eye(2))),
     "$.B.basis[1] has shape (2, 2), not (4, 4)"),
], ids=["empty-basis", "support-3x3", "basis-element-2x2"])
def test_malformed_instance_algebra_names_its_json_path(edit, path):
    # the loader names the field, not numpy's reshape or broadcast error
    import json
    d = json.loads(dumps(gen_instance("conjugation", {"algebra": "M2+M1", "ambient": 4,
                                                      "eps": 1e-5}, seed=1)))
    edit(d)
    with pytest.raises(SchemaError) as err:
        loads(json.dumps(d))
    assert str(err.value).startswith(path), err.value


def test_certificate_round_trip():
    cert = Certificate.build("forward-closeness", {"gamma": 0.25, "n_points": 3}, 0.5,
                             details={"note": [1, 2.5]})
    back = loads(dumps(cert))
    assert isinstance(back, Certificate)
    assert back == cert
    assert dumps(back) == dumps(cert)


def test_instance_round_trip_byte_identical():
    inst = gen_instance("conjugation", {"algebra": "M2+M1", "eps": 1e-5}, seed=3)
    text = dumps(inst)
    back = loads(text)
    assert dumps(back) == text
    assert np.array_equal(back.true_unitary, inst.true_unitary)


def test_save_load_file(tmp_path):
    inst = gen_instance("conjugation", {"algebra": "M2", "eps": 1e-4}, seed=1)
    p = tmp_path / "inst.json"
    save(inst, p)
    back = load(p)
    assert dumps(back) == dumps(inst)


# ---------------------------------------------------------------------------
# schema diagnostics
# ---------------------------------------------------------------------------

def test_malformed_json_reports_location():
    with pytest.raises(SchemaError) as err:
        loads('{"kind": "matrix", ')
    assert "line 1" in str(err.value)


def test_missing_field_names_path():
    doc = dumps(np.eye(2))
    import json
    d = json.loads(doc)
    del d["re"]
    with pytest.raises(SchemaError) as err:
        loads(json.dumps(d))
    assert ".re" in str(err.value)


def test_wrong_length_rejected():
    import json
    d = json.loads(dumps(np.eye(2)))
    d["re"] = d["re"][:-1]
    with pytest.raises(SchemaError) as err:
        loads(json.dumps(d))
    assert "expected 4" in str(err.value)


def test_nested_path_in_error():
    import json
    A = block_algebra((2,), 3)
    d = json.loads(dumps(A))
    del d["basis"][0]["rows"]
    with pytest.raises(SchemaError) as err:
        loads(json.dumps(d))
    assert "basis[0]" in str(err.value)


def test_unserializable_type_rejected():
    with pytest.raises(TypeError):
        dumps(object())
    A = block_algebra((2,), 3)
    with pytest.raises(TypeError, match="cannot serialize LinMap"):
        dumps(LinMap(A, tuple(A.basis), codomain_algebra=A))


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_matrix_entries_rejected(bad):
    # json reads NaN and Infinity literals, so the decoder must refuse them
    import json
    d = json.loads(dumps(np.eye(2)))
    text = json.dumps(d).replace('"im": [0.0', f'"im": [{bad}', 1)
    assert bad in text
    with pytest.raises(SchemaError) as err:
        loads(text)
    assert "$.im" in str(err.value)
    with pytest.raises(SchemaError):
        matrix_from_json(json.loads(text), "$")


def test_schema_error_is_one_class_everywhere():
    import cstarlab
    from cstarlab import certs
    assert SchemaError is certs.SchemaError is cstarlab.SchemaError
    assert issubclass(SchemaError, ValueError)


def _certificate_report(edit) -> str:
    """A report-shaped document whose one certificate, a forward-closeness
    with ceiling 0.028 and slack TOL_EXACT, is edited in place."""
    cert = json.loads(dumps(Certificate.build(
        "forward-closeness", {"gamma": 1e-6, "n_points": 2}, 0.01)))
    edit(cert)
    return json.dumps({"kind": "report", "certificates": {"c": cert}})


@pytest.mark.parametrize("field", ["name", "formula", "inputs", "ceiling", "achieved", "verdict"])
def test_certificate_missing_field_names_path(field):
    with pytest.raises(SchemaError, match=rf"missing field \$\.certificates\.c\.{field}$"):
        loads(_certificate_report(lambda d: d.pop(field)))


def test_certificate_unknown_field_names_path():
    with pytest.raises(SchemaError, match=r"unknown field \$\.certificates\.c\.extra$"):
        loads(_certificate_report(lambda d: d.update(extra=1)))


@pytest.mark.parametrize("field", ["ceiling", "achieved", "slack"])
@pytest.mark.parametrize("value", ["x", None, True, [1.0]])
def test_certificate_non_numeric_value_names_path(field, value):
    with pytest.raises(SchemaError, match=rf"\$\.certificates\.c\.{field} is .*not a number"):
        loads(_certificate_report(lambda d: d.update({field: value})))


def test_certificate_numbers_load_as_written():
    # integers, infinities and the optional fields' defaults all load
    back = loads(_certificate_report(lambda d: d.update(
        inputs={"gamma": float("inf"), "n_points": 2}, ceiling=float("inf"), achieved=0)))
    cert = back["certificates"]["c"]
    assert cert.ceiling == float("inf") and cert.achieved == 0 and cert.passed
    text = _certificate_report(lambda d: [d.pop(k) for k in ("slack", "details")])
    assert loads(text)["certificates"]["c"].slack == BOUNDS["forward-closeness"].slack
    # a pass at ceiling + slack, and a fail within its ceiling, as a verifier
    # sets one when an invariant fails
    edge = loads(_certificate_report(lambda d: d.update(achieved=d["ceiling"] + d["slack"])))
    assert edge["certificates"]["c"].passed
    failed = loads(_certificate_report(lambda d: d.update(verdict="fail")))
    assert failed["certificates"]["c"].verdict == "fail"
    # a "pass" above its ceiling loads too: the readers of a file judge it
    # (`cstarlab report` exits 2, the benchmark's report check names it)
    over = loads(_certificate_report(lambda d: d.update(achieved=10.0)))
    assert over["certificates"]["c"].verdict == "pass"


@pytest.mark.parametrize("edit,message", [
    ({"verdict": "bogus"}, "'bogus', not 'pass' or 'fail'"),
    ({"verdict": "heuristic"}, "'heuristic', not 'pass' or 'fail'"),
    ({"verdict": None}, "None, not 'pass' or 'fail'"),
], ids=["bogus", "heuristic", "null"])
def test_certificate_unknown_verdict_names_path(edit, message):
    # a stored verdict is "pass" or "fail", the two Certificate.build gives
    with pytest.raises(SchemaError) as err:
        loads(_certificate_report(lambda d: d.update(edit)))
    assert str(err.value) == f"$.certificates.c.verdict is {message}"


def test_certificate_inputs_must_give_the_ceiling():
    with pytest.raises(SchemaError, match=r"^\$\.certificates\.c\.inputs do not give the "
                                          r"ceiling of 'forward-closeness' \(KeyError"):
        loads(_certificate_report(lambda d: d.update(inputs={"eta": 1e-6})))


def test_a_stated_schema_version_must_be_the_kinds():
    # a report of version 99 holding a certificate of version "banana" was
    # read as version 2; the report's own version is read first
    bad = json.loads(_certificate_report(lambda d: d.update(schema_version="banana")))
    with pytest.raises(SchemaError, match=r"^\$\.schema_version is 99, not 2$"):
        loads(json.dumps({**bad, "schema_version": 99}))
    with pytest.raises(SchemaError, match=r"^\$\.certificates\.c\.schema_version is 'banana', "
                                          r"not an integer$"):
        loads(json.dumps(bad))
    with pytest.raises(SchemaError, match=r"^\$\.certificates\.c\.schema_version is 3, not 2$"):
        loads(_certificate_report(lambda d: d.update(schema_version=3)))
    # a file that states no version loads, as the reports built here do
    assert loads(_certificate_report(lambda d: d.pop("schema_version")))["certificates"]["c"]


@pytest.mark.parametrize("kind,path", [
    ("instance", "$"), ("concrete_algebra", "$.A"), ("matrix", "$.A.support"),
    ("matrix", "$.A.basis[0]"), ("matrix", "$.true_unitary"),
])
def test_an_instance_of_another_schema_version_names_its_path(kind, path):
    d = json.loads(dumps(gen_instance("conjugation", {"algebra": "M2", "eps": 1e-5}, seed=1)))
    node = d
    for key in re.findall(r"\.(\w+)|\[(\d+)\]", path):
        node = node[key[0]] if key[0] else node[int(key[1])]
    assert node["kind"] == kind
    node["schema_version"] = 2
    with pytest.raises(SchemaError, match=rf"^{re.escape(path)}\.schema_version is 2, not 1$"):
        loads(json.dumps(d))
    del node["schema_version"]
    assert loads(json.dumps(d)).A.dim == 4


def test_certificate_provenance_is_the_reports():
    # the run's provenance is stated once, in the report; a certificate
    # that carries its own, as schema_version 1 did, is refused
    with pytest.raises(SchemaError, match=r"^unknown field \$\.certificates\.c\.provenance$"):
        loads(_certificate_report(lambda d: d.update(
            schema_version=1, provenance={"package": "cstarlab-0.1.0", "seed": 3})))


@pytest.mark.parametrize("pipeline", ["dist", "iso"])
def test_report_states_its_provenance_once(pipeline):
    # one top-level provenance per report, and none in a certificate
    from cstarlab.pipelines import run_pipeline
    inst = gen_instance("conjugation", {"algebra": "M2", "eps": 1e-5}, seed=3)
    data = json.loads(dumps(run_pipeline(inst, pipeline, seed=3)))
    assert data["schema_version"] == 2
    assert data["provenance"] == {"package": "cstarlab-0.1.0", "numpy": np.__version__}
    assert data["certificates"] and all(
        c["schema_version"] == 2 and "provenance" not in c for c in data["certificates"].values())


def _perfbench_runner(monkeypatch):
    """perfbench/runner.py as a module, as the benchmark runs it."""
    import importlib.util
    import sys
    from pathlib import Path
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("perfbench_runner", bench / "runner.py")
    runner = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, runner)  # its dataclasses look it up
    spec.loader.exec_module(runner)
    return runner


def test_a_ceiling_times_a_million_is_refused_on_load(monkeypatch):
    # the iso M2/4 report at seed 2 with its forward-closeness ceiling
    # multiplied by 1e6: serialize.loads refuses it, naming the field and
    # both values, so the benchmark's report check (which loads it) refuses
    # it too; a "pass" above its ceiling still loads, and that check names it
    import json
    runner = _perfbench_runner(monkeypatch)
    op = runner.Op("conjugation", "M2", 4, "iso")
    res = runner.run_op(op, 2)
    assert res.error is None
    inst = gen_instance(op.recipe, op.params, seed=2)
    data = json.loads(res.report)
    cert = data["certificates"]["forward-closeness"]
    ceiling, cert["ceiling"] = cert["ceiling"], cert["ceiling"] * 1e6
    tampered = json.dumps(data, indent=2, sort_keys=True)
    message = (f"$.certificates.forward-closeness.ceiling is {cert['ceiling']!r}, "
               f"but BOUNDS gives {ceiling!r} for its inputs")
    with pytest.raises(SchemaError) as err:
        loads(tampered)
    assert str(err.value) == message
    with pytest.raises(SchemaError) as err:
        runner.check_report(tampered, inst, op)
    assert str(err.value) == message
    cert["ceiling"], cert["achieved"] = ceiling, 2.0 * ceiling
    over = json.dumps(data, indent=2, sort_keys=True)
    assert loads(over)["certificates"]["forward-closeness"].verdict == "pass"
    assert "forward-closeness: verdict pass" in runner.check_report(over, inst, op)[0]
