"""JSON persistence: exact round trips and schema diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarlab.certs import Certificate, provenance_stamp
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
                             details={"note": [1, 2.5]}, provenance=provenance_stamp(3))
    back = loads(dumps(cert))
    assert isinstance(back, Certificate)
    assert back.name == cert.name
    assert back.verdict == cert.verdict
    assert back.achieved == cert.achieved
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
        dumps(LinMap(A, 3, tuple(A.basis), codomain_algebra=A))


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
    """A report-shaped document whose one certificate is edited in place."""
    import json
    cert = json.loads(dumps(Certificate(name="c", formula="a <= b", inputs={},
                                        ceiling=1.0, achieved=0.5, verdict="pass")))
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
    back = loads(_certificate_report(lambda d: d.update(ceiling=float("inf"), achieved=0)))
    cert = back["certificates"]["c"]
    assert cert.ceiling == float("inf") and cert.achieved == 0 and cert.passed
    text = _certificate_report(lambda d: [d.pop(k) for k in ("slack", "provenance", "details")])
    assert loads(text)["certificates"]["c"].slack == 0.0
    # a pass at ceiling + slack, and a fail within its ceiling, as a verifier
    # sets one when an invariant fails
    edge = loads(_certificate_report(lambda d: d.update(achieved=1.5, slack=0.5)))
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
