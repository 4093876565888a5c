"""JSON persistence: exact round trips and schema diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarlab.algebra import FDAlgebra
from cstarlab.certs import Certificate, provenance_stamp
from cstarlab.cpmaps import LinMap
from cstarlab.instances import block_algebra, gen_instance, random_order_zero
from cstarlab.linalg import opnorm, rng_for
from cstarlab.orderzero import split_decomposition
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
    back = matrix_from_json(matrix_to_json(m))
    assert np.array_equal(back, m)


def test_matrix_round_trip_special_values():
    m = np.array([[0.1 + 0.2j, -0.0 + 1e-300j], [3e5, 7.0]])
    back = loads(dumps(m))
    assert np.array_equal(back, m)


def test_fd_algebra_round_trip():
    fd = FDAlgebra((2, 1, 3))
    back = loads(dumps(fd))
    assert isinstance(back, FDAlgebra)
    assert back.block_sizes == (2, 1, 3)


def test_concrete_algebra_round_trip():
    A = block_algebra((2, 1), 4)
    back = loads(dumps(A))
    assert back.ambient_dim == 4
    assert back.dim == A.dim
    for b1, b2 in zip(A.basis, back.basis):
        assert np.array_equal(b1, b2)
    assert np.array_equal(A.support, back.support)


def test_lin_map_round_trip():
    A = block_algebra((2,), 3)
    phi = LinMap(A, 3, tuple(A.basis), codomain_algebra=A)
    back = loads(dumps(phi))
    assert isinstance(back, LinMap)
    assert back.codomain_dim == 3
    for m1, m2 in zip(phi.images, back.images):
        assert np.array_equal(m1, m2)
    assert back.codomain_algebra is not None


def test_order_zero_map_round_trip():
    oz = random_order_zero((2, 1), 4, seed=5)
    back = loads(dumps(oz))
    assert np.array_equal(back.h, oz.h)
    rng = rng_for(5, "oz-serialize")
    x = oz.fd.random_elements(rng, 1)[0]
    assert opnorm(back(x) - oz(x)) == 0.0


def test_decomposition_round_trip():
    A = block_algebra((2, 1, 1), 4)
    dec = split_decomposition(A)
    back = loads(dumps(dec))
    assert back.n == dec.n
    assert back.pieces == dec.pieces
    assert back.defect == dec.defect
    for b in A.basis:
        assert opnorm(back.compose(b) - dec.compose(b)) == 0.0


def test_certificate_round_trip():
    cert = Certificate.build(
        name="round-trip", formula="a <= b",
        inputs={"gamma": 0.25}, ceiling=1.0, achieved=0.5,
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
        matrix_from_json(json.loads(text))


def test_schema_error_is_one_class_everywhere():
    import cstarlab
    from cstarlab import certs
    assert SchemaError is certs.SchemaError is cstarlab.SchemaError
    assert issubclass(SchemaError, ValueError)
