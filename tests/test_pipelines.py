"""End-to-end pipeline runs and report rendering."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cstarlab import algebra
from cstarlab.algebra import ConcreteAlgebra
from cstarlab.cpmaps import LinMap
from cstarlab.instances import gen_instance
from cstarlab.pipelines import PIPELINES, Report, render_report, run_pipeline
from cstarlab.serialize import dumps, loads
from helpers import FILE_KINDS, file_kinds


def make_instance(seed=7, eps=1e-5, algebra="M2+M1"):
    return gen_instance("conjugation", {"algebra": algebra, "eps": eps},
                        seed=seed)


def _evaluate_a_map_on(A):
    return LinMap(A, 0.0 * A.basis)(A.basis)


@pytest.mark.parametrize("pipeline", ["iso", "oz-perturb"])
def test_reports_do_not_depend_on_which_caller_asks_for_the_structure_first(pipeline):
    # the Wedderburn structure is a function of the algebra alone: on fresh
    # copies of one instance, asking for it through A.structure() before a
    # map on the algebra is evaluated (which asks for it too), the reverse,
    # or not at all before the pipeline (which asks with its own seed, 3)
    # gives the same report bytes
    def report(first):
        inst = make_instance(seed=3, eps=1e-6)
        for ask in first:
            ask(inst.A)
            ask(inst.B)
        return dumps(run_pipeline(inst, pipeline, seed=3))

    structure = ConcreteAlgebra.structure
    orders = ((), (structure, _evaluate_a_map_on), (_evaluate_a_map_on, structure))
    assert len({report(first) for first in orders}) == 1


@pytest.mark.parametrize("profile, ambient", [("M2+M1", 4), ("3,3", 8)])
@pytest.mark.parametrize("pipeline", PIPELINES)
def test_one_wedderburn_decomposition_per_op(monkeypatch, pipeline, profile, ambient):
    # every map on A is stored on A's matrix units, so an op decomposes A
    # once; B's structure is never computed (the inverse of the isomorphism
    # reads B's basis coefficients), and dist decomposes nothing
    calls, decompose = [], algebra.wedderburn_decompose
    monkeypatch.setattr(algebra, "wedderburn_decompose",
                        lambda A: calls.append(A) or decompose(A))
    inst = gen_instance("conjugation", {"algebra": profile, "ambient": ambient, "eps": 1e-6},
                        seed=3)
    run_pipeline(inst, pipeline, seed=3)
    assert calls == ([] if pipeline == "dist" else [inst.A])


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_pipeline_runs_green(pipeline):
    inst = make_instance()
    report = run_pipeline(inst, pipeline, seed=7)
    assert isinstance(report, Report)
    assert report.pipeline == pipeline
    assert report.ok, {k: c.verdict for k, c in report.certificates.items()
                       if not c.passed}
    assert report.certificates
    assert "report" in file_kinds(report) <= FILE_KINDS


def test_iso_run_loads_no_scipy():
    # scipy takes about 0.2 s and 20 MB to import; the package imports none
    # of it, and its runtime dependency is numpy alone
    code = ("import sys, cstarlab\n"
            "from cstarlab.instances import gen_instance\n"
            "from cstarlab.pipelines import run_pipeline\n"
            "inst = gen_instance('conjugation', {'algebra': 'M2', 'ambient': 4,"
            " 'eps': 1e-6}, seed=1)\n"
            "assert run_pipeline(inst, 'iso', seed=1).ok\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    assert out.strip().splitlines()[-1] == "[]"


def test_unknown_pipeline_rejected():
    inst = make_instance()
    with pytest.raises(ValueError):
        run_pipeline(inst, "frobnicate", seed=0)


def test_pipeline_deterministic():
    inst = make_instance(seed=3)
    r1 = run_pipeline(inst, "dist", seed=3)
    r2 = run_pipeline(inst, "dist", seed=3)
    assert dumps(r1) == dumps(r2)


def test_report_ok_reflects_certificates():
    inst = make_instance()
    report = run_pipeline(inst, "dist", seed=7)
    assert report.ok
    cert = next(iter(report.certificates.values()))
    cert.verdict = "fail"
    assert not report.ok


def test_render_table():
    inst = make_instance()
    report = run_pipeline(inst, "dist", seed=7)
    out = render_report(report, "table")
    assert "pipeline dist" in out
    assert "OK" in out
    # the verdict column is as wide as "pass" and "fail"
    c = report.certificates["distance-interval"]
    assert out.splitlines()[2] == (f"distance-interval  pass  achieved {c.achieved:.6g}  "
                                   f"ceiling {c.ceiling:.6g}")


def test_render_csv():
    inst = make_instance()
    report = run_pipeline(inst, "unitary", seed=7)
    out = render_report(report, "csv")
    lines = out.splitlines()
    assert lines[0] == "certificate,verdict,achieved,ceiling,slack"
    assert len(lines) == 1 + len(report.certificates)


def test_render_json_round_trips():
    inst = make_instance()
    report = run_pipeline(inst, "iso", seed=7)
    out = render_report(report, "json")
    data = json.loads(out)
    assert data["kind"] == "report"
    assert data["ok"] is True
    back = loads(out)
    assert isinstance(back, dict)
    assert set(back["certificates"]) == set(report.certificates)


def test_render_unknown_format_rejected():
    inst = make_instance()
    report = run_pipeline(inst, "dist", seed=7)
    with pytest.raises(ValueError):
        render_report(report, "yaml")


def test_choi_noise_instance_through_dist():
    inst = gen_instance("choi-noise", {"algebra": "M2", "eps": 1e-6}, seed=2)
    report = run_pipeline(inst, "dist", seed=2)
    # no constructive hint: the ceiling falls back to the trivial bound; B
    # is the repaired image, of A's dimension, and the sampled bracket puts
    # it within eps of A (the sampled hi is an estimate, not a bound)
    assert report.ok
    assert report.certificates["distance-interval"].ceiling == 2.0
    assert report.notes["dim_B"] == report.notes["dim_A"] == 4
    assert 0.0 < report.notes["interval"]["hi"] <= 1e-6


@pytest.mark.parametrize("algebra, ambient", [("M2", 4), ("3,3", 8)])
@pytest.mark.parametrize("pipeline", PIPELINES)
def test_every_pipeline_passes_on_choi_noise(pipeline, algebra, ambient):
    # a choi-noise pair has dim B = dim A, so the isomorphism pipelines run
    # on it from the sampled distance, with no generating unitary
    inst = gen_instance("choi-noise", {"algebra": algebra, "ambient": ambient, "eps": 1e-6},
                        seed=2)
    report = run_pipeline(inst, pipeline, seed=2)
    assert report.ok, {k: c.verdict for k, c in report.certificates.items()}
    assert report.notes.get("gamma_source", "sampled-distance") == "sampled-distance"
